import pytest

from treelab import (BudgetError, TreeError, are_isomorphic, canonical_code,
                     chain, check_embedding, cross_check_minor,
                     enumerate_trees, format_tree, is_minor,
                     largest_common_minor, parse_tree, root_merge_supertree,
                     smallest_common_supertree, star, unit_edit_distance)

from conftest import all_trees_up_to


def witness_codes(result):
    return sorted(canonical_code(w.tree) for w in result.witnesses)


def assert_witnesses_valid(result):
    for w in result.witnesses:
        for emb in (w.emb1, w.emb2):
            assert check_embedding(emb.mapping, emb.source, emb.target) == []


# -- largest common minor ---------------------------------------------------------

def test_lcs_of_a_tree_with_itself():
    t = parse_tree("a(b(c,d),e)")
    r = largest_common_minor(t, t)
    assert r.optimum_size == t.size
    assert are_isomorphic(r.witnesses[0].tree, t)
    assert_witnesses_valid(r)


def test_lcs_chain2_star3():
    r = largest_common_minor(chain(2), star(3, "m"))
    assert r.optimum_size == 2
    assert are_isomorphic(r.witnesses[0].tree, chain(2))
    assert_witnesses_valid(r)


def test_lcs_budget_enforced():
    with pytest.raises(BudgetError):
        largest_common_minor(chain(13), chain(13, "m"))
    largest_common_minor(chain(13), chain(13, "m"), budget=13)


def test_lcs_rejects_empty_input():
    from treelab import Tree
    with pytest.raises(TreeError):
        largest_common_minor(Tree([], [], None), chain(2))


def test_lcs_all_witnesses_one_per_isomorphism_class():
    t1, t2 = parse_tree("a(b,c(d))"), parse_tree("x(y(z),w(v))")
    r = largest_common_minor(t1, t2, all_witnesses=True)
    codes = witness_codes(r)
    assert len(codes) == len(set(codes))
    assert all(w.tree.size == r.optimum_size for w in r.witnesses)
    assert_witnesses_valid(r)


def test_lcs_symmetry_up_to_4():
    trees = all_trees_up_to(4)
    for i, t1 in enumerate(trees):
        for t2 in trees[i:]:
            a = largest_common_minor(t1, t2, all_witnesses=True)
            b = largest_common_minor(t2, t1, all_witnesses=True)
            assert a.optimum_size == b.optimum_size
            assert witness_codes(a) == witness_codes(b)


def test_lcs_determinism():
    t1, t2 = parse_tree("a(b(c),d,e)"), parse_tree("x(y(z,w))")
    first = largest_common_minor(t1, t2, all_witnesses=True)
    second = largest_common_minor(t1, t2, all_witnesses=True)
    assert [format_tree(w.tree) for w in first.witnesses] == \
           [format_tree(w.tree) for w in second.witnesses]
    assert [w.emb2.to_json() for w in first.witnesses] == \
           [w.emb2.to_json() for w in second.witnesses]


def test_minor_absorption_up_to_5():
    trees = all_trees_up_to(5)
    for s in trees:
        for t in trees:
            if not is_minor(s, t):
                continue
            lcs = largest_common_minor(s, t)
            assert lcs.optimum_size == s.size
            assert are_isomorphic(lcs.witnesses[0].tree, s)
            scs = smallest_common_supertree(s, t)
            assert scs.optimum_size == t.size
            assert are_isomorphic(scs.witnesses[0].tree, t)


def test_lcs_report_schema():
    data = largest_common_minor(chain(2), star(3, "m")).to_json()
    assert set(data) == {"optimum_size", "witness_count", "witnesses",
                         "levels_scanned", "timing"}
    assert set(data["witnesses"][0]) == {"tree_literal", "embedding1", "embedding2"}
    assert "wall_ms" in data["timing"]


# -- smallest common supertree -------------------------------------------------------

def test_scs_of_a_tree_with_itself():
    t = parse_tree("a(b(c,d),e)")
    r = smallest_common_supertree(t, t)
    assert r.optimum_size == t.size
    assert are_isomorphic(r.witnesses[0].tree, t)


def test_scs_chain2_star3():
    r = smallest_common_supertree(chain(2), star(3, "m"))
    assert r.optimum_size == 3
    assert are_isomorphic(r.witnesses[0].tree, star(3))
    assert_witnesses_valid(r)


def test_scs_bounds_up_to_4():
    trees = all_trees_up_to(4)
    for i, t1 in enumerate(trees):
        for t2 in trees[i:]:
            r = smallest_common_supertree(t1, t2)
            assert max(t1.size, t2.size) <= r.optimum_size <= t1.size + t2.size - 1
            assert_witnesses_valid(r)
            lcs = largest_common_minor(t1, t2)
            assert lcs.optimum_size <= min(t1.size, t2.size)


def test_scs_symmetry_up_to_4():
    trees = all_trees_up_to(4)
    for i, t1 in enumerate(trees):
        for t2 in trees[i:]:
            a = smallest_common_supertree(t1, t2, all_witnesses=True)
            b = smallest_common_supertree(t2, t1, all_witnesses=True)
            assert a.optimum_size == b.optimum_size
            assert witness_codes(a) == witness_codes(b)


def test_scs_max_size_cap_reports_lower_bound():
    t1 = parse_tree("a(y(p1(p2(p3)),r),s1(s2,s3))")
    t2 = parse_tree("a(p1(p2(p3)),z(r,s1(s2,s3)))")
    with pytest.raises(BudgetError) as err:
        smallest_common_supertree(t1, t2, max_size=10)
    assert err.value.lower_bound == 11


def test_scs_enum_cap_reports_lower_bound():
    with pytest.raises(BudgetError) as err:
        smallest_common_supertree(star(9), chain(9, "m"), enum_cap=9)
    assert err.value.lower_bound == 10


def test_scs_rejects_labeled_inputs():
    with pytest.raises(TreeError):
        smallest_common_supertree(parse_tree("a:x(b)"), chain(2, "m"))


def test_scs_all_witnesses_scans_the_full_level():
    r = smallest_common_supertree(chain(3), star(3, "m"), all_witnesses=True)
    assert r.optimum_size == 4
    assert r.levels[-1].candidates == len(enumerate_trees(4))
    assert r.levels[-1].hits == len(r.witnesses)
    codes = witness_codes(r)
    assert len(codes) == len(set(codes))


# -- root merge -------------------------------------------------------------------------

def test_root_merge_examples():
    assert root_merge_supertree(chain(1), chain(1, "m")).size == 1
    m = root_merge_supertree(chain(2), chain(2, "m"))
    assert m.size == 3 and are_isomorphic(m, star(3))
    m = root_merge_supertree(chain(3), star(3, "m"))
    assert m.size == 5
    assert is_minor(chain(3), m) and is_minor(star(3), m)


def test_root_merge_name_collisions_are_resolved():
    m = root_merge_supertree(chain(3), chain(3))
    assert m.size == 5


def test_root_merge_labels():
    with pytest.raises(TreeError):
        root_merge_supertree(parse_tree("a:x(b)"), parse_tree("c:y(d)"))
    m = root_merge_supertree(parse_tree("a:x(b)"), parse_tree("c:x(d:z)"))
    assert m.size == 3 and m.labels[m.root] == "x" and "z" in m.labels.values()


# -- edit distance and cross-check ------------------------------------------------------

def test_unit_edit_distance_examples():
    t = parse_tree("a(b(c,d),e)")
    assert unit_edit_distance(t, t) == 0
    assert unit_edit_distance(chain(2), star(3, "m")) == 1
    t1 = parse_tree("a(y(p1(p2(p3)),r),s1(s2,s3))")
    t2 = parse_tree("a(p1(p2(p3)),z(r,s1(s2,s3)))")
    assert unit_edit_distance(t1, t2) == 2


def test_cross_check_examples():
    assert cross_check_minor(chain(1), parse_tree("a(b(c),d)"))
    assert not cross_check_minor(star(3), chain(3, "m"))
    with pytest.raises(BudgetError):
        cross_check_minor(chain(13), chain(13, "m"))


def test_cross_check_sweep_up_to_5():
    trees = all_trees_up_to(5)
    for s in trees:
        for t in trees:
            cross_check_minor(s, t)  # raises SolverDisagreement on any mismatch
