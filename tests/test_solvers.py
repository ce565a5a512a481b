import ast
import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings

from treelab import (BudgetError, SolverDisagreement, TreeError,
                     are_isomorphic, canonical_code, chain, check_embedding, cli,
                     enumerate_trees, fig1_family, find_embedding, format_tree,
                     induced_minor, is_minor, largest_common_minor, parse_tree,
                     scan_pairs, smallest_common_supertree, star)

from treelab import embeddings, quotient, solvers, trees
from treelab.embeddings import _fits
from treelab.families import _scan_one_pair, _scan_tree
from treelab.trees import _intern, _level_sequences, _levels_of, _shape, _tree_count

from conftest import (all_trees_up_to, catalogue, cross_check_minor, insertions, labeled_trees,
                      lcs_by_subset_walk, merge_matching, root_merge_supertree,
                      scs_by_catalogue, scs_by_growth, scs_by_merging, scs_unpruned,
                      unlabeled_trees)


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
        largest_common_minor(chain(15), chain(15, "m"))
    largest_common_minor(chain(15), chain(15, "m"), cap=15)
    assert largest_common_minor(chain(14), star(14, "m")).optimum_size == 2  # the default cap


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


def report(result):
    data = result.to_json()
    data.pop("timing")
    return data


def test_lcs_core_matches_the_subset_walk_on_all_pairs_up_to_6():
    trees = all_trees_up_to(6)
    for t1 in trees:
        for t2 in trees:
            for all_witnesses in (False, True):
                want = lcs_by_subset_walk(t1, t2, all_witnesses)
                got = largest_common_minor(t1, t2, all_witnesses=all_witnesses)
                assert report(got) == report(want), (t1, t2, all_witnesses)
    assert len(trees) ** 2 == 1369


@settings(max_examples=200, deadline=None)
@given(labeled_trees(max_size=8), labeled_trees(max_size=8))
def test_lcs_core_matches_the_subset_walk_on_random_labeled_pairs(t1, t2):
    for all_witnesses in (False, True):
        assert (report(largest_common_minor(t1, t2, all_witnesses=all_witnesses))
                == report(lcs_by_subset_walk(t1, t2, all_witnesses)))


def test_lcs_core_returns_the_first_subset_of_each_hit_shape():
    small, other = parse_tree("r(a(b),c)"), parse_tree("x(y(v,u))")
    # size 3 in subset order: {a,b,c} has two roots and is skipped, {a,b,r}
    # is a chain, {a,c,r} a cherry, {b,c,r} the cherry again
    k, levels, hits = solvers._lcs_core(small, other, True)
    # each level is a (size, candidates, hits) tuple
    assert k == 3 and levels == [(4, 1, 0), (3, 2, 2)]
    assert hits == [("a", "b", "r"), ("a", "c", "r")]
    k, levels, hits = solvers._lcs_core(small, other, False)
    assert (k, levels[-1][1], hits) == (3, 1, [("a", "b", "r")])


@pytest.mark.parametrize("first", [False, True])
def test_lcs_core_is_the_same_with_a_cold_and_a_warm_memo(first):
    # a level filled under one witness mode serves the other one unchanged;
    # freshly parsed trees start with empty tables
    trees = [parse_tree(format_tree(t)) for t in all_trees_up_to(5)]
    trees.append(parse_tree("r:a(b:a(c:b),d:b(e:a,f:a))"))
    assert not any(t._tables for t in trees)
    for all_witnesses in (first, not first, first):
        for t1 in trees:
            for t2 in trees:
                want = lcs_by_subset_walk(t1, t2, all_witnesses)
                got = largest_common_minor(t1, t2, all_witnesses=all_witnesses)
                assert report(got) == report(want), (t1, t2, all_witnesses)
    assert all(t.size in t._tables for t in trees)


def test_lcs_keeps_no_reference_to_its_inputs():
    # what the solver derives from a tree is kept on the tree, so no module
    # table keeps the tree alive
    t1, t2 = parse_tree("a(b(c),d)"), parse_tree("x(y(z,u))")
    before = sys.getrefcount(t1), sys.getrefcount(t2)
    assert largest_common_minor(t1, t2, all_witnesses=True).optimum_size == 3
    assert (sys.getrefcount(t1), sys.getrefcount(t2)) == before


def test_lcs_of_inputs_sharing_no_label_is_empty():
    r = largest_common_minor(parse_tree("a:x(b:x)"), parse_tree("c:y"))
    assert (r.optimum_size, r.witnesses) == (0, [])
    assert [lv.to_json() for lv in r.levels] == [
        {"size": 1, "candidates": 1, "hits": 0}]


def test_lcs_builds_one_induced_minor_per_witness(monkeypatch):
    built = []

    def counting(small, other, w):
        built.append(frozenset(w))
        return real(small, other, w)

    real = solvers._witness_embedding
    monkeypatch.setattr(solvers, "_witness_embedding", counting)
    t1, t2 = parse_tree("a(y(p1(p2(p3)),r),s1(s2,s3))"), parse_tree("a(p1(p2(p3)),z(r,s1(s2,s3)))")
    r = largest_common_minor(t1, t2, all_witnesses=True)
    assert len(built) == len(r.witnesses) == r.levels[-1].hits
    assert [w.tree.nodes for w in r.witnesses] == sorted(
        built, key=lambda w: canonical_code(induced_minor(t1, w)))


def test_lcs_witnesses_keep_the_induced_region_tags():
    inst = fig1_family(parse_tree("p1(p2(p3))"), parse_tree("r"), parse_tree("s1(s2,s3)"))
    r = largest_common_minor(inst.t1, inst.t2, all_witnesses=True)
    assert r.witnesses
    for w in r.witnesses:
        induced = induced_minor(inst.t1, w.tree.nodes)
        assert w.tree == induced
        assert w.tree.labels == induced.labels
        assert w.tree.region_tags == induced.region_tags
        assert set(w.tree.region_tags.values()) <= {"spine", "P", "R", "S"}


def test_lcs_revalidates_the_searched_embedding(monkeypatch):
    def invalid(parent, labels, t):
        yield [t.root] * len(parent)  # every node onto the target's root

    monkeypatch.setattr(solvers, "_search", invalid)
    with pytest.raises(SolverDisagreement, match="not injective"):
        largest_common_minor(parse_tree("a(b,c)"), parse_tree("x(y,z)"))


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
    # the enumeration cap is the largest size reported; here it is below the optimum 11
    t1 = parse_tree("a(y(p1(p2(p3)),r),s1(s2,s3))")
    t2 = parse_tree("a(p1(p2(p3)),z(r,s1(s2,s3)))")
    with pytest.raises(BudgetError) as err:
        smallest_common_supertree(t1, t2, cap=10)
    assert err.value.lower_bound == 11


def test_scs_enum_cap_reports_lower_bound():
    with pytest.raises(BudgetError) as err:
        smallest_common_supertree(star(9), chain(9, "m"), cap=9)
    assert err.value.lower_bound == 10


def test_scs_rejects_labeled_inputs():
    with pytest.raises(TreeError):
        smallest_common_supertree(parse_tree("a:x(b)"), chain(2, "m"))


def test_scs_all_witnesses_scans_the_full_level():
    r = smallest_common_supertree(chain(3), star(3, "m"), all_witnesses=True)
    assert r.optimum_size == 4
    assert r.levels[-1].candidates == len(tuple(enumerate_trees(4)))
    assert r.levels[-1].hits == len(r.witnesses)
    codes = witness_codes(r)
    assert len(codes) == len(set(codes))


def reference_supertree(t1, t2, all_witnesses):
    """Test-only supertree scan that decides every candidate with the
    backtracking `find_embedding`, which never reads the shape table.
    Returns (optimum, [(size, candidates, hits)], witness literals)."""
    levels = []
    for n in range(max(t1.size, t2.size), t1.size + t2.size):
        hits, candidates = [], 0
        for c in enumerate_trees(n):
            candidates += 1
            if find_embedding(t1, c) is not None and find_embedding(t2, c) is not None:
                hits.append(format_tree(c))
                if not all_witnesses:
                    break
        levels.append((n, candidates, len(hits)))
        if hits:
            return n, levels, hits
    raise AssertionError("the root merge is a common supertree")


def test_scs_matches_the_backtracking_reference_up_to_5():
    for t1 in all_trees_up_to(5):
        for t2 in all_trees_up_to(5):
            for all_witnesses in (False, True):
                got = smallest_common_supertree(t1, t2, all_witnesses=all_witnesses)
                optimum, levels, literals = reference_supertree(t1, t2, all_witnesses)
                assert got.optimum_size == optimum
                assert [(lv.size, lv.candidates, lv.hits) for lv in got.levels] == levels
                assert [format_tree(w.tree) for w in got.witnesses] == literals
                for lv in got.levels[:-1]:
                    assert lv.hits == 0
                    assert lv.candidates == len(tuple(enumerate_trees(lv.size)))
                assert_witnesses_valid(got)


def test_scs_level_loop_names_only_hits(monkeypatch):
    built = []

    def counting(levels):
        built.append(levels)
        return real(levels)

    def refuse(*args):
        raise AssertionError("is_minor called in the level loop")

    real = solvers._tree_from_levels
    monkeypatch.setattr(solvers, "_tree_from_levels", counting)
    monkeypatch.setattr(solvers, "is_minor", refuse)
    r = smallest_common_supertree(chain(3), star(3, "m"), all_witnesses=True)
    assert len(built) == r.levels[-1].hits == len(r.witnesses) > 1


def test_scs_matches_the_catalogue_scan_on_all_pairs_up_to_6():
    # the first hit is the first of all witnesses, with the same embeddings,
    # found at its rank in the catalogue, also where one input contains the
    # other; the second input's names differ from the witnesses' v0, v1, ...
    trees = all_trees_up_to(6)
    renamed = [parse_tree(format_tree(t).replace("v", "m")) for t in trees]
    for t1 in trees:
        for t2 in renamed:
            first, every = (smallest_common_supertree(t1, t2, all_witnesses=all_witnesses)
                            for all_witnesses in (False, True))
            assert report(first) == report(scs_by_catalogue(t1, t2)), (t1, t2)
            assert report(every) == report(scs_by_catalogue(t1, t2, True)), (t1, t2)
            assert report(first)["witnesses"] == report(every)["witnesses"][:1]
    assert len(trees) ** 2 == 1369


@settings(max_examples=100, deadline=None)
@given(unlabeled_trees(max_size=8), unlabeled_trees(max_size=8))
def test_scs_matches_the_catalogue_scan_on_random_pairs(t1, t2):
    for all_witnesses in (False, True):
        assert (report(smallest_common_supertree(t1, t2, all_witnesses=all_witnesses))
                == report(scs_by_catalogue(t1, t2, all_witnesses)))


def test_scs_witness_order_is_code_order_in_a_fresh_process():
    # here no catalogue has interned shapes in code order before growth, so
    # shape ids follow growth order and only the sort by code orders the hits
    t1, t2 = "a(y(p1(p2(p3)),r),s1(s2,s3))", "a(p1(p2(p3)),z(r,s1(s2,s3)))"
    proc = subprocess.run([sys.executable, "-m", "treelab", "scs", t1, t2, "--all"],
                          capture_output=True, text=True, check=True)
    got = [w["tree_literal"] for w in json.loads(proc.stdout)["witnesses"]]
    want = scs_by_catalogue(parse_tree(t1), parse_tree(t2), True).witnesses
    assert got == [format_tree(w.tree) for w in want] and len(got) == 5


def test_scs_reads_no_catalogue(monkeypatch):
    # growth walks no size's trees; only the first hit's rank in code order
    # walks the level sequences of its one size
    walked = []

    def walk(n):
        walked.append(n)
        return trees._level_sequences(n)

    monkeypatch.setattr(solvers, "_level_sequences", walk)
    t1, t2 = parse_tree("a(y(p1(p2(p3)),r),s1(s2,s3))"), parse_tree("a(p1(p2(p3)),z(r,s1(s2,s3)))")
    assert smallest_common_supertree(t1, t2, all_witnesses=True).optimum_size == 11
    assert walked == []
    assert smallest_common_supertree(t1, t2).optimum_size == 11
    assert walked == [11]


@pytest.mark.parametrize("t1, t2", [("a(b)", "x(y,z)"), ("a(b,c)", "x(y(z))")])
def test_scs_without_a_witness_embedding_is_a_disagreement(monkeypatch, t1, t2):
    # in the first pair one input contains the other, in the second neither
    # does; either way a missing embedding must raise, never end up in a witness
    monkeypatch.setattr(solvers, "find_embedding", lambda s, t: None)
    with pytest.raises(SolverDisagreement, match="finds no embedding"):
        smallest_common_supertree(parse_tree(t1), parse_tree(t2))


def test_the_library_has_no_assert_statement():
    # python -O strips assert statements, so no check of the library is one;
    # nor does a failed internal check raise their `AssertionError`: it is a
    # typed `SolverDisagreement`
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(pathlib.Path(solvers.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "AssertionError"]
    assert found == []


# -- the growth oracle (`conftest.scs_by_growth`) ----------------------------------------

def test_insertions_are_the_supertrees_one_size_up():
    # the deletion lemma: exactly the size-(n + 1) trees containing s
    for n in range(1, 9):
        bigger = [c for c, _ in catalogue(n + 1)]
        for s, _ in catalogue(n):
            assert insertions(s) == {c for c in bigger if _fits(s, c)}


def test_insertions_need_no_recursion():
    # growing one level from an n-deep chain interns about n * n / 2 shapes
    # (each leaf position has its own ancestors), so the chain stays short;
    # a lowered recursion limit stands in for depth: any recursion per tree
    # level would exhaust 50 frames
    depth = 300
    deep = _intern(range(1, depth + 1), [None] * depth)
    longer = _intern(range(1, depth + 2), [None] * (depth + 1))
    frames, f = 0, sys._getframe()
    while f is not None:
        frames, f = frames + 1, f.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + 50)  # lowered, never raised
    try:
        grown = insertions(deep)
    finally:
        sys.setrecursionlimit(limit)
    # a new leaf under one of the depth - 1 inner nodes, or the longer chain
    assert longer in grown and len(grown) == depth


# -- supertrees by merging a common-minor matching ------------------------------------
# `merge_matching` positions: t1 nodes at their preorder index, then the unmatched
# t2 nodes in t2 preorder; the parent array has -1 at the root.

def growth_optimum(t1, t2):
    return scs_by_growth(t1, t2)[0]


def test_merge_of_the_root_pair_alone_is_the_root_merge():
    t1, t2 = parse_tree("a(b(c),d)"), parse_tree("x(y,z(w))")
    # a b c d at 0-3, then y z w at 4-6, all root children under the shared root
    assert merge_matching(t1, t2, {"a": "x"}) == [-1, 0, 1, 0, 0, 0, 5]


def test_merge_of_a_forest_matching_and_of_it_with_the_roots():
    t1, t2 = parse_tree("r(a,b)"), parse_tree("s(c,d)")
    # r a b at 0-2, s at 3: the t1-only top r above the t2-only top s
    assert merge_matching(t1, t2, {"a": "c", "b": "d"}) == [-1, 3, 3, 0]
    assert merge_matching(t1, t2, {"r": "s", "a": "c", "b": "d"}) == [-1, 0, 0]


def test_a_crossing_matching_merges_nowhere():
    # a above b in t1, but b's partner x above a's partner y in t2
    t1, t2 = parse_tree("a(b)"), parse_tree("x(y)")
    assert merge_matching(t1, t2, {"a": "y", "b": "x"}) is None
    t1, t2 = parse_tree("r(a(b),c)"), parse_tree("s(x(y),z)")
    assert merge_matching(t1, t2, {"r": "s", "a": "y", "b": "x"}) is None
    assert merge_matching(t1, t2, {"r": "s", "a": "x", "b": "y"}) is not None


def test_merge_stacks_a_t1_only_top_over_a_t2_only_top():
    t1, t2 = parse_tree("p(q,r)"), parse_tree("u(v(w))")
    # p q r at 0-2, u and w at 3-4: p over u, then q=v (over w) and r under u
    parent = merge_matching(t1, t2, {"q": "v"})
    assert parent == [-1, 3, 3, 0, 1]
    assert len(parent) == t1.size + t2.size - 1 == growth_optimum(t1, t2) + 1
    # adding the root pair keeps it mergeable, one smaller
    assert len(merge_matching(t1, t2, {"p": "u", "q": "v"})) == growth_optimum(t1, t2)


# -- supertrees by the forest recursion -------------------------------------------------

def test_the_recursion_matches_growth_on_all_ordered_pairs_up_to_7(monkeypatch):
    # each argument order from an empty memo; then the scan's call, which
    # stops at the merge lemma's floor, on the pairs it meets (|t1| <= |t2|):
    # without prop21 it always runs the recursion, with prop21 it takes the
    # floor from a checked witness quotient where one passes
    shapes = [seq for k in range(1, 8) for seq in _level_sequences(k)]
    assert len(shapes) == 85
    pairs = [(_scan_tree(seq1), _scan_tree(seq2)) for seq1 in shapes for seq2 in shapes]
    grown = [growth_optimum(t1, t2) for t1, t2 in pairs]
    for flip in (False, True):
        monkeypatch.setattr(solvers, "_SCS", {})
        got = [solvers._scs_optimum(*((t2, t1) if flip else (t1, t2))) for t1, t2 in pairs]
        assert got == grown
    monkeypatch.setattr(solvers, "_SCS", {})
    for i, seq1 in enumerate(shapes):
        for seq2 in shapes[i:]:
            t1, t2 = _scan_tree(seq1), _scan_tree(seq2)
            assert (_scan_one_pair((seq1, seq2, True))["scs"]
                    == _scan_one_pair((seq1, seq2, False))["scs"]
                    == growth_optimum(t1, t2)), (format_tree(t1), format_tree(t2))


def test_scan_records_are_the_same_from_cold_and_warm_tables():
    # the tables each tree keeps (`Tree._tables`) give a pair
    # the record it gets on freshly built trees, once they are filled by the
    # common-minor solver and a first scan
    seqs = [seq for k in range(1, 6) for seq in _level_sequences(k)]
    pairs = [(seq1, seq2, True) for i, seq1 in enumerate(seqs) for seq2 in seqs[i:]]
    cold = []
    for args in pairs:
        _scan_tree.cache_clear()
        cold.append(_scan_one_pair(args))
    for seq1, seq2, _ in pairs:
        largest_common_minor(_scan_tree(seq1), _scan_tree(seq2), all_witnesses=True)
    first = [_scan_one_pair(args) for args in pairs]
    assert [_scan_one_pair(args) for args in pairs] == first == cold
    assert all(quotient._name_ids in _scan_tree(seq)._tables for seq in seqs)
    assert all(any(isinstance(key, tuple) for key in _scan_tree(seq)._tables)
               for seq in seqs)


def test_stored_witness_embeddings_are_the_first_fresh_search_and_valid():
    # after scan 6, every witness's images are read from its target's tables;
    # each stored map is what a fresh search yields first, and a valid embedding
    scan_pairs(6, checks=("eq4", "prop21"))
    shapes = [seq for k in range(1, 7) for seq in _level_sequences(k)]
    witnesses, stored = 0, set()
    for i, seq1 in enumerate(shapes):
        for seq2 in shapes[i:]:
            t1, t2 = _scan_tree(seq1), _scan_tree(seq2)
            for w in solvers._lcs_core(t1, t2, True)[2]:
                minor = solvers._induced_minor(t1, w)
                key = (solvers._witness_embedding, tuple(minor.parent), tuple(minor.labels))
                images = t2._tables[key]
                assert images == next(embeddings._search(minor.parent, minor.labels, t2))
                assert not embeddings._violations(
                    dict(zip(minor.order, images)), minor.order, minor.arcs, t1.labels,
                    t2.root, t2._parent, t2.labels)
                assert solvers._witness_embedding(t1, t2, w) == (minor, images)
                witnesses += 1
                stored.add((seq2, key))
    assert (witnesses, len(stored)) == (836, 291)


def test_lcs_witnesses_are_the_same_from_a_cold_and_a_warm_memo(monkeypatch):
    t1 = parse_tree("a(y(p1(p2(p3)),r),s1(s2,s3))")
    t2 = parse_tree("a(p1(p2(p3)),z(r,s1(s2,s3)))")
    cold = largest_common_minor(t1, t2, all_witnesses=True)
    assert any(isinstance(key, tuple) and key[0] is solvers._witness_embedding
               for key in t2._tables)

    def unreached(parent, labels, t):
        raise AssertionError("a warm memo searches nothing")

    monkeypatch.setattr(solvers, "_search", unreached)
    warm = largest_common_minor(t1, t2, all_witnesses=True)
    assert cold.witnesses
    assert [w.to_json() for w in warm.witnesses] == [w.to_json() for w in cold.witnesses]


def test_the_recursion_matches_the_best_merge_on_all_pairs_up_to_6():
    trees6 = all_trees_up_to(6)
    for i, t1 in enumerate(trees6):
        for t2 in trees6[i:]:
            assert solvers._scs_optimum(t1, t2) == scs_by_merging(t1, t2), (
                format_tree(t1), format_tree(t2))


@settings(max_examples=40, deadline=None)
@given(unlabeled_trees(max_size=9), unlabeled_trees(max_size=9))
def test_merge_matches_growth_on_random_pairs_up_to_9(t1, t2):
    # and so does the recursion, in the scan and in the other argument order
    if t2.size < t1.size:
        t1, t2 = t2, t1
    seqs = (_levels_of(_shape(t1)), _levels_of(_shape(t2)), False)
    assert scs_by_merging(t1, t2) == growth_optimum(t1, t2)
    assert _scan_one_pair(seqs)["scs"] == solvers._scs_optimum(t2, t1) == growth_optimum(t1, t2)


def test_the_recursion_hangs_a_t1_forest_below_a_t2_only_root():
    # t1 embeds below y, so the optimum, t2 itself, has a t2-only node above
    # t1's root or, with the roots shared, above both of t1's root children
    t1, t2 = parse_tree("a(b(c),d(e))"), parse_tree("x(y(z(w),u(v)),s,t)")
    assert solvers._scs_optimum(t1, t2) == solvers._scs_optimum(t2, t1) == 8
    assert growth_optimum(t1, t2) == 8


@settings(max_examples=60, deadline=None)
@given(labeled_trees(max_size=8), labeled_trees(max_size=8))
def test_the_recursion_matches_the_best_merge_on_labeled_pairs(t1, t2):
    # roots share a node only with equal labels; with equal root labels the
    # root pair merges, so the best merging matching is a tree matching
    assume(t1.labels[t1.root] == t2.labels[t2.root])
    assert solvers._scs_optimum(t1, t2) == scs_by_merging(t1, t2)


def assert_unpruned_optimum(t1, t2):
    # past 9 + 9 only the unpruned recursion checks the floors, the skipped
    # branches and the early stop; a run past its budget must still report
    # a lower bound that holds
    expected = scs_unpruned(t1, t2)
    try:
        assert solvers._scs_optimum(t1, t2) == expected
    except BudgetError as err:
        assert err.lower_bound <= expected


@settings(max_examples=100, derandomize=True, deadline=None)
@given(unlabeled_trees(max_size=26), unlabeled_trees(max_size=26))
def test_the_recursion_matches_the_unpruned_recursion_on_random_pairs_up_to_26(t1, t2):
    assert_unpruned_optimum(t1, t2)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(labeled_trees(max_size=26), labeled_trees(max_size=26))
def test_the_recursion_matches_the_unpruned_recursion_on_labeled_pairs_up_to_26(t1, t2):
    assume(t1.labels[t1.root] == t2.labels[t2.root])
    assert_unpruned_optimum(t1, t2)


def test_the_recursion_needs_no_recursion():
    # a 3,000-deep chain: any Python recursion per tree level would exhaust
    # the lowered limit
    deep = chain(3000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)  # lowered, never raised
    try:
        assert solvers._scs_optimum(deep, parse_tree("a(b,c)")) == 3001
        assert solvers._scs_optimum(deep, chain(2, "m")) == 3000
    finally:
        sys.setrecursionlimit(limit)


def test_scs_witnesses_match_growth_on_all_ordered_pairs_up_to_7(monkeypatch):
    # every minimum shape in code order, and the first one's rank in the
    # catalogue, as growing the bigger input's supertrees finds them; the
    # witnesses stay level sequences without embeddings (searched and
    # checked by `_found`), which the tests above check on every pair up to 6
    monkeypatch.setattr(solvers, "_tree_from_levels", lambda levels: levels)
    monkeypatch.setattr(solvers, "_found", lambda s, t: True)
    trees = [_scan_tree(seq) for k in range(1, 8) for seq in _level_sequences(k)]
    assert len(trees) ** 2 == 7225
    ranks = {}
    for t1 in trees:
        for t2 in trees:
            start = max(t1.size, t2.size)
            for all_witnesses in (False, True):
                n, hits = scs_by_growth(t1, t2, all_witnesses)
                got = smallest_common_supertree(t1, t2, all_witnesses=all_witnesses)
                levels = [(lv.size, lv.candidates, lv.hits) for lv in got.levels]
                assert [w.tree for w in got.witnesses] == [_levels_of(c) for c in hits]
                if n not in ranks:
                    ranks[n] = {c: i for i, (c, _) in enumerate(catalogue(n), 1)}
                last = _tree_count(n) if all_witnesses else ranks[n][hits[0]]
                assert levels == [*((k, _tree_count(k), 0) for k in range(start, n)),
                                  (n, last, len(hits))]


def test_the_witness_walk_needs_no_recursion():
    # a new leaf under one of the 299 inner nodes of a 300-deep chain; a
    # lowered recursion limit stands in for depth, as for `insertions`
    deep, fork = chain(300), parse_tree("a(b,c)")
    frames, f = 0, sys._getframe()
    while f is not None:
        frames, f = frames + 1, f.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + 50)  # lowered, never raised
    try:
        shapes = solvers._scs_shapes(deep, fork)
    finally:
        sys.setrecursionlimit(limit)
    assert len(shapes) == 299 and all(trees._SIZE[c] == 301 for c in shapes)


def test_the_recursion_stops_at_its_budget(monkeypatch):
    # from an empty memo this pair has frames for 12 pairs of forests, which
    # request about 34 branches (the count follows the order of shape ids)
    monkeypatch.setattr(solvers, "_SCS", {})
    monkeypatch.setattr(solvers, "SCS_BUDGET", 5)
    t1, t2 = parse_tree("a(b(c,d),e(f(g)))"), parse_tree("x(y(z,q),w(v,u),r)")
    with pytest.raises(BudgetError, match="5 branches per call .inputs of 7 and 8") as err:
        solvers._scs_optimum(t1, t2)
    assert err.value.lower_bound == 8
    monkeypatch.setattr(solvers, "_SCS", {})
    with pytest.raises(BudgetError) as err:
        solvers._scs_optimum(t1, t2, floor=9)
    assert err.value.lower_bound == 9
    monkeypatch.setattr(solvers, "_SCS", {})
    monkeypatch.setattr(solvers, "SCS_BUDGET", 12)  # branches are counted, not pairs
    with pytest.raises(BudgetError, match="12 branches"):
        solvers._scs_optimum(t1, t2)
    monkeypatch.setattr(solvers, "_SCS", {})
    monkeypatch.setattr(solvers, "SCS_BUDGET", 60)
    assert solvers._scs_optimum(t1, t2) == growth_optimum(t1, t2) == 9


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
    # b collides with b, and its first fresh name b_ with b_ too
    m = root_merge_supertree(parse_tree("a(b,b_)"), parse_tree("x(b)"))
    assert m.nodes == {"a", "b", "b_", "b__"}


def test_root_merge_labels():
    with pytest.raises(TreeError):
        root_merge_supertree(parse_tree("a:x(b)"), parse_tree("c:y(d)"))
    m = root_merge_supertree(parse_tree("a:x(b)"), parse_tree("c:x(d:z)"))
    assert m.size == 3 and m.labels[m.root] == "x" and "z" in m.labels.values()


# -- edit distance and cross-check ------------------------------------------------------

def test_unit_edit_distance_examples(capsys):
    def distance(t1, t2):
        assert cli.main(["lcs", t1, t2]) == 0
        return json.loads(capsys.readouterr().out)["unit_edit_distance"]

    assert distance("a(b(c,d),e)", "a(b(c,d),e)") == 0
    assert distance("n1(n2)", "m1(m2,m3)") == 1
    assert distance("a(y(p1(p2(p3)),r),s1(s2,s3))", "a(p1(p2(p3)),z(r,s1(s2,s3)))") == 2


def test_cross_check_examples():
    assert cross_check_minor(chain(1), parse_tree("a(b(c),d)"))
    assert not cross_check_minor(star(3), chain(3, "m"))
    with pytest.raises(BudgetError):
        cross_check_minor(chain(15), chain(15, "m"))


def test_cross_check_sweep_up_to_5():
    trees = all_trees_up_to(5)
    for s in trees:
        for t in trees:
            cross_check_minor(s, t)  # raises SolverDisagreement on any mismatch
