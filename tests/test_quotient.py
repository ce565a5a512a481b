import pytest
from hypothesis import given, settings

from treelab import (Digraph, EmbeddingError, MinorEmbedding, QuotientGraph, TreeError,
                     build_quotient, chain, check_eq2_eq3, check_prop21,
                     eq4_prediction, fig1_family, is_rooted_tree, largest_common_minor,
                     parse_tree, quotient_to_dot, reduce_quotient, scan_pairs, star,
                     validate)
from treelab import quotient
from treelab.quotient import (_glue, _prop21_core, _reduce_core, _simple_paths_from,
                              _successors)

from conftest import (all_trees_up_to, class_successors, glued_pairs,
                      prop21_by_classes, reduce_by_classes, simple_paths_recursive)


def identity_embedding(s, t):
    return MinorEmbedding(s, t, {v: v for v in s.nodes})


@pytest.fixture(scope="module")
def witness_quotients_up_to_6():
    """The quotient of every optimal common-minor witness of every pair of
    trees up to size 6 (the quotients `scan --max-size 6` checks)."""
    trees = all_trees_up_to(6)
    return [build_quotient(t1, t2, w.tree, w.emb1, w.emb2)
            for i, t1 in enumerate(trees) for t2 in trees[i:]
            for w in largest_common_minor(t1, t2, all_witnesses=True).witnesses]


@pytest.fixture(scope="module")
def headline():
    inst = fig1_family(parse_tree("p1(p2(p3))"), parse_tree("r"),
                       parse_tree("s1(s2,s3)"))
    q = build_quotient(inst.t1, inst.t2, inst.claimed_mu, inst.g1, inst.g2)
    return inst, q


# -- theta: the classes of the gluing relation ---------------------------------

def test_theta_single_shared_node():
    mu = parse_tree("c")
    t1, t2 = parse_tree("a(b)"), parse_tree("x")
    q = build_quotient(t1, t2, mu, MinorEmbedding(mu, t1, {"c": "a"}),
                       MinorEmbedding(mu, t2, {"c": "x"}))
    merged = [c for c in q.classes if len(c.members) == 2]
    assert len(merged) == 1 and merged[0].members == ((1, "a"), (2, "x"))


def test_theta_identity_merges_everything():
    t = parse_tree("a(b,c)")
    q = build_quotient(t, t, t, identity_embedding(t, t), identity_embedding(t, t))
    assert all(len(c.members) == 2 for c in q.classes)


def test_theta_headline_counts(headline):
    _, q = headline
    merged = [c for c in q.classes if len(c.members) == 2]
    singles = [c for c in q.classes if len(c.members) == 1]
    assert len(merged) == 8
    assert sorted(c.members[0] for c in singles) == [(1, "y"), (2, "z")]


def test_theta_is_an_equivalence():
    # the classes partition the tagged nodes, and each node's class holds it
    t = parse_tree("a(b,c)")
    s = parse_tree("x(y)")
    mu = parse_tree("m(n)")
    q = build_quotient(t, s, mu, MinorEmbedding(mu, t, {"m": "a", "n": "b"}),
                       MinorEmbedding(mu, s, {"m": "x", "n": "y"}))
    members = [m for c in q.classes for m in c.members]
    assert sorted(members) == sorted([(1, v) for v in t.nodes] + [(2, v) for v in s.nodes])
    assert all(m in q.class_of_member(*m).members for m in members)


def test_theta_rejects_invalid_witness():
    mu = star(3)
    t = chain(3, "m")
    bad = MinorEmbedding(mu, t, {"n1": "m1", "n2": "m2", "n3": "m3"})
    with pytest.raises(EmbeddingError):
        build_quotient(t, mu, mu, bad, identity_embedding(mu, mu))


# -- quotient construction --------------------------------------------------------

def test_quotient_of_identical_trees_is_the_tree():
    t = chain(2)
    q = build_quotient(t, t, t, identity_embedding(t, t), identity_embedding(t, t))
    assert len(q.classes) == 2 and len(q.arcs) == 1
    assert validate(q.to_digraph()) == []


def test_quotient_chain2_with_single():
    t1, t2, mu = chain(2), parse_tree("c"), parse_tree("m")
    q = build_quotient(t1, t2, mu,
                       MinorEmbedding(mu, t1, {"m": "n1"}),
                       MinorEmbedding(mu, t2, {"m": "c"}))
    assert len(q.classes) == 2
    (arc,) = q.arcs
    assert arc[0].members == ((1, "n1"), (2, "c")) and arc[1].members == ((1, "n2"),)


def test_quotient_headline_classes_and_arcs(headline):
    inst, q = headline
    assert len(q.classes) == inst.t1.size + inst.t2.size - inst.claimed_mu.size == 10

    def cls(origin, name):
        return q.class_of_member(origin, name)

    a, y, z = cls(1, "a"), cls(1, "y"), cls(2, "z")
    p1, r, s1 = cls(1, "p1"), cls(1, "r"), cls(1, "s1")
    assert cls(2, "p1") is p1 and cls(2, "r") is r and cls(2, "s1") is s1
    spine_arcs = {(a, y), (a, z), (a, p1), (y, p1), (y, r), (z, r), (z, s1), (a, s1)}
    assert spine_arcs <= set(q.arcs)
    internal = {(p1, cls(1, "p2")), (cls(1, "p2"), cls(1, "p3")),
                (s1, cls(1, "s2")), (s1, cls(1, "s3"))}
    assert set(q.arcs) == spine_arcs | internal
    assert q.mu_image == frozenset({a, p1, cls(1, "p2"), cls(1, "p3"), r,
                                    s1, cls(1, "s2"), cls(1, "s3")})


def test_quotient_identities_hold_for_all_optimal_witnesses_up_to_4():
    trees = all_trees_up_to(4)
    for i, t1 in enumerate(trees):
        for t2 in trees[i:]:
            lcs = largest_common_minor(t1, t2, all_witnesses=True)
            for w in lcs.witnesses:
                q = build_quotient(t1, t2, w.tree, w.emb1, w.emb2)
                assert check_eq2_eq3(q) == []
                assert len(q.classes) == t1.size + t2.size - w.tree.size


def test_eq2_eq3_detect_corruption(headline):
    _, q = headline
    assert check_eq2_eq3(q) == []
    dropped = QuotientGraph(q.classes[1:], q.arcs, q.ell1, q.ell2, q.mu_image,
                            q.t_mu, q.g1, q.g2)
    assert any("union" in v for v in check_eq2_eq3(dropped))
    wrong_mu = QuotientGraph(q.classes, q.arcs, q.ell1, q.ell2, frozenset(list(q.mu_image)[1:]),
                             q.t_mu, q.g1, q.g2)
    assert any("mu_image" in v for v in check_eq2_eq3(wrong_mu))


# -- reduction ----------------------------------------------------------------------

def test_reduce_leaves_tree_shaped_quotients_alone():
    t = parse_tree("a(b(c),d)")
    q = build_quotient(t, t, t, identity_embedding(t, t), identity_embedding(t, t))
    reduced = reduce_quotient(q)
    assert reduced.arcs == q.arcs


def test_reduce_headline_drops_subsumed_arcs_and_leaves_a_diamond(headline):
    inst, q = headline
    reduced = reduce_quotient(q)
    a = q.class_of_member(1, "a")
    y, z = q.class_of_member(1, "y"), q.class_of_member(2, "z")
    p1, r, s1 = (q.class_of_member(1, v) for v in ("p1", "r", "s1"))
    assert set(q.arcs) - set(reduced.arcs) == {(a, p1), (a, s1)}
    assert {(y, r), (z, r)} <= set(reduced.arcs)
    violations = validate(reduced)
    assert [v.kind for v in violations] == ["multi_parent"]
    assert violations[0].subject == (r.label,)
    assert "in-degree 2" in violations[0].message


def test_reduce_never_orphans_a_node():
    trees = all_trees_up_to(4)
    for i, t1 in enumerate(trees):
        for t2 in trees[i:]:
            lcs = largest_common_minor(t1, t2, all_witnesses=True)
            for w in lcs.witnesses:
                q = build_quotient(t1, t2, w.tree, w.emb1, w.emb2)
                before = {b for _, b in q.arcs}
                after = {b for _, b in reduce_quotient(q).arcs}
                assert before == after


# -- path-uniqueness conditions --------------------------------------------------------

def test_prop21_holds_for_identical_trees():
    t = parse_tree("a(b(c),d)")
    q = build_quotient(t, t, t, identity_embedding(t, t), identity_embedding(t, t))
    assert check_prop21(q).holds


def test_prop21_holds_for_chain2_star3():
    t1, t2 = chain(2), star(3, "m")
    lcs = largest_common_minor(t1, t2)
    w = lcs.witnesses[0]
    q = build_quotient(t1, t2, w.tree, w.emb1, w.emb2)
    assert check_prop21(q).holds


def test_prop21_headline_exactly_one_ii_violation(headline):
    inst, q = headline
    report = check_prop21(q)
    assert not report.holds
    assert len(report.violations) == 1
    v = report.violations[0]
    assert v.kind == "ii"
    assert v.v is q.class_of_member(1, "a")
    assert v.w is q.class_of_member(1, "r")
    mids = {p[1] for p in v.paths}
    assert mids == {q.class_of_member(1, "y"), q.class_of_member(2, "z")}
    # part (i) is satisfied: the arcs a->p1 and a->s1 do have alternative
    # paths, but through non-merged singleton classes, which is allowed
    assert not any(x.kind == "i" for x in report.violations)


def test_prop21_part_i_detects_non_merged_endpoints(headline):
    _, q = headline
    a = q.class_of_member(1, "a")
    corrupted = QuotientGraph(q.classes, q.arcs, q.ell1, q.ell2, q.mu_image - {a},
                              q.t_mu, q.g1, q.g2)
    report = check_prop21(corrupted)
    assert any(v.kind == "i" and "non-merged" in v.reason for v in report.violations)


def test_prop21_report_json(headline):
    _, q = headline
    data = check_prop21(q).to_json()
    assert data["holds"] is False
    assert data["violations"][0]["kind"] == "ii"
    assert len(data["violations"][0]["paths"]) == 2


# -- the path walk ------------------------------------------------------------------------

def test_path_walk_matches_the_per_pair_search_on_all_witness_quotients_up_to_6(
        witness_quotients_up_to_6):
    assert len(witness_quotients_up_to_6) == 836
    for q in witness_quotients_up_to_6:
        succ = class_successors(q)
        for v in q.classes:
            paths_to = {}
            for path in _simple_paths_from(succ, v):
                paths_to.setdefault(path[-1], []).append(path)
            for x in q.classes:
                assert paths_to.get(x, []) == simple_paths_recursive(succ, v, x)


def test_path_walk_has_no_depth_limit():
    n = 5000
    succ = {i: [i + 1] for i in range(n - 1)}
    succ[n - 1] = []
    lengths = [len(p) for p in _simple_paths_from(succ, 0)]
    assert lengths == list(range(2, n + 1))


# -- the integer core against the class-based oracles ---------------------------------

def assert_core_matches_the_oracles(q):
    assert list(q.classes) == sorted(q.classes)  # ids follow the class order
    assert check_prop21(q).to_json() == prop21_by_classes(q).to_json()
    assert reduce_quotient(q) == reduce_by_classes(q)


def test_core_matches_the_oracles_on_all_witness_quotients_up_to_6(
        witness_quotients_up_to_6):
    for q in witness_quotients_up_to_6:
        assert_core_matches_the_oracles(q)


def test_core_matches_the_oracles_on_the_headline(headline):
    _, q = headline
    assert_core_matches_the_oracles(q)
    a = q.class_of_member(1, "a")
    corrupted = QuotientGraph(q.classes, q.arcs, q.ell1, q.ell2, q.mu_image - {a},
                              q.t_mu, q.g1, q.g2)
    assert check_prop21(corrupted).to_json() == prop21_by_classes(corrupted).to_json()


def test_core_matches_the_oracles_with_merged_classes_on_the_alternative_path():
    # the arc n1 -> n4 (from m1 -> m2) beside the chain n1 -> n2 -> n3 -> n4;
    # marking n2 and n3 merged by hand makes the reason name the first of them
    t1, t2, mu = chain(4), chain(2, "m"), parse_tree("c1(c2)")
    q = build_quotient(t1, t2, mu, MinorEmbedding(mu, t1, {"c1": "n1", "c2": "n4"}),
                       MinorEmbedding(mu, t2, {"c1": "m1", "c2": "m2"}))
    assert_core_matches_the_oracles(q)
    n2, n3 = q.class_of_member(1, "n2"), q.class_of_member(1, "n3")
    marked = QuotientGraph(q.classes, q.arcs, q.ell1, q.ell2, q.mu_image | {n2, n3},
                           q.t_mu, q.g1, q.g2)
    report = check_prop21(marked)
    assert report.to_json() == prop21_by_classes(marked).to_json()
    assert [v.reason for v in report.violations] == [
        "alternative path passes through merged class 1:n2"]


@settings(max_examples=200, deadline=None)
@given(glued_pairs(max_size=8))
def test_core_matches_the_oracles_on_random_glued_pairs(glued):
    assert_core_matches_the_oracles(build_quotient(*glued))


def test_scan_builds_no_boundary_types(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a quotient boundary type was built")

    monkeypatch.setattr(quotient, "ThetaClass", refuse)
    monkeypatch.setattr(quotient, "QuotientGraph", refuse)
    t = chain(2)
    with pytest.raises(AssertionError):
        build_quotient(t, t, t, identity_embedding(t, t), identity_embedding(t, t))
    report = scan_pairs(6, checks=("eq4", "prop21"))
    assert report.prop21_summary["quotients_checked"] == 836


def test_core_has_no_depth_limit():
    n = 3000
    t1, t2, mu = chain(n), chain(n, "m"), parse_tree("c1(c2)")
    # glued at the top: a fork below two merged classes, then two long chains
    class_of1, _, size, arcs, merged = _glue(t1, t2, mu.nodes, {"c1": "n1", "c2": "n2"},
                                             {"c1": "m1", "c2": "m2"})
    assert size == 2 * n - 2 and merged == {class_of1["n1"], class_of1["n2"]}
    succ = _successors(size, arcs)
    assert _prop21_core(succ, merged) == []
    assert set(_reduce_core(succ)) == arcs
    # glued top to bottom: the arc n1 -> n3000 is subsumed by the whole chain
    class_of1, _, size, arcs, merged = _glue(
        t1, t2, mu.nodes, {"c1": "n1", "c2": f"n{n}"}, {"c1": "m1", "c2": "m2"})
    kept = set(_reduce_core(_successors(size, arcs)))
    assert arcs - kept == {(class_of1["n1"], class_of1[f"n{n}"])}
    assert is_rooted_tree(Digraph(frozenset(range(size)), frozenset(kept)))


# -- the size prediction ------------------------------------------------------------------

def test_eq4_prediction_examples():
    t = parse_tree("a(b,c)")
    assert eq4_prediction(t, t, t.size) == t.size
    assert eq4_prediction(chain(2), star(3, "m"), 2) == 3
    t1 = parse_tree("a(y(p1(p2(p3)),r),s1(s2,s3))")
    t2 = parse_tree("a(p1(p2(p3)),z(r,s1(s2,s3)))")
    assert eq4_prediction(t1, t2, 8) == 10
    with pytest.raises(TreeError):
        eq4_prediction(chain(2), chain(3, "m"), 3)


# -- rendering -----------------------------------------------------------------------------

def test_quotient_dot_marks_merges_and_dropped_arcs(headline):
    _, q = headline
    dot = quotient_to_dot(q, reduce_quotient(q))
    assert "peripheries=2" in dot
    assert 'style="dashed"' in dot
    assert "1:a+2:a" in dot
