import time

import pytest
from hypothesis import given, settings

from treelab import (BudgetError, Digraph, EmbeddingError, MinorEmbedding, QuotientGraph,
                     TreeError, build_quotient, chain, check_eq2_eq3, check_prop21,
                     eq4_prediction, fig1_family, is_rooted_tree, largest_common_minor,
                     parse_tree, quotient_to_dot, reduce_quotient, scan_pairs, star,
                     validate)
from treelab import quotient
from treelab.families import _scan_tree
from treelab.quotient import (_glue, _prop21_core, _reduce_core, _simple_paths_from,
                              _successors)
from treelab.solvers import _lcs_core, _witness_embedding
from treelab.trees import _level_sequences

from conftest import (all_trees_up_to, class_successors, glue_checked_by_names,
                      glued_pairs, prop21_by_classes, reduce_per_arc,
                      simple_paths_recursive, ups_arcs)


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
    assert all(m in (q.ell1 if m[0] == 1 else q.ell2)[m[1]].members for m in members)


def test_theta_rejects_invalid_witness():
    mu = star(3)
    t = chain(3, "m")
    bad = MinorEmbedding(mu, t, {"n1": "m1", "n2": "m2", "n3": "m3"})
    with pytest.raises(EmbeddingError):
        build_quotient(t, mu, mu, bad, identity_embedding(mu, mu))


@pytest.mark.parametrize("side", [1, 2])
def test_theta_rejects_a_witness_relating_other_trees(side):
    # a valid embedding of the common minor, but into a tree not given
    t, mu = chain(3), chain(2, "c")
    other = chain(3, "o")
    good = MinorEmbedding(mu, t, {"c1": "n1", "c2": "n2"})
    foreign = MinorEmbedding(mu, other, {"c1": "o1", "c2": "o2"})
    g1, g2 = (foreign, good) if side == 1 else (good, foreign)
    with pytest.raises(EmbeddingError, match="embedding does not relate the given trees"):
        build_quotient(t, t, mu, g1, g2)
    with pytest.raises(EmbeddingError, match="embedding does not relate the given trees"):
        build_quotient(t, t, chain(2, "d"), good, good)  # not a map of this minor


# -- quotient construction --------------------------------------------------------

def test_quotient_of_identical_trees_is_the_tree():
    t = chain(2)
    q = build_quotient(t, t, t, identity_embedding(t, t), identity_embedding(t, t))
    assert len(q.classes) == 2 and len(q.arcs) == 1
    assert validate(Digraph(frozenset(q.classes), q.arcs)) == []


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
        return (q.ell1 if origin == 1 else q.ell2)[name]

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
    a = q.ell1["a"]
    y, z = q.ell1["y"], q.ell2["z"]
    p1, r, s1 = (q.ell1[v] for v in ("p1", "r", "s1"))
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
    assert v.v is q.ell1["a"]
    assert v.w is q.ell1["r"]
    mids = {p[1] for p in v.paths}
    assert mids == {q.ell1["y"], q.ell2["z"]}
    # part (i) is satisfied: the arcs a->p1 and a->s1 do have alternative
    # paths, but through non-merged singleton classes, which is allowed
    assert not any(x.kind == "i" for x in report.violations)


def test_prop21_part_i_detects_non_merged_endpoints(headline):
    _, q = headline
    a = q.ell1["a"]
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
    assert reduce_quotient(q) == reduce_per_arc(q.classes, q.arcs)


def test_core_matches_the_oracles_on_all_witness_quotients_up_to_6(
        witness_quotients_up_to_6):
    for q in witness_quotients_up_to_6:
        assert_core_matches_the_oracles(q)


def test_core_matches_the_oracles_on_the_headline(headline):
    _, q = headline
    assert_core_matches_the_oracles(q)
    a = q.ell1["a"]
    corrupted = QuotientGraph(q.classes, q.arcs, q.ell1, q.ell2, q.mu_image - {a},
                              q.t_mu, q.g1, q.g2)
    assert check_prop21(corrupted).to_json() == prop21_by_classes(corrupted).to_json()


def chain_with_a_shortcut():
    """The arc n1 -> n4 (from m1 -> m2) beside the chain n1 -> n2 -> n3 -> n4."""
    t1, t2, mu = chain(4), chain(2, "m"), parse_tree("c1(c2)")
    return build_quotient(t1, t2, mu, MinorEmbedding(mu, t1, {"c1": "n1", "c2": "n4"}),
                          MinorEmbedding(mu, t2, {"c1": "m1", "c2": "m2"}))


def test_core_matches_the_oracles_with_merged_classes_on_the_alternative_path():
    # marking n2 and n3 merged by hand makes the reason name the first of them
    q = chain_with_a_shortcut()
    assert_core_matches_the_oracles(q)
    n2, n3 = q.ell1["n2"], q.ell1["n3"]
    marked = QuotientGraph(q.classes, q.arcs, q.ell1, q.ell2, q.mu_image | {n2, n3},
                           q.t_mu, q.g1, q.g2)
    report = check_prop21(marked)
    assert report.to_json() == prop21_by_classes(marked).to_json()
    assert [v.reason for v in report.violations] == [
        "alternative path passes through merged class 1:n2"]


def test_core_matches_the_oracles_with_two_alternative_paths():
    # no witness quotient up to size 7 has an arc with two alternative paths;
    # the arc n1 -> n3 by hand gives n1 -> n4 a second one, n1 -> n3 -> n4
    q = chain_with_a_shortcut()
    n1, n3 = q.ell1["n1"], q.ell1["n3"]
    extra = QuotientGraph(q.classes, q.arcs | {(n1, n3)}, q.ell1, q.ell2, q.mu_image,
                          q.t_mu, q.g1, q.g2)
    report = check_prop21(extra)
    assert report.to_json() == prop21_by_classes(extra).to_json()
    assert ["alternative path is not unique"] == [
        v.reason for v in report.violations if v.w == q.ell1["n4"]]


@settings(max_examples=200, deadline=None)
@given(glued_pairs(max_size=8))
def test_core_matches_the_oracles_on_random_glued_pairs(glued):
    assert_core_matches_the_oracles(build_quotient(*glued))


def test_scan_builds_no_boundary_types(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a quotient boundary type was built")

    monkeypatch.setattr(quotient, "ThetaClass", refuse)
    monkeypatch.setattr(quotient, "QuotientGraph", refuse)
    monkeypatch.setattr(Digraph, "__init__", refuse)  # the reduced quotients too
    t = chain(2)
    with pytest.raises(AssertionError):
        build_quotient(t, t, t, identity_embedding(t, t), identity_embedding(t, t))
    report = scan_pairs(6, checks=("eq4", "prop21"))
    assert report.prop21_summary["quotients_checked"] == 836


def test_core_has_no_depth_limit():
    n = 3000
    t1, t2, mu = chain(n), chain(n, "m"), parse_tree("c1(c2)")
    # glued at the top: a fork below two merged classes, then two long chains
    class_of1, _, size, ups, merged = _glue(t1, t2, mu.nodes, {"c1": "n1", "c2": "n2"},
                                            {"c1": "m1", "c2": "m2"})
    assert size == 2 * n - 2 and merged == {class_of1["n1"], class_of1["n2"]}
    succ = _successors(ups)
    assert _prop21_core(succ, ups, merged) == []
    assert ups_arcs(_reduce_core(succ, ups)) == ups_arcs(ups)
    # glued top to bottom: the arc n1 -> n3000 is subsumed by the whole chain
    class_of1, _, size, ups, merged = _glue(
        t1, t2, mu.nodes, {"c1": "n1", "c2": f"n{n}"}, {"c1": "m1", "c2": "m2"})
    kept = ups_arcs(_reduce_core(_successors(ups), ups))
    assert ups_arcs(ups) - kept == {(class_of1["n1"], class_of1[f"n{n}"])}
    assert is_rooted_tree(Digraph(frozenset(range(size)), frozenset(kept)))


def scan_witness_glues(max_size):
    """(t1, t2, mu nodes, g1, g2) of every witness quotient that
    `scan --max-size` checks, in scan order."""
    shapes = [seq for k in range(1, max_size + 1) for seq in _level_sequences(k)]
    for i, seq1 in enumerate(shapes):
        for seq2 in shapes[i:]:
            t1, t2 = _scan_tree(seq1), _scan_tree(seq2)
            for w in _lcs_core(t1, t2, True)[2]:
                minor, images = _witness_embedding(t1, t2, w)
                yield (t1, t2, minor.order, {v: v for v in minor.order},
                       dict(zip(minor.order, images)))


def test_reduce_core_matches_the_per_arc_search_on_every_scan_5_witness_quotient():
    # the core searches only arcs into classes with two or more in-neighbours,
    # the oracle every arc
    quotients = dropped = 0
    for glue_args in scan_witness_glues(5):
        _, _, n, ups, _ = _glue(*glue_args)
        arcs = ups_arcs(ups)
        kept = ups_arcs(_reduce_core(_successors(ups), ups))
        assert kept == reduce_per_arc(range(n), arcs).arcs
        quotients, dropped = quotients + 1, dropped + len(arcs) - len(kept)
    assert (quotients, dropped) == (168, 74)


def test_glue_matches_the_name_level_projection_on_every_scan_5_witness_quotient():
    quotients = 0
    for glue_args in scan_witness_glues(5):
        glue_checked_by_names(*glue_args)
        quotients += 1
    assert quotients == 168


@settings(max_examples=200, deadline=None)
@given(glued_pairs(max_size=8))
def test_glue_matches_the_name_level_projection_on_random_glued_pairs(glued):
    t1, t2, mu, g1, g2 = glued
    glue_checked_by_names(t1, t2, mu.nodes, g1.mapping, g2.mapping)


def test_every_scan_6_witness_class_has_at_most_one_in_neighbour_from_each_side():
    # so a class has at most two, and the scan skips the cores on the
    # quotients where none has two
    quotients = with_joins = 0
    for t1, t2, *glue_args in scan_witness_glues(6):
        class_of1, class_of2, n, ups, _ = _glue(t1, t2, *glue_args)
        sides = []
        for t, class_of in ((t1, class_of1), (t2, class_of2)):
            from_side = [set() for _ in range(n)]
            for a, b in t.arcs:
                from_side[class_of[b]].add(class_of[a])
            assert max(map(len, from_side)) <= 1
            sides.append(from_side)
        assert ups == [sorted(one | two) for one, two in zip(*sides)]
        quotients, with_joins = quotients + 1, with_joins + (max(map(len, ups)) > 1)
    assert (quotients, with_joins) == (836, 306)


def test_path_budget_stops_two_long_chains_glued_at_top_and_bottom():
    # about n^2 paths of up to n classes each; without the budget the check
    # grows as n^3 (1.6 s at n = 800), so well over a minute at n = 3,000
    n = 3000
    t1, t2, mu = chain(n), chain(n, "m"), parse_tree("c1(c2)")
    _, _, size, ups, merged = _glue(t1, t2, mu.nodes, {"c1": "n1", "c2": f"n{n}"},
                                    {"c1": "m1", "c2": f"m{n}"})
    succ = _successors(ups)
    started = time.perf_counter()
    with pytest.raises(BudgetError, match=f"limited to {quotient.PATH_BUDGET} enumerated "
                       rf"paths and path pairs; the first \d+ of {size} classes were fully "
                       "checked"):
        _prop21_core(succ, ups, merged)
    assert time.perf_counter() - started < 10
    # the two arcs into n3000 are both needed
    assert ups_arcs(_reduce_core(succ, ups)) == ups_arcs(ups)


def test_path_budget_counts_every_enumerated_path(headline, monkeypatch):
    _, q = headline  # its check enumerates 24 paths and compares 5 pairs of them
    monkeypatch.setattr(quotient, "PATH_BUDGET", 29)
    assert [v.kind for v in check_prop21(q).violations] == ["ii"]
    monkeypatch.setattr(quotient, "PATH_BUDGET", 28)
    with pytest.raises(BudgetError, match="limited to 28 enumerated paths and path pairs"):
        check_prop21(q)


@pytest.mark.parametrize("diamonds", [10, 11])
def test_path_budget_counts_the_pairs_on_a_ladder_of_diamonds(diamonds):
    # chains of k + 1 and 2k + 1 nodes glued at every other node of the longer
    # one: 2^k paths from top to bottom, under the budget at k = 10, but about
    # 2^(2k - 1) pairs of them to compare, for which the check ran 1.2 s (k = 10)
    # and 3.9 s (k = 11) before the pairs counted
    t1, t2, mu = chain(diamonds + 1), chain(2 * diamonds + 1, "m"), chain(diamonds + 1, "c")
    _, _, _, ups, merged = _glue(t1, t2, mu.nodes, {v: "n" + v[1:] for v in mu.nodes},
                                 {v: f"m{2 * int(v[1:]) - 1}" for v in mu.nodes})
    started = time.perf_counter()
    with pytest.raises(BudgetError, match="the first 0 of"):
        _prop21_core(_successors(ups), ups, merged)
    assert time.perf_counter() - started < 0.5


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
