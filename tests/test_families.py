import functools
import json

import pytest

from treelab import (BudgetError, DegenerateFamilyWarning, EmbeddingError,
                     MinorEmbedding, SolverDisagreement, TreeError, are_isomorphic, chain,
                     check_embedding, check_fig5_claims, check_theorem5,
                     enumerate_embeddings, fig1_family,
                     fig2_candidates, fig4_family, fig5_family, find_embedding,
                     parse_tree, scan_pairs, smallest_common_supertree, star,
                     subproblem_transfer_check, validate, verify_counterexample)

from treelab import cli, embeddings, families, quotient, solvers, trees
from treelab.trees import _level_sequences

from conftest import all_trees_up_to, root_merge_supertree, scan_pair_with_named_witnesses

P3, R1, S3 = "p1(p2(p3))", "r", "s1(s2,s3)"


def headline_instance():
    return fig1_family(parse_tree(P3), parse_tree(R1), parse_tree(S3))


# -- the three-part branching family ---------------------------------------------

@pytest.mark.filterwarnings("ignore::treelab.DegenerateFamilyWarning")
def test_fig1_smallest_instance():
    inst = fig1_family(chain(1, "p"), chain(1, "q"), chain(1, "s"))
    assert inst.t1.size == inst.t2.size == 5
    assert inst.claimed_mu.size == 4


def test_fig1_headline_shapes_and_names():
    inst = headline_instance()
    assert inst.t1 == parse_tree("a(y(p1(p2(p3)),r),s1(s2,s3))")
    assert inst.t2 == parse_tree("a(p1(p2(p3)),z(r,s1(s2,s3)))")
    assert inst.claimed_mu == parse_tree("a(p1(p2(p3)),r,s1(s2,s3))")
    assert inst.t1.size == inst.t2.size == 9 and inst.claimed_mu.size == 8


def test_fig1_with_a_broken_witness_is_an_internal_error(monkeypatch, capsys):
    # the family checks its own claimed embeddings; a violation is a typed
    # internal error, which the CLI reports with exit 3
    violation = embeddings.EmbeddingViolation(None, "forced violation")
    monkeypatch.setattr(families, "check_embedding", lambda f, s, t: [violation])
    with pytest.raises(SolverDisagreement, match="broke its own witness: forced violation"):
        headline_instance()
    assert cli.main(["family", "fig1", "--p", "p1(p2)", "--r", "r", "--s", "s1"]) == 3
    assert capsys.readouterr().err.startswith("internal error: SolverDisagreement: ")


def test_fig1_sizes_formula():
    inst = fig1_family(chain(3, "p"), chain(2, "q"), star(4, "s"))
    total = 3 + 2 + 4
    assert inst.t1.size == inst.t2.size == total + 2
    assert inst.claimed_mu.size == total + 1


def test_fig1_region_tags_partition_both_trees():
    inst = headline_instance()
    for t, spine in ((inst.t1, {"a", "y"}), (inst.t2, {"a", "z"})):
        assert set(t.region_tags) == set(t.nodes)
        assert {v for v, tag in t.region_tags.items() if tag == "spine"} == spine
        assert set(t.region_tags.values()) == {"spine", "P", "R", "S"}


def test_fig1_embeddings_are_identity_and_valid():
    inst = headline_instance()
    for g in (inst.g1, inst.g2):
        assert all(g[v] == v for v in inst.claimed_mu.nodes)
        assert check_embedding(g.mapping, g.source, g.target) == []


@pytest.mark.filterwarnings("ignore::treelab.DegenerateFamilyWarning")
def test_fig1_renames_colliding_part_names():
    inst = fig1_family(parse_tree("a(y)"), parse_tree("a"), parse_tree("z(a_)"))
    assert validate(inst.t1) == [] and validate(inst.t2) == []
    assert inst.t1.size == 2 + 2 + 1 + 2
    for g in (inst.g1, inst.g2):
        assert check_embedding(g.mapping, g.source, g.target) == []


def test_fig1_warns_when_p_isomorphic_to_s():
    with pytest.warns(DegenerateFamilyWarning):
        inst = fig1_family(chain(2, "p"), chain(1, "q"), chain(2, "s"))
    assert inst.p_isomorphic_s


def test_fig1_rejects_empty_parts():
    from treelab import Tree
    with pytest.raises(TreeError):
        fig1_family(Tree([], [], None), chain(1), chain(2))


def test_fig1_construction_sweep_parts_up_to_3():
    shapes = all_trees_up_to(3)
    for p in shapes:
        for r in shapes:
            for s in shapes:
                if are_isomorphic(p, s):
                    continue
                inst = fig1_family(p, r, s)
                assert validate(inst.t1) == [] and validate(inst.t2) == []
                for g in (inst.g1, inst.g2):
                    assert check_embedding(g.mapping, g.source, g.target) == []


def test_fig1_claimed_minor_is_optimal_for_small_parts():
    # With P not isomorphic to S the largest common minor has exactly
    # |P| + |R| + |S| + 1 nodes.
    from treelab import largest_common_minor
    shapes = all_trees_up_to(2)
    for p in shapes:
        for r in shapes:
            for s in shapes:
                if are_isomorphic(p, s):
                    continue
                inst = fig1_family(p, r, s)
                lcs = largest_common_minor(inst.t1, inst.t2)
                assert lcs.optimum_size == inst.claimed_mu.size


# -- candidate supertrees -----------------------------------------------------------

def test_fig2_candidates_headline_sizes_and_cases():
    inst = headline_instance()
    cands = fig2_candidates(inst)
    assert [c.case for c in cands] == ["a", "a", "b", "c"]
    assert [c.tree.size for c in cands] == [13, 13, 11, 11]
    for c in cands:
        assert validate(c.tree) == []
        assert check_embedding(c.f1.mapping, inst.t1, c.tree) == []
        assert check_embedding(c.f2.mapping, inst.t2, c.tree) == []


def test_fig2_candidate_maps_move_only_the_duplicated_part():
    """Each map is the identity but on the duplicated part, or in case c on P,
    S, y and z: built from the construction, not searched."""
    inst = headline_instance()
    a_p, a_s, b, c = fig2_candidates(inst)
    p, s = inst.parts["P"].nodes, inst.parts["S"].nodes

    def moved(f):
        return {v: u for v, u in f.mapping.items() if u != v}

    assert moved(a_p.f1) == {} and moved(a_p.f2) == {v: f"{v}_2" for v in p}
    assert moved(a_s.f1) == {v: f"{v}_2" for v in s} and moved(a_s.f2) == {}
    assert moved(b.f1) == {} and moved(b.f2) == {"r": "r_2"}
    u = c.f1["y"]
    assert c.f2["z"] == u and c.tree.parent(u) == "a"
    assert all(f[v] == v for f in (c.f1, c.f2) for v in ("a", "r"))
    q1 = {v for v in c.tree.nodes if c.tree.reaches(u, v)} - {u, "r"}
    q2 = c.tree.nodes - q1 - {"a", u, "r"}
    assert {c.f1[v] for v in p} <= q1 and {c.f1[v] for v in s} <= q2
    assert {c.f2[v] for v in p} <= q2 and {c.f2[v] for v in s} <= q1


def test_fig2_case_c_uses_a_4_node_double_copy():
    inst = headline_instance()
    case_c = [c for c in fig2_candidates(inst) if c.case == "c"][0]
    # a( u(Q, R), Q' ) with |Q| = 4: the root has two children
    assert len(case_c.tree.children(case_c.tree.root)) == 2
    assert case_c.tree.size == 2 + 1 + 2 * 4


def test_fig2_no_gap_when_p_embeds_in_s():
    inst = fig1_family(chain(1, "p"), chain(1, "q"), chain(2, "s"))
    cands = fig2_candidates(inst)
    case_c = [c for c in cands if c.case == "c"][0]
    assert case_c.tree.size == 7  # equals the size prediction: no violation here
    scs = smallest_common_supertree(inst.t1, inst.t2)
    assert scs.optimum_size == 7


def test_fig2_candidates_upper_bound_the_exact_optimum():
    inst = fig1_family(chain(2, "p"), chain(1, "q"), star(3, "s"))
    cands = fig2_candidates(inst)
    scs = smallest_common_supertree(inst.t1, inst.t2)
    assert scs.optimum_size <= min(c.tree.size for c in cands)


# -- triple-merge detection -----------------------------------------------------------

def test_theorem5_ok_on_root_merge_supertree():
    inst = headline_instance()
    merged = root_merge_supertree(inst.t1, inst.t2)
    f1 = find_embedding(inst.t1, merged)
    f2 = find_embedding(inst.t2, merged)
    assert check_theorem5(inst, merged, f1, f2) is None


def test_theorem5_rejects_invalid_embeddings():
    inst = headline_instance()
    merged = root_merge_supertree(inst.t1, inst.t2)
    bad = MinorEmbedding(inst.t1, merged, {v: merged.root for v in inst.t1.nodes})
    with pytest.raises(EmbeddingError):
        check_theorem5(inst, merged, bad, bad)


def test_theorem5_rejects_embeddings_into_another_supertree():
    inst = headline_instance()
    merged = root_merge_supertree(inst.t1, inst.t2)
    f1, f2 = find_embedding(inst.t1, merged), find_embedding(inst.t2, merged)
    other = root_merge_supertree(inst.t2, inst.t1)
    for args in ((other, f1, f2), (merged, f2, f1), (merged, f1, find_embedding(inst.t2, other))):
        with pytest.raises(EmbeddingError, match="embedding does not relate the given trees"):
            check_theorem5(inst, *args)


def test_ten_node_merge_everything_candidate_admits_no_embedding_pair():
    # A 10-node tree that would merge all three regions cannot host both
    # inputs: as soon as one side embeds, the other has no embedding at all.
    inst = headline_instance()
    candidate = parse_tree("a(u(p1(p2(p3)),v(r,s1(s2,s3))))")
    assert candidate.size == 10
    assert enumerate_embeddings(inst.t1, candidate) == []
    assert len(enumerate_embeddings(inst.t2, candidate)) > 0


# -- the verification harness -----------------------------------------------------------

def test_verify_gap_zero_instance():
    report = verify_counterexample(chain(1, "p"), chain(1, "q"), chain(2, "s"))
    assert report.sizes == {"t1": 6, "t2": 6, "claimed_mu": 5}
    assert report.lcs_size == 5
    assert report.claimed_mu_optimal
    assert report.eq4_prediction == 7
    assert report.scs_size == 7 and report.scs_exact
    assert report.gap == 0
    assert report.reduced_is_tree is False  # reduction still fails here
    assert report.theorem5["merge_found"] is False


def test_verify_degenerate_instance_reports_warning():
    report = verify_counterexample(chain(1, "p"), chain(1, "q"), chain(1, "s"))
    assert report.warnings and "isomorphic" in report.warnings[0]
    assert report.lcs_size == 5  # t1 and t2 coincide, so the optimum is everything
    assert not report.claimed_mu_optimal
    assert report.gap == 0


def test_verify_report_json_schema():
    report = verify_counterexample(chain(1, "p"), chain(1, "q"), chain(2, "s"))
    data = report.to_json()
    assert data["schema_version"] == 1
    for key in ("family", "params", "sizes", "lcs_size", "eq4_prediction",
                "scs_size", "gap", "candidates", "prop21", "reduced_is_tree",
                "theorem5", "warnings", "timing"):
        assert key in data
    json.dumps(data)  # must be serializable
    text = report.to_text()
    assert "gap" in text and "prediction" in text


def test_verify_respects_max_size_budget():
    # the enumeration cap 10 is below the supertree optimum 11
    report = verify_counterexample(parse_tree(P3), parse_tree(R1), parse_tree(S3), cap=10)
    assert not report.scs_exact
    assert report.scs_lower_bound == 11
    assert report.gap is None
    assert min(c.tree.size for c in report.candidates) == 11


# -- subproblem-transfer families -----------------------------------------------------------

def test_fig4_default_sizes():
    t1, t2, meta = fig4_family(chain(1, "A"), chain(1, "B"))
    assert meta["sizes"] == {"p": 2, "r": 2, "s": 2, "t1": 8, "t2": 8}
    assert validate(t1) == [] and validate(t2) == []


def test_fig4_arithmetic_at_2_1():
    t1, t2, meta = fig4_family(chain(2, "A"), chain(1, "B"))
    assert meta["sizes"]["p"] == 4 and meta["sizes"]["s"] == 3
    assert meta["sizes"]["r"] == 4 and t1.size == 13


def test_fig4_r_override_and_errors():
    with pytest.raises(TreeError):
        fig4_family(chain(1, "A"), chain(2, "B"))  # m > n
    with pytest.raises(TreeError):
        fig4_family(chain(2, "A"), chain(1, "B"), r=chain(3, "R"))  # wrong size
    t1, _, meta = fig4_family(chain(2, "A"), chain(1, "B"), r=star(4, "R"))
    assert meta["sizes"]["r"] == 4


@pytest.mark.filterwarnings("ignore::treelab.DegenerateFamilyWarning")
def test_fig4_candidates_add_2n_plus_1_nodes():
    for n in (1, 2):
        a, b = chain(n, "A"), chain(n, "B")
        t1, t2, meta = fig4_family(a, b)
        inst = fig1_family(parse_tree(meta["p_literal"]),
                           parse_tree(meta["r_literal"]),
                           parse_tree(meta["s_literal"]))
        added = {c.case: c.tree.size - t1.size for c in fig2_candidates(inst)
                 if c.case in ("a", "b")}
        assert set(added.values()) == {2 * n + 1}


def test_fig4_transfer_constant_stable():
    report = subproblem_transfer_check("fig4", chain(2, "A"), chain(2, "B"))
    assert report["stable"] and report["stable_double"]
    assert report["constant"] == report["pairs"][0]["delta"]
    assert [(r["big_optimum"], r["sub_optimum"]) for r in report["pairs"]] == [(14, 2)]
    assert report["smallest_size_constant"] == 7


def test_fig5_shapes_and_flag():
    t1, t2, meta = fig5_family(chain(2, "A"), chain(2, "B"))
    assert meta["reconstruction"] == "RECONSTRUCTED-UNVERIFIED"
    assert validate(t1) == [] and validate(t2) == []
    assert meta["sizes"]["p"] == 3 and meta["sizes"]["s"] == 2
    assert "A1" in t1.nodes and "B1" in t2.nodes


def test_fig5_claims_match_at_n2_and_mismatch_at_n1():
    good = check_fig5_claims(chain(2, "A"), chain(2, "B"))
    assert good["ps_supertree_matches"] and good["ps_merged_pairs_matches"]
    assert "adding_b_matches" in good  # recorded, not asserted
    degenerate = check_fig5_claims(chain(1, "A"), chain(1, "B"))
    assert degenerate["ps_supertree_matches"] is False


def test_fig5_transfer_reports_without_asserting():
    report = subproblem_transfer_check("fig5", chain(2, "A"), chain(2, "B"))
    assert report["family"] == "fig5"
    assert [(r["big_optimum"], r["sub_optimum"]) for r in report["pairs"]] == [(8, 2)]
    assert report["stable"] in (True, False)
    assert isinstance(report["constant"], (int, type(None)))


def test_transfer_rejects_unknown_family():
    with pytest.raises(TreeError):
        subproblem_transfer_check("fig9", chain(1), chain(1, "m"))


# -- the scan -----------------------------------------------------------------------------

def test_scan_size_3_all_gaps_zero():
    report = scan_pairs(3, checks=("eq4",))
    assert report.pairs_scanned == 10
    assert report.gap_histogram == {0: 10}
    assert report.minimal_violating_pair is None
    assert not report.violation_found


def test_scan_with_prop21_check():
    report = scan_pairs(3, checks=("eq4", "prop21"))
    assert report.prop21_summary["quotients_checked"] >= report.pairs_scanned
    assert report.prop21_summary["identity_findings"] == []
    assert report.prop21_summary["implication_findings"] == []


def test_scan_deterministic_and_jobs_independent():
    a = scan_pairs(3, checks=("eq4", "prop21")).to_json()
    b = scan_pairs(3, checks=("eq4", "prop21")).to_json()
    c = scan_pairs(3, checks=("eq4", "prop21"), jobs=2).to_json()
    for d in (a, b, c):
        d.pop("timing")
    assert a == b == c


def test_scan_guards():
    with pytest.raises(BudgetError):
        scan_pairs(8)
    with pytest.raises(TreeError):
        scan_pairs(3, checks=("eq5",))
    for size in (0, -1):
        with pytest.raises(TreeError, match="at least 1"):
            scan_pairs(size)


def test_scan_census_up_to_7():
    report = scan_pairs(7, checks=("eq4", "prop21"))
    assert report.pairs_scanned == 3655
    assert report.gap_histogram == {0: 3652, 1: 3}
    assert report.prop21_summary["quotients_checked"] == 4796
    assert len(report.prop21_summary["violating_pairs"]) == 278
    assert report.prop21_summary["identity_findings"] == []
    assert report.prop21_summary["implication_findings"] == []


@pytest.mark.parametrize("checks", [("eq4",), ("eq4", "prop21")])
def test_scan_parses_nothing_and_builds_no_named_witness(monkeypatch, checks):
    def refuse(*args):
        raise AssertionError("the scan must not parse literals or build named witnesses")

    for name in ("parse_tree", "induced_minor", "find_embedding", "canonical_code"):
        for module in (families, solvers, embeddings, quotient, trees):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    report = scan_pairs(6, checks=checks)
    assert report.pairs_scanned == 703
    assert report.prop21_summary["quotients_checked"] == (836 if "prop21" in checks else 0)


@pytest.mark.parametrize("checks", [("eq4",), ("eq4", "prop21")])
def test_scan_never_grows_supertrees(checks):
    # growth is a test oracle (`conftest.scs_by_growth`), not library code
    for name in ("_scs_core", "_insertions", "_GROWN"):
        assert not hasattr(solvers, name) and not hasattr(families, name)
    report = scan_pairs(7, checks=checks)
    assert report.gap_histogram == {0: 3652, 1: 3}
    assert report.minimal_violating_pair == {
        "t1": "v0(v1(v2(v3(v4)),v5),v6)", "t2": "v0(v1(v2(v3)),v4(v5,v6))",
        "gap": 1, "lcs": 6, "scs": 9}


def test_scan_records_match_the_named_witness_oracle_up_to_6():
    shapes = [seq for k in range(1, 7) for seq in _level_sequences(k)]
    pairs = [(shapes[i], shapes[j], True)
             for i in range(len(shapes)) for j in range(i, len(shapes))]
    assert len(pairs) == 703
    for args in pairs:
        assert families._scan_one_pair(args) == scan_pair_with_named_witnesses(args), args


def counting_recursion(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return solvers._scs_optimum(*args)

    monkeypatch.setattr(families, "_scs_optimum", counted)
    return calls


@pytest.mark.parametrize("max_size, checks, recursions", [
    (6, ("eq4", "prop21"), 2), (7, ("eq4", "prop21"), 42), (6, ("eq4",), 415)])
def test_scan_runs_the_recursion_only_where_no_witness_quotient_certifies(
        monkeypatch, max_size, checks, recursions):
    # eq4 alone builds no quotient, so every pair that is not absorbed recurses
    calls = counting_recursion(monkeypatch)
    scan_pairs(max_size, checks=checks)
    assert len(calls) == recursions


def test_scan_sends_a_pair_whose_quotient_tree_fails_its_map_check_to_the_recursion(
        monkeypatch):
    # star(3) and chain(3): every witness quotient reduces to a tree of the
    # floor's 4 classes, so the pair never recurses; with the classes of t2's
    # root and its child swapped, the tree is unchanged but t2's map fails
    args = ((1, 2, 2), (1, 2, 3), True)
    t1, t2 = families._scan_tree(args[0]), families._scan_tree(args[1])
    real = families._witness_quotient
    certificates = []

    def swap(class_of2):
        return dict(class_of2, v0=class_of2["v1"], v1=class_of2["v0"])

    def swapped(*witness):
        qrec, (up, root, class_of1, class_of2) = real(*witness)
        certificates.append((up, root, class_of1, class_of2))
        return qrec, (up, root, class_of1, swap(class_of2))

    calls = counting_recursion(monkeypatch)
    first = families._scan_one_pair(args)
    assert first["scs"] == 4 and calls == []
    monkeypatch.setattr(families, "_witness_quotient", swapped)
    assert families._scan_one_pair(args) == first and len(calls) == 1
    assert certificates
    for up, root, class_of1, class_of2 in certificates:
        assert families._certifies(t1, t2, 4, up, root, class_of1, class_of2)
        assert not families._certifies(t1, t2, 4, up, root, class_of1, swap(class_of2))


def test_scan_revalidates_the_searched_embedding(monkeypatch):
    def invalid(parent, labels, t):
        yield [t.root] * len(parent)  # every node onto the target's root

    # trees built afresh keep no searched embedding yet, so the scan reaches
    # the stub; the process's own scan trees come back after the test
    monkeypatch.setattr(families, "_scan_tree", functools.lru_cache(maxsize=None)(
        trees._tree_from_levels))
    monkeypatch.setattr(solvers, "_search", invalid)
    with pytest.raises(SolverDisagreement, match="not injective"):
        scan_pairs(3, checks=("eq4", "prop21"))
