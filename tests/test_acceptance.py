"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every stated runtime budget is asserted against the measured wall
time.  The expected values here were produced by the independent oracles in
conftest.py (generate-and-dedup enumeration, injective-map search,
permutation isomorphism) and frozen.
"""

import random
import time

import pytest

from treelab import (build_quotient, canonical_code, chain,
                     check_embedding, check_eq2_eq3, check_lemma4,
                     enumerate_embeddings, enumerate_trees,
                     fig1_family, fig2_candidates, fig4_family, find_embedding,
                     is_minor, largest_common_minor, parse_tree, region_images,
                     scan_pairs, subproblem_transfer_check,
                     validate, verify_counterexample)

from conftest import (all_trees_up_to, cross_check_minor, enumerate_by_leaf_growth,
                      scs_by_catalogue)


@pytest.fixture(scope="session")
def headline_report(acceptance_parts):
    p, r, s = acceptance_parts
    started = time.perf_counter()
    report = verify_counterexample(p, r, s, theorem5_exhaustive=True)
    return report, time.perf_counter() - started


def test_criterion_1_size_gap_refutation(headline_report):
    report, elapsed = headline_report
    assert report.sizes["t1"] == 9 and report.sizes["t2"] == 9
    assert report.lcs_size == 8 and report.claimed_mu_optimal
    assert report.eq4_prediction == 10
    assert report.scs_size == 11 and report.scs_exact
    assert report.gap == 1

    # all 719 trees of size 10 were decided and none hosts both inputs: the
    # solver's count is reported, so the catalogue scan tests them one by one
    levels = {lv.size: lv for lv in report.scs_levels}
    assert levels[10].candidates == 719 and levels[10].hits == 0
    assert levels[11].hits >= 1
    inst = fig1_family(*acceptance_parts_from(report))
    scanned = {lv.size: lv for lv in scs_by_catalogue(inst.t1, inst.t2, True).levels}
    assert scanned[10].candidates == 719 and scanned[10].hits == 0

    # the 11-node witnesses are embedding-verified on both sides
    for literal in report.scs_witness_literals:
        witness = parse_tree(literal)
        assert witness.size == 11
        for t in (inst.t1, inst.t2):
            f = find_embedding(t, witness)
            assert f is not None and check_embedding(f.mapping, t, witness) == []

    assert elapsed <= 60.0
    print(f"\nPASS criterion 1: |T1|=|T2|=9, lcs=8, prediction=10, scs=11, "
          f"gap=1; 719 size-10 trees refuted ({elapsed:.1f}s <= 60s)")


def acceptance_parts_from(report):
    return (parse_tree(report.params["p"]), parse_tree(report.params["r"]),
            parse_tree(report.params["s"]))


def test_criterion_2_path_uniqueness_violation(acceptance_parts):
    p, r, s = acceptance_parts
    started = time.perf_counter()
    inst = fig1_family(p, r, s)
    q = build_quotient(inst.t1, inst.t2, inst.claimed_mu, inst.g1, inst.g2)
    from treelab import check_prop21, reduce_quotient
    report = check_prop21(q)
    assert not report.holds and len(report.violations) == 1
    v = report.violations[0]
    assert v.kind == "ii"
    assert v.v is q.ell1["a"]
    assert v.w is q.ell1["r"]
    assert {path[1] for path in v.paths} == {q.ell1["y"], q.ell2["z"]}

    reduced = reduce_quotient(q)
    violations = validate(reduced)
    assert [x.kind for x in violations] == ["multi_parent"]
    assert violations[0].subject == (q.ell1["r"].label,)
    elapsed = time.perf_counter() - started
    assert elapsed <= 1.0
    print(f"\nPASS criterion 2: one (ii)-violation at ([a],[r]) via [y]/[z]; "
          f"reduced quotient has the in-degree-2 diamond ({elapsed:.2f}s <= 1s)")


def test_criterion_3_incomparability_preserved_exhaustively():
    started = time.perf_counter()
    trees = all_trees_up_to(6)
    embeddings = 0
    for s in trees:
        for t in trees:
            if s.size > t.size:
                continue
            for f in enumerate_embeddings(s, t):
                embeddings += 1
                assert check_lemma4(f) == []
    elapsed = time.perf_counter() - started
    assert embeddings > 2000
    assert elapsed <= 600.0
    print(f"\nPASS criterion 3: {embeddings} embeddings over all pairs of "
          f"sizes <= 6, zero counterwitnesses ({elapsed:.1f}s <= 600s)")


def test_criterion_4_no_triple_merge(acceptance_parts, headline_report):
    report, _ = headline_report
    assert report.theorem5["mode"] == "exhaustive"
    assert report.theorem5["merge_found"] is False
    assert report.theorem5["supertrees_checked"] >= 1

    # independent re-check of the sweep on the raw pieces
    p, r, s = acceptance_parts
    started = time.perf_counter()
    inst = fig1_family(p, r, s)
    from treelab import smallest_common_supertree
    scs = smallest_common_supertree(inst.t1, inst.t2, all_witnesses=True)
    assert scs.optimum_size == 11
    pairs = 0
    for witness in scs.witnesses:
        all_f1 = enumerate_embeddings(inst.t1, witness.tree)
        all_f2 = enumerate_embeddings(inst.t2, witness.tree)
        assert all_f1 and all_f2
        images2 = [region_images(inst.t2, f2) for f2 in all_f2]
        for f1 in all_f1:
            img1 = region_images(inst.t1, f1)
            for img2 in images2:
                pairs += 1
                merged = all(img1[slot] & img2[slot] for slot in ("P", "R", "S"))
                assert not merged
    elapsed = time.perf_counter() - started
    assert elapsed <= 900.0
    print(f"\nPASS criterion 4: {len(scs.witnesses)} minimum supertrees, "
          f"{pairs} embedding pairs, no P/R/S triple merge ({elapsed:.1f}s <= 900s)")


def test_criterion_5_quotient_structural_identities():
    started = time.perf_counter()
    checked = 0

    def check_pair(t1, t2):
        nonlocal checked
        lcs = largest_common_minor(t1, t2, all_witnesses=True,
                                   cap=max(t1.size, t2.size))
        for w in lcs.witnesses:
            q = build_quotient(t1, t2, w.tree, w.emb1, w.emb2)
            assert check_eq2_eq3(q) == []
            assert len(q.classes) == t1.size + t2.size - w.tree.size
            checked += 1

    small = all_trees_up_to(5)
    for i, t1 in enumerate(small):
        for t2 in small[i:]:
            check_pair(t1, t2)
    exhaustive = checked

    rng = random.Random(20260810)
    for _ in range(200):
        t1 = rng.choice(tuple(enumerate_trees(rng.choice((6, 7)))))
        t2 = rng.choice(tuple(enumerate_trees(rng.choice((6, 7)))))
        check_pair(t1, t2)

    elapsed = time.perf_counter() - started
    assert elapsed <= 600.0
    print(f"\nPASS criterion 5: identities hold for {exhaustive} witnesses "
          f"(all pairs <= 5) plus {checked - exhaustive} from 200 random "
          f"size-6/7 pairs ({elapsed:.1f}s <= 600s)")


def test_criterion_6_strategy_equivalence():
    started = time.perf_counter()
    trees = all_trees_up_to(6)
    pairs = 0
    for s in trees:
        for t in trees:
            cross_check_minor(s, t)  # raises on any disagreement
            pairs += 1
    elapsed = time.perf_counter() - started
    assert pairs == len(trees) ** 2
    assert elapsed <= 300.0
    print(f"\nPASS criterion 6: backtracking and subset strategies agree on "
          f"{pairs} ordered pairs of sizes <= 6 ({elapsed:.1f}s <= 300s)")


def test_criterion_7_enumeration_counts():
    started = time.perf_counter()
    expected = [1, 1, 2, 4, 9, 20, 48, 115, 286]
    got = [len(tuple(enumerate_trees(n))) for n in range(1, 10)]
    assert got == expected
    for n in range(1, 10):
        assert {canonical_code(t) for t in enumerate_trees(n)} == \
            set(enumerate_by_leaf_growth(n))
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0
    print(f"\nPASS criterion 7: counts {got} match and agree with "
          f"generate-and-dedup ({elapsed:.1f}s <= 60s)")


def test_criterion_8_prediction_holds_where_expected():
    started = time.perf_counter()
    report = verify_counterexample(chain(1, "p"), chain(1, "q"),
                                   parse_tree("s1(s2)"))
    assert report.gap == 0
    assert report.scs_size == report.eq4_prediction == 7
    # the violation needs incomparable P and S; here P embeds into S
    assert is_minor(chain(1, "p"), parse_tree("s1(s2)"))

    scan = scan_pairs(3, checks=("eq4",))
    assert scan.gap_histogram == {0: scan.pairs_scanned}
    assert scan.minimal_violating_pair is None
    elapsed = time.perf_counter() - started
    assert elapsed <= 120.0
    print(f"\nPASS criterion 8: gap=0 for (single, single, chain2) and all "
          f"{scan.pairs_scanned} pairs of sizes <= 3 ({elapsed:.1f}s <= 120s)")


@pytest.mark.filterwarnings("ignore::treelab.DegenerateFamilyWarning")
def test_criterion_9_transfer_families():
    started = time.perf_counter()

    # candidate arithmetic at the default parameters (n = m = 1)
    t1, t2, meta = fig4_family(chain(1, "A"), chain(1, "B"))
    n = meta["n"]
    inst = fig1_family(parse_tree(meta["p_literal"]),
                       parse_tree(meta["r_literal"]),
                       parse_tree(meta["s_literal"]))
    added = [c.tree.size - t1.size for c in fig2_candidates(inst)
             if c.case in ("a", "b")]
    assert added == [2 * n + 1] * 3

    fig4 = subproblem_transfer_check("fig4", chain(2, "A"), chain(2, "B"))
    assert fig4["stable"] and fig4["stable_double"]
    assert (fig4["constant"], fig4["constant_double"]) == (12, 10)

    fig5 = subproblem_transfer_check("fig5", chain(2, "A"), chain(2, "B"))
    assert fig5["family"] == "fig5" and "constant" in fig5  # report-grade only

    elapsed = time.perf_counter() - started
    assert elapsed <= 900.0
    print(f"\nPASS criterion 9: a/b candidates add 2n+1 nodes; fig4 constant "
          f"{fig4['constant']} stable at n=m=2; fig5 reported "
          f"(constant {fig5['constant']}, stable {fig5['stable']}) "
          f"({elapsed:.1f}s <= 900s)")
