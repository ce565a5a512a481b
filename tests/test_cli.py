import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from treelab import DegenerateFamilyWarning, MinorEmbedding, SolverDisagreement
from treelab import (cli, enumerate_trees, families, fig1_family, fig2_candidates, fig4_family,
                     format_tree, parse_tree, quotient, solvers, trees)
from treelab.families import _fresh_copy
from treelab.cli import main

from conftest import labeled_trees, unlabeled_trees


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def strip_timing(data):
    if isinstance(data, dict):
        return {k: strip_timing(v) for k, v in data.items() if k != "timing"}
    if isinstance(data, list):
        return [strip_timing(v) for v in data]
    return data


# -- predicates ------------------------------------------------------------------

def test_iso_exit_codes(capsys):
    code, out, _ = run(capsys, "iso", "a(b,c)", "x(y,z)")
    assert code == 0 and out.strip() == "isomorphic"
    code, out, _ = run(capsys, "iso", "a(b(c))", "x(y,z)")
    assert code == 1 and out.strip() == "not isomorphic"


def test_minor_exit_codes(capsys):
    code, data = run_json(capsys, "minor", "a(b)", "x(y,z)")
    assert code == 0 and data["is_minor"] and data["embedding"] == {"a": "x", "b": "y"}
    code, out, _ = run(capsys, "--format", "text", "minor", "a(b,c)", "x(y(z))")
    assert code == 1 and out.strip() == "not a minor"


def test_parse_and_canon(capsys):
    code, out, _ = run(capsys, "parse", "a( b , c )")
    assert code == 0 and out.strip() == "a(b,c)"
    code, out, _ = run(capsys, "canon", "a(b,c)")
    assert code == 0 and out.strip() == "(()())"


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "parse", "a(b,")
    assert code == 2 and "position" in err


def test_usage_error_exits_2(capsys):
    assert main(["no-such-verb"]) == 2


PARSER_ARGVS = [["--help"], [], ["no-such-verb"], ["--jobs", "0", "scan", "--max-size", "3"],
                ["scan", "--max-size", "3", "--jobs", "0"], ["verify", "--help"],
                ["verify", "fig1", "--help"], ["family"]]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_the_one_verb_parser_answers_as_the_full_parser(capsys, monkeypatch, argv):
    one_verb = run(capsys, *argv)
    monkeypatch.setattr(cli, "_verb_of", lambda argv: None)  # every verb's subparser
    assert run(capsys, *argv) == one_verb


def test_the_verb_is_read_past_the_shared_flags_only(capsys):
    assert [cli._verb_of(argv) for argv in PARSER_ARGVS] == [
        None, None, None, "scan", "scan", "verify", "verify", "family"]
    assert cli._verb_of(["--format=text", "--dot-dir", "scan", "lcs", "a", "b"]) == "lcs"
    assert cli._verb_of(["--jo", "2", "scan"]) is None  # abbreviated: every verb
    code, _, err = run(capsys, "--jobs", "0", "scan", "--max-size", "3")
    assert code == 2 and "{" + ",".join(cli.VERBS) + "}" in err and len(cli.VERBS) == 14


# -- enumeration -------------------------------------------------------------------

def test_enum_lists_trees(capsys):
    code, out, _ = run(capsys, "enum", "--size", "4")
    assert code == 0 and len(out.strip().splitlines()) == 4
    code, data = run_json(capsys, "--format", "json", "enum", "--size", "4")
    assert data["count"] == 4 and len(data["trees"]) == 4


def test_enum_budget_error(capsys):
    code, _, err = run(capsys, "enum", "--size", "15")
    assert code == 2 and ("budget" in err.lower() or "cap" in err)


@pytest.mark.parametrize("argv", [("enum", "--size", "3"), ("lcs", "a(b)", "x(y)"),
                                  ("scs", "a(b)", "x(y)")])
@pytest.mark.parametrize("budget", ["0", "-1"])
def test_budget_nodes_below_one_is_a_usage_error(capsys, argv, budget):
    code, out, err = run(capsys, *argv, "--budget-nodes", budget)
    assert code == 2 and out == ""
    assert "usage:" in err and "at least 1" in err


def test_enum_builds_no_tree_and_interns_no_shape(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("enum must not build a Tree or intern a shape")

    monkeypatch.setattr(trees, "_tree_from_levels", refuse)
    monkeypatch.setattr(trees, "_intern", refuse)
    code, out, err = run(capsys, "enum", "--size", "9")
    assert code == 0 and err == "" and len(out.splitlines()) == 286


def test_enum_output_is_the_enumerated_trees_literals(capsys):
    for n in range(1, 12):
        want = [format_tree(t) for t in enumerate_trees(n)]
        code, out, _ = run(capsys, "enum", "--size", str(n))
        assert code == 0 and out == "\n".join(want) + "\n"
        code, data = run_json(capsys, "--format", "json", "enum", "--size", str(n))
        assert code == 0 and data == {"size": n, "count": len(want), "trees": want}


# -- solvers ------------------------------------------------------------------------

def test_lcs_report_includes_edit_distance(capsys):
    code, data = run_json(capsys, "lcs", "a(b)", "x(y,z)")
    assert code == 0
    assert data["optimum_size"] == 2
    assert data["unit_edit_distance"] == 1
    assert data["witnesses"][0]["tree_literal"]


def test_lcs_of_inputs_sharing_no_label(capsys):
    code, data = run_json(capsys, "lcs", "a:x(b:x)", "c:y")
    assert code == 0 and data["optimum_size"] == 0 and data["witnesses"] == []
    assert data["unit_edit_distance"] == 3
    code, out, err = run(capsys, "quotient", "a:x(b:x)", "c:y")
    assert code == 2 and out == "" and "no common minor" in err


def test_scs_report(capsys):
    code, data = run_json(capsys, "scs", "a(b)", "x(y,z)")
    assert code == 0 and data["optimum_size"] == 3


def test_scs_jobs_flag_is_accepted_and_ignored(capsys):
    runs = []
    for jobs in ("1", "2"):
        code, data = run_json(capsys, "scs", "n1(n2(n3))", "m1(m2,m3,m4)",
                              "--all", "--jobs", jobs)
        assert code == 0
        runs.append(strip_timing(data))
    assert runs[0] == runs[1]
    assert runs[0]["witness_count"] > 1


@pytest.mark.parametrize("argv", [("scs", "a(b(c))", "x(y,z)"),
                                  ("verify", "fig1", "--p", "p", "--r", "q", "--s", "s")])
def test_max_size_is_a_scan_flag_only(capsys, argv):
    code, out, err = run(capsys, *argv, "--max-size", "2")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --max-size 2" in err


def test_scs_into_a_deep_broom_is_a_budget_error(capsys, tmp_path):
    # a 1,500-deep chain with two leaves at its end contains a(b,c); its
    # size alone is past the enumeration cap, so no search starts
    depth = 1500
    path = tmp_path / "broom.txt"
    path.write_text("(".join(f"n{i:04d}" for i in range(depth)) + "(x,y)" + ")" * (depth - 1))
    started = time.perf_counter()
    code, out, err = run(capsys, "scs", "a(b,c)", f"@{path}")
    assert code == 2 and out == ""
    assert "enumeration" in err and "internal error" not in err
    assert time.perf_counter() - started < 10


def test_tree_literal_from_file(capsys, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("a(b,c)\n")
    code, out, _ = run(capsys, "canon", f"@{path}")
    assert code == 0 and out.strip() == "(()())"


def test_deep_literals_parse_and_canon(capsys, tmp_path):
    depth = 1500
    literal = "".join(f"n{i}(" for i in range(depth - 1)) + f"n{depth - 1}" + ")" * (depth - 1)
    path = tmp_path / "deep.txt"
    path.write_text(literal)
    code, out, _ = run(capsys, "canon", f"@{path}")
    assert code == 0 and out.strip() == "(" * depth + ")" * depth
    code, out, _ = run(capsys, "parse", literal)
    assert code == 0 and out.strip() == literal


def test_undecodable_literal_file_exits_2(capsys, tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "canon", f"@{path}")
    assert code == 2 and "not text" in err


def test_nul_byte_in_a_path_exits_2(capsys, tmp_path):
    """open() raises ValueError on a NUL byte: an input error, not a crash.  No
    shell can pass one in argv, so only in-process callers meet it."""
    mapping = tmp_path / "g.json"
    mapping.write_text('{"a": "a"}')
    for argv in (("canon", "@a\x00b"),
                 ("quotient", "a(b)", "a(c)", "--mu", "a", "--g1", f"{mapping}\x00",
                  "--g2", str(mapping))):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: cannot open") and "null byte" in err


# -- quotient and prop21 ---------------------------------------------------------------

T1 = "a(y(p1(p2(p3)),r),s1(s2,s3))"
T2 = "a(p1(p2(p3)),z(r,s1(s2,s3)))"


def test_quotient_report_schema(capsys):
    code, data = run_json(capsys, "quotient", "n1(n2)", "m1(m2,m3)")
    assert code == 0
    assert set(data) == {"classes", "arcs", "prop21", "reduced_is_tree",
                         "eq4_prediction"}
    assert data["reduced_is_tree"] is True
    assert data["eq4_prediction"] == 3


def test_quotient_accepts_explicit_minor(capsys):
    code, data = run_json(capsys, "quotient", "n1(n2)", "m1(m2,m3)",
                          "--mu", "c1(c2)")
    assert code == 0 and len(data["classes"]) == 3


def test_quotient_with_embedding_files(capsys, tmp_path):
    g1 = tmp_path / "g1.json"
    g2 = tmp_path / "g2.json"
    g1.write_text(json.dumps({"c1": "n1", "c2": "n2"}))
    g2.write_text(json.dumps({"c1": "m1", "c2": "m3"}))
    code, data = run_json(capsys, "quotient", "n1(n2)", "m1(m2,m3)",
                          "--mu", "c1(c2)", "--g1", str(g1), "--g2", str(g2))
    assert code == 0
    assert {"members": ["1:n2", "2:m3"], "in_mu_image": True} in data["classes"]


@pytest.mark.parametrize("content", ['{bad', '["a"]', '{"a": 1}'])
def test_malformed_mapping_file_exits_2(capsys, tmp_path, content):
    g = tmp_path / "g.json"
    g.write_text(content)
    code, _, err = run(capsys, "quotient", "n1(n2)", "m1(m2,m3)",
                       "--mu", "c1(c2)", "--g1", str(g), "--g2", str(g))
    assert code == 2
    assert err.startswith("error: mapping file") and "target node" not in err


@pytest.mark.parametrize("verb", ["quotient", "prop21"])
@pytest.mark.parametrize("flags", [("--mu", "c1(c2)", "--g1", "G"),
                                   ("--mu", "c1(c2)", "--g2", "G"),
                                   ("--g1", "G", "--g2", "G"),
                                   ("--g1", "G")])
def test_mapping_files_need_each_other_and_mu(capsys, tmp_path, verb, flags):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"c1": "nowhere", "c2": "n2"}))
    argv = [str(g) if f == "G" else f for f in flags]
    code, out, err = run(capsys, verb, "n1(n2)", "m1(m2,m3)", *argv)
    assert code == 2 and out == ""
    assert err.strip() == "error: --g1 and --g2 go together, with --mu"


def test_prop21_violation_exits_1(capsys):
    code, data = run_json(capsys, "prop21", T1, T2)
    assert code == 1
    assert data["holds"] is False
    assert data["violations"][0]["kind"] == "ii"


@pytest.mark.parametrize("verb", ["quotient", "prop21"])
def test_path_check_past_its_budget_exits_2(capsys, monkeypatch, verb):
    monkeypatch.setattr(quotient, "PATH_BUDGET", 1)
    code, out, err = run(capsys, verb, T1, T2)
    assert code == 2 and out == ""
    assert err.startswith("budget error: path-uniqueness check limited to 1 enumerated paths")


def test_prop21_holding_exits_0(capsys):
    code, data = run_json(capsys, "prop21", "n1(n2)", "m1(m2,m3)")
    assert code == 0 and data["holds"]


def test_quotient_rejects_non_minor_mu(capsys):
    code, _, err = run(capsys, "quotient", "n1(n2(n3))", "m1(m2,m3)",
                       "--mu", "c1(c2,c3)")
    assert code == 2 and "common minor" in err


# -- families ------------------------------------------------------------------------------

def test_family_fig1(capsys):
    code, data = run_json(capsys, "family", "fig1", "--p", "p1(p2(p3))",
                          "--r", "r", "--s", "s1(s2,s3)")
    assert code == 0
    assert data["t1"] == "a(s1(s2,s3),y(p1(p2(p3)),r))"
    assert data["g1"]["a"] == "a"


def test_family_fig4_and_fig5(capsys):
    code, data = run_json(capsys, "family", "fig4", "--a", "a1(a2)", "--b", "b1")
    assert code == 0 and data["sizes"]["t1"] == 13
    code, data = run_json(capsys, "family", "fig5", "--a", "a1", "--b", "b1")
    assert code == 0 and data["reconstruction"] == "RECONSTRUCTED-UNVERIFIED"


def test_family_fig5_check_claims(capsys):
    code, data = run_json(capsys, "family", "fig5", "--a", "a1(a2)",
                          "--b", "b1(b2)", "--check-claims", "--jobs", "1")
    assert code == 0
    claims = data["claims_checked"]
    assert claims["ps_supertree_matches"] is True
    assert "adding_b_matches" in claims


def test_embeddings_verb(capsys):
    code, data = run_json(capsys, "embeddings", "a(b)", "x(y,z)")
    assert code == 0
    assert data["count"] == 2 and data["exhaustive"] is True
    assert data["embeddings"] == [{"a": "x", "b": "y"}, {"a": "x", "b": "z"}]
    code, data = run_json(capsys, "embeddings", "a(b)", "x(y,z)", "--limit", "1")
    assert data["count"] == 1 and data["exhaustive"] is False
    # a limit the search never passed means every embedding was found
    for limit in ("2", "5"):
        code, data = run_json(capsys, "embeddings", "a(b)", "x(y,z)", "--limit", limit)
        assert data["count"] == 2 and data["exhaustive"] is True


def test_embeddings_past_the_budget_is_a_budget_error(capsys):
    # a star of 8 nodes into one of 14 has 8,648,640 maps; the list stops
    # one map past `EMBEDDING_BUDGET`
    started = time.perf_counter()
    code, out, err = run(capsys, "embeddings", "n1(n2,n3,n4,n5,n6,n7,n8)",
                         "m1(m2,m3,m4,m5,m6,m7,m8,m9,m10,m11,m12,m13,m14)")
    assert code == 2 and out == ""
    assert "budget error" in err and "--limit" in err and "internal error" not in err
    assert time.perf_counter() - started < 5


@pytest.mark.parametrize("argv", [
    ("embeddings", "a(b)", "x(y,z)", "--limit", "{}"),
    ("scan", "--max-size", "2", "--jobs", "{}"),
    ("--jobs", "{}", "scan", "--max-size", "2"),
])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_limit_and_jobs_below_one_are_usage_errors(capsys, argv, value):
    code, out, err = run(capsys, *(arg.format(value) for arg in argv))
    assert code == 2 and out == ""
    assert "usage:" in err and "at least 1" in err


def test_verify_gap_zero_exits_0(capsys):
    code, data = run_json(capsys, "verify", "fig1", "--p", "p", "--r", "q",
                          "--s", "s1(s2)", "--jobs", "1")
    assert code == 0 and data["gap"] == 0


def test_verify_budget_nodes_caps_both_solvers(capsys):
    # 13 + 13 nodes: the common-minor walk and the supertree level 15 both
    # need a cap above the default 14, and a cap below the inputs stops both
    argv = ("verify", "fig1", "--p", "p1(p2(p3(p4(p5(p6(p7))))))", "--r", "r",
            "--s", "s1(s2,s3)")
    code, data = run_json(capsys, *argv, "--budget-nodes", "15")
    assert code == 1 and data["sizes"] == {"t1": 13, "t2": 13, "claimed_mu": 12}
    assert (data["lcs_size"], data["eq4_prediction"], data["scs_size"], data["gap"]) == \
        (12, 14, 15, 1)
    code, out, err = run(capsys, *argv, "--budget-nodes", "12")
    assert code == 2 and out == "" and "limited to inputs of 12 nodes" in err


VERIFY_13 = ("--p", "p1(p2(p3(p4(p5(p6(p7))))))", "--r", "r", "--s", "s1(s2,s3)")
VERIFY_HEADLINE = ("--p", "p1(p2(p3))", "--r", "r", "--s", "s1(s2,s3)")


@pytest.mark.parametrize("argv, code, gap, lower_bound", [
    (VERIFY_13, 2, None, 15),
    (VERIFY_HEADLINE + ("--budget-nodes", "10"), 2, None, 11),
    (VERIFY_HEADLINE, 1, 1, None),
    (VERIFY_13 + ("--budget-nodes", "15"), 1, 1, None),
])
def test_verify_exits_2_when_the_gap_is_undecided(capsys, argv, code, gap, lower_bound):
    # a supertree optimum past the cap leaves the gap unknown, which must not
    # read as "every checked property holds"; the partial report still prints
    got, out, err = run(capsys, "verify", "fig1", *argv)
    data = json.loads(out)
    assert (got, data["gap"], data["scs_lower_bound"]) == (code, gap, lower_bound)
    if code == 2:
        assert err.startswith("budget error: gap undecided") and err.count("\n") == 1
    else:
        assert err == ""


def test_verify_text_table(capsys):
    code, out, _ = run(capsys, "--format", "text", "verify", "fig1",
                       "--p", "p", "--r", "q", "--s", "s1(s2)", "--jobs", "1")
    assert code == 0
    assert "|T1|" in out and "gap" in out and "prediction" in out


def test_transfer_cli(capsys):
    code, data = run_json(capsys, "transfer", "fig4", "--a", "A", "--b", "B",
                          "--jobs", "1")
    assert code == 0 and data["stable"] is True


def test_transfer_fig4_is_exact_beyond_the_enumeration_cap(capsys):
    # the big supertrees of both pairs here have 20 nodes, past the cap of 14
    code, data = run_json(capsys, "transfer", "fig4", "--a", "a1(a2,a3)", "--b", "b1(b2)",
                          "--jobs", "1")
    assert code == 0 and data["stable_double"] is True and data["constant_double"] == 14
    assert [(r["big_optimum"], r["sub_optimum"], r["delta_double"])
            for r in data["pairs"]] == [(20, 3, 14)] * 2
    for r in data["pairs"]:  # no larger than the best Figure 2 candidate
        _, _, meta = fig4_family(parse_tree(r["a"]), parse_tree(r["b"]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateFamilyWarning)
            inst = fig1_family(*(parse_tree(meta[f"{part}_literal"]) for part in "prs"))
        assert r["big_optimum"] <= min(c.tree.size for c in fig2_candidates(inst))


def test_transfer_fig5_takes_the_node_cap(capsys):
    # two 6-node stars give fig5 trees of 21 nodes, whose common-minor walk
    # took about 0.5 s per pair when it was capped at their own size
    started = time.perf_counter()
    code, out, err = run(capsys, "transfer", "fig5", "--a", "a0(a1,a2,a3,a4,a5)",
                         "--b", "b0(b1,b2,b3,b4,b5)", "--budget-nodes", "10")
    assert time.perf_counter() - started < 1
    assert code == 2 and out == "" and "limited to inputs of 10 nodes (got 21 and 21)" in err
    # at the default cap 14, parts of 3 nodes (trees of 12) run, parts of 4 stop
    code, data = run_json(capsys, "transfer", "fig5", "--a", "a1(a2,a3)", "--b", "b1(b2,b3)")
    assert code == 0 and [p["big_optimum"] for p in data["pairs"]] == [11, 10, 10, 11]
    code, out, err = run(capsys, "transfer", "fig5", "--a", "a1(a2(a3,a4))", "--b", "b1")
    assert code == 2 and "limited to inputs of 14 nodes (got 15 and 12)" in err


def test_transfer_past_the_recursion_budget_is_a_budget_error(capsys, monkeypatch):
    monkeypatch.setattr(solvers, "_SCS", {})
    monkeypatch.setattr(solvers, "SCS_BUDGET", 3)
    code, out, err = run(capsys, "transfer", "fig4", "--a", "a1(a2,a3)", "--b", "b1(b2)")
    assert code == 2 and out == ""
    assert "supertree recursion limited to 3 branches" in err


# -- scan ----------------------------------------------------------------------------------

def test_scan_cli_all_zero(capsys):
    code, data = run_json(capsys, "scan", "--max-size", "3", "--check", "eq4",
                          "--jobs", "1")
    assert code == 0
    assert data["gap_histogram"] == {"0": 10}
    assert data["minimal_violating_pair"] is None


@pytest.mark.parametrize("size", ["0", "-1"])
def test_scan_cli_size_below_one_exits_2(capsys, size):
    code, out, err = run(capsys, "scan", "--max-size", size, "--jobs", "1")
    assert code == 2 and out == "" and "at least 1" in err


def test_scan_cli_unknown_check(capsys):
    code, _, err = run(capsys, "scan", "--max-size", "3", "--check", "bogus")
    assert code == 2 and "unknown" in err


@pytest.mark.parametrize("checks", [",", ""])
def test_scan_cli_empty_check_list(capsys, checks):
    code, out, err = run(capsys, "scan", "--max-size", "3", "--check", checks)
    assert code == 2 and out == "" and "no scan check" in err


# -- internal errors ---------------------------------------------------------------------

def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("target, exc, argv", [
    ("verify_counterexample", SolverDisagreement("strategies disagree"),
     ("verify", "fig1", "--p", "p", "--r", "q", "--s", "s1(s2)")),
    ("scan_pairs", KeyError("boom"), ("scan", "--max-size", "3")),
])
def test_internal_errors_exit_3_without_traceback(capsys, monkeypatch, target, exc, argv):
    # exit 1 means a verified violation; a crash must never look like one
    monkeypatch.setattr(cli, target, _raise(exc))
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


def _every_node_onto_the_root(s, t, mapping=None):
    return MinorEmbedding(s, t, {v: t.root for v in (s.nodes if mapping is None else mapping)})


def _hung_off_the_first(t, w):  # a subset's minor read as a star, not as t induces it
    return sorted(w), [-1] + [0] * (len(w) - 1)


def _search_onto_the_root(parent, labels, t):
    yield [t.root] * len(parent)


def _copy_renamed_in_reverse(tree, used):
    copy, names = _fresh_copy(tree, used)
    return copy, dict(zip(names, reversed(list(names.values()))))


HEADLINE_PARTS = ("--p", "p1(p2(p3))", "--r", "r", "--s", "s1(s2,s3)")


@pytest.mark.parametrize("module, name, fault, argv, what", [
    (solvers, "_induced_preorder", _hung_off_the_first, ("lcs", "a(b(c))", "x(y(z))"),
     "the identity map of the minor induced on ('a', 'b', 'c'): path a ~> c passes"),
    (solvers, "_search", _search_onto_the_root, ("lcs", "a(b,c)", "x(y,z)"),
     "the searched embedding of the minor induced on ('a', 'b', 'c') into the other input: "
     "map is not injective"),
    (solvers, "find_embedding", _every_node_onto_the_root, ("scs", "a(b,c)", "x(y(z))"),
     "the searched embedding of an input: map is not injective"),
    (families, "MinorEmbedding", _every_node_onto_the_root, ("family", "fig1", *HEADLINE_PARTS),
     "family construction broke its own witness: map is not injective"),
    (families, "_fresh_copy", _copy_renamed_in_reverse, ("verify", "fig1", *HEADLINE_PARTS),
     "candidate case a is not a supertree: "),
], ids=["induced-minor", "lcs-witness", "scs-witness", "family-witness", "candidate"])
def test_a_built_map_that_fails_its_check_exits_3(capsys, monkeypatch, module, name, fault,
                                                   argv, what):
    # a map the library built is checked when built, and a failure is a fault
    # in treelab, never bad input
    monkeypatch.setattr(module, name, fault)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith(f"internal error: SolverDisagreement: {what}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("verb", ["quotient", "prop21"])
def test_a_handed_in_map_that_fails_its_check_exits_2(capsys, tmp_path, verb):
    g1, g2 = tmp_path / "g1.json", tmp_path / "g2.json"
    g1.write_text(json.dumps({"c1": "n2", "c2": "n1"}))  # upside down
    g2.write_text(json.dumps({"c1": "m1", "c2": "m3"}))
    code, out, err = run(capsys, verb, "n1(n2)", "m1(m2,m3)",
                         "--mu", "c1(c2)", "--g1", str(g1), "--g2", str(g2))
    assert code == 2 and out == ""
    assert err == "error: no path n2 ~> n1 in the target on arc c1->c2\n"


# -- fuzzing ------------------------------------------------------------------------------

#: Tree arguments: random text over the literal alphabet, or well-formed
#: literals so the verbs get past parsing.  Both stay within 4 or 5 nodes, so
#: `verify` and `transfer` finish at once.
LITERALS = st.one_of(st.text("ab:(),_9 \t\n@é", max_size=10),
                     st.one_of(labeled_trees(4), unlabeled_trees(4)).map(format_tree))
JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.text("ab_\x00é", max_size=3),
                    lambda inner: (st.lists(inner, max_size=3)
                                   | st.dictionaries(st.text("ab_", max_size=2), inner,
                                                     max_size=3)),
                    max_leaves=6)
#: The verbs that check a property, the only ones that may exit 1.
CHECKING = {"iso", "minor", "prop21", "verify", "scan"}


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_arguments_never_crash(monkeypatch, tmp_path, data):
    """Random literals, `@files` of random bytes and mapping files of random
    JSON: every verb exits 0, 2 or, when it checks a property, 1; never 3."""
    monkeypatch.chdir(tmp_path)  # a relative @path reads nothing outside
    names = itertools.count()

    def file_of(content: bytes) -> str:
        path = tmp_path / f"f{next(names)}"
        path.write_bytes(content)
        return str(path)

    def tree():
        return data.draw(st.one_of(
            LITERALS,
            st.one_of(st.binary(max_size=10), LITERALS.map(str.encode)).map(
                lambda content: "@" + file_of(content))))

    def mapping():
        return data.draw(st.one_of(
            st.one_of(JSON, st.dictionaries(st.text("ab_9", max_size=2),
                                            st.text("ab_9", max_size=2), max_size=4)).map(
                lambda value: file_of(json.dumps(value).encode())),
            st.binary(max_size=8).map(file_of),
            st.text("ab/\x00", max_size=4)))  # a path that may not exist or be valid

    def size():
        return str(data.draw(st.integers(-1, 4)))

    verb = data.draw(st.sampled_from(cli.VERBS))
    if verb in ("parse", "canon"):
        argv = [verb, tree()]
    elif verb in ("iso", "minor", "embeddings", "lcs", "scs"):
        argv = [verb, tree(), tree()]
        argv += data.draw(st.sampled_from((
            [], ["--limit", "1"], ["--limit", "0"]) if verb == "embeddings" else ([], ["--all"])))
    elif verb in ("quotient", "prop21"):
        argv = [verb, tree(), tree()]
        if data.draw(st.booleans()):
            argv += ["--mu", tree()]
        if data.draw(st.booleans()):
            argv += ["--g1", mapping(), "--g2", mapping()]
    elif verb == "verify":
        argv = [verb, "fig1", "--p", tree(), "--r", tree(), "--s", tree()]
    elif verb == "family":
        argv = [verb, "fig4", "--a", tree(), "--b", tree()]
    elif verb == "transfer":
        argv = [verb, "fig5", "--a", tree(), "--b", tree()]
    elif verb == "enum":
        argv = [verb, "--size", size()]
    else:
        argv = [verb, "--max-size", size(), "--check",
                data.draw(st.sampled_from(("eq4", "prop21", "eq4,prop21", ",", "eq5")))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--jobs", "1"])
    assert "internal error" not in err.getvalue(), argv
    assert code in ((0, 1, 2) if verb in CHECKING else (0, 2)), (argv, code, err.getvalue())


# -- output contracts ------------------------------------------------------------------------

def test_reports_are_deterministic_modulo_timing(capsys):
    runs = []
    for _ in range(2):
        code, data = run_json(capsys, "verify", "fig1", "--p", "p", "--r", "q",
                              "--s", "s1(s2)", "--jobs", "1")
        assert code == 0
        runs.append(strip_timing(data))
    assert runs[0] == runs[1]


def test_dot_dir_exports(capsys, tmp_path):
    out_dir = tmp_path / "dots"
    code, _ = run_json(capsys, "quotient", T1, T2, "--dot-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "quotient.dot").exists()
    assert (out_dir / "reduced.dot").exists()
    assert "peripheries=2" in (out_dir / "quotient.dot").read_text()
    code, _, _ = run(capsys, "--dot-dir", str(out_dir), "parse", "a(b)")
    assert (out_dir / "tree.dot").exists()


def test_verify_dot_dir_reuses_the_report(capsys, tmp_path):
    # P is isomorphic to S: the degenerate-family warning is reported once,
    # inside the report, and not raised again while the DOT files are written.
    out_dir = tmp_path / "dots"
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateFamilyWarning)
        code, data = run_json(capsys, "verify", "fig1", "--p", "p1(p2)", "--r", "q",
                              "--s", "s1(s2)", "--dot-dir", str(out_dir))
    assert code == 0 and len(data["warnings"]) == 1
    for name in ("t1", "t2", "mu", "quotient", "reduced", "scs_witness0"):
        assert (out_dir / f"{name}.dot").exists()
    assert 'fillcolor="lightblue"' in (out_dir / "t1.dot").read_text()


def test_family_fig1_reports_a_degenerate_instance_as_one_warning_line(capsys):
    # under warnings as errors too: the warning is a line on stderr, and the
    # report says P is isomorphic to S
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateFamilyWarning)
        code, out, err = run(capsys, "family", "fig1", "--p", "a", "--r", "b", "--s", "c")
    assert code == 0 and json.loads(out)["p_isomorphic_s"] is True
    assert err == ("warning: P is isomorphic to S: the common minor a(P,R,S) is not "
                   "strictly smaller than the inputs\n")


def test_installed_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "treelab", "iso", "a", "b"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "isomorphic"


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, treelab.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("flags, absent", [
    ((), ("dataclasses", "inspect")),
    # without `site`, whose .pth files may import them, typing and pathlib too
    (("-S",), ("dataclasses", "inspect", "pathlib", "typing")),
])
def test_importing_the_cli_leaves_heavy_stdlib_modules_unloaded(flags, absent):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, *flags, "-c",
         f"import sys, treelab.cli; print([m for m in {absent!r} if m in sys.modules])"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
