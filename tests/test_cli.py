import json
import os
import subprocess
import sys
import warnings

import pytest

from treelab import DegenerateFamilyWarning, SolverDisagreement
from treelab import cli, enumerate_trees, format_tree, trees
from treelab.cli import main


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


# -- enumeration -------------------------------------------------------------------

def test_enum_lists_trees(capsys):
    code, out, _ = run(capsys, "enum", "--size", "4")
    assert code == 0 and len(out.strip().splitlines()) == 4
    code, data = run_json(capsys, "--format", "json", "enum", "--size", "4")
    assert data["count"] == 4 and len(data["trees"]) == 4


def test_enum_budget_error(capsys):
    code, _, err = run(capsys, "enum", "--size", "15")
    assert code == 2 and "budget" in err.lower() or "cap" in err


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


def test_scs_max_size_budget_exit(capsys):
    code, _, err = run(capsys, "scs", "a(b(c))", "x(y,z)", "--max-size", "2")
    assert code == 2 and "size" in err


def test_scs_max_size_applies_when_one_input_contains_the_other(capsys):
    for extra in ((), ("--all",)):
        code, out, err = run(capsys, "scs", "a(b)", "c(d,e)", "--max-size", "1", *extra)
        assert code == 2 and out == ""
        assert "no common supertree of size <= 1" in err


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
    # a limit the search never reached means every embedding was found
    code, data = run_json(capsys, "embeddings", "a(b)", "x(y,z)", "--limit", "5")
    assert data["count"] == 2 and data["exhaustive"] is True


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


def test_verify_text_table(capsys):
    code, out, _ = run(capsys, "--format", "text", "verify", "fig1",
                       "--p", "p", "--r", "q", "--s", "s1(s2)", "--jobs", "1")
    assert code == 0
    assert "|T1|" in out and "gap" in out and "prediction" in out


def test_transfer_cli(capsys):
    code, data = run_json(capsys, "transfer", "fig4", "--a", "A", "--b", "B",
                          "--jobs", "1")
    assert code == 0 and data["stable"] is True


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
