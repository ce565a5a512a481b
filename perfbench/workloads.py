"""The four benchmark workloads: their treelab command lines, seeded inputs
and expected-output checks.

Every workload is an exhaustive proof run through the ``treelab`` CLI.  A
run passes only if its exit code is the expected one, stderr shows no
traceback, and its report (with every ``timing`` key removed, at any depth)
matches the known-correct output stored in ``expected.json``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from pathlib import Path

NAMES = ("headline", "scan6", "catalogue14", "headline_all_pool")
# Workloads whose inputs depend on the seed; scan6 and catalogue14 are
# exhaustive over all small trees and ignore it.
SEEDED = ("headline", "headline_all_pool")

# The headline family parts P, R, S as (name, children) trees.
HEADLINE_PARTS = {
    "p": ("p1", [("p2", [("p3", [])])]),
    "r": ("r", []),
    "s": ("s1", [("s2", []), ("s3", [])]),
}
# Seeded node names are a letter and a number; the letters leave out the
# names the family construction and the tree catalogue use (a, u, v, y, z).
_NAME_LETTERS = "bcdefghjkmnpqrstwx"


@functools.cache
def expected() -> dict:
    """Known-correct outputs per workload (exit code, digests, name-free fields)."""
    return json.loads(Path(__file__).with_name("expected.json").read_text())


def _literal(node) -> str:
    name, kids = node
    return name + ("(" + ",".join(_literal(k) for k in kids) + ")" if kids else "")


def _count(node) -> int:
    return 1 + sum(_count(k) for k in node[1])


def _isomorphic_copy(node, rng: random.Random, names: list[str]):
    """Rename every node (from `names`, consumed in order) and shuffle children."""
    kids = [_isomorphic_copy(k, rng, names) for k in node[1]]
    rng.shuffle(kids)
    return (names.pop(), kids)


def seeded_parts(seed: int) -> dict[str, tuple]:
    """P, R, S for a seed: the paper's literals for seed 0, otherwise a
    seeded isomorphic copy (node renaming plus child-order shuffle)."""
    if seed == 0:
        return dict(HEADLINE_PARTS)
    rng = random.Random(seed)
    total = sum(_count(part) for part in HEADLINE_PARTS.values())
    names = rng.sample([f"{c}{i}" for c in _NAME_LETTERS for i in range(100)], total)
    return {slot: _isomorphic_copy(part, rng, names)
            for slot, part in HEADLINE_PARTS.items()}


def headline_pair(seed: int) -> tuple[str, str]:
    """The fig1 pair t1 = a(y(P, R), S), t2 = a(P, z(R, S)) as literals, with
    the spine's children shuffled too for a non-zero seed."""
    parts = seeded_parts(seed)
    p, r, s = parts["p"], parts["r"], parts["s"]
    t1 = ("a", [("y", [p, r]), s])
    t2 = ("a", [p, ("z", [r, s])])
    if seed != 0:
        rng = random.Random(f"spine-{seed}")
        for spine in (t1, t1[1][0], t2, t2[1][1]):
            rng.shuffle(spine[1])
    return _literal(t1), _literal(t2)


def treelab_args(name: str, seed: int, jobs: int) -> list[str]:
    """The argument list after ``python -m treelab`` for a workload."""
    if name == "headline":
        parts = seeded_parts(seed)
        return ["verify", "fig1", "--p", _literal(parts["p"]), "--r",
                _literal(parts["r"]), "--s", _literal(parts["s"]), "--jobs", "1"]
    if name == "scan6":
        return ["scan", "--max-size", "6", "--check", "eq4,prop21", "--jobs", "1"]
    if name == "catalogue14":
        return ["enum", "--size", "14"]
    if name == "headline_all_pool":
        t1, t2 = headline_pair(seed)
        return ["scs", t1, t2, "--all", "--jobs", str(jobs)]
    raise ValueError(f"unknown workload {name!r}")


def strip_timing(value):
    """`value` with every ``timing`` key removed from every dict, at any depth."""
    if isinstance(value, dict):
        return {k: strip_timing(v) for k, v in value.items() if k != "timing"}
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value


def digest(value) -> str:
    """SHA-256 of a JSON value serialized compactly, in the program's key order."""
    text = json.dumps(value, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode()).hexdigest()


def _name_free(name: str, report: dict) -> dict:
    """The fields of a report that do not depend on the input's node names."""
    if name == "headline":
        keys = ("lcs_size", "eq4_prediction", "scs_size", "gap",
                "scs_levels_scanned", "scs_witnesses")
        return {k: report.get(k) for k in keys}
    return {"optimum_size": report.get("optimum_size"),
            "levels_scanned": report.get("levels_scanned"),
            "witnesses": [w.get("tree_literal") for w in report.get("witnesses", [])]}


def check_output(name: str, seed: int, exit_code: int, stdout: bytes,
                 stderr: bytes) -> str | None:
    """None when a run's outputs are the known-correct ones, else why not."""
    want = expected()[name]
    if exit_code != want["exit_code"]:
        return f"exit code {exit_code}, expected {want['exit_code']}"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    if name == "catalogue14":
        lines = stdout.count(b"\n")
        if lines != want["lines"]:
            return f"{lines} output lines, expected {want['lines']}"
        if hashlib.sha256(stdout).hexdigest() != want["sha256"]:
            return "output digest differs"
        return None
    try:
        report = strip_timing(json.loads(stdout))
    except ValueError as err:
        return f"report is not JSON: {err}"
    if "name_free" in want and _name_free(name, report) != want["name_free"]:
        return "optima, levels or witnesses differ"
    if (seed == 0 or name not in SEEDED) and digest(report) != want["sha256"]:
        return "report digest (timing removed) differs"
    return None
