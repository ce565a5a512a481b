"""Command-line front end.

Exit codes: 0 when the operation succeeds and any checked property holds,
1 when a checked property is violated (a size gap, a failed path-uniqueness
check, a non-minor), 2 on usage, parse, input-file or budget errors, 3 on an
internal error (a solver disagreement or any other uncaught exception,
reported as one ``internal error:`` line on stderr), so a crash is never
read as a violated property.  Report verbs
default to JSON; wall-clock fields live under a separate "timing" key so the
rest of the output is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BudgetError, TreeError
from .trees import (ENUM_CAP_DEFAULT, Tree, _literal_from_levels, _sized_sequences,
                    are_isomorphic, canonical_code, format_tree, is_rooted_tree,
                    parse_tree, to_dot)
from .embeddings import MinorEmbedding, enumerate_embeddings, find_embedding
from .solvers import (NODE_BUDGET_DEFAULT, largest_common_minor,
                      smallest_common_supertree)
from .quotient import (build_quotient, check_prop21, eq4_prediction,
                       quotient_to_dot, reduce_quotient)
from .families import (SCAN_CAP_DEFAULT, check_fig5_claims, fig1_family,
                       fig4_family, fig5_family, scan_pairs,
                       subproblem_transfer_check, verify_counterexample)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as err:
        raise TreeError(f"{path} is not text: {err}") from None


def _load_literal(arg: str) -> Tree:
    """Parse an inline tree literal, or the contents of a file via @path."""
    if arg.startswith("@"):
        arg = _read(arg[1:]).strip()
    return parse_tree(arg)


def _load_mapping(path: str) -> dict[str, str]:
    """Read an embedding file: a JSON object mapping node names to node names."""
    try:
        data = json.loads(_read(path))
    except json.JSONDecodeError as err:
        raise TreeError(f"mapping file {path} is not JSON: {err}") from None
    if not (isinstance(data, dict) and all(isinstance(v, str) for v in data.values())):
        raise TreeError(f"mapping file {path} must hold a JSON object of string -> string")
    return data


def _emit(args, data: dict, text: str | None = None) -> None:
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=False))
    else:
        print(text if text is not None else json.dumps(data, indent=2))


def _dot_out(args, name: str, content: str) -> None:
    if args.dot_dir:
        os.makedirs(args.dot_dir, exist_ok=True)
        with open(os.path.join(args.dot_dir, f"{name}.dot"), "w", encoding="utf-8") as f:
            f.write(content)


def _solver_dots(args, prefix: str, result) -> None:
    for i, w in enumerate(result.witnesses):
        _dot_out(args, f"{prefix}_witness{i}", to_dot(w.tree))


def cmd_parse(args) -> int:
    t = _load_literal(args.tree)
    _emit(args, {"tree_literal": format_tree(t), "size": t.size,
                 "nodes": sorted(t.nodes),
                 "arcs": sorted([a, b] for a, b in t.arcs)},
          format_tree(t))
    _dot_out(args, "tree", to_dot(t))
    return 0


def cmd_canon(args) -> int:
    t = _load_literal(args.tree)
    _emit(args, {"canonical_code": canonical_code(t)}, canonical_code(t))
    return 0


def cmd_iso(args) -> int:
    same = are_isomorphic(_load_literal(args.t1), _load_literal(args.t2))
    _emit(args, {"isomorphic": same}, "isomorphic" if same else "not isomorphic")
    return 0 if same else 1


def cmd_enum(args) -> int:
    literals = list(map(_literal_from_levels, _sized_sequences(
        args.size, args.budget_nodes or ENUM_CAP_DEFAULT)))
    _emit(args, {"size": args.size, "count": len(literals), "trees": literals},
          "\n".join(literals))
    return 0


def cmd_minor(args) -> int:
    s, t = _load_literal(args.s), _load_literal(args.t)
    witness = find_embedding(s, t)
    if witness is None:
        _emit(args, {"is_minor": False}, "not a minor")
        return 1
    _emit(args, {"is_minor": True, "embedding": witness.to_json()},
          "minor via " + json.dumps(witness.to_json()))
    return 0


def cmd_embeddings(args) -> int:
    s, t = _load_literal(args.s), _load_literal(args.t)
    found = enumerate_embeddings(s, t, limit=args.limit)
    exhaustive = args.limit is None or len(found) < args.limit
    _emit(args, {"count": len(found), "exhaustive": exhaustive,
                 "embeddings": [f.to_json() for f in found]},
          "\n".join(json.dumps(f.to_json()) for f in found))
    return 0


def cmd_lcs(args) -> int:
    t1, t2 = _load_literal(args.t1), _load_literal(args.t2)
    result = largest_common_minor(t1, t2, all_witnesses=args.all,
                                  budget=args.budget_nodes or NODE_BUDGET_DEFAULT)
    data = result.to_json()
    data["unit_edit_distance"] = t1.size + t2.size - 2 * result.optimum_size
    _emit(args, data,
          f"optimum {result.optimum_size}, {len(result.witnesses)} witness(es): "
          + "; ".join(format_tree(w.tree) for w in result.witnesses))
    _solver_dots(args, "lcs", result)
    return 0


def cmd_scs(args) -> int:
    t1, t2 = _load_literal(args.t1), _load_literal(args.t2)
    result = smallest_common_supertree(
        t1, t2, all_witnesses=args.all, max_size=args.max_size,
        enum_cap=args.budget_nodes or ENUM_CAP_DEFAULT)
    _emit(args, result.to_json(),
          f"optimum {result.optimum_size}, {len(result.witnesses)} witness(es): "
          + "; ".join(format_tree(w.tree) for w in result.witnesses))
    _solver_dots(args, "scs", result)
    return 0


def _quotient_from_args(args):
    t1, t2 = _load_literal(args.t1), _load_literal(args.t2)
    if (args.g1 or args.g2) and not (args.mu and args.g1 and args.g2):
        raise TreeError("--g1 and --g2 go together, with --mu")
    if args.mu:
        mu = _load_literal(args.mu)
        if args.g1 and args.g2:
            g1 = MinorEmbedding(mu, t1, _load_mapping(args.g1))
            g2 = MinorEmbedding(mu, t2, _load_mapping(args.g2))
        else:
            f1, f2 = find_embedding(mu, t1), find_embedding(mu, t2)
            if f1 is None or f2 is None:
                raise TreeError("the given tree is not a common minor of the inputs")
            g1, g2 = f1, f2
    else:
        lcs = largest_common_minor(t1, t2,
                                   budget=args.budget_nodes or NODE_BUDGET_DEFAULT)
        if not lcs.witnesses:
            raise TreeError("the inputs have no common minor: they share no node label")
        witness = lcs.witnesses[0]
        mu, g1, g2 = witness.tree, witness.emb1, witness.emb2
    return t1, t2, build_quotient(t1, t2, mu, g1, g2)


def cmd_quotient(args) -> int:
    t1, t2, q = _quotient_from_args(args)
    reduced = reduce_quotient(q)
    report = check_prop21(q)
    data = q.to_json()
    data["prop21"] = report.to_json()
    data["reduced_is_tree"] = is_rooted_tree(reduced)
    data["eq4_prediction"] = eq4_prediction(t1, t2, q.t_mu.size)
    _emit(args, data,
          f"{len(q.classes)} classes, {len(q.arcs)} arcs; prop21 holds: "
          f"{report.holds}; reduced is tree: {data['reduced_is_tree']}")
    _dot_out(args, "quotient", quotient_to_dot(q, reduced))
    _dot_out(args, "reduced", to_dot(reduced))
    return 0


def cmd_prop21(args) -> int:
    _, _, q = _quotient_from_args(args)
    report = check_prop21(q)
    _emit(args, report.to_json(),
          "holds" if report.holds else
          "\n".join(f"({v.kind}) {v.v.label} -> {v.w.label}: {v.reason}"
                    for v in report.violations))
    _dot_out(args, "quotient", quotient_to_dot(q, reduce_quotient(q)))
    return 0 if report.holds else 1


def cmd_family(args) -> int:
    if args.which == "fig1":
        inst = fig1_family(_load_literal(args.p), _load_literal(args.r),
                           _load_literal(args.s))
        data = {"family": "fig1",
                "t1": format_tree(inst.t1), "t2": format_tree(inst.t2),
                "claimed_mu": format_tree(inst.claimed_mu),
                "g1": inst.g1.to_json(), "g2": inst.g2.to_json(),
                "p_isomorphic_s": inst.p_isomorphic_s}
        _dot_out(args, "t1", to_dot(inst.t1))
        _dot_out(args, "t2", to_dot(inst.t2))
        _dot_out(args, "mu", to_dot(inst.claimed_mu))
    else:
        builder = fig4_family if args.which == "fig4" else fig5_family
        extra = (_load_literal(args.r),) if (args.which == "fig4" and args.r) else ()
        t1, t2, meta = builder(_load_literal(args.a), _load_literal(args.b), *extra)
        data = {"t1": format_tree(t1), "t2": format_tree(t2), **meta}
        if args.which == "fig5" and args.check_claims:
            data["claims_checked"] = check_fig5_claims(
                _load_literal(args.a), _load_literal(args.b))
        _dot_out(args, "t1", to_dot(t1))
        _dot_out(args, "t2", to_dot(t2))
    _emit(args, data, "\n".join(f"{k}: {v}" for k, v in data.items()))
    return 0


def cmd_verify(args) -> int:
    report = verify_counterexample(
        _load_literal(args.p), _load_literal(args.r), _load_literal(args.s),
        theorem5_exhaustive=args.theorem5_exhaustive, max_size=args.max_size,
        enum_cap=args.budget_nodes or ENUM_CAP_DEFAULT)
    _emit(args, report.to_json(), report.to_text())
    if args.dot_dir:
        q = report.quotient
        reduced = reduce_quotient(q)
        for name, graph in (("t1", q.t1), ("t2", q.t2), ("mu", q.t_mu), ("reduced", reduced)):
            _dot_out(args, name, to_dot(graph))
        _dot_out(args, "quotient", quotient_to_dot(q, reduced))
        for i, literal in enumerate(report.scs_witness_literals):
            _dot_out(args, f"scs_witness{i}", to_dot(parse_tree(literal)))
    return 1 if (report.gap or 0) > 0 else 0


def cmd_transfer(args) -> int:
    report = subproblem_transfer_check(args.which, _load_literal(args.a),
                                       _load_literal(args.b))
    _emit(args, report,
          f"constant {report['constant']} stable={report['stable']} "
          f"over {len(report['pairs'])} pair(s)")
    return 0


def cmd_scan(args) -> int:
    checks = tuple(s.strip() for s in args.check.split(",") if s.strip())
    report = scan_pairs(args.max_size, checks=checks,
                        cap=max(SCAN_CAP_DEFAULT, args.max_size if args.force else 0),
                        jobs=args.jobs)
    hist = ", ".join(f"gap {k}: {v}" for k, v in sorted(report.gap_histogram.items()))
    _emit(args, report.to_json(), f"{report.pairs_scanned} pairs; {hist}")
    return 1 if report.violation_found else 0


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # The shared flags are accepted both before and after the verb; SUPPRESS
    # keeps the subparser from clobbering values parsed at the top level.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--jobs", type=_at_least_one, default=argparse.SUPPRESS,
                        help="worker processes for scan, at least 1 (default: the "
                             "CPU count; other verbs ignore it)")
    common.add_argument("--format", choices=("json", "text"),
                        default=argparse.SUPPRESS)
    common.add_argument("--dot-dir", default=argparse.SUPPRESS,
                        help="write DOT renderings here")
    common.add_argument("--budget-nodes", type=_at_least_one, default=argparse.SUPPRESS,
                        help="override the search/enumeration cap of enum, lcs, scs, "
                             "verify, quotient and prop21 (at least 1; other verbs "
                             "ignore it)")

    parser = argparse.ArgumentParser(
        prog="treelab", parents=[common],
        description="Exact laboratory for rooted unordered trees: minors, "
                    "common subtrees and supertrees, quotient graphs, and "
                    "counterexample families.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, text_default=False, **kw):
        p = sub.add_parser(name, parents=[common], **kw)
        p.set_defaults(fn=fn, text_default=text_default)
        return p

    p = add("parse", cmd_parse, text_default=True, help="validate and echo a tree literal")
    p.add_argument("tree")
    p = add("canon", cmd_canon, text_default=True, help="canonical code of a tree")
    p.add_argument("tree")
    p = add("iso", cmd_iso, text_default=True, help="isomorphism of two trees")
    p.add_argument("t1")
    p.add_argument("t2")
    p = add("enum", cmd_enum, text_default=True, help="enumerate all trees of a size")
    p.add_argument("--size", type=int, required=True)
    p = add("minor", cmd_minor, help="is S a minor of T (witness embedding)")
    p.add_argument("s")
    p.add_argument("t")
    p = add("embeddings", cmd_embeddings, help="enumerate minor embeddings of S into T")
    p.add_argument("s")
    p.add_argument("t")
    p.add_argument("--limit", type=_at_least_one, default=None,
                   help="stop after this many embeddings (at least 1)")
    p = add("lcs", cmd_lcs, help="largest common minor")
    p.add_argument("t1")
    p.add_argument("t2")
    p.add_argument("--all", action="store_true", help="all optimal witnesses")
    p = add("scs", cmd_scs, help="smallest common supertree")
    p.add_argument("t1")
    p.add_argument("t2")
    p.add_argument("--all", action="store_true")
    p.add_argument("--max-size", type=int, default=None)
    for name, fn in (("quotient", cmd_quotient), ("prop21", cmd_prop21)):
        p = add(name, fn, help=f"{name} of two trees glued along a common minor")
        p.add_argument("t1")
        p.add_argument("t2")
        p.add_argument("--mu", default=None, help="common minor (default: computed)")
        p.add_argument("--g1", default=None, help="JSON embedding file mu -> t1")
        p.add_argument("--g2", default=None, help="JSON embedding file mu -> t2")
    p = add("family", cmd_family, help="generate a counterexample family instance")
    fam = p.add_subparsers(dest="which", required=True)
    f1 = fam.add_parser("fig1", parents=[common])
    f1.add_argument("--p", required=True)
    f1.add_argument("--r", required=True)
    f1.add_argument("--s", required=True)
    f1.set_defaults(fn=cmd_family, text_default=False)
    for which in ("fig4", "fig5"):
        fx = fam.add_parser(which, parents=[common])
        fx.add_argument("--a", required=True)
        fx.add_argument("--b", required=True)
        if which == "fig4":
            fx.add_argument("--r", default=None, help="override the 2n-node R part")
        else:
            fx.add_argument("--check-claims", action="store_true",
                            help="evaluate the reconstruction's size claims")
        fx.set_defaults(fn=cmd_family, text_default=False)
    p = add("verify", cmd_verify, help="full verification pipeline on a family instance")
    ver = p.add_subparsers(dest="which", required=True)
    v1 = ver.add_parser("fig1", parents=[common])
    v1.add_argument("--p", required=True)
    v1.add_argument("--r", required=True)
    v1.add_argument("--s", required=True)
    v1.add_argument("--max-size", type=int, default=None)
    v1.add_argument("--theorem5-exhaustive", action="store_true")
    v1.set_defaults(fn=cmd_verify, text_default=False)
    p = add("transfer", cmd_transfer, help="subproblem-transfer constant check")
    tr = p.add_subparsers(dest="which", required=True)
    for which in ("fig4", "fig5"):
        tx = tr.add_parser(which, parents=[common])
        tx.add_argument("--a", required=True)
        tx.add_argument("--b", required=True)
        tx.set_defaults(fn=cmd_transfer, text_default=False)
    p = add("scan", cmd_scan, help="exhaustive scan of all small tree pairs")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--check", default="eq4", help="comma list: eq4,prop21")
    p.add_argument("--force", action="store_true",
                   help="allow sizes above the default scan cap")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    args.jobs = getattr(args, "jobs", None) or os.cpu_count() or 1
    args.dot_dir = getattr(args, "dot_dir", None)
    args.budget_nodes = getattr(args, "budget_nodes", None)
    if getattr(args, "format", None) is None:
        args.format = "text" if getattr(args, "text_default", False) else "json"
    try:
        return args.fn(args)
    except BudgetError as err:
        print(f"budget error: {err}", file=sys.stderr)
        return 2
    except TreeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # SolverDisagreement, or a bug: never exit 1
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
