"""Counterexample families and verification harnesses.

The central family (``fig1``) takes three non-empty part trees P, R, S and
builds two trees that differ only in which pair of parts shares an extra
branching node:

    t1 = a( y(P, R), S )        t2 = a( P, z(R, S) )

The tree a(P, R, S) is a common minor of both; when P and S are not
isomorphic it is a largest one, yet the smallest common supertree needs
more than one node beyond |t1| + |t2| - |a(P,R,S)|.  This module generates
the family, enumerates the candidate minimum supertrees, verifies the size
gap exactly, checks the triple-merge impossibility over supertree
embeddings, and scans all small tree pairs for gap and path-uniqueness
behaviour, on shapes and node positions (`scan_pairs`).  Each scan tree is
built once per process and keeps in its `_tables`, across every pair it
takes part in, what depends on it alone: its induced shapes of each size,
the minors it induces on its hit subsets, with their literals, its quotient
ids and, as the bigger tree of a pair, the first embedding into it of each
witness shape.  Two further parameterized families (``fig4``,
``fig5``) embed an arbitrary subproblem pair (A, B) into the construction;
``fig5`` is a best-effort reconstruction and all its checks are report-grade.
"""

from __future__ import annotations

import functools
import time
import warnings
from collections.abc import Iterable
from itertools import product

from ._parallel import parallel_map
from .errors import BudgetError, SolverDisagreement, TreeError
from .trees import (ENUM_CAP_DEFAULT, Tree, _FrozenRecord, _Record, _fresh_name,
                    _level_sequences, _literal_from_levels, _rooted_parents,
                    _tree_from_levels, are_isomorphic, chain, enumerate_trees,
                    format_tree, is_rooted_tree, parse_tree, star)
from .embeddings import (MinorEmbedding, _require_built, _require_valid, _violations,
                         check_embedding, enumerate_embeddings, is_minor)
from .solvers import (_InducedMinor, _lcs_core, _scs_optimum, _witness_embedding,
                      largest_common_minor, smallest_common_supertree)
from .quotient import (_glue, _identities, _prop21_core, _reduce_core, _successors,
                       build_quotient, check_eq2_eq3, check_prop21, eq4_prediction,
                       reduce_quotient)

#: Default size ceiling for the exhaustive pair scan.
SCAN_CAP_DEFAULT = 7

SPINE_NAMES = ("a", "y", "z")
SLOTS = ("P", "R", "S")


class DegenerateFamilyWarning(UserWarning):
    """The P part is isomorphic to the S part, so the strict-gap claim lapses."""


class Fig1Instance(_Record):
    """One instantiation of the three-part branching family.

    `parts` holds the renamed copies of P, R, S whose node names are shared
    by t1, t2 and the claimed common minor, so both claimed embeddings are
    identity maps.  Every node carries a region tag (P/R/S or spine).
    """

    __slots__ = ("p", "r", "s", "parts", "t1", "t2", "claimed_mu", "g1", "g2",
                 "p_isomorphic_s")


def _rename_avoiding(tree: Tree, used: set[str], slot: str) -> Tree:
    """Copy a part, renaming nodes that collide with reserved/used names."""
    return tree.relabel({v: _fresh_name(v if v not in used else f"{slot}_{v}", used)
                         for v in tree.preorder})


def _part_tags(parts: dict[str, Tree]) -> dict[str, str]:
    return {v: slot for slot, part in parts.items() for v in part.nodes}


def _join(root: str, arcs: list[tuple[str, str]], parts: tuple[Tree, ...],
          tags: dict[str, str] | None = None) -> Tree:
    """The one assembler of the family trees: `root` with `arcs`, which hang
    each of `parts` by its root, and every arc of the parts, with their labels
    and the region `tags`.  Its nodes are the root and every arc head."""
    arcs = arcs + [a for part in parts for a in part.arcs]
    return Tree({root, *(b for _, b in arcs)}, arcs, root,
                {v: s for part in parts for v, s in part.labels.items()}, tags)


def fig1_family(p: Tree, r: Tree, s: Tree) -> Fig1Instance:
    """Build the three-part branching family instance for parts P, R, S.

    Warns (`DegenerateFamilyWarning`) when P is isomorphic to S, because the
    claimed common minor is then not strictly smaller than the inputs.
    """
    for name, part in (("P", p), ("R", r), ("S", s)):
        if part.root is None:
            raise TreeError(f"part {name} must be non-empty")

    used = set(SPINE_NAMES)
    parts = {"P": _rename_avoiding(p, used, "P"),
             "R": _rename_avoiding(r, used, "R"),
             "S": _rename_avoiding(s, used, "S")}
    pp, rr, ss = parts["P"], parts["R"], parts["S"]

    tags = dict(_part_tags(parts), a="spine")
    t1 = _join("a", [("a", "y"), ("y", pp.root), ("y", rr.root), ("a", ss.root)],
               (pp, rr, ss), dict(tags, y="spine"))
    t2 = _join("a", [("a", "z"), ("z", rr.root), ("z", ss.root), ("a", pp.root)],
               (pp, rr, ss), dict(tags, z="spine"))
    claimed_mu = _join("a", [("a", pp.root), ("a", rr.root), ("a", ss.root)], (pp, rr, ss), tags)

    g1 = MinorEmbedding(claimed_mu, t1, {v: v for v in claimed_mu.nodes})
    g2 = MinorEmbedding(claimed_mu, t2, {v: v for v in claimed_mu.nodes})
    for g in (g1, g2):
        _require_built(check_embedding(g.mapping, g.source, g.target),
                       "family construction broke its own witness")

    degenerate = are_isomorphic(p, s)
    if degenerate:
        warnings.warn("P is isomorphic to S: the common minor a(P,R,S) is "
                      "not strictly smaller than the inputs",
                      DegenerateFamilyWarning, stacklevel=2)
    return Fig1Instance(p, r, s, parts, t1, t2, claimed_mu, g1, g2, degenerate)


# -- candidate minimum supertrees ---------------------------------------------

class SupertreeCandidate(_Record):
    """A verified common supertree of one family instance."""

    __slots__ = ("case", "tree", "f1", "f2")

    def to_json(self) -> dict:
        return {"case": self.case, "size": self.tree.size,
                "tree_literal": format_tree(self.tree)}


def _fresh_copy(tree: Tree, used: set[str]) -> tuple[Tree, dict[str, str]]:
    mapping = {v: _fresh_name(f"{v}_2", used) for v in tree.preorder}
    return tree.relabel(mapping), mapping


def fig2_candidates(inst: Fig1Instance, cap: int = ENUM_CAP_DEFAULT) -> list[SupertreeCandidate]:
    """The candidate minimum supertrees of a family instance.

    Cases ``a`` duplicate the P (resp. S) part in its entirety, case ``b``
    duplicates R, and case ``c`` places two copies of a smallest common
    supertree of P and S.  Each candidate's embedding of t_i sends every
    node to itself unless it was moved: onto the duplicated part's copy, or
    for case ``c`` through the supertree of P and S into one of its copies,
    with y and z onto the node u.  So the maps are built in linear time, with
    no search, and each is checked before the candidate is returned: every
    candidate is a proven upper bound for the exact minimum.
    """
    pp, rr, ss = inst.parts["P"], inst.parts["R"], inst.parts["S"]
    out = []

    def emit(case: str, tree: Tree, moved1: dict[str, str], moved2: dict[str, str]) -> None:
        f1, f2 = (MinorEmbedding(t, tree, {v: moved.get(v, v) for v in t.preorder})
                  for t, moved in ((inst.t1, moved1), (inst.t2, moved2)))
        for f in (f1, f2):
            _require_built(check_embedding(f.mapping, f.source, f.target),
                           f"candidate case {case} is not a supertree")
        out.append(SupertreeCandidate(case, tree, f1, f2))

    def copy(part: Tree) -> tuple[Tree, dict[str, str]]:
        return _fresh_copy(part, set(inst.t1.nodes | inst.t2.nodes))

    # case a, duplicating P:  a( z( y(P, R), S ), P' )
    p2, rn = copy(pp)
    emit("a", _join("a", [("a", "z"), ("z", "y"), ("y", pp.root), ("y", rr.root),
                          ("z", ss.root), ("a", p2.root)], (pp, rr, ss, p2)), {}, rn)

    # case a, duplicating S:  a( y( P, z(R, S) ), S' )
    s2, rn = copy(ss)
    emit("a", _join("a", [("a", "y"), ("y", pp.root), ("y", "z"), ("z", rr.root),
                          ("z", ss.root), ("a", s2.root)], (pp, rr, ss, s2)), rn, {})

    # case b, duplicating R:  a( y(P, R), z(R', S) )
    r2, rn = copy(rr)
    emit("b", _join("a", [("a", "y"), ("y", pp.root), ("y", rr.root), ("a", "z"),
                          ("z", r2.root), ("z", ss.root)], (pp, rr, ss, r2)), {}, rn)

    # case c, two copies of a smallest common supertree of P and S:
    #   a( u( Q, R ), Q' )
    ps = smallest_common_supertree(pp, ss, cap=cap)
    q, e_p, e_s = ps.witnesses[0].tree, ps.witnesses[0].emb1, ps.witnesses[0].emb2
    used = {"a"} | set(rr.nodes) | set(q.nodes)
    u = _fresh_name("u", used)
    q1, rn1 = _fresh_copy(q, used)
    q2, rn2 = _fresh_copy(q, used)
    emit("c", _join("a", [("a", u), (u, q1.root), (u, rr.root), ("a", q2.root)], (q1, rr, q2)),
         {"y": u, **{v: rn1[e_p[v]] for v in pp.nodes}, **{v: rn2[e_s[v]] for v in ss.nodes}},
         {"z": u, **{v: rn2[e_p[v]] for v in pp.nodes}, **{v: rn1[e_s[v]] for v in ss.nodes}})
    return out


# -- triple-merge impossibility ------------------------------------------------

class TripleMergeWitness(_FrozenRecord):
    """Simultaneous P-, R- and S-region merges under one embedding pair;
    `merges` maps slot -> (t1 node, t2 node, image)."""

    __slots__ = ("merges",)

    def __hash__(self) -> int:  # the field is a dict, so hash its items
        return hash(tuple(sorted(self.merges.items())))

    def to_json(self) -> dict:
        return {slot: {"t1_node": u, "t2_node": v, "image": w}
                for slot, (u, v, w) in sorted(self.merges.items())}


def region_images(tree: Tree, f: MinorEmbedding) -> dict[str, frozenset[str]]:
    """Image of each region tag under an embedding of a tagged tree."""
    out: dict[str, set[str]] = {}
    for v, slot in tree.region_tags.items():
        out.setdefault(slot, set()).add(f[v])
    return {slot: frozenset(vs) for slot, vs in out.items()}


def check_theorem5(inst: Fig1Instance, t_sigma: Tree, f1: MinorEmbedding,
                   f2: MinorEmbedding) -> TripleMergeWitness | None:
    """Detect a simultaneous merge of all three part regions.

    A slot merges when some node of t1's copy and some node of t2's copy
    share an image in the supertree.  Merging all of P, R and S at once is
    impossible for valid embeddings; `None` means no triple merge.
    """
    for f, source in ((f1, inst.t1), (f2, inst.t2)):
        _require_valid(f, source, t_sigma)

    img1 = region_images(inst.t1, f1)
    img2 = region_images(inst.t2, f2)
    merges = {}
    for slot in SLOTS:
        shared = img1.get(slot, frozenset()) & img2.get(slot, frozenset())
        if not shared:
            return None
        w = min(shared)
        u = min(v for v in inst.t1.nodes if inst.t1.region_tags.get(v) == slot and f1[v] == w)
        v2 = min(v for v in inst.t2.nodes if inst.t2.region_tags.get(v) == slot and f2[v] == w)
        merges[slot] = (u, v2, w)
    return TripleMergeWitness(merges)


# -- the verification harness ---------------------------------------------------

class VerificationReport(_Record):
    """Everything the harness established about one family instance."""

    __slots__ = ("family", "params", "sizes", "lcs_size", "claimed_mu_optimal",
                 "eq4_prediction", "scs_size", "scs_exact", "scs_lower_bound",
                 "scs_levels", "scs_witness_literals", "gap", "candidates", "prop21",
                 "reduced_is_tree", "quotient", "theorem5", "warnings", "timing")
    _defaults = {"warnings": list, "timing": dict}

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "family": self.family,
            "params": self.params,
            "sizes": self.sizes,
            "lcs_size": self.lcs_size,
            "claimed_mu_optimal": self.claimed_mu_optimal,
            "eq4_prediction": self.eq4_prediction,
            "scs_size": self.scs_size,
            "scs_exact": self.scs_exact,
            "scs_lower_bound": self.scs_lower_bound,
            "scs_levels_scanned": [lv.to_json() for lv in self.scs_levels],
            "scs_witnesses": self.scs_witness_literals,
            "gap": self.gap,
            "candidates": [c.to_json() for c in self.candidates],
            "prop21": self.prop21.to_json(),
            "reduced_is_tree": self.reduced_is_tree,
            "theorem5": self.theorem5,
            "warnings": self.warnings,
            "timing": self.timing,
        }

    def to_text(self) -> str:
        rows = [("|T1|", self.sizes["t1"]), ("|T2|", self.sizes["t2"]),
                ("|Tmu|", self.lcs_size), ("prediction", self.eq4_prediction),
                ("|Tsigma|", self.scs_size if self.scs_exact else f">={self.scs_lower_bound}"),
                ("gap", self.gap if self.gap is not None else "unknown")]
        width = max(len(k) for k, _ in rows)
        lines = [f"{k:<{width}}  {v}" for k, v in rows]
        lines.append(f"prop21 holds: {self.prop21.holds}")
        lines.append(f"reduced quotient is a tree: {self.reduced_is_tree}")
        lines.append(f"triple merge found: {self.theorem5['merge_found']}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines)


def verify_counterexample(p: Tree, r: Tree, s: Tree, *,
                          theorem5_exhaustive: bool = False,
                          cap: int = ENUM_CAP_DEFAULT) -> VerificationReport:
    """Run the full pipeline on one family instance.

    Computes the exact largest common minor and smallest common supertree,
    the size prediction and its gap, the quotient with its path-uniqueness
    report and reduction, the candidate supertrees (which must upper-bound
    the exact optimum), and the triple-merge check over the found minimum
    supertrees.  With `theorem5_exhaustive` every minimum supertree and
    every embedding pair is swept instead of just the solver witnesses.
    Both solvers take `cap`: an input past it raises `BudgetError`, and a
    supertree optimum past it leaves only its lower bound in the report.
    """
    timing: dict[str, float] = {}
    notes: list[str] = []
    started = time.perf_counter()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inst = fig1_family(p, r, s)
    notes.extend(str(w.message) for w in caught)

    lcs = largest_common_minor(inst.t1, inst.t2, cap=cap)
    timing["lcs_ms"] = round((time.perf_counter() - started) * 1e3, 3)
    if lcs.optimum_size < inst.claimed_mu.size:
        raise SolverDisagreement(
            "solver found a smaller optimum than the constructed common minor")
    prediction = eq4_prediction(inst.t1, inst.t2, lcs.optimum_size)

    t0 = time.perf_counter()
    scs = None
    scs_lower = None
    try:
        scs = smallest_common_supertree(inst.t1, inst.t2, all_witnesses=theorem5_exhaustive,
                                        cap=cap)
    except BudgetError as err:
        scs_lower = err.lower_bound
        notes.append(f"supertree search stopped early: {err}")
    timing["scs_ms"] = round((time.perf_counter() - t0) * 1e3, 3)

    t0 = time.perf_counter()
    try:
        candidates = fig2_candidates(inst, cap=cap)
    except BudgetError as err:
        candidates = []
        notes.append(f"candidate construction skipped: {err}")
    timing["candidates_ms"] = round((time.perf_counter() - t0) * 1e3, 3)

    gap = None
    scs_size = None
    if scs is not None:
        scs_size = scs.optimum_size
        gap = scs_size - prediction
        if gap < 0:
            raise SolverDisagreement(
                f"supertree optimum {scs_size} below the size prediction {prediction}")
        if candidates and scs_size > min(c.tree.size for c in candidates):
            raise SolverDisagreement(
                "a verified candidate is smaller than the claimed exact optimum")

    t0 = time.perf_counter()
    q = build_quotient(inst.t1, inst.t2, inst.claimed_mu, inst.g1, inst.g2)
    bad = check_eq2_eq3(q)
    if bad:
        raise SolverDisagreement(f"quotient identities failed: {bad}")
    prop21 = check_prop21(q)
    reduced_ok = is_rooted_tree(reduce_quotient(q))
    timing["quotient_ms"] = round((time.perf_counter() - t0) * 1e3, 3)

    t0 = time.perf_counter()
    witnesses = scs.witnesses if scs is not None else []
    merge_found = False
    pairs_checked = 0
    for witness in witnesses:
        if theorem5_exhaustive:
            pairs = product(enumerate_embeddings(inst.t1, witness.tree),
                            enumerate_embeddings(inst.t2, witness.tree))
        else:
            pairs = [(witness.emb1, witness.emb2)]
        for f1, f2 in pairs:
            pairs_checked += 1
            merge_found |= check_theorem5(inst, witness.tree, f1, f2) is not None
    timing["theorem5_ms"] = round((time.perf_counter() - t0) * 1e3, 3)
    timing["total_ms"] = round((time.perf_counter() - started) * 1e3, 3)

    return VerificationReport(
        family="fig1",
        params={"p": format_tree(p), "r": format_tree(r), "s": format_tree(s)},
        sizes={"t1": inst.t1.size, "t2": inst.t2.size, "claimed_mu": inst.claimed_mu.size},
        lcs_size=lcs.optimum_size,
        claimed_mu_optimal=lcs.optimum_size == inst.claimed_mu.size,
        eq4_prediction=prediction,
        scs_size=scs_size,
        scs_exact=scs is not None,
        scs_lower_bound=scs_lower,
        scs_levels=list(scs.levels) if scs is not None else [],
        scs_witness_literals=[format_tree(w.tree) for w in witnesses],
        gap=gap,
        candidates=candidates,
        prop21=prop21,
        reduced_is_tree=reduced_ok,
        quotient=q,
        theorem5={"mode": "exhaustive" if theorem5_exhaustive else "witness",
                  "supertrees_checked": len(witnesses),
                  "embedding_pairs_checked": pairs_checked,
                  "merge_found": merge_found},
        warnings=notes,
        timing=timing,
    )


# -- subproblem-transfer families -----------------------------------------------

def _subproblem(a: Tree, b: Tree) -> tuple[int, int]:
    """The sizes n = |A| >= m = |B| of a subproblem pair of non-empty parts."""
    if a.root is None or b.root is None:
        raise TreeError("subproblem parts must be non-empty")
    if b.size > a.size:
        raise TreeError(f"|A| = {a.size} must be at least |B| = {b.size}")
    return a.size, b.size


def fig4_family(a: Tree, b: Tree, r: Tree | None = None) -> tuple[Tree, Tree, dict]:
    """Family whose minimum supertree encodes the (A, B) supertree problem.

    P is an n-chain with A hanging off its end, S an n-chain with B hanging
    off its end (n = |A| >= |B| = m), and R defaults to a 2n-node chain (any
    2n-node tree may be passed instead).  Returns (t1, t2, metadata); the
    metadata carries the part literals so the instance can be rebuilt.
    """
    n, m = _subproblem(a, b)

    def chain_with(tail: Tree, prefix: str, tag: str) -> Tree:
        spine = chain(n, prefix)
        copy = _rename_avoiding(tail, set(spine.nodes), tag)
        return _join(spine.root, [(f"{prefix}{n}", copy.root)], (spine, copy))

    p = chain_with(a, "p", "A")
    s = chain_with(b, "s", "B")
    rr = r if r is not None else chain(2 * n, "r")
    if r is not None and r.size != 2 * n:
        raise TreeError(f"R override must have 2n = {2 * n} nodes, got {r.size}")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateFamilyWarning)
        inst = fig1_family(p, rr, s)
    meta = {"family": "fig4", "n": n, "m": m,
            "reconstruction": "prose-derived",
            "p_literal": format_tree(p), "r_literal": format_tree(rr),
            "s_literal": format_tree(s),
            "a_literal": format_tree(a), "b_literal": format_tree(b),
            "sizes": {"p": p.size, "r": rr.size, "s": s.size,
                      "t1": inst.t1.size, "t2": inst.t2.size}}
    return inst.t1, inst.t2, meta


def fig5_family(a: Tree, b: Tree) -> tuple[Tree, Tree, dict]:
    """Family whose largest common minor encodes the (A, B) minor problem.

    Best-effort reconstruction, flagged as such in the metadata: P is an
    (n+1)-chain and S an n-star, chosen so that their smallest common
    supertree has 2n - 1 nodes with exactly two merged pairs; A sits in
    t1's middle slot where B sits in t2's.  All downstream checks on this
    family report match/mismatch instead of asserting.
    """
    n, m = _subproblem(a, b)
    used = set(SPINE_NAMES)
    pp = _rename_avoiding(chain(n + 1, "p"), used, "P")
    ss = _rename_avoiding(star(n, "s"), used, "S")
    aa = _rename_avoiding(a, used, "A")
    bb = _rename_avoiding(b, used, "B")

    t1 = _join("a", [("a", "y"), ("y", pp.root), ("y", aa.root), ("a", ss.root)], (pp, aa, ss),
               dict(_part_tags({"P": pp, "R": aa, "S": ss}), a="spine", y="spine"))
    t2 = _join("a", [("a", "z"), ("z", bb.root), ("z", ss.root), ("a", pp.root)], (pp, bb, ss),
               dict(_part_tags({"P": pp, "R": bb, "S": ss}), a="spine", z="spine"))

    meta = {"family": "fig5", "n": n, "m": m,
            "reconstruction": "RECONSTRUCTED-UNVERIFIED",
            "p_literal": format_tree(pp), "s_literal": format_tree(ss),
            "a_literal": format_tree(a), "b_literal": format_tree(b),
            "sizes": {"p": pp.size, "s": ss.size,
                      "t1": t1.size, "t2": t2.size},
            "claims": {"ps_supertree_size": 2 * n - 1,
                       "ps_merged_pairs": 2,
                       "scs_by_adding_b": t1.size + m}}
    return t1, t2, meta


def check_fig5_claims(a: Tree, b: Tree, cap: int = ENUM_CAP_DEFAULT) -> dict:
    """Evaluate the reconstruction's quoted size facts; never asserts.

    Checks, for the generated instance: the P/S supertree size and merged
    pair count, whether the exact minimum supertree equals the
    ``|t1| + m`` adding-B prediction, and the largest-common-minor size
    (whose dependence on the (A, B) subproblem the transfer check probes), each under `cap`.
    """
    t1, t2, meta = fig5_family(a, b)
    n, m = meta["n"], meta["m"]
    pp, ss = parse_tree(meta["p_literal"]), parse_tree(meta["s_literal"])

    ps = smallest_common_supertree(pp, ss, cap=cap)
    merged_pairs = pp.size + ss.size - ps.optimum_size

    out = {"family": "fig5", "n": n, "m": m,
           "reconstruction": meta["reconstruction"],
           "ps_supertree_size": ps.optimum_size,
           "ps_supertree_claim": 2 * n - 1,
           "ps_supertree_matches": ps.optimum_size == 2 * n - 1,
           "ps_merged_pairs": merged_pairs,
           "ps_merged_pairs_matches": merged_pairs == 2}

    try:
        scs = smallest_common_supertree(t1, t2, cap=cap)
        out["scs_size"] = scs.optimum_size
        out["scs_exact"] = True
        out["adding_b_claim"] = t1.size + m
        out["adding_b_matches"] = scs.optimum_size == t1.size + m
    except BudgetError as err:
        out["scs_size"] = None
        out["scs_exact"] = False
        out["scs_lower_bound"] = err.lower_bound

    lcs = largest_common_minor(t1, t2, cap=cap)
    out["lcs_size"] = lcs.optimum_size
    return out


def subproblem_transfer_check(family: str, a: Tree, b: Tree, cap: int = ENUM_CAP_DEFAULT) -> dict:
    """Probe the family constant linking the big instance to its subproblem.

    Sweeps every (A, B) pair with |A| = |a| and |B| = |b|; for ``fig4`` the
    probed optimum is the minimum supertree (subproblem: supertree of A and
    B), for ``fig5`` the largest common minor (subproblem: common minor of
    A and B).  Each pair contributes delta = big - sub; the sweep reports
    whether the delta is stable across pairs and what the constant is at the
    smallest parameter size (n = m = 1) for reference.  The fig4 supertree
    optima come from the forest recursion (`solvers._scs_optimum`), exact
    under its budget, the fig5 common minors under the node cap `cap`.
    """
    if family not in ("fig4", "fig5"):
        raise TreeError(f"unknown family {family!r}")
    n, m = _subproblem(a, b)

    def one(aa: Tree, bb: Tree) -> dict:
        rec = {"a": format_tree(aa), "b": format_tree(bb)}
        if family == "fig4":
            t1, t2, _ = fig4_family(aa, bb)
            sub = _scs_optimum(aa, bb)
            big = _scs_optimum(t1, t2)
        else:
            t1, t2, _ = fig5_family(aa, bb)
            sub = largest_common_minor(aa, bb, cap=cap).optimum_size
            big = largest_common_minor(t1, t2, cap=cap).optimum_size
        rec["big_optimum"] = big
        rec["sub_optimum"] = sub
        rec["delta"] = big - sub
        # the supertree family plants two copies of the subproblem optimum,
        # so the doubled reading is the structurally stable one there
        rec["delta_double"] = big - 2 * sub
        return rec

    records = [one(aa, bb) for aa in enumerate_trees(n) for bb in enumerate_trees(m)]
    deltas = sorted({r["delta"] for r in records})
    doubles = sorted({r["delta_double"] for r in records})
    smallest = one(chain(1), chain(1, "m")) if (n, m) != (1, 1) else records[0]

    return {"family": family, "n": n, "m": m,
            "pairs": records,
            "stable": len(deltas) == 1,
            "constant": deltas[0] if len(deltas) == 1 else None,
            "deltas": deltas,
            "stable_double": len(doubles) == 1,
            "constant_double": doubles[0] if len(doubles) == 1 else None,
            "smallest_size_constant": smallest["delta"]}


# -- the exhaustive small-pair scan ----------------------------------------------

class ScanReport(_Record):
    __slots__ = ("max_size", "checks", "pairs_scanned", "gap_histogram",
                 "minimal_violating_pair", "prop21_summary", "wall_ms")
    _defaults = {"wall_ms": float}

    @property
    def violation_found(self) -> bool:
        return (("eq4" in self.checks and self.minimal_violating_pair is not None)
                or ("prop21" in self.checks and bool(self.prop21_summary.get("violating_pairs"))))

    def to_json(self) -> dict:
        return {"schema_version": 1,
                "max_size": self.max_size,
                "checks": list(self.checks),
                "pairs_scanned": self.pairs_scanned,
                "gap_histogram": {str(k): v for k, v in sorted(self.gap_histogram.items())},
                "minimal_violating_pair": self.minimal_violating_pair,
                "prop21": self.prop21_summary,
                "timing": {"wall_ms": round(self.wall_ms, 3)}}


#: The scan's trees, built once per process from their level sequences.
_scan_tree = functools.lru_cache(maxsize=None)(_tree_from_levels)


def _scan_one_pair(args: tuple[tuple[int, ...], tuple[int, ...], bool]) -> dict:
    """One pair's record: the common-minor optimum, the supertree optimum, the
    gap and, with prop21, the witness quotients (only prop21 searches the
    witness embeddings, `solvers._witness_embedding`).  The supertree optimum
    is t2 when t1 is a minor of it (absorption).  Else it is the merge lemma's
    lower bound |t1| + |t2| - lcs when a witness quotient reduces to a tree of
    that many classes into which both class maps are embeddings (`_certifies`):
    a common supertree, so an upper bound that meets the proven lower bound.
    Else, and always without prop21, it is the forest recursion
    `solvers._scs_optimum`, started at that bound; a tree-shaped quotient
    whose maps fail only sends its pair there."""
    seq1, seq2, with_prop21 = args
    t1, t2 = _scan_tree(seq1), _scan_tree(seq2)  # |t1| <= |t2| by scan order
    lcs_size, _, hits = _lcs_core(t1, t2, with_prop21)
    floor = t1.size + t2.size - lcs_size
    quotients = [_witness_quotient(t1, t2, *_witness_embedding(t1, t2, w))
                 for w in hits] if with_prop21 else []
    if is_minor(t1, t2):
        scs_size = t2.size
    elif any(_certifies(t1, t2, floor, *tree) for _, tree in quotients if tree):
        scs_size = floor
    else:
        scs_size = _scs_optimum(t1, t2, floor)
    gap = scs_size - eq4_prediction(t1, t2, lcs_size)
    if gap < 0:
        raise SolverDisagreement(
            f"negative gap for {format_tree(t1)} / {format_tree(t2)}: supertree "
            f"optimum {scs_size} below the prediction")
    rec = {"lcs": lcs_size, "scs": scs_size, "gap": gap}
    if with_prop21:
        rec["quotients"] = [qrec for qrec, _ in quotients]
    return rec


def _certifies(t1: Tree, t2: Tree, floor: int, up: dict[int, int], root: int,
               class_of1: dict[str, int], class_of2: dict[str, int]) -> bool:
    """Whether the tree of `floor` classes given by `root` and `up` is a common
    supertree of t1 and t2 with the class maps as its embeddings."""
    return len(up) + 1 == floor and not any(
        _violations(class_of, t.preorder, t.arcs, t.labels, root, up, {})
        for t, class_of in ((t1, class_of1), (t2, class_of2)))


def _witness_quotient(t1: Tree, t2: Tree, minor: _InducedMinor,
                      images: list[str]) -> tuple[dict, tuple | None]:
    """The prop21 record of a witness from `solvers._witness_embedding`, its
    quotient glued on class ids, and the parents, root and both class maps of
    the reduced quotient when it is a rooted tree (else None).  With no class
    of two in-neighbours the cores would walk no source and search no arc,
    so they are not called."""
    order = minor.order
    g1, g2 = {v: v for v in order}, dict(zip(order, images))
    class_of1, class_of2, n, ups, merged = _glue(t1, t2, order, g1, g2)
    identity_findings = _identities(range(n), class_of1, class_of2, order, g1, g2, merged)
    if n != t1.size + t2.size - len(order):
        identity_findings.append("class count differs from |t1|+|t2|-|mu|")
    kinds, reduced = [], ups
    if max(map(len, ups)) > 1:
        succ = _successors(ups)
        kinds = sorted({found[0] for found in _prop21_core(succ, ups, merged)})
        reduced = _reduce_core(succ, ups)
    tree = _rooted_parents(reduced)
    return ({"mu": minor.literal, "holds": not kinds, "violation_kinds": kinds,
             "reduced_is_tree": tree is not None, "identity_findings": identity_findings},
            None if tree is None else (*tree, class_of1, class_of2))


def scan_pairs(max_size: int, checks: Iterable[str] = ("eq4",),
               cap: int = SCAN_CAP_DEFAULT, jobs: int = 1) -> ScanReport:
    """Exhaustively scan all unordered pairs of trees up to `max_size`.

    For every pair the exact common-minor and common-supertree optima are
    computed; the gap distribution is recorded and the first pair (in
    size-then-code order, read off the level sequences, so ordering the
    pairs interns no shape and builds no code) with a positive gap is
    reported.  Workers receive level sequences.  Only the ``prop21`` check
    searches embeddings: the quotient of every optimal common-minor witness
    (those `largest_common_minor` reports, none built as a named `Tree`) is
    glued and checked on class ids by the cores of `treelab.quotient`, and a
    tree-shaped one into which both class maps embed proves the supertree
    optimum is the merge lemma's lower bound |t1| + |t2| - lcs.  Elsewhere
    the optimum comes from the forest recursion (`solvers._scs_optimum`),
    stopped at that bound (`_scan_one_pair`).
    """
    checks = tuple(checks)
    if not checks:
        raise TreeError("no scan check given: choose from eq4, prop21")
    unknown = set(checks) - {"eq4", "prop21"}
    if unknown:
        raise TreeError(f"unknown scan checks: {sorted(unknown)}")
    if max_size < 1:
        raise TreeError(f"scan size must be at least 1, got {max_size}")
    if max_size > cap:
        raise BudgetError(f"scan limited to sizes <= {cap} (got {max_size})")
    started = time.perf_counter()

    seqs = [seq for k in range(1, max_size + 1) for seq in _level_sequences(k)]
    rank = {seq: r for r, seq in enumerate(sorted(seqs, reverse=True))}
    with_prop21 = "prop21" in checks
    work = sorted(((seq1, seq2, with_prop21) for i, seq1 in enumerate(seqs) for seq2 in seqs[i:]),
                  key=lambda w: (len(w[0]) + len(w[1]), rank[w[0]], rank[w[1]]))
    records = parallel_map(_scan_one_pair, work, jobs)
    literals = {seq: _literal_from_levels(seq) for seq in seqs}
    for (seq1, seq2, _), rec in zip(work, records):
        rec["t1"], rec["t2"] = literals[seq1], literals[seq2]

    histogram: dict[int, int] = {}
    minimal = None
    prop21_summary: dict = {"quotients_checked": 0, "violating_pairs": [],
                            "identity_findings": [], "implication_findings": []}
    for rec in records:
        histogram[rec["gap"]] = histogram.get(rec["gap"], 0) + 1
        if rec["gap"] > 0 and minimal is None:
            minimal = {"t1": rec["t1"], "t2": rec["t2"], "gap": rec["gap"],
                       "lcs": rec["lcs"], "scs": rec["scs"]}
        for qrec in rec.get("quotients", ()):
            prop21_summary["quotients_checked"] += 1
            if qrec["holds"] and qrec["reduced_is_tree"] and not qrec["identity_findings"]:
                continue
            entry = {"t1": rec["t1"], "t2": rec["t2"], "mu": qrec["mu"]}
            if not qrec["holds"]:
                prop21_summary["violating_pairs"].append(
                    dict(entry, kinds=qrec["violation_kinds"]))
            if qrec["identity_findings"]:
                prop21_summary["identity_findings"].append(
                    dict(entry, findings=qrec["identity_findings"]))
            if qrec["holds"] and not qrec["reduced_is_tree"]:
                prop21_summary["implication_findings"].append(entry)

    return ScanReport(max_size, checks, len(records), histogram, minimal,
                      prop21_summary, (time.perf_counter() - started) * 1e3)
