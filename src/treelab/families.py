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
behaviour, on node positions: its witnesses come from the builder that
`largest_common_minor` uses (`solvers._witness_embedding`).  Two further
parameterized families (``fig4``, ``fig5``) embed an arbitrary subproblem
pair (A, B) into the construction; ``fig5`` is a best-effort
reconstruction and all its checks are report-grade.
"""

from __future__ import annotations

import functools
import time
import warnings
from collections.abc import Iterable
from itertools import product

from ._parallel import parallel_map
from .errors import BudgetError, EmbeddingError, SolverDisagreement, TreeError
from .trees import (ENUM_CAP_DEFAULT, Digraph, Tree, _FrozenRecord, _Record, _literal,
                    _level_sequences, _literal_from_levels, _tree_from_levels,
                    are_isomorphic, chain, enumerate_trees, format_tree,
                    is_rooted_tree, parse_tree, star, tree_from_arcs)
from .embeddings import (EmbeddingViolation, MinorEmbedding, check_embedding,
                         enumerate_embeddings, is_minor)
from .solvers import (_lcs_core, _merge_core, _merge_refutation, _witness_embedding,
                      largest_common_minor, smallest_common_supertree)
from .quotient import (QuotientGraph, Prop21Report, _glue, _identities,
                       _prop21_core, _reduce_core, _successors,
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

    def __init__(self, p: Tree, r: Tree, s: Tree, parts: dict[str, Tree], t1: Tree,
                 t2: Tree, claimed_mu: Tree, g1: MinorEmbedding, g2: MinorEmbedding,
                 p_isomorphic_s: bool):
        self.p = p
        self.r = r
        self.s = s
        self.parts = parts
        self.t1 = t1
        self.t2 = t2
        self.claimed_mu = claimed_mu
        self.g1 = g1
        self.g2 = g2
        self.p_isomorphic_s = p_isomorphic_s


def _fresh_name(base: str, used: set[str]) -> str:
    cand = base
    while cand in used:
        cand += "_"
    used.add(cand)
    return cand


def _rename_avoiding(tree: Tree, used: set[str], slot: str) -> Tree:
    """Copy a part, renaming nodes that collide with reserved/used names."""
    return tree.relabel({v: _fresh_name(v if v not in used else f"{slot}_{v}", used)
                         for v in tree.preorder})


def _part_tags(parts: dict[str, Tree]) -> dict[str, str]:
    return {v: slot for slot, part in parts.items() for v in part.nodes}


def _assemble(spine_root: str, spine_mid: str, under_mid: Iterable[Tree],
              under_root: Iterable[Tree], parts: dict[str, Tree]) -> Tree:
    """Tree with `spine_mid` under `spine_root`, given parts under each."""
    nodes = {spine_root, spine_mid}
    arcs = [(spine_root, spine_mid)]
    labels: dict[str, str] = {}
    tags = {spine_root: "spine", spine_mid: "spine"}
    for hang, kids in ((spine_mid, under_mid), (spine_root, under_root)):
        for part in kids:
            nodes |= part.nodes
            arcs.append((hang, part.root))
            arcs.extend(part.arcs)
            labels.update(part.labels)
    tags.update(_part_tags(parts))
    return Tree(nodes, arcs, spine_root, labels, tags)


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

    t1 = _assemble("a", "y", (pp, rr), (ss,), parts)
    t2 = _assemble("a", "z", (rr, ss), (pp,), parts)

    mu_nodes = {"a"} | pp.nodes | rr.nodes | ss.nodes
    mu_arcs = ([("a", pp.root), ("a", rr.root), ("a", ss.root)]
               + list(pp.arcs) + list(rr.arcs) + list(ss.arcs))
    mu_labels = {**pp.labels, **rr.labels, **ss.labels}
    mu_tags = dict(_part_tags(parts), a="spine")
    claimed_mu = Tree(mu_nodes, mu_arcs, "a", mu_labels, mu_tags)

    g1 = MinorEmbedding(claimed_mu, t1, {v: v for v in claimed_mu.nodes})
    g2 = MinorEmbedding(claimed_mu, t2, {v: v for v in claimed_mu.nodes})
    for g in (g1, g2):
        bad = check_embedding(g.mapping, g.source, g.target)
        if bad:
            raise AssertionError(f"family construction broke its own witness: {bad[0]}")

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

    def __init__(self, case: str, tree: Tree, f1: MinorEmbedding, f2: MinorEmbedding):
        self.case = case
        self.tree = tree
        self.f1 = f1
        self.f2 = f2

    def to_json(self) -> dict:
        return {"case": self.case, "size": self.tree.size,
                "tree_literal": format_tree(self.tree)}


def _fresh_copy(tree: Tree, used: set[str]) -> tuple[Tree, dict[str, str]]:
    mapping = {v: _fresh_name(f"{v}_2", used) for v in tree.preorder}
    return tree.relabel(mapping), mapping


def _join(root: str, arcs: list, groups: tuple[Tree, ...]) -> Tree:
    return tree_from_arcs(root, arcs + [a for part in groups for a in part.arcs],
                          {v: s for part in groups for v, s in part.labels.items()})


def fig2_candidates(inst: Fig1Instance,
                    enum_cap: int = ENUM_CAP_DEFAULT) -> list[SupertreeCandidate]:
    """The candidate minimum supertrees of a family instance.

    Cases ``a`` duplicate the P (resp. S) part in its entirety, case ``b``
    duplicates R, and case ``c`` places two copies of a smallest common
    supertree of P and S.  Every candidate comes with explicitly composed
    embeddings of t1 and t2 and is checked before being returned, so each
    one is a proven upper bound for the exact minimum.
    """
    pp, rr, ss = inst.parts["P"], inst.parts["R"], inst.parts["S"]
    ident = {v: v for part in (pp, rr, ss) for v in part.nodes}
    out = []

    def emit(case: str, tree: Tree, m1: dict[str, str], m2: dict[str, str]) -> None:
        f1 = MinorEmbedding(inst.t1, tree, m1)
        f2 = MinorEmbedding(inst.t2, tree, m2)
        for f in (f1, f2):
            bad = check_embedding(f.mapping, f.source, f.target)
            if bad:
                raise AssertionError(f"candidate case {case} is not a supertree: {bad[0]}")
        out.append(SupertreeCandidate(case, tree, f1, f2))

    # case a, duplicating P:  a( z( y(P, R), S ), P' )
    used = set(ident) | set(SPINE_NAMES)
    p2, rn = _fresh_copy(pp, used)
    tree = _join("a", [("a", "z"), ("z", "y"), ("y", pp.root), ("y", rr.root),
                       ("z", ss.root), ("a", p2.root)], (pp, rr, ss, p2))
    emit("a", tree,
         dict(ident, a="a", y="y"),
         dict({v: rn[v] for v in pp.nodes},
              **{v: v for v in rr.nodes | ss.nodes}, a="a", z="z"))

    # case a, duplicating S:  a( y( P, z(R, S) ), S' )
    used = set(ident) | set(SPINE_NAMES)
    s2, rn = _fresh_copy(ss, used)
    tree = _join("a", [("a", "y"), ("y", pp.root), ("y", "z"), ("z", rr.root),
                       ("z", ss.root), ("a", s2.root)], (pp, rr, ss, s2))
    emit("a", tree,
         dict({v: rn[v] for v in ss.nodes},
              **{v: v for v in pp.nodes | rr.nodes}, a="a", y="y"),
         dict(ident, a="a", z="z"))

    # case b, duplicating R:  a( y(P, R), z(R', S) )
    used = set(ident) | set(SPINE_NAMES)
    r2, rn = _fresh_copy(rr, used)
    tree = _join("a", [("a", "y"), ("y", pp.root), ("y", rr.root), ("a", "z"),
                       ("z", r2.root), ("z", ss.root)], (pp, rr, ss, r2))
    emit("b", tree,
         dict(ident, a="a", y="y"),
         dict({v: rn[v] for v in rr.nodes},
              **{v: v for v in pp.nodes | ss.nodes}, a="a", z="z"))

    # case c, two copies of a smallest common supertree of P and S:
    #   a( u( Q, R ), Q' )
    ps = smallest_common_supertree(pp, ss, enum_cap=enum_cap)
    q, e_p, e_s = ps.witnesses[0].tree, ps.witnesses[0].emb1, ps.witnesses[0].emb2
    used = {"a"} | set(rr.nodes) | set(q.nodes)
    u = _fresh_name("u", used)
    q1, rn1 = _fresh_copy(q, used)
    q2, rn2 = _fresh_copy(q, used)
    tree = _join("a", [("a", u), (u, q1.root), (u, rr.root), ("a", q2.root)],
                 (q1, rr, q2))
    emit("c", tree,
         dict({v: rn1[e_p[v]] for v in pp.nodes},
              **{v: rn2[e_s[v]] for v in ss.nodes},
              **{v: v for v in rr.nodes}, a="a", y=u),
         dict({v: rn2[e_p[v]] for v in pp.nodes},
              **{v: rn1[e_s[v]] for v in ss.nodes},
              **{v: v for v in rr.nodes}, a="a", z=u))
    return out


# -- triple-merge impossibility ------------------------------------------------

class TripleMergeWitness(_FrozenRecord):
    """Simultaneous P-, R- and S-region merges under one embedding pair."""

    __slots__ = ("merges",)

    def __init__(self, merges: dict[str, tuple[str, str, str]]):
        # slot -> (t1 node, t2 node, image)
        object.__setattr__(self, "merges", merges)

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
        if f.source != source or f.target != t_sigma:
            raise EmbeddingError([EmbeddingViolation(
                None, "embedding does not relate the instance to the supertree")])
        bad = check_embedding(f.mapping, f.source, f.target)
        if bad:
            raise EmbeddingError(bad)

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

    def __init__(self, family: str, params: dict, sizes: dict, lcs_size: int,
                 claimed_mu_optimal: bool, eq4_prediction: int, scs_size: int | None,
                 scs_exact: bool, scs_lower_bound: int | None, scs_levels: list,
                 scs_witness_literals: list[str], gap: int | None,
                 candidates: list[SupertreeCandidate], prop21: Prop21Report,
                 reduced_is_tree: bool, quotient: QuotientGraph, theorem5: dict,
                 warnings: list[str] | None = None, timing: dict | None = None):
        self.family = family
        self.params = params
        self.sizes = sizes
        self.lcs_size = lcs_size
        self.claimed_mu_optimal = claimed_mu_optimal
        self.eq4_prediction = eq4_prediction
        self.scs_size = scs_size
        self.scs_exact = scs_exact
        self.scs_lower_bound = scs_lower_bound
        self.scs_levels = scs_levels
        self.scs_witness_literals = scs_witness_literals
        self.gap = gap
        self.candidates = candidates
        self.prop21 = prop21
        self.reduced_is_tree = reduced_is_tree
        self.quotient = quotient
        self.theorem5 = theorem5
        self.warnings = [] if warnings is None else warnings
        self.timing = {} if timing is None else timing

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
                          max_size: int | None = None,
                          enum_cap: int = ENUM_CAP_DEFAULT) -> VerificationReport:
    """Run the full pipeline on one family instance.

    Computes the exact largest common minor and smallest common supertree,
    the size prediction and its gap, the quotient with its path-uniqueness
    report and reduction, the candidate supertrees (which must upper-bound
    the exact optimum), and the triple-merge check over the found minimum
    supertrees.  With `theorem5_exhaustive` every minimum supertree and
    every embedding pair is swept instead of just the solver witnesses.
    """
    timing: dict[str, float] = {}
    notes: list[str] = []
    started = time.perf_counter()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inst = fig1_family(p, r, s)
    notes.extend(str(w.message) for w in caught)

    lcs = largest_common_minor(inst.t1, inst.t2)
    timing["lcs_ms"] = round((time.perf_counter() - started) * 1e3, 3)
    if lcs.optimum_size < inst.claimed_mu.size:
        raise SolverDisagreement(
            "solver found a smaller optimum than the constructed common minor")
    prediction = eq4_prediction(inst.t1, inst.t2, lcs.optimum_size)

    t0 = time.perf_counter()
    scs = None
    scs_lower = None
    try:
        scs = smallest_common_supertree(inst.t1, inst.t2,
                                        all_witnesses=theorem5_exhaustive,
                                        max_size=max_size, enum_cap=enum_cap)
    except BudgetError as err:
        scs_lower = err.lower_bound
        notes.append(f"supertree search stopped early: {err}")
    timing["scs_ms"] = round((time.perf_counter() - t0) * 1e3, 3)

    t0 = time.perf_counter()
    try:
        candidates = fig2_candidates(inst, enum_cap=enum_cap)
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

def fig4_family(a: Tree, b: Tree, r: Tree | None = None) -> tuple[Tree, Tree, dict]:
    """Family whose minimum supertree encodes the (A, B) supertree problem.

    P is an n-chain with A hanging off its end, S an n-chain with B hanging
    off its end (n = |A| >= |B| = m), and R defaults to a 2n-node chain (any
    2n-node tree may be passed instead).  Returns (t1, t2, metadata); the
    metadata carries the part literals so the instance can be rebuilt.
    """
    n, m = a.size, b.size
    if a.root is None or b.root is None:
        raise TreeError("subproblem parts must be non-empty")
    if m > n:
        raise TreeError(f"|A| = {n} must be at least |B| = {m}")

    def chain_with(tail: Tree, prefix: str, tag: str) -> Tree:
        spine = chain(n, prefix)
        used = set(spine.nodes)
        copy = _rename_avoiding(tail, used, tag)
        return Tree(spine.nodes | copy.nodes,
                    list(spine.arcs) + [(f"{prefix}{n}", copy.root)] + list(copy.arcs),
                    spine.root, copy.labels)

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
    n, m = a.size, b.size
    if a.root is None or b.root is None:
        raise TreeError("subproblem parts must be non-empty")
    if m > n:
        raise TreeError(f"|A| = {n} must be at least |B| = {m}")

    used = set(SPINE_NAMES)
    pp = _rename_avoiding(chain(n + 1, "p"), used, "P")
    ss = _rename_avoiding(star(n, "s"), used, "S")
    aa = _rename_avoiding(a, used, "A")
    bb = _rename_avoiding(b, used, "B")

    parts1 = {"P": pp, "R": aa, "S": ss}
    parts2 = {"P": pp, "R": bb, "S": ss}
    t1 = _assemble("a", "y", (pp, aa), (ss,), parts1)
    t2 = _assemble("a", "z", (bb, ss), (pp,), parts2)

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


def check_fig5_claims(a: Tree, b: Tree) -> dict:
    """Evaluate the reconstruction's quoted size facts; never asserts.

    Checks, for the generated instance: the P/S supertree size and merged
    pair count, whether the exact minimum supertree equals the
    ``|t1| + m`` adding-B prediction, and the largest-common-minor size
    (whose dependence on the (A, B) subproblem the transfer check probes).
    """
    t1, t2, meta = fig5_family(a, b)
    n, m = meta["n"], meta["m"]
    pp, ss = parse_tree(meta["p_literal"]), parse_tree(meta["s_literal"])

    ps = smallest_common_supertree(pp, ss)
    merged_pairs = pp.size + ss.size - ps.optimum_size

    out = {"family": "fig5", "n": n, "m": m,
           "reconstruction": meta["reconstruction"],
           "ps_supertree_size": ps.optimum_size,
           "ps_supertree_claim": 2 * n - 1,
           "ps_supertree_matches": ps.optimum_size == 2 * n - 1,
           "ps_merged_pairs": merged_pairs,
           "ps_merged_pairs_matches": merged_pairs == 2}

    try:
        scs = smallest_common_supertree(t1, t2)
        out["scs_size"] = scs.optimum_size
        out["scs_exact"] = True
        out["adding_b_claim"] = t1.size + m
        out["adding_b_matches"] = scs.optimum_size == t1.size + m
    except BudgetError as err:
        out["scs_size"] = None
        out["scs_exact"] = False
        out["scs_lower_bound"] = err.lower_bound

    lcs = largest_common_minor(t1, t2, budget=max(t1.size, t2.size))
    out["lcs_size"] = lcs.optimum_size
    return out


def subproblem_transfer_check(family: str, a: Tree, b: Tree) -> dict:
    """Probe the family constant linking the big instance to its subproblem.

    Sweeps every (A, B) pair with |A| = |a| and |B| = |b|; for ``fig4`` the
    probed optimum is the minimum supertree (subproblem: supertree of A and
    B), for ``fig5`` the largest common minor (subproblem: common minor of
    A and B).  Each pair contributes delta = big - sub; the sweep reports
    whether the delta is stable across pairs and what the constant is at the
    smallest parameter size (n = m = 1) for reference.  When the exact big
    optimum is out of enumeration reach, the verified candidate upper bound
    is used and flagged.
    """
    if family not in ("fig4", "fig5"):
        raise TreeError(f"unknown family {family!r}")
    n, m = a.size, b.size
    if m > n:
        raise TreeError(f"|A| = {n} must be at least |B| = {m}")

    def one(aa: Tree, bb: Tree) -> dict:
        rec = {"a": format_tree(aa), "b": format_tree(bb)}
        if family == "fig4":
            t1, t2, meta = fig4_family(aa, bb)
            sub = smallest_common_supertree(aa, bb).optimum_size
            try:
                big = smallest_common_supertree(t1, t2).optimum_size
                rec["mode"] = "exact"
            except BudgetError:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegenerateFamilyWarning)
                    inst = fig1_family(parse_tree(meta["p_literal"]),
                                       parse_tree(meta["r_literal"]),
                                       parse_tree(meta["s_literal"]))
                big = min(c.tree.size for c in fig2_candidates(inst))
                rec["mode"] = "candidate_upper_bound"
        else:
            t1, t2, _ = fig5_family(aa, bb)
            sub = largest_common_minor(aa, bb).optimum_size
            big = largest_common_minor(t1, t2, budget=max(t1.size, t2.size)).optimum_size
            rec["mode"] = "exact"
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
            "smallest_size_constant": smallest["delta"],
            "all_exact": all(r["mode"] == "exact" for r in records)}


# -- the exhaustive small-pair scan ----------------------------------------------

class ScanReport(_Record):
    __slots__ = ("max_size", "checks", "pairs_scanned", "gap_histogram",
                 "minimal_violating_pair", "prop21_summary", "wall_ms")

    def __init__(self, max_size: int, checks: tuple[str, ...], pairs_scanned: int,
                 gap_histogram: dict[int, int], minimal_violating_pair: dict | None,
                 prop21_summary: dict, wall_ms: float = 0.0):
        self.max_size = max_size
        self.checks = checks
        self.pairs_scanned = pairs_scanned
        self.gap_histogram = gap_histogram
        self.minimal_violating_pair = minimal_violating_pair
        self.prop21_summary = prop21_summary
        self.wall_ms = wall_ms

    @property
    def violation_found(self) -> bool:
        if "eq4" in self.checks and self.minimal_violating_pair is not None:
            return True
        if "prop21" in self.checks and self.prop21_summary.get("violating_pairs"):
            return True
        return False

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
    """One pair's record: the common-minor optimum, the supertree optimum by
    merging (`solvers._merge_core`), the gap and, with prop21, the witness
    quotients.  The supertree optimum is the first success of: absorption
    (t1 is a minor of t2, so t2 is the supertree); the first embedding of
    each hit subset (`solvers._witness_embedding`), which the quotients
    reuse; then `_merge_refutation`."""
    seq1, seq2, with_prop21 = args
    t1, t2 = _scan_tree(seq1), _scan_tree(seq2)  # |t1| <= |t2| by scan order
    lcs_size, _, hits = _lcs_core(t1, t2, True)
    scs_size = t2.size if is_minor(t1, t2) else None
    witnesses = []
    for w in hits:
        if scs_size is not None and not with_prop21:
            break
        order, parent, images = _witness_embedding(t1, t2, w)
        witnesses.append((order, parent, images))
        if scs_size is None:
            merged = _merge_core(t1, t2, dict(zip(order, images)))
            if merged is not None:
                scs_size = len(merged)
    if scs_size is None:
        scs_size = _merge_refutation(t1, t2, lcs_size, hits)
    gap = scs_size - eq4_prediction(t1, t2, lcs_size)
    if gap < 0:
        raise SolverDisagreement(
            f"negative gap for {format_tree(t1)} / {format_tree(t2)}: supertree "
            f"optimum {scs_size} below the prediction")
    rec = {"lcs": lcs_size, "scs": scs_size, "gap": gap}
    if with_prop21:
        rec["quotients"] = [_witness_quotient(t1, t2, *found) for found in witnesses]
    return rec


def _witness_quotient(t1: Tree, t2: Tree, order: list[str], parent: list[int],
                      images: list[str]) -> dict:
    """The prop21 record of a witness from `solvers._witness_embedding`, its
    quotient glued on class ids."""
    g1, g2 = {v: v for v in order}, dict(zip(order, images))
    class_of1, class_of2, n, arcs, merged = _glue(t1, t2, order, g1, g2)
    identity_findings = _identities(range(n), class_of1, class_of2, order, g1, g2, merged)
    if n != t1.size + t2.size - len(order):
        identity_findings.append("class count differs from |t1|+|t2|-|mu|")
    succ = _successors(n, arcs)
    kinds = sorted({found[0] for found in _prop21_core(succ, merged)})
    reduced = Digraph(frozenset(range(n)), frozenset(_reduce_core(succ)))
    depths: list[int] = []
    for p in parent:
        depths.append(depths[p] + 1 if p >= 0 else 0)
    return {"mu": _literal(order, depths, t1.labels),
            "holds": not kinds,
            "violation_kinds": kinds,
            "reduced_is_tree": is_rooted_tree(reduced),
            "identity_findings": identity_findings}


def scan_pairs(max_size: int, checks: Iterable[str] = ("eq4",),
               cap: int = SCAN_CAP_DEFAULT, jobs: int = 1) -> ScanReport:
    """Exhaustively scan all unordered pairs of trees up to `max_size`.

    For every pair the exact common-minor and common-supertree optima are
    computed; the gap distribution is recorded and the first pair (in
    size-then-code order) with a positive gap is reported.  That order is
    read off the level sequences, whose decreasing order is code order
    (`trees._level_sequences`), so ordering the pairs interns no shape and
    builds no code.  Workers receive level sequences and ask the solver
    cores for sizes only.  The supertree optimum comes from merging
    common-minor matchings (`solvers._merge_core`), not from growing
    supertrees: by its lemma it is |t1| + |t2| minus the largest matching
    that merges, and each merge is built and re-validated (`_scan_one_pair`).
    With the ``prop21`` check enabled, every optimal common-minor witness
    additionally has its quotient glued and checked on integer class ids, by
    the cores of `treelab.quotient`: path-uniqueness violations, the
    structural identities, and whether reduction yields a tree.  The
    witnesses are those `largest_common_minor` reports
    (`solvers._witness_embedding`), but none is built as a named `Tree`: each
    is glued straight from its node subset of the smaller tree
    (`_witness_quotient`).
    """
    checks = tuple(checks)
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
    order = sorted(((i, j) for i in range(len(seqs)) for j in range(i, len(seqs))),
                   key=lambda ij: (len(seqs[ij[0]]) + len(seqs[ij[1]]),
                                   rank[seqs[ij[0]]], rank[seqs[ij[1]]]))
    with_prop21 = "prop21" in checks
    work = [(seqs[i], seqs[j], with_prop21) for i, j in order]
    records = parallel_map(_scan_one_pair, work, jobs)
    literals = [_literal_from_levels(seq) for seq in seqs]
    for (i, j), rec in zip(order, records):
        rec["t1"], rec["t2"] = literals[i], literals[j]

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
