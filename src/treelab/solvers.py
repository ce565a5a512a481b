"""Exact largest common minor and smallest common supertree solvers.

Both problems are solved by exhaustion, never by heuristics: optimality at
size k is only claimed after the neighbouring level has been fully scanned.
The two directions use independent substrates (node subsets of one input for
common minors, the full catalogue of enumerated trees for common supertrees)
so they can cross-check each other.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

from .errors import BudgetError, MultiRootError, SolverDisagreement, TreeError
from .trees import (ENUM_CAP_DEFAULT, Tree, _shape, canonical_code,
                    enumerate_trees, format_tree)
from .embeddings import (MinorEmbedding, check_embedding, find_embedding,
                         induced_minor, is_minor, is_minor_by_subsets)

#: Default per-input node cap for the brute-force common-minor search.
NODE_BUDGET_DEFAULT = 12


@dataclass
class LevelStats:
    """One fully scanned size level of an exhaustive search."""

    size: int
    candidates: int
    hits: int

    def to_json(self) -> dict:
        return {"size": self.size, "candidates": self.candidates, "hits": self.hits}


@dataclass
class CommonTreeWitness:
    """An optimal tree together with embeddings relating it to both inputs.

    For common minors the embeddings go witness -> input; for common
    supertrees they go input -> witness.
    """

    tree: Tree
    emb1: MinorEmbedding
    emb2: MinorEmbedding

    def to_json(self) -> dict:
        return {"tree_literal": format_tree(self.tree),
                "embedding1": self.emb1.to_json(),
                "embedding2": self.emb2.to_json()}


@dataclass
class SolverResult:
    optimum_size: int
    witnesses: list[CommonTreeWitness]
    levels: list[LevelStats] = field(default_factory=list)
    wall_ms: float = 0.0

    def to_json(self) -> dict:
        return {
            "optimum_size": self.optimum_size,
            "witness_count": len(self.witnesses),
            "witnesses": [w.to_json() for w in self.witnesses],
            "levels_scanned": [lv.to_json() for lv in self.levels],
            "timing": {"wall_ms": round(self.wall_ms, 3)},
        }


class LcsResult(SolverResult):
    """Largest common minor: no common minor of size optimum_size+1 exists."""


class ScsResult(SolverResult):
    """Smallest common supertree: no common supertree of size optimum_size-1 exists."""


def _require_solvable(t1: Tree, t2: Tree) -> None:
    if t1.root is None or t2.root is None:
        raise TreeError("solvers require non-empty trees")


def _identity_embedding(s: Tree, t: Tree) -> MinorEmbedding:
    return MinorEmbedding(s, t, {v: v for v in s.nodes})


def largest_common_minor(t1: Tree, t2: Tree, all_witnesses: bool = False,
                         budget: int = NODE_BUDGET_DEFAULT) -> LcsResult:
    """Maximum-size tree that is a minor of both inputs, with witnesses.

    Strategy: walk k downward from min(|t1|, |t2|); at each k enumerate the
    size-k node subsets of the smaller input, keep those whose induced minor
    exists, deduplicate by interned shape, and test each candidate for minor
    containment in the other input.  The first k with a hit is the optimum;
    its witnesses are one per isomorphism class, each carrying the identity
    embedding on the subset side and the first found embedding on the other.
    """
    started = time.perf_counter()
    _require_solvable(t1, t2)
    if t1.size > budget or t2.size > budget:
        raise BudgetError(
            f"common-minor search limited to inputs of {budget} nodes "
            f"(got {t1.size} and {t2.size})")

    flipped = t2.size < t1.size
    small, other = (t2, t1) if flipped else (t1, t2)
    small_nodes = sorted(small.nodes)
    levels: list[LevelStats] = []

    for k in range(small.size, 0, -1):
        # dedup by shape: each isomorphism class is tested once
        seen: set[int] = set()
        hits: list[Tree] = []
        for w in combinations(small_nodes, k):
            try:
                m = induced_minor(small, w)
            except MultiRootError:
                continue
            if _shape(m) in seen:
                continue
            seen.add(_shape(m))
            if is_minor(m, other):
                hits.append(m)
                if not all_witnesses:
                    break
        levels.append(LevelStats(k, len(seen), len(hits)))
        if hits:
            witnesses = []
            for m in sorted(hits, key=canonical_code):
                into_small = _identity_embedding(m, small)
                into_other = find_embedding(m, other)
                assert into_other is not None
                g1, g2 = (into_other, into_small) if flipped else (into_small, into_other)
                witnesses.append(CommonTreeWitness(m, g1, g2))
            return LcsResult(k, witnesses, levels,
                             (time.perf_counter() - started) * 1e3)
    raise AssertionError("unreachable: the single-node tree is a minor of any tree")


def smallest_common_supertree(t1: Tree, t2: Tree, all_witnesses: bool = False,
                              max_size: int | None = None,
                              enum_cap: int = ENUM_CAP_DEFAULT) -> ScsResult:
    """Minimum-size tree containing both inputs as minors, with witnesses.

    Strategy: walk n upward from max(|t1|, |t2|) and test every enumerated
    tree of size n (in sorted canonical order) for containing both inputs;
    the first level with a hit is the optimum.  The root-merge construction
    guarantees a hit by n = |t1| + |t2| - 1.  Only hits get embeddings.
    """
    started = time.perf_counter()
    _require_solvable(t1, t2)
    if t1.labels or t2.labels:
        raise TreeError("supertree search enumerates unlabeled trees; "
                        "labeled inputs are not supported")

    start = max(t1.size, t2.size)
    natural = t1.size + t2.size - 1
    ceiling = natural if max_size is None else min(max_size, natural)
    levels: list[LevelStats] = []

    if not all_witnesses:
        # Absorption fast path: if one input already contains the other, the
        # bigger input is itself an optimal witness.
        for big, little in ((t1, t2), (t2, t1)):
            if big.size >= little.size and is_minor(little, big):
                f_little = find_embedding(little, big)
                assert f_little is not None
                ident = _identity_embedding(big, big)
                emb1, emb2 = (ident, f_little) if big is t1 else (f_little, ident)
                return ScsResult(big.size, [CommonTreeWitness(big, emb1, emb2)],
                                 [LevelStats(big.size, 1, 1)],
                                 (time.perf_counter() - started) * 1e3)

    for n in range(start, ceiling + 1):
        if n > enum_cap:
            raise BudgetError(
                f"supertree search needs size-{n} enumeration (cap {enum_cap}); "
                f"every size below {n} was exhaustively refuted", lower_bound=n)
        catalogue = enumerate_trees(n, enum_cap)
        hits: list[Tree] = []
        candidates = 0
        for c in catalogue:
            candidates += 1
            if is_minor(t1, c) and is_minor(t2, c):
                hits.append(c)
                if not all_witnesses:
                    break
        levels.append(LevelStats(n, candidates, len(hits)))
        if hits:
            witnesses = []
            for c in hits:
                f1 = find_embedding(t1, c)
                f2 = find_embedding(t2, c)
                assert f1 is not None and f2 is not None
                witnesses.append(CommonTreeWitness(c, f1, f2))
            return ScsResult(n, witnesses, levels,
                             (time.perf_counter() - started) * 1e3)

    assert max_size is not None and ceiling < natural
    raise BudgetError(
        f"no common supertree of size <= {ceiling}; search stopped at the "
        f"requested ceiling", lower_bound=ceiling + 1)


def root_merge_supertree(t1: Tree, t2: Tree) -> Tree:
    """Upper-bound witness of size |t1| + |t2| - 1: t1 with t2's root
    children re-attached under t1's root.

    Both inputs embed into the result (t2 maps its root onto t1's root);
    this pins the supertree search window.  With labels present the two
    roots must agree.
    """
    _require_solvable(t1, t2)
    if t1.labels.get(t1.root) != t2.labels.get(t2.root):
        raise TreeError("cannot merge roots with differing labels")

    used = set(t1.nodes)
    rename: dict[str, str] = {t2.root: t1.root}
    for v in t2.preorder:
        if v == t2.root:
            continue
        cand = v
        while cand in used:
            cand += "_"
        rename[v] = cand
        used.add(cand)

    nodes = set(t1.nodes) | {rename[v] for v in t2.nodes if v != t2.root}
    arcs = set(t1.arcs) | {(rename[a], rename[b]) for a, b in t2.arcs}
    labels = dict(t1.labels)
    labels.update({rename[v]: s for v, s in t2.labels.items() if v != t2.root})
    tags = dict(t1.region_tags)
    tags.update({rename[v]: s for v, s in t2.region_tags.items() if v != t2.root})
    merged = Tree(nodes, arcs, t1.root, labels, tags)

    for s, mapping in ((t1, {v: v for v in t1.nodes}), (t2, rename)):
        bad = check_embedding(mapping, s, merged)
        if bad:
            raise AssertionError(f"root merge produced a non-supertree: {bad[0]}")
    return merged


def unit_edit_distance(t1: Tree, t2: Tree, budget: int = NODE_BUDGET_DEFAULT) -> int:
    """Insert/delete edit distance at unit cost: |t1| + |t2| - 2 |common minor|.

    Deleting t1 down to a largest common minor and inserting up to t2 is an
    optimal edit script under unit-cost insertions and deletions.
    """
    lcs = largest_common_minor(t1, t2, budget=budget)
    return t1.size + t2.size - 2 * lcs.optimum_size


def cross_check_minor(s: Tree, t: Tree, budget: int = NODE_BUDGET_DEFAULT) -> bool:
    """Run the inclusion, backtracking and subset strategies; they must agree.

    Disagreement raises `SolverDisagreement` - it would mean a bug, never a
    valid outcome.  Only the backtracking `find_embedding` does not read the
    shape table of `trees`: inclusion and the subset oracle both decide
    through shape ids, so a wrong table would make them agree.  The tests'
    `reference_code` and `brute_force_isomorphic` check the table itself.
    """
    if s.size > budget or t.size > budget:
        raise BudgetError(f"cross-check limited to inputs of {budget} nodes")
    if s.root is None or t.root is None:
        raise TreeError("cross-check requires non-empty trees")
    verdicts = (is_minor(s, t), find_embedding(s, t) is not None,
                is_minor_by_subsets(s, t))
    if len(set(verdicts)) > 1:
        raise SolverDisagreement(
            f"inclusion, backtracking and subset oracle say {verdicts} "
            f"for {format_tree(s)} into {format_tree(t)}")
    return verdicts[0]
