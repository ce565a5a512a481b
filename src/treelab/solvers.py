"""Exact largest common minor and smallest common supertree solvers.

Both problems are solved by exhaustion, never by heuristics: optimality at
size k is only claimed after the neighbouring level has been fully decided.
The supertree optimum has two independent deciders.  Growth walks every
supertree of the bigger input, one node at a time, which a deletion lemma
shows are all the trees that can host both inputs (`_scs_core`; `scs` and
`verify` use it for their code-ordered witnesses and levels).  Merging
looks for the largest common-minor matching that merges into one tree
(`_merge_core`, `_merge_refutation`; the pair scan uses it).  The tests
hold each to the other.

Each search is a core that works on interned shapes or node positions only
and returns the optimum and its hits (`_lcs_core` also its levels; the
supertree levels are counts of trees in code order, which the public solver
derives).  The public solvers wrap the cores and build named `Tree`s and
embeddings for the hits alone.  A common-minor hit subset becomes a witness
only through `_witness_embedding`, for `largest_common_minor` and the scan.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from itertools import combinations, islice, product

from .errors import BudgetError, EmbeddingError, SolverDisagreement, TreeError
from .trees import (_KIDS, _LABEL, ENUM_CAP_DEFAULT, Tree, _Record, _code, _intern,
                    _intern_node, _level_sequences, _levels_of, _shape, _tree_count,
                    _tree_from_levels, format_tree)
from .embeddings import (MinorEmbedding, _fits, _induced_preorder, _search, _violations,
                         check_embedding, find_embedding, is_minor, is_minor_by_subsets)

#: Default per-input node cap for the brute-force common-minor search.
NODE_BUDGET_DEFAULT = 12


class LevelStats(_Record):
    """One fully decided size level of an exhaustive search.

    For supertrees, `candidates` counts the size-n trees this level decides,
    in code order: all of them, or, when the search stops at its first hit,
    those up to and including the hit.  For common minors it counts the
    distinct size-k induced minors tested.
    """

    __slots__ = ("size", "candidates", "hits")

    def __init__(self, size: int, candidates: int, hits: int):
        self.size = size
        self.candidates = candidates
        self.hits = hits

    def to_json(self) -> dict:
        return {"size": self.size, "candidates": self.candidates, "hits": self.hits}


class CommonTreeWitness(_Record):
    """An optimal tree together with embeddings relating it to both inputs.

    For common minors the embeddings go witness -> input; for common
    supertrees they go input -> witness.
    """

    __slots__ = ("tree", "emb1", "emb2")

    def __init__(self, tree: Tree, emb1: MinorEmbedding, emb2: MinorEmbedding):
        self.tree = tree
        self.emb1 = emb1
        self.emb2 = emb2

    def to_json(self) -> dict:
        return {"tree_literal": format_tree(self.tree),
                "embedding1": self.emb1.to_json(),
                "embedding2": self.emb2.to_json()}


class SolverResult(_Record):
    __slots__ = ("optimum_size", "witnesses", "levels", "wall_ms")

    def __init__(self, optimum_size: int, witnesses: list[CommonTreeWitness],
                 levels: list[LevelStats] | None = None, wall_ms: float = 0.0):
        self.optimum_size = optimum_size
        self.witnesses = witnesses
        self.levels = [] if levels is None else levels
        self.wall_ms = wall_ms

    def to_json(self) -> dict:
        return {
            "optimum_size": self.optimum_size,
            "witness_count": len(self.witnesses),
            "witnesses": [w.to_json() for w in self.witnesses],
            "levels_scanned": [lv.to_json() for lv in self.levels],
            "timing": {"wall_ms": round(self.wall_ms, 3)},
        }


class LcsResult(SolverResult):
    """Largest common minor: no common minor of size optimum_size+1 exists
    (optimum 0 and no witnesses when the inputs share no node label)."""


class ScsResult(SolverResult):
    """Smallest common supertree: no common supertree of size optimum_size-1 exists."""


def _require_solvable(t1: Tree, t2: Tree) -> None:
    if t1.root is None or t2.root is None:
        raise TreeError("solvers require non-empty trees")


def _identity_embedding(s: Tree, t: Tree) -> MinorEmbedding:
    return MinorEmbedding(s, t, {v: v for v in s.nodes})


#: The distinct induced shapes of each size of each input tree, filled by
#: `_minor_level` and kept, like `embeddings._FITS`, as long as the process.
_MINOR_LEVELS: dict[tuple[Tree, int], list[tuple[int, tuple[str, ...]]]] = {}


def _minor_level(small: Tree, k: int) -> list[tuple[int, tuple[str, ...]]]:
    """The distinct shapes of the size-k induced minors of `small`, each with
    the first node subset (names in name order) that induces it, in the
    order `combinations(sorted(small.nodes), k)` discovers them.

    A subset's induced minor is read off the preorder as a level sequence
    (each node hangs under its nearest in-subset ancestor, kept on a stack)
    and interned with `_intern`, so no `Tree` is built; a subset whose first
    node is not an ancestor of all the others has a second root and is
    skipped.  Each level is walked completely once per tree and memoized,
    since the pair scan asks again for the same smaller inputs.
    """
    level = _MINOR_LEVELS.get((small, k))
    if level is None:
        order, tin, tout = small._preorder, small._tin, small._tout
        # position i of the name-sorted node list holds that node's preorder index
        by_name = [tin[v] for v in sorted(small.nodes)]
        ends = [tout[v] for v in order]
        labels = [small.labels.get(v) for v in order]
        first: dict[int, tuple[int, ...]] = {}
        for w in combinations(by_name, k):
            pre = sorted(w)
            if pre[-1] >= ends[pre[0]]:
                continue  # more than one node without an in-subset ancestor
            depth: list[int] = []
            open_ends: list[int] = []  # preorder ends of the in-subset ancestors
            for i in pre:
                while open_ends and open_ends[-1] <= i:
                    open_ends.pop()
                depth.append(len(open_ends))
                open_ends.append(ends[i])
            first.setdefault(_intern(depth, [labels[i] for i in pre]), w)
        level = _MINOR_LEVELS[small, k] = [(s, tuple(order[i] for i in w))
                                           for s, w in first.items()]
    return level


def _lcs_core(small: Tree, other: Tree,
              all_witnesses: bool) -> tuple[int, list[LevelStats], list[tuple[str, ...]]]:
    """The common-minor search on shapes: (optimum, levels, hit subsets).

    Walk k downward from |small| through the induced shapes of `small`
    (`_minor_level`), testing each with `_fits` into `other`.  The first k
    with a hit is the optimum.  A level counts the shapes tested: up to the
    first hit, or all of them with `all_witnesses` or without a hit.  The
    hits are the first subset of each hit shape (only the first hit unless
    `all_witnesses`), sorted by the canonical code of the shape.  Labeled
    inputs that share no node label have no common minor: optimum 0, no hits.
    """
    target = _shape(other)
    levels: list[LevelStats] = []
    for k in range(small.size, 0, -1):
        level = _minor_level(small, k)
        tested, hits = 0, []
        for s, w in level:
            tested += 1
            if _fits(s, target):
                hits.append((s, w))
                if not all_witnesses:
                    break
        levels.append(LevelStats(k, tested, len(hits)))
        if hits:
            return k, levels, [w for s, w in sorted(hits, key=lambda hit: _code(hit[0]))]
    return 0, levels, []  # labeled inputs that share no node label


def largest_common_minor(t1: Tree, t2: Tree, all_witnesses: bool = False,
                         budget: int = NODE_BUDGET_DEFAULT) -> LcsResult:
    """Maximum-size tree that is a minor of both inputs, with witnesses.

    `_lcs_core` finds the optimum on shapes, walking the induced shapes of
    the smaller input; only its hits become named `Tree`s, in canonical-code
    order: the minor the smaller input induces on the first subset of each
    hit shape, with its labels and region tags.  Each witness carries the
    identity embedding on the subset side and the first embedding the search
    finds on the other, both re-validated by `_witness_embedding`.
    """
    started = time.perf_counter()
    _require_solvable(t1, t2)
    if t1.size > budget or t2.size > budget:
        raise BudgetError(
            f"common-minor search limited to inputs of {budget} nodes "
            f"(got {t1.size} and {t2.size})")

    flipped = t2.size < t1.size
    small, other = (t2, t1) if flipped else (t1, t2)
    k, levels, hits = _lcs_core(small, other, all_witnesses)
    witnesses = []
    for w in hits:
        order, parent, images = _witness_embedding(small, other, w)
        m = Tree(order, [(order[p], v) for v, p in zip(order, parent) if p >= 0], order[0],
                 {v: a for v, a in small.labels.items() if v in w},
                 {v: a for v, a in small.region_tags.items() if v in w})
        into_small = _identity_embedding(m, small)
        into_other = MinorEmbedding(m, other, dict(zip(order, images)))
        g1, g2 = (into_other, into_small) if flipped else (into_small, into_other)
        witnesses.append(CommonTreeWitness(m, g1, g2))
    return LcsResult(k, witnesses, levels, (time.perf_counter() - started) * 1e3)


def _witness_embedding(small: Tree, other: Tree,
                       w: tuple[str, ...]) -> tuple[list[str], list[int], list[str]]:
    """The common minor that `small` induces on its node subset w, unbuilt:
    its nodes in preorder, their parent positions (-1 at the root), and the
    images of the first embedding the search yields into `other`.  Both
    embeddings (the identity on w into `small`, and that one) are
    re-validated through `_violations`."""
    order, parent = _induced_preorder(small, w)
    images = next(_search(parent, [small.labels.get(v) for v in order], other), None)
    if images is None:
        raise SolverDisagreement(
            f"the witness search finds no embedding of the common minor on {w} of "
            f"{format_tree(small)} into {format_tree(other)}, which inclusion accepted")
    arcs = [(order[p], v) for v, p in zip(order, parent) if p >= 0]
    for g, t in (({v: v for v in order}, small), (dict(zip(order, images)), other)):
        bad = _violations(g, order, arcs, small.labels, t.root, t._parent, t.labels)
        if bad:
            raise EmbeddingError(bad)
    return order, parent, images


#: One-node insertions strictly below the root of each shape (the moves of
#: `_insertions` but the new root), memoized like `embeddings._FITS`.
_GROWN: dict[int, frozenset[int]] = {}


def _insertions(s: int) -> frozenset[int]:
    """Every shape made from shape s by inserting one unlabeled node: a new
    root above s, or a new child of some node adopting a sub-multiset of that
    node's children (the empty one gives a new leaf).

    Below its root a shape grows by its root's adoptions, or by one copy of
    a child shape replaced by each of that child's moves.  Shapes are grown
    children first from an explicit stack, so depth is never a limit.
    """
    stack = [s]
    while stack:
        x = stack[-1]
        if x in _GROWN:
            stack.pop()
            continue
        kids = _KIDS[x]
        kinds = sorted(set(kids))
        todo = [c for c in kinds if c not in _GROWN]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        label = _LABEL[x]
        counts = [kids.count(k) for k in kinds]
        grown = set()
        for take in product(*(range(c + 1) for c in counts)):
            adopted = tuple(k for k, t in zip(kinds, take) for _ in range(t))
            kept = [k for k, c, t in zip(kinds, counts, take) for _ in range(c - t)]
            kept.append(_intern_node(None, adopted))
            grown.add(_intern_node(label, tuple(sorted(kept))))
        for c in kinds:
            i = kids.index(c)
            rest = kids[:i] + kids[i + 1:]
            for y in _GROWN[c]:
                grown.add(_intern_node(label, tuple(sorted(rest + (y,)))))
        _GROWN[x] = frozenset(grown)
    return _GROWN[s] | {_intern_node(None, (s,))}


def _scs_core(t1: Tree, t2: Tree, all_witnesses: bool, ceiling: int,
              enum_cap: int) -> tuple[int, list[int]]:
    """The supertree search on shapes: (optimum, hit shapes).

    Walk n upward from max(|t1|, |t2|) to `ceiling` through the size-n
    supertrees of the bigger input, starting from that input itself, and
    test each, in canonical-code order, with `_fits` for the other input;
    the hits are the hit shapes of the first level with one (only the first
    unless `all_witnesses`).  On equal sizes the input with more leaves is
    grown, since the cost of `_fits` grows with the width of what it places.

    The levels are complete by a deletion lemma.  Let C, of size
    n + 1 > |T|, contain T.  Deleting a node outside the image of an
    embedding leaves a size-n tree that still contains T: a non-image leaf,
    else contract a non-image non-root, else drop a one-child root.  So the
    size-(n + 1) supertrees of T are exactly the one-node insertions
    (`_insertions`) into its size-n supertrees, and a level without a hit
    refutes every tree of its size.
    """
    start = max(t1.size, t2.size)
    big, little = ((t1, t2) if (t1.size, len(t1.leaves)) >= (t2.size, len(t2.leaves))
                   else (t2, t1))
    target = _shape(little)
    level = [_shape(big)]
    for n in range(start, ceiling + 1):
        if n > enum_cap:
            raise BudgetError(
                f"supertree search needs size-{n} enumeration (cap {enum_cap}); "
                f"every size below {n} was exhaustively refuted", lower_bound=n)
        if n > start:
            level = sorted({c for s in level for c in _insertions(s)}, key=_code)
        hits: list[int] = []
        for c in level:
            if _fits(target, c):
                hits.append(c)
                if not all_witnesses:
                    break
        if hits:
            return n, hits
    raise BudgetError(
        f"no common supertree of size <= {ceiling}; search stopped at the "
        f"requested ceiling", lower_bound=ceiling + 1)


def _merge_core(t1: Tree, t2: Tree, matching: Mapping[str, str]) -> list[int] | None:
    """The common supertree of t1 and t2 in which exactly the pairs of
    `matching` (t1 node -> t2 node, equal labels) share a node, as a parent
    array (-1 at the root), or None when no common supertree does.

    Positions: each t1 node, and the t2 node matched to it, sits at its t1
    preorder index; the unmatched t2 nodes follow in t2 preorder.  A built
    supertree is re-validated: both inputs' maps onto its positions must pass
    `_violations`, else `SolverDisagreement`.

    Why merging decides the supertree optimum.  Let C be a minimum common
    supertree, with embeddings f1 and f2.
      1. Every node of C is in an image; otherwise contract it away.
      2. C restricted to each image is that input: embeddings keep ancestry,
         and by Lemma 4 (`check_lemma4`) they keep incomparability too.
      3. So |C| = |t1| + |t2| - |M|, where M pairs up the t1 and t2 nodes
         that share an image, and M agrees on ancestry in both inputs.
      4. Forest matchings are never needed.  If M's t1 side has two or more
         roots, neither input root is matched.  Adding the pair of the two
         roots keeps M consistent and mergeable: the two roots fuse at the
         top of C.
      5. So SCS = |t1| + |t2| - (the largest mergeable tree matching).  Tree
         matchings are common-minor witnesses with one embedding per side,
         so the gap is the common-minor optimum minus that size.

    Mergeability is decided BUILD-style (Aho, Sagiv, Szymanski & Ullman,
    SIAM J. Comput. 10(3), 1981), on bitmasks of positions and an explicit
    stack of (set, parent) tasks.  The *tops* of a set S are its nodes that,
    in each input they belong to, are ancestors of every other S-node of that
    input.  Only one node per input can be that, so S has one shared top, or
    at most one t1-only and one t2-only top.  The tops are chained (t1-only
    above t2-only), which costs nothing: the two are unrelated in the
    inputs.  The rest of S splits into the components of "comparable in t1
    or in t2", each hung below the chain and decided in turn.  That relates
    every pair of nodes as both inputs do.  A set with no top refutes the
    matching.  If C were valid, its restriction to a connected set S would
    be one tree (two roots would be incomparable in C, so in both inputs,
    yet S's comparabilities connect them), and that tree's root is an
    ancestor of all of S in C, so in each of its inputs: a top.  The same
    restriction keeps each component of a mergeable set mergeable, so one
    set without a top refutes the whole matching.
    """
    n1, tin1 = t1.size, t1._tin
    back = {b: a for a, b in matching.items()}
    pos2, size = [], n1
    for v in t2._preorder:
        if v in back:
            pos2.append(tin1[back[v]])
        else:
            pos2.append(size)
            size += 1
    below = ([0] * size, [0] * size)  # per input: the positions under each node, itself included
    related = [0] * size  # the positions comparable to each one in t1 or in t2
    for t, pos, sub in ((t1, range(n1), below[0]), (t2, pos2, below[1])):
        order, tin = t._preorder, t._tin
        above_at = [tin[t._parent[v]] for v in order[1:]]  # parent index of preorder 1, 2, ...
        under = [1 << p for p in pos]
        for j in range(len(order) - 1, 0, -1):
            under[above_at[j - 1]] |= under[j]
        over = [0] * len(order)
        for j in range(1, len(order)):
            over[j] = over[above_at[j - 1]] | 1 << pos[above_at[j - 1]]
        for j, p in enumerate(pos):
            sub[p] = under[j]
            related[p] |= under[j] | over[j]
    in1, in2 = below[0][0], below[1][pos2[0]]

    parent = [-1] * size
    stack = [((1 << size) - 1, -1)]
    while stack:
        s, above = stack.pop()
        s1, s2 = s & in1, s & in2
        top1 = top2 = -1
        if s1:
            x = (s1 & -s1).bit_length() - 1  # first in t1 preorder
            if not s1 & ~below[0][x]:
                top1 = x
        if s2:
            for x in pos2:  # stop at the first in t2 preorder
                if s2 >> x & 1:
                    if not s2 & ~below[1][x]:
                        top2 = x
                    break
        if top1 == top2:
            tops = [top1] if top1 >= 0 else []
        else:  # a shared node tops both of its inputs or neither
            tops = [x for x, other in ((top1, in2), (top2, in1))
                    if x >= 0 and not other >> x & 1]
        if not tops:
            return None
        for x in tops:
            parent[x] = above
            above = x
            s &= ~(1 << x)
        while s:
            component = grow = s & -s
            while grow:
                reach = 0
                while grow:
                    low = grow & -grow
                    reach |= related[low.bit_length() - 1]
                    grow ^= low
                grow = reach & s & ~component
                component |= grow
            stack.append((component, above))
            s &= ~component

    root = parent.index(-1)
    up = {x: p for x, p in enumerate(parent) if p >= 0}
    labels = {tin1[v]: a for v, a in t1.labels.items()}
    labels.update((pos2[t2._tin[v]], a) for v, a in t2.labels.items())
    for t, f in ((t1, tin1), (t2, dict(zip(t2._preorder, pos2)))):
        bad = _violations(f, t._preorder, t.arcs, t.labels, root, up, labels)
        if bad:
            raise SolverDisagreement(
                f"the merged supertree of {format_tree(t1)} and {format_tree(t2)} "
                f"does not host {format_tree(t)}: {bad[0]}")
    return parent


def _merge_refutation(t1: Tree, t2: Tree, k: int, hits: list[tuple[str, ...]]) -> int:
    """The supertree optimum of t1 and t2 by merging, once the first
    embedding of each of the common-minor hit subsets `hits` (of the optimum
    k, subsets of t1) failed to merge: try their other embeddings, then
    every embedding of every node subset of t1 that induces a tree, at k,
    k - 1, and so on.  By the lemma of `_merge_core` the first merge found
    is optimal; on unlabeled inputs the root pair alone always merges.  Each
    matching is tried as the search yields it."""
    def merged(w: tuple[str, ...], skip: int) -> int | None:
        order, parent = _induced_preorder(t1, w)
        for images in islice(_search(parent, [t1.labels.get(v) for v in order], t2), skip, None):
            c = _merge_core(t1, t2, dict(zip(order, images)))
            if c is not None:
                return len(c)
        return None

    for w in hits:
        got = merged(w, 1)
        if got is not None:
            return got
    tin, tout = t1._tin, t1._tout
    for j in range(k, 0, -1):
        for w in combinations(t1._preorder, j):  # w[0] comes first in preorder
            if tout[w[0]] > max(tin[v] for v in w):  # one root: w[0] is above the rest
                got = merged(w, 0)
                if got is not None:
                    return got
    raise SolverDisagreement(f"no matching of {format_tree(t1)} and {format_tree(t2)} "
                             f"merges, not even the pair of their roots")


def _code_rank(n: int, stop: tuple[int, ...]) -> int:
    """How many size-n trees come, in code order, up to and including the one
    with level sequence `stop`."""
    for rank, levels in enumerate(_level_sequences(n), 1):
        if levels == stop:
            return rank
    raise AssertionError(f"{stop} is not a canonical size-{n} level sequence")


def _found(f: MinorEmbedding | None, s: Tree, t: Tree) -> MinorEmbedding:
    """The witness search's embedding of s into t, which inclusion accepted."""
    if f is None:
        raise SolverDisagreement(f"the witness search finds no embedding of "
                                 f"{format_tree(s)} into {format_tree(t)}, which "
                                 f"inclusion accepted")
    return f


def smallest_common_supertree(t1: Tree, t2: Tree, all_witnesses: bool = False,
                              max_size: int | None = None,
                              enum_cap: int = ENUM_CAP_DEFAULT) -> ScsResult:
    """Minimum-size tree containing both inputs as minors, with witnesses.

    Without `all_witnesses`, an input that contains the other is itself an
    optimal witness (absorption), reported as a one-tree level.  Otherwise
    `_scs_core` finds the optimum on shapes, growing the supertrees of the
    bigger input upward from max(|t1|, |t2|) (the root merge guarantees a
    hit by n = |t1| + |t2| - 1, or `max_size` if smaller).  The levels are
    reported as a scan of every tree of each size in code order would
    report them: a level without a hit, and the hit level with
    `all_witnesses`, counts every tree of its size (`_tree_count`, with no
    walk); the first-hit level counts up to the hit, by walking the level's
    sequences in code order (`_code_rank`).  Only the hits become named
    `Tree`s, built from their canonical level sequences, each with the first
    found embedding of either input.
    """
    started = time.perf_counter()
    _require_solvable(t1, t2)
    if t1.labels or t2.labels:
        raise TreeError("supertree search enumerates unlabeled trees; "
                        "labeled inputs are not supported")

    natural = t1.size + t2.size - 1
    ceiling = natural if max_size is None else min(max_size, natural)
    if not all_witnesses and max(t1.size, t2.size) <= ceiling:
        for big, little in ((t1, t2), (t2, t1)):
            if big.size >= little.size and is_minor(little, big):
                f_little = _found(find_embedding(little, big), little, big)
                ident = _identity_embedding(big, big)
                emb1, emb2 = (ident, f_little) if big is t1 else (f_little, ident)
                return ScsResult(big.size, [CommonTreeWitness(big, emb1, emb2)],
                                 [LevelStats(big.size, 1, 1)],
                                 (time.perf_counter() - started) * 1e3)
    n, hits = _scs_core(t1, t2, all_witnesses, ceiling, enum_cap)
    sequences = [_levels_of(c) for c in hits]
    levels = [LevelStats(k, _tree_count(k), 0) for k in range(max(t1.size, t2.size), n)]
    levels.append(LevelStats(n, _tree_count(n) if all_witnesses
                             else _code_rank(n, sequences[0]), len(hits)))
    witnesses = []
    for c in map(_tree_from_levels, sequences):
        witnesses.append(CommonTreeWitness(c, _found(find_embedding(t1, c), t1, c),
                                           _found(find_embedding(t2, c), t2, c)))
    return ScsResult(n, witnesses, levels, (time.perf_counter() - started) * 1e3)


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


def cross_check_minor(s: Tree, t: Tree) -> bool:
    """Run the inclusion, backtracking and subset strategies; they must agree.

    Disagreement raises `SolverDisagreement` - it would mean a bug, never a
    valid outcome.  Only the backtracking `find_embedding` does not read the
    shape table of `trees`: inclusion and the subset oracle both decide
    through shape ids, so a wrong table would make them agree.  The tests'
    `reference_code` and `brute_force_isomorphic` check the table itself.
    """
    if s.size > NODE_BUDGET_DEFAULT or t.size > NODE_BUDGET_DEFAULT:
        raise BudgetError(f"cross-check limited to inputs of {NODE_BUDGET_DEFAULT} nodes")
    if s.root is None or t.root is None:
        raise TreeError("cross-check requires non-empty trees")
    verdicts = (is_minor(s, t), find_embedding(s, t) is not None,
                is_minor_by_subsets(s, t))
    if len(set(verdicts)) > 1:
        raise SolverDisagreement(
            f"inclusion, backtracking and subset oracle say {verdicts} "
            f"for {format_tree(s)} into {format_tree(t)}")
    return verdicts[0]
