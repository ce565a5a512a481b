"""Exact largest common minor and smallest common supertree solvers.

Both problems are solved by exhaustion, never by heuristics: the common-minor
walk claims optimality at size k only after the level above it has been
fully decided, and the supertree recursion drops a branch only by a proven
lower bound.  That recursion is the one supertree decider: at each pair of
forests of interned shapes it takes the least of three kinds of branch,
memoized for the process (`_scs_optimum`, for `transfer fig4`, `scs`,
`verify` and the scan's pairs no quotient settles), and the branches that
reach the optimum give every minimum supertree (`_scs_shapes`, for `scs`
and `verify`), even when one input contains the other.  The tests hold it
to growing the bigger input's supertrees one node at a time and to the best
common-minor matching that merges into one tree.

Each search is a core that works on interned shapes or node positions only
and returns the optimum and its hits (`_lcs_core` also its levels, as plain
tuples; the supertree levels are counts of trees in code order, which the
public solver derives).  The public solvers wrap the cores and build named
`Tree`s, embeddings and `LevelStats` for the result alone.  A common-minor
hit subset becomes a witness only through `_witness_embedding`, for
`largest_common_minor` and the scan's prop21 check.

What depends on one input alone is made once and kept in the one
`Tree._tables` of that input, never in a module table keyed by trees: its
distinct induced shapes of each size (`_minor_level`), the minor it induces
on each hit subset, whose identity map is validated when it is made
(`_induced_minor`), and, as the other input, the first embedding the search
finds into it of each witness shape, validated when it is searched
(`_witness_embedding`).  A pair searches only the shapes its target has not
met yet.
"""

from __future__ import annotations

import time
from collections.abc import Generator, Iterator
from itertools import chain, combinations

from .errors import BudgetError, SolverDisagreement, TreeError
from .trees import (_KIDS, _LABEL, _SIZE, ENUM_CAP_DEFAULT, Tree, _Record, _code, _intern,
                    _intern_node, _level_sequences, _levels_of, _literal, _shape, _splits,
                    _tree_count, _tree_from_levels, format_tree)
# no solver calls `is_minor`; perfbench's tracer test reads the binding here
from .embeddings import (MinorEmbedding, _fits, _induced_preorder, _require_built, _search,
                         _violations, check_embedding, find_embedding, induced_minor, is_minor)


class LevelStats(_Record):
    """One fully decided size level of an exhaustive search.

    For supertrees, `candidates` counts the size-n trees this level decides,
    in code order: all of them, or, when the search stops at its first hit,
    those up to and including the hit.  For common minors it counts the
    distinct size-k induced minors tested.
    """

    __slots__ = ("size", "candidates", "hits")

    def to_json(self) -> dict:
        return {"size": self.size, "candidates": self.candidates, "hits": self.hits}


class CommonTreeWitness(_Record):
    """An optimal tree together with embeddings relating it to both inputs.

    For common minors the embeddings go witness -> input; for common
    supertrees they go input -> witness.
    """

    __slots__ = ("tree", "emb1", "emb2")

    def to_json(self) -> dict:
        return {"tree_literal": format_tree(self.tree),
                "embedding1": self.emb1.to_json(),
                "embedding2": self.emb2.to_json()}


class SolverResult(_Record):
    __slots__ = ("optimum_size", "witnesses", "levels", "wall_ms")
    _defaults = {"levels": list, "wall_ms": float}

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

    __slots__ = ()


class ScsResult(SolverResult):
    """Smallest common supertree: no common supertree of size optimum_size-1 exists."""

    __slots__ = ()


def _require_solvable(t1: Tree, t2: Tree) -> None:
    if t1.root is None or t2.root is None:
        raise TreeError("solvers require non-empty trees")


def _minor_level(small: Tree, k: int) -> tuple[tuple[int, tuple[str, ...]], ...]:
    """The distinct shapes of the size-k induced minors of `small`, each with
    the first node subset (names in name order) that induces it, in the
    order `combinations(sorted(small.nodes), k)` discovers them.

    A subset's induced minor is read off the preorder as a level sequence
    (each node hangs under its nearest in-subset ancestor, kept on a stack)
    and interned with `_intern`, so no `Tree` is built; a subset whose first
    node is not an ancestor of all the others has a second root and is
    skipped.  Each level is walked completely once per tree and kept in its
    `_tables` under k, since the pair scan asks again for the same smaller
    inputs.
    """
    level = small._tables.get(k)
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
        level = small._tables[k] = tuple((s, tuple(order[i] for i in w))
                                         for s, w in first.items())
    return level


def _lcs_core(small: Tree, other: Tree,
              all_witnesses: bool) -> tuple[int, list[tuple[int, int, int]], list[tuple[str, ...]]]:
    """The common-minor search on shapes: (optimum, levels, hit subsets),
    each level a (size, candidates, hits) tuple that only
    `largest_common_minor` makes a `LevelStats`.

    Walk k downward from |small| through the induced shapes of `small`
    (`_minor_level`), testing each with `_fits` into `other`.  The first k
    with a hit is the optimum.  A level counts the shapes tested: up to the
    first hit, or all of them with `all_witnesses` or without a hit.  The
    hits are the first subset of each hit shape (only the first hit unless
    `all_witnesses`), sorted by the canonical code of the shape.  Labeled
    inputs that share no node label have no common minor: optimum 0, no hits.
    """
    target = _shape(other)
    levels: list[tuple[int, int, int]] = []
    for k in range(small.size, 0, -1):
        level = _minor_level(small, k)
        tested, hits = 0, []
        for s, w in level:
            tested += 1
            if _fits(s, target):
                hits.append((s, w))
                if not all_witnesses:
                    break
        levels.append((k, tested, len(hits)))
        if hits:
            return k, levels, [w for s, w in sorted(hits, key=lambda hit: _code(hit[0]))]
    return 0, levels, []  # labeled inputs that share no node label


def largest_common_minor(t1: Tree, t2: Tree, all_witnesses: bool = False,
                         cap: int = ENUM_CAP_DEFAULT) -> LcsResult:
    """Maximum-size tree that is a minor of both inputs, with witnesses.

    `_lcs_core` finds the optimum on shapes, walking the induced shapes of
    the smaller input; only its hits become named `Tree`s, in canonical-code
    order: the minor the smaller input induces on the first subset of each
    hit shape (`induced_minor`), with its labels and region tags.  Each
    witness carries the identity embedding on the subset side, validated
    when the minor is made, and the first embedding the search finds on the
    other, validated when it is searched (`_witness_embedding`).  An input
    past `cap` nodes raises `BudgetError`: the walk takes up to 2^|t|
    subsets.
    """
    started = time.perf_counter()
    _require_solvable(t1, t2)
    if t1.size > cap or t2.size > cap:
        raise BudgetError(
            f"common-minor search limited to inputs of {cap} nodes "
            f"(got {t1.size} and {t2.size})")

    flipped = t2.size < t1.size
    small, other = (t2, t1) if flipped else (t1, t2)
    k, levels, hits = _lcs_core(small, other, all_witnesses)
    witnesses = []
    for w in hits:
        minor, images = _witness_embedding(small, other, w)
        m = induced_minor(small, w)
        into_small = MinorEmbedding(m, small, {v: v for v in m.nodes})
        into_other = MinorEmbedding(m, other, dict(zip(minor.order, images)))
        g1, g2 = (into_other, into_small) if flipped else (into_small, into_other)
        witnesses.append(CommonTreeWitness(m, g1, g2))
    return LcsResult(k, witnesses, [LevelStats(*lv) for lv in levels],
                     (time.perf_counter() - started) * 1e3)


class _InducedMinor:
    """The common minor a tree induces on one of its node subsets, unbuilt:
    its nodes in preorder (children in name order), the preorder position of
    each one's parent (-1 at the root), as `induced_minor` reads them, their
    labels, its arcs, its literal and its key in a target's searched images
    (`_witness_embedding`)."""

    __slots__ = ("order", "parent", "labels", "arcs", "literal", "key")

    def __init__(self, t: Tree, w: tuple[str, ...]):
        self.order, self.parent = _induced_preorder(t, w)
        self.labels = [t.labels.get(v) for v in self.order]
        self.arcs = [(self.order[p], v) for v, p in zip(self.order, self.parent) if p >= 0]
        depths: list[int] = []
        for p in self.parent:
            depths.append(depths[p] + 1 if p >= 0 else 0)
        self.literal = _literal(self.order, depths, t.labels)
        self.key = (_witness_embedding, tuple(self.parent), tuple(self.labels))


def _induced_minor(small: Tree, w: tuple[str, ...]) -> _InducedMinor:
    """The minor `small` induces on its node subset w, made once per subset
    and kept in the `_tables` of `small`; the identity map on w into `small`
    is re-validated through `_violations` when it is made."""
    minor = small._tables.get(w)
    if minor is None:
        minor = _InducedMinor(small, w)
        _require_built(_violations({v: v for v in minor.order}, minor.order, minor.arcs,
                                   small.labels, small.root, small._parent, small.labels),
                       f"the identity map of the minor induced on {w}")
        small._tables[w] = minor
    return minor


def _witness_embedding(small: Tree, other: Tree,
                       w: tuple[str, ...]) -> tuple[_InducedMinor, list[str]]:
    """The common minor that `small` induces on its node subset w
    (`_induced_minor`), with the images of the first embedding the search
    yields into `other`: validated when searched, kept per target.

    The search and its check through `_violations` read only the minor's
    parent positions and labels and the target, so the images are kept in
    the `_tables` of `other` under those two (`minor.key`), and a later
    witness of the same shape gets a map that has already been checked.
    """
    minor = _induced_minor(small, w)
    images = other._tables.get(minor.key)
    if images is None:
        images = next(_search(minor.parent, minor.labels, other), None)
        if images is None:
            raise SolverDisagreement(
                f"the witness search finds no embedding of the common minor on {w} of "
                f"{format_tree(small)} into {format_tree(other)}, which inclusion accepted")
        _require_built(_violations(dict(zip(minor.order, images)), minor.order, minor.arcs,
                                   small.labels, other.root, other._parent, other.labels),
                       f"the searched embedding of the minor induced on {w} into the other input")
        other._tables[minor.key] = images
    return minor, images


#: Supertree optima of pairs of forests (sorted tuples of shape ids), keyed by
#: the two in sorted order, for the life of the process, like `embeddings._FITS`.
#: A run's own pair is not kept: the scan asks for each once, and keeping them
#: would almost double the memo (199,207 entries after scan 9, not 111,128).
_SCS: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}

#: Most branches (pairs of forests asked for, memoized or not) one run of the
#: recursion may request, so it bounds time as well as memory; 16 times the most
#: seen: 17,986 for a 3,000-node chain against a(b,c), 606 in `transfer fig4` at
#: |A| = 8, |B| = 4, 680 for all witnesses of star(8) and chain(8) from a cold
#: memo (`_scs_shapes`) and 45 in scan 9.
SCS_BUDGET = 300_000


def _weight(forest: tuple[int, ...]) -> int:
    """The node count of a forest of shape ids."""
    return sum(_SIZE[x] for x in forest)


def _key(xs: tuple[int, ...], ys: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A pair of forests in sorted order, an empty one first, as `_SCS` keys it."""
    return (xs, ys) if xs <= ys else (ys, xs)


def _without(forest: tuple[int, ...], x: int) -> tuple[int, ...]:
    i = forest.index(x)
    return forest[:i] + forest[i + 1:]


def _branches(xs: tuple[int, ...], ys: tuple[int, ...], wx: int, wy: int) -> Iterator[tuple]:
    """The branches of SCS(xs, ys) for non-empty forests of wx and wy nodes,
    shared roots first, as (root label, X1, Y1, X2, Y2, w1, w2): the root's
    children and the rest of the supertree are supertrees of (X1, Y1) and
    (X2, Y2), whose trivial bounds are w1 and w2."""
    if len(ys) < len(xs):  # a comes from the forest with fewer trees
        xs, ys, wx, wy = ys, xs, wy, wx
    a, others = xs[0], xs[1:]
    la, na = _LABEL[a], _SIZE[a]
    kinds = sorted(set(ys))
    return chain(
        ((la, _KIDS[a], _KIDS[b], others, _without(ys, b),
          max(na, _SIZE[b]) - 1, max(wx - na, wy - _SIZE[b]))
         for b in kinds if _LABEL[b] == la),  # shared roots
        ((la, _KIDS[a], part, others, rest, max(na - 1, w), max(wx - na, wy - w))
         for part, rest, w in _splits(ys)),  # a's root t1-only
        ((_LABEL[b], tuple(sorted(part + (a,))), _KIDS[b], rest, _without(ys, b),
          max(w + na, _SIZE[b] - 1), max(wx - na - w, wy - _SIZE[b]))
         for b in kinds for part, rest, w in _splits(others)))  # b's root t2-only, above a


def _scs_frame(xs: tuple[int, ...], ys: tuple[int, ...],
               floor: int) -> Generator[tuple, int, int]:
    """SCS(xs, ys) of two non-empty forests, as a generator that yields each
    pair of forests it needs, with a floor, and is sent its optimum."""
    wx, wy = _weight(xs), _weight(ys)
    best, stop = wx + wy, max(wx, wy, floor)  # the two forests side by side
    for _, x1, y1, x2, y2, w1, w2 in _branches(xs, ys, wx, wy):
        if 1 + w1 + w2 >= best:
            continue
        v1 = yield x1, y1, stop - 1 - _weight(x2) - _weight(y2)
        if 1 + v1 + w2 >= best:
            continue
        best = min(best, 1 + v1 + (yield x2, y2, stop - 1 - v1))
        if best <= stop:
            break
    return best


def _scs_run(requests: Generator[tuple, int, int | set], t1: Tree, t2: Tree,
             floor: int = 0) -> int | set:
    """What `requests` returns, a generator that yields pairs of forests with
    floors and is sent their optima, as a frame does, for the inputs t1 and
    t2.  Each pair is read from `_SCS` or solved and memoized by a frame
    (`_scs_frame`) on an explicit stack, so depth is never a limit.  A run
    asked for more than `SCS_BUDGET` branches raises `BudgetError`."""
    frames: list[tuple[tuple[tuple[int, ...], tuple[int, ...]], Generator]] = [((), requests)]
    value, spent = None, 0
    while True:
        try:
            xs, ys, low = frames[-1][1].send(value)
        except StopIteration as done:
            key, value = frames.pop()[0], done.value
            if not frames:
                return value
            _SCS[key] = value
            continue
        spent += 1
        if spent > SCS_BUDGET:
            raise BudgetError(f"supertree recursion limited to {SCS_BUDGET} branches per "
                              f"call (inputs of {t1.size} and {t2.size} nodes)",
                              lower_bound=max(floor, t1.size, t2.size))
        key = _key(xs, ys)
        value = _SCS.get(key) if key[0] else _weight(key[1])
        if value is None:
            frames.append((key, _scs_frame(*key, low)))


def _scs_optimum(t1: Tree, t2: Tree, floor: int = 0) -> int:
    """The smallest common supertree size of t1 and t2, by a recursion on
    pairs of forests of interned shapes.

    A forest is a multiset of subtree shapes (a tree's children form one),
    and |F| counts its nodes.  SCS(A, {}) = |A| and SCS({}, B) = |B|.
    Otherwise fix a tree a of A, with A1 = A - a; SCS(A, B) is the least of
      - 1 + SCS(ch a, ch b) + SCS(A1, B - b), for each b in B with a's root
        label: the roots of a and b share a node;
      - 1 + SCS(ch a, B') + SCS(A1, B - B'), for each sub-multiset B' of B:
        a's root is t1-only, and whole B-trees hang below it;
      - 1 + SCS(A' + a, ch b) + SCS(A1 - A', B - b), for each b in B and each
        sub-multiset A' of A1: b's root is t2-only, above a.

    Why it is complete.  Let C be a minimum common supertree (a forest, for
    two forests), with embeddings f1 and f2.
      1. Every node of C is in an image; otherwise contract it away.
      2. C restricted to each image is that input: embeddings keep ancestry,
         and by Lemma 4 (`check_lemma4`) they keep incomparability too.
      3. So |C| = |t1| + |t2| - |M|, where M pairs up the t1 and t2 nodes
         that share an image.  The shared images form a common minor, so
         SCS >= |t1| + |t2| - LCS: the merge lemma's lower bound.
    By step 2 no other A-tree lies below a's root, so the root of a's tree
    in C is a's root (shared with a B-root or not) or a t2-only B-root above
    it.  Below a one-input root only whole trees of the other forest hang,
    since nothing lies above that root, and the rest of C is a common
    supertree of what is left of both forests.

    Each pair is a frame (`_scs_frame`) run by `_scs_run`, its optimum
    memoized in `_SCS` in either order.  A frame tries the shared roots first
    (`_branches`), skips a branch whose trivial bound (max(|X|, |Y|) per pair)
    cannot beat its best, and stops once its best reaches its floor or
    max(|A|, |B|).  Floors are proven lower bounds: `floor` for the top pair
    (such as step 3's), and for each pair of a branch what the frame's own
    bound leaves for it, since every branch costs at least the frame's optimum.
    """
    return _scs_run(_scs_frame((_shape(t1),), (_shape(t2),), floor), t1, t2, floor)


def _scs_walk(xs: tuple[int, ...], ys: tuple[int, ...]) -> Generator[tuple, int, set]:
    """Every minimum common supertree of two forests, as a set of forests,
    from a generator that yields to `_scs_run` the pairs it needs optima of.

    From the top pair, on an explicit stack, each pair keeps the branches
    whose 1 + v1 + v2 is its optimum (pruned as a frame prunes).  Then,
    lightest pair first, a pair's minimum forests are root(label, F1) + F2
    for each kept branch and minimum forests F1 and F2 of its two sub-pairs;
    with one side empty, the other side.  There are no others: cut a minimum
    C as `_scs_optimum`'s completeness argument cuts it, into the children of
    the root over a's image and the rest.  Each part is a common supertree of
    its sub-pair, and with the root they add up to the optimum, so each part
    is minimum and its branch is kept.
    """
    top = _key(xs, ys)
    kept: dict[tuple[tuple[int, ...], tuple[int, ...]], list] = {}
    stack = [top]
    while stack:
        key = stack.pop()
        if key in kept:
            continue
        kept[key] = branches = []
        if not key[0]:
            continue
        best = yield (*key, 0)
        for label, x1, y1, x2, y2, w1, w2 in _branches(*key, _weight(key[0]),
                                                        _weight(key[1])):
            if 1 + w1 + w2 > best:
                continue
            v1 = yield x1, y1, best - 1 - _weight(x2) - _weight(y2)
            if 1 + v1 + w2 > best:
                continue
            if 1 + v1 + (yield x2, y2, best - 1 - v1) == best:
                k1, k2 = _key(x1, y1), _key(x2, y2)
                branches.append((label, k1, k2))
                stack += (k1, k2)
    forests: dict[tuple[tuple[int, ...], tuple[int, ...]], set] = {}
    for key in sorted(kept, key=lambda k: _weight(k[0]) + _weight(k[1])):
        made = set() if key[0] else {key[1]}
        for label, k1, k2 in kept[key]:
            for f1 in forests[k1]:
                root = (_intern_node(label, f1),)
                made.update(tuple(sorted(f2 + root)) for f2 in forests[k2])
        forests[key] = made
    return forests[top]


def _scs_shapes(t1: Tree, t2: Tree) -> list[int]:
    """Every minimum common supertree shape of two unlabeled trees, whose
    roots can always share a node, in canonical-code order (`_scs_walk`)."""
    found = _scs_run(_scs_walk((_shape(t1),), (_shape(t2),)), t1, t2)
    return sorted((forest[0] for forest in found), key=_code)


def _code_rank(n: int, stop: tuple[int, ...]) -> int:
    """How many size-n trees come, in code order, up to and including the one
    with level sequence `stop`."""
    for rank, levels in enumerate(_level_sequences(n), 1):
        if levels == stop:
            return rank
    raise SolverDisagreement(f"{stop} is not a canonical size-{n} level sequence")


def _found(s: Tree, t: Tree) -> MinorEmbedding:
    """The witness search's first embedding of s into t, a supertree the
    forest recursion built, checked when found."""
    f = find_embedding(s, t)
    if f is None:
        raise SolverDisagreement(f"the witness search finds no embedding of {format_tree(s)} "
                                 f"into {format_tree(t)}, a supertree the forest recursion built")
    _require_built(check_embedding(f.mapping, s, t), "the searched embedding of an input")
    return f


def smallest_common_supertree(t1: Tree, t2: Tree, all_witnesses: bool = False,
                              cap: int = ENUM_CAP_DEFAULT) -> ScsResult:
    """Minimum-size tree containing both inputs as minors, with witnesses.

    The forest recursion gives the optimum (`_scs_optimum`), at most the
    root merge's |t1| + |t2| - 1, and then every minimum shape in code order
    (`_scs_shapes`).  The levels, from max(|t1|, |t2|) up, are what a scan
    of every tree of each size in code order would report: each level below
    the optimum, and the optimum's with `all_witnesses`, counts every tree
    of its size (`_tree_count`); the first-hit level counts up to the first
    shape (`_code_rank`, which walks the level).  So no level past `cap`
    is reported: reaching one raises `BudgetError`, before the recursion
    runs when the inputs are past it.  Only the witnesses become named
    `Tree`s, each with the first embedding of either input, checked (`_found`).
    """
    started = time.perf_counter()
    _require_solvable(t1, t2)
    if t1.labels or t2.labels:
        raise TreeError("supertree search enumerates unlabeled trees; "
                        "labeled inputs are not supported")

    start = max(t1.size, t2.size)
    n = None if start > cap else _scs_optimum(t1, t2)
    if n is None or n > cap:
        capped = max(start, cap + 1)  # the first level past the cap
        raise BudgetError(
            f"supertree search needs size-{capped} enumeration (cap {cap}); "
            f"every size below {capped} was exhaustively refuted", lower_bound=capped)
    shapes = _scs_shapes(t1, t2)
    sequences = [_levels_of(c) for c in (shapes if all_witnesses else shapes[:1])]
    levels = [LevelStats(k, _tree_count(k), 0) for k in range(start, n)]
    levels.append(LevelStats(n, _tree_count(n) if all_witnesses
                             else _code_rank(n, sequences[0]), len(sequences)))
    witnesses = [CommonTreeWitness(c, _found(t1, c), _found(t2, c))
                 for c in map(_tree_from_levels, sequences)]
    return ScsResult(n, witnesses, levels, (time.perf_counter() - started) * 1e3)
