"""Minor embeddings between rooted trees.

An injective node map f: S -> T is a minor embedding when every source arc
(a, b) maps to the (unique) target path f(a) ⇝ f(b) and no intermediate node
of that path lies in the image of f.  This module validates candidate maps,
yields all embeddings lazily from one backtracking search on an explicit
stack, decides containment by memoized tree inclusion over the shapes
interned in `trees` (a shape pair is refused at once by the size, height
and leaf count the shape table holds), builds subset-induced minors (the
canonical witness form), and checks preservation of incomparability.  The
checker groups and sorts its report only for a map that fails.  What a failed
check means is decided here alone: a map a caller handed in is bad input
(`_require_valid`), a map the library built a fault in treelab (`_require_built`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import combinations, islice

from .errors import BudgetError, EmbeddingError, MultiRootError, SolverDisagreement, TreeError
from .trees import (_HEIGHT, _KIDS, _LABEL, _LEAVES, _SIZE, Tree, _FrozenRecord, _Record,
                    _shape, _splits)

#: Most maps `enumerate_embeddings` lists without a `limit`; about 80 times the
#: most any test lists so (120, a 5-node source into a 6-node target).  A 6-node
#: star has 55,440 maps into a 12-node star (1 s, 120 MB), an 8-node one
#: 8,648,640 into a 14-node one.
EMBEDDING_BUDGET = 10_000


class MinorEmbedding(_Record):
    """A validated-or-candidate node map from `source` into `target`."""

    __slots__ = ("source", "target", "mapping")

    def __getitem__(self, v: str) -> str:
        return self.mapping[v]

    def to_json(self) -> dict[str, str]:
        return {v: self.mapping[v] for v in sorted(self.mapping)}


class EmbeddingViolation(_FrozenRecord):
    """Why a candidate map fails; `witness_node` is the offending image node."""

    __slots__ = ("arc", "reason", "witness_node")
    _defaults = {"witness_node": lambda: None}

    def __str__(self) -> str:
        where = f" on arc {self.arc[0]}->{self.arc[1]}" if self.arc else ""
        return self.reason + where

    def to_json(self) -> dict:
        out: dict = {"arc": list(self.arc) if self.arc else None, "reason": self.reason}
        if self.witness_node is not None:
            out["witness_node"] = self.witness_node
        return out


def check_embedding(f: Mapping[str, str], s: Tree, t: Tree) -> list[EmbeddingViolation]:
    """Every way the map f fails to be a minor embedding of s into t.

    The empty list means f is valid.  Non-total or non-injective maps are
    reported as violations, not raised.
    """
    return _violations(f, s.preorder, s.arcs, s.labels, t.root, t._parent, t.labels)


def _violations(f: Mapping, order: Sequence[str], arcs: Iterable[tuple[str, str]],
                labels: Mapping[str, str], root: str | int | None, up: Mapping,
                target_labels: Mapping) -> list[EmbeddingViolation]:
    """`check_embedding` for a source given by its nodes in preorder, its arcs
    and its labels, into a target given by its root, the parent of every other
    node (`up`) and its labels (unlabeled nodes are treated as identically
    labeled), so the pair scan checks its witnesses and quotient trees, and
    the tests their merged supertrees, without building them as `Tree`s.  An
    arc's path is walked up from the image of its lower end, and the first
    image node on it is reported counting from the top, as `Tree.path` lists
    the path.  The reports are grouped by image and the arcs ordered only
    when a map fails, so checking a valid map sorts nothing."""
    out = []
    placed = {}  # each source node whose image is a target node, in preorder
    for v in order:
        if v not in f:
            out.append(EmbeddingViolation(None, f"map is not total: {v} has no image"))
        elif f[v] in up or (root is not None and f[v] == root):
            placed[v] = f[v]
        else:
            out.append(EmbeddingViolation(
                None, f"image of {v} is not a target node", witness_node=str(f[v])))
    images = set(placed.values())
    if len(images) < len(placed):
        by_image: dict = {}
        for v, u in placed.items():
            by_image.setdefault(u, []).append(v)
        for u, vs in sorted(by_image.items()):
            if len(vs) > 1:
                out.append(EmbeddingViolation(
                    None, f"map is not injective: {', '.join(vs)} share image {u}",
                    witness_node=u))
    for v, u in placed.items():
        if labels.get(v) != target_labels.get(u):
            out.append(EmbeddingViolation(
                None, f"label of {v} differs from label of its image {u}", witness_node=u))

    bad_arcs = []
    for a, b in arcs:
        if a not in placed or b not in placed:
            continue
        top, low = placed[a], placed[b]
        mids, m = [], up.get(low)
        while m is not None and m != top:
            mids.append(m)
            m = up.get(m)
        if m is None:  # top is low or not above it
            bad_arcs.append(EmbeddingViolation((a, b), f"no path {top} ~> {low} in the target"))
            continue
        for mid in reversed(mids):
            if mid in images:
                bad_arcs.append(EmbeddingViolation(
                    (a, b), f"path {top} ~> {low} passes through image node {mid}",
                    witness_node=mid))
                break
    out.extend(sorted(bad_arcs, key=lambda bad: bad.arc))
    return out


def _require_valid(f: MinorEmbedding, source: Tree, target: Tree) -> None:
    """A map a caller handed in must relate `source` to `target` and be valid:
    `EmbeddingError` otherwise, bad input."""
    bad = (check_embedding(f.mapping, source, target) if (f.source, f.target) == (source, target)
           else [EmbeddingViolation(None, "embedding does not relate the given trees")])
    if bad:
        raise EmbeddingError(bad)


def _require_built(violations: list[EmbeddingViolation], what: str) -> None:
    """A map the library built must pass its check: `SolverDisagreement`,
    naming `what` and the first of its `violations`, otherwise, a fault."""
    if violations:
        raise SolverDisagreement(f"{what}: {violations[0]}")


# -- subset-induced minors ----------------------------------------------------

def induced_minor(t: Tree, w: Iterable[str]) -> Tree:
    """The minor of t on node subset w: each node hangs off its nearest
    proper ancestor within w, as `_induced_preorder` reads it.

    Fails with `MultiRootError` when more than one w-node has no proper
    w-ancestor.  The identity map w -> V(t) of the result is always a valid
    minor embedding into t.
    """
    w = frozenset(w)
    if not w:
        raise TreeError("subset must be non-empty")
    extra = w - t.nodes
    if extra:
        raise TreeError(f"subset contains unknown nodes: {sorted(extra)}")
    order, parent = _induced_preorder(t, w)
    return Tree(order, [(order[p], v) for v, p in zip(order, parent) if p >= 0], order[0],
                {v: s for v, s in t.labels.items() if v in w},
                {v: s for v, s in t.region_tags.items() if v in w})


def _induced_preorder(t: Tree, w: Iterable[str]) -> tuple[list[str], list[int]]:
    """The minor of t on its node subset w without the `Tree`, the one reader
    of it that `induced_minor` and `solvers._InducedMinor` share: its nodes in
    preorder (children in name order) and the preorder position of each one's
    parent (-1 at the root).  Each node hangs off its nearest proper ancestor
    in w; `MultiRootError` names the nodes of w that have none, when there
    are several."""
    w = frozenset(w)
    roots, kids = [], {}
    up = t._parent
    for v in sorted(w):  # so each child list is in name order
        p = up.get(v)
        while p is not None and p not in w:
            p = up.get(p)
        if p is None:
            roots.append(v)
        else:
            kids.setdefault(p, []).append(v)
    if len(roots) > 1:
        raise MultiRootError(roots)
    order, parent, stack = [], [], [(roots[0], -1)]
    while stack:
        v, p = stack.pop()
        parent.append(p)
        order.append(v)
        stack.extend((c, len(order) - 1) for c in reversed(kids.get(v, ())))
    return order, parent


# -- backtracking search -------------------------------------------------------

def enumerate_embeddings(s: Tree, t: Tree, limit: int | None = None) -> list[MinorEmbedding]:
    """All minor embeddings of s into t, in deterministic search order.

    Source nodes are matched in preorder; candidate images in sorted name
    order (see `_search` for the pruning).  With `limit` (at least 1) the
    first `limit` maps in search order are returned.  Without one, more than
    `EMBEDDING_BUDGET` maps raise `BudgetError`, since the count is
    exponential in the sizes.
    """
    if limit is not None and limit < 1:
        raise TreeError(f"embedding limit must be at least 1, got {limit}")
    found = list(islice(_embeddings(s, t), EMBEDDING_BUDGET + 1 if limit is None else limit))
    if limit is None and len(found) > EMBEDDING_BUDGET:
        raise BudgetError(f"embedding enumeration limited to {EMBEDDING_BUDGET} maps "
                          f"(EMBEDDING_BUDGET) and more exist; list the first N with --limit N")
    return found


def find_embedding(s: Tree, t: Tree) -> MinorEmbedding | None:
    """First minor embedding of s into t in search order, or None."""
    return next(_embeddings(s, t), None)


def _embeddings(s: Tree, t: Tree) -> Iterator[MinorEmbedding]:
    """The minor embeddings of s into t, as `_search` yields them."""
    if s.root is None or t.root is None:
        raise TreeError("embedding enumeration needs non-empty trees")
    order = s.preorder
    parent = [s._tin[s._parent[v]] if v in s._parent else -1 for v in order]
    return (MinorEmbedding(s, t, dict(zip(order, images)))
            for images in _search(parent, [s.labels.get(v) for v in order], t))


def _search(parent: list[int], labels: list[str | None], t: Tree) -> Iterator[list[str]]:
    """The minor embeddings into t of the source whose preorder position i
    has parent position `parent[i]` (-1 at the root) and label `labels[i]`,
    each as the image of every position, yielded lazily in search order.

    Positions are placed in order on an explicit stack, so depth is never a
    limit.  The root may map anywhere; each later position is tried on the
    strict descendants of its parent's image, in name order.  A candidate is
    taken only while the path condition can still be met: it is unused, is
    not an intermediate node of any committed arc path (``blocked``), its
    subtree has at least as many nodes as the position's, and the path from
    the parent's image avoids every node already in the image (its
    intermediate nodes are then fenced off in ``blocked``).
    """
    n = len(parent)
    if n > t.size:
        return
    need = [1] * n  # each position's subtree size
    for i in range(n - 1, 0, -1):
        need[parent[i]] += need[i]
    up, target_labels, tin, tout = t._parent, t.labels, t._tin, t._tout
    roots = sorted(t.nodes)
    image: list[str | None] = [None] * n
    mids: list[list[str]] = [[] for _ in range(n)]
    candidates: list[tuple[str, ...] | list[str]] = [roots] * n
    tried = [0] * n  # how many of position i's candidates have been taken or passed
    used: set[str] = set()
    blocked: dict[str, int] = {}
    i = 0
    while i >= 0:
        u = image[i]
        if u is not None:  # retract position i's placement before moving on
            used.discard(u)
            for m in mids[i]:
                blocked[m] -= 1
            image[i] = None
        options, j = candidates[i], tried[i]
        above = image[parent[i]] if parent[i] >= 0 else None
        label, size = labels[i], need[i]
        while j < len(options):
            u = options[j]
            j += 1
            if (u in used or blocked.get(u) or target_labels.get(u) != label
                    or tout[u] - tin[u] < size):
                continue
            path = []
            if above is not None:
                m = up[u]
                while m != above:
                    path.append(m)
                    m = up[m]
                if any(m in used for m in path):
                    continue
            image[i] = u
            used.add(u)
            mids[i] = path
            for m in path:
                blocked[m] = blocked.get(m, 0) + 1
            break
        tried[i] = j
        if image[i] is None:
            i -= 1
        elif i + 1 == n:
            yield list(image)
        else:
            i += 1
            candidates[i] = t.strict_descendants(image[parent[i]])
            tried[i] = 0



# -- inclusion decider -----------------------------------------------------------
# `_fits` is the unordered tree-inclusion recursion of Kilpelainen & Mannila
# (SIAM J. Comput. 24(2), 1995) on the shapes interned by `trees`, which it only
# reads.  Its memos live as long as the process: one serves a whole level scan.

_FITS: dict[tuple[int, int], bool] = {}
_PACKS: dict[tuple[tuple[int, ...], tuple[int, ...]], bool] = {}


def _fits(s: int, t: int) -> bool:
    """Shape s embeds into shape t: its root maps to t's root (equal labels,
    children packed into t's children) or s fits inside a child of t.  A
    source that is larger, taller or has more leaves is refused at once."""
    if _SIZE[s] >= _SIZE[t]:
        return s == t
    if _HEIGHT[s] > _HEIGHT[t] or _LEAVES[s] > _LEAVES[t]:
        return False  # a chain maps to a chain, and leaves to incomparable nodes
    got = _FITS.get((s, t))
    if got is None:
        got = _FITS[s, t] = ((_LABEL[s] == _LABEL[t] and _packs(_KIDS[s], _KIDS[t]))
                             or any(_fits(s, c) for c in _KIDS[t]))
    return got


def _packs(forest: tuple[int, ...], into: tuple[int, ...]) -> bool:
    """The sorted shape forest `forest` embeds into the forest `into`: a DP
    over the parts of `forest` still to place, one target tree at a time, in
    plain loops (one Python frame per target level).  Each target tree takes
    a split of what is left (`trees._splits`): nothing, one source tree
    anywhere in it, or two or more strictly below its root (kept incomparable)."""
    got = _PACKS.get((forest, into))
    if got is not None:
        return got
    states = {forest}
    for g in into:
        left = set()
        for rest in states:
            for part, remains, _ in _splits(rest):
                if not part or (_fits(part[0], g) if len(part) == 1
                                else _packs(part, _KIDS[g])):
                    left.add(remains)
        states = left
    return _PACKS.setdefault((forest, into), () in states)


def is_minor(s: Tree, t: Tree) -> bool:
    """Whether s embeds into t as a minor.

    The inclusion recursion `_fits` over the shapes interned by `trees`
    decides it, with sound shortcuts first at every shape pair: a size-k
    source only fits a target of size >= k, and the longest source chain and
    the source leaf antichain must both fit (at equal sizes it compares
    shape ids: every target node is then an image, so the embedding is an
    isomorphism); `find_embedding` builds witnesses.
    """
    if s.root is None:
        raise TreeError("minor containment needs non-empty trees")
    return t.root is not None and _fits(_shape(s), _shape(t))


# -- incomparability -----------------------------------------------------------

def incomparable(t: Tree, a: str, b: str) -> bool:
    """True iff neither a ⇝ b nor b ⇝ a exists (a == b is comparable)."""
    return not (t.reaches(a, b) or t.reaches(b, a))


class Lemma4Witness(_FrozenRecord):
    """An incomparable source pair whose images are comparable (never expected)."""

    __slots__ = ("a", "b", "fa", "fb")

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "fa": self.fa, "fb": self.fb}


def check_lemma4(f: MinorEmbedding) -> list[Lemma4Witness]:
    """Counterwitnesses to incomparability preservation under f.

    For every incomparable pair (a, b) in the source, the image pair must be
    incomparable in the target.  The returned list is expected to be empty
    for every valid embedding; a non-empty result would be a refutation.
    """
    _require_valid(f, f.source, f.target)
    s, t = f.source, f.target
    out = []
    nodes = sorted(s.nodes)
    for a, b in combinations(nodes, 2):
        if incomparable(s, a, b) and not incomparable(t, f[a], f[b]):
            out.append(Lemma4Witness(a, b, f[a], f[b]))
    return out
