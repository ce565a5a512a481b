"""Minor embeddings between rooted trees.

An injective node map f: S -> T is a minor embedding when every source arc
(a, b) maps to the (unique) target path f(a) ⇝ f(b) and no intermediate node
of that path lies in the image of f.  This module validates candidate maps,
enumerates all embeddings by backtracking, decides containment by memoized
tree inclusion over the shapes interned in `trees`, builds subset-induced
minors (the canonical witness form), and checks preservation of
incomparability.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Mapping

from .errors import EmbeddingError, MultiRootError, TreeError
from .trees import _KIDS, _LABEL, _SIZE, Tree, _shape, are_isomorphic


@dataclass
class MinorEmbedding:
    """A validated-or-candidate node map from `source` into `target`."""

    source: Tree
    target: Tree
    mapping: dict[str, str]

    def __getitem__(self, v: str) -> str:
        return self.mapping[v]

    @property
    def image(self) -> frozenset[str]:
        return frozenset(self.mapping.values())

    def to_json(self) -> dict[str, str]:
        return {v: self.mapping[v] for v in sorted(self.mapping)}


@dataclass(frozen=True)
class EmbeddingViolation:
    """Why a candidate map fails; `witness_node` is the offending image node."""

    arc: tuple[str, str] | None
    reason: str
    witness_node: str | None = None

    def __str__(self) -> str:
        where = f" on arc {self.arc[0]}->{self.arc[1]}" if self.arc else ""
        return self.reason + where

    def to_json(self) -> dict:
        out: dict = {"arc": list(self.arc) if self.arc else None, "reason": self.reason}
        if self.witness_node is not None:
            out["witness_node"] = self.witness_node
        return out


def _labels_compatible(s: Tree, a: str, t: Tree, b: str) -> bool:
    # Unlabeled trees are treated as identically labeled, so None == None.
    return s.labels.get(a) == t.labels.get(b)


def check_embedding(f: Mapping[str, str], s: Tree, t: Tree) -> list[EmbeddingViolation]:
    """Every way the map f fails to be a minor embedding of s into t.

    The empty list means f is valid.  Non-total or non-injective maps are
    reported as violations, not raised.
    """
    out = []
    for v in s.preorder:
        if v not in f:
            out.append(EmbeddingViolation(None, f"map is not total: {v} has no image"))
        elif f[v] not in t.nodes:
            out.append(EmbeddingViolation(
                None, f"image of {v} is not a target node", witness_node=str(f[v])))
    by_image: dict[str, list[str]] = {}
    for v in s.preorder:
        if v in f and f[v] in t.nodes:
            by_image.setdefault(f[v], []).append(v)
    for u, vs in sorted(by_image.items()):
        if len(vs) > 1:
            out.append(EmbeddingViolation(
                None, f"map is not injective: {', '.join(vs)} share image {u}",
                witness_node=u))
    for v in s.preorder:
        if v in f and f[v] in t.nodes and not _labels_compatible(s, v, t, f[v]):
            out.append(EmbeddingViolation(
                None, f"label of {v} differs from label of its image {f[v]}",
                witness_node=f[v]))

    image = set(by_image)
    for a, b in sorted(s.arcs):
        if not (a in f and b in f and f[a] in t.nodes and f[b] in t.nodes):
            continue
        if f[a] == f[b] or not t.reaches(f[a], f[b]):
            out.append(EmbeddingViolation(
                (a, b), f"no path {f[a]} ~> {f[b]} in the target"))
            continue
        for mid in t.path(f[a], f[b])[1:-1]:
            if mid in image:
                out.append(EmbeddingViolation(
                    (a, b), f"path {f[a]} ~> {f[b]} passes through image node {mid}",
                    witness_node=mid))
                break
    return out


def _require_valid(f: MinorEmbedding) -> None:
    violations = check_embedding(f.mapping, f.source, f.target)
    if violations:
        raise EmbeddingError(violations)


# -- subset-induced minors ----------------------------------------------------

def induced_minor(t: Tree, w: Iterable[str]) -> Tree:
    """The minor of t on node subset w: each node hangs off its nearest
    proper ancestor within w.

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
    roots = []
    arcs = []
    for v in sorted(w):
        p = t.parent(v)
        while p is not None and p not in w:
            p = t.parent(p)
        if p is None:
            roots.append(v)
        else:
            arcs.append((p, v))
    if len(roots) > 1:
        raise MultiRootError(roots)
    return Tree(w, arcs, roots[0],
                {v: s for v, s in t.labels.items() if v in w},
                {v: s for v, s in t.region_tags.items() if v in w})


# -- backtracking search -------------------------------------------------------

def enumerate_embeddings(s: Tree, t: Tree, limit: int | None = None) -> list[MinorEmbedding]:
    """All minor embeddings of s into t, in deterministic search order.

    Source nodes are matched in preorder; candidate images in sorted name
    order.  The source root may map anywhere; each later node is tried on
    the strict descendants of its parent's image.  A partial assignment is
    extended only while the path condition can still be met:

    * the candidate image is unused and is not an intermediate node of any
      committed arc path (``blocked``),
    * the path from the parent's image avoids every node already in the
      image (later assignments are fenced off by adding the path's
      intermediate nodes to ``blocked``).

    With `limit` the first k maps in search order are returned.
    """
    if s.root is None or t.root is None:
        raise TreeError("embedding enumeration needs non-empty trees")
    if s.size > t.size:
        return []

    order = s.preorder
    root_candidates = sorted(t.nodes)
    results: list[MinorEmbedding] = []
    assigned: dict[str, str] = {}
    used: set[str] = set()
    blocked: dict[str, int] = {}

    def place(i: int) -> bool:
        if i == len(order):
            results.append(MinorEmbedding(s, t, dict(assigned)))
            return limit is not None and len(results) >= limit
        v = order[i]
        p = s.parent(v)
        candidates = root_candidates if p is None else t.strict_descendants(assigned[p])
        for u in candidates:
            if u in used or blocked.get(u):
                continue
            if not _labels_compatible(s, v, t, u):
                continue
            mids: tuple[str, ...] = ()
            if p is not None:
                mids = t.path(assigned[p], u)[1:-1]
                if any(m in used for m in mids):
                    continue
            assigned[v] = u
            used.add(u)
            for m in mids:
                blocked[m] = blocked.get(m, 0) + 1
            stop = place(i + 1)
            for m in mids:
                blocked[m] -= 1
            used.discard(u)
            del assigned[v]
            if stop:
                return True
        return False

    place(0)
    return results


def find_embedding(s: Tree, t: Tree) -> MinorEmbedding | None:
    """First minor embedding of s into t in search order, or None."""
    found = enumerate_embeddings(s, t, limit=1)
    return found[0] if found else None


# -- inclusion decider -----------------------------------------------------------
# `_fits` is the unordered tree-inclusion recursion of Kilpelainen & Mannila
# (SIAM J. Comput. 24(2), 1995) on the shapes interned by `trees`, which it only
# reads.  Its memos live as long as the process: one serves a whole level scan.

_FITS: dict[tuple[int, int], bool] = {}
_PACKS: dict[tuple[tuple[int, ...], tuple[int, ...]], bool] = {}


def _fits(s: int, t: int) -> bool:
    """Shape s embeds into shape t: its root maps to t's root (equal labels,
    children packed into t's children) or s fits inside a child of t."""
    if _SIZE[s] >= _SIZE[t]:
        return s == t
    got = _FITS.get((s, t))
    if got is None:
        got = _FITS[s, t] = ((_LABEL[s] == _LABEL[t] and _packs(_KIDS[s], _KIDS[t]))
                             or any(_fits(s, c) for c in _KIDS[t]))
    return got


def _packs(forest: tuple[int, ...], into: tuple[int, ...]) -> bool:
    """The sorted shape forest `forest` embeds into the forest `into`: a DP
    over the sub-multisets of `forest` still to place (count vectors, so k
    equal trees cost k + 1 states, not 2^k), one target tree at a time.  A
    target tree takes nothing, one source tree anywhere in it, or a group of
    two or more strictly below its root (group roots stay incomparable)."""
    got = _PACKS.get((forest, into))
    if got is not None:
        return got
    kinds = sorted(set(forest))
    full = tuple(forest.count(k) for k in kinds)
    states = {full}
    for g in into:
        takes = []
        for take in product(*(range(c + 1) for c in full)):
            group = tuple(k for k, c in zip(kinds, take) for _ in range(c))
            if not group or (_fits(group[0], g) if len(group) == 1
                             else _packs(group, _KIDS[g])):
                takes.append(take)
        states = {tuple(r - c for r, c in zip(rest, take))
                  for rest in states for take in takes
                  if all(c <= r for c, r in zip(take, rest))}
    return _PACKS.setdefault((forest, into), (0,) * len(kinds) in states)


def is_minor(s: Tree, t: Tree) -> bool:
    """Whether s embeds into t as a minor.

    Sound shortcuts come first: a size-k source only fits a target of size
    >= k, and the longest source chain and the source leaf antichain must
    both fit.  The inclusion recursion over the shapes interned by `trees`
    decides the rest (at equal sizes it compares shape ids: every target
    node is then an image, so the embedding is an isomorphism);
    `find_embedding` builds witnesses.
    """
    if s.size > t.size or s.height > t.height or len(s.leaves) > len(t.leaves):
        return False
    if s.root is None:
        raise TreeError("minor containment needs non-empty trees")
    return _fits(_shape(s), _shape(t))


def is_minor_by_subsets(s: Tree, t: Tree) -> bool:
    """Subset oracle: some |s|-node subset of t induces a minor isomorphic to s.

    Independent of the backtracking search; it shares the shape table of
    `trees` with the inclusion recursion, since `are_isomorphic` compares
    shape ids.  Every minor of t is isomorphic to the induced minor on its
    image, so this is complete.
    """
    if s.size > t.size or s.root is None:
        return False
    for w in combinations(sorted(t.nodes), s.size):
        try:
            if are_isomorphic(induced_minor(t, w), s):
                return True
        except MultiRootError:
            pass
    return False


# -- incomparability -----------------------------------------------------------

def incomparable(t: Tree, a: str, b: str) -> bool:
    """True iff neither a ⇝ b nor b ⇝ a exists (a == b is comparable)."""
    return not (t.reaches(a, b) or t.reaches(b, a))


@dataclass(frozen=True)
class Lemma4Witness:
    """An incomparable source pair whose images are comparable (never expected)."""

    a: str
    b: str
    fa: str
    fb: str

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "fa": self.fa, "fb": self.fb}


def check_lemma4(f: MinorEmbedding) -> list[Lemma4Witness]:
    """Counterwitnesses to incomparability preservation under f.

    For every incomparable pair (a, b) in the source, the image pair must be
    incomparable in the target.  The returned list is expected to be empty
    for every valid embedding; a non-empty result would be a refutation.
    """
    _require_valid(f)
    s, t = f.source, f.target
    out = []
    nodes = sorted(s.nodes)
    for a, b in combinations(nodes, 2):
        if incomparable(s, a, b) and not incomparable(t, f[a], f[b]):
            out.append(Lemma4Witness(a, b, f[a], f[b]))
    return out


def map_path(f: MinorEmbedding, p: Iterable[str]) -> tuple[str, ...]:
    """Image of a source path: the concatenation of its arcs' witness paths."""
    _require_valid(f)
    p = tuple(p)
    if not p:
        raise TreeError("path must be non-empty")
    for v in p:
        if v not in f.source.nodes:
            raise TreeError(f"unknown node {v!r}")
    for a, b in zip(p, p[1:]):
        if (a, b) not in f.source.arcs:
            raise TreeError(f"not a path: ({a}, {b}) is not an arc")
    out = [f[p[0]]]
    for a, b in zip(p, p[1:]):
        out.extend(f.target.path(f[a], f[b])[1:])
    return tuple(out)
