"""Quotient supergraph of two trees glued along a common minor.

Given trees t1, t2, a common minor `mu`, and embeddings g1: mu -> t1 and
g2: mu -> t2, the disjoint sum of t1 and t2 is quotiented by the relation
that merges g1(c) with g2(c) for every mu-node c.  The module builds that
quotient, checks its structural identities, applies the arc reduction
(drop every arc subsumed by an alternative path), and checks the two
uniqueness conditions whose failure the counterexample families exhibit.

The work runs on integers.  `_glue` numbers the classes 0..n-1 in the order
of their sorted members (t1's nodes by name, then t2's unmerged nodes by
name) and projects the arcs onto those ids; `_prop21_core` and
`_reduce_core` walk sorted int successor lists.  `ThetaClass` and
`QuotientGraph` are the boundary types: `build_quotient`, `check_prop21`
and `reduce_quotient` map ids to and from classes around the same cores
that the pair scan calls directly, and `_identities` is one check for
both.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Iterator, Mapping
from functools import total_ordering
from itertools import combinations

from .errors import EmbeddingError, TreeError
from .trees import Digraph, Tree, _FrozenRecord, _Record, node_str
from .embeddings import EmbeddingViolation, MinorEmbedding, check_embedding

TaggedNode = tuple  # (origin 1|2, node name)


@total_ordering
class ThetaClass(_FrozenRecord):
    """One equivalence class of origin-tagged nodes (size 1 or 2), ordered
    by its members."""

    __slots__ = ("members",)

    def __init__(self, members: tuple[TaggedNode, ...]):
        object.__setattr__(self, "members", members)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.members < other.members

    @property
    def label(self) -> str:
        return "+".join(node_str(m) for m in self.members)

    def __str__(self) -> str:
        return self.label

    def to_json(self) -> dict:
        return {"members": [node_str(m) for m in self.members]}


def _require_witness(t_mu: Tree, g1: MinorEmbedding, g2: MinorEmbedding) -> None:
    if g1.source != t_mu or g2.source != t_mu:
        raise EmbeddingError([EmbeddingViolation(
            None, "embedding source is not the given common minor")])
    for g in (g1, g2):
        bad = check_embedding(g.mapping, g.source, g.target)
        if bad:
            raise EmbeddingError(bad)


# -- the integer core ---------------------------------------------------------

def _glue(t1: Tree, t2: Tree, mu_nodes: Iterable[str], g1: Mapping[str, str],
          g2: Mapping[str, str]) -> tuple[dict[str, int], dict[str, int], int,
                                          set[tuple[int, int]], frozenset[int]]:
    """The quotient of t1 + t2 merging g1(c) with g2(c), on class ids.

    Returns the class of every t1 node, the class of every t2 node, the
    class count, the arcs and the merged classes.  t1's nodes take the ids
    0..|t1|-1 in name order and t2's unmerged nodes the next ids in name
    order, so the ids follow the sorted order of the classes' members.  The
    arcs are every arc of t1 and t2 projected onto the ids, with parallel
    copies collapsed.
    """
    class_of1 = {v: i for i, v in enumerate(sorted(t1.nodes))}
    merged = {g2[c]: class_of1[g1[c]] for c in mu_nodes}
    n = len(class_of1)
    class_of2 = {}
    for v in sorted(t2.nodes):
        if v in merged:
            class_of2[v] = merged[v]
        else:
            class_of2[v] = n
            n += 1
    arcs = {(class_of1[a], class_of1[b]) for a, b in t1.arcs}
    arcs.update((class_of2[a], class_of2[b]) for a, b in t2.arcs)
    return class_of1, class_of2, n, arcs, frozenset(merged.values())


def _identities(classes: Iterable, ell1: Mapping, ell2: Mapping,
                mu_nodes: Iterable[str], g1: Mapping[str, str],
                g2: Mapping[str, str], mu_image: Iterable) -> list[str]:
    """The two set identities of the construction, checked extensionally on
    classes of any kind (ids in the scan, `ThetaClass`es in `check_eq2_eq3`).

    The class set must equal the union of both projections' images, and the
    intersection of the images must coincide with the projected image of the
    common minor through either embedding.
    """
    out = []
    img1 = set(ell1.values())
    img2 = set(ell2.values())
    if img1 | img2 != set(classes):
        out.append("class set differs from the union of the projection images")
    via1 = {ell1[g1[c]] for c in mu_nodes}
    via2 = {ell2[g2[c]] for c in mu_nodes}
    if img1 & img2 != via1:
        out.append("projection-image intersection differs from the minor image via side 1")
    if via1 != via2:
        out.append("minor image differs between side 1 and side 2")
    if set(mu_image) != via1:
        out.append("stored mu_image differs from the recomputed minor image")
    return out


def _successors(n: int, arcs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The sorted successor list of each of the class ids 0..n-1."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for a, b in arcs:
        succ[a].append(b)
    for out in succ:
        out.sort()
    return succ


def _reaches_around(succ: list[list[int]], v: int, w: int) -> bool:
    """Whether a walk from v reaches w without using the arc (v, w)."""
    stack, seen = [v], {v}
    while stack:
        x = stack.pop()
        for y in succ[x]:
            if y == w:
                if x != v:
                    return True
            elif y not in seen:
                seen.add(y)
                stack.append(y)
    return False


def _reduce_core(succ: list[list[int]]) -> list[tuple[int, int]]:
    """The arcs (v, w) that no alternative path v ⇝ w subsumes.

    Subsumption is evaluated against the whole arc set (an arc may be
    witnessed away by arcs that are themselves dropped), which makes the
    result order-independent.
    """
    return [(v, w) for v, out in enumerate(succ) for w in out
            if not _reaches_around(succ, v, w)]


def _simple_paths_from(succ, v) -> Iterator[tuple]:
    """Every simple directed path from v with at least one arc (endpoints
    included), in depth-first order over the successor lists.

    The open path is kept on an explicit stack of successor iterators, so its
    length is not limited by the interpreter's recursion limit.  The paths
    ending at any one node w come in the order of a depth-first search for
    v ⇝ w alone: extending a path past w only adds paths to other ends.
    """
    path = [v]
    on_path = {v}
    pending = [iter(succ[v])]
    while pending:
        y = next(pending[-1], None)
        if y is None:
            pending.pop()
            on_path.discard(path.pop())
        elif y not in on_path:
            path.append(y)
            on_path.add(y)
            yield tuple(path)
            pending.append(iter(succ[y]))


def _above_joins(succ: list[list[int]]) -> list[bool]:
    """For each class, whether a path of one or more arcs leads from it to a
    class with two or more in-arcs."""
    preds: list[list[int]] = [[] for _ in succ]
    for a, out in enumerate(succ):
        for b in out:
            preds[b].append(a)
    above = [False] * len(succ)
    stack = [a for into in preds if len(into) > 1 for a in into]
    while stack:
        a = stack.pop()
        if not above[a]:
            above[a] = True
            stack.extend(preds[a])
    return above


def _prop21_core(succ: list[list[int]], merged: Collection[int],
                 label: Callable[[int], str] = str) -> list[tuple]:
    """Violations of the two path-uniqueness conditions, as
    ``(kind, v, w, paths, reason)`` tuples ordered by v, then w.

    (i) when an arc (v, w) coexists with another path v ⇝ w: both ends must
    be merged classes, the alternative path must be unique, and none of its
    intermediate nodes may be a merged class.

    (ii) when two different paths v ⇝ w share no intermediate node: one of
    the two must be the arc (v, w) itself.

    The simple paths are enumerated by one depth-first walk per source over
    the sorted successor lists.  Two different simple paths v ⇝ w both enter
    some class, at the latest w, by different arcs; that class has two
    in-arcs and v reaches it.  So a source above no such class has at most
    one path to each end and is not walked.
    `label` names the merged class in a reason.
    """
    found: list[tuple] = []
    for v, walk in enumerate(_above_joins(succ)):
        if not walk:
            continue
        paths_to: dict[int, list[tuple]] = {}
        for p in _simple_paths_from(succ, v):
            paths_to.setdefault(p[-1], []).append(p)
        for w in sorted(paths_to):
            paths = paths_to[w]
            if len(paths) < 2:
                continue
            others = [p for p in paths if len(p) > 2]
            if len(others) < len(paths):  # the arc (v, w) is one of the paths
                if v not in merged or w not in merged:
                    found.append(("i", v, w, tuple(others),
                                  "arc with an alternative path between non-merged classes"))
                if len(others) > 1:
                    found.append(("i", v, w, tuple(others),
                                  "alternative path is not unique"))
                for p in others:
                    hit = next((c for c in p[1:-1] if c in merged), None)
                    if hit is not None:
                        found.append(("i", v, w, (p,), "alternative path passes "
                                      f"through merged class {label(hit)}"))
            for p, r in combinations(others, 2):
                if set(p[1:-1]).isdisjoint(r[1:-1]):
                    found.append(("ii", v, w, (p, r), "two intermediate-disjoint "
                                  "paths, neither of which is the arc"))
    return found


# -- the boundary types ---------------------------------------------------------

class QuotientGraph(_Record):
    """The quotient of t1 + t2 by the gluing relation, with projections.

    `ell1`/`ell2` send original node names to their classes; `mu_image` is
    the set of merged classes (the image of the common minor on both sides).
    The witness (t_mu, g1, g2) is kept as provenance so the structural
    identities can be re-verified extensionally.
    """

    __slots__ = ("classes", "arcs", "ell1", "ell2", "mu_image", "t_mu", "g1", "g2")

    def __init__(self, classes: tuple[ThetaClass, ...],
                 arcs: frozenset[tuple[ThetaClass, ThetaClass]],
                 ell1: dict[str, ThetaClass], ell2: dict[str, ThetaClass],
                 mu_image: frozenset[ThetaClass], t_mu: Tree,
                 g1: MinorEmbedding, g2: MinorEmbedding):
        self.classes = classes
        self.arcs = arcs
        self.ell1 = ell1
        self.ell2 = ell2
        self.mu_image = mu_image
        self.t_mu = t_mu
        self.g1 = g1
        self.g2 = g2

    @property
    def t1(self) -> Tree:
        return self.g1.target

    @property
    def t2(self) -> Tree:
        return self.g2.target

    def to_digraph(self) -> Digraph:
        return Digraph(frozenset(self.classes), self.arcs)

    def class_of_member(self, origin: int, name: str) -> ThetaClass:
        """Class containing the tagged node, e.g. class_of_member(1, 'a')."""
        side = self.ell1 if origin == 1 else self.ell2
        if name not in side:
            raise TreeError(f"unknown node {name!r} on side {origin}")
        return side[name]

    def to_json(self) -> dict:
        return {
            "classes": [dict(c.to_json(), in_mu_image=(c in self.mu_image))
                        for c in self.classes],
            "arcs": sorted([a.label, b.label] for a, b in self.arcs),
        }


def build_quotient(t1: Tree, t2: Tree, t_mu: Tree,
                   g1: MinorEmbedding, g2: MinorEmbedding) -> QuotientGraph:
    """Quotient graph: classes from the gluing relation, arcs projected from
    every arc of t1 and t2 through the class map (set semantics, so parallel
    copies of an arc collapse at construction).

    Exactly |mu| two-element classes plus a singleton for every node missed
    by the embeddings; injectivity of g1 and g2 makes the relation an
    equivalence with classes of size at most 2.
    """
    if g1.target != t1 or g2.target != t2:
        raise EmbeddingError([EmbeddingViolation(
            None, "embedding targets do not match the given trees")])
    _require_witness(t_mu, g1, g2)
    class_of1, class_of2, n, arcs, mu_ids = _glue(t1, t2, t_mu.nodes,
                                                  g1.mapping, g2.mapping)
    members: list[list[TaggedNode]] = [[] for _ in range(n)]
    for origin, class_of in ((1, class_of1), (2, class_of2)):
        for v, i in class_of.items():
            members[i].append((origin, v))
    classes = tuple(ThetaClass(tuple(m)) for m in members)
    return QuotientGraph(classes, frozenset((classes[a], classes[b]) for a, b in arcs),
                         {v: classes[i] for v, i in class_of1.items()},
                         {v: classes[i] for v, i in class_of2.items()},
                         frozenset(classes[i] for i in mu_ids), t_mu, g1, g2)


def check_eq2_eq3(q: QuotientGraph) -> list[str]:
    """Extensionally verify the two set identities of the construction
    (`_identities`).  Violations are returned, not raised; a fresh
    `build_quotient` output always passes, so this exists to catch corrupted
    or hand-built quotients."""
    return _identities(q.classes, q.ell1, q.ell2, q.t_mu.nodes, q.g1.mapping,
                       q.g2.mapping, q.mu_image)


def _numbered(q: QuotientGraph) -> tuple[list[ThetaClass], list[list[int]], set[int]]:
    """q's classes in sorted order, with its successor lists and its merged
    classes as indices into that order."""
    classes = sorted(q.classes)
    index = {c: i for i, c in enumerate(classes)}
    succ = _successors(len(classes), ((index[a], index[b]) for a, b in q.arcs))
    return classes, succ, {index[c] for c in q.mu_image if c in index}


def reduce_quotient(q: QuotientGraph) -> Digraph:
    """Drop every arc (v, w) subsumed by an alternative path v ⇝ w
    (`_reduce_core`).  Node set unchanged."""
    classes, succ, _ = _numbered(q)
    return Digraph(frozenset(q.classes),
                   frozenset((classes[v], classes[w]) for v, w in _reduce_core(succ)))


class Prop21Violation(_FrozenRecord):
    __slots__ = ("kind", "v", "w", "paths", "reason")

    def __init__(self, kind: str, v: ThetaClass, w: ThetaClass,
                 paths: tuple[tuple[ThetaClass, ...], ...], reason: str):
        object.__setattr__(self, "kind", kind)  # "i" or "ii"
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "reason", reason)

    def to_json(self) -> dict:
        return {"kind": self.kind, "v": self.v.label, "w": self.w.label,
                "paths": [[c.label for c in p] for p in self.paths],
                "reason": self.reason}


class Prop21Report(_Record):
    __slots__ = ("holds", "violations")

    def __init__(self, holds: bool, violations: list[Prop21Violation]):
        self.holds = holds
        self.violations = violations

    def to_json(self) -> dict:
        return {"holds": self.holds, "violations": [v.to_json() for v in self.violations]}


def check_prop21(q: QuotientGraph) -> Prop21Report:
    """Check the two path-uniqueness conditions claimed for the quotient
    (`_prop21_core`); every violation is reported with its explicit paths."""
    classes, succ, merged = _numbered(q)
    violations = [
        Prop21Violation(kind, classes[v], classes[w],
                        tuple(tuple(classes[i] for i in p) for p in paths), reason)
        for kind, v, w, paths, reason in _prop21_core(succ, merged,
                                                      lambda i: classes[i].label)]
    return Prop21Report(not violations, violations)


def eq4_prediction(t1: Tree, t2: Tree, lcs_size: int) -> int:
    """The refuted linear size prediction |t1| + |t2| - |common minor|."""
    if lcs_size > min(t1.size, t2.size) or lcs_size < 0:
        raise TreeError(f"impossible common-minor size {lcs_size}")
    return t1.size + t2.size - lcs_size


def quotient_to_dot(q: QuotientGraph, reduced: Digraph | None = None) -> str:
    """DOT rendering: merged classes get a double border; when `reduced` is
    given, dropped arcs are drawn dashed."""
    lines = ["digraph {"]
    for c in sorted(q.classes):
        attrs = [f'label="{c.label}"']
        if len(c.members) == 2:
            attrs.append("peripheries=2")
        if c in q.mu_image:
            attrs.append('style="filled" fillcolor="lightyellow"')
        lines.append(f'  "{c.label}" [{" ".join(attrs)}];')
    for a, b in sorted(q.arcs):
        style = ""
        if reduced is not None and (a, b) not in reduced.arcs:
            style = ' [style="dashed"]'
        lines.append(f'  "{a.label}" -> "{b.label}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"
