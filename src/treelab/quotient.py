"""Quotient supergraph of two trees glued along a common minor.

Given trees t1, t2, a common minor `mu`, and embeddings g1: mu -> t1 and
g2: mu -> t2, the disjoint sum of t1 and t2 is quotiented by the relation
that merges g1(c) with g2(c) for every mu-node c.  The module builds that
quotient, checks its structural identities, applies the arc reduction
(drop every arc subsumed by an alternative path), and checks the two
uniqueness conditions whose failure the counterexample families exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import EmbeddingError, TreeError
from .trees import Digraph, Tree, node_str
from .embeddings import EmbeddingViolation, MinorEmbedding, check_embedding

TaggedNode = tuple  # (origin 1|2, node name)


@dataclass(frozen=True, order=True)
class ThetaClass:
    """One equivalence class of origin-tagged nodes (size 1 or 2)."""

    members: tuple[TaggedNode, ...]

    @property
    def label(self) -> str:
        return "+".join(node_str(m) for m in self.members)

    def __str__(self) -> str:
        return self.label

    def to_json(self) -> dict:
        return {"members": [node_str(m) for m in self.members]}


@dataclass
class ThetaRelation:
    """The gluing equivalence on the tagged node union of t1 and t2."""

    classes: tuple[ThetaClass, ...]
    class_of: dict[TaggedNode, ThetaClass]

    def pairs(self) -> frozenset[tuple[TaggedNode, TaggedNode]]:
        """All related ordered pairs (reflexive and symmetric by construction)."""
        out = set()
        for cls in self.classes:
            for a in cls.members:
                for b in cls.members:
                    out.add((a, b))
        return frozenset(out)


def _require_witness(t_mu: Tree, g1: MinorEmbedding, g2: MinorEmbedding) -> None:
    if g1.source != t_mu or g2.source != t_mu:
        raise EmbeddingError([EmbeddingViolation(
            None, "embedding source is not the given common minor")])
    for g in (g1, g2):
        bad = check_embedding(g.mapping, g.source, g.target)
        if bad:
            raise EmbeddingError(bad)


def build_theta(t_mu: Tree, g1: MinorEmbedding, g2: MinorEmbedding) -> ThetaRelation:
    """Relation merging (1, g1(c)) with (2, g2(c)) for every mu-node c.

    Exactly |mu| two-element classes plus a singleton for every node missed
    by the embeddings; injectivity of g1 and g2 makes this an equivalence
    with classes of size at most 2.
    """
    _require_witness(t_mu, g1, g2)
    t1, t2 = g1.target, g2.target
    merged_1 = {g1[c]: c for c in t_mu.nodes}
    merged_2 = {g2[c]: c for c in t_mu.nodes}

    classes = []
    class_of: dict[TaggedNode, ThetaClass] = {}
    for c in sorted(t_mu.nodes):
        cls = ThetaClass(tuple(sorted(((1, g1[c]), (2, g2[c])))))
        classes.append(cls)
        class_of[(1, g1[c])] = cls
        class_of[(2, g2[c])] = cls
    for origin, tree, hit in ((1, t1, merged_1), (2, t2, merged_2)):
        for v in sorted(tree.nodes):
            if v not in hit:
                cls = ThetaClass(((origin, v),))
                classes.append(cls)
                class_of[(origin, v)] = cls
    return ThetaRelation(tuple(sorted(classes)), class_of)


@dataclass
class QuotientGraph:
    """The quotient of t1 + t2 by the gluing relation, with projections.

    `ell1`/`ell2` send original node names to their classes; `mu_image` is
    the set of merged classes (the image of the common minor on both sides).
    The witness (t_mu, g1, g2) is kept as provenance so the structural
    identities can be re-verified extensionally.
    """

    classes: tuple[ThetaClass, ...]
    arcs: frozenset[tuple[ThetaClass, ThetaClass]]
    ell1: dict[str, ThetaClass]
    ell2: dict[str, ThetaClass]
    mu_image: frozenset[ThetaClass]
    t_mu: Tree
    g1: MinorEmbedding
    g2: MinorEmbedding

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
    copies of an arc collapse at construction)."""
    if g1.target != t1 or g2.target != t2:
        raise EmbeddingError([EmbeddingViolation(
            None, "embedding targets do not match the given trees")])
    theta = build_theta(t_mu, g1, g2)
    cls = theta.class_of
    arcs = set()
    for origin, tree in ((1, t1), (2, t2)):
        for a, b in tree.arcs:
            arcs.add((cls[(origin, a)], cls[(origin, b)]))
    ell1 = {v: cls[(1, v)] for v in t1.nodes}
    ell2 = {v: cls[(2, v)] for v in t2.nodes}
    mu_image = frozenset(cls[(1, g1[c])] for c in t_mu.nodes)
    return QuotientGraph(theta.classes, frozenset(arcs), ell1, ell2, mu_image,
                         t_mu, g1, g2)


def check_eq2_eq3(q: QuotientGraph) -> list[str]:
    """Extensionally verify the two set identities of the construction.

    The class set must equal the union of both projections' images, and the
    intersection of the images must coincide with the projected image of the
    common minor through either embedding.  Violations are returned, not
    raised; a fresh `build_quotient` output always passes, so this exists to
    catch corrupted or hand-built quotients.
    """
    out = []
    img1 = set(q.ell1.values())
    img2 = set(q.ell2.values())
    if img1 | img2 != set(q.classes):
        out.append("class set differs from the union of the projection images")
    via1 = {q.ell1[q.g1[c]] for c in q.t_mu.nodes}
    via2 = {q.ell2[q.g2[c]] for c in q.t_mu.nodes}
    if img1 & img2 != via1:
        out.append("projection-image intersection differs from the minor image via side 1")
    if via1 != via2:
        out.append("minor image differs between side 1 and side 2")
    if set(q.mu_image) != via1:
        out.append("stored mu_image differs from the recomputed minor image")
    return out


def reduce_quotient(q: QuotientGraph) -> Digraph:
    """Drop every arc (v, w) subsumed by an alternative path v ⇝ w.

    Subsumption is evaluated simultaneously against the original arc set
    (an arc may be witnessed away by other arcs that are themselves being
    removed), which makes the result order-independent.  Node set unchanged.
    """
    succ: dict[ThetaClass, list[ThetaClass]] = {c: [] for c in q.classes}
    for a, b in q.arcs:
        succ[a].append(b)

    def reachable_avoiding(v, w, banned_arc) -> bool:
        stack = [v]
        seen = {v}
        while stack:
            x = stack.pop()
            for y in succ[x]:
                if (x, y) == banned_arc:
                    continue
                if y == w:
                    return True
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return False

    kept = frozenset((v, w) for v, w in q.arcs
                     if not reachable_avoiding(v, w, (v, w)))
    return Digraph(frozenset(q.classes), kept)


@dataclass(frozen=True)
class Prop21Violation:
    kind: str  # "i" or "ii"
    v: ThetaClass
    w: ThetaClass
    paths: tuple[tuple[ThetaClass, ...], ...]
    reason: str

    def to_json(self) -> dict:
        return {"kind": self.kind, "v": self.v.label, "w": self.w.label,
                "paths": [[c.label for c in p] for p in self.paths],
                "reason": self.reason}


@dataclass
class Prop21Report:
    holds: bool
    violations: list[Prop21Violation]

    def to_json(self) -> dict:
        return {"holds": self.holds, "violations": [v.to_json() for v in self.violations]}


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


def check_prop21(q: QuotientGraph) -> Prop21Report:
    """Check the two path-uniqueness conditions claimed for the quotient.

    (i) when an arc (v, w) coexists with another path v ⇝ w: both ends must
    be merged classes, the alternative path must be unique, and none of its
    intermediate nodes may be a merged class.

    (ii) when two different paths v ⇝ w share no intermediate node: one of
    the two must be the arc (v, w) itself.

    Every violation is enumerated with its explicit paths.  The simple paths
    are enumerated by one depth-first walk per source class.
    """
    succ: dict[ThetaClass, list[ThetaClass]] = {c: [] for c in q.classes}
    for a, b in q.arcs:
        succ[a].append(b)
    for c in succ:
        succ[c].sort()

    violations: list[Prop21Violation] = []
    classes = sorted(q.classes)
    for v in classes:
        paths_to: dict[ThetaClass, list[tuple]] = {}
        for p in _simple_paths_from(succ, v):
            paths_to.setdefault(p[-1], []).append(p)
        for w in classes:
            paths = paths_to.get(w, ())
            if len(paths) < 2:
                continue
            arc_path = (v, w) if (v, w) in q.arcs else None

            if arc_path is not None:
                others = [p for p in paths if len(p) > 2]
                if others:
                    if v not in q.mu_image or w not in q.mu_image:
                        violations.append(Prop21Violation(
                            "i", v, w, tuple(others),
                            "arc with an alternative path between non-merged classes"))
                    if len(others) > 1:
                        violations.append(Prop21Violation(
                            "i", v, w, tuple(others),
                            "alternative path is not unique"))
                    for p in others:
                        hit = [c for c in p[1:-1] if c in q.mu_image]
                        if hit:
                            violations.append(Prop21Violation(
                                "i", v, w, (p,),
                                f"alternative path passes through merged class {hit[0].label}"))

            for p, r in combinations(paths, 2):
                if set(p[1:-1]) & set(r[1:-1]):
                    continue
                if p != arc_path and r != arc_path:
                    violations.append(Prop21Violation(
                        "ii", v, w, (p, r),
                        "two intermediate-disjoint paths, neither of which is the arc"))
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
