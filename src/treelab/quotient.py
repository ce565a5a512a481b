"""Quotient supergraph of two trees glued along a common minor.

Given trees t1, t2, a common minor `mu`, and embeddings g1: mu -> t1 and
g2: mu -> t2, the disjoint sum of t1 and t2 is quotiented by the relation
that merges g1(c) with g2(c) for every mu-node c.  The module builds that
quotient, checks its structural identities, applies the arc reduction
(drop every arc subsumed by an alternative path), and checks the two
uniqueness conditions whose failure the counterexample families exhibit.

The work runs on integers.  `_glue` numbers the classes 0..n-1 in the order
of their sorted members (t1's nodes by name, then t2's unmerged nodes by
name) and gives each its sorted in-neighbours (`ups`, at most one from each
side, from each tree's parent indices in name order, `_name_ids`), the one
form of the quotient's arcs.  `ThetaClass` and `QuotientGraph` are the
boundary types: `build_quotient`, `check_prop21` and `reduce_quotient` map
ids and `ups` to and from classes and arcs around the same cores that the
pair scan calls directly, and `_identities` is one check for both.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Iterator, Mapping
from functools import total_ordering
from itertools import combinations, count

from .errors import BudgetError, TreeError
from .trees import Digraph, Tree, _FrozenRecord, _Record, node_str
from .embeddings import MinorEmbedding, _require_valid

TaggedNode = tuple  # (origin 1|2, node name)

#: Most simple paths plus pairs of paths to one end that one path-uniqueness
#: check (`_prop21_core`) may enumerate and compare, over all its sources; about
#: 80 times the most seen: 78 in a quotient of scan 7 (47 paths, 31 pairs), 129
#: in one of scan 8, 29 on the headline.  Two 3,000-node chains glued at top and
#: bottom (about n^2 paths of up to n classes) and ladders of 10 or more diamonds
#: (2^k paths to the bottom) then stop in well under a second, not minutes.
PATH_BUDGET = 10_000


@total_ordering
class ThetaClass(_FrozenRecord):
    """One equivalence class of origin-tagged nodes (size 1 or 2), ordered
    by its members."""

    __slots__ = ("members",)

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


# -- the integer core ---------------------------------------------------------

def _name_ids(t: Tree) -> tuple[list[str], dict[str, int], list[int]]:
    """t's nodes in name order, the index of each, and the index of each
    one's parent (-1 at the root); made once per tree and kept on it."""
    ids = t._tables.get(_name_ids)
    if ids is None:
        names = sorted(t.nodes)
        index = {v: i for i, v in enumerate(names)}
        up = [index[t._parent[v]] if v != t.root else -1 for v in names]
        ids = t._tables[_name_ids] = (names, index, up)
    return ids


def _glue(t1: Tree, t2: Tree, mu_nodes: Iterable[str], g1: Mapping[str, str],
          g2: Mapping[str, str]) -> tuple[dict[str, int], dict[str, int], int,
                                          list[list[int]], frozenset[int]]:
    """The quotient of t1 + t2 merging g1(c) with g2(c), on class ids.

    Returns the class of every t1 node (a table kept on t1: read it, do not
    change it), the class of every t2 node, the class count, each class's
    sorted distinct in-neighbours (`ups`: every arc of t1 and t2 projected
    onto the ids) and the merged classes.  t1's nodes take the ids 0..|t1|-1
    in name order and t2's unmerged nodes the next ids in name order, so the
    ids follow the sorted order of the classes' members.
    """
    _, class_of1, up1 = _name_ids(t1)
    names2, index2, up2 = _name_ids(t2)
    merged = {index2[g2[c]]: class_of1[g1[c]] for c in mu_nodes}
    fresh = count(t1.size)
    ids2 = [merged[i] if i in merged else next(fresh) for i in range(len(up2))]
    ups = [[p] if p >= 0 else [] for p in up1] + [[] for _ in range(len(up2) - len(merged))]
    for b, p in zip(ids2, up2):  # a t1 parent, if any, is already in ups[b]
        if p >= 0 and ids2[p] not in ups[b]:
            ups[b].append(ids2[p])
            ups[b].sort()
    return class_of1, dict(zip(names2, ids2)), len(ups), ups, frozenset(merged.values())


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


def _successors(ups: list[list[int]]) -> list[list[int]]:
    """The sorted successor list of each class, filled in class order from
    the in-neighbour lists."""
    succ: list[list[int]] = [[] for _ in ups]
    for b, into in enumerate(ups):
        for a in into:
            succ[a].append(b)
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


def _reduce_core(succ: list[list[int]], ups: list[list[int]]) -> list[list[int]]:
    """The in-neighbour lists kept when every arc (v, w) that an alternative
    path v ⇝ w subsumes is dropped: on an acyclic graph, its transitive
    reduction (Aho, Garey & Ullman, SIAM J. Comput. 1, 1972).

    Subsumption is evaluated against the whole arc set (an arc may be
    witnessed away by arcs that are themselves dropped), which makes the
    result order-independent.  An alternative path v ⇝ w has two or more
    arcs, and its last one enters w from a class other than v, so w has a
    second in-neighbour: only arcs into classes with two or more
    in-neighbours are searched, and every other arc is kept.
    """
    return [into if len(into) < 2 else [v for v in into if not _reaches_around(succ, v, w)]
            for w, into in enumerate(ups)]


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


def _above_joins(ups: list[list[int]]) -> list[bool]:
    """For each class, whether a path of one or more arcs leads from it to a
    class with two or more in-neighbours."""
    above = [False] * len(ups)
    stack = [a for into in ups if len(into) > 1 for a in into]
    while stack:
        a = stack.pop()
        if not above[a]:
            above[a] = True
            stack.extend(ups[a])
    return above


def _prop21_core(succ: list[list[int]], ups: list[list[int]], merged: Collection[int],
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
    in-neighbours in `ups` and v reaches it.  So a source above no such
    class has at most one path to each end and is not walked.
    `label` names the merged class in a reason.  Each path, and each pair of
    paths to one end that (ii) compares, counts once against `PATH_BUDGET`:
    past it the check raises `BudgetError`, before the pairs are compared,
    naming how many sources it fully checked.
    """
    found: list[tuple] = []
    budget = PATH_BUDGET
    for v, walk in enumerate(_above_joins(ups)):
        if not walk:
            continue
        others_to: dict[int, list[tuple]] = {}  # the paths of two or more arcs to each end
        for p in _simple_paths_from(succ, v):
            budget -= 1
            if len(p) > 2:  # p pairs with each path of two or more arcs found to its end
                others = others_to.setdefault(p[-1], [])
                budget -= len(others)
                others.append(p)
            if budget < 0:
                raise BudgetError(f"path-uniqueness check limited to {PATH_BUDGET} enumerated "
                                  f"paths and path pairs; the first {v} of {len(succ)} classes "
                                  "were fully checked as sources")
        for w in sorted(others_to):
            others = others_to[w]
            if v in ups[w]:  # the arc (v, w) is one of the paths
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

    @property
    def t1(self) -> Tree:
        return self.g1.target

    @property
    def t2(self) -> Tree:
        return self.g2.target

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
    for g, t in ((g1, t1), (g2, t2)):
        _require_valid(g, t_mu, t)
    class_of1, class_of2, n, ups, mu_ids = _glue(t1, t2, t_mu.nodes, g1.mapping, g2.mapping)
    members: list[list[TaggedNode]] = [[] for _ in range(n)]
    for origin, class_of in ((1, class_of1), (2, class_of2)):
        for v, i in class_of.items():
            members[i].append((origin, v))
    classes = tuple(ThetaClass(tuple(m)) for m in members)
    arcs = frozenset((classes[a], classes[b]) for b, into in enumerate(ups) for a in into)
    return QuotientGraph(classes, arcs,
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
    """q's classes in sorted order, with its in-neighbour lists and its
    merged classes as indices into that order."""
    classes = sorted(q.classes)
    index = {c: i for i, c in enumerate(classes)}
    ups: list[list[int]] = [[] for _ in classes]
    for a, b in sorted(q.arcs):  # in class order, so each list comes sorted
        ups[index[b]].append(index[a])
    return classes, ups, {index[c] for c in q.mu_image if c in index}


def reduce_quotient(q: QuotientGraph) -> Digraph:
    """Drop every arc (v, w) subsumed by an alternative path v ⇝ w
    (`_reduce_core`).  Node set unchanged."""
    classes, ups, _ = _numbered(q)
    return Digraph(frozenset(q.classes), frozenset(
        (classes[v], classes[w]) for w, into in enumerate(_reduce_core(_successors(ups), ups))
        for v in into))


class Prop21Violation(_FrozenRecord):
    """A violated condition, `kind` "i" or "ii", of `_prop21_core` on paths v ⇝ w."""

    __slots__ = ("kind", "v", "w", "paths", "reason")

    def to_json(self) -> dict:
        return {"kind": self.kind, "v": self.v.label, "w": self.w.label,
                "paths": [[c.label for c in p] for p in self.paths],
                "reason": self.reason}


class Prop21Report(_Record):
    __slots__ = ("holds", "violations")

    def to_json(self) -> dict:
        return {"holds": self.holds, "violations": [v.to_json() for v in self.violations]}


def check_prop21(q: QuotientGraph) -> Prop21Report:
    """Check the two path-uniqueness conditions claimed for the quotient
    (`_prop21_core`); every violation is reported with its explicit paths."""
    classes, ups, merged = _numbered(q)
    violations = [
        Prop21Violation(kind, classes[v], classes[w],
                        tuple(tuple(classes[i] for i in p) for p in paths), reason)
        for kind, v, w, paths, reason in _prop21_core(_successors(ups), ups, merged,
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
