"""Rooted unordered trees with named nodes.

Parsing and printing of tree literals, structural validation (a report of
every violation, or the boolean `is_rooted_tree`), the interned shape table
(the single isomorphism authority: canonical codes, isomorphism, common-minor
deduplication and the inclusion decider all read it), enumeration of every
size straight from its level sequences, whose generation order is
canonical-code order (the iterator `enumerate_trees` names tree by tree and
`_literal_from_levels` writes literals; neither interns anything), and DOT
export.

All types are immutable after construction; operations return new objects.
Children are unordered everywhere: algorithms never depend on sibling order
or on node display names, only on structure (and labels, when present).
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping

from .errors import BudgetError, InvalidTreeError, ParseError, TreeError

NAME_PATTERN = re.compile(r"[A-Za-z0-9_]+")

#: Largest tree `enumerate_trees` builds, and any exhaustive search's default cap.
ENUM_CAP_DEFAULT = 14


def node_str(v) -> str:
    """Human-readable form of a node id (handles origin-tagged tuples)."""
    if isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], int):
        return f"{v[0]}:{v[1]}"
    return str(v)


class _Record:
    """Base of the library's plain value records.

    A record declares its fields once, as `__slots__`: `_fields` are the
    `__slots__` of its bases and then of its class, in order (``__slots__ =
    ()`` adds none).  This constructor builds every record: it binds the
    fields by position, then by keyword, and fills one not given from
    `_defaults`, which maps a field to a zero-argument factory called per
    record, so no two records share a default list.  Like a signature, it
    raises `TypeError` on a value too many, a field given twice, an unknown
    field or a missing one without a default.  The base gives field-wise
    `==` (only between records of the same class; a mutable record is
    unhashable), a ``Name(field=value, ...)`` repr, and pickling and copying
    through the constructor, since restoring slot state by assignment would
    fail on a frozen record.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def __init__(self, *values, **named):
        name, fields = type(self).__qualname__, self._fields
        if len(values) > len(fields):
            raise TypeError(f"{name} has {len(fields)} fields {fields}, got {len(values)} values")
        for field in named:
            if field not in fields:
                raise TypeError(f"{name} has no field {field!r}")
            if fields.index(field) < len(values):
                raise TypeError(f"{name} got field {field!r} by position and by keyword")
        for i, field in enumerate(fields):
            if i < len(values):
                value = values[i]
            elif field in named:
                value = named[field]
            elif field in self._defaults:
                value = self._defaults[field]()
            else:
                raise TypeError(f"{name} is missing field {field!r}")
            # through `object.__setattr__`, which a frozen record does not refuse
            object.__setattr__(self, field, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class _FrozenRecord(_Record):
    """A record that refuses assignment after the base constructor has set
    its fields, and hashes by its fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __hash__(self) -> int:
        return hash(self._values())


class StructureViolation(_FrozenRecord):
    """One violated tree invariant, as reported by `validate`."""

    __slots__ = ("kind", "subject", "message")

    def __str__(self) -> str:
        return self.message

    def to_json(self) -> dict:
        return {"kind": self.kind, "subject": list(self.subject), "reason": self.message}


def structure_violations(nodes, arcs, root=None, check_names: bool = False) -> list[StructureViolation]:
    """Check the rooted-tree invariants on raw node/arc data.

    Reports every violation instead of stopping at the first: multi-parent
    nodes, extra or missing roots, self-loops, dangling arcs, unreachable
    nodes (which covers cycles).  With `root=None` the root is inferred as
    the unique in-degree-0 node, if any.
    """
    out = []
    nodes = set(nodes)
    arcs = {(a, b) for (a, b) in arcs}

    if check_names:
        for v in sorted(nodes, key=node_str):
            if not (isinstance(v, str) and NAME_PATTERN.fullmatch(v)):
                out.append(StructureViolation(
                    "bad_name", (node_str(v),),
                    f"node name {node_str(v)!r} is not of the form [A-Za-z0-9_]+"))

    usable = set()
    for a, b in sorted(arcs, key=lambda p: (node_str(p[0]), node_str(p[1]))):
        if a == b:
            out.append(StructureViolation(
                "self_loop", (node_str(a),), f"arc {node_str(a)}->{node_str(a)} is a self-loop"))
        elif a not in nodes or b not in nodes:
            out.append(StructureViolation(
                "dangling_arc", (node_str(a), node_str(b)),
                f"arc {node_str(a)}->{node_str(b)} has an endpoint outside the node set"))
        else:
            usable.add((a, b))

    indeg = {v: 0 for v in nodes}
    succ = {v: [] for v in nodes}
    for a, b in usable:
        indeg[b] += 1
        succ[a].append(b)

    zero = sorted((v for v in nodes if indeg[v] == 0), key=node_str)
    if root is not None:
        if root not in nodes:
            out.append(StructureViolation(
                "root_missing", (node_str(root),), f"declared root {node_str(root)} is not a node"))
        elif indeg[root] > 0:
            out.append(StructureViolation(
                "root_has_parent", (node_str(root),),
                f"declared root {node_str(root)} has in-degree {indeg[root]}"))
        for v in zero:
            if v != root:
                out.append(StructureViolation(
                    "extra_root", (node_str(v),),
                    f"node {node_str(v)} has in-degree 0 but is not the root"))
    elif nodes:
        if not zero:
            out.append(StructureViolation(
                "no_root", (), "every node has a parent (the graph contains a cycle)"))
        elif len(zero) > 1:
            out.append(StructureViolation(
                "multi_root", tuple(node_str(v) for v in zero),
                f"{len(zero)} nodes have in-degree 0: {', '.join(node_str(v) for v in zero)}"))

    for v in sorted(nodes, key=node_str):
        if indeg[v] >= 2:
            out.append(StructureViolation(
                "multi_parent", (node_str(v),),
                f"node {node_str(v)} has in-degree {indeg[v]}"))

    start = root if root is not None and root in nodes else zero[0] if len(zero) == 1 else None
    if start is not None:
        seen, stack = {start}, [start]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        missing = sorted((v for v in nodes if v not in seen), key=node_str)
        if missing:
            out.append(StructureViolation(
                "unreachable", tuple(node_str(v) for v in missing),
                f"nodes not reachable from the root: {', '.join(node_str(v) for v in missing)}"))
    return out


class Tree:
    """Immutable rooted unordered tree.

    `nodes` is a set of unique display names, `arcs` point from parent to
    child, and `root` is the unique in-degree-0 node (``None`` only for the
    empty tree).  Optional `labels` and `region_tags` map node names to
    strings; labels take part in isomorphism, region tags are provenance
    annotations only.

    What other code derives from a tree is kept in its one dict `_tables`,
    as long as the tree lives, each entry built when first read and keyed
    so that kinds cannot collide: a node name (its sorted strict
    descendants), a node-subset tuple (the minor induced there,
    `solvers._induced_minor`), a size k (the distinct induced shapes of
    that size, `solvers._minor_level`), the function that builds a
    whole-tree table (`quotient._name_ids`), or a tuple that begins with
    the function that fills it (`solvers._witness_embedding`, whose key
    adds a source's parent positions and labels and whose entry is the
    images of the first embedding of that source into this tree).
    """

    __slots__ = ("root", "labels", "region_tags", "_nodes", "_arcs", "_children",
                 "_parent", "_preorder", "_tin", "_tout", "_depth", "_shape", "_tables")

    def __init__(self, nodes: Iterable[str], arcs: Iterable[tuple[str, str]],
                 root: str | None = None, labels: Mapping[str, str] | None = None,
                 region_tags: Mapping[str, str] | None = None):
        node_set = frozenset(nodes)
        arc_set = frozenset((a, b) for (a, b) in arcs)
        if root is None and node_set:
            raise InvalidTreeError([StructureViolation(
                "root_missing", (), "non-empty tree needs a root")])
        violations = structure_violations(node_set, arc_set, root, check_names=True)
        if violations:
            raise InvalidTreeError(violations)
        for name, extra in (("label", labels), ("region tag", region_tags)):
            for v in (extra or {}):
                if v not in node_set:
                    raise TreeError(f"{name} given for unknown node {v!r}")
        for v, label in (labels or {}).items():  # as in literals, so codes stay unique
            if not (isinstance(label, str) and NAME_PATTERN.fullmatch(label)):
                raise TreeError(f"label {label!r} of node {v} is not of the form [A-Za-z0-9_]+")

        self.root = root
        self.labels = dict(labels or {})
        self.region_tags = dict(region_tags or {})
        self._nodes = node_set
        self._arcs = arc_set
        self._shape: int | None = None
        self._tables: dict = {}

        kids: dict[str, list[str]] = {v: [] for v in node_set}
        parent: dict[str, str] = {}
        for a, b in arc_set:
            kids[a].append(b)
            parent[b] = a
        self._children = {v: tuple(sorted(c)) for v, c in kids.items()}
        self._parent = parent

        order: list[str] = []
        tin: dict[str, int] = {}
        depth: dict[str, int] = {}
        if root is not None:
            stack = [root]
            depth[root] = 0
            while stack:
                v = stack.pop()
                tin[v] = len(order)
                order.append(v)
                for c in reversed(self._children[v]):
                    depth[c] = depth[v] + 1
                    stack.append(c)
        self._preorder = tuple(order)
        self._tin = tin
        self._depth = depth
        # tout[v] = tin[v] + subtree size, so descendant tests are O(1)
        size = {v: 1 for v in node_set}
        for v in reversed(order):
            p = parent.get(v)
            if p is not None:
                size[p] += size[v]
        self._tout = {v: tin[v] + size[v] for v in order}

    # -- basic accessors ---------------------------------------------------

    @property
    def nodes(self) -> frozenset[str]:
        return self._nodes

    @property
    def arcs(self) -> frozenset[tuple[str, str]]:
        return self._arcs

    @property
    def size(self) -> int:
        return len(self._nodes)

    @property
    def preorder(self) -> tuple[str, ...]:
        """Nodes in root-first order, children visited in sorted-name order."""
        return self._preorder

    def _known(self, v: str) -> None:
        if v not in self._nodes:
            raise TreeError(f"unknown node {v!r}")

    def children(self, v: str) -> tuple[str, ...]:
        self._known(v)
        return self._children[v]

    def parent(self, v: str) -> str | None:
        self._known(v)
        return self._parent.get(v)

    def depth(self, v: str) -> int:
        self._known(v)
        return self._depth[v]

    @property
    def height(self) -> int:
        """Arc count of the longest root-to-leaf path (0 for a single node)."""
        return max(self._depth.values(), default=0)

    @property
    def leaves(self) -> tuple[str, ...]:
        return tuple(v for v in sorted(self._nodes) if not self._children[v])

    # -- reachability ------------------------------------------------------

    def reaches(self, a: str, b: str) -> bool:
        """True iff a directed path a ⇝ b exists (the trivial a ⇝ a counts)."""
        self._known(a)
        self._known(b)
        return self._tin[a] <= self._tin[b] < self._tout[a]

    def path(self, a: str, b: str) -> tuple[str, ...]:
        """The unique path a ⇝ b as a node sequence; error when none exists."""
        if not self.reaches(a, b):
            raise TreeError(f"no path {a} ~> {b}")
        back = [b]
        while back[-1] != a:
            back.append(self._parent[back[-1]])
        return tuple(reversed(back))

    def strict_descendants(self, v: str) -> tuple[str, ...]:
        """Proper descendants of v, sorted by name."""
        self._known(v)
        cached = self._tables.get(v)
        if cached is None:  # v's subtree is a slice of the preorder
            cached = tuple(sorted(self._preorder[self._tin[v] + 1:self._tout[v]]))
            self._tables[v] = cached
        return cached

    # -- derived trees -----------------------------------------------------

    def relabel(self, mapping: Mapping[str, str]) -> "Tree":
        """Rename every node through an injective total mapping."""
        missing = self._nodes - set(mapping)
        if missing:
            raise TreeError(f"relabel mapping misses nodes: {sorted(missing)}")
        if len(set(mapping[v] for v in self._nodes)) != len(self._nodes):
            raise TreeError("relabel mapping is not injective")
        return Tree(
            (mapping[v] for v in self._nodes),
            ((mapping[a], mapping[b]) for a, b in self._arcs),
            mapping[self.root] if self.root is not None else None,
            {mapping[v]: s for v, s in self.labels.items()},
            {mapping[v]: s for v, s in self.region_tags.items()},
        )

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Node-for-node identity (names, arcs, root, labels); not isomorphism."""
        if not isinstance(other, Tree):
            return NotImplemented
        return (self._nodes == other._nodes and self._arcs == other._arcs
                and self.root == other.root and self.labels == other.labels)

    def __hash__(self) -> int:
        return hash((self._nodes, self._arcs, self.root,
                     tuple(sorted(self.labels.items()))))

    def __repr__(self) -> str:
        return f"Tree({format_tree(self)!r})" if self._nodes else "Tree(<empty>)"


class Digraph(_FrozenRecord):
    """Plain directed graph with set semantics and no tree constraints.

    Used for quotients and reduction outputs.  Node ids may be any hashable
    values (origin-tagged tuples, quotient classes, ...).
    """

    __slots__ = ("nodes", "arcs")

    def __init__(self, nodes: frozenset, arcs: frozenset):
        for a, b in arcs:
            if a not in nodes or b not in nodes:
                raise TreeError(
                    f"arc {node_str(a)}->{node_str(b)} has an endpoint outside the node set")
        super().__init__(nodes, arcs)

    @property
    def size(self) -> int:
        return len(self.nodes)


def tree_from_arcs(root: str, arcs: Iterable[tuple[str, str]],
                   labels: Mapping[str, str] | None = None) -> Tree:
    """Build a tree from its root and arc list (nodes inferred)."""
    arcs = list(arcs)
    return Tree({root, *(v for arc in arcs for v in arc)}, arcs, root, labels)


def validate(g) -> list[StructureViolation]:
    """Report every violated rooted-tree invariant of a Tree or Digraph.

    The empty list means the object is a valid rooted tree.  For digraphs
    the root is inferred (unique in-degree-0 node); `Tree` instances always
    pass because their constructor enforces the same checks.
    """
    root = getattr(g, "root", None)
    return structure_violations(g.nodes, g.arcs, root)


def is_rooted_tree(g) -> bool:
    """`not validate(g)` without building the report: False on a self-loop, a
    dangling arc, a second parent, zero or several roots, or an unreachable
    node (which covers cycles); True on the empty digraph."""
    index = {v: i for i, v in enumerate(g.nodes)}
    ups: list[list[int]] = [[] for _ in index]
    for a, b in g.arcs:
        if a == b or a not in index or b not in index:
            return False
        ups[index[b]].append(index[a])
    return not ups or _rooted_parents(ups) is not None


def _rooted_parents(ups: list[list[int]]) -> tuple[dict[int, int], int] | None:
    """The parent of every node and the root, when the in-neighbour lists
    `ups` of nodes 0..n-1 (n >= 1) form a rooted tree: one node has none,
    every other exactly one, and the root reaches every node.  None otherwise."""
    up = {w: into[0] for w, into in enumerate(ups) if len(into) == 1}
    roots = [w for w, into in enumerate(ups) if not into]
    if len(roots) != 1 or len(up) + 1 != len(ups):
        return None
    kids: list[list[int]] = [[] for _ in ups]
    for w, v in up.items():
        kids[v].append(w)
    reached = roots[:]
    for v in reached:  # grows as it is read: every node reached, each once
        reached.extend(kids[v])
    return (up, roots[0]) if len(reached) == len(ups) else None


# -- literals ---------------------------------------------------------------

_TOKEN = re.compile(r"[A-Za-z0-9_]+|\S")


def parse_tree(text: str) -> Tree:
    """Parse a tree literal like ``a(b:x(c),d)`` into a validated Tree.

    tree     := node
    node     := NAME label? children?
    label    := ':' NAME
    children := '(' node (',' node)* ')'
    NAME     := [A-Za-z0-9_]+

    Whitespace is insignificant between tokens.  Duplicate names within one
    literal are an error.  Open nodes are kept on an explicit stack, so the
    nesting depth is not limited by the interpreter's recursion limit.
    """
    tokens = [(m.start(), m.group()) for m in _TOKEN.finditer(text)]
    tokens.append((len(text), ""))

    def name_at(i: int) -> str:
        if not NAME_PATTERN.fullmatch(tokens[i][1]):
            raise ParseError("expected a name ([A-Za-z0-9_]+)", tokens[i][0])
        return tokens[i][1]

    arcs: list[tuple[str, str]] = []
    labels: dict[str, str] = {}
    seen: set[str] = set()
    open_nodes: list[str] = []  # nodes whose child list is being read
    root, i = None, 0
    while True:
        name = name_at(i)
        if name in seen:
            raise ParseError(f"duplicate node name {name!r}", tokens[i][0])
        seen.add(name)
        if open_nodes:
            arcs.append((open_nodes[-1], name))
        else:
            root = name
        i += 1
        if tokens[i][1] == ":":
            labels[name] = name_at(i + 1)
            i += 2
        if tokens[i][1] == "(":
            open_nodes.append(name)
            i += 1
            continue
        while open_nodes and tokens[i][1] == ")":
            open_nodes.pop()
            i += 1
        if not open_nodes:
            break
        if tokens[i][1] != ",":
            raise ParseError("expected ',' or ')'", tokens[i][0])
        i += 1
    if tokens[i][1]:
        raise ParseError("unexpected trailing input", tokens[i][0])
    return Tree(seen, arcs, root, labels)


def format_tree(t: Tree) -> str:
    """Serialize a tree to a literal; inverse of `parse_tree`.

    Children are printed in sorted-name order so output is deterministic.
    Region tags are presentation metadata and are not serialized.
    """
    if t.root is None:
        raise TreeError("the empty tree has no literal form")
    return _literal(t._preorder, [t._depth[v] for v in t._preorder], t.labels)


def _literal(order: Iterable[str], depths: Iterable[int], labels: Mapping[str, str]) -> str:
    """The literal of the tree whose nodes, in preorder with children in
    sorted-name order, are `order`, at `depths` (the root at 0).  Written in
    one pass: between consecutive nodes the depth change decides between
    ``(`` and ``)...,``."""
    parts = []
    prev = 0
    for v, d in zip(order, depths):
        rise = prev - d
        parts.append("(" if rise < 0 else ")" * rise + ",")
        parts.append(v + ":" + labels[v] if v in labels else v)
        prev = d
    parts[0] = ""  # the root follows no sibling
    parts.append(")" * prev)
    return "".join(parts)


# -- shapes and isomorphism ----------------------------------------------------
# Every subtree is interned as a shape: one id per isomorphism class, keyed by
# its root label and the sorted ids of its children (the canonical numbering of
# Aho, Hopcroft & Ullman, 1974).  This table is the single isomorphism
# authority and `_intern_node` its only writer (`_intern` enters a whole tree
# through it, the supertree witness walk in `solvers` one new root at a time);
# `embeddings` reads the per-shape label, children, size, height and leaf
# count, and both forest recursions split forests by `_splits`.  It lives as
# long as the process, as do the code strings `_code` caches per shape.
# Enumeration (`enumerate_trees`, `treelab enum`) and the pair scan's ordering
# read the level sequences directly and write nothing here.

_SHAPE_IDS: dict[tuple[str | None, tuple[int, ...]], int] = {}
_LABEL: list[str | None] = []
_KIDS: list[tuple[int, ...]] = []
_SIZE: list[int] = []
_HEIGHT: list[int] = []  # arcs on the longest root-to-leaf path
_LEAVES: list[int] = []
_CODE: dict[int, str] = {-1: ""}


def _intern_node(label: str | None, kids: tuple[int, ...]) -> int:
    """The id of the shape with root label `label` and the sorted child shape
    ids `kids`, entered into the table if it is new."""
    key = (label, kids)
    s = _SHAPE_IDS.get(key)
    if s is None:
        s = _SHAPE_IDS[key] = len(_KIDS)
        _LABEL.append(label)
        _KIDS.append(kids)
        _SIZE.append(1 + sum(_SIZE[k] for k in kids))
        _HEIGHT.append(1 + max(_HEIGHT[k] for k in kids) if kids else 0)
        _LEAVES.append(sum(_LEAVES[k] for k in kids) if kids else 1)
    return s


def _intern(levels, labels) -> int:
    """Intern, bottom-up, every subtree of the tree with preorder level sequence
    `levels` and node labels `labels` (None: unlabeled); the root's id or -1."""
    done: list[tuple[int, int]] = []  # (level, shape) of subtrees awaiting their parent
    for level, label in zip(reversed(levels), reversed(labels)):
        kids = []
        while done and done[-1][0] > level:
            kids.append(done.pop()[1])
        done.append((level, _intern_node(label, tuple(sorted(kids)))))
    return done[0][1] if done else -1


def _shape(t: Tree) -> int:
    """The interned shape of a tree (-1 for the empty tree), cached on it."""
    if t._shape is None:
        t._shape = _intern([t._depth[v] for v in t._preorder],
                           [t.labels.get(v) for v in t._preorder])
    return t._shape


def _splits(forest: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Every split of a sorted forest into a sub-multiset and the rest, both
    sorted, each split once (k equal trees split k + 1 ways, not 2^k), with
    the node count of the sub-multiset."""
    splits: list[tuple[tuple[int, ...], tuple[int, ...], int]] = [((), (), 0)]
    for k in sorted(set(forest)):
        c, n = forest.count(k), _SIZE[k]
        splits = [(part + (k,) * t, rest + (k,) * (c - t), w + n * t)
                  for part, rest, w in splits for t in range(c + 1)]
    return splits


def _code(s: int) -> str:
    """Canonical code of shape s: one walk over its subtree occurrences in the
    shape table, without recursion, keeping only the root's code (the codes
    of all its subtree shapes would cost memory quadratic in depth)."""
    if s not in _CODE:
        done: list[list[str]] = [[]]  # child codes of each open node, innermost last
        stack = [s]  # ~x closes shape x once its children are done
        while stack:
            x = stack.pop()
            if x >= 0:
                done.append([])
                stack.append(~x)
                stack.extend(_KIDS[x])
            else:
                kids = sorted(done.pop())
                done[-1].append("(" + (_LABEL[~x] or "") + "".join(kids) + ")")
        _CODE[s] = done[0][0]
    return _CODE[s]


def _levels_of(s: int) -> tuple[int, ...]:
    """The canonical level sequence of shape s (root at level 1): the depth at
    each ``(`` of its code.  For an unlabeled shape this is the sequence
    `_level_sequences` yields for it, so `_tree_from_levels` names it as
    enumeration does."""
    out, depth = [], 0
    for ch in _code(s):
        if ch == "(":
            depth += 1
            out.append(depth)
        elif ch == ")":
            depth -= 1
    return tuple(out)


def canonical_code(t: Tree) -> str:
    """Order-invariant code: equal codes iff trees are isomorphic.

    Leaves become ``()``, internal nodes concatenate their children's codes
    in sorted order; a node's label, when present, is prepended inside its
    parentheses.  Node names never enter the code; the empty tree's is "".
    """
    return _code(_shape(t))


def are_isomorphic(t1: Tree, t2: Tree) -> bool:
    """Isomorphism of rooted unordered (label-respecting) trees: equal shapes."""
    return _shape(t1) == _shape(t2)


# -- enumeration ------------------------------------------------------------

def _level_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the canonical level sequence of every rooted tree on n nodes.

    Successor generation over level sequences (Beyer & Hedetniemi, 1980):
    start from the path ``1,2,...,n`` and repeatedly rewind the rightmost
    entry above 2, copying the segment from its parent onward.  Each
    isomorphism class appears exactly once.

    Decreasing level-sequence order is canonical-code order, across sizes as
    well as within one.  The sequences come out in decreasing lexicographic
    order.  The parenthesis string of a canonical level sequence is its
    shape's canonical code, and a larger sequence has the smaller string,
    since ``(`` < ``)``: at the first entry where two sequences differ, the
    larger one closes fewer nodes before it writes that entry's ``(``; and
    where one is a proper prefix of the other, the longer one (the larger
    tuple) writes a ``(`` while the shorter still closes.  So trees are
    ordered without computing a code.
    """
    seq = list(range(1, n + 1))
    while True:
        yield tuple(seq)
        p = next((i for i in range(n - 1, -1, -1) if seq[i] > 2), None)
        if p is None:
            return
        q = p - 1
        while seq[q] != seq[p] - 1:
            q -= 1
        width = p - q
        for i in range(p, n):
            seq[i] = seq[i - width]


_TREE_COUNTS = [0, 1]


def _tree_count(n: int) -> int:
    """How many rooted unlabeled trees have n >= 1 nodes (OEIS A000081), by
    the Euler-transform recurrence
    m * a(m + 1) = sum over k = 1..m of (sum over d | k of d * a(d)) * a(m - k + 1);
    cached, and equal to the number of level sequences `_level_sequences(n)`
    yields."""
    a = _TREE_COUNTS
    while len(a) <= n:
        m = len(a) - 1
        a.append(sum(sum(d * a[d] for d in range(1, k + 1) if k % d == 0) * a[m - k + 1]
                     for k in range(1, m + 1)) // m)
    return a[n]


def _tree_from_levels(levels: tuple[int, ...]) -> Tree:
    arcs = []
    last_at = {}
    for i, lv in enumerate(levels):
        if lv > 1:
            arcs.append((last_at[lv - 1], f"v{i}"))
        last_at[lv] = f"v{i}"
    return Tree((f"v{i}" for i in range(len(levels))), arcs, "v0")


def _literal_from_levels(levels: tuple[int, ...]) -> str:
    """`format_tree(_tree_from_levels(levels))` without building the `Tree`.

    Node i is named ``v{i}``; children are printed in sorted-name order (so
    ``v10`` comes before ``v2``), visited with an explicit stack.
    """
    kids: list[list[int]] = [[] for _ in levels]
    last_at = {}
    for i, lv in enumerate(levels):
        if lv > 1:
            kids[last_at[lv - 1]].append(i)
        last_at[lv] = i
    parts = []
    prev, stack = levels[0], [0]
    while stack:
        i = stack.pop()
        rise = prev - levels[i]
        parts.append("(" if rise < 0 else ")" * rise + ",")
        parts.append(f"v{i}")
        prev = levels[i]
        stack.extend(sorted(kids[i], key=str, reverse=True))
    parts[0] = ""  # the root follows no sibling
    parts.append(")" * (prev - levels[0]))
    return "".join(parts)


def _sized_sequences(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    """The level sequences of every tree on n nodes, in canonical-code order;
    the size and cap are checked when this is called, not when iterated."""
    if n < 1:
        raise TreeError(f"tree size must be at least 1, got {n}")
    if n > cap:
        raise BudgetError(f"enumeration of size-{n} trees exceeds the cap of {cap}")
    return _level_sequences(n)


def enumerate_trees(n: int) -> Iterator[Tree]:
    """All non-isomorphic rooted unordered unlabeled trees with n nodes.

    Exactly one representative per isomorphism class, in sorted canonical
    code order, which is the order the level sequences are generated in
    (see `_level_sequences`).  Nodes are named ``v0..v{n-1}`` in preorder.  Nothing
    is cached or interned: the iterator builds each `Tree` as it is consumed.
    """
    return map(_tree_from_levels, _sized_sequences(n, ENUM_CAP_DEFAULT))


# -- small constructions -----------------------------------------------------

def _fresh_name(base: str, used: set[str]) -> str:
    """`base` with "_" appended until it is not in `used`, which gains it."""
    cand = base
    while cand in used:
        cand += "_"
    used.add(cand)
    return cand


def chain(k: int, prefix: str = "n") -> Tree:
    """Path-shaped tree with k nodes."""
    if k < 1:
        raise TreeError("chain needs at least 1 node")
    return tree_from_arcs(f"{prefix}1",
                          ((f"{prefix}{i}", f"{prefix}{i + 1}") for i in range(1, k)))


def star(k: int, prefix: str = "n") -> Tree:
    """Root with k-1 leaf children (k nodes in total)."""
    if k < 1:
        raise TreeError("star needs at least 1 node")
    return tree_from_arcs(f"{prefix}1",
                          ((f"{prefix}1", f"{prefix}{i}") for i in range(2, k + 1)))


# -- DOT export ---------------------------------------------------------------

_TAG_COLORS = {"spine": "lightgrey", "P": "lightblue", "R": "lightgreen", "S": "lightsalmon"}
_FALLBACK_COLORS = ("khaki", "plum", "lightcyan", "wheat", "mistyrose", "palegreen")


def _tag_color(tag: str, all_tags: tuple[str, ...]) -> str:
    if tag in _TAG_COLORS:
        return _TAG_COLORS[tag]
    extras = [s for s in all_tags if s not in _TAG_COLORS]
    return _FALLBACK_COLORS[extras.index(tag) % len(_FALLBACK_COLORS)]


def to_dot(g) -> str:
    """Graphviz digraph for a Tree or Digraph; region tags become colors."""
    labels = getattr(g, "labels", {})
    tags = getattr(g, "region_tags", {})
    all_tags = tuple(sorted(set(tags.values())))
    lines = ["digraph {"]
    for v in sorted(g.nodes, key=node_str):
        text = node_str(v)
        if v in labels:
            text += ":" + labels[v]
        attrs = [f'label="{text}"']
        if v in tags:
            attrs.append(f'fillcolor="{_tag_color(tags[v], all_tags)}"')
            attrs.append('style="filled"')
        lines.append(f'  "{node_str(v)}" [{" ".join(attrs)}];')
    for a, b in sorted(g.arcs, key=lambda p: (node_str(p[0]), node_str(p[1]))):
        lines.append(f'  "{node_str(a)}" -> "{node_str(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
