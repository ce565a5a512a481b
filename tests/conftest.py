"""Shared fixtures and independent brute-force oracles.

The brute-force oracles here deliberately avoid the library's own machinery
(the shape table, backtracking search) so tests cross-check two unrelated
strategies.  `lcs_by_subset_walk`, `scs_by_catalogue`,
`simple_paths_recursive`, `prop21_by_classes`, `reduce_per_arc`,
`glue_by_names`, `enumerate_embeddings_recursive` and
`scan_pair_with_named_witnesses` are the straightforward forms of routines
the library runs in a faster form (the common-minor walk on shapes, the
supertree search, one path walk per source, the path-uniqueness check and
arc reduction on integer class ids, the gluing into in-neighbour lists, the
witness search on an explicit stack, and the pair scan's quotients glued
from node subsets); differential tests hold the fast forms to them.  The
library's forest recursion decides the supertree optimum and its witnesses;
three more oracles decide them other ways: `scs_by_growth` grows the bigger
input's supertrees one node at a time, `scs_by_merging` takes the
largest common-minor matching that merges into one tree (`merge_matching`),
and `scs_unpruned` evaluates the recursion's every branch, with no bound;
`root_merge_supertree` is a known supertree of size |t1| + |t2| - 1.
Containment has one decider in the library, `is_minor`; `is_minor_by_subsets`
decides it from the induced minors of every node subset, and
`cross_check_minor` holds `is_minor`, the backtracking search and the subset
oracle to one answer.
"""

from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import assume, strategies as st

from treelab import (BudgetError, Digraph, MinorEmbedding, MultiRootError, Prop21Report,
                     Prop21Violation, SolverDisagreement, Tree, TreeError, are_isomorphic,
                     canonical_code, chain, check_embedding, enumerate_embeddings,
                     enumerate_trees, find_embedding, format_tree, induced_minor, is_minor,
                     is_rooted_tree, largest_common_minor, parse_tree)
from treelab.embeddings import _embeddings, _fits, _require_valid, _violations
from treelab.families import _scan_tree
from treelab.quotient import _glue, _identities, _prop21_core, _successors, eq4_prediction
from treelab.solvers import (CommonTreeWitness, LcsResult, LevelStats, ScsResult,
                             _require_solvable, _without)
from treelab.trees import (_KIDS, _LABEL, _SIZE, ENUM_CAP_DEFAULT, _code, _fresh_name,
                           _intern, _intern_node, _level_sequences, _shape, _splits,
                           _tree_from_levels)


def brute_force_isomorphic(t1, t2):
    """Rooted-tree isomorphism by recursive child-permutation matching."""
    if t1.size != t2.size:
        return False

    def match(v1, v2):
        if t1.labels.get(v1) != t2.labels.get(v2):
            return False
        k1, k2 = t1.children(v1), t2.children(v2)
        if len(k1) != len(k2):
            return False
        for perm in permutations(k2):
            if all(match(a, b) for a, b in zip(k1, perm)):
                return True
        return False

    return match(t1.root, t2.root)


def reference_code(t):
    """The canonical code by its recursive definition, an oracle for the code
    the library reads from its shape table: leaves are ``()``, a node wraps
    its label and its children's codes, sorted, in parentheses."""
    if t.root is None:
        return ""

    def code(v):
        kids = sorted(code(c) for c in t.children(v))
        return "(" + t.labels.get(v, "") + "".join(kids) + ")"

    return code(t.root)


def brute_force_embeddings(s, t):
    """All minor embeddings by filtering every injective node map directly."""
    out = []
    s_nodes = sorted(s.nodes)
    for image in permutations(sorted(t.nodes), len(s_nodes)):
        f = dict(zip(s_nodes, image))
        if any(s.labels.get(v) != t.labels.get(f[v]) for v in s_nodes):
            continue
        img = set(image)
        ok = True
        for a, b in s.arcs:
            if f[a] == f[b] or not t.reaches(f[a], f[b]):
                ok = False
                break
            if any(mid in img for mid in t.path(f[a], f[b])[1:-1]):
                ok = False
                break
        if ok:
            out.append(f)
    return out


def is_minor_by_subsets(s, t):
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


def cross_check_minor(s, t):
    """Run the inclusion, backtracking and subset strategies; they must agree.

    Disagreement raises `SolverDisagreement`.  Only the backtracking
    `find_embedding` does not read the shape table of `trees`: inclusion and
    the subset oracle both decide through shape ids, so a wrong table would
    make them agree, and `reference_code` and `brute_force_isomorphic` check
    the table itself.  Inputs are capped at `ENUM_CAP_DEFAULT` nodes, as the
    solvers are.
    """
    if s.size > ENUM_CAP_DEFAULT or t.size > ENUM_CAP_DEFAULT:
        raise BudgetError(f"cross-check limited to inputs of {ENUM_CAP_DEFAULT} nodes")
    if s.root is None or t.root is None:
        raise TreeError("cross-check requires non-empty trees")
    verdicts = (is_minor(s, t), find_embedding(s, t) is not None,
                is_minor_by_subsets(s, t))
    if len(set(verdicts)) > 1:
        raise SolverDisagreement(
            f"inclusion, backtracking and subset oracle say {verdicts} "
            f"for {format_tree(s)} into {format_tree(t)}")
    return verdicts[0]


def enumerate_embeddings_recursive(s, t, limit=None):
    """`enumerate_embeddings` as the library searched before its explicit
    stack: one recursive call per source node in preorder, candidate images
    in name order, the same path and blocking rules."""
    if limit is not None and limit < 1:
        raise TreeError(f"embedding limit must be at least 1, got {limit}")
    if s.size > t.size:
        return []
    order = s.preorder
    root_candidates = sorted(t.nodes)
    results = []
    assigned = {}
    used = set()
    blocked = {}

    def place(i):
        if i == len(order):
            results.append(MinorEmbedding(s, t, dict(assigned)))
            return limit is not None and len(results) >= limit
        v = order[i]
        p = s.parent(v)
        candidates = root_candidates if p is None else t.strict_descendants(assigned[p])
        for u in candidates:
            if u in used or blocked.get(u):
                continue
            if s.labels.get(v) != t.labels.get(u):
                continue
            mids = ()
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


def ups_arcs(ups):
    """The arcs (a, b) of in-neighbour lists `ups`, as a set."""
    return {(a, b) for b, into in enumerate(ups) for a in into}


def glue_by_names(t1, t2, mu_nodes, g1, g2):
    """The quotient of t1 + t2 by the gluing relation, on node names alone:
    its classes, each the frozenset of its origin-tagged members, and every
    arc of t1 and t2 mapped through the relation onto them."""
    partner = {(2, g2[c]): (1, g1[c]) for c in mu_nodes}
    partner.update({one: two for two, one in partner.items()})

    def cls(member):
        return frozenset((member, partner[member]) if member in partner else (member,))

    sides = ((1, t1), (2, t2))
    return ({cls((o, v)) for o, t in sides for v in t.nodes},
            {(cls((o, a)), cls((o, b))) for o, t in sides for a, b in t.arcs})


def glue_checked_by_names(t1, t2, mu_nodes, g1, g2):
    """`_glue`'s result, after asserting it is `glue_by_names` numbered in
    the sorted order of the classes' members, with sorted in-neighbour lists
    without repeats and the two-member classes as the merged ones."""
    glued = class_of1, class_of2, n, ups, merged = _glue(t1, t2, mu_nodes, g1, g2)
    members = [set() for _ in range(n)]
    for origin, class_of in ((1, class_of1), (2, class_of2)):
        for v, i in class_of.items():
            members[i].add((origin, v))
    members = [frozenset(m) for m in members]
    classes, arcs = glue_by_names(t1, t2, mu_nodes, g1, g2)
    assert len(members) == len(ups) == n and set(members) == classes
    assert [sorted(m) for m in members] == sorted(sorted(m) for m in members)
    assert all(into == sorted(set(into)) for into in ups)
    assert {(members[a], members[b]) for a, b in ups_arcs(ups)} == arcs
    assert {members[i] for i in merged} == {c for c in classes if len(c) == 2}
    return glued


def scan_pair_with_named_witnesses(args):
    """One record of `scan_pairs` as the library computed it before gluing
    straight from node subsets: a validated named witness per optimal common
    minor from `largest_common_minor`, both embeddings re-checked by
    `_require_valid`, the literal from `format_tree`, and the reduction by
    one search per arc (`reduce_per_arc`); each glued quotient is held to
    the name-level projection (`glue_checked_by_names`)."""
    seq1, seq2, with_prop21 = args
    t1, t2 = _scan_tree(seq1), _scan_tree(seq2)
    lcs = largest_common_minor(t1, t2, all_witnesses=True, cap=t2.size)
    scs_size = scs_by_growth(t1, t2)[0]
    gap = scs_size - eq4_prediction(t1, t2, lcs.optimum_size)
    if gap < 0:
        raise SolverDisagreement("negative gap")
    rec = {"lcs": lcs.optimum_size, "scs": scs_size, "gap": gap}
    if with_prop21:
        quotients = []
        for w in lcs.witnesses:
            _require_valid(w.emb1, w.tree, t1)
            _require_valid(w.emb2, w.tree, t2)
            mu, g1, g2 = w.tree.nodes, w.emb1.mapping, w.emb2.mapping
            class_of1, class_of2, n, ups, merged = glue_checked_by_names(t1, t2, mu, g1, g2)
            identity_findings = _identities(range(n), class_of1, class_of2, mu,
                                            g1, g2, merged)
            if n != t1.size + t2.size - w.tree.size:
                identity_findings.append("class count differs from |t1|+|t2|-|mu|")
            kinds = sorted({found[0] for found in _prop21_core(_successors(ups), ups, merged)})
            reduced = reduce_per_arc(range(n), ups_arcs(ups))
            quotients.append({
                "mu": format_tree(w.tree),
                "holds": not kinds,
                "violation_kinds": kinds,
                "reduced_is_tree": is_rooted_tree(reduced),
                "identity_findings": identity_findings,
            })
        rec["quotients"] = quotients
    return rec


def enumerate_by_leaf_growth(n):
    """Second enumeration strategy: grow every smaller tree by one leaf and
    deduplicate by canonical code.  Returns {code: tree}."""
    level = {canonical_code(chain(1)): chain(1)}
    for k in range(2, n + 1):
        grown = {}
        for t in level.values():
            for v in sorted(t.nodes):
                new = f"g{k}"
                bigger = Tree(t.nodes | {new}, list(t.arcs) + [(v, new)], t.root)
                grown.setdefault(canonical_code(bigger), bigger)
        level = grown
    return level


def lcs_by_subset_walk(t1, t2, all_witnesses=False):
    """The largest common minor by building a validated `induced_minor` Tree
    for every node subset of the smaller input, largest subsets first, and
    testing each new shape with `is_minor`; witnesses as `largest_common_minor`
    reports them."""
    flipped = t2.size < t1.size
    small, other = (t2, t1) if flipped else (t1, t2)
    levels = []
    for k in range(small.size, 0, -1):
        seen, hits = set(), []
        for w in combinations(sorted(small.nodes), k):
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
                into_small = MinorEmbedding(m, small, {v: v for v in m.nodes})
                into_other = find_embedding(m, other)
                g1, g2 = (into_other, into_small) if flipped else (into_small, into_other)
                witnesses.append(CommonTreeWitness(m, g1, g2))
            return LcsResult(k, witnesses, levels)
    return LcsResult(0, [], levels)


def scs_by_catalogue(t1, t2, all_witnesses=False):
    """The smallest common supertree by testing every catalogued shape of each
    size, in canonical-code order, with `_fits` for both inputs.  The report
    is built as `smallest_common_supertree` builds it."""
    s1, s2 = _shape(t1), _shape(t2)
    levels = []
    for n in range(max(t1.size, t2.size), t1.size + t2.size):
        hits, candidates = [], 0
        for c, sequence in catalogue(n):
            candidates += 1
            if _fits(s1, c) and _fits(s2, c):
                hits.append(_tree_from_levels(sequence))
                if not all_witnesses:
                    break
        levels.append(LevelStats(n, candidates, len(hits)))
        if hits:
            witnesses = [CommonTreeWitness(c, find_embedding(t1, c), find_embedding(t2, c))
                         for c in hits]
            return ScsResult(n, witnesses, levels)
    raise AssertionError("the root merge is a common supertree")


#: One-node insertions strictly below the root of each shape (the moves of
#: `insertions` but the new root), memoized for the session.
_GROWN = {}


def insertions(s):
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
        grown = {_intern_node(label, tuple(sorted(kept + (_intern_node(None, adopted),))))
                 for adopted, kept, _ in _splits(kids)}
        for c in kinds:
            rest = _without(kids, c)
            grown.update(_intern_node(label, tuple(sorted(rest + (y,)))) for y in _GROWN[c])
        _GROWN[x] = frozenset(grown)
    return _GROWN[s] | {_intern_node(None, (s,))}


def scs_by_growth(t1, t2, all_witnesses=False):
    """The smallest common supertree by growing the supertrees of the bigger
    input level by level: (optimum, hit shapes in code order, only the first
    unless `all_witnesses`).

    Walk n upward from max(|t1|, |t2|) through the size-n supertrees of the
    bigger input, starting from that input itself, and test each, in
    canonical-code order, with `_fits` for the other input.  On equal sizes
    the input with more leaves is grown.

    The levels are complete by a deletion lemma.  Let C, of size
    n + 1 > |T|, contain T.  Deleting a node outside the image of an
    embedding leaves a size-n tree that still contains T: a non-image leaf,
    else contract a non-image non-root, else drop a one-child root.  So the
    size-(n + 1) supertrees of T are exactly the one-node insertions
    (`insertions`) into its size-n supertrees, and a level without a hit
    refutes every tree of its size.
    """
    big, little = ((t1, t2) if (t1.size, len(t1.leaves)) >= (t2.size, len(t2.leaves))
                   else (t2, t1))
    target = _shape(little)
    level = [_shape(big)]
    for n in range(big.size, t1.size + t2.size):
        if n > big.size:
            level = sorted({c for s in level for c in insertions(s)}, key=_code)
        hits = []
        for c in level:
            if _fits(target, c):
                hits.append(c)
                if not all_witnesses:
                    break
        if hits:
            return n, hits
    raise AssertionError("the root merge is a common supertree")


def scs_unpruned(t1, t2):
    """The smallest common supertree size by the recursion that the
    `solvers._scs_optimum` docstring states, written anew: every branch of
    every pair of forests is evaluated, with no floor, no skipped branch and
    no early stop, and the branches are listed here, not by `_branches`."""
    return _scs_forests((_shape(t1),), (_shape(t2),))


@lru_cache(maxsize=None)
def _scs_forests(xs, ys):
    """SCS of two sorted forests of shape ids: fix the first tree a of xs and
    take the least of the three branch kinds."""
    if not xs or not ys:
        return sum(_SIZE[x] for x in xs + ys)
    a, rest = xs[0], xs[1:]
    ways = [1 + _scs_forests(_KIDS[a], part) + _scs_forests(rest, left)
            for part, left, _ in _splits(ys)]  # a's root t1-only, whole B-trees below it
    for b in set(ys):
        i = ys.index(b)
        others = ys[:i] + ys[i + 1:]
        if _LABEL[a] == _LABEL[b]:  # the roots of a and b share a node
            ways.append(1 + _scs_forests(_KIDS[a], _KIDS[b]) + _scs_forests(rest, others))
        ways.extend(1 + _scs_forests(tuple(sorted(part + (a,))), _KIDS[b])
                    + _scs_forests(left, others)
                    for part, left, _ in _splits(rest))  # b's root t2-only, above a
    return min(ways)


def _position_masks(t, pos):
    """For each preorder index j of t, whose node sits at position pos[j]:
    the bitmask of the positions in its subtree and of the positions
    comparable to it."""
    index = {v: j for j, v in enumerate(t.preorder)}
    above = [-1] + [index[t.parent(v)] for v in t.preorder[1:]]
    under = [1 << p for p in pos]
    for j in range(len(above) - 1, 0, -1):
        under[above[j]] |= under[j]
    over = [0] * len(above)
    for j in range(1, len(above)):
        over[j] = over[above[j]] | 1 << pos[above[j]]
    return under, [u | o for u, o in zip(under, over)]


def merge_matching(t1, t2, matching):
    """The common supertree of t1 and t2 in which exactly the pairs of
    `matching` (t1 node -> t2 node, equal labels) share a node, as a parent
    array (-1 at the root), or None when no common supertree does.

    Positions: each t1 node, and the t2 node matched to it, sits at its t1
    preorder index; the unmatched t2 nodes follow in t2 preorder.  A built
    supertree is re-validated: both inputs' maps onto its positions must pass
    `_violations`, else `SolverDisagreement`.

    Why merging decides the supertree optimum.  By the lemma of
    `solvers._scs_optimum`, |C| = |t1| + |t2| - |M| for a minimum common
    supertree C, where M pairs up the t1 and t2 nodes that share an image,
    and M agrees on ancestry in both inputs.  Forest matchings are never
    needed.  If M's t1 side has two or more roots, neither input root is
    matched.  Adding the pair of the two roots keeps M consistent and
    mergeable: the two roots fuse at the top of C.  So SCS = |t1| + |t2| -
    (the largest mergeable tree matching), and tree matchings are
    common-minor witnesses with one embedding per side.

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
    n1 = t1.size
    tin1 = {v: j for j, v in enumerate(t1.preorder)}
    back = {b: a for a, b in matching.items()}
    pos2, size = [], n1
    for v in t2.preorder:
        if v in back:
            pos2.append(tin1[back[v]])
        else:
            pos2.append(size)
            size += 1
    # per input: the positions under each node, itself included; and the
    # positions comparable to each one in t1 or in t2
    below1, related1 = _position_masks(t1, range(n1))
    under2, related2 = _position_masks(t2, pos2)
    below2 = [0] * size
    related = related1 + [0] * (size - n1)
    for j, p in enumerate(pos2):
        below2[p] = under2[j]
        related[p] |= related2[j]
    in1, in2 = below1[0], below2[pos2[0]]

    parent = [-1] * size
    stack = [((1 << size) - 1, -1)]
    while stack:
        s, above = stack.pop()
        s1, s2 = s & in1, s & in2
        top1 = top2 = -1
        if s1:
            x = (s1 & -s1).bit_length() - 1  # first in t1 preorder
            if not s1 & ~below1[x]:
                top1 = x
        if s2:
            for x in pos2:  # stop at the first in t2 preorder
                if s2 >> x & 1:
                    if not s2 & ~below2[x]:
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
    at2 = dict(zip(t2.preorder, pos2))
    labels = {tin1[v]: a for v, a in t1.labels.items()}
    labels.update((at2[v], a) for v, a in t2.labels.items())
    for t, f in ((t1, tin1), (t2, at2)):
        bad = _violations(f, t.preorder, t.arcs, t.labels, root, up, labels)
        if bad:
            raise SolverDisagreement(
                f"the merged supertree of {format_tree(t1)} and {format_tree(t2)} "
                f"does not host {format_tree(t)}: {bad[0]}")
    return parent


def scs_by_merging(t1, t2):
    """The supertree optimum as |t1| + |t2| minus the largest common-minor
    matching that merges (`merge_matching`): every embedding of the minor
    each node subset of t1 induces, largest subsets first, until one
    merges."""
    for k in range(min(t1.size, t2.size), 0, -1):
        for w in combinations(sorted(t1.nodes), k):
            try:
                m = induced_minor(t1, w)
            except MultiRootError:
                continue
            # lazily: a 9-node star has 8! self-maps, past the list budget
            for f in _embeddings(m, t2):
                parent = merge_matching(t1, t2, f.mapping)
                if parent is not None:
                    return len(parent)
    raise AssertionError("the pair of the two roots merges")


def root_merge_supertree(t1, t2):
    """A known common supertree of size |t1| + |t2| - 1: t1 with t2's root
    children re-attached under t1's root.

    Both inputs embed into the result (t2 maps its root onto t1's root), so
    no smallest common supertree is bigger.  t2's other nodes are renamed by
    `trees._fresh_name`, the rule `families` uses too.  With labels present
    the two roots must agree.
    """
    _require_solvable(t1, t2)
    if t1.labels.get(t1.root) != t2.labels.get(t2.root):
        raise TreeError("cannot merge roots with differing labels")

    used = set(t1.nodes)
    rename = {t2.root: t1.root}
    for v in t2.preorder[1:]:  # the root comes first
        rename[v] = _fresh_name(v, used)

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
            raise SolverDisagreement(f"root merge produced a non-supertree: {bad[0]}")
    return merged


def simple_paths_recursive(succ, v, w):
    """All simple directed paths v ⇝ w (endpoints included), by a recursive
    depth-first search that never enters w except as the last node."""
    out = []
    path = [v]
    on_path = {v}

    def walk(x):
        for y in succ[x]:
            if y == w:
                out.append(tuple(path) + (w,))
            elif y not in on_path:
                path.append(y)
                on_path.add(y)
                walk(y)
                on_path.discard(y)
                path.pop()

    walk(v)
    return out


def class_successors(q):
    """The sorted successor list of each class of a quotient."""
    succ = {c: [] for c in q.classes}
    for a, b in q.arcs:
        succ[a].append(b)
    for c in succ:
        succ[c].sort()
    return succ


def prop21_by_classes(q):
    """`check_prop21` on `ThetaClass` objects, as the library checked it
    before its integer core, with every pair's paths from
    `simple_paths_recursive`."""
    succ = class_successors(q)
    violations = []
    classes = sorted(q.classes)
    for v in classes:
        for w in classes:
            paths = simple_paths_recursive(succ, v, w) if v != w else []
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


def reduce_per_arc(nodes, arcs):
    """Arc reduction as the library reduced before its integer core, on
    nodes of any kind: one search per arc for another way around."""
    succ = {v: [] for v in nodes}
    for a, b in arcs:
        succ[a].append(b)

    def reachable_avoiding(v, w, banned_arc):
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

    kept = frozenset((v, w) for v, w in arcs if not reachable_avoiding(v, w, (v, w)))
    return Digraph(frozenset(nodes), kept)


@st.composite
def labeled_trees(draw, max_size=9):
    """Random trees of 1..max_size nodes, each node labeled a or b."""
    n = draw(st.integers(1, max_size))
    arcs = [(f"v{draw(st.integers(0, i - 1))}", f"v{i}") for i in range(1, n)]
    labels = {f"v{i}": draw(st.sampled_from("ab")) for i in range(n)}
    return Tree((f"v{i}" for i in range(n)), arcs, "v0", labels)


@st.composite
def unlabeled_trees(draw, max_size=9):
    """Random unlabeled trees of 1..max_size nodes."""
    n = draw(st.integers(1, max_size))
    arcs = [(f"v{draw(st.integers(0, i - 1))}", f"v{i}") for i in range(1, n)]
    return Tree((f"v{i}" for i in range(n)), arcs, "v0")


@st.composite
def glued_pairs(draw, max_size=8):
    """(t1, t2, mu, g1, g2): two random labeled trees, a random common minor
    (the induced minor of a random root-keeping node subset of a random
    optimal common-minor witness) and a random embedding of it into each."""
    t1 = draw(labeled_trees(max_size))
    t2 = draw(labeled_trees(max_size))
    witnesses = largest_common_minor(t1, t2, all_witnesses=True).witnesses
    assume(witnesses)
    optimum = draw(st.sampled_from(witnesses)).tree
    rest = sorted(optimum.nodes - {optimum.root})
    keep = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    mu = induced_minor(optimum, [optimum.root, *keep])
    g1 = draw(st.sampled_from(enumerate_embeddings(mu, t1, limit=64)))
    g2 = draw(st.sampled_from(enumerate_embeddings(mu, t2, limit=64)))
    return t1, t2, mu, g1, g2


def all_trees_up_to(n):
    return [t for k in range(1, n + 1) for t in enumerate_trees(k)]


@lru_cache(maxsize=None)
def catalogue(n):
    """(shape id, level sequence) of every unlabeled tree on n nodes, in
    generation order, which is code order."""
    return tuple((_intern(seq, (None,) * n), seq) for seq in _level_sequences(n))


@pytest.fixture(scope="session")
def acceptance_parts():
    """The headline instance: P a 3-chain, R a single node, S a 3-star."""
    return (parse_tree("p1(p2(p3))"), parse_tree("r"), parse_tree("s1(s2,s3)"))
