"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own machinery (the shape
table, backtracking search) so tests cross-check two unrelated strategies.
"""

from itertools import permutations

import pytest

from treelab import Tree, canonical_code, chain, enumerate_trees, parse_tree


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


def all_trees_up_to(n):
    return [t for k in range(1, n + 1) for t in enumerate_trees(k)]


@pytest.fixture(scope="session")
def acceptance_parts():
    """The headline instance: P a 3-chain, R a single node, S a 3-star."""
    return (parse_tree("p1(p2(p3))"), parse_tree("r"), parse_tree("s1(s2,s3)"))
