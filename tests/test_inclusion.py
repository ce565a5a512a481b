"""Differential and worst-case tests for the inclusion decider behind `is_minor`.

The decider is checked against the backtracking search (exhaustively up to
size 7, by hypothesis on labeled pairs up to size 9) and, on wide fan-outs
where backtracking would be slow, against the subset oracle.
"""

import time

from hypothesis import given, settings

import treelab.embeddings as embeddings
from treelab import (canonical_code, enumerate_trees, find_embedding, is_minor,
                     parse_tree, star, tree_from_arcs)

from conftest import all_trees_up_to, is_minor_by_subsets, labeled_trees


def wide_trees(n):
    """Every tree of size n with at least n - 2 leaves.

    Such a tree has at most two internal nodes, the root and possibly one
    child x of the root; x carries k >= 1 leaves and the root the other
    n - 2 - k.
    """
    out = [star(n)]
    for k in range(1, n - 1):
        arcs = [("r", "x")] + [("x", f"a{i}") for i in range(k)]
        arcs += [("r", f"b{i}") for i in range(n - 2 - k)]
        out.append(tree_from_arcs("r", arcs))
    return out


def test_agrees_with_backtracking_on_all_pairs_up_to_7():
    trees = all_trees_up_to(7)
    pairs = 0
    for s in trees:
        for t in trees:
            assert is_minor(s, t) == (find_embedding(s, t) is not None), (s, t)
            pairs += 1
    assert pairs == 7225


@settings(max_examples=300, deadline=None)
@given(labeled_trees(), labeled_trees())
def test_agrees_with_backtracking_on_random_labeled_pairs(s, t):
    assert is_minor(s, t) == (find_embedding(s, t) is not None)


def test_never_builds_an_embedding(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("is_minor must not search for embeddings")

    monkeypatch.setattr(embeddings, "find_embedding", forbidden)
    monkeypatch.setattr(embeddings, "enumerate_embeddings", forbidden)
    for s in all_trees_up_to(5):
        for t in enumerate_trees(6):
            is_minor(s, t)


def test_decides_a_deep_broom_under_the_default_recursion_limit(monkeypatch):
    # one Python frame per target level: a(b,c) reaches the two leaves at the
    # end of an 800-deep chain from empty memos (with a comprehension in
    # `_packs`, Python 3.10 and 3.11 stop near 500 levels)
    monkeypatch.setattr(embeddings, "_FITS", {})
    monkeypatch.setattr(embeddings, "_PACKS", {})
    broom = parse_tree("(".join(f"n{i:03d}" for i in range(800)) + "(x,y)" + ")" * 799)
    assert is_minor(parse_tree("a(b,c)"), broom)


def test_wide_trees_are_all_trees_with_few_internal_nodes():
    want = sorted(canonical_code(t) for t in enumerate_trees(8) if len(t.leaves) >= 6)
    assert sorted(canonical_code(t) for t in wide_trees(8)) == want


def test_star_into_bigger_star_is_fast():
    started = time.perf_counter()
    assert is_minor(star(13), star(14, "m"))
    assert time.perf_counter() - started <= 10.0
    assert is_minor_by_subsets(star(13), star(14, "m"))


def test_star_into_every_wide_tree_is_fast():
    targets = wide_trees(14)
    started = time.perf_counter()
    verdicts = [is_minor(star(12), t) for t in targets]
    assert time.perf_counter() - started <= 10.0
    assert verdicts == [is_minor_by_subsets(star(12), t) for t in targets]


def test_wide_fan_out_without_room_for_a_branch():
    # x needs two incomparable nodes strictly below its image; the target's
    # only inner non-root node y has one child, so x cannot map anywhere.
    s = parse_tree("r(x(l1,l2)," + ",".join(f"c{i}" for i in range(9)) + ")")
    t = parse_tree("q(y(z)," + ",".join(f"d{i}" for i in range(11)) + ")")
    assert (s.size, t.size, s.height, t.height) == (13, 14, 2, 2)
    started = time.perf_counter()
    assert not is_minor(s, t)
    assert time.perf_counter() - started <= 10.0
    assert not is_minor_by_subsets(s, t)
