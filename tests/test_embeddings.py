import json
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from treelab import (EmbeddingError, MinorEmbedding, MultiRootError, TreeError,
                     are_isomorphic, chain, check_embedding,
                     check_lemma4, enumerate_embeddings, enumerate_trees,
                     fig1_family, find_embedding, format_tree, incomparable, induced_minor,
                     is_minor, parse_tree, star)

from treelab.cli import main
from treelab.embeddings import _induced_preorder, _violations
from treelab.solvers import _InducedMinor

from conftest import (all_trees_up_to, brute_force_embeddings,
                      enumerate_embeddings_recursive, is_minor_by_subsets, labeled_trees)


def identity(t, target=None):
    return {v: v for v in t.nodes}


# -- check_embedding ---------------------------------------------------------------

def test_identity_map_is_always_an_embedding():
    for t in all_trees_up_to(6):
        assert check_embedding(identity(t), t, t) == []


def test_star_into_chain_blocked_by_intermediate_image():
    violations = check_embedding({"n1": "m1", "n2": "m2", "n3": "m3"},
                                 star(3), chain(3, "m"))
    assert len(violations) == 1
    v = violations[0]
    assert v.arc == ("n1", "n3") and v.witness_node == "m2"
    assert "image" in v.reason


def test_missing_path_reported():
    violations = check_embedding({"n1": "m2", "n2": "m1"}, chain(2), chain(2, "m"))
    assert any("no path" in v.reason for v in violations)


def test_totality_injectivity_codomain_reported_not_raised():
    s, t = chain(2), star(3, "m")
    assert any("not total" in v.reason
               for v in check_embedding({"n1": "m1"}, s, t))
    assert any("not injective" in v.reason
               for v in check_embedding({"n1": "m1", "n2": "m1"}, s, t))
    assert any("not a target node" in v.reason
               for v in check_embedding({"n1": "m1", "n2": "nope"}, s, t))


def test_label_mismatch_reported():
    s = parse_tree("a:x(b)")
    t = parse_tree("u:y(v)")
    assert any("label" in v.reason for v in check_embedding({"a": "u", "b": "v"}, s, t))
    t2 = parse_tree("u:x(v)")
    assert check_embedding({"a": "u", "b": "v"}, s, t2) == []


def test_headline_instance_witness_and_path():
    inst = fig1_family(parse_tree("p1(p2(p3))"), parse_tree("r"),
                       parse_tree("s1(s2,s3)"))
    assert check_embedding(inst.g1.mapping, inst.claimed_mu, inst.t1) == []
    # the arc a -> p1 is carried by the path a -> y -> p1, y not in the image,
    # and g2 carries a -> r by a -> z -> r
    g1, g2 = inst.g1, inst.g2
    assert inst.t1.path(g1["a"], g1["p1"]) == ("a", "y", "p1")
    assert "y" not in g1.mapping.values()
    assert inst.t2.path(g2["a"], g2["r"]) == ("a", "z", "r")
    assert "z" not in g2.mapping.values()


def test_violations_are_pinned_on_hand_made_maps():
    # each violation, in order, as the checker reported it when it read the
    # target through `Tree.reaches` and `Tree.path`; on a path with several
    # image nodes the first one from the top is named
    s, t = parse_tree("a(b,c,d)"), parse_tree("r(x(y(z)),w)")
    sl, tl = parse_tree("a:L(b:M)"), parse_tree("u:L(v:M(w:N))")
    cases = [
        ({"a": "r", "b": "z", "c": "x", "d": "y"}, s, t, [
            {"arc": ["a", "b"], "reason": "path r ~> z passes through image node x",
             "witness_node": "x"},
            {"arc": ["a", "d"], "reason": "path r ~> y passes through image node x",
             "witness_node": "x"}]),
        ({"a": "r", "b": "nope", "c": "r"}, s, t, [
            {"arc": None, "reason": "image of b is not a target node", "witness_node": "nope"},
            {"arc": None, "reason": "map is not total: d has no image"},
            {"arc": None, "reason": "map is not injective: a, c share image r",
             "witness_node": "r"},
            {"arc": ["a", "c"], "reason": "no path r ~> r in the target"}]),
        ({"a": "y", "b": "r", "c": "z", "d": "z"}, s, t, [
            {"arc": None, "reason": "map is not injective: c, d share image z",
             "witness_node": "z"},
            {"arc": ["a", "b"], "reason": "no path y ~> r in the target"}]),
        ({"a": "u", "b": "w"}, sl, tl, [
            {"arc": None, "reason": "label of b differs from label of its image w",
             "witness_node": "w"}]),
        ({"a": "w", "b": "v"}, sl, tl, [
            {"arc": None, "reason": "label of a differs from label of its image w",
             "witness_node": "w"},
            {"arc": ["a", "b"], "reason": "no path w ~> v in the target"}]),
    ]
    for f, source, target, expected in cases:
        assert [v.to_json() for v in check_embedding(f, source, target)] == expected, f


def test_a_failing_map_reports_in_a_fixed_order():
    # grouped by image and arcs ordered only once a map fails; the report is
    # the one the checker gave when it sorted on every call
    s = parse_tree("a(b,c,d,e,g,h(i),j,l)")
    t = parse_tree("r(x(y(z)),w,q,k:K)")
    f = {"a": "r", "b": "w", "c": "w", "e": "q", "g": "q", "h": "x", "i": "z", "j": "y",
         "l": "k"}
    expected = [
        {"arc": None, "reason": "map is not total: d has no image"},
        {"arc": None, "reason": "map is not injective: e, g share image q",
         "witness_node": "q"},
        {"arc": None, "reason": "map is not injective: b, c share image w",
         "witness_node": "w"},
        {"arc": None, "reason": "label of l differs from label of its image k",
         "witness_node": "k"},
        {"arc": ["a", "j"], "reason": "path r ~> y passes through image node x",
         "witness_node": "x"},
        {"arc": ["h", "i"], "reason": "path x ~> z passes through image node y",
         "witness_node": "y"}]
    assert [v.to_json() for v in check_embedding(f, s, t)] == expected
    for arcs in (sorted(s.arcs), sorted(s.arcs, reverse=True)):
        got = _violations(f, s.preorder, arcs, s.labels, t.root, t._parent, t.labels)
        assert [v.to_json() for v in got] == expected


def test_violation_json_shape():
    v = check_embedding({"n1": "m1", "n2": "m2", "n3": "m3"},
                        star(3), chain(3, "m"))[0]
    assert v.to_json() == {"arc": ["n1", "n3"],
                           "reason": v.reason,
                           "witness_node": "m2"}


# -- induced minors -----------------------------------------------------------------

def test_induced_minor_on_full_node_set_is_identity():
    t = parse_tree("a(b(c,d),e)")
    assert induced_minor(t, t.nodes) == t


def test_induced_minor_contracts_to_nearest_ancestor():
    t = parse_tree("x(y(z))")
    m = induced_minor(t, {"x", "z"})
    assert m.arcs == frozenset({("x", "z")}) and m.root == "x"


def test_induced_minor_multi_root_failure_lists_roots():
    with pytest.raises(MultiRootError) as err:
        induced_minor(parse_tree("a(b,c)"), {"b", "c"})
    assert err.value.roots == ("b", "c")


def test_induced_minor_rejects_bad_subsets():
    t = chain(2)
    with pytest.raises(TreeError):
        induced_minor(t, set())
    with pytest.raises(TreeError):
        induced_minor(t, {"n1", "zz"})


def test_induced_minor_keeps_labels_and_tags():
    t = parse_tree("a:x(b(c:y))")
    m = induced_minor(t, {"a", "c"})
    assert m.labels == {"a": "x", "c": "y"}


def test_identity_embedding_of_every_induced_minor():
    for t in all_trees_up_to(5):
        names = sorted(t.nodes)
        for k in range(1, t.size + 1):
            for w in combinations(names, k):
                try:
                    m = induced_minor(t, w)
                except MultiRootError:
                    continue
                assert check_embedding(identity(m), m, t) == []


def test_induced_minor_and_the_unbuilt_minor_read_a_subset_alike():
    """`induced_minor` and the scan's `_InducedMinor` read a subset through one
    reader: the same preorder, parent positions and literal, also where name
    order runs against preorder."""
    for t in all_trees_up_to(6):
        names = sorted(t.nodes)
        for tree in (t, t.relabel(dict(zip(names, reversed(names))))):
            for k in range(1, tree.size + 1):
                for w in combinations(names, k):
                    try:
                        m = induced_minor(tree, w)
                    except MultiRootError:
                        continue
                    unbuilt = _InducedMinor(tree, w)
                    assert list(m.preorder) == unbuilt.order
                    assert [m.preorder.index(m.parent(v)) if v != m.root else -1
                            for v in m.preorder] == unbuilt.parent
                    assert unbuilt.literal == format_tree(m)


def test_the_induced_reader_refuses_a_second_root():
    with pytest.raises(MultiRootError) as err:
        _induced_preorder(parse_tree("a(b(c),d)"), ("d", "c"))
    assert err.value.roots == ("c", "d")


# -- enumeration of embeddings ---------------------------------------------------------

def test_single_node_embeds_everywhere():
    assert len(enumerate_embeddings(chain(1), chain(2, "m"))) == 2


def test_chain2_into_star3_exactly_two_in_order():
    found = enumerate_embeddings(chain(2), star(3, "m"))
    assert [f.to_json() for f in found] == [{"n1": "m1", "n2": "m2"},
                                            {"n1": "m1", "n2": "m3"}]


def test_star3_into_chain3_is_empty():
    assert enumerate_embeddings(star(3), chain(3, "m")) == []


def test_enumeration_matches_injective_map_oracle_up_to_4():
    trees = all_trees_up_to(4)
    for s in trees:
        for t in trees:
            if s.size > t.size:
                continue
            ours = {tuple(sorted(f.mapping.items()))
                    for f in enumerate_embeddings(s, t)}
            oracle = {tuple(sorted(f.items()))
                      for f in brute_force_embeddings(s, t)}
            assert ours == oracle


def test_every_enumerated_embedding_is_valid_up_to_5():
    for s in all_trees_up_to(5):
        for t in all_trees_up_to(5):
            for f in enumerate_embeddings(s, t):
                assert check_embedding(f.mapping, s, t) == []


def test_limit_is_a_prefix_of_the_full_enumeration():
    s, t = chain(2), star(4, "m")
    full = [f.to_json() for f in enumerate_embeddings(s, t)]
    for k in range(1, len(full) + 1):
        assert [f.to_json() for f in enumerate_embeddings(s, t, limit=k)] == full[:k]


def test_search_matches_the_recursive_oracle_on_all_pairs_up_to_6():
    trees = all_trees_up_to(6)
    for s in trees:
        for t in trees:
            for limit in (None, 1):
                assert (enumerate_embeddings(s, t, limit)
                        == enumerate_embeddings_recursive(s, t, limit)), (s, t, limit)
    assert len(trees) ** 2 == 1369


@settings(max_examples=200, deadline=None)
@given(labeled_trees(max_size=8), labeled_trees(max_size=8))
def test_search_matches_the_recursive_oracle_on_random_labeled_pairs(s, t):
    for limit in (None, 1):
        assert enumerate_embeddings(s, t, limit) == enumerate_embeddings_recursive(s, t, limit)


def test_deep_chain_embeds_into_itself_without_recursion(tmp_path, capsys):
    # deeper than the interpreter's recursion limit
    names = [f"n{i:04d}" for i in range(1200)]
    path = tmp_path / "chain"
    path.write_text("(".join(names) + ")" * (len(names) - 1))
    started = time.perf_counter()
    code = main(["embeddings", f"@{path}", f"@{path}", "--limit", "1"])
    assert time.perf_counter() - started < 10
    data = json.loads(capsys.readouterr().out)
    # the search for a second map proves there is none
    assert code == 0 and data["count"] == 1 and data["exhaustive"] is True
    assert data["embeddings"] == [{v: v for v in names}]


def test_limit_below_one_is_rejected():
    for limit in (0, -1):
        with pytest.raises(TreeError, match="at least 1"):
            enumerate_embeddings(chain(2), star(3, "m"), limit=limit)


def test_enumeration_rejects_empty_source():
    from treelab import Tree
    with pytest.raises(TreeError):
        enumerate_embeddings(Tree([], [], None), chain(2))


def test_labels_constrain_the_search():
    s = parse_tree("a:x")
    t = parse_tree("u:x(v:y(w:x))")
    assert sorted(f.mapping["a"] for f in enumerate_embeddings(s, t)) == ["u", "w"]


# -- is_minor ----------------------------------------------------------------------------

def test_is_minor_examples():
    t = parse_tree("a(b,c(d))")
    assert is_minor(t, t)
    assert is_minor(chain(2), star(3, "m"))
    assert not is_minor(star(3), chain(3, "m"))


def test_is_minor_agrees_with_subset_oracle_up_to_4():
    trees = all_trees_up_to(4)
    for s in trees:
        for t in trees:
            assert is_minor(s, t) == is_minor_by_subsets(s, t)


def test_is_minor_is_the_only_containment_answer_in_the_library():
    # the other strategies are oracles in conftest, and acceptance criterion 6
    # holds them to `is_minor` on every ordered pair up to 6 nodes
    import treelab
    gone = ("cross_check_minor", "is_minor_by_subsets", "root_merge_supertree",
            "disjoint_union", "map_path")
    for module in (treelab, treelab.trees, treelab.embeddings, treelab.solvers):
        assert [name for name in gone if hasattr(module, name)] == []


def test_source_root_image_is_the_unique_minimal_image_node():
    # Ancestor preservation forces the source root onto the image-minimal node.
    for s in all_trees_up_to(4):
        for t in all_trees_up_to(5):
            if s.size > t.size:
                continue
            for f in enumerate_embeddings(s, t):
                fr = f[s.root]
                assert all(t.reaches(fr, u) for u in f.mapping.values())


def test_induced_minor_on_image_is_isomorphic_to_source():
    for s in all_trees_up_to(4):
        for t in all_trees_up_to(5):
            if s.size > t.size:
                continue
            for f in enumerate_embeddings(s, t):
                assert are_isomorphic(induced_minor(t, f.mapping.values()), s)


@given(st.data())
def test_found_embeddings_validate(data):
    n1 = data.draw(st.integers(1, 5))
    n2 = data.draw(st.integers(n1, 6))
    level1, level2 = tuple(enumerate_trees(n1)), tuple(enumerate_trees(n2))
    s = level1[data.draw(st.integers(0, len(level1) - 1))]
    t = level2[data.draw(st.integers(0, len(level2) - 1))]
    f = find_embedding(s, t)
    if f is not None:
        assert check_embedding(f.mapping, s, t) == []
        assert is_minor(s, t)
    else:
        assert not is_minor_by_subsets(s, t)


# -- incomparability ------------------------------------------------------------------------

def test_incomparable_examples():
    t = parse_tree("x(y)")
    assert not incomparable(t, "x", "y")
    assert incomparable(star(3), "n2", "n3")
    assert not incomparable(t, "x", "x")
    with pytest.raises(TreeError):
        incomparable(t, "x", "zz")


def test_lemma4_on_identity_and_headline_instance():
    t = parse_tree("a(b(c,d),e)")
    assert check_lemma4(MinorEmbedding(t, t, identity(t))) == []
    inst = fig1_family(parse_tree("p1(p2(p3))"), parse_tree("r"),
                       parse_tree("s1(s2,s3)"))
    assert incomparable(inst.claimed_mu, "p1", "s1")
    assert check_lemma4(inst.g1) == []
    assert check_lemma4(inst.g2) == []


def test_lemma4_rejects_invalid_embedding():
    bad = MinorEmbedding(star(3), chain(3, "m"),
                         {"n1": "m1", "n2": "m2", "n3": "m3"})
    with pytest.raises(EmbeddingError):
        check_lemma4(bad)
