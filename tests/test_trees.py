from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from treelab import (BudgetError, Digraph, InvalidTreeError, ParseError, Tree,
                     TreeError, are_isomorphic, canonical_code, chain, enumerate_trees,
                     format_tree, is_rooted_tree, parse_tree, star, to_dot,
                     tree_from_arcs, validate)

from treelab.trees import (_code, _level_sequences, _levels_of, _literal_from_levels,
                           _shape, _sized_sequences, _tree_count, _tree_from_levels)

from conftest import (all_trees_up_to, brute_force_isomorphic, catalogue,
                      enumerate_by_leaf_growth, reference_code)

COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]


# -- parsing -------------------------------------------------------------------

def test_parse_single_node():
    t = parse_tree("a")
    assert t.size == 1 and t.root == "a" and not t.arcs


def test_parse_chain():
    t = parse_tree("a(b(c))")
    assert t.arcs == frozenset({("a", "b"), ("b", "c")})


def test_parse_headline_instance_literal():
    t = parse_tree("a(y(p1(p2(p3)),r),s1(s2,s3))")
    assert t.size == 9
    assert t.children("y") == ("p1", "r")
    assert t.children("a") == ("s1", "y")
    assert t.parent("s2") == "s1"


def test_parse_labels():
    t = parse_tree("a:red(b,c:blue)")
    assert t.labels == {"a": "red", "c": "blue"}


def test_parse_whitespace_insignificant():
    assert parse_tree(" a ( b , c ( d ) ) ") == parse_tree("a(b,c(d))")


@pytest.mark.parametrize("bad, pos", [
    ("", 0),
    ("a(b,", 4),
    ("a(b))", 4),
    ("a(", 2),
    ("(a)", 0),
    ("a(b,,c)", 4),
    ("a(b c)", 4),
])
def test_parse_syntax_errors_carry_position(bad, pos):
    with pytest.raises(ParseError) as err:
        parse_tree(bad)
    assert err.value.position == pos


def test_parse_duplicate_name_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_tree("a(b,b)")


# -- printing & round trip -------------------------------------------------------

def test_format_examples():
    assert format_tree(parse_tree("a")) == "a"
    assert format_tree(parse_tree("a(b(c))")) == "a(b(c))"
    assert format_tree(parse_tree("a:x(c,b:y)")) == "a:x(b:y,c)"


def test_round_trip_exhaustive_up_to_8():
    for n in range(1, 9):
        for t in enumerate_trees(n):
            assert parse_tree(format_tree(t)) == t


@st.composite
def random_trees(draw):
    n = draw(st.integers(1, 6))
    shapes = tuple(enumerate_trees(n))
    t = shapes[draw(st.integers(0, len(shapes) - 1))]
    names = draw(st.lists(st.from_regex(r"[A-Za-z0-9_]{1,8}", fullmatch=True),
                          min_size=n, max_size=n, unique=True))
    t = t.relabel(dict(zip(sorted(t.nodes), names)))
    labels = draw(st.dictionaries(st.sampled_from(sorted(t.nodes)),
                                  st.from_regex(r"[A-Za-z0-9_]{1,4}", fullmatch=True),
                                  max_size=n))
    return Tree(t.nodes, t.arcs, t.root, labels)


@given(random_trees())
def test_round_trip_random_names_and_labels(t):
    assert parse_tree(format_tree(t)) == t


def test_deep_chain_round_trips():
    n = 10_000
    literal = "".join(f"v{i}(" for i in range(n - 1)) + f"v{n - 1}" + ")" * (n - 1)
    t = parse_tree(literal)
    assert t.size == n and t.height == n - 1
    assert format_tree(t) == literal
    assert canonical_code(t) == "(" * n + ")" * n
    assert are_isomorphic(t, chain(n))


# -- validation -------------------------------------------------------------------

def test_validate_accepts_every_enumerated_tree():
    for t in all_trees_up_to(6):
        assert validate(t) == []


def test_validate_accepts_empty_tree():
    assert validate(Tree([], [], None)) == []


def test_validate_flags_second_parent():
    g = Digraph(frozenset("abc"), frozenset({("a", "b"), ("c", "b")}))
    kinds = {v.kind for v in validate(g)}
    assert "multi_parent" in kinds


def test_every_second_parent_mutation_is_rejected():
    for t in all_trees_up_to(5):
        for u in sorted(t.nodes):
            for v in sorted(t.nodes):
                if u == v or v == t.root or (u, v) in t.arcs:
                    continue
                g = Digraph(t.nodes, t.arcs | {(u, v)})
                assert any(x.kind == "multi_parent" for x in validate(g)), \
                    f"adding {u}->{v} to {format_tree(t)} went unflagged"


def test_validate_flags_cycle():
    g = Digraph(frozenset("abc"), frozenset({("a", "b"), ("b", "c"), ("c", "a")}))
    assert any(v.kind == "no_root" for v in validate(g))


def test_validate_flags_multiple_roots_and_unreachable():
    g = Digraph(frozenset("abcd"), frozenset({("a", "b"), ("c", "d")}))
    kinds = {v.kind for v in validate(g)}
    assert "multi_root" in kinds


@st.composite
def digraphs(draw):
    """Node and arc sets with no tree constraint: a random tree or nothing,
    plus random arcs (self-loops, cycles, second parents, arcs to the
    non-node x), minus some arcs (extra roots, unreachable nodes)."""
    n = draw(st.integers(0, 6))
    nodes = [f"v{i}" for i in range(n)]
    arcs = set()
    if n and draw(st.booleans()):
        arcs = {(nodes[draw(st.integers(0, i - 1))], nodes[i]) for i in range(1, n)}
    names = st.sampled_from(nodes + ["x"])
    arcs |= set(draw(st.lists(st.tuples(names, names), max_size=3)))
    if arcs:
        arcs -= draw(st.sets(st.sampled_from(sorted(arcs)), max_size=2))
    return SimpleNamespace(nodes=frozenset(nodes), arcs=frozenset(arcs))


@settings(max_examples=500)
@given(digraphs())
def test_is_rooted_tree_is_validate_without_the_report(g):
    assert is_rooted_tree(g) == (not validate(g))


def test_is_rooted_tree_examples():
    def graph(nodes, arcs):
        return SimpleNamespace(nodes=frozenset(nodes), arcs=frozenset(arcs))

    assert is_rooted_tree(graph("", ())) and is_rooted_tree(Tree([], [], None))
    assert is_rooted_tree(parse_tree("a(b(c),d)"))
    assert not is_rooted_tree(graph("ab", {("a", "b"), ("b", "b")}))  # self-loop
    assert not is_rooted_tree(graph("ab", {("a", "b"), ("b", "x")}))  # dangling arc
    assert not is_rooted_tree(graph("", {("x", "y")}))  # dangling, no nodes
    assert not is_rooted_tree(graph("abc", {("a", "b"), ("a", "c"), ("c", "b")}))
    assert not is_rooted_tree(graph("ab", ()))  # two roots
    assert not is_rooted_tree(graph("abc", {("a", "b"), ("c", "a")} | {("b", "c")}))
    assert not is_rooted_tree(graph("abcd", {("a", "b"), ("c", "d"), ("d", "c")}))


def test_tree_constructor_rejects_labels_outside_the_literal_grammar():
    # an empty label would print as "a:" and share the unlabeled node's code
    for bad in ("", "x y", 3):
        with pytest.raises(TreeError, match="label"):
            Tree(["a"], [], "a", labels={"a": bad})


def test_tree_constructor_rejects_bad_data():
    with pytest.raises(InvalidTreeError):
        Tree(["a", "b"], [("a", "b"), ("b", "a")], "a")
    with pytest.raises(InvalidTreeError):
        Tree(["a", "b", "c"], [("a", "b")], "a")  # c unreachable, extra root
    with pytest.raises(InvalidTreeError):
        Tree(["a"], [], None)
    with pytest.raises(TreeError):
        Tree(["a"], [], "a", labels={"zz": "x"})


# -- canonical codes ----------------------------------------------------------------

def test_code_of_single_node():
    assert canonical_code(parse_tree("a")) == "()"


def test_chain3_and_star3_have_distinct_codes():
    assert canonical_code(chain(3)) != canonical_code(star(3))


def test_iso_ignores_child_order_and_names():
    assert are_isomorphic(parse_tree("a(b,c(d))"), parse_tree("x(y(z),w)"))
    assert not are_isomorphic(chain(3), star(3))
    t = parse_tree("a(b,c(d))")
    assert are_isomorphic(t, t)


def test_labels_enter_the_code():
    assert canonical_code(parse_tree("a:x")) == "(x)"
    assert canonical_code(parse_tree("a:x")) != canonical_code(parse_tree("a:y"))
    assert are_isomorphic(parse_tree("a:x(b:y)"), parse_tree("c:x(d:y)"))
    assert not are_isomorphic(parse_tree("a:x(b:y)"), parse_tree("a:x(b:z)"))


def test_code_equality_matches_permutation_search_up_to_6():
    for n in range(1, 7):
        level = tuple(enumerate_trees(n))
        for i, t1 in enumerate(level):
            for t2 in level[i:]:
                assert are_isomorphic(t1, t2) == brute_force_isomorphic(t1, t2)


def test_code_matches_reference_on_every_tree_up_to_9():
    for t in all_trees_up_to(9):
        assert canonical_code(t) == reference_code(t)


@st.composite
def random_labeled_trees(draw, max_size=90, labels=st.from_regex(r"[A-Za-z0-9_]{1,4}",
                                                                  fullmatch=True)):
    """A random recursive tree (node i hangs below a node before it) with
    shuffled names and random labels."""
    n = draw(st.integers(1, max_size))
    prefix = draw(st.from_regex(r"[A-Za-z_]{1,3}", fullmatch=True))
    names = [f"{prefix}{k}" for k in draw(st.permutations(range(n)))]
    arcs = [(names[draw(st.integers(0, i - 1))], names[i]) for i in range(1, n)]
    pool = draw(st.lists(labels, min_size=1, max_size=3))
    marks = draw(st.dictionaries(st.sampled_from(names), st.sampled_from(pool), max_size=n))
    return Tree(names, arcs, names[0], marks)


@given(random_labeled_trees())
def test_code_matches_reference_on_random_labeled_trees(t):
    assert canonical_code(t) == reference_code(t)


@given(random_labeled_trees(max_size=6, labels=st.sampled_from("xy")),
       random_labeled_trees(max_size=6, labels=st.sampled_from("xy")))
def test_iso_matches_permutation_search_on_labeled_pairs(t1, t2):
    assert are_isomorphic(t1, t2) == brute_force_isomorphic(t1, t2)
    copy = t1.relabel({v: v + "_c" for v in t1.nodes})
    assert are_isomorphic(t1, copy) and brute_force_isomorphic(t1, copy)


def test_relabeled_copies_stay_isomorphic():
    for t in enumerate_trees(5):
        copy = t.relabel({v: f"x_{v}" for v in t.nodes})
        assert are_isomorphic(t, copy)
        assert brute_force_isomorphic(t, copy)


# -- enumeration ----------------------------------------------------------------------

def test_enumeration_counts():
    assert [len(tuple(enumerate_trees(n))) for n in range(1, 11)] == COUNTS


def test_tree_count_is_the_number_of_level_sequences():
    counts = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973]
    assert [_tree_count(n) for n in range(1, 15)] == counts
    assert [sum(1 for _ in _level_sequences(n)) for n in range(1, 15)] == counts


def test_enumeration_matches_leaf_growth_oracle():
    for n in range(1, 9):
        ours = {canonical_code(t) for t in enumerate_trees(n)}
        oracle = set(enumerate_by_leaf_growth(n))
        assert ours == oracle


def test_enumeration_is_sorted_and_duplicate_free():
    for n in range(1, 8):
        codes = [canonical_code(t) for t in enumerate_trees(n)]
        assert codes == sorted(codes)
        assert len(codes) == len(set(codes))
        assert all(t.size == n for t in enumerate_trees(n))


def test_catalogue_entries_are_the_shapes_of_their_sequences():
    for n in range(1, 11):
        entries = catalogue(n)
        assert len(entries) == COUNTS[n - 1]
        for shape, sequence in entries:
            assert _shape(_tree_from_levels(sequence)) == shape


def parenthesis_string(levels):
    """The balanced-parenthesis string of a preorder level sequence."""
    out, prev = [], 0
    for lv in levels:
        out.append(")" * (prev - lv + 1) + "(")
        prev = lv
    return "".join(out) + ")" * prev


def test_catalogue_is_in_generation_order_which_is_code_order():
    for n in range(1, 13):
        entries = catalogue(n)
        codes = [_code(shape) for shape, _ in entries]
        assert all(a < b for a, b in zip(codes, codes[1:]))
        assert codes == [parenthesis_string(sequence) for _, sequence in entries]
    # across sizes too (the pair scan relies on it): decreasing level-sequence
    # order is code order
    entries = sorted((e for n in range(1, 10) for e in catalogue(n)),
                     key=lambda e: e[1], reverse=True)
    assert len(entries) == 486
    codes = [_code(shape) for shape, _ in entries]
    assert all(a < b for a, b in zip(codes, codes[1:]))


def test_levels_of_a_shape_are_its_catalogue_sequence():
    for n in range(1, 13):
        for shape, sequence in catalogue(n):
            assert _levels_of(shape) == sequence
    assert _levels_of(_shape(parse_tree("a:x(b:y,c)"))) == (1, 2, 2)


def test_literals_from_levels_are_the_named_trees_literals():
    # size 11 is the first with a node v10, printed before v2 among siblings
    for n in range(1, 12):
        for shape, sequence in catalogue(n):
            literal = _literal_from_levels(sequence)
            assert literal == format_tree(_tree_from_levels(sequence))
            assert _shape(parse_tree(literal)) == shape
    deep = tuple(range(1, 3001))
    assert _literal_from_levels(deep) == format_tree(_tree_from_levels(deep))


def test_enumeration_is_lazy_and_repeatable():
    level = enumerate_trees(6)
    assert iter(level) is level
    first = next(level)
    assert first.preorder == tuple(f"v{i}" for i in range(6))
    assert [format_tree(t) for t in enumerate_trees(6)][0] == format_tree(first)


def test_enumeration_bounds():
    with pytest.raises(TreeError):
        enumerate_trees(0)
    with pytest.raises(BudgetError):
        enumerate_trees(15)
    with pytest.raises(BudgetError):
        _sized_sequences(7, 6)


# -- helpers, export -----------------------------------------------------------

def test_chain_and_star_shapes():
    assert chain(1).size == 1
    assert chain(4).height == 3
    assert star(4).height == 1 and len(star(4).leaves) == 3


def test_to_dot_tree():
    dot = to_dot(parse_tree("a(b)"))
    assert dot.startswith("digraph {")
    assert '"a" -> "b";' in dot


def test_to_dot_single_node_has_node_statement():
    assert '"a" [label="a"];' in to_dot(parse_tree("a"))


def test_to_dot_renders_region_tags_as_colors():
    t = Tree(["a", "b"], [("a", "b")], "a", region_tags={"a": "spine", "b": "P"})
    dot = to_dot(t)
    assert "fillcolor" in dot and "filled" in dot


def test_to_dot_digraph_with_tagged_nodes():
    # nodes tagged with their origin tree, as in a disjoint sum
    u = Digraph(frozenset({(1, "a"), (1, "b"), (2, "a"), (2, "b")}),
                frozenset({((1, "a"), (1, "b")), ((2, "a"), (2, "b"))}))
    dot = to_dot(u)
    assert '"1:a" -> "1:b";' in dot and '"2:a" -> "2:b";' in dot


# -- the Tree API -------------------------------------------------------------------------

def test_tree_accessors_and_paths():
    t = parse_tree("a(b(c,d),e)")
    assert t.reaches("a", "c") and t.reaches("a", "a")
    assert not t.reaches("c", "a") and not t.reaches("b", "e")
    assert t.path("a", "c") == ("a", "b", "c")
    assert t.strict_descendants("b") == ("c", "d")
    u = parse_tree("z(b(y,a(x)),c)")  # name order differs from preorder
    for v in u.nodes:
        assert u.strict_descendants(v) == tuple(
            sorted(w for w in u.nodes if w != v and u.reaches(v, w)))
    assert t.depth("c") == 2
    with pytest.raises(TreeError):
        t.path("c", "a")
    with pytest.raises(TreeError):
        t.children("zz")


def test_relabel_checks_and_preserves_structure():
    t = parse_tree("a(b)")
    with pytest.raises(TreeError):
        t.relabel({"a": "x", "b": "x"})
    with pytest.raises(TreeError):
        t.relabel({"a": "x"})
    copy = t.relabel({"a": "x", "b": "y"})
    assert copy.arcs == frozenset({("x", "y")})
    assert t.arcs == frozenset({("a", "b")})


def test_format_tree_rejects_empty():
    with pytest.raises(TreeError):
        format_tree(Tree([], [], None))


def test_tree_from_arcs_infers_nodes():
    t = tree_from_arcs("a", [("a", "b"), ("b", "c")])
    assert t.size == 3 and t.root == "a"
