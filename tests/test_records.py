"""The value records every module returns: constructors, equality, hashing,
immutability, ordering and repr, as callers rely on them."""

import copy
import pickle

import pytest

from treelab import (CommonTreeWitness, Digraph, EmbeddingViolation, Fig1Instance,
                     Lemma4Witness, MinorEmbedding, Prop21Report, Prop21Violation,
                     QuotientGraph, ScanReport, StructureViolation, SupertreeCandidate,
                     ThetaClass, TreeError, TripleMergeWitness, VerificationReport)
from treelab.solvers import LevelStats, SolverResult

# (class, fields without a default, the defaults of the others), in
# constructor order
RECORDS = [
    (StructureViolation, ("kind", "subject", "message"), {}),
    (Digraph, ("nodes", "arcs"), {}),
    (MinorEmbedding, ("source", "target", "mapping"), {}),
    (EmbeddingViolation, ("arc", "reason"), {"witness_node": None}),
    (Lemma4Witness, ("a", "b", "fa", "fb"), {}),
    (LevelStats, ("size", "candidates", "hits"), {}),
    (CommonTreeWitness, ("tree", "emb1", "emb2"), {}),
    (SolverResult, ("optimum_size", "witnesses"), {"levels": [], "wall_ms": 0.0}),
    (ThetaClass, ("members",), {}),
    (QuotientGraph, ("classes", "arcs", "ell1", "ell2", "mu_image", "t_mu", "g1", "g2"),
     {}),
    (Prop21Violation, ("kind", "v", "w", "paths", "reason"), {}),
    (Prop21Report, ("holds", "violations"), {}),
    (Fig1Instance, ("p", "r", "s", "parts", "t1", "t2", "claimed_mu", "g1", "g2",
                    "p_isomorphic_s"), {}),
    (SupertreeCandidate, ("case", "tree", "f1", "f2"), {}),
    (TripleMergeWitness, ("merges",), {}),
    (VerificationReport, ("family", "params", "sizes", "lcs_size", "claimed_mu_optimal",
                          "eq4_prediction", "scs_size", "scs_exact", "scs_lower_bound",
                          "scs_levels", "scs_witness_literals", "gap", "candidates",
                          "prop21", "reduced_is_tree", "quotient", "theorem5"),
     {"warnings": [], "timing": {}}),
    (ScanReport, ("max_size", "checks", "pairs_scanned", "gap_histogram",
                  "minimal_violating_pair", "prop21_summary"), {"wall_ms": 0.0}),
]

FROZEN = {StructureViolation, Digraph, EmbeddingViolation, Lemma4Witness, ThetaClass,
          Prop21Violation, TripleMergeWitness}


def sample(cls, fields, tag=""):
    """Hashable field values; records other than `Digraph` do not check types."""
    if cls is Digraph:
        return frozenset("xy"), frozenset({("x", "y")} if not tag else ())
    return tuple(f"{f}{tag}" for f in fields)


@pytest.mark.parametrize("cls, required, defaults", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_contract(cls, required, defaults):
    fields = required + tuple(defaults)
    values = sample(cls, fields)
    positional = cls(*values)
    keyword = cls(**dict(zip(fields, values)))
    assert [getattr(positional, f) for f in fields] == list(values)
    assert positional == keyword and not positional != keyword

    short, other = cls(*values[:len(required)]), cls(*values[:len(required)])
    assert {f: getattr(short, f) for f in defaults} == defaults
    for f, default in defaults.items():
        if isinstance(default, (list, dict)):
            assert getattr(short, f) is not getattr(other, f)

    changed = cls(*values[:-1], sample(cls, fields, "'")[-1])
    assert positional != changed and not positional == changed
    assert positional != type("Sub", (cls,), {})(*values)

    assert repr(positional) == "{}({})".format(
        cls.__name__, ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)))
    assert pickle.loads(pickle.dumps(positional)) == keyword
    assert copy.copy(positional) == copy.deepcopy(positional) == keyword

    if cls in FROZEN:
        assert hash(positional) == hash(keyword)
        assert {positional, keyword} == {keyword}
        assert {positional: 1}[keyword] == 1
        with pytest.raises(AttributeError):
            setattr(positional, fields[0], "new")
        with pytest.raises(AttributeError):
            delattr(positional, fields[0])
        assert getattr(positional, fields[0]) == values[0]
    else:
        with pytest.raises(TypeError):
            hash(positional)
        setattr(positional, fields[0], "new")
        assert getattr(positional, fields[0]) == "new"


def test_theta_classes_sort_by_their_members():
    members = [((2, "b"),), ((1, "a"), (2, "c")), ((1, "a"),), ((1, "b"),)]
    classes = [ThetaClass(m) for m in members]
    assert [c.members for c in sorted(classes)] == sorted(members)
    assert ThetaClass(members[2]) < ThetaClass(members[1]) <= ThetaClass(members[1])
    assert ThetaClass(members[0]) > ThetaClass(members[3]) >= ThetaClass(members[3])


def test_digraph_rejects_a_dangling_arc():
    with pytest.raises(TreeError, match="endpoint outside the node set"):
        Digraph(frozenset("ab"), frozenset({("a", "c")}))
