"""Shared exception types."""

from __future__ import annotations


class TreeError(ValueError):
    """Structurally invalid input: malformed tree, bad subset, unknown node."""


class ParseError(TreeError):
    """Tree-literal syntax error, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidTreeError(TreeError):
    """Node/arc data that does not form a rooted tree."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class MultiRootError(TreeError):
    """A node subset whose induced minor would have several roots."""

    def __init__(self, roots):
        self.roots = tuple(roots)
        super().__init__(f"subset has {len(self.roots)} roots: {', '.join(self.roots)}")


class EmbeddingError(TreeError):
    """A map a caller handed in is not a valid minor embedding of the given
    trees: bad input (`embeddings._require_valid` alone raises it)."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class BudgetError(RuntimeError):
    """A configured search cap was exceeded before the answer was settled.

    For supertree searches, `lower_bound` carries the smallest size that was
    *not* ruled out (every level below it was exhaustively refuted).
    """

    def __init__(self, message: str, lower_bound: int | None = None):
        super().__init__(message)
        self.lower_bound = lower_bound


class SolverDisagreement(RuntimeError):
    """Two independently implemented strategies returned different answers,
    or a map the library built failed its check (`embeddings._require_built`).

    This is always a bug in treelab, never a valid outcome or bad input.
    """
