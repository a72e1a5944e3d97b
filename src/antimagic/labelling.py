"""Edge labellings: the labels and their label -> edge inverse.

A labelling is a bijection from edge ids to {1..m}, created complete:
stage 1 and the fallback each put the whole per-edge list together
first, and resolution changes a copy only by exchanging two labels.
The inverse is built only when it is read.  Vertex sums are not kept
here: ``verification.recompute_sums`` computes them from the labels
whenever a stage needs them.
"""

from __future__ import annotations

from .errors import LabelMissing, ProofViolation
from .graph import Graph


class Labelling:
    """Treated as a value, except by ``swap_labels`` on a ``copy``."""

    __slots__ = ("graph", "label_of", "_inverse")

    def __init__(self, graph: Graph, label_of: list[int]):
        """Make ``label_of``, all m labels by edge, the labelling, kept
        uncopied, with its inverse left to be built on first read.  The
        caller vouches for the labels or checks them from the raw list,
        as ``verify_bijection`` does."""
        self.graph = graph
        self.label_of = label_of
        self._inverse: list[int] | None = None

    @classmethod
    def from_permutation(cls, graph: Graph, labels: list[int]) -> "Labelling":
        """A labelling from a copy of a per-edge list of all m labels.  A
        list of the wrong length, a label outside 1..m or a repeated label
        raises ProofViolation."""
        m = graph.m
        label_of = list(labels)
        if len(label_of) != m:
            raise ProofViolation(f"{len(label_of)} labels for {m} edges")
        if label_of and not 0 < min(label_of) <= max(label_of) <= m:
            bad = min(label_of) if min(label_of) < 1 else max(label_of)
            raise ProofViolation(f"label {bad} out of range")
        if len(set(label_of)) != m:
            raise ProofViolation("a label is used twice")
        return cls(graph, label_of)

    @property
    def edge_with(self) -> list[int]:
        """label -> edge id, -1 for a free label.  The first read builds
        it, one store per edge, and a count raises ProofViolation on a
        repeated label (m stores of labels in 1..m fill every slot but
        label 0's only if none repeats)."""
        inverse = self._inverse
        if inverse is None:
            inverse = [-1] * (len(self.label_of) + 1)
            for eid, label in enumerate(self.label_of):
                inverse[label] = eid
            if inverse.count(-1) != 1:
                raise ProofViolation("a label is used twice")
            self._inverse = inverse
        return inverse

    def swap_labels(self, x: int, y: int) -> None:
        """Exchange the edges carrying labels x and y; only the (at most
        four) endpoint sums change."""
        m, edge_with = self.graph.m, self.edge_with
        if not 1 <= x <= m or edge_with[x] < 0:
            raise LabelMissing(f"label {x} unassigned")
        if not 1 <= y <= m or edge_with[y] < 0:
            raise LabelMissing(f"label {y} unassigned")
        ex, ey = edge_with[x], edge_with[y]
        self.label_of[ex], self.label_of[ey] = y, x
        edge_with[x], edge_with[y] = ey, ex

    def copy(self) -> "Labelling":
        """A copy with its own lists.  It reads this labelling's inverse,
        building it at most once however many copies are made."""
        lab = Labelling(self.graph, list(self.label_of))
        lab._inverse = list(self.edge_with)
        return lab

    def __repr__(self) -> str:
        return f"Labelling({self.graph.m} edges)"
