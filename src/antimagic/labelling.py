"""Edge labellings: the labels and their label -> edge inverse.

A complete labelling is a bijection from edge ids to {1..m}; during
construction the same structure holds a partial assignment.  The
inverse of a labelling completed in one pass is built only when it is
read.  Vertex sums are not kept here: ``verification.recompute_sums``
computes them from the labels whenever a stage needs them.
"""

from __future__ import annotations

from .errors import LabelMissing, ProofViolation
from .graph import Graph


class Labelling:
    """Mutable while a stage builds it; treated as a value afterwards."""

    __slots__ = ("graph", "label_of", "_inverse", "assigned")

    def __init__(self, graph: Graph):
        self.graph = graph
        m = graph.m
        self.label_of = [0] * m            # edge id -> label, 0 = unassigned
        self._inverse = [-1] * (m + 1)     # edge_with, or None: unbuilt
        self.assigned = 0

    @classmethod
    def from_permutation(cls, graph: Graph, labels: list[int]) -> "Labelling":
        """A complete labelling from a copy of a per-edge list of all m
        labels; its inverse is built on first read.  As in
        ``assign_all``, a list of the wrong length, a label outside 1..m
        or a repeated label raises ProofViolation."""
        m = graph.m
        label_of = list(labels)
        if len(label_of) != m:
            raise ProofViolation(f"{len(label_of)} labels for {m} edges")
        if label_of and not 0 < min(label_of) <= max(label_of) <= m:
            bad = min(label_of) if min(label_of) < 1 else max(label_of)
            raise ProofViolation(f"label {bad} out of range")
        if len(set(label_of)) != m:
            raise ProofViolation("a label is used twice")
        lab = cls.__new__(cls)
        lab.graph = graph
        lab.adopt(label_of)
        return lab

    def adopt(self, label_of: list[int]) -> None:
        """Make ``label_of``, all m labels by edge, the whole labelling,
        kept uncopied, with its inverse left to be built on first read.
        The caller vouches for the labels or checks them from the raw
        list, as ``verify_bijection`` does."""
        self.label_of, self._inverse = label_of, None
        self.assigned = len(label_of)

    @property
    def edge_with(self) -> list[int]:
        """label -> edge id, -1 for a free label.  After ``adopt`` the
        first read builds it, one store per edge, and a count raises
        ProofViolation on a repeated label (m stores of labels in 1..m
        fill every slot but label 0's only if none repeats)."""
        inverse = self._inverse
        if inverse is None:
            inverse = [-1] * (len(self.label_of) + 1)
            for eid, label in enumerate(self.label_of):
                inverse[label] = eid
            if inverse.count(-1) != 1:
                raise ProofViolation("a label is used twice")
            self._inverse = inverse
        return inverse

    def assign(self, eid: int, label: int) -> None:
        edge_with = self.edge_with
        if not 0 < label < len(edge_with) or edge_with[label] != -1 \
                or self.label_of[eid]:
            raise ProofViolation(
                f"label {label} out of range" if not 0 < label < len(edge_with)
                else f"label {label} already used" if edge_with[label] != -1
                else f"edge {eid} already labelled")
        self.label_of[eid] = label
        edge_with[label] = eid
        self.assigned += 1

    def assign_all(self, eids: list[int], labels: list[int]) -> None:
        """``assign`` for a batch: one pass of direct writes to the labels
        and the inverse, then one count over the whole labelling that
        shows no write reused an edge or a label.  A failed check leaves
        the labelling unusable."""
        label_of, edge_with = self.label_of, self.edge_with
        if len(eids) != len(labels):
            raise ProofViolation(
                f"{len(eids)} batch edges against {len(labels)} labels")
        if labels and not 0 < min(labels) <= max(labels) < len(edge_with):
            bad = min(labels) if min(labels) < 1 else max(labels)
            raise ProofViolation(f"batch label {bad} out of range")
        for eid, label in zip(eids, labels):
            label_of[eid] = label
            edge_with[label] = eid
        self.assigned += len(eids)
        free = len(label_of) - self.assigned
        if label_of.count(0) != free or edge_with.count(-1) != free + 1:
            raise ProofViolation("a batch edge or label was already used")

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
        lab = Labelling.__new__(Labelling)
        lab.graph = self.graph
        lab.label_of = list(self.label_of)
        lab._inverse = list(self.edge_with)
        lab.assigned = self.assigned
        return lab

    def __repr__(self) -> str:
        return f"Labelling({self.assigned}/{self.graph.m} assigned)"
