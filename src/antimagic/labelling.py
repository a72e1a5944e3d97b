"""Edge labellings with cached vertex sums.

A complete labelling is a bijection from edge ids to {1..m}; during
construction the same structure holds a partial assignment, and the
cached sums are then the partial sums over labelled edges.  Isolated
vertices have sum 0.
"""

from __future__ import annotations

from .errors import LabelMissing
from .graph import Graph


class Labelling:
    """Mutable while a stage builds it; treated as a value afterwards."""

    __slots__ = ("graph", "label_of", "edge_with", "sums", "assigned")

    def __init__(self, graph: Graph):
        self.graph = graph
        m = graph.m
        self.label_of = [0] * m            # edge id -> label, 0 = unassigned
        self.edge_with = [-1] * (m + 1)    # label -> edge id
        self.sums = [0] * (graph.n + 1)    # vertex -> sum over labelled edges
        self.assigned = 0

    @classmethod
    def from_labels(cls, graph: Graph, labels: list[int],
                    strict: bool = True) -> "Labelling":
        """Build from a per-edge label list.

        With strict=False, invalid assignments (repeated or out-of-range
        labels) are stored as-is so the verifier can report them.
        """
        lab = cls(graph)
        if strict:
            for eid, value in enumerate(labels):
                if value:
                    lab.assign(eid, value)
            return lab
        for eid, value in enumerate(labels):
            lab.label_of[eid] = value
            if 1 <= value <= graph.m and lab.edge_with[value] == -1:
                lab.edge_with[value] = eid
            a, b = graph.edges[eid]
            lab.sums[a] += value
            lab.sums[b] += value
            lab.assigned += 1
        return lab

    @property
    def m(self) -> int:
        return self.graph.m

    def assign(self, eid: int, label: int) -> None:
        assert 1 <= label <= self.graph.m, f"label {label} out of range"
        assert self.label_of[eid] == 0, f"edge {eid} already labelled"
        assert self.edge_with[label] == -1, f"label {label} already used"
        self.label_of[eid] = label
        self.edge_with[label] = eid
        a, b = self.graph.edges[eid]
        self.sums[a] += label
        self.sums[b] += label
        self.assigned += 1

    def swap_labels(self, x: int, y: int) -> None:
        """Exchange the edges carrying labels x and y; only the (at most
        four) endpoint sums change."""
        m = self.graph.m
        if not 1 <= x <= m or self.edge_with[x] < 0:
            raise LabelMissing(f"label {x} unassigned")
        if not 1 <= y <= m or self.edge_with[y] < 0:
            raise LabelMissing(f"label {y} unassigned")
        ex, ey = self.edge_with[x], self.edge_with[y]
        self.label_of[ex], self.label_of[ey] = y, x
        self.edge_with[x], self.edge_with[y] = ey, ex
        d = y - x
        for v in self.graph.edges[ex]:
            self.sums[v] += d
        for v in self.graph.edges[ey]:
            self.sums[v] -= d

    def copy(self) -> "Labelling":
        lab = Labelling.__new__(Labelling)
        lab.graph = self.graph
        lab.label_of = list(self.label_of)
        lab.edge_with = list(self.edge_with)
        lab.sums = list(self.sums)
        lab.assigned = self.assigned
        return lab

    def __eq__(self, other) -> bool:
        return (isinstance(other, Labelling)
                and other.graph is self.graph
                and other.label_of == self.label_of)

    def __repr__(self) -> str:
        return f"Labelling({self.assigned}/{self.graph.m} assigned)"
