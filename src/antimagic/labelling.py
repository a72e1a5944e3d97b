"""Edge labellings: the graph and its per-edge label list.

A labelling is a bijection from edge ids to {1..m}, created complete:
stage 1 and the searches each put the whole per-edge list together
first and check it with ``verification.verify_bijection``, and
resolution changes a copy only by exchanging two labels.  No label ->
edge inverse is kept: an exchange finds its two edges in the list.
Vertex sums are not kept here either: ``verification.recompute_sums``
computes them from the labels whenever a stage needs them.
"""

from __future__ import annotations

from .errors import LabelMissing
from .graph import Graph


class Labelling:
    """Treated as a value, except by ``swap_labels`` on a ``copy``."""

    __slots__ = ("graph", "label_of")

    def __init__(self, graph: Graph, label_of: list[int]):
        """Make ``label_of``, all m labels by edge, the labelling, kept
        uncopied.  The caller checks the labels from the raw list with
        ``verify_bijection``."""
        self.graph = graph
        self.label_of = label_of

    def swap_labels(self, x: int, y: int) -> None:
        """Exchange the edges carrying labels x and y; only the (at most
        four) endpoint sums change.  The first of x and y that lies
        outside 1..m or that no edge carries raises LabelMissing."""
        label_of, m = self.label_of, self.graph.m
        for z in (x, y):
            if not 1 <= z <= m or z not in label_of:
                raise LabelMissing(f"label {z} unassigned")
        ex, ey = label_of.index(x), label_of.index(y)
        label_of[ex], label_of[ey] = y, x

    def copy(self) -> "Labelling":
        """A copy with its own label list."""
        return Labelling(self.graph, list(self.label_of))

    def __repr__(self) -> str:
        return f"Labelling({self.graph.m} edges)"
