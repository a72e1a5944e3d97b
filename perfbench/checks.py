"""Output checks written from the definition, sharing no code with the
library's verifiers: the labels are exactly 1..m and the n vertex sums
are pairwise distinct."""

from __future__ import annotations


def antimagic_failure(n: int, edges, labels) -> str | None:
    """None if ``labels[e]`` (in edge order) is an antimagic labelling of
    the graph with vertices 1..n and these edges; otherwise the reason."""
    m = len(edges)
    if len(labels) != m or sorted(labels) != list(range(1, m + 1)):
        return "labels are not a bijection onto 1..m"
    sums = [0] * (n + 1)
    for (u, v), lbl in zip(edges, labels):
        sums[u] += lbl
        sums[v] += lbl
    if len(set(sums[1:])) != n:
        return "two vertices have equal sums"
    return None


def labels_from_text(text: str, edges) -> list[int] | str:
    """Labels in edge order read from ``<u> <v> <label>`` lines, or the
    reason the text does not label exactly these edges once each."""
    eid = {}
    for e, (u, v) in enumerate(edges):
        eid[(u, v)] = e
        eid[(v, u)] = e
    labels = [0] * len(edges)
    seen = 0
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 3:
            return f"malformed line {line!r}"
        u, v, lbl = (int(x) for x in parts)
        e = eid.get((u, v))
        if e is None or labels[e]:
            return f"edge ({u},{v}) unknown or labelled twice"
        labels[e] = lbl
        seen += 1
    if seen != len(edges):
        return f"{seen} labelled edges for m = {len(edges)}"
    return labels
