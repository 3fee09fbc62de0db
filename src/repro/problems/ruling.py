"""(α, β)-ruling sets (paper Section 2).

A set ``S`` is (α, β)-ruling when (1) any two nodes of ``S`` are at
distance at least α and (2) every node outside ``S`` has a node of ``S``
within distance β.  MIS is exactly the (2, 1)-ruling set problem.
"""

from __future__ import annotations

from collections import deque

from .base import Problem, Violation, require_outputs
from .mis import in_set


def _bfs_within(offsets, neigh, source, limit):
    """``(index, distance)`` of the nodes within ``limit`` hops of CSR
    node ``source`` (excluding it), in BFS order."""
    seen = {source: 0}
    queue = deque([source])
    reached = []
    while queue:
        i = queue.popleft()
        dist = seen[i]
        if dist == limit:
            continue
        for j in neigh[offsets[i]:offsets[i + 1]]:
            if j not in seen:
                seen[j] = dist + 1
                reached.append((j, dist + 1))
                queue.append(j)
    return reached


class RulingSetProblem(Problem):
    """Verifier for (α, β)-ruling sets."""

    def __init__(self, alpha, beta):
        if alpha < 1 or beta < 1:
            raise ValueError("ruling-set parameters must be >= 1")
        self.alpha = alpha
        self.beta = beta
        self.name = f"({alpha},{beta})-ruling-set"

    def violations(self, graph, inputs, outputs):
        require_outputs(graph, outputs)
        cg = graph.compiled()
        labels, idents, index = cg.labels, cg.idents, cg.index
        offsets, neigh = cg.offsets.tolist(), cg.neigh.tolist()
        ruler = [in_set(outputs[u]) for u in labels]
        found = []
        # Close pairs are reported in the iteration order of the ruler
        # label set, so build it exactly as a label set.
        for u in {u for u, r in zip(labels, ruler) if r}:
            i = index[u]
            for j, dist in _bfs_within(offsets, neigh, i, self.alpha - 1):
                if ruler[j] and idents[i] < idents[j]:
                    found.append(
                        Violation(
                            (u, labels[j]),
                            f"rulers at distance {dist} < α={self.alpha}",
                        )
                    )
        # Domination: one BFS from all rulers at once, cut off at β.
        reached = ruler[:]
        frontier = [i for i, r in enumerate(ruler) if r]
        for _ in range(self.beta):
            next_frontier = []
            for i in frontier:
                for j in neigh[offsets[i]:offsets[i + 1]]:
                    if not reached[j]:
                        reached[j] = True
                        next_frontier.append(j)
            frontier = next_frontier
        for i, u in enumerate(labels):
            if not reached[i]:
                found.append(
                    Violation(u, f"no ruler within distance β={self.beta}")
                )
        return found


def ruling_set(alpha, beta):
    """Convenience constructor."""
    return RulingSetProblem(alpha, beta)
