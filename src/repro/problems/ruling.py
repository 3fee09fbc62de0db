"""(α, β)-ruling sets (paper Section 2).

A set ``S`` is (α, β)-ruling when (1) any two nodes of ``S`` are at
distance at least α and (2) every node outside ``S`` has a node of ``S``
within distance β.  MIS is exactly the (2, 1)-ruling set problem.
"""

from __future__ import annotations

from collections import deque

from .base import Problem, Violation, require_outputs
from .mis import in_set


def _bfs_within(graph, source, limit):
    """Nodes within distance ``limit`` of ``source`` (excluding it)."""
    seen = {source: 0}
    queue = deque([source])
    reached = []
    while queue:
        u = queue.popleft()
        if seen[u] == limit:
            continue
        for v in graph.neighbors(u):
            if v not in seen:
                seen[v] = seen[u] + 1
                reached.append((v, seen[v]))
                queue.append(v)
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
        found = []
        rulers = {u for u in graph.nodes if in_set(outputs[u])}
        for u in rulers:
            for v, dist in _bfs_within(graph, u, self.alpha - 1):
                if v in rulers and graph.ident[u] < graph.ident[v]:
                    found.append(
                        Violation(
                            (u, v),
                            f"rulers at distance {dist} < α={self.alpha}",
                        )
                    )
        # Domination: one BFS from all rulers at once, cut off at β.
        reached = set(rulers)
        frontier = list(rulers)
        for _ in range(self.beta):
            next_frontier = []
            for u in frontier:
                for v in graph.neighbors(u):
                    if v not in reached:
                        reached.add(v)
                        next_frontier.append(v)
            frontier = next_frontier
        for u in graph.nodes:
            if u not in reached:
                found.append(
                    Violation(u, f"no ruler within distance β={self.beta}")
                )
        return found


def ruling_set(alpha, beta):
    """Convenience constructor."""
    return RulingSetProblem(alpha, beta)
