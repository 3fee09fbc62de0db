"""Maximal independent set (MIS).

Output encoding (paper Section 1.1): a bit ``b(v)`` per node; the set
``S = {v : b(v) = 1}`` must be independent and dominating.  MIS is the
``(2, 1)``-ruling set, but it is used so pervasively that it gets a
dedicated verifier.
"""

from __future__ import annotations

from .base import Problem, Violation, require_outputs


def in_set(value):
    """Canonical truthiness for set-membership outputs (1/True in, else out)."""
    return value in (1, True)


class MISProblem(Problem):
    """Verifier for maximal independent sets."""

    name = "MIS"

    def violations(self, graph, inputs, outputs):
        require_outputs(graph, outputs)
        cg = graph.compiled()
        labels, idents = cg.labels, cg.idents
        offsets, neigh = cg.offsets, cg.neigh
        member = [in_set(outputs[u]) for u in labels]
        found = []
        for i, u in enumerate(labels):
            row = neigh[offsets[i]:offsets[i + 1]]
            if member[i]:
                iu = idents[i]
                for j in row:
                    if member[j] and iu < idents[j]:
                        found.append(
                            Violation(
                                (u, labels[j]), "two adjacent nodes in the set"
                            )
                        )
            elif not any(member[j] for j in row):
                found.append(
                    Violation(u, "node outside the set with no neighbor in it")
                )
        return found


MIS = MISProblem()
