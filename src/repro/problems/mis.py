"""Maximal independent set (MIS).

Output encoding (paper Section 1.1): a bit ``b(v)`` per node; the set
``S = {v : b(v) = 1}`` must be independent and dominating.  MIS is the
``(2, 1)``-ruling set, but it is used so pervasively that it gets a
dedicated verifier.
"""

from __future__ import annotations

import numpy as np

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
        labels, owner, neigh = cg.labels, cg.owner, cg.neigh
        member = np.array([in_set(outputs[u]) for u in labels], dtype=bool)
        # Index order is identity order: an adjacent pair in the set is
        # reported once, at the slot of its lower-identity end.
        pairs = np.flatnonzero(member[owner] & member[neigh] & (owner < neigh))
        covered = np.zeros(cg.n, dtype=bool)
        covered[owner[member[neigh]]] = True
        lonely = np.flatnonzero(~(member | covered))
        found = [
            Violation((labels[i], labels[j]), "two adjacent nodes in the set")
            for i, j in zip(owner[pairs].tolist(), neigh[pairs].tolist())
        ] + [
            Violation(labels[i], "node outside the set with no neighbor in it")
            for i in lonely.tolist()
        ]
        if len(pairs) and len(lonely):
            # Row order; a row holds pairs only when it is in the set.
            rows = np.concatenate((owner[pairs], lonely))
            order = np.argsort(rows, kind="stable").tolist()
            found = [found[k] for k in order]
        return found


MIS = MISProblem()
