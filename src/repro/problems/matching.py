"""Maximal matching, in the paper's output encoding.

Section 2: given ``(G, x, y)``, nodes ``u`` and ``v`` are *matched* when
``(u,v) ∈ E``, ``y(u) = y(v)`` and ``y(w) ≠ y(u)`` for every other node
``w`` of ``N(u) ∪ N(v)``.  The MM problem requires each node to be either
matched to a neighbour, or to have all its neighbours matched.

Algorithms internally use the conventional *partner* encoding (partner
identity or ``None``); :func:`partner_to_paper_encoding` converts, giving
matched pairs the shared value ``("M", min_id, max_id)`` and unmatched
nodes the unique value ``("U", Id(v))``.
"""

from __future__ import annotations

import numpy as np

from .base import Problem, Violation, require_outputs


def _partners(cg, outputs):
    """``partner[i]``: the CSR index of ``i``'s matched neighbour, or -1.

    Under the paper's rule, ``(u, v)`` is matched iff ``y(u) = y(v)`` and
    no other node of ``N(u) ∪ N(v)`` shares that value — that is, iff
    ``v`` is ``u``'s only same-valued neighbour and ``u`` is ``v``'s.  So
    a node is matched to at most one neighbour.
    """
    offsets, neigh = cg.offsets.tolist(), cg.neigh.tolist()
    values = [outputs.get(u) for u in cg.labels]
    only = [-1] * cg.n
    for i, value in enumerate(values):
        row = neigh[offsets[i]:offsets[i + 1]]
        same = [j for j in row if values[j] == value]
        if len(same) == 1:
            only[i] = same[0]
    return [j if j >= 0 and only[j] == i else -1 for i, j in enumerate(only)]


def matched_pairs(graph, outputs):
    """Matched edges ``(u, v)`` with ``Id(u) < Id(v)``, paper's encoding."""
    cg = graph.compiled()
    labels, idents = cg.labels, cg.idents
    return {
        (labels[i], labels[j])
        for i, j in enumerate(_partners(cg, outputs))
        if j >= 0 and idents[i] < idents[j]
    }


class MaximalMatchingProblem(Problem):
    """Verifier for maximal matching in the paper's encoding."""

    name = "maximal-matching"

    def violations(self, graph, inputs, outputs):
        require_outputs(graph, outputs)
        cg = graph.compiled()
        free = np.array(_partners(cg, outputs), dtype=np.int64) < 0
        bad = np.zeros(cg.n, dtype=bool)
        bad[cg.owner[free[cg.owner] & free[cg.neigh]]] = True
        labels = cg.labels
        return [
            Violation(labels[i], "unmatched node with an unmatched neighbour")
            for i in np.flatnonzero(bad).tolist()
        ]


MAXIMAL_MATCHING = MaximalMatchingProblem()


def partner_to_paper_encoding(graph, partner):
    """Convert partner-identity outputs to the paper's value encoding.

    ``partner[u]`` is the *identity* of u's partner, or ``None``.  The
    conversion is deliberately forgiving: inconsistent partner claims
    simply produce values that fail to form matched pairs, which the
    verifier/pruner then treats as unmatched — mirroring how a tentative
    output vector may be arbitrary garbage.
    """
    values = {}
    for u in graph.nodes:
        p = partner.get(u)
        if p is None:
            values[u] = ("U", graph.ident[u])
        else:
            a, b = sorted((graph.ident[u], p))
            values[u] = ("M", a, b)
    return values
