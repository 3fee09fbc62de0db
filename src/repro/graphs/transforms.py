"""Derived-graph constructions: line graphs and the clique product.

Section 5.1 of the paper constructs, without any global parameter, the
graph ``G'``: one clique ``C_u`` on ``deg(u)+1`` virtual nodes per node
``u``, plus the cross edges ``(u_i, v_i)`` for every physical edge
``(u, v)`` and every ``i ∈ [1, 1 + min(deg u, deg v)]``.  Maximal
independent sets of ``G'`` correspond one-to-one to ``(deg+1)``-colorings
of ``G``.

Section 5.2 and the edge-coloring rows run vertex-coloring algorithms on
the line graph ``L(G)``.

Both are materialized as :class:`~repro.local.virtual.VirtualSpec`
instances so the algorithms execute on the physical network through the
virtual-node layer.  Virtual identities are injective integer encodings
of (physical identity, index) pairs, keeping the identity space
polynomial in the physical one (assumption D8).
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInstanceError
from ..local.batch import BatchGraph, batch_graph_of
from ..local.virtual import VirtualSpec


def virtual_identity(graph):
    """The encoding ``(physical identity, index) -> virtual identity``.

    ``ident * (M + 2) + index`` with ``M`` the largest physical
    identity: injective for indices up to ``M + 1`` and at most
    ``(M+1)(M+2)``.  Both derived graphs encode through it, the line
    graph with ``index = ident(v)`` and the clique product with the
    clique position.
    """
    big = graph.max_ident + 2
    return lambda ident, index: ident * big + index


def clique_product_spec(graph):
    """The paper's ``G'``: cliques ``C_u`` joined by ``(u_i, v_i)`` edges.

    Virtual node ``(u, i)`` (``i ∈ 0..deg(u)``) is hosted at ``u``; clique
    edges are internal, cross edges ride the physical edge — dilation 1.

    Virtual identities: :func:`virtual_identity` of ``(ident(u), i)``.
    """
    encode = virtual_identity(graph)
    adj = {}
    ident = {}
    host = {}
    for u in graph.nodes:
        size = graph.degree(u) + 1
        for i in range(size):
            virt = (u, i)
            host[virt] = u
            ident[virt] = encode(graph.ident[u], i)
            clique = [(u, j) for j in range(size) if j != i]
            adj[virt] = clique
    for u, v in graph.edges():
        limit = 1 + min(graph.degree(u), graph.degree(v))
        for i in range(limit):
            adj[(u, i)].append((v, i))
            adj[(v, i)].append((u, i))
    return VirtualSpec(host, ident, adj, graph)


def coloring_from_mis(graph, spec, mis_outputs):
    """Decode a MIS of the clique product into a ``(deg+1)``-coloring.

    Per Section 5.1, a MIS of ``G'`` hits every clique ``C_u`` exactly
    once; the index of the chosen virtual node is the color.  Raises
    :class:`InvalidInstanceError` when the input is not a MIS of ``G'``
    (e.g. some clique is missed) — callers that pass tentative vectors
    should verify first.
    """
    colors = {}
    for u in graph.nodes:
        chosen = [
            i
            for i in range(graph.degree(u) + 1)
            if mis_outputs.get((u, i)) == 1
        ]
        if len(chosen) != 1:
            raise InvalidInstanceError(
                f"clique of node {u!r} selected {len(chosen)} virtual nodes; "
                "input is not a MIS of the clique product"
            )
        colors[u] = chosen[0] + 1  # colors in [1, deg(u)+1]
    return colors


def line_graph_spec(graph):
    """The line graph ``L(G)`` as a virtual-node specification.

    Virtual node per physical edge ``(u, v)``, labelled with the endpoint
    of smaller identity first and hosted there; two edge-nodes are
    adjacent iff the edges share an endpoint.  Some virtual edges need a
    two-hop relay (hosts ``u`` and ``w`` of edges ``(u,v)``, ``(w,v)``
    may be non-adjacent), so the dilation is 2 in general.

    Virtual identities: :func:`virtual_identity` of ``(ident(u),
    ident(v))`` for the edge ``(u, v)`` with ``ident(u) < ident(v)``.

    Port order: the row of ``(u, v)`` lists the other edges at ``u``,
    then the other edges at ``v``, each group in virtual-identity order.
    A relayed pair of hosts routes through its common neighbour of
    smallest identity.

    Built as arrays over the physical CSR: the spec holds its
    ``BatchGraph``, the host index, the dilation and the relay pairs,
    which is all the batched virtual driver reads.  The dict views and
    the host-process routing plans are built on first read.
    """
    cg = graph.compiled()
    n = cg.n
    labels = cg.labels
    idents = cg.idents
    physical = batch_graph_of(cg)
    offsets, neigh, owner = physical.offsets, physical.neigh, physical.owner
    degrees = physical.degrees
    # Edges (a, b), a < b, in slab order: lexicographic in CSR index,
    # which is identity order, so edge ids are virtual-identity order.
    upper = neigh > owner
    ea = owner[upper]
    eb = neigh[upper]
    m = len(ea)
    # Edge id of every slab slot; a lower slot takes its twin's id.
    eid = np.empty(len(neigh), dtype=np.int64)
    eid[upper] = np.arange(m)
    lower = ~upper
    rev = np.asarray(cg.rev, dtype=np.int64)
    eid[lower] = eid[offsets[neigh[lower]] + rev[lower]]
    # A CSR row lists a node's edges in virtual-identity order, so the
    # row of (a, b) is row(a) then row(b), minus (a, b) itself.
    seg_start = np.column_stack((offsets[ea], offsets[eb])).ravel()
    seg_len = np.column_stack((degrees[ea], degrees[eb])).ravel()
    seg_begin = np.cumsum(seg_len) - seg_len
    slots = np.repeat(seg_start - seg_begin, seg_len) + np.arange(
        int(seg_len.sum())
    )
    members = eid[slots]
    vdeg = degrees[ea] + degrees[eb]
    vneigh = members[members != np.repeat(np.arange(m), vdeg)]
    voffsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(vdeg - 2, out=voffsets[1:])
    relays = _line_graph_relays(n, offsets, neigh, owner, ea * n + eb)
    encode = virtual_identity(graph)
    pairs = list(zip(ea.tolist(), eb.tolist()))
    return VirtualSpec._assemble(
        physical=graph,
        dilation=2 if len(relays[0]) else 1,
        batch=BatchGraph(
            [(labels[a], labels[b]) for a, b in pairs],
            [encode(idents[a], idents[b]) for a, b in pairs],
            voffsets,
            vneigh,
        ),
        host_index=ea,
        relays=relays,
    )


def _line_graph_relays(n, offsets, neigh, owner, edge_keys):
    """Relay pairs of ``L(G)``, from 2-path arrays.

    Edges ``(p, x)`` and ``(q, x)`` with ``x`` above both hosts are
    hosted at ``p`` and ``q``; when ``p`` and ``q`` are not adjacent the
    pair relays through its common neighbour of smallest identity.  The
    2-paths ``p - r - q`` (``p < q``) are enumerated in ``r`` order, so
    the first path per host pair names its relay; sorts find it, not
    ``np.unique`` (DESIGN.md D41).  Returns ``(relays, clients)``: the
    CSR indices of every relay and each client host it serves, in slot
    order.

    The same rule picks the relay in
    :meth:`repro.local.virtual.VirtualSpec._build_routes`, which builds
    the host-process plans of this spec on first access; the two must
    agree, and the oracle tests in ``tests/test_virtual.py`` compare
    both.
    """
    slot = np.arange(len(neigh), dtype=np.int64)
    tail = offsets[owner + 1] - slot - 1
    first = np.repeat(slot, tail)
    second = first + 1 + (
        np.arange(len(first), dtype=np.int64)
        - np.repeat(np.cumsum(tail) - tail, tail)
    )
    above = owner[first] > neigh[second]
    keys = neigh[first] * n + neigh[second]
    # Sorted needles keep the search for adjacent host pairs sequential.
    order = np.argsort(keys)
    grouped = keys[order]
    at = np.minimum(np.searchsorted(edge_keys, grouped), len(edge_keys) - 1)
    apart = edge_keys[at] != grouped
    order, grouped = order[apart], grouped[apart]
    starts = np.flatnonzero(np.diff(grouped, prepend=-1))  # keys are >= 0
    lead = np.minimum.reduceat(order, starts)
    # Pairs some 2-path through a node above both hosts makes relayed.
    relayed = np.logical_or.reduceat(above[order], starts)
    lead = lead[relayed]
    # A relay's slot towards a client names both: its row and its entry.
    served = np.sort(np.concatenate((first[lead], second[lead])))
    served = served[np.diff(served, prepend=-1) != 0]
    return owner[served], neigh[served]


def line_graph_max_degree(graph):
    """Δ(L(G)) = max over edges of deg(u)+deg(v)-2."""
    best = 0
    for u, v in graph.edges():
        best = max(best, graph.degree(u) + graph.degree(v) - 2)
    return best
