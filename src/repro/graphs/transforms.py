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

``L(G)`` is built as arrays once per graph and memoised on its
``CompiledGraph``.  Theorem 1's alternation restricts ``G`` step by
step, and ``L(G[S])`` is ``L(G)`` induced on the edges inside ``S``, so
a restricted child derives its line graph from its parent's arrays: one
restriction pass over the parent's line CSR and one mask over its
2-path table, which carries the relays (DESIGN.md D42).
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInstanceError
from ..local.batch import BatchGraph, batch_graph_of, rev_of
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

    Memoised on the graph's ``CompiledGraph``, so the calls on one graph
    share one spec.  A graph restricted from one whose line graph exists
    derives its own from the parent's arrays instead of building it,
    and takes over the parent's memo (DESIGN.md D42); the build is the
    path for every other graph, and the one the derivation is tested
    against.
    """
    return _line_graph(graph.compiled()).spec


def line_graph_ends(graph):
    """Both endpoints of every ``L(G)`` node, as physical CSR indices.

    ``(lower, upper)`` arrays in the order of the spec's ``BatchGraph``;
    ``lower`` is the spec's host index.
    """
    line = _line_graph(graph.compiled())
    return line.spec.host_index, line.upper


class _LineGraph:
    """``L(G)`` of one ``CompiledGraph``, with what a child derives from.

    ``upper`` is each virtual node's upper endpoint (the host index is
    the lower one), ``big`` the identity base ``max_ident + 2`` its
    virtual identities are encoded with, and ``table`` the 2-path table
    of its relayed host pairs (see :func:`_relay_pairs`).
    """

    __slots__ = ("spec", "upper", "big", "table")

    def __init__(self, graph, batch, ea, eb, big, relays, table):
        self.spec = VirtualSpec._assemble(
            physical=graph,
            dilation=2 if len(relays[0]) else 1,
            batch=batch,
            host_index=ea,
            relays=relays,
        )
        self.upper = eb
        self.big = big
        self.table = table


def _line_graph(cg):
    """The memoised ``L(G)`` of ``cg``, built or derived on first use.

    A ``restrict`` child derives its own from the parent's, through the
    link ``(parent's L(G), keep mask, slot count)``.  The derivation
    then drops the link and the parent's memo, so no parent state
    outlives it: an alternation never reads a parent's line graph
    again, and one that does gets it built afresh.
    """
    line = cg._line
    if line is None:
        link, cg._line_from = cg._line_from, None
        if link is None:
            line = _build_line_graph(cg)
        else:
            line = _derive_line_graph(cg, *link)
            link[0].spec.physical.compiled()._line = None
        cg._line = line
    return line


def _edge_identities(idents, ea, eb, big):
    """:func:`virtual_identity` of every edge ``(a, b)``, as a list."""
    return [
        idents[a] * big + idents[b] for a, b in zip(ea.tolist(), eb.tolist())
    ]


def _build_line_graph(cg):
    """``L(G)`` from the physical CSR alone."""
    n = cg.n
    labels = cg.labels
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
    eid[lower] = eid[offsets[neigh[lower]] + rev_of(cg)[lower]]
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
    relays, table = _line_graph_relays(n, offsets, neigh, owner, ea * n + eb)
    big = cg.graph.max_ident + 2
    return _LineGraph(
        cg.graph,
        BatchGraph(
            [(labels[a], labels[b]) for a, b in zip(ea.tolist(), eb.tolist())],
            _edge_identities(cg.idents, ea, eb, big),
            voffsets,
            vneigh,
        ),
        ea,
        eb,
        big,
        relays,
        table,
    )


def _derive_line_graph(cg, parent, alive, count):
    """``L(G[S])`` from ``L(G)``: one restriction pass, one table mask.

    ``alive`` is the parent's keep mask and ``count`` the restriction's
    cumulative count of kept physical slots (``count[k]`` is the child
    slot of kept slot ``k``).  An edge survives when both its ends do,
    and restriction keeps identity order, so ``L(G)``'s induced CSR is
    ``L(G[S])`` with rows, ports and edge ids in order.  The 2-path
    table keeps a row when both its slots survive, which keeps its key
    order too.  Identities are re-encoded only when the largest physical
    identity left.
    """
    line = parent.spec._batch
    ea, eb = parent.spec.host_index, parent.upper
    survivors, _, _, offsets, neigh = line.induced(alive[ea] & alive[eb])
    renumber = np.cumsum(alive) - 1
    ea, eb = renumber[ea[survivors]], renumber[eb[survivors]]
    rows = survivors.tolist()
    big = cg.idents[-1] + 2 if cg.n else parent.big
    if big == parent.big:
        idents = [line.idents[i] for i in rows]
    else:
        idents = _edge_identities(cg.idents, ea, eb, big)
    first, second, key, above = parent.table
    live = (count[first + 1] > count[first]) & (count[second + 1] > count[second])
    physical = batch_graph_of(cg)
    relays, table = _relay_pairs(
        physical.owner,
        physical.neigh,
        count[first[live]],
        count[second[live]],
        key[live],
        above[live],
    )
    return _LineGraph(
        cg.graph,
        BatchGraph([line.labels[i] for i in rows], idents, offsets, neigh),
        ea,
        eb,
        big,
        relays,
        table,
    )


def _line_graph_relays(n, offsets, neigh, owner, edge_keys):
    """Relay pairs of ``L(G)`` and its 2-path table, from the CSR.

    Edges ``(p, x)`` and ``(q, x)`` with ``x`` above both hosts are
    hosted at ``p`` and ``q``; when ``p`` and ``q`` are not adjacent the
    pair relays through its common neighbour of smallest identity.  The
    2-paths ``p - r - q`` (``p < q``) are enumerated in ``r`` order and
    sorted by host pair; the pairs that are edges drop out by a
    sequential search of the sorted keys, and :func:`_relay_pairs` does
    the rest.  Sorts group them, not ``np.unique`` (DESIGN.md D41).

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
    keys = neigh[first] * n + neigh[second]
    order = np.argsort(keys)
    grouped = keys[order]
    at = np.minimum(np.searchsorted(edge_keys, grouped), len(edge_keys) - 1)
    apart = edge_keys[at] != grouped
    order = order[apart]
    return _relay_pairs(
        owner,
        neigh,
        first[order],
        second[order],
        grouped[apart],
        owner[first[order]] > neigh[second[order]],
    )


def _relay_pairs(owner, neigh, first, second, key, above):
    """Relay pairs from a 2-path table; also the table cut to them.

    Row ``i`` is a 2-path ``p - r - q`` between non-adjacent hosts
    ``p < q``: ``first[i]`` and ``second[i]`` are ``r``'s slots towards
    ``p`` and ``q``, ``key[i]`` names the pair (rows of one pair are
    adjacent, pairs in ascending key order) and ``above[i]`` says
    ``r > q``.  A pair relays when one of its 2-paths runs through a
    node above both hosts, and then through the 2-path of smallest
    ``r``, which has the smallest slots (rows ascend with ``r``).
    Returns ``((relays, clients), table)``: the CSR indices of every
    relay and each client host it serves, in slot order, and the rows
    of the pairs that relay — the only ones a restriction can still
    make relay.
    """
    if not len(key):
        empty = np.zeros(0, dtype=np.int64)
        return (empty, empty), (first, second, key, above)
    starts = np.flatnonzero(np.diff(key, prepend=-1))  # keys are >= 0
    lens = np.diff(starts, append=len(key))
    relayed = np.logical_or.reduceat(above, starts)
    kept = np.repeat(relayed, lens)
    first, second, key, above = first[kept], second[kept], key[kept], above[kept]
    lens = lens[relayed]
    # A slot pair packs into one int64 (slots squared stay below 2^63).
    width = len(neigh)
    lead = np.minimum.reduceat(first * width + second, np.cumsum(lens) - lens)
    # A relay's slot towards a client names both: its row and its entry.
    served = np.zeros(width, dtype=bool)
    for slots in np.divmod(lead, width):
        served[slots] = True
    served = np.flatnonzero(served)
    return (owner[served], neigh[served]), (first, second, key, above)


def line_graph_max_degree(graph):
    """Δ(L(G)) = max over edges of deg(u)+deg(v)-2."""
    best = 0
    for u, v in graph.edges():
        best = max(best, graph.degree(u) + graph.degree(v) - 2)
    return best
