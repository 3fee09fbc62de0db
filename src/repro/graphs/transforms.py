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

from ..errors import InvalidInstanceError, ParameterError
from ..local.batch import BatchGraph, numpy_or_none
from ..local.virtual import VirtualSpec


def clique_product_spec(graph):
    """The paper's ``G'``: cliques ``C_u`` joined by ``(u_i, v_i)`` edges.

    Virtual node ``(u, i)`` (``i ∈ 0..deg(u)``) is hosted at ``u``; clique
    edges are internal, cross edges ride the physical edge — dilation 1.

    Virtual identities: ``ident(u) * (M + 2) + i`` with ``M`` the largest
    physical identity, hence unique and ≤ ``(M+1)(M+2)``.
    """
    big = graph.max_ident + 2
    adj = {}
    ident = {}
    host = {}
    for u in graph.nodes:
        size = graph.degree(u) + 1
        for i in range(size):
            virt = (u, i)
            host[virt] = u
            ident[virt] = graph.ident[u] * big + i
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

    Virtual identities: ``ident(u) * (M + 2) + ident(v)`` for the edge
    ``(u, v)`` with ``ident(u) < ident(v)`` and ``M`` the largest
    physical identity.

    Port order: the row of ``(u, v)`` lists the other edges at ``u``,
    then the other edges at ``v``, each group in virtual-identity order.
    A relayed pair of hosts routes through its common neighbour of
    smallest identity.

    Built as arrays over the physical CSR, and the spec carries its own
    ``BatchGraph``.  The host-process routing plans (``send_plan``,
    ``forward_plan``, ``recv_port``, ``routes``) are built on first
    access: the batched virtual driver never reads them.

    Requires numpy (DESIGN.md D23): without it this raises
    :class:`~repro.errors.ParameterError` naming numpy.
    """
    np = numpy_or_none()
    if np is None:
        raise ParameterError("line_graph_spec requires numpy")
    cg = graph.compiled()
    n = cg.n
    labels = cg.labels
    idents = cg.idents
    offsets = np.asarray(cg.offsets, dtype=np.int64)
    neigh = np.asarray(cg.neigh, dtype=np.int64)
    degrees = np.diff(offsets)
    owner = np.repeat(np.arange(n, dtype=np.int64), degrees)
    # Edges (a, b), a < b, in slab order: lexicographic in CSR index,
    # which is identity order, so edge ids are virtual-identity order.
    upper = neigh > owner
    ea = owner[upper]
    eb = neigh[upper]
    m = len(ea)
    if m == 0:
        return VirtualSpec._assemble(graph, {}, {}, {}, {}, 1, {})
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

    dilation, relay_client_ports = _line_graph_relays(
        np, n, labels, offsets, neigh, owner, ea * n + eb
    )

    ea_list = ea.tolist()
    eb_list = eb.tolist()
    big = graph.max_ident + 2
    vlabels = [(labels[a], labels[b]) for a, b in zip(ea_list, eb_list)]
    vidents = [idents[a] * big + idents[b] for a, b in zip(ea_list, eb_list)]
    bounds = voffsets.tolist()
    flat = [vlabels[j] for j in vneigh.tolist()]
    adj = {
        virt: tuple(flat[bounds[i] : bounds[i + 1]])
        for i, virt in enumerate(vlabels)
    }
    host = {virt: virt[0] for virt in vlabels}
    hosted = {}
    starts = np.flatnonzero(np.diff(ea, prepend=-1)).tolist() + [m]
    for lo, hi in zip(starts, starts[1:]):
        hosted[vlabels[lo][0]] = vlabels[lo:hi]
    return VirtualSpec._assemble(
        graph,
        host,
        dict(zip(vlabels, vidents)),
        adj,
        hosted,
        dilation,
        relay_client_ports,
        batch=BatchGraph(vlabels, vidents, voffsets, vneigh),
    )


def _line_graph_relays(np, n, labels, offsets, neigh, owner, edge_keys):
    """Dilation and relay client ports of ``L(G)``, from 2-path arrays.

    Edges ``(p, x)`` and ``(q, x)`` with ``x`` above both hosts are
    hosted at ``p`` and ``q``; when ``p`` and ``q`` are not adjacent the
    pair relays through its common neighbour of smallest identity.  The
    2-paths ``p - r - q`` (``p < q``) are enumerated in ``r`` order, so
    the first path per host pair names its relay.

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
    r = owner[first]
    keys = neigh[first] * n + neigh[second]
    at = np.minimum(np.searchsorted(edge_keys, keys), len(edge_keys) - 1)
    apart = edge_keys[at] != keys
    first, second, r, keys = first[apart], second[apart], r[apart], keys[apart]
    _, lead, pair = np.unique(keys, return_index=True, return_inverse=True)
    # Pairs some 2-path through a node above both hosts makes relayed.
    relayed = np.zeros(len(lead), dtype=bool)
    relayed[pair[r > neigh[second]]] = True
    lead = lead[relayed]
    if not len(lead):
        return 1, {}
    relays = np.concatenate((r[lead], r[lead]))
    ports = np.concatenate((first[lead], second[lead])) - offsets[relays]
    stride = len(neigh)
    relays, ports = np.divmod(np.unique(relays * stride + ports), stride)
    starts = np.flatnonzero(np.diff(relays, prepend=-1)).tolist()
    bounds = starts + [len(ports)]
    relays, ports = relays.tolist(), ports.tolist()
    return 2, {
        labels[relays[lo]]: frozenset(ports[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    }


def edge_of_virt(virt):
    """Physical edge represented by a line-graph virtual node."""
    return virt


def line_graph_max_degree(graph):
    """Δ(L(G)) = max over edges of deg(u)+deg(v)-2."""
    best = 0
    for u, v in graph.edges():
        best = max(best, graph.degree(u) + graph.degree(v) - 2)
    return best
