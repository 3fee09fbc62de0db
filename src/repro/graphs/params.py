"""Computation of the paper's graph parameters.

Section 2 evaluates running times against *non-decreasing
graph-parameters*; the ones the paper uses are:

* ``n`` — number of nodes;
* ``Δ`` — maximum degree;
* ``m`` — largest identity (Section 5.2 treats identities as colors);
* ``a`` — arboricity.

For arboricity we use the *density arboricity* ``max(1, ⌈ρ*⌉)``, where
``ρ* = max_H |E(H)| / |V(H)|`` is the maximum subgraph density.  It
sandwiches the Nash–Williams arboricity (``ρ* ≤ a_NW ≤ degeneracy ≤
2ρ*``), is non-decreasing under subgraphs, and is the quantity our
peeling procedures are analysed against (every subgraph has average
degree at most twice it).

Only the ceiling of ``ρ*`` is needed, so :func:`density_arboricity`
never computes ``ρ*`` itself.  It brackets ``⌈ρ*⌉`` between two
certified integers read off the core decomposition:

* ``lo`` is the largest ``⌈m_K / n_K⌉`` over the k-cores ``K``.  Every
  core is a subgraph, so ``ρ* ≥ m_K / n_K``.  The 0-core is the whole
  graph, so ``lo ≥ ⌈m/n⌉``.
* ``hi`` is ``min(degeneracy, ⌈Δ/2⌉)``.  Peeling a d-degenerate graph
  removes at most d edges with each node, so every subgraph has
  ``m_H ≤ d·n_H``.  Summing degrees gives ``m_H ≤ Δ·n_H / 2``.

"Some subgraph has density above ``g``" is monotone in ``g``, so a
binary search over the integers in ``[lo, hi]`` with Goldberg's max-flow
test (:func:`_beats`) returns ``⌈ρ*⌉`` exactly, in at most
``⌈log2(hi − lo + 1)⌉`` flows.  On trees, cycles, grids, regular
graphs and every gnp-sparse graph tried (average degree 6, n=1000) the
bracket is closed and no flow runs.  :func:`max_density` keeps the
exact Fraction, found by bisection to precision ``1/(2n²)``.  Exact
Nash–Williams by brute force is provided for tiny graphs as a test
oracle.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import networkx as nx

from ..mathutils import int_ceil_div


def degeneracy(graph):
    """Exact degeneracy via min-degree peeling (0 for edgeless graphs)."""
    if graph.number_of_edges() == 0:
        return 0
    cores = nx.core_number(graph)
    return max(cores.values())


def _beats(graph, num, den):
    """True iff some subgraph of ``graph`` has density strictly above ``num/den``.

    Goldberg's reduction: the source feeds ``den`` to every edge, each
    edge passes it on to its endpoints, and every node drains ``num`` to
    the sink.  A minimum cut keeping node set ``S`` costs
    ``den·(m − m_S) + num·|S|``, which is below ``den·m`` exactly when
    ``m_S / |S| > num / den``.
    """
    m = graph.number_of_edges()
    flow_net = nx.DiGraph()
    source, sink = ("s",), ("t",)
    for idx, (u, v) in enumerate(graph.edges()):
        e = ("e", idx)
        flow_net.add_edge(source, e, capacity=den)
        flow_net.add_edge(e, ("v", u), capacity=m * den + 1)
        flow_net.add_edge(e, ("v", v), capacity=m * den + 1)
    for u in graph.nodes():
        flow_net.add_edge(("v", u), sink, capacity=num)
    value = nx.maximum_flow_value(flow_net, source, sink)
    return value < m * den


def max_density(graph):
    """Exact maximum subgraph density ``max_H m_H / n_H`` as a Fraction.

    Implements Goldberg's reduction: for a guessed density ``g`` the
    max-flow in an auxiliary network reveals whether some subgraph beats
    ``g``.  Distinct achievable densities are rationals with denominator
    ≤ n, so a binary search to precision ``1/n²`` isolates the optimum,
    recovered with ``Fraction.limit_denominator``.
    """
    n = graph.number_of_nodes()
    m = graph.number_of_edges()
    if m == 0:
        return Fraction(0)

    def beats(g):
        return _beats(graph, g.numerator, g.denominator)

    lo = Fraction(m, n)  # whole graph is a witness
    hi = Fraction(n, 2)  # density can never exceed (n-1)/2
    if not beats(lo):
        # The whole graph is already densest (common for regular graphs);
        # lo is achievable and nothing beats it.
        return lo
    precision = Fraction(1, 2 * n * n)
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if beats(mid):
            lo = mid
        else:
            hi = mid
    # The optimum is the unique rational with denominator ≤ n in (lo, hi].
    candidate = ((lo + hi) / 2).limit_denominator(n)
    if candidate <= lo:
        candidate = hi.limit_denominator(n)
    return candidate


def _density_ceiling(graph, core):
    """``⌈ρ*⌉`` of a graph with at least one edge, given its core numbers.

    Binary search over the certified bracket described in the module
    docstring.  The test at integer ``g`` runs on the ``(g+1)``-core
    only: a densest subgraph has minimum degree at least ``ρ*`` (dropping
    a lighter node would raise its density), so if ``ρ* > g`` one lies
    inside the ``(g+1)``-core.
    """
    top = max(core.values())
    nodes_at = [0] * (top + 1)  # nodes with core number exactly k
    edges_at = [0] * (top + 1)  # edges whose endpoints' lesser core is k
    for k in core.values():
        nodes_at[k] += 1
    for u, v in graph.edges():
        edges_at[min(core[u], core[v])] += 1
    lo = n_k = m_k = 0
    for k in range(top, -1, -1):
        n_k += nodes_at[k]
        m_k += edges_at[k]
        lo = max(lo, int_ceil_div(m_k, n_k))
    max_degree = max(deg for _, deg in graph.degree())
    hi = min(top, int_ceil_div(max_degree, 2))
    while lo < hi:
        g = (lo + hi) // 2
        if _beats(graph.subgraph(u for u in core if core[u] > g), g, 1):
            lo = g + 1
        else:
            hi = g
    return lo


def density_arboricity(graph):
    """``max(1, ⌈max_density⌉)`` — the library's arboricity parameter ``a``.

    Within [a_NW / 2, a_NW] of the Nash–Williams arboricity and
    non-decreasing under subgraphs; all peeling thresholds in
    :mod:`repro.algorithms.arboricity` are stated against it.

    The ceiling is exact but found without computing the density: it
    lies between the densest k-core's ``⌈m_K/n_K⌉`` (a witness
    subgraph) and ``min(degeneracy, ⌈Δ/2⌉)`` (no subgraph can be
    denser), and an integer binary search with Goldberg's max-flow test
    closes that bracket.  When the two bounds meet, as on trees, cycles
    and regular graphs, no flow runs.
    """
    if graph.number_of_edges() == 0:
        return 1
    return _density_ceiling(graph, nx.core_number(graph))


def nash_williams_exact(graph, max_nodes=14):
    """Exact Nash–Williams arboricity by brute force (test oracle only).

    ``max over subgraphs H of ⌈m_H / (n_H - 1)⌉``; exponential in n, so
    guarded by ``max_nodes``.
    """
    n = graph.number_of_nodes()
    if n > max_nodes:
        raise ValueError(f"brute force limited to {max_nodes} nodes")
    if graph.number_of_edges() == 0:
        return 0
    nodes = list(graph.nodes())
    best = 1
    for size in range(2, n + 1):
        for subset in itertools.combinations(nodes, size):
            sub = graph.subgraph(subset)
            m_h = sub.number_of_edges()
            if m_h:
                best = max(best, int_ceil_div(m_h, size - 1))
    return best


def arboricity_bounds(graph):
    """Certified (lower, upper) bounds on Nash–Williams arboricity.

    ``⌈density⌉ ≤ a_NW ≤ degeneracy`` (a d-degenerate graph's peeling
    order orients edges into d forests).  One core decomposition serves
    both ends.
    """
    if graph.number_of_edges() == 0:
        return 0, 0
    core = nx.core_number(graph)
    return _density_ceiling(graph, core), max(core.values())


def graph_parameters(sim_graph, *, with_arboricity=True):
    """All paper parameters of a :class:`~repro.local.graph.SimGraph`."""
    params = {
        "n": sim_graph.n,
        "Delta": sim_graph.max_degree,
        "m": sim_graph.max_ident,
    }
    if with_arboricity:
        params["a"] = density_arboricity(sim_graph.to_networkx())
    return params
