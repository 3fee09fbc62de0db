"""Graph families used across the paper's Table 1.

All generators return undirected :mod:`networkx` graphs with integer node
labels ``0..n-1``.  Identity assignment is a separate concern
(:mod:`repro.graphs.identifiers`) because several algorithms' bounds
depend on the identity space, not on the topology.

The families cover the regimes of Table 1:

* general graphs (:func:`gnp`, :func:`random_regular`) — rows with
  ``O(Δ + log* n)`` / n-only bounds;
* bounded-arboricity graphs (:func:`random_tree`, :func:`grid`,
  :func:`forest_union`, :func:`caterpillar`) — the Barenboim–Elkin rows;
* bounded-independence graphs (:func:`unit_disk`) — the
  Schneider–Wattenhofer uniform results cited in related work;
* high-degree, low-diameter graphs (:func:`star_with_noise`,
  :func:`complete`) — where n-only bounds beat ``O(Δ + log* n)``.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx
import numpy as np

from ..errors import InvalidInstanceError


def _check_n(n, minimum=1):
    if n < minimum:
        raise InvalidInstanceError(f"need at least {minimum} nodes, got {n}")


def path(n):
    """Path on ``n`` nodes (arboricity 1, Δ ≤ 2)."""
    _check_n(n)
    return nx.path_graph(n)


def cycle(n):
    """Cycle on ``n`` nodes (arboricity ≤ 2, Δ = 2)."""
    _check_n(n, 3)
    return nx.cycle_graph(n)


def star(n):
    """Star on ``n`` nodes: Δ = n-1, arboricity 1, diameter 2."""
    _check_n(n, 2)
    return nx.star_graph(n - 1)


def complete(n):
    """Clique on ``n`` nodes: the extreme high-degree instance."""
    _check_n(n)
    return nx.complete_graph(n)


def hypercube(dim):
    """Boolean hypercube of dimension ``dim`` (Δ = dim, n = 2^dim)."""
    graph = nx.hypercube_graph(dim)
    return nx.convert_node_labels_to_integers(graph, ordering="sorted")


def grid(rows, cols):
    """2D grid (planar, arboricity ≤ 2, Δ ≤ 4)."""
    _check_n(rows * cols)
    graph = nx.grid_2d_graph(rows, cols)
    return nx.convert_node_labels_to_integers(graph, ordering="sorted")


def triangulated_grid(rows, cols):
    """Grid with one diagonal per cell (planar, arboricity ≤ 3, Δ ≤ 6)."""
    graph = nx.grid_2d_graph(rows, cols)
    for r in range(rows - 1):
        for c in range(cols - 1):
            graph.add_edge((r, c), (r + 1, c + 1))
    return nx.convert_node_labels_to_integers(graph, ordering="sorted")


# Draws per ``random_sample`` call in :func:`gnp`: 2^16 doubles, 512 KB.
GNP_CHUNK = 1 << 16


def _random_state(seed):
    """A legacy ``RandomState`` holding ``random.Random(seed)``'s MT19937 state."""
    words = random.Random(seed).getstate()[1]
    stream = np.random.RandomState()
    stream.set_state(("MT19937", np.array(words[:624], dtype=np.uint32), words[624]))
    return stream


def _gnp(n, p, seed, where):
    """``nx.gnp_random_graph(n, p, seed=seed)``, byte for byte.

    networkx draws one ``random()`` per pair in ``itertools.combinations``
    order and adds the pair when the draw is below ``p``.  CPython's
    ``random()`` and numpy's legacy ``random_sample`` both build a double
    as ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` from two MT19937 words,
    so a ``RandomState`` given ``random.Random(seed)``'s state draws the
    same doubles (DESIGN.md D26).  They come in chunks of at most
    :data:`GNP_CHUNK`, so the working memory is O(chunk + n) plus the
    hits for any ``n``.  Hit indices map back to (row, col) by one
    ``searchsorted`` over the row starts, and the edges go in in draw
    order, so node order and every adjacency dict's order match too.
    """
    _check_n(n)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InvalidInstanceError(f"{where} seed must be an int, got {seed!r}")
    if p >= 1:
        return nx.complete_graph(n)
    graph = nx.empty_graph(n)
    if p <= 0 or n < 2:
        return graph
    stream = _random_state(seed)
    pairs = n * (n - 1) // 2
    hits = []
    for offset in range(0, pairs, GNP_CHUNK):
        draws = stream.random_sample(min(GNP_CHUNK, pairs - offset))
        hits.append(np.flatnonzero(draws < p) + offset)
    k = np.concatenate(hits)
    row = np.arange(n, dtype=np.int64)
    starts = row * n - row * (row + 1) // 2
    rows = np.searchsorted(starts, k, side="right") - 1
    cols = k - starts[rows] + rows + 1
    graph.add_edges_from(zip(rows.tolist(), cols.tolist()))
    return graph


def gnp(n, p, seed=0):
    """Erdős–Rényi G(n, p) (general graphs).

    Byte-identical to ``nx.gnp_random_graph(n, p, seed=seed)``; Θ(n²)
    draws, at most :data:`GNP_CHUNK` (512 KB) held at once.  ``seed``
    must be an int.
    """
    return _gnp(n, p, seed, "gnp")


def gnp_avg_degree(n, avg_degree, seed=0):
    """G(n, p) parameterized by expected average degree.

    Byte-identical to ``nx.gnp_random_graph`` at
    ``p = min(1, avg_degree / (n - 1))``; Θ(n²) draws, at most
    :data:`GNP_CHUNK` (512 KB) held at once.  ``seed`` must be an int.
    """
    p = min(1.0, avg_degree / max(1, n - 1))
    return _gnp(n, p, seed, "gnp_avg_degree")


def random_regular(n, degree, seed=0):
    """Random ``degree``-regular graph (uniform degree → clean Δ sweeps)."""
    _check_n(n)
    if degree >= n or (n * degree) % 2:
        raise InvalidInstanceError(
            f"no {degree}-regular graph on {n} nodes exists"
        )
    return nx.random_regular_graph(degree, n, seed=seed)


def random_tree(n, seed=0):
    """Uniform random labelled tree (arboricity 1)."""
    _check_n(n)
    if n == 1:
        return nx.empty_graph(1)
    rng = random.Random(seed)
    if n == 2:
        return nx.path_graph(2)
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    return nx.from_prufer_sequence(sequence)


def caterpillar(spine, legs_per_node, seed=0):
    """Caterpillar tree: a spine path with pendant legs (arboricity 1)."""
    _check_n(spine)
    rng = random.Random(seed)
    graph = nx.path_graph(spine)
    next_label = spine
    for u in range(spine):
        for _ in range(rng.randint(0, legs_per_node)):
            graph.add_edge(u, next_label)
            next_label += 1
    return graph


def forest_union(n, forests, seed=0):
    """Union of ``forests`` random spanning forests: arboricity ≤ forests.

    The canonical bounded-arboricity family: Nash–Williams says the edge
    set decomposes into exactly the forests we glued together.
    """
    _check_n(n)
    rng = random.Random(seed)
    graph = nx.empty_graph(n)
    for k in range(forests):
        tree = random_tree(n, seed=rng.randrange(2**31))
        relabel = list(range(n))
        rng.shuffle(relabel)
        for u, v in tree.edges():
            graph.add_edge(relabel[u], relabel[v])
    return graph


def unit_disk(n, radius, seed=0):
    """Random geometric (unit-disk) graph: bounded independence."""
    _check_n(n)
    return nx.random_geometric_graph(n, radius, seed=seed)


def star_with_noise(n, extra_edges, seed=0):
    """A star plus random leaf-to-leaf edges: Δ ≈ n-1, tiny diameter.

    Built so that n-only running-time bounds beat ``O(Δ + log* n)`` —
    the regime where Panconesi–Srinivasan-style algorithms win in
    Corollary 1(i).
    """
    _check_n(n, 3)
    rng = random.Random(seed)
    graph = star(n)
    leaves = list(range(1, n))
    for _ in range(extra_edges):
        u, v = rng.sample(leaves, 2)
        graph.add_edge(u, v)
    return graph


def disjoint_union(graphs):
    """Disjoint union (problems are closed under disjoint union)."""
    graphs = list(graphs)
    if not graphs:
        return nx.empty_graph(0)
    combined = nx.empty_graph(0)
    offset = 0
    for graph in graphs:
        mapping = {u: u + offset for u in graph.nodes()}
        combined = nx.union(combined, nx.relabel_nodes(graph, mapping))
        offset += graph.number_of_nodes()
    return combined


def dumbbell(n_side, bridge_length=1):
    """Two cliques joined by a path: heterogeneous degrees in one graph."""
    left = nx.complete_graph(n_side)
    right = nx.relabel_nodes(
        nx.complete_graph(n_side),
        {u: u + n_side + bridge_length for u in range(n_side)},
    )
    graph = nx.union(left, right)
    chain = [0] + [n_side + i for i in range(bridge_length)] + [n_side + bridge_length]
    for a, b in itertools.pairwise(chain):
        graph.add_edge(a, b)
    return graph


def family_catalog():
    """Small labelled catalogue used by tests to sweep many shapes."""
    return {
        "path16": path(16),
        "cycle17": cycle(17),
        "star24": star(24),
        "grid4x6": grid(4, 6),
        "tri_grid4x4": triangulated_grid(4, 4),
        "tree40": random_tree(40, seed=7),
        "caterpillar": caterpillar(10, 3, seed=3),
        "forest3_32": forest_union(32, 3, seed=5),
        "gnp48": gnp(48, 0.12, seed=11),
        "regular4_30": random_regular(30, 4, seed=13),
        "udg36": unit_disk(36, 0.28, seed=17),
        "star_noise": star_with_noise(40, 30, seed=19),
        "dumbbell": dumbbell(8, 3),
        "hypercube4": hypercube(4),
        "two_comp": disjoint_union([path(8), cycle(9)]),
    }

