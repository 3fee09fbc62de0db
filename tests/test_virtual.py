"""Virtual-node layer: derived graphs must behave as if run directly."""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.fast_mis import fast_mis
from repro.algorithms.luby import luby_mis
from repro.bench.workloads import WORKLOADS, build_graph
from repro.core.domain import VirtualDomain
from repro.errors import InvalidInstanceError
from repro.graphs import clique_product_spec, line_graph_spec
from repro.graphs.transforms import line_graph_max_degree
from repro.local import SimGraph, VirtualSpec, flatten_outputs, run, virtualize
from repro.local.batch import batch_graph_of
from repro.problems import MIS


def sim(graph):
    return SimGraph.from_networkx(graph)


def explicit_simgraph(spec):
    """The derived graph materialized directly (test oracle)."""
    g = nx.Graph()
    g.add_nodes_from(spec.virtual_nodes)
    for v, neighbours in spec.adj.items():
        for w in neighbours:
            g.add_edge(v, w)
    return SimGraph.from_networkx(g, idents=spec.ident)


def dict_line_graph_spec(graph):
    """The line graph built from dicts through the validating constructor.

    The test oracle for the array builder :func:`line_graph_spec`.
    """
    big = graph.max_ident + 2
    host = {}
    ident = {}
    adj = {}
    incident = {u: [] for u in graph.nodes}
    for u, v in graph.edges():
        iu, iv = graph.ident[u], graph.ident[v]
        virt = (u, v) if iu < iv else (v, u)
        host[virt] = virt[0]
        ident[virt] = graph.ident[virt[0]] * big + graph.ident[virt[1]]
        adj[virt] = []
        incident[u].append(virt)
        incident[v].append(virt)
    for u in graph.nodes:
        edges_here = sorted(incident[u], key=lambda e: ident[e])
        for i, e in enumerate(edges_here):
            for f in edges_here[i + 1 :]:
                adj[e].append(f)
                adj[f].append(e)
    return VirtualSpec(host, ident, adj, graph)


def spec_fields(spec):
    """Every field of a spec, the lazy routing plans forced."""
    return {
        "virtual_nodes": spec.virtual_nodes,
        "host": spec.host,
        "hosted": spec.hosted,
        "ident": spec.ident,
        "adj": spec.adj,
        "dilation": spec.dilation,
        "relay_client_ports": spec.relay_client_ports,
        "send_plan": spec.send_plan,
        "forward_plan": spec.forward_plan,
        "recv_port": spec.recv_port,
    }


def assert_matches_oracle(graph):
    spec = line_graph_spec(graph)
    oracle = dict_line_graph_spec(graph)
    # The batch-path fields, compared before anything forces the plans.
    assert spec.virtual_nodes == oracle.virtual_nodes
    assert spec.dilation == oracle.dilation
    assert spec.relay_client_ports == oracle.relay_client_ports
    assert spec_fields(spec) == spec_fields(oracle)
    keep = list(spec.virtual_nodes)[::2]
    assert spec_fields(spec.restricted(keep)) == spec_fields(
        oracle.restricted(keep)
    )
    return spec


def permuted_idents(graph, seed):
    nodes = list(graph.nodes())
    values = list(range(1, len(nodes) + 1))
    random.Random(seed).shuffle(values)
    return dict(zip(nodes, values))


GRAPHS = [
    nx.path_graph(6),
    nx.cycle_graph(7),
    nx.star_graph(5),
    nx.random_regular_graph(3, 10, seed=1),
    nx.gnp_random_graph(14, 0.25, seed=2),
]


class TestLineGraphSpec:
    @pytest.mark.parametrize("graph", GRAPHS)
    def test_structure_matches_networkx_line_graph(self, graph):
        g = sim(graph)
        spec = line_graph_spec(g)
        ours = explicit_simgraph(spec).to_networkx()
        reference = nx.line_graph(graph)
        relabel = {(u, v) if u < v else (v, u) for u, v in reference.nodes()}
        assert {frozenset(e) for e in ours.nodes()} == {
            frozenset(e) for e in relabel
        }
        assert ours.number_of_edges() == reference.number_of_edges()

    @pytest.mark.parametrize("graph", GRAPHS)
    def test_max_degree_formula(self, graph):
        g = sim(graph)
        spec = line_graph_spec(g)
        explicit = explicit_simgraph(spec)
        assert explicit.max_degree == line_graph_max_degree(g)

    def test_dilation_two_on_paths(self):
        g = sim(nx.path_graph(5))
        spec = line_graph_spec(g)
        assert spec.dilation in (1, 2)


class TestArrayLineGraphMatchesDictOracle:
    """The array builder equals the dict builder in every field."""

    def test_graph_atlas(self):
        for number, graph in enumerate(nx.graph_atlas_g()):
            assert_matches_oracle(sim(graph))
            idents = permuted_idents(graph, number)
            assert_matches_oracle(SimGraph.from_networkx(graph, idents=idents))

    @pytest.mark.parametrize("family", ["gnp-sparse", "tree", "regular-4", "grid"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_families(self, family, seed):
        graph = build_graph(WORKLOADS[family](120, seed=seed), seed=seed)
        spec = assert_matches_oracle(graph)
        assert spec.virtual_nodes

    @pytest.mark.parametrize(
        "graph",
        [
            nx.complete_graph(6),
            nx.disjoint_union_all([nx.complete_graph(k) for k in (2, 3, 4, 5)]),
        ],
    )
    def test_cliques_need_no_relay(self, graph):
        spec = assert_matches_oracle(sim(graph))
        assert spec.dilation == 1
        assert spec.relay_client_ports == {}

    def test_star_relays_through_its_centre(self):
        # Centre identity above every leaf: each edge is hosted at its
        # leaf, and leaves reach each other only through the centre.
        graph = nx.star_graph(4)
        idents = {0: 10, 1: 1, 2: 2, 3: 3, 4: 4}
        spec = assert_matches_oracle(SimGraph.from_networkx(graph, idents=idents))
        assert spec.dilation == 2
        assert spec.relay_client_ports == {0: frozenset(range(4))}

    def test_path_relays_through_its_middle(self):
        graph = nx.path_graph(3)
        idents = {0: 1, 1: 3, 2: 2}
        spec = assert_matches_oracle(SimGraph.from_networkx(graph, idents=idents))
        assert spec.dilation == 2
        assert spec.relay_client_ports == {1: frozenset({0, 1})}
        assert spec.send_plan[((0, 1), (2, 1))][0] == "relay"

    @pytest.mark.parametrize(
        "graph", [nx.empty_graph(0), nx.empty_graph(5), nx.Graph([(0, 1), (1, 2)])]
    )
    def test_edgeless_graphs_and_isolated_nodes(self, graph):
        graph = graph.copy()
        graph.add_nodes_from([7, 8])
        spec = assert_matches_oracle(sim(graph))
        assert 7 not in spec.hosted and 8 not in spec.hosted

    def test_batch_graph_is_carried(self):
        from repro.local.batch import batch_graph_of_spec

        g = sim(nx.gnp_random_graph(30, 0.2, seed=4))
        spec = line_graph_spec(g)
        bg = batch_graph_of_spec(spec)
        assert bg is spec._batch
        assert bg.labels == list(spec.virtual_nodes)
        assert bg.idents == [spec.ident[v] for v in bg.labels]
        for i, virt in enumerate(bg.labels):
            row = bg.neigh[bg.offsets[i] : bg.offsets[i + 1]].tolist()
            assert [bg.labels[j] for j in row] == list(spec.adj[virt])

    def test_batched_run_leaves_the_plans_unbuilt(self):
        g = sim(nx.gnp_random_graph(30, 0.2, seed=4))
        spec = line_graph_spec(g)
        guesses = {"Delta": 2 * g.max_degree, "m": (g.max_ident + 2) ** 2}
        domain = VirtualDomain(g, spec)
        domain.run_restricted(fast_mis(), 60, guesses=guesses)
        # Luby draws random bits: the draw builder reads the host index.
        domain.run_restricted(luby_mis(), 60)
        domain.run_full(luby_mis())
        assert spec.dilation == 2
        assert_unbuilt(spec)

    def test_matching_row_leaves_every_spec_unbuilt(self, monkeypatch):
        from repro.algorithms import TABLE1, matching

        built = []

        def spy(graph):
            built.append(line_graph_spec(graph))
            return built[-1]

        monkeypatch.setattr(matching, "line_graph_spec", spy)
        graph = build_graph(WORKLOADS["gnp-sparse"](120, seed=1), seed=1)
        _, _, uniform = TABLE1["matching"].build()
        uniform.run(graph, seed=3)
        assert len(built) >= 2
        for spec in built:
            assert_unbuilt(spec)


def array_fields(spec):
    """What the batched virtual driver reads of a spec, as plain lists."""
    bg = spec._batch
    return {
        "labels": list(bg.labels),
        "idents": list(bg.idents),
        "offsets": bg.offsets.tolist(),
        "neigh": bg.neigh.tolist(),
        "host_index": spec.host_index.tolist(),
        "relays": [side.tolist() for side in spec.relays],
        "dilation": spec.dilation,
    }


def derive_and_check(parent, keep):
    """Restrict ``parent`` to ``keep`` and check the child's derived
    ``L(G[S])`` against a fresh build on the rebuilt graph and against
    the dict oracle; return the child."""
    line_graph_spec(parent)
    child = parent.compiled().restrict(frozenset(keep))
    cg = child.compiled()
    assert cg._line_from is not None
    derived = line_graph_spec(child)
    # The link and the parent's memo go once the child is derived.
    assert cg._line_from is None
    assert parent.compiled()._line is None
    assert line_graph_spec(child) is derived
    rebuilt = parent.subgraph_rebuild(keep)
    assert array_fields(derived) == array_fields(line_graph_spec(rebuilt))
    assert_unbuilt(derived)
    assert spec_fields(derived) == spec_fields(dict_line_graph_spec(rebuilt))
    mirror = batch_graph_of(cg)
    assert mirror.rev is not None
    assert np.array_equal(mirror.rev, np.asarray(cg.rev))
    return child


def chain_and_check(graph, seed, survive=0.8, depth=3):
    rng = random.Random(seed)
    for _ in range(depth):
        keep = [u for u in graph.nodes if rng.random() < survive]
        graph = derive_and_check(graph, keep)


def line_sim(edges, idents):
    return SimGraph.from_networkx(nx.Graph(edges), idents=idents)


class TestDerivedLineGraph:
    """``L(G[S])`` derived from ``L(G)``'s arrays equals a fresh build on
    the rebuilt ``G[S]`` and the dict oracle (DESIGN.md D42)."""

    @pytest.mark.parametrize("family", ["gnp-sparse", "tree", "regular-4", "grid"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_families_three_deep(self, family, seed):
        graph = build_graph(WORKLOADS[family](120, seed=seed), seed=seed)
        chain_and_check(graph, seed)

    def test_graph_atlas_slice(self):
        for number, graph in enumerate(nx.graph_atlas_g()[200:400]):
            idents = permuted_idents(graph, number)
            chain_and_check(
                SimGraph.from_networkx(graph, idents=idents), number, 0.85
            )

    def test_max_identity_node_pruned_reencodes(self):
        # Square p(1) - r1(3) - q(2) - r2(4) - p: dropping r2 lowers the
        # largest identity, so every surviving virtual identity changes.
        graph = line_sim([(0, 2), (2, 1), (1, 3), (3, 0)], {0: 1, 1: 2, 2: 3, 3: 4})
        parent = line_graph_spec(graph)
        child = derive_and_check(graph, [0, 1, 2])
        got = line_graph_spec(child)._batch.idents
        assert got == [1 * 5 + 3, 2 * 5 + 3]
        assert not set(got) & set(parent._batch.idents)

    def test_smallest_common_neighbour_pruned_moves_the_relay(self):
        # p(1) and q(2) share r1(3) and r2(4), both above them: the pair
        # relays through r1, and through r2 once r1 leaves.
        graph = line_sim([(0, 2), (2, 1), (1, 3), (3, 0)], {0: 1, 1: 2, 2: 3, 3: 4})
        assert line_graph_spec(graph).relays[0].tolist() == [2, 2]
        child = derive_and_check(graph, [0, 1, 3])
        spec = line_graph_spec(child)
        assert spec.relays[0].tolist() == [2, 2]  # r2 is index 2 now
        assert child.compiled().labels[2] == 3
        assert spec.dilation == 2

    def test_last_witness_above_pruned_drops_the_dilation(self):
        # Square a(1) - b(2) - c(4) - d(3) - a: b and d relay through a,
        # but only because c lies above both.  Without c the edges at a
        # are both hosted at a, and nothing relays.
        graph = line_sim([(0, 1), (1, 2), (2, 3), (3, 0)], {0: 1, 1: 2, 2: 4, 3: 3})
        parent = line_graph_spec(graph)
        assert parent.dilation == 2
        assert parent.relays[0].tolist() == [0, 0]
        child = derive_and_check(graph, [0, 1, 3])
        spec = line_graph_spec(child)
        assert spec.dilation == 1
        assert len(spec.relays[0]) == 0

    def test_empty_keep_set(self):
        graph = build_graph(WORKLOADS["gnp-sparse"](60, seed=1), seed=1)
        child = derive_and_check(graph, [])
        assert line_graph_spec(child).virtual_nodes == ()

    def test_every_node_kept_hits_the_memo(self):
        graph = build_graph(WORKLOADS["gnp-sparse"](60, seed=1), seed=1)
        spec = line_graph_spec(graph)
        assert graph.subgraph(graph.nodes) is graph
        assert line_graph_spec(graph.subgraph(list(graph.nodes))) is spec
        derive_and_check(graph, graph.nodes)

    def test_graph_without_a_line_graph_hands_no_link(self):
        graph = build_graph(WORKLOADS["gnp-sparse"](60, seed=1), seed=1)
        child = graph.compiled().restrict(frozenset(graph.nodes[::2]))
        assert child.compiled()._line_from is None


class TestOneLineGraphBuildPerRoot:
    """The matching row builds ``L(G)`` from scratch once per graph;
    every later step derives its line graph from the previous one."""

    def count_paths(self, monkeypatch):
        from repro.graphs import transforms

        calls = {"build": [], "derive": []}
        for name, key in (
            ("_build_line_graph", "build"), ("_derive_line_graph", "derive")
        ):
            real = getattr(transforms, name)

            def spy(*args, real=real, key=key):
                line = real(*args)
                calls[key].append(line.spec)
                return line

            monkeypatch.setattr(transforms, name, spy)
        return calls

    def run_row(self):
        from repro.algorithms import TABLE1
        from repro.bench.harness import measure_nonuniform

        graph = build_graph(WORKLOADS["gnp-sparse"](120, seed=1), seed=1)
        nonuniform, _, uniform = TABLE1["matching"].build()
        measure_nonuniform(nonuniform, graph, seed=3)
        result = uniform.run(graph, seed=3)
        assert len(result.steps) >= 2
        return graph

    def test_box_and_uniform_run_build_once(self, monkeypatch):
        calls = self.count_paths(monkeypatch)
        graph = self.run_row()
        assert len(calls["build"]) == 1
        assert calls["build"][0].physical is graph
        assert calls["derive"]
        for spec in calls["build"] + calls["derive"]:
            assert_unbuilt(spec)

    def test_reference_backend_rebuilds(self, monkeypatch):
        from repro.local import use_backend

        calls = self.count_paths(monkeypatch)
        with use_backend("reference"):
            self.run_row()
        assert calls["derive"] == []
        assert len(calls["build"]) >= 2


def assert_unbuilt(spec):
    """No dict view and no routing plan of an array-built spec exists."""
    for slot in (
        "_host", "_ident", "_adj", "_hosted", "_relay_client_ports",
        "_recv_port", "_send_plan", "_forward_plan",
    ):
        assert getattr(spec, slot) is None, slot


class TestVirtualSpecValidation:
    """The dict constructor rejects malformed instances when it runs."""

    def test_duplicate_identities(self):
        g = sim(nx.path_graph(2))
        with pytest.raises(InvalidInstanceError, match="unique"):
            VirtualSpec(
                {"a": 0, "b": 1},
                {"a": 5, "b": 5},
                {"a": ("b",), "b": ("a",)},
                g,
            )

    def test_asymmetric_adjacency(self):
        g = sim(nx.path_graph(2))
        with pytest.raises(InvalidInstanceError, match="not symmetric"):
            VirtualSpec(
                {"a": 0, "b": 1},
                {"a": 1, "b": 2},
                {"a": ("b",), "b": ()},
                g,
            )

    def test_no_route_of_length_two(self):
        g = sim(nx.path_graph(4))
        with pytest.raises(InvalidInstanceError, match="no physical route"):
            VirtualSpec(
                {"a": 0, "b": 3},
                {"a": 1, "b": 2},
                {"a": ("b",), "b": ("a",)},
                g,
            )


class TestCliqueProductSpec:
    @pytest.mark.parametrize("graph", GRAPHS)
    def test_clique_sizes(self, graph):
        g = sim(graph)
        spec = clique_product_spec(g)
        for u in g.nodes:
            members = [v for v in spec.virtual_nodes if v[0] == u]
            assert len(members) == g.degree(u) + 1

    def test_dilation_one(self):
        g = sim(nx.cycle_graph(6))
        spec = clique_product_spec(g)
        assert spec.dilation == 1

    def test_cross_edges_respect_min_degree(self):
        g = sim(nx.star_graph(3))
        spec = clique_product_spec(g)
        hub, leaf = 0, 1
        # leaf has degree 1: only index 0..1 exist; cross edges limited
        # to i < 1 + min(deg) = 2.
        assert (leaf, 1) in spec.adj[(hub, 1)]
        assert all((hub, i) not in spec.adj.get((leaf, 2), ()) for i in range(4))


class TestSimulationEquivalence:
    """The virtualized run must equal the direct run on the derived graph."""

    @pytest.mark.parametrize("graph", GRAPHS)
    def test_line_graph_mis_equivalence(self, graph):
        g = sim(graph)
        spec = line_graph_spec(g)
        explicit = explicit_simgraph(spec)
        guesses = {
            "Delta": max(1, explicit.max_degree),
            "m": explicit.max_ident,
        }
        direct = run(explicit, fast_mis(), guesses=guesses, seed=3)
        wrapped = virtualize(spec, fast_mis())
        hosted = run(g, wrapped, guesses=guesses, seed=3)
        merged = flatten_outputs(spec, hosted.outputs)
        assert merged == direct.outputs
        assert hosted.rounds <= spec.dilation * direct.rounds + 6

    @pytest.mark.parametrize("graph", GRAPHS)
    def test_clique_product_luby_valid_mis(self, graph):
        g = sim(graph)
        spec = clique_product_spec(g)
        explicit = explicit_simgraph(spec)
        wrapped = virtualize(spec, luby_mis())
        hosted = run(g, wrapped, seed=4)
        merged = flatten_outputs(spec, hosted.outputs)
        assert MIS.is_solution(explicit, {}, merged)

    def test_virtual_domain_run_restricted_defaults(self):
        g = sim(nx.cycle_graph(8))
        spec = line_graph_spec(g)
        domain = VirtualDomain(g, spec)
        outputs, charged = domain.run_restricted(
            fast_mis(),
            1,  # far too few virtual rounds
            guesses={"Delta": 4, "m": 10**6},
            default_output="cut",
        )
        assert charged >= 1
        assert "cut" in set(outputs.values())

    def test_virtual_domain_subgraph(self):
        g = sim(nx.cycle_graph(8))
        spec = line_graph_spec(g)
        domain = VirtualDomain(g, spec)
        keep = list(spec.virtual_nodes)[:4]
        sub = domain.subgraph(keep)
        assert sub.n == 4
        for v in keep:
            assert set(sub.neighbors(v)) <= set(keep)
