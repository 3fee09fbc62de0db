"""Domain contract: physical and virtual execution must agree."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.algorithms.luby import luby_mis
from repro.core.domain import (
    PhysicalDomain,
    VirtualDomain,
    as_domain,
    VIRTUAL_OVERHEAD,
)
from repro.graphs import clique_product_spec, line_graph_spec
from repro.local import SimGraph, zero_round_algorithm


def sim(graph):
    return SimGraph.from_networkx(graph)


@pytest.fixture()
def physical():
    return PhysicalDomain(sim(nx.cycle_graph(8)))


@pytest.fixture()
def virtual():
    g = sim(nx.cycle_graph(8))
    return VirtualDomain(g, line_graph_spec(g))


class TestCoercion:
    def test_simgraph_coerces(self):
        domain = as_domain(sim(nx.path_graph(3)))
        assert isinstance(domain, PhysicalDomain)

    def test_domain_passes_through(self, physical):
        assert as_domain(physical) is physical

    def test_rejects_other(self):
        with pytest.raises(TypeError):
            as_domain(nx.path_graph(3))


class TestPhysicalDomain:
    def test_node_accessors(self, physical):
        u = physical.nodes[0]
        assert physical.degree(u) == 2
        assert physical.ident(u) >= 1
        assert set(physical.neighbors(u)) <= set(physical.nodes)
        assert physical.graph.max_degree == 2

    def test_run_restricted_charges_budget(self, physical):
        algo = zero_round_algorithm("noop", lambda ctx: 0)
        outputs, charged = physical.run_restricted(algo, 7)
        assert charged == 7
        assert set(outputs) == set(physical.nodes)

    def test_subgraph_returns_domain(self, physical):
        sub = physical.subgraph(list(physical.nodes)[:3])
        assert isinstance(sub, PhysicalDomain)
        assert sub.n == 3

    def test_as_simgraph_identity(self, physical):
        assert physical.as_simgraph() is physical.graph


class TestVirtualDomain:
    def test_accessors(self, virtual):
        assert virtual.n == 8  # cycle has 8 edges
        u = virtual.nodes[0]
        assert virtual.degree(u) == 2
        assert virtual.ident(u) >= 1

    def test_run_restricted_charges_dilated(self, virtual):
        algo = zero_round_algorithm("noop", lambda ctx: 0)
        budget = 5
        _, charged = virtual.run_restricted(algo, budget)
        assert charged == budget * virtual.spec.dilation + VIRTUAL_OVERHEAD

    def test_run_full_valid_mis_on_line_graph(self, virtual):
        outputs, rounds = virtual.run_full(luby_mis(), seed=3)
        explicit = virtual.as_simgraph()
        from repro.problems import MIS

        assert MIS.is_solution(explicit, {}, outputs)
        assert rounds >= 1

    def test_subgraph_restricts_spec(self, virtual):
        keep = list(virtual.nodes)[:4]
        sub = virtual.subgraph(keep)
        assert isinstance(sub, VirtualDomain)
        assert sub.n == 4
        for v in keep:
            assert set(sub.neighbors(v)) <= set(keep)

    def test_clique_product_domain_dilation_one(self):
        g = sim(nx.path_graph(4))
        domain = VirtualDomain(g, clique_product_spec(g))
        algo = zero_round_algorithm("noop", lambda ctx: 0)
        _, charged = domain.run_restricted(algo, 5)
        assert charged == 5 * 1 + VIRTUAL_OVERHEAD

    def test_max_ident_unique_space(self, virtual):
        idents = [virtual.ident(v) for v in virtual.nodes]
        assert len(set(idents)) == len(idents)
