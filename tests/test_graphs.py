"""Graph substrate: families, identifiers, parameters."""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidInstanceError
from repro.graphs import (
    arboricity_bounds,
    degeneracy,
    density_arboricity,
    families,
    graph_parameters,
    identifiers,
    max_density,
    nash_williams_exact,
)
from repro.local import SimGraph


class TestFamilies:
    def test_catalog_shapes(self):
        catalog = families.family_catalog()
        assert len(catalog) >= 12
        for name, graph in catalog.items():
            assert graph.number_of_nodes() > 0, name

    def test_forest_union_arboricity(self):
        for k in (1, 2, 4):
            graph = families.forest_union(40, k, seed=3)
            assert density_arboricity(graph) <= k

    def test_tree_is_tree(self):
        graph = families.random_tree(30, seed=1)
        assert nx.is_tree(graph)

    def test_star_with_noise_high_degree(self):
        graph = families.star_with_noise(50, 20, seed=2)
        assert max(dict(graph.degree()).values()) == 49

    def test_regular_validation(self):
        with pytest.raises(InvalidInstanceError):
            families.random_regular(5, 3)  # odd product

    def test_disjoint_union_counts(self):
        combined = families.disjoint_union(
            [families.path(5), families.cycle(6)]
        )
        assert combined.number_of_nodes() == 11

    def test_grid_planar_bounds(self):
        graph = families.grid(5, 5)
        assert max(dict(graph.degree()).values()) <= 4
        assert density_arboricity(graph) <= 2

    def test_dumbbell_structure(self):
        graph = families.dumbbell(6, 2)
        degrees = sorted(dict(graph.degree()).values())
        assert degrees[-1] >= 5


def _shape(graph):
    """What byte identity with networkx means here: node order, every
    adjacency dict's order and the edge order."""
    return (
        list(graph.nodes()),
        [list(graph.adj[u]) for u in graph],
        list(graph.edges()),
    )


GNP_SEEDS = (0, 1, 77, 2**31 - 1)


class TestGnpMatchesNetworkx:
    """``families.gnp`` draws from numpy but must equal networkx exactly."""

    @pytest.mark.parametrize("n", [1, 2, 3, 40, 333])
    @pytest.mark.parametrize("p", [0, 1e-3, "6/(n-1)", 0.5, 1])
    def test_small_n_every_seed(self, n, p):
        if p == "6/(n-1)":
            p = 6 / max(1, n - 1)
        # Dense graphs at n=333 cost ~0.1 s each in networkx: one seed.
        for seed in GNP_SEEDS if n * p < 100 else GNP_SEEDS[2:3]:
            expected = nx.gnp_random_graph(n, p, seed=seed)
            assert _shape(families.gnp(n, p, seed=seed)) == _shape(expected)

    @pytest.mark.parametrize(("p", "seed"), [(6 / 999, 1), (1e-3, 2**31 - 1)])
    def test_n1000_spans_many_chunks(self, p, seed):
        assert 1000 * 999 // 2 > 7 * families.GNP_CHUNK
        expected = nx.gnp_random_graph(1000, p, seed=seed)
        assert _shape(families.gnp(1000, p, seed=seed)) == _shape(expected)

    def test_ragged_chunks(self, monkeypatch):
        # 780 pairs in chunks of 64: twelve full chunks and a short one.
        monkeypatch.setattr(families, "GNP_CHUNK", 64)
        for p, seed in ((0.12, 77), (0.5, 0)):
            expected = nx.gnp_random_graph(40, p, seed=seed)
            assert _shape(families.gnp(40, p, seed=seed)) == _shape(expected)

    @pytest.mark.parametrize(("n", "avg"), [(12, 11.0), (12, 50.0), (90, 6.0)])
    def test_avg_degree(self, n, avg):
        p = min(1.0, avg / (n - 1))
        for seed in (0, 77):
            expected = nx.gnp_random_graph(n, p, seed=seed)
            got = families.gnp_avg_degree(n, avg, seed=seed)
            assert _shape(got) == _shape(expected)

    @pytest.mark.parametrize("seed", [0, 1, 77, 2**31 - 1])
    def test_numpy_stream_canary(self, seed):
        """CPython's ``random()`` and numpy's legacy ``random_sample`` give
        the same doubles from one MT19937 state.  NEP 19 freezes the
        legacy stream; if a numpy release ever broke it, every gnp graph
        would change, so it fails here first."""
        python = random.Random(seed)
        expected = [python.random() for _ in range(10_000)]
        drawn = families._random_state(seed).random_sample(10_000)
        assert drawn.tolist() == expected

    @pytest.mark.parametrize(
        "seed",
        [
            None,
            1.0,
            "1",
            True,
            # repr() of an instance embeds its address; pin a stable id.
            pytest.param(random.Random(1), id="random.Random(1)"),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("maker", ["gnp", "gnp_avg_degree"])
    def test_seed_must_be_an_int(self, maker, seed):
        with pytest.raises(InvalidInstanceError, match=f"{maker} seed"):
            getattr(families, maker)(10, 0.3, seed=seed)


class TestIdentifiers:
    @pytest.mark.parametrize("name", list(identifiers.SCHEMES))
    def test_schemes_valid(self, name):
        graph = families.gnp(30, 0.15, seed=1)
        scheme = identifiers.SCHEMES[name]
        idents = scheme(graph) if name in (
            "sequential",
            "adversarial_path",
        ) else scheme(graph, seed=3)
        assert identifiers.validate_idents(graph, idents)

    def test_poly_space(self):
        graph = families.path(50)
        idents = identifiers.poly_idents(graph, seed=2)
        assert max(idents.values()) <= 50**3

    def test_compact_is_permutation(self):
        graph = families.path(20)
        idents = identifiers.compact_idents(graph, seed=1)
        assert sorted(idents.values()) == list(range(1, 21))

    def test_validation_rejects_duplicates(self):
        graph = families.path(3)
        with pytest.raises(InvalidInstanceError):
            identifiers.validate_idents(graph, {0: 1, 1: 1, 2: 2})


class TestArboricityMachinery:
    def test_known_densities(self):
        from fractions import Fraction

        assert max_density(nx.complete_graph(4)) == Fraction(3, 2)
        assert max_density(nx.cycle_graph(7)) == Fraction(1)
        assert max_density(nx.empty_graph(5)) == 0

    def test_density_of_planted_dense_subgraph(self):
        graph = nx.disjoint_union(nx.complete_graph(6), nx.path_graph(30))
        from fractions import Fraction

        assert max_density(graph) == Fraction(15, 6)

    def test_degeneracy_values(self):
        assert degeneracy(nx.complete_graph(5)) == 4
        assert degeneracy(nx.random_tree(20, seed=1) if hasattr(nx, "random_tree") else families.random_tree(20, seed=1)) == 1
        assert degeneracy(nx.empty_graph(4)) == 0

    @given(
        n=st.integers(min_value=2, max_value=10),
        p=st.floats(min_value=0.1, max_value=0.9),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_sandwich_against_bruteforce(self, n, p, seed):
        graph = nx.gnp_random_graph(n, p, seed=seed)
        if graph.number_of_edges() == 0:
            return
        exact = nash_williams_exact(graph)
        dens = density_arboricity(graph)
        dgen = degeneracy(graph)
        assert dens <= exact <= dgen
        assert dgen <= 2 * exact

    def test_bounds_helper(self):
        graph = families.forest_union(30, 3, seed=1)
        lower, upper = arboricity_bounds(graph)
        assert lower <= upper

    def test_non_decreasing_under_subgraphs(self):
        graph = families.gnp(25, 0.3, seed=5)
        whole = density_arboricity(graph)
        sub = graph.subgraph(list(graph.nodes())[:15])
        assert density_arboricity(sub) <= whole

    # density_arboricity brackets ⌈ρ*⌉ with integer bounds and only runs
    # Goldberg's flow test inside the bracket; max_density bisects the
    # exact Fraction.  They must agree everywhere.
    @staticmethod
    def seeded_graphs():
        return [
            families.random_tree(60, seed=3),
            families.forest_union(40, 2, seed=1),
            families.forest_union(40, 3, seed=2),
            families.gnp(30, 0.25, seed=4),
            families.gnp(40, 0.1, seed=5),
            families.grid(6, 7),
            families.random_regular(30, 3, seed=6),
            families.random_regular(24, 6, seed=7),
            nx.disjoint_union(nx.complete_graph(6), nx.path_graph(30)),
            families.star_with_noise(30, 15, seed=8),
        ]

    def test_ceiling_matches_max_density(self):
        atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() <= 6]
        assert len(atlas) == 209
        for graph in atlas + self.seeded_graphs():
            density = max_density(graph)
            expected = max(1, -(-density.numerator // density.denominator))
            assert density_arboricity(graph) == expected, sorted(graph.edges())

    def test_flow_count_stays_inside_the_bracket(self, monkeypatch):
        from repro.graphs import params

        flows = []
        real = params._beats

        def counting(graph, num, den):
            flows.append((num, den))
            return real(graph, num, den)

        monkeypatch.setattr(params, "_beats", counting)

        closed = [
            families.random_tree(200, seed=1),
            families.path(30),
            families.cycle(31),
            families.random_regular(40, 3, seed=2),
            families.random_regular(40, 4, seed=3),
        ]
        for graph in closed:
            flows.clear()
            density_arboricity(graph)
            assert flows == []

        total = 0
        for graph in closed + self.seeded_graphs():
            flows.clear()
            density_arboricity(graph)
            n, m = graph.number_of_nodes(), graph.number_of_edges()
            lo, hi = -(-m // n), degeneracy(graph)
            assert len(flows) <= math.ceil(math.log2(hi - lo + 1))
            assert all(den == 1 for _, den in flows)
            total += len(flows)
        # The forest unions and the denser gnp leave the bracket open, so
        # the wrapper really sits on the path that runs flows.
        assert total > 0


class TestGraphParameters:
    def test_all_four(self):
        graph = families.gnp(20, 0.2, seed=1)
        idents = identifiers.poly_idents(graph, seed=1)
        sim = SimGraph.from_networkx(graph, idents=idents)
        params = graph_parameters(sim)
        assert params["n"] == 20
        assert params["Delta"] == sim.max_degree
        assert params["m"] == max(idents.values())
        assert params["a"] >= 1

    def test_parameter_registry(self):
        from repro.params import PARAMETERS, actual_parameters

        graph = families.path(10)
        sim = SimGraph.from_networkx(graph)
        values = actual_parameters(sim, ("n", "Delta", "m"))
        # integer labels 0..9 are shifted to positive identities 1..10
        assert values == {"n": 10, "Delta": 2, "m": 10}
        assert set(PARAMETERS) == {"n", "Delta", "m", "a"}
