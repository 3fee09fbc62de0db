"""Pruning algorithms: solution detection, gluing, monotonicity.

These are the definitional properties of Section 3.2, verified both on
hand-built cases and property-based over random graphs and random
tentative output vectors.  Gluing is tested operationally: prune, solve
the residual instance exactly (centralized), combine, verify.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.greedy import greedy_matching, greedy_mis
from repro.core.domain import PhysicalDomain
from repro.core.pruning import (
    MatchingPruning,
    RulingSetPruning,
    SLCPruning,
    mis_pruning,
)
from repro.local import SimGraph
from repro.problems import (
    MAXIMAL_MATCHING,
    MIS,
    ColorList,
    SLCInput,
)


def sim(graph):
    return SimGraph.from_networkx(graph)


def domain_of(graph):
    return PhysicalDomain(graph)


graphs = st.builds(
    lambda n, p, seed: nx.gnp_random_graph(n, p, seed=seed),
    n=st.integers(min_value=1, max_value=24),
    p=st.floats(min_value=0.05, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10**6),
)


class TestRulingSetPruningBasics:
    def test_rounds_match_paper(self):
        assert RulingSetPruning(beta=1).rounds == 2
        assert RulingSetPruning(beta=3).rounds == 4

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            RulingSetPruning(beta=0)

    def test_solution_detection_on_mis(self):
        g = sim(nx.random_regular_graph(3, 12, seed=1))
        solution = greedy_mis(g)
        result = mis_pruning().apply(domain_of(g), {}, solution)
        assert result.pruned == set(g.nodes)

    def test_garbage_all_zero_prunes_nothing_without_centers(self):
        g = sim(nx.path_graph(5))
        tentative = {u: 0 for u in g.nodes}
        result = mis_pruning().apply(domain_of(g), {}, tentative)
        assert result.pruned == set()

    def test_adjacent_ones_not_pruned(self):
        g = sim(nx.path_graph(3))
        tentative = {0: 1, 1: 1, 2: 0}
        result = mis_pruning().apply(domain_of(g), {}, tentative)
        # 0 and 1 are adjacent members: neither is a center; 2's only
        # potential center is 1 which is not one.
        assert result.pruned == set()

    def test_partial_solution_prunes_ball(self):
        g = sim(nx.path_graph(5))
        tentative = {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}
        result = mis_pruning().apply(domain_of(g), {}, tentative)
        # 0 is a center; 1 is dominated; 2,3,4 are not.
        assert result.pruned == {0, 1}


@given(graph=graphs, data=st.data())
@settings(max_examples=60, deadline=None)
def test_ruling_pruning_gluing_property(graph, data):
    """Prune on arbitrary tentative bits, solve the rest, combine, verify."""
    g = sim(graph)
    tentative = {
        u: data.draw(st.sampled_from([0, 1]), label=f"y({u})")
        for u in g.nodes
    }
    pruner = mis_pruning()
    result = pruner.apply(domain_of(g), {}, tentative)
    survivors = set(g.nodes) - result.pruned
    residual = g.subgraph(survivors)
    solution = greedy_mis(residual)
    combined = {
        u: (tentative[u] if u in result.pruned else solution[u])
        for u in g.nodes
    }
    assert MIS.is_solution(g, {}, combined), MIS.violations(g, {}, combined)[:3]


@given(graph=graphs, beta=st.integers(min_value=1, max_value=4), data=st.data())
@settings(max_examples=40, deadline=None)
def test_ruling_pruning_solution_detection(graph, beta, data):
    """Any valid (2,β)-ruling set must be fully pruned."""
    g = sim(graph)
    solution = greedy_mis(g)  # a MIS is a (2,β)-ruling set for any β ≥ 1
    pruner = RulingSetPruning(beta=beta)
    result = pruner.apply(domain_of(g), {}, solution)
    assert result.pruned == set(g.nodes)


class TestMatchingPruning:
    def test_rounds_match_paper(self):
        assert MatchingPruning().rounds == 3

    def test_solution_detection(self):
        g = sim(nx.gnp_random_graph(16, 0.3, seed=3))
        solution = greedy_matching(g)
        result = MatchingPruning().apply(domain_of(g), {}, solution)
        assert result.pruned == set(g.nodes)

    def test_unmatched_garbage_not_pruned(self):
        g = sim(nx.path_graph(4))
        tentative = {u: ("U", g.ident[u]) for u in g.nodes}
        result = MatchingPruning().apply(domain_of(g), {}, tentative)
        assert result.pruned == set()

    def test_single_matched_pair_pruned(self):
        g = sim(nx.path_graph(4))
        a, b = sorted((g.ident[1], g.ident[2]))
        tentative = {
            0: ("U", g.ident[0]),
            1: ("M", a, b),
            2: ("M", a, b),
            3: ("U", g.ident[3]),
        }
        result = MatchingPruning().apply(domain_of(g), {}, tentative)
        # 1,2 matched; 0 and 3 have all neighbours matched.
        assert result.pruned == set(g.nodes)


@given(graph=graphs, seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_matching_pruning_gluing_property(graph, seed):
    """Tentative = a truncated/garbled canonical matching; glue and verify."""
    g = sim(graph)
    rng = random.Random(seed)
    base = greedy_matching(g)
    tentative = {}
    for u in g.nodes:
        roll = rng.random()
        if roll < 0.5:
            tentative[u] = base[u]
        elif roll < 0.8:
            tentative[u] = ("U", g.ident[u])  # forget the match
        else:
            tentative[u] = 0  # truncation default
    pruner = MatchingPruning()
    result = pruner.apply(domain_of(g), {}, tentative)
    survivors = set(g.nodes) - result.pruned
    residual = g.subgraph(survivors)
    solution = greedy_matching(residual)
    combined = {
        u: (tentative[u] if u in result.pruned else solution[u])
        for u in g.nodes
    }
    assert MAXIMAL_MATCHING.is_solution(g, {}, combined), (
        MAXIMAL_MATCHING.violations(g, {}, combined)[:3]
    )


class TestSLCPruning:
    def make_instance(self, g, width_slack=0):
        delta_hat = g.max_degree + width_slack
        width = 2 * (delta_hat + 1)
        inputs = {
            u: SLCInput(delta_hat, ColorList(width, delta_hat + 1))
            for u in g.nodes
        }
        return inputs

    def test_rounds(self):
        assert SLCPruning().rounds == 2

    def test_solution_detection(self):
        g = sim(nx.cycle_graph(8))
        inputs = self.make_instance(g)
        # a valid SLC solution: color index = greedy color, copy 1
        from repro.algorithms.greedy import greedy_coloring

        colors = greedy_coloring(g)
        tentative = {u: (colors[u], 1) for u in g.nodes}
        result = SLCPruning().apply(domain_of(g), inputs, tentative)
        assert result.pruned == set(g.nodes)

    def test_conflicting_pairs_survive_with_shrunk_lists(self):
        g = sim(nx.path_graph(3))
        inputs = self.make_instance(g)
        tentative = {0: (1, 1), 1: (1, 1), 2: (2, 1)}
        result = SLCPruning().apply(domain_of(g), inputs, tentative)
        # 2 is conflict-free and in-list -> pruned; 0,1 clash.
        assert result.pruned == {2}
        assert (2, 1) not in result.new_inputs[1].colors

    def test_out_of_list_rejected(self):
        g = sim(nx.path_graph(2))
        inputs = self.make_instance(g)
        width = inputs[0].colors.width
        tentative = {0: (width + 5, 1), 1: 0}
        result = SLCPruning().apply(domain_of(g), inputs, tentative)
        assert result.pruned == set()

    def test_invariant_preserved_after_pruning(self):
        g = sim(nx.gnp_random_graph(18, 0.3, seed=9))
        inputs = self.make_instance(g)
        from repro.algorithms.greedy import greedy_coloring

        colors = greedy_coloring(g)
        # half the nodes get a valid pair, the others garbage
        tentative = {
            u: (colors[u], 1) if g.ident[u] % 2 == 0 else 0 for u in g.nodes
        }
        result = SLCPruning().apply(domain_of(g), inputs, tentative)
        survivors = set(g.nodes) - result.pruned
        residual = g.subgraph(survivors)
        # SLC invariant: each color index keeps ≥ deg+1 copies
        for u in survivors:
            x = result.new_inputs[u]
            for k in range(1, x.colors.width + 1):
                assert x.colors.remaining_copies(k) >= residual.degree(u) + 1
