"""Section 6.3 realized: uniform strong g-coloring with forbidden lists.

The paper closes by proposing strong g-coloring (forbidden lists) as
the route to prunable coloring; these tests exercise the concrete
construction: the pruner's definitional properties, the capacity
invariant, and the Theorem-1 uniformization end to end.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.algorithms.forbidden_coloring import (
    ForbiddenPruning,
    forbidden_coloring,
    forbidden_coloring_bound,
    forbidden_coloring_nonuniform,
)
from repro.algorithms.greedy import greedy_coloring
from repro.core import theorem1
from repro.core.domain import PhysicalDomain
from repro.local import SimGraph, run
from repro.problems.forbidden import (
    STRONG_COLORING,
    ForbiddenInput,
    fresh_inputs,
)


def sim(graph):
    return SimGraph.from_networkx(graph)


graphs = st.builds(
    lambda n, p, seed: nx.gnp_random_graph(n, p, seed=seed),
    n=st.integers(min_value=1, max_value=20),
    p=st.floats(min_value=0.05, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10**6),
)


class TestProblem:
    def test_accepts_greedy_with_room(self):
        g = sim(nx.cycle_graph(8))
        inputs = fresh_inputs(g, g=5)
        colors = greedy_coloring(g)
        assert STRONG_COLORING.is_solution(g, inputs, colors)

    def test_rejects_forbidden_choice(self):
        g = sim(nx.path_graph(2))
        inputs = {
            0: ForbiddenInput(4, {1}),
            1: ForbiddenInput(4),
        }
        assert not STRONG_COLORING.is_solution(g, inputs, {0: 1, 1: 2})

    def test_capacity_invariant_checked(self):
        g = sim(nx.star_graph(4))
        inputs = {u: ForbiddenInput(3) for u in g.nodes}  # hub deg 4 > g-1
        colors = {0: 1} | {u: 2 for u in range(1, 5)}
        violations = STRONG_COLORING.violations(g, inputs, colors)
        assert any("capacity" in v.reason for v in violations)


class TestPruner:
    def test_solution_detection(self):
        g = sim(nx.gnp_random_graph(15, 0.3, seed=2))
        inputs = fresh_inputs(g, g=g.max_degree + 1)
        colors = greedy_coloring(g)
        result = ForbiddenPruning().apply(PhysicalDomain(g), inputs, colors)
        assert result.pruned == set(g.nodes)

    def test_survivors_inherit_forbidden_colors(self):
        g = sim(nx.path_graph(3))
        inputs = fresh_inputs(g, g=4)
        tentative = {0: 1, 1: 1, 2: 2}  # 0/1 clash; 2 is safe
        result = ForbiddenPruning().apply(PhysicalDomain(g), inputs, tentative)
        assert result.pruned == {2}
        assert 2 in result.new_inputs[1].forbidden
        assert 2 not in result.new_inputs[0].forbidden

    @given(graph=graphs, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_gluing_property(self, graph, data):
        """Prune arbitrary tentative colors, solve the rest, combine."""
        g = sim(graph)
        palette = g.max_degree + 1 + 2
        inputs = fresh_inputs(g, g=palette)
        tentative = {
            u: data.draw(
                st.integers(min_value=0, max_value=palette + 1),
                label=f"y({u})",
            )
            for u in g.nodes
        }
        pruner = ForbiddenPruning()
        result = pruner.apply(PhysicalDomain(g), inputs, tentative)
        survivors = set(g.nodes) - result.pruned
        residual = g.subgraph(survivors)
        # solve the residual instance exactly, respecting new forbidden sets
        solution = {}
        for u in sorted(survivors, key=lambda u: g.ident[u]):
            x = result.new_inputs[u]
            used = {
                solution[v]
                for v in residual.neighbors(u)
                if v in solution
            }
            choice = next(
                c
                for c in range(1, x.g + 1)
                if c not in used and c not in x.forbidden
            )
            solution[u] = choice
        combined = {
            u: (tentative[u] if u in result.pruned else solution[u])
            for u in g.nodes
        }
        assert STRONG_COLORING.is_solution(g, inputs, combined), (
            STRONG_COLORING.violations(g, inputs, combined)[:3]
        )

    @given(graph=graphs, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_capacity_invariant_preserved(self, graph, data):
        g = sim(graph)
        palette = g.max_degree + 1
        inputs = fresh_inputs(g, g=palette)
        tentative = {
            u: data.draw(
                st.integers(min_value=1, max_value=palette), label=f"y({u})"
            )
            for u in g.nodes
        }
        result = ForbiddenPruning().apply(PhysicalDomain(g), inputs, tentative)
        survivors = set(g.nodes) - result.pruned
        residual = g.subgraph(survivors)
        for u in survivors:
            x = result.new_inputs[u]
            assert len(x.forbidden) + residual.degree(u) + 1 <= x.g


class TestAlgorithm:
    def test_correct_with_good_guesses(self, small_gnp):
        palette = small_gnp.max_degree + 1
        inputs = fresh_inputs(small_gnp, g=palette)
        guesses = {
            "m": small_gnp.max_ident,
            "Delta": max(1, small_gnp.max_degree),
        }
        result = run(
            small_gnp, forbidden_coloring(), inputs=inputs, guesses=guesses
        )
        assert STRONG_COLORING.is_solution(small_gnp, inputs, result.outputs)
        bound = forbidden_coloring_bound().value(guesses)
        assert result.rounds <= bound

    def test_respects_preexisting_forbidden_sets(self):
        g = sim(nx.cycle_graph(6))
        inputs = {
            u: ForbiddenInput(6, {1, 2} if u % 2 == 0 else set())
            for u in g.nodes
        }
        guesses = {"m": g.max_ident, "Delta": 2}
        result = run(g, forbidden_coloring(), inputs=inputs, guesses=guesses)
        assert STRONG_COLORING.is_solution(g, inputs, result.outputs)


class TestUniformization:
    """The artifact §6.3 asks for: a uniform strong-coloring algorithm."""

    def test_theorem1_uniform_strong_coloring(self, small_gnp):
        palette = small_gnp.max_degree + 3
        inputs = fresh_inputs(small_gnp, g=palette)
        uniform = theorem1(forbidden_coloring_nonuniform(), ForbiddenPruning())
        result = uniform.run(small_gnp, inputs=inputs, seed=3)
        assert result.completed
        assert STRONG_COLORING.is_solution(
            small_gnp, inputs, result.outputs
        ), STRONG_COLORING.violations(small_gnp, inputs, result.outputs)[:3]

    def test_uniform_on_catalog_slice(self, catalog):
        uniform = theorem1(forbidden_coloring_nonuniform(), ForbiddenPruning())
        for name in ("cycle17", "grid4x6", "tree40", "regular4_30"):
            graph = catalog[name]
            inputs = fresh_inputs(graph, g=graph.max_degree + 2)
            result = uniform.run(graph, inputs=inputs, seed=4)
            assert STRONG_COLORING.is_solution(
                graph, inputs, result.outputs
            ), name
