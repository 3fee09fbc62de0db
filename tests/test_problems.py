"""Verifier behaviour: accept known-good solutions, reject corruptions."""

from __future__ import annotations

import random
from collections import deque

import networkx as nx
import pytest

from repro.algorithms.greedy import (
    greedy_coloring,
    greedy_edge_coloring,
    greedy_matching,
    greedy_mis,
)
from repro.errors import InvalidInstanceError
from repro.local import SimGraph
from repro.problems import (
    EDGE_COLORING,
    MAXIMAL_MATCHING,
    MIS,
    PROPER_COLORING,
    ColoringProblem,
    ColorList,
    EdgeColoringProblem,
    HPartitionProblem,
    SLC,
    SLCInput,
    deg_plus_one_coloring,
    matched_pairs,
    partner_to_paper_encoding,
    ruling_set,
)


def sim(graph):
    return SimGraph.from_networkx(graph)


@pytest.fixture(scope="module")
def g():
    return sim(nx.gnp_random_graph(25, 0.2, seed=4))


class TestMISVerifier:
    def test_accepts_greedy(self, g):
        assert MIS.is_solution(g, {}, greedy_mis(g))

    def test_rejects_adjacent_pair(self, g):
        solution = greedy_mis(g)
        u = next(u for u in g.nodes if solution[u] == 1)
        v = g.neighbors(u)[0]
        solution[v] = 1
        violations = MIS.violations(g, {}, solution)
        assert any("adjacent" in v.reason for v in violations)

    def test_rejects_undominated(self, g):
        solution = {u: 0 for u in g.nodes}
        assert not MIS.is_solution(g, {}, solution)

    def test_missing_outputs_raise(self, g):
        with pytest.raises(InvalidInstanceError):
            MIS.violations(g, {}, {})

    def test_assert_solution_message(self, g):
        with pytest.raises(InvalidInstanceError, match="MIS violated"):
            MIS.assert_solution(g, {}, {u: 0 for u in g.nodes})


class TestRulingSetVerifier:
    def test_mis_is_any_beta_ruling_set(self, g):
        solution = greedy_mis(g)
        for beta in (1, 2, 5):
            assert ruling_set(2, beta).is_solution(g, {}, solution)

    def test_alpha_constraint(self):
        graph = sim(nx.path_graph(4))
        solution = {0: 1, 1: 1, 2: 0, 3: 0}
        problem = ruling_set(2, 3)
        violations = problem.violations(graph, {}, solution)
        assert any("distance" in v.reason for v in violations)

    def test_beta_constraint_tight(self):
        graph = sim(nx.path_graph(5))
        solution = {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}
        assert ruling_set(2, 4).is_solution(graph, {}, solution)
        assert not ruling_set(2, 3).is_solution(graph, {}, solution)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ruling_set(0, 1)


def reference_ruling_violations(alpha, beta, graph, outputs):
    """The per-node verifier: one bounded BFS from every node."""

    def within(source, limit):
        seen = {source: 0}
        queue = deque([source])
        reached = []
        while queue:
            u = queue.popleft()
            if seen[u] == limit:
                continue
            for v in graph.neighbors(u):
                if v not in seen:
                    seen[v] = seen[u] + 1
                    reached.append((v, seen[v]))
                    queue.append(v)
        return reached

    rulers = {u for u in graph.nodes if outputs[u] == 1}
    found = []
    for u in rulers:
        for v, dist in within(u, alpha - 1):
            if v in rulers and graph.ident[u] < graph.ident[v]:
                found.append(((u, v), f"rulers at distance {dist} < α={alpha}"))
    for u in graph.nodes:
        if u not in rulers and not any(v in rulers for v, _ in within(u, beta)):
            found.append((u, f"no ruler within distance β={beta}"))
    return found


def listed(violations):
    return [(v.where, v.reason) for v in violations]


def corrupted(graph, solution, seed):
    """``solution`` with a few rulers cleared and a few non-rulers added."""
    rng = random.Random(seed)
    outputs = dict(solution)
    rulers = [u for u in graph.nodes if outputs[u] == 1]
    for u in rng.sample(rulers, max(1, len(rulers) // 4)):
        outputs[u] = 0
    for u in rng.sample(list(graph.nodes), 3):
        outputs[u] = 1
    return outputs


class TestRulingDomination:
    def test_path_boundary(self):
        graph = sim(nx.path_graph(6))
        solution = {u: int(u == 0) for u in graph.nodes}
        problem = ruling_set(2, 3)
        assert listed(problem.violations(graph, {}, solution)) == [
            (4, "no ruler within distance β=3"),
            (5, "no ruler within distance β=3"),
        ]
        assert ruling_set(2, 5).is_solution(graph, {}, solution)

    def test_rulers_at_both_ends(self):
        graph = sim(nx.path_graph(9))
        solution = {u: int(u in (0, 8)) for u in graph.nodes}
        assert ruling_set(2, 4).is_solution(graph, {}, solution)
        assert listed(ruling_set(2, 3).violations(graph, {}, solution)) == [
            (4, "no ruler within distance β=3")
        ]

    def test_other_component_is_undominated(self):
        graph = sim(nx.disjoint_union(nx.path_graph(3), nx.cycle_graph(4)))
        solution = {u: int(u == 1) for u in graph.nodes}
        found = listed(ruling_set(2, 10).violations(graph, {}, solution))
        assert [where for where, _ in found] == [3, 4, 5, 6]

    def test_empty_ruler_set_reports_every_node(self, g):
        solution = {u: 0 for u in g.nodes}
        found = ruling_set(3, 2).violations(g, {}, solution)
        assert [v.where for v in found] == list(g.nodes)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("alpha,beta", [(2, 1), (2, 2), (3, 2), (2, 4)])
    def test_matches_per_node_reference(self, seed, alpha, beta):
        graph = sim(nx.gnp_random_graph(60, 0.06, seed=seed))
        outputs = corrupted(graph, greedy_mis(graph), seed)
        got = listed(ruling_set(alpha, beta).violations(graph, {}, outputs))
        assert got == reference_ruling_violations(alpha, beta, graph, outputs)

    @pytest.mark.parametrize("seed", range(6))
    def test_two_one_ruling_is_mis(self, seed):
        graph = sim(nx.gnp_random_graph(50, 0.08, seed=seed))
        clean = greedy_mis(graph)
        for outputs in (clean, corrupted(graph, clean, seed)):
            assert ruling_set(2, 1).is_solution(graph, {}, outputs) == (
                MIS.is_solution(graph, {}, outputs)
            )


class TestColoringVerifier:
    def test_accepts_greedy(self, g):
        assert PROPER_COLORING.is_solution(g, {}, greedy_coloring(g))

    def test_deg_plus_one_range(self, g):
        colors = greedy_coloring(g)
        assert deg_plus_one_coloring().is_solution(g, {}, colors)

    def test_rejects_monochromatic_edge(self, g):
        colors = greedy_coloring(g)
        u = g.nodes[0]
        v = g.neighbors(u)[0]
        colors[v] = colors[u]
        assert not PROPER_COLORING.is_solution(g, {}, colors)

    def test_range_bound(self):
        graph = sim(nx.path_graph(3))
        problem = ColoringProblem(max_colors=2)
        assert not problem.is_solution(graph, {}, {0: 1, 1: 3, 2: 1})

    def test_non_integer_rejected(self):
        graph = sim(nx.path_graph(2))
        assert not PROPER_COLORING.is_solution(graph, {}, {0: "red", 1: 2})


class TestColorList:
    def test_membership_and_removal(self):
        lst = ColorList(3, 4)
        assert (1, 1) in lst and (3, 4) in lst
        assert (4, 1) not in lst and (0, 1) not in lst
        shrunk = lst.without([(2, 1), (2, 2)])
        assert (2, 1) not in shrunk
        assert shrunk.remaining_copies(2) == 2
        assert shrunk.first_free(2) == 3

    def test_non_int_pairs_rejected(self):
        lst = ColorList(3, 4)
        assert ("x", 1) not in lst
        assert 0 not in lst

    def test_slc_verifier(self):
        graph = sim(nx.path_graph(3))
        inputs = {
            u: SLCInput(2, ColorList(4, 3)) for u in graph.nodes
        }
        outputs = {0: (1, 1), 1: (2, 1), 2: (1, 2)}
        assert SLC.is_solution(graph, inputs, outputs)
        outputs[1] = (9, 9)
        assert not SLC.is_solution(graph, inputs, outputs)


class TestMatchingVerifier:
    def test_accepts_greedy(self, g):
        assert MAXIMAL_MATCHING.is_solution(g, {}, greedy_matching(g))

    def test_matched_pairs_extraction(self):
        graph = sim(nx.path_graph(4))
        outputs = greedy_matching(graph)
        pairs = matched_pairs(graph, outputs)
        assert len(pairs) == 2

    def test_rejects_empty_on_edge(self):
        graph = sim(nx.path_graph(2))
        outputs = {0: ("U", 0 + 1), 1: ("U", 1 + 1)}
        outputs = {u: ("U", graph.ident[u]) for u in graph.nodes}
        assert not MAXIMAL_MATCHING.is_solution(graph, {}, outputs)

    def test_partner_encoding_roundtrip(self):
        graph = sim(nx.cycle_graph(6))
        partner = {}
        for u in range(0, 6, 2):
            v = u + 1
            partner[u] = graph.ident[v]
            partner[v] = graph.ident[u]
        outputs = partner_to_paper_encoding(graph, partner)
        assert MAXIMAL_MATCHING.is_solution(graph, {}, outputs)

    def test_double_match_detected(self):
        graph = sim(nx.path_graph(3))
        value = ("M", 1, 2)
        outputs = {0: value, 1: value, 2: value}
        # 1 would be matched to both 0 and 2 — but the encoding's
        # cleanliness condition already demotes them all to unmatched,
        # so maximality fails instead.
        assert not MAXIMAL_MATCHING.is_solution(graph, {}, outputs)


class TestEdgeColoringVerifier:
    def test_accepts_greedy(self, g):
        colors = greedy_edge_coloring(g)
        assert EDGE_COLORING.is_solution(g, {}, colors)
        delta = g.max_degree
        assert EdgeColoringProblem(2 * delta - 1).is_solution(g, {}, colors)

    def test_rejects_shared_incident_color(self):
        graph = sim(nx.path_graph(3))
        colors = {(0, 1): 1, (1, 2): 1}
        assert not EDGE_COLORING.is_solution(graph, {}, colors)

    def test_rejects_missing_edge(self):
        graph = sim(nx.path_graph(3))
        assert not EDGE_COLORING.is_solution(graph, {}, {(0, 1): 1})

    def test_rejects_phantom_edge(self):
        graph = sim(nx.path_graph(3))
        colors = {(0, 1): 1, (1, 2): 2, (0, 2): 3}
        assert not EDGE_COLORING.is_solution(graph, {}, colors)


class TestHPartitionVerifier:
    def test_single_class_bounded_degree(self):
        graph = sim(nx.cycle_graph(6))
        outputs = {u: 1 for u in graph.nodes}
        assert HPartitionProblem(2).is_solution(graph, {}, outputs)
        assert not HPartitionProblem(1).is_solution(graph, {}, outputs)

    def test_later_classes_counted(self):
        graph = sim(nx.star_graph(5))
        outputs = {0: 2} | {u: 1 for u in range(1, 6)}
        # leaves: 1 neighbour (the hub) in a later class -> fine with t=1
        assert HPartitionProblem(1).is_solution(graph, {}, outputs)
        # hub in class 2 has no same-or-later neighbours
        outputs = {0: 1} | {u: 1 for u in range(1, 6)}
        assert not HPartitionProblem(4).is_solution(graph, {}, outputs)
