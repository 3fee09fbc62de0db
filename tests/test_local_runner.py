"""Unit tests for the synchronous LOCAL runner and SimGraph."""

from __future__ import annotations

import re

import networkx as nx
import pytest

from repro.algorithms.luby import luby_mc, luby_mis
from repro.core.domain import VirtualDomain
from repro.errors import (
    InvalidInstanceError,
    NonTerminationError,
    ParameterError,
)
from repro.local import (
    Broadcast,
    LocalAlgorithm,
    NodeProcess,
    SimGraph,
    run,
    run_many,
    run_restricted,
    run_with_wakeup,
    zero_round_algorithm,
)
from repro.graphs import line_graph_spec


class CountDown(NodeProcess):
    """Terminates after ``k`` communication rounds; output = inbox sizes."""

    def __init__(self, ctx, k):
        super().__init__(ctx)
        self.k = k
        self.seen = 0

    def start(self):
        if self.k == 0:
            self.finish(0)
            return None
        return Broadcast("x")

    def receive(self, inbox):
        self.seen += len(inbox)
        if self.ctx.degree and not inbox:
            raise AssertionError("expected messages every round")
        self.k -= 1
        if self.k == 0:
            self.finish(self.seen)
            return None
        return Broadcast("x")


def countdown(k):
    return LocalAlgorithm(f"count{k}", lambda ctx: CountDown(ctx, k))


def sim(graph):
    return SimGraph.from_networkx(graph)


class TestSimGraph:
    def test_ports_sorted_by_ident(self):
        g = sim(nx.star_graph(4))
        assert g.neighbors(0) == (1, 2, 3, 4)
        port, neighbour, reverse = g.adj[1][0]
        assert (port, neighbour) == (0, 0)
        assert g.adj[0][reverse][1] == 1

    def test_rejects_directed(self):
        with pytest.raises(InvalidInstanceError):
            SimGraph.from_networkx(nx.DiGraph([(0, 1)]))

    def test_rejects_self_loop(self):
        g = nx.Graph([(0, 0), (0, 1)])
        with pytest.raises(InvalidInstanceError):
            SimGraph.from_networkx(g)

    def test_rejects_duplicate_idents(self):
        with pytest.raises(InvalidInstanceError):
            SimGraph.from_networkx(nx.path_graph(3), idents={0: 1, 1: 1, 2: 2})

    def test_rejects_bool_idents(self):
        # bool is an int subclass and True == 1; GraphDelta refuses it too.
        with pytest.raises(InvalidInstanceError, match="positive integers"):
            SimGraph.from_networkx(
                nx.path_graph(3), idents={0: True, 1: 2, 2: 3}
            )

    def test_subgraph_reindexes_ports(self):
        g = sim(nx.cycle_graph(5))
        sub = g.subgraph({0, 1, 2})
        assert sub.n == 3
        assert sub.degree(1) == 2
        assert sub.degree(0) == 1

    def test_subgraph_rejects_unknown(self):
        g = sim(nx.path_graph(3))
        with pytest.raises(InvalidInstanceError):
            g.subgraph({7})

    def test_edge_count_and_edges(self):
        g = sim(nx.complete_graph(5))
        assert g.edge_count() == 10
        assert len(list(g.edges())) == 10

    def test_roundtrip_networkx(self):
        original = nx.random_regular_graph(3, 10, seed=1)
        g = sim(original)
        back = g.to_networkx()
        assert nx.is_isomorphic(original, back)

    def test_max_degree_empty(self):
        g = SimGraph.from_networkx(nx.empty_graph(0))
        assert g.max_degree == 0
        assert g.max_ident == 0

    @pytest.mark.parametrize("born", ["dict", "csr"])
    def test_has_edge_unknown_label_is_false(self, born):
        """Labels outside the graph are not an error on either
        representation: the dict view and the CSR agree."""
        g = sim(nx.path_graph(4))
        if born == "csr":
            g = sim(nx.path_graph(5)).subgraph({0, 1, 2, 3})
            assert g._adj is None
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        for u, v in ((0, 99), (99, 0), (99, 98), ("x", 1)):
            assert g.has_edge(u, v) is False
        assert g.has_edge(2, 3)


class TestRunner:
    def test_round_counting(self):
        g = sim(nx.path_graph(4))
        result = run(g, countdown(3))
        assert result.rounds == 3
        assert all(r == 3 for r in result.finish_round.values())

    def test_zero_round_algorithm(self):
        g = sim(nx.path_graph(4))
        algo = zero_round_algorithm("ident", lambda ctx: ctx.ident)
        result = run(g, algo)
        assert result.rounds == 0
        assert result.outputs == {u: g.ident[u] for u in g.nodes}

    def test_message_counting(self):
        g = sim(nx.path_graph(3))
        result = run(g, countdown(2))
        # 2 rounds of full broadcast over 2 edges (both directions).
        assert result.messages == 2 * 2 * 2

    def test_messages_received(self):
        g = sim(nx.complete_graph(4))
        result = run(g, countdown(2))
        # each node hears 3 neighbours for 2 rounds
        assert all(v == 6 for v in result.outputs.values())

    def test_restriction_truncates(self):
        g = sim(nx.path_graph(4))
        result = run_restricted(g, countdown(5), 2, default_output="cut")
        assert result.rounds == 2
        assert set(result.outputs.values()) == {"cut"}
        assert result.truncated == frozenset(g.nodes)

    def test_restriction_no_effect_when_faster(self):
        g = sim(nx.path_graph(4))
        result = run_restricted(g, countdown(1), 9, default_output="cut")
        assert result.rounds == 1
        assert not result.truncated

    def test_nontermination_raises(self):
        g = sim(nx.path_graph(3))
        with pytest.raises(NonTerminationError):
            run(g, countdown(10), max_rounds=4)

    def test_missing_guess_raises(self):
        g = sim(nx.path_graph(3))
        needy = LocalAlgorithm(
            "needy", lambda ctx: CountDown(ctx, 1), requires=("n",)
        )
        with pytest.raises(ParameterError):
            run(g, needy)

    def test_determinism(self):
        g = sim(nx.gnp_random_graph(20, 0.2, seed=3))
        a = run(g, countdown(3), seed=5)
        b = run(g, countdown(3), seed=5)
        assert a.outputs == b.outputs
        assert a.messages == b.messages

    def test_targeted_messages_validate_ports(self):
        class BadPort(NodeProcess):
            def start(self):
                return {99: "boom"}

            def receive(self, inbox):
                self.finish(0)
                return None

        g = sim(nx.path_graph(2))
        with pytest.raises(ValueError):
            run(g, LocalAlgorithm("bad", BadPort))

    def test_empty_graph(self):
        g = SimGraph.from_networkx(nx.empty_graph(0))
        result = run(g, countdown(3))
        assert result.rounds == 0
        assert result.outputs == {}

    def test_inputs_reach_context(self):
        g = sim(nx.path_graph(3))
        algo = zero_round_algorithm("echo", lambda ctx: ctx.input)
        result = run(g, algo, inputs={0: "a", 2: "c"})
        assert result.outputs == {0: "a", 1: None, 2: "c"}


class TestNonTerminationDiagnostics:
    def test_message_unchanged(self, small_gnp):
        with pytest.raises(NonTerminationError) as excinfo:
            run(small_gnp, luby_mis(), seed=2, max_rounds=1)
        message = str(excinfo.value)
        assert message.endswith("node(s) unfinished")
        assert "shard" not in message


@pytest.mark.parametrize("entry", (
    "run", "run_many", "run_with_wakeup", "run_restricted", "run_full",
))
@pytest.mark.parametrize("backend", ("compiled", "reference"))
def test_missing_guess_message_is_shared(small_gnp, entry, backend):
    """Every entry point reports a missing guess in the same words;
    virtual-domain runs name the algorithm ``virtual[<name>]``."""
    algo = luby_mc()
    domain = VirtualDomain(small_gnp, line_graph_spec(small_gnp))
    calls = {
        "run": lambda: run(small_gnp, algo, backend=backend),
        "run_many": lambda: run_many([(small_gnp, algo)], backend=backend),
        "run_with_wakeup": lambda: run_with_wakeup(small_gnp, algo, {}),
        "run_restricted": lambda: domain.run_restricted(
            algo, 4, backend=backend
        ),
        "run_full": lambda: domain.run_full(algo, backend=backend),
    }
    name = algo.name if entry in ("run", "run_many", "run_with_wakeup") \
        else f"virtual[{algo.name}]"
    message = f"algorithm {name!r} requires guesses for ['n']"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        calls[entry]()
