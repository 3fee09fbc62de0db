"""Tests for wake-up patterns, the α synchronizer and Observation 2.1."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.algorithms.luby import luby_mis
from repro.problems import MIS
from repro.local import (
    Broadcast,
    Chain,
    LocalAlgorithm,
    NodeProcess,
    SimGraph,
    run,
    run_with_wakeup,
    running_time,
    termination_times,
    use_backend,
)


class MaxFlood(NodeProcess):
    """k-round flood of the maximum identity (deterministic).

    When run as a later Chain stage, the flood continues from the
    previous stage's output (the chain's default carry is
    ``(original_input, (prev_outputs...))``).
    """

    def __init__(self, ctx, k):
        super().__init__(ctx)
        self.k = k
        self.best = ctx.ident
        if (
            isinstance(ctx.input, tuple)
            and len(ctx.input) == 2
            and isinstance(ctx.input[1], tuple)
            and ctx.input[1]
            and isinstance(ctx.input[1][-1], int)
        ):
            self.best = max(self.best, ctx.input[1][-1])
        self.round = 0

    def start(self):
        if self.k == 0:
            self.finish(self.best)
            return None
        return Broadcast(self.best)

    def receive(self, inbox):
        self.round += 1
        for value in inbox.values():
            if isinstance(value, int):
                self.best = max(self.best, value)
        if self.round >= self.k:
            self.finish(self.best)
            return None
        return Broadcast(self.best)


def flood(k):
    return LocalAlgorithm(f"flood{k}", lambda ctx: MaxFlood(ctx, k))


def sim(graph):
    return SimGraph.from_networkx(graph)


WAKE_PATTERNS = [
    ("simultaneous", lambda g: {u: 0 for u in g.nodes}),
    ("staggered", lambda g: {u: g.ident[u] % 5 for u in g.nodes}),
    ("one-late", lambda g: {u: (20 if u == g.nodes[0] else 0) for u in g.nodes}),
    ("linear", lambda g: {u: i for i, u in enumerate(g.nodes)}),
]


class TestSynchronizerEquivalence:
    @pytest.mark.parametrize("name,pattern", WAKE_PATTERNS)
    def test_outputs_match_synchronous_run(self, name, pattern):
        g = sim(nx.random_regular_graph(3, 12, seed=2))
        wake = pattern(g)
        sync = run(g, flood(3))
        woken = run_with_wakeup(g, flood(3), wake)
        assert woken.outputs == sync.outputs

    @pytest.mark.parametrize("backend", ("compiled", "reference"))
    def test_wakeup_matches_the_reference_loop(self, small_gnp, backend):
        """The synchronizer is its own per-node loop drawing the one
        counter scheme (D36), so under either ambient record an
        all-zero wake pattern reproduces the reference run bit for
        bit."""
        wake = {u: 0 for u in small_gnp.nodes}
        with use_backend(backend):
            woken = run_with_wakeup(small_gnp, luby_mis(), wake, seed=7)
        ref = run(small_gnp, luby_mis(), backend="reference", seed=7)
        assert woken.outputs == ref.outputs
        assert woken.finish_round == ref.finish_round
        assert (woken.rounds, woken.messages) == (ref.rounds, ref.messages)

    def test_simultaneous_wakeup_matches_round_counts(self):
        g = sim(nx.path_graph(8))
        wake = {u: 0 for u in g.nodes}
        woken = run_with_wakeup(g, flood(2), wake)
        assert running_time(g, wake, woken.finish_round) == 2

    def test_termination_time_discounts_late_wakers(self):
        # The paper: u terminates in time t if it finishes at most t
        # rounds after everyone in B(u, t) woke up.
        g = sim(nx.path_graph(6))
        wake = {u: (10 if u == 5 else 0) for u in g.nodes}
        woken = run_with_wakeup(g, flood(2), wake)
        times = termination_times(g, wake, woken.finish_round)
        assert all(t <= 2 for t in times.values()), times

    def test_running_time_bounded_by_algorithm_time(self):
        g = sim(nx.cycle_graph(9))
        for _, pattern in WAKE_PATTERNS:
            wake = pattern(g)
            woken = run_with_wakeup(g, flood(4), wake)
            assert running_time(g, wake, woken.finish_round) <= 4

    def test_negative_wake_rejected(self):
        g = sim(nx.path_graph(3))
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            run_with_wakeup(g, flood(1), {0: -1, 1: 0, 2: 0})


class TestObservation21:
    """Composition A1;A2 runs in at most t1 + t2 rounds."""

    @pytest.mark.parametrize("k1,k2", [(1, 1), (2, 3), (3, 2), (4, 4)])
    def test_chain_time_bound(self, k1, k2):
        g = sim(nx.random_regular_graph(3, 12, seed=4))
        chained = Chain([flood(k1), flood(k2)])
        result = run(g, chained)
        assert result.rounds <= k1 + k2

    def test_chain_outputs_compose(self):
        g = sim(nx.path_graph(10))
        result = run(g, Chain([flood(2), flood(2)]))
        # Stage 2 floods the same values again: radius-2 of radius-2
        # maxima equals radius-4 maxima.
        direct = run(g, flood(4))
        for u in g.nodes:
            assert result.outputs[u][1] == direct.outputs[u]

    def test_three_stage_chain(self):
        g = sim(nx.cycle_graph(11))
        result = run(g, Chain([flood(1), flood(1), flood(1)]))
        assert result.rounds <= 3
        direct = run(g, flood(3))
        for u in g.nodes:
            assert result.outputs[u][2] == direct.outputs[u]

    def test_chain_under_wakeup_patterns(self):
        g = sim(nx.path_graph(7))
        chained = Chain([flood(2), flood(1)])
        wake = {u: u % 3 for u in g.nodes}
        woken = run_with_wakeup(g, chained, wake)
        sync = run(g, chained)
        assert woken.outputs == sync.outputs

    def test_chain_stage_streams_follow_the_seed(self, small_gnp):
        """A randomized stage draws a sub-stream of the node's stream:
        ``Chain([luby])`` changes with the run's seed and salt, as plain
        Luby does, stays a valid MIS, and both backends agree."""
        chained = Chain([luby_mis()])
        seen = set()
        for opts in ({"seed": 0}, {"seed": 1}, {"seed": 2}, {"seed": 3},
                     {"seed": 0, "salt": "other"}):
            ref = run(small_gnp, chained, backend="reference", **opts)
            compiled = run(small_gnp, chained, backend="compiled", **opts)
            assert ref.outputs == compiled.outputs, opts
            assert ref.finish_round == compiled.finish_round, opts
            assert (ref.rounds, ref.messages) == (
                compiled.rounds, compiled.messages
            ), opts
            mis = {u: out[0] for u, out in ref.outputs.items()}
            assert MIS.is_solution(small_gnp, {}, mis), opts
            seen.add(tuple(sorted(mis.items())))
        assert len(seen) == 5

    def test_chain_requires_union(self):
        a = LocalAlgorithm("a", lambda ctx: MaxFlood(ctx, 1), requires=("n",))
        b = LocalAlgorithm("b", lambda ctx: MaxFlood(ctx, 1), requires=("m",))
        chained = Chain([a, b])
        assert set(chained.requires) == {"n", "m"}

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            Chain([])
