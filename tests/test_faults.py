"""Deterministic fault injection (D14).

Contract under test: an injected run is a pure function of
``(graph, algorithm, seed, plan)`` and bit-identical across every
backend — the reference loop, the compiled per-node loop and the
batched kernels (per-round fault masks).  Plus eager validation of
fault plans and profiles.
"""

from __future__ import annotations

import pytest

from repro.algorithms.fast_mis import fast_mis
from repro.algorithms.hash_luby import hash_luby_mis
from repro.algorithms.luby import luby_mc, luby_mis
from repro.errors import NonTerminationError, ParameterError
from repro.local import (
    GARBLED,
    Broadcast,
    FaultPlan,
    LocalAlgorithm,
    NodeProcess,
    byzantine_silent,
    crash_at,
    drop,
    garble,
    honest,
    last_faults,
    run,
    sample_plan,
    use_batch,
    use_faults,
)
from repro.local.batch import numpy_or_none
from repro.local.runner import last_stepping

RESULT_FIELDS = ("outputs", "finish_round", "rounds", "messages", "truncated")


def assert_results_equal(a, b, context=""):
    for field in RESULT_FIELDS:
        assert getattr(a, field) == getattr(b, field), (field, context)


def mixed_plan(graph):
    """One of each profile over the graph's first labels."""
    nodes = sorted(graph.nodes)
    return FaultPlan({
        nodes[1]: crash_at(2),
        nodes[4]: crash_at(0, output="dead"),
        nodes[7]: byzantine_silent(),
        nodes[10]: drop(0.5),
        nodes[13]: garble(0.6),
        nodes[16]: drop(1.0),
        nodes[19]: honest(),
    })


class TestBitIdentity:
    def test_full_backend_matrix_luby(self, small_gnp):
        plan = mixed_plan(small_gnp)
        base = run(small_gnp, luby_mis(), seed=5, rng="counter",
                   backend="reference", faults=plan)
        compiled = run(small_gnp, luby_mis(), seed=5, rng="counter",
                       backend="compiled", faults=plan)
        assert_results_equal(base, compiled, context="compiled")
        for batching in (True, False):
            with use_batch(batching):
                got = run(
                    small_gnp, luby_mis(), seed=5, rng="counter",
                    backend="compiled", faults=plan,
                )
            assert_results_equal(base, got, context=batching)

    @pytest.mark.parametrize("make", (luby_mc, hash_luby_mis))
    def test_certified_kernels_bit_identical(self, small_gnp, make):
        plan = mixed_plan(small_gnp)
        algorithm = make()
        guesses = {"n": len(small_gnp.nodes)}
        base = run(small_gnp, algorithm, seed=3, rng="counter",
                   guesses=guesses, backend="reference", faults=plan)
        batched = run(small_gnp, algorithm, seed=3, rng="counter",
                      guesses=guesses, backend="compiled", faults=plan)
        assert last_stepping() == "batch"  # kernel certified for faults
        assert_results_equal(base, batched, context="batch")

    @pytest.mark.skipif(numpy_or_none() is None, reason="needs numpy")
    def test_scalar_and_vector_views_agree(self, small_gnp):
        """CompiledFaults.decide ≡ the BatchFaults per-slot masks."""
        from repro.local.batch import batch_graph_of
        from repro.local.faults import DELIVER, DROP as F_DROP

        plan = mixed_plan(small_gnp)
        compiled = plan.compile(small_gnp.nodes, small_gnp.ident, 5, 0)
        cg = small_gnp.compiled()
        bg = batch_graph_of(cg)
        view = compiled.batch_view(bg)
        for rnd in range(6):
            delivered = view.delivered_out(rnd)
            tainted = view.tainted_in(rnd)
            for slot in range(len(bg.owner)):
                o, nb = int(bg.owner[slot]), int(bg.neigh[slot])
                out_fate = compiled.decide(
                    bg.labels[o], bg.idents[o], bg.idents[nb], rnd
                )
                silenced_o = compiled.silenced(bg.labels[o], rnd)
                assert delivered[slot] == (
                    out_fate != F_DROP and not silenced_o
                ), (slot, rnd, "out")
                in_fate = compiled.decide(
                    bg.labels[nb], bg.idents[nb], bg.idents[o], rnd
                )
                silenced_n = compiled.silenced(bg.labels[nb], rnd)
                assert tainted[slot] == (
                    in_fate != DELIVER or silenced_n
                ), (slot, rnd, "in")

    def test_injected_run_is_reproducible(self, small_gnp):
        plan = mixed_plan(small_gnp)
        first = run(small_gnp, luby_mis(), seed=9, rng="counter", faults=plan)
        again = run(small_gnp, luby_mis(), seed=9, rng="counter", faults=plan)
        assert_results_equal(first, again)


class _Echo(NodeProcess):
    """Round-1 inbox recorder: output is the multiset of payloads."""

    __slots__ = ()

    def start(self):
        if self.ctx.degree == 0:
            self.finish(())
            return None
        return Broadcast(("msg", self.ctx.ident))

    def receive(self, inbox):
        self.finish(tuple(sorted(inbox.values(), key=repr)))
        return None


def _echo_algorithm():
    return LocalAlgorithm(name="echo", process=_Echo)


class TestFaultSemantics:
    def test_crash_output_and_round(self, small_gnp):
        nodes = sorted(small_gnp.nodes)
        plan = FaultPlan({
            nodes[0]: crash_at(0, output="dead-0"),
            nodes[2]: crash_at(1, output="dead-1"),
        })
        for backend in ("reference", "compiled"):
            got = run(small_gnp, luby_mis(), seed=2, rng="counter",
                      backend=backend, faults=plan)
            assert got.outputs[nodes[0]] == "dead-0"
            assert got.finish_round[nodes[0]] == 0
            assert got.outputs[nodes[2]] == "dead-1"
            assert got.finish_round[nodes[2]] == 1

    def test_garbled_arrives_as_sentinel(self, small_gnp):
        victim = max(small_gnp.nodes, key=small_gnp.degree)
        plan = FaultPlan({victim: garble(1.0)})
        got = run(small_gnp, _echo_algorithm(), seed=1, faults=plan)
        neighbour = small_gnp.adj[victim][0][1]
        assert GARBLED in got.outputs[neighbour]
        # Tag-checked protocols must survive the sentinel: it is a
        # tuple whose first element matches no protocol tag.
        assert GARBLED[0] not in ("msg", "bid", "win")

    def test_message_accounting(self, small_gnp):
        victim = max(small_gnp.nodes, key=small_gnp.degree)
        honest_run = run(small_gnp, _echo_algorithm(), seed=1)
        dropped = run(small_gnp, _echo_algorithm(), seed=1,
                      faults=FaultPlan({victim: drop(1.0)}))
        garbled = run(small_gnp, _echo_algorithm(), seed=1,
                      faults=FaultPlan({victim: garble(1.0)}))
        silent = run(small_gnp, _echo_algorithm(), seed=1,
                     faults=FaultPlan({victim: byzantine_silent()}))
        degree = small_gnp.degree(victim)
        # Dropped and silenced sends are uncounted; garbled ones travel.
        assert dropped.messages == honest_run.messages - degree
        assert silent.messages == honest_run.messages - degree
        assert garbled.messages == honest_run.messages

    def test_uncertified_kernel_falls_back_per_node(self, small_gnp):
        guesses = {"m": small_gnp.max_ident, "Delta": small_gnp.max_degree}
        plan = mixed_plan(small_gnp)
        run(small_gnp, fast_mis(), seed=4, rng="counter", guesses=guesses)
        assert last_stepping() == "rf"  # honest runs keep the fused kernel
        base = run(small_gnp, fast_mis(), seed=4, rng="counter",
                   guesses=guesses, backend="reference", faults=plan)
        compiled = run(small_gnp, fast_mis(), seed=4, rng="counter",
                       guesses=guesses, faults=plan)
        assert last_stepping() == "per-node"
        assert_results_equal(base, compiled, context="fallback")

    def test_ambient_plan_and_diagnostics(self, small_gnp):
        plan = mixed_plan(small_gnp)
        explicit = run(small_gnp, luby_mis(), seed=6, rng="counter",
                       faults=plan)
        assert last_faults() is not None and "crash" in last_faults()
        with use_faults(plan):
            ambient = run(small_gnp, luby_mis(), seed=6, rng="counter")
        assert_results_equal(explicit, ambient, context="ambient")
        honest_again = run(small_gnp, luby_mis(), seed=6, rng="counter")
        assert last_faults() is None
        baseline = run(small_gnp, luby_mis(), seed=6, rng="counter")
        assert_results_equal(honest_again, baseline)

    def test_absent_and_empty_plans_inject_nothing(self, small_gnp):
        baseline = run(small_gnp, luby_mis(), seed=8, rng="counter")
        empty = run(small_gnp, luby_mis(), seed=8, rng="counter",
                    faults=FaultPlan({}))
        assert_results_equal(baseline, empty, context="empty")
        absent = run(small_gnp, luby_mis(), seed=8, rng="counter",
                     faults=FaultPlan({"no-such-node": crash_at(0)}))
        assert_results_equal(baseline, absent, context="absent")
        assert last_faults() is None

    def test_sample_plan_is_deterministic(self, small_gnp):
        first = sample_plan(small_gnp, drop(0.5), 0.3, seed=7)
        again = sample_plan(small_gnp, drop(0.5), 0.3, seed=7)
        assert sorted(first.profiles) == sorted(again.profiles)
        assert 0 < len(first) < len(small_gnp.nodes)
        other = sample_plan(small_gnp, drop(0.5), 0.3, seed=8)
        assert sorted(first.profiles) != sorted(other.profiles)
        assert len(sample_plan(small_gnp, drop(0.5), 0.0, seed=7)) == 0


# ---------------------------------------------------------------------------
# eager validation
# ---------------------------------------------------------------------------

class TestEagerValidation:
    @pytest.mark.parametrize("bad", (-0.1, 1.0000001, float("nan")))
    def test_probabilities_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match="probability"):
            drop(bad)
        with pytest.raises(ValueError, match="probability"):
            garble(bad)

    def test_negative_crash_round_rejected(self):
        with pytest.raises(ValueError, match="crash round"):
            crash_at(-1)

    def test_parameter_errors_are_value_errors(self):
        with pytest.raises(ParameterError):
            drop(2.0)
        assert issubclass(ParameterError, ValueError)

    def test_unknown_labels_rejected_when_nodes_given(self, small_gnp):
        with pytest.raises(ValueError, match="unknown node label"):
            FaultPlan(
                {"no-such-node": crash_at(0)}, nodes=small_gnp.nodes
            )
        # Known labels validate cleanly...
        some = sorted(small_gnp.nodes)[0]
        plan = FaultPlan({some: crash_at(0)}, nodes=small_gnp.nodes)
        assert len(plan) == 1
        # ...and without ``nodes`` unknown labels stay inert (the
        # documented plan-vs-graph independence).
        inert = FaultPlan({"no-such-node": crash_at(0)})
        assert len(inert) == 1

    def test_sample_plan_fraction_validated(self, small_gnp):
        with pytest.raises(ValueError, match="probability"):
            sample_plan(small_gnp, drop(0.5), 1.5, seed=1)


class TestNonTerminationDiagnostics:
    def test_unsharded_message_unchanged(self, small_gnp):
        with pytest.raises(NonTerminationError) as excinfo:
            run(small_gnp, luby_mis(), seed=2, rng="counter", max_rounds=1)
        message = str(excinfo.value)
        assert message.endswith("node(s) unfinished")
        assert "shard" not in message
