"""Round-fused phase/fixed-point drivers (DESIGN.md D17).

Bit-identity of the fused drivers against the per-round batch loop and
the reference stack for every roundfuse-certified kernel — full,
restricted and virtual domains, under the counter scheme the compiled
tiers draw (D29) — plus the exact
fallback ladder (kill-switch, uncertified algorithm, ``track_bits``,
cap shorter than the schedule).
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms import TABLE1, capability_table
from repro.algorithms.arboricity import h_partition
from repro.algorithms.fast_coloring import fast_coloring
from repro.algorithms.fast_mis import fast_mis
from repro.algorithms.hash_luby import hash_luby_mis
from repro.algorithms.luby import luby_mc, luby_mis
from repro.algorithms.ruling_sets import bitwise_ruling_set, sw_ruling_set
from repro.core.alternating import render_trace
from repro.core.domain import PhysicalDomain, VirtualDomain
from repro.core.pruning import MatchingPruning, RulingSetPruning
from repro.errors import NonTerminationError
from repro.graphs import line_graph_spec
from repro.local import (
    run,
    run_restricted,
    use_backend,
    use_batch,
    use_roundfuse,
)
from repro.local import batch as batch_module
from repro.local import roundfuse
from repro.local.algorithm import capabilities_of
from repro.local.batch import batch_graph_of
from repro.local.runner import last_stepping

numpy = pytest.importorskip("numpy")


@pytest.fixture(autouse=True)
def batching_on():
    """Every test here diffs the batched tiers: pin batching on (the
    suite stays green under ``REPRO_BATCH=0`` too)."""
    with use_batch(True):
        yield

#: The compiled tiers draw the counter scheme only (DESIGN.md D29).
RNGS = ("counter",)

RESULT_FIELDS = (
    "outputs",
    "finish_round",
    "rounds",
    "messages",
    "truncated",
    "max_message_bits",
)


def assert_results_equal(a, b, context=""):
    for field in RESULT_FIELDS:
        assert getattr(a, field) == getattr(b, field), (field, context)


def certified_algorithms(graph):
    """Every roundfuse-certified kernel, with good and garbage guesses."""
    good = {"m": graph.max_ident, "Delta": graph.max_degree}
    return [
        ("luby-mis", luby_mis(), None),
        ("luby-mc", luby_mc(), {"n": graph.n}),
        ("hash-luby", hash_luby_mis(), {"n": graph.n}),
        ("fast-coloring", fast_coloring(), good),
        ("fast-mis", fast_mis(), good),
        ("fast-mis-bad-guess", fast_mis(), {"m": 12, "Delta": 3}),
        ("bitwise-ruling", bitwise_ruling_set(), {"m": graph.max_ident}),
        ("bitwise-ruling-bad-guess", bitwise_ruling_set(), {"m": 5}),
        ("sw-ruling-c2", sw_ruling_set(2), {"n": graph.n}),
        ("h-partition", h_partition(), {"a": 2, "n": graph.n}),
        ("h-partition-overshoot", h_partition(), {"a": 2, "n": graph.n**4}),
    ]


def run_three_ways(graph, algorithm, rng, **kwargs):
    """(reference, per-round batch, round-fused) with stepping checks."""
    ref = run(graph, algorithm, backend="reference", rng=rng, **kwargs)
    with use_roundfuse(False):
        batched = run(graph, algorithm, backend="compiled", rng=rng, **kwargs)
        assert last_stepping() == "batch"
    with use_roundfuse(True):
        fused = run(graph, algorithm, backend="compiled", rng=rng, **kwargs)
        assert last_stepping() == "rf"
    return ref, batched, fused


class TestFusedBitIdentity:
    """fused ≡ batch ≡ reference for every certified kernel (D17)."""

    @pytest.mark.parametrize("rng", RNGS)
    def test_full_runs(self, small_gnp, rng):
        for label, algorithm, guesses in certified_algorithms(small_gnp):
            ref, batched, fused = run_three_ways(
                small_gnp, algorithm, rng, seed=11, guesses=guesses
            )
            assert_results_equal(ref, batched, context=(rng, label, "bat"))
            assert_results_equal(ref, fused, context=(rng, label, "rf"))

    @pytest.mark.parametrize("rounds", (1, 2, 7, 40))
    def test_truncated_runs(self, small_gnp, rounds):
        """Restriction parity — including caps shorter than a schedule
        (where the phase driver declines) and fixed-point truncation."""
        for label, algorithm, guesses in certified_algorithms(small_gnp):
            with use_roundfuse(False):
                batched = run_restricted(
                    small_gnp, algorithm, rounds, default_output="cut",
                    guesses=guesses, backend="compiled", rng="counter",
                )
            fused = run_restricted(
                small_gnp, algorithm, rounds, default_output="cut",
                guesses=guesses, backend="compiled", rng="counter",
            )
            assert_results_equal(batched, fused, context=(rounds, label))

    @pytest.mark.parametrize("rng", RNGS)
    def test_virtual_runs(self, small_gnp, rng):
        """Fused drives through the virtual (line-graph) batch driver."""
        spec = line_graph_spec(small_gnp)
        guesses = {
            "m": (small_gnp.max_ident + 2) ** 2,
            "Delta": max(1, 2 * small_gnp.max_degree - 2),
        }
        jobs = (
            (fast_mis(), guesses, 400),
            (h_partition(), {"a": 2, "n": small_gnp.n**2}, 60),
        )
        for algorithm, g, budget in jobs:
            outs = {}
            for key, fused_on in (("batch", False), ("rf", True)):
                with use_backend("compiled", rng=rng), use_batch(True), \
                        use_roundfuse(fused_on):
                    domain = VirtualDomain(small_gnp, spec)
                    outs[key] = domain.run_restricted(
                        algorithm, budget, inputs=None, guesses=g,
                        seed=7, salt="rf", default_output=0,
                    )
            assert outs["batch"] == outs["rf"], (rng, algorithm.name)

    @pytest.mark.parametrize("beta", (1, 3))
    def test_pruner_application(self, small_gnp, beta):
        """Pruner kernels (fixed lockstep schedules) through apply()."""
        rng = random.Random(beta)
        tentative = {u: rng.choice([0, 1]) for u in small_gnp.nodes}
        results = {}
        for key, fused_on in (("batch", False), ("rf", True)):
            with use_backend("compiled", rng="counter"), use_batch(True), \
                    use_roundfuse(fused_on):
                results[key] = RulingSetPruning(beta).apply(
                    PhysicalDomain(small_gnp), {}, dict(tentative)
                )
        assert results["batch"].pruned == results["rf"].pruned
        assert results["batch"].new_inputs == results["rf"].new_inputs
        assert results["batch"].rounds == results["rf"].rounds

    def test_nontermination_parity(self, small_gnp):
        """Without truncation both paths raise the same divergence."""
        for fused_on in (False, True):
            with use_roundfuse(fused_on):
                with pytest.raises(NonTerminationError) as err:
                    run(
                        small_gnp, luby_mis(), seed=11, rng="counter",
                        backend="compiled", max_rounds=1,
                    )
                assert err.value.rounds == 1

    def test_whole_alternation(self, small_gnp):
        """Theorem-2 pipeline: fused ≡ per-round, steps tagged rf."""
        outcomes = {}
        for key, fused_on in (("batch", False), ("rf", True)):
            with use_backend("compiled", rng="counter"), use_batch(True), \
                    use_roundfuse(fused_on):
                _, _, uniform = TABLE1["luby"].build()
                outcomes[key] = uniform.run(small_gnp, seed=13)
        fused = outcomes["rf"]
        assert fused.outputs == outcomes["batch"].outputs
        assert fused.rounds == outcomes["batch"].rounds
        assert all(step.backends == ("rf", "rf") for step in fused.steps)
        assert all(
            step.backends == ("batch", "batch")
            for step in outcomes["batch"].steps
        )
        assert "via rf/rf" in render_trace(fused)
        assert "via batch/batch" in render_trace(outcomes["batch"])


class TestFallbackLadder:
    """Every ineligible configuration degrades per-round, bit-identical."""

    def test_kill_switch(self, small_gnp):
        with use_roundfuse(False):
            off = run(small_gnp, luby_mis(), seed=3, rng="counter",
                      backend="compiled")
            assert last_stepping() == "batch"
        with use_roundfuse(True):
            on = run(small_gnp, luby_mis(), seed=3, rng="counter",
                     backend="compiled")
            assert last_stepping() == "rf"
        assert_results_equal(off, on, context="kill-switch")

    def test_uncertified_algorithm(self, small_gnp):
        """A batch kernel without the capability stays per-round."""
        algo = luby_mis()
        algo.roundfuse = False
        assert capabilities_of(algo)["supports_roundfuse"] is False
        plain = run(small_gnp, algo, seed=3, rng="counter", backend="compiled")
        assert last_stepping() == "batch"
        fused = run(small_gnp, luby_mis(), seed=3, rng="counter",
                    backend="compiled")
        assert_results_equal(plain, fused, context="uncertified")

    def test_track_bits_degrades(self, small_gnp):
        """Message-size tracking keeps the per-node path (no kernel)."""
        tracked = run(small_gnp, luby_mis(), seed=3, rng="counter",
                      backend="compiled", track_bits=True)
        assert last_stepping() == "per-node"
        assert tracked.max_message_bits is not None
        fused = run(small_gnp, luby_mis(), seed=3, rng="counter",
                    backend="compiled")
        assert tracked.outputs == fused.outputs
        assert tracked.rounds == fused.rounds
        assert tracked.messages == fused.messages

    def test_drive_declines_stepped_kernel(self, small_gnp):
        """Only fresh kernels fuse — a replayed round 0 would corrupt."""
        bg = batch_graph_of(small_gnp.compiled())
        from repro.algorithms.ruling_sets import BitwiseRulingKernel

        kernel = BitwiseRulingKernel(bg, 6)
        assert roundfuse.drive_kernel(kernel, 3) is None  # cap < schedule
        kernel.start()
        kernel.step()
        assert roundfuse.drive_kernel(kernel, 100) is None  # already moving
        done = BitwiseRulingKernel(bg, 6)
        done.start()
        done.run_phases()
        assert roundfuse.drive_kernel(done, 100) is None  # already done


class TestCapabilityPublication:
    """supports_roundfuse travels on the capability records."""

    def test_capability_table_rows(self):
        table = capability_table()
        for row_id, caps in table.items():
            assert "supports_roundfuse" in caps, row_id
            assert "supports_roundfuse" in caps["pruning"], row_id
            # Certification implies a batch kernel to fuse.
            if caps["supports_roundfuse"]:
                assert caps["supports_batch"], row_id
        assert table["luby"]["supports_roundfuse"] is True
        assert table["luby"]["pruning"]["supports_roundfuse"] is True
        # Host orchestrations never fuse at top level.
        assert table["matching"]["supports_roundfuse"] is False

    def test_certified_algorithms_advertise(self, small_gnp):
        for label, algorithm, _ in certified_algorithms(small_gnp):
            assert capabilities_of(algorithm)["supports_roundfuse"], label
        assert capabilities_of(MatchingPruning())["supports_roundfuse"]

    def test_flag_requires_batch_kernel(self):
        from repro.local import Broadcast, LocalAlgorithm, NodeProcess

        class Echo(NodeProcess):
            def start(self):
                self.finish(1)
                return Broadcast(None)

        algo = LocalAlgorithm(name="echo", process=Echo, roundfuse=True)
        assert capabilities_of(algo)["supports_roundfuse"] is False


class TestLockstepKernelCache:
    """The cached undone-indices satellite."""

    def test_undone_indices_cached(self, small_gnp):
        bg = batch_graph_of(small_gnp.compiled())
        kernel = batch_module.LockstepKernel(bg, schedule=3)
        first = kernel.undone_indices()
        assert first == list(range(bg.n))
        assert kernel.undone_indices() is first

    def test_mis_sweep_stays_dynamic(self, small_gnp):
        """MIS sweep-mode undone sets shrink per round — never cached."""
        from repro.algorithms.fast_mis import MISBatchKernel

        with use_roundfuse(False):
            truncated = run_restricted(
                small_gnp, fast_mis(), 3, default_output=0,
                guesses={"m": small_gnp.max_ident,
                         "Delta": small_gnp.max_degree},
                backend="compiled", rng="counter",
            )
        fused = run_restricted(
            small_gnp, fast_mis(), 3, default_output=0,
            guesses={"m": small_gnp.max_ident,
                     "Delta": small_gnp.max_degree},
            backend="compiled", rng="counter",
        )
        assert truncated.truncated == fused.truncated
        assert MISBatchKernel.undone_indices is not None
