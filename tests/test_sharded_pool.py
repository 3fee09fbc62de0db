"""Persistent worker pool + shared-memory halo plane (DESIGN.md D13).

Lifecycle edge cases of the ``mp-pooled`` shard channel: failure
propagation and pool poisoning, nested-scope worker accounting, warm
reuse across alternation runs, the shm-overflow and unpicklable-state
fallbacks.  Bit-identity of the pooled channel across the full backend
matrix lives with the rest of the contract in
``tests/test_engine_equivalence.py``.
"""

from __future__ import annotations

import os

import pytest

from repro.algorithms import TABLE1
from repro.algorithms.fast_mis import fast_mis
from repro.algorithms.luby import luby_mis
from repro.local import run, use_backend
from repro.local import sharded
from repro.local.algorithm import LocalAlgorithm, NodeProcess
from repro.local.sharded import fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="multiprocessing fork unavailable"
)

RESULT_FIELDS = ("outputs", "finish_round", "rounds", "messages", "truncated")


def assert_results_equal(a, b, context=""):
    for field in RESULT_FIELDS:
        assert getattr(a, field) == getattr(b, field), (field, context)


class _IdleProcess(NodeProcess):
    """Never used: the failing algorithms below always take the batch path."""

    def receive(self, inbox):  # pragma: no cover - batch path only
        raise AssertionError("per-node path must not run")


class _FailingKernel:
    """Minimal D10 kernel that fails mid-run, worker-side only.

    The ``exit`` action hard-kills the hosting process *only when it is
    a forked worker* (pid differs from the building session): the
    resilience ladder (D14) retries and finally degrades to the inline
    channel, where the kernel must run to completion in the parent.
    """

    def __init__(self, bg, action, parent_pid):
        self.bg = bg
        self.action = action
        self.parent_pid = parent_pid
        self.round = 0
        self.done = False

    def undone_indices(self):
        return [] if self.done else list(range(self.bg.n))

    def start(self):
        return [], [], 0

    def step(self):
        self.round += 1
        if self.round >= 2:
            if self.action == "raise":
                raise RuntimeError("boom in shard worker")
            if os.getpid() != self.parent_pid:
                os._exit(13)  # worker crash: no exception report, just EOF
            # Inline rung of the resilience ladder: finish cleanly.
            self.done = True
            n = self.bg.n
            return list(range(n)), [0] * n, 0
        return [], [], 0


def _failing_algorithm(action):
    parent_pid = os.getpid()
    return LocalAlgorithm(
        name=f"failing-{action}",
        process=_IdleProcess,
        batch=lambda bg, setup: _FailingKernel(bg, action, parent_pid),
        shard=True,
    )


@pytest.fixture
def pool_graph(small_gnp):
    return small_gnp


class TestPoolLifecycle:
    def test_worker_exception_propagates_and_pool_survives(self, pool_graph):
        """A worker-side failure raises the *original* exception, and
        the pool survives it (D15): every worker reported the round, so
        the bug is the shard's, not the pool's — the next pooled run
        reuses the same warm workers."""
        with use_backend(
            "sharded", rng="counter", shards=2, shard_channel="mp-pooled"
        ):
            warm = run(pool_graph, luby_mis(), seed=3)
            pool = sharded._POOL
            assert pool is not None
            old_pids = pool.worker_pids()
            with pytest.raises(RuntimeError, match="boom in shard worker"):
                run(pool_graph, _failing_algorithm("raise"), seed=3)
            # The pool outlives the isolated shard bug, workers intact.
            assert sharded._POOL is pool
            assert not pool.broken
            assert pool.worker_pids() == old_pids
            # And the next run over it is bit-identical.
            again = run(pool_graph, luby_mis(), seed=3)
            assert pool.worker_pids() == old_pids
            assert_results_equal(warm, again)

    def test_worker_death_retries_then_degrades_inline(self, pool_graph):
        """Workers that die on *every* host process exhaust the retry
        budget (each respawned twin dies too), the rebuilt pool dies
        the same way, and the channel finishes inline from the last
        round checkpoint — the run completes instead of raising."""
        from repro.local.runner import last_stepping

        with use_backend(
            "sharded", rng="counter", shards=2, shard_channel="mp-pooled"
        ):
            run(pool_graph, luby_mis(), seed=3)
            pool = sharded._POOL
            result = run(pool_graph, _failing_algorithm("exit"), seed=3)
            # Completed on the inline rung with every node finished.
            assert result.rounds == 2
            assert set(result.outputs) == set(pool_graph.nodes)
            assert set(result.outputs.values()) == {0}
            assert last_stepping() == "shard-batch"
            # The dying attempts poisoned their pools on the way down.
            assert pool.broken and sharded._POOL is not pool
            run(pool_graph, luby_mis(), seed=3)  # scope recovered

    def test_worker_killed_between_runs_respawns_transparently(
        self, pool_graph
    ):
        """A worker dying while idle (external kill) is detected at the
        next lease: the pool respawns instead of dispatching to it."""
        with use_backend(
            "sharded", rng="counter", shards=2, shard_channel="mp-pooled"
        ):
            first = run(pool_graph, luby_mis(), seed=3)
            pool = sharded._POOL
            victim = pool.workers[0][0]
            victim.kill()
            victim.join(timeout=5)
            again = run(pool_graph, luby_mis(), seed=3)
            assert_results_equal(first, again, context="respawn")
            assert sharded._POOL is pool  # same pool object, new workers
            assert victim.pid not in pool.worker_pids()

    def test_nested_scopes_share_one_pool_and_do_not_leak(self, pool_graph):
        kwargs = dict(rng="counter", shards=2, shard_channel="mp-pooled")
        with use_backend("sharded", **kwargs):
            run(pool_graph, luby_mis(), seed=1)
            outer_pool = sharded._POOL
            outer_pids = outer_pool.worker_pids()
            with use_backend("sharded", **kwargs):
                run(pool_graph, luby_mis(), seed=2)
                assert sharded._POOL is outer_pool
                assert outer_pool.worker_pids() == outer_pids
            # Inner exit must not tear the shared pool down.
            assert sharded._POOL is outer_pool
            procs = [proc for proc, _ in outer_pool.workers]
            assert all(proc.is_alive() for proc in procs)
        # Outermost exit joins every worker.
        assert sharded._POOL is None
        assert not any(proc.is_alive() for proc in procs)
        assert sharded._POOL_SCOPES == 0

    def test_ephemeral_run_leaves_no_pool(self, pool_graph):
        base = run(pool_graph, luby_mis(), seed=5, rng="counter")
        pooled = run(
            pool_graph, luby_mis(), seed=5, rng="counter",
            shards=2, shard_channel="mp-pooled",
        )
        assert_results_equal(base, pooled)
        assert sharded._POOL is None and sharded._POOL_SCOPES == 0

    def test_pool_reuse_across_alternation_runs_is_bit_identical(
        self, pool_graph
    ):
        """≥3 whole alternations on one warm pool ≡ fresh-pool runs."""
        seeds = (1, 2, 3)
        with use_backend("compiled", rng="counter"):
            _, _, uniform = TABLE1["luby"].build()
            single = [uniform.run(pool_graph, seed=seed) for seed in seeds]
        fresh = []
        for seed in seeds:  # one pool per run
            with use_backend(
                "sharded", rng="counter", shards=2,
                shard_channel="mp-pooled",
            ):
                _, _, uniform = TABLE1["luby"].build()
                fresh.append(uniform.run(pool_graph, seed=seed))
        with use_backend(
            "sharded", rng="counter", shards=2, shard_channel="mp-pooled"
        ):
            _, _, uniform = TABLE1["luby"].build()
            warm = [uniform.run(pool_graph, seed=seed) for seed in seeds]
            pool = sharded._POOL
            assert pool is not None and not pool.broken
            pids = pool.worker_pids()
        for base, a, b in zip(single, fresh, warm):
            assert base.outputs == a.outputs == b.outputs
            assert base.rounds == a.rounds == b.rounds
            assert len(a.steps) == len(b.steps)
        assert len(pids) == 2  # one worker per shard, reused throughout

    def test_scope_without_pooled_run_spawns_nothing(self, pool_graph):
        with use_backend("sharded", rng="counter", shards=2):
            run(pool_graph, luby_mis(), seed=1)  # inline channel
            assert sharded._POOL is None
        assert sharded._POOL_SCOPES == 0


class TestHaloPlaneFallbacks:
    def test_shm_overflow_falls_back_to_pipes(self, pool_graph, monkeypatch):
        """Regions too small for the state payload pipe their halos —
        sizing is a throughput knob, never a correctness one."""
        base = run(pool_graph, luby_mis(), seed=7, rng="counter")
        monkeypatch.setattr(sharded, "_HALO_BYTES_PER_NODE", 0)
        monkeypatch.setattr(sharded, "_HALO_HEADER_BYTES", 8)
        pooled = run(
            pool_graph, luby_mis(), seed=7, rng="counter",
            shards=3, shard_channel="mp-pooled",
        )
        assert_results_equal(base, pooled, context="shm overflow")

    def test_unpicklable_state_degrades_to_inline(
        self, pool_graph, monkeypatch
    ):
        """Closure-carrying node processes cannot ship to the pool; the
        run degrades to the inline channel with a ResilienceWarning and
        stays bit-identical to the compiled engine."""
        from repro.errors import ResilienceWarning
        from repro.local.algorithm import zero_round_algorithm

        inline = []
        original = sharded.InlineChannel.__init__

        def spy(self, shards):
            inline.append(len(shards))
            original(self, shards)

        monkeypatch.setattr(sharded.InlineChannel, "__init__", spy)
        algo = zero_round_algorithm("ident-mod", lambda ctx: ctx.ident % 7)
        base = run(pool_graph, algo, seed=1, rng="counter")
        with pytest.warns(ResilienceWarning, match="does not pickle"):
            pooled = run(
                pool_graph, algo, seed=1, rng="counter",
                shards=2, shard_channel="mp-pooled",
            )
        assert_results_equal(base, pooled, context="unpicklable")
        assert inline == [2]
        assert sharded._POOL is None

    def test_numpy_free_pooled_falls_back_inline(self, pool_graph, monkeypatch):
        from repro.local import batch as batch_module

        base = run(pool_graph, luby_mis(), seed=9, rng="counter")
        monkeypatch.setattr(batch_module, "_np", None)
        pooled = run(
            pool_graph, luby_mis(), seed=9, rng="counter",
            shards=3, shard_channel="mp-pooled",
        )
        assert_results_equal(base, pooled, context="numpy-free")


class TestPooledShardCertifiedKernels:
    """The D13-certified coloring/MIS kernels through the pooled channel."""

    @pytest.mark.parametrize("k", (2, 7))
    def test_fast_mis_pooled(self, pool_graph, k):
        guesses = {"m": pool_graph.max_ident, "Delta": pool_graph.max_degree}
        from repro.local.runner import last_stepping

        base = run(pool_graph, fast_mis(), seed=11, rng="counter",
                   guesses=guesses)
        pooled = run(
            pool_graph, fast_mis(), seed=11, rng="counter", guesses=guesses,
            shards=k, shard_channel="mp-pooled",
        )
        assert_results_equal(base, pooled, context=k)
        assert last_stepping() == "shard-batch"

    def test_big_identity_space_declines_to_per_node(self, monkeypatch):
        """Colors beyond int64 cannot ride the halo sync plane: the
        factory declines under sharding and the run shards per node."""
        import networkx as nx

        from repro.local import SimGraph
        from repro.local.runner import last_stepping

        graph = nx.path_graph(6)
        idents = {i: (1 << 70) + 2 * i + 1 for i in graph.nodes}
        sim = SimGraph.from_networkx(graph, idents=idents)
        guesses = {"m": max(idents.values()), "Delta": 2}
        base = run(sim, fast_mis(), seed=3, rng="counter", guesses=guesses)
        stepping_base = last_stepping()
        pooled = run(
            sim, fast_mis(), seed=3, rng="counter", guesses=guesses,
            shards=2, shard_channel="mp-pooled",
        )
        assert_results_equal(base, pooled, context="big idents")
        assert stepping_base == "rf"  # unsharded fused kernel still eligible
        assert last_stepping() == "shard-per-node"
