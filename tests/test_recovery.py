"""Round-level checkpoints + self-healing shard recovery (DESIGN.md D15).

Contract under test: a worker SIGKILLed (or hung) at round r of a
sharded run is respawned *alone*, restored from the round-(r-1)
checkpoint, and re-runs only the failed round — the recovered run is
bit-identical to a never-failed one on every channel and shard count
(the D9 purity argument), under a bounded retry budget, with every
degradation step surfaced as a :class:`ResilienceWarning` and recorded
in the diagnostics channel (``last_recovery`` / ``StepRecord.backends``).
Plus the checkpoint journal: atomic spill, corrupt-file rejection, and
inline resumption of a half-finished run.
"""

from __future__ import annotations

import os
import time

import networkx as nx
import pytest

from repro.algorithms.luby import luby_mis
from repro.core import AlternatingEngine, mis_pruning
from repro.errors import (
    CheckpointCorruptError,
    ParameterError,
    ResilienceWarning,
)
from repro.local import (
    Broadcast,
    FaultPlan,
    GraphDelta,
    LocalAlgorithm,
    NodeProcess,
    SimGraph,
    crash_at,
    drop,
    garble,
    open_session,
    run,
    sample_plan,
)
from repro.local import recovery, sharded
from repro.local.batch import numpy_or_none
from repro.local.recovery import (
    CheckpointJournal,
    RoundCheckpoint,
    resume_from_journal,
)
from repro.local.runner import last_recovery, note_recovery, note_stepping
from repro.local.sharded import fork_available

RESULT_FIELDS = ("outputs", "finish_round", "rounds", "messages", "truncated")

#: The parent (test-session) pid; forked shard workers differ.
PARENT_PID = os.getpid()

#: Env var carrying the per-test "already failed once" flag-file path.
#: Env is inherited across fork, and the file is on disk — so a
#: respawned twin of a kill-once worker sees the flag and survives.
KILL_FLAG = "REPRO_TEST_KILL_FLAG"


def assert_results_equal(a, b, context=""):
    for field in RESULT_FIELDS:
        assert getattr(a, field) == getattr(b, field), (field, context)


def _should_fail_once(round_no, at):
    flag = os.environ.get(KILL_FLAG)
    if not flag or round_no != at or os.getpid() == PARENT_PID:
        return False
    try:
        # O_EXCL claims the flag atomically: when several workers reach
        # the failure round concurrently, exactly one of them fails.
        fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


class _KillOnceWorker(NodeProcess):
    """Node 0's hosting worker dies once at round 2; the respawned twin
    completes.  Output folds the inbox, so a recovery that replayed the
    wrong round or lost a delivery diverges from the reference run."""

    __slots__ = ("r", "acc")

    def __init__(self, ctx):
        super().__init__(ctx)
        self.r = 0
        self.acc = 0

    def start(self):
        return Broadcast((0, self.ctx.ident % 97))

    def receive(self, inbox):
        self.r += 1
        self.acc += self.r * sum(v[1] for v in inbox.values())
        if self.ctx.node == 0 and _should_fail_once(self.r, at=2):
            os._exit(9)
        if self.r >= 4:
            self.finish((self.r, self.acc))
            return None
        return Broadcast((0, (self.acc + self.r) % 97))


class _KillAtStartWorker(_KillOnceWorker):
    """Node 0's worker dies during round 0 (before anything committed):
    recovery restores from the pre-round-0 checkpoint."""

    __slots__ = ()

    def start(self):
        if self.ctx.node == 0 and _should_fail_once(0, at=0):
            os._exit(9)
        return Broadcast((0, self.ctx.ident % 97))


class _HangOnceWorker(_KillOnceWorker):
    """Node 0's worker hangs once at round 2; the watchdog times it
    out, and the respawned twin completes."""

    __slots__ = ()

    def receive(self, inbox):
        self.r += 1
        self.acc += self.r * sum(v[1] for v in inbox.values())
        if self.ctx.node == 0 and _should_fail_once(self.r, at=2):
            time.sleep(60)
        if self.r >= 4:
            self.finish((self.r, self.acc))
            return None
        return Broadcast((0, (self.acc + self.r) % 97))


class _KillAlwaysWorker(_KillOnceWorker):
    """Node 0 kills every hosting worker — respawned twins included —
    so the retry budget must run out and the run must finish inline."""

    __slots__ = ()

    def receive(self, inbox):
        self.r += 1
        self.acc += self.r * sum(v[1] for v in inbox.values())
        if self.r == 2 and self.ctx.node == 0 and os.getpid() != PARENT_PID:
            os._exit(9)
        if self.r >= 4:
            self.finish((self.r, self.acc))
            return None
        return Broadcast((0, (self.acc + self.r) % 97))


class _KillOnceKernel:
    """D10 batch kernel whose hosting worker dies once at round 2.

    ``acc`` folds the neighbours' previous values every round, so a
    checkpoint restore that corrupted ghost state (or re-aimed the halo
    ring at the wrong slot) produces divergent outputs.
    """

    __slots__ = ("bg", "round", "done", "acc")

    SHARD_SYNC = ("acc",)

    def __init__(self, bg):
        np = numpy_or_none()
        self.bg = bg
        self.round = 0
        self.done = False
        self.acc = np.arange(bg.n, dtype=np.int64) % 97

    def undone_indices(self):
        return [] if self.done else list(range(self.bg.n))

    def start(self):
        return [], [], 0

    def step(self):
        np = numpy_or_none()
        self.round += 1
        gathered = np.zeros(self.bg.n, dtype=np.int64)
        np.add.at(gathered, self.bg.owner, self.acc[self.bg.neigh])
        self.acc = (self.acc + gathered + self.round) % 100003
        if _should_fail_once(self.round, at=2):
            os._exit(9)
        if self.round >= 3:
            self.done = True
            n = self.bg.n
            return list(range(n)), [int(v) for v in self.acc], len(self.bg.owner)
        return [], [], len(self.bg.owner)


def _kill_once_batch_algorithm():
    return LocalAlgorithm(
        name="kill-once-batch",
        process=_KillOnceWorker,  # never used: batch path always taken
        batch=lambda bg, setup: _KillOnceKernel(bg),
        shard=True,
    )


needs_fork = pytest.mark.skipif(
    not fork_available(), reason="multiprocessing fork unavailable"
)


@needs_fork
class TestSurgicalRecovery:
    @pytest.fixture(autouse=True)
    def fail_once_setup(self, monkeypatch, tmp_path):
        monkeypatch.setattr(sharded, "SHARD_RETRY_BACKOFF", 0.01)
        self.flag = tmp_path / "failed-once.flag"
        monkeypatch.setenv(KILL_FLAG, str(self.flag))

    def assert_surgical(self, round_no):
        """The last run recovered by exactly one respawn — no rebuild,
        no inline escalation, no restart."""
        assert self.flag.exists(), "the fault never fired"
        trail = last_recovery()
        assert trail is not None
        assert trail.startswith(f"respawn@r{round_no}(s")
        assert trail.count("respawn") == 1
        assert "rebuild" not in trail and "inline" not in trail

    @pytest.mark.parametrize("channel", ("mp-pooled",))
    @pytest.mark.parametrize("k", (2, 3))
    def test_killed_worker_recovers_bit_identically(
        self, small_gnp, channel, k
    ):
        algo = LocalAlgorithm(name="kill-once", process=_KillOnceWorker)
        base = run(small_gnp, algo, seed=1, backend="reference")
        got = run(small_gnp, algo, seed=1, backend="sharded", shards=k,
                  shard_channel=channel)
        assert_results_equal(base, got, context=(channel, k))
        self.assert_surgical(round_no=2)

    @pytest.mark.skipif(numpy_or_none() is None, reason="needs numpy")
    @pytest.mark.parametrize("channel", ("mp-pooled",))
    @pytest.mark.parametrize("k", (2, 3))
    def test_killed_batch_worker_recovers_bit_identically(
        self, small_gnp, channel, k
    ):
        from repro.local.runner import last_stepping

        algo = _kill_once_batch_algorithm()
        base = run(small_gnp, algo, seed=1, backend="sharded", shards=k,
                   shard_channel="inline")
        assert not self.flag.exists()  # inline runs in the parent pid
        got = run(small_gnp, algo, seed=1, backend="sharded", shards=k,
                  shard_channel=channel)
        assert last_stepping() == "shard-batch"
        assert_results_equal(base, got, context=(channel, k))
        self.assert_surgical(round_no=2)

    @pytest.mark.parametrize("channel", ("mp-pooled",))
    def test_round0_failure_recovers_from_initial_state(
        self, small_gnp, channel
    ):
        algo = LocalAlgorithm(name="kill-start", process=_KillAtStartWorker)
        base = run(small_gnp, algo, seed=1, backend="reference")
        got = run(small_gnp, algo, seed=1, backend="sharded", shards=2,
                  shard_channel=channel)
        assert_results_equal(base, got, context=channel)
        self.assert_surgical(round_no=0)

    @pytest.mark.parametrize("channel", ("mp-pooled",))
    def test_recovery_composes_with_fault_plans(self, small_gnp, channel):
        plan = sample_plan(small_gnp, drop(0.5), 0.2, seed=7)
        algo = LocalAlgorithm(name="kill-once", process=_KillOnceWorker)
        base = run(small_gnp, algo, seed=1, backend="reference", faults=plan)
        got = run(small_gnp, algo, seed=1, backend="sharded", shards=2,
                  shard_channel=channel, faults=plan)
        assert_results_equal(base, got, context=channel)
        self.assert_surgical(round_no=2)

    @pytest.mark.parametrize("channel", ("mp-pooled",))
    def test_hung_worker_times_out_and_recovers(
        self, small_gnp, channel, monkeypatch
    ):
        monkeypatch.setattr(sharded, "SHARD_TIMEOUT", 0.5)
        algo = LocalAlgorithm(name="hang-once", process=_HangOnceWorker)
        base = run(small_gnp, algo, seed=1, backend="reference")
        started = time.monotonic()
        got = run(small_gnp, algo, seed=1, backend="sharded", shards=2,
                  shard_channel=channel)
        assert time.monotonic() - started < 30
        assert_results_equal(base, got, context=channel)
        self.assert_surgical(round_no=2)

    def test_pool_survives_a_surgical_recovery(self, small_gnp):
        from repro.local import use_backend

        algo = LocalAlgorithm(name="kill-once", process=_KillOnceWorker)
        base = run(small_gnp, algo, seed=1, backend="reference")
        with use_backend(
            "sharded", shards=2, shard_channel="mp-pooled"
        ):
            got = run(small_gnp, algo, seed=1)
            pool = sharded._POOL
            assert pool is not None and not pool.broken
            self.assert_surgical(round_no=2)
            # The healed pool serves the next (honest) run bit-identically.
            self.flag.unlink()
            os.environ.pop(KILL_FLAG, None)
            again = run(small_gnp, algo, seed=1)
        assert_results_equal(base, got, context="recovered")
        assert_results_equal(base, again, context="healed pool")

    def test_retry_budget_is_bounded_then_escalates(
        self, small_gnp, monkeypatch
    ):
        monkeypatch.setattr(recovery, "MAX_RETRIES", 1)
        algo = LocalAlgorithm(name="kill-always", process=_KillAlwaysWorker)
        base = run(small_gnp, algo, seed=1, backend="reference")
        got = run(small_gnp, algo, seed=1, backend="sharded", shards=2,
                  shard_channel="mp-pooled")
        assert_results_equal(base, got, context="exhausted")
        trail = last_recovery()
        # Exactly one respawn (the budget), then the inline escalation —
        # never a restart from round 0.
        assert trail.count("respawn") == 1
        assert "inline@r2" in trail and "restart" not in trail

    def test_checkpoints_off_restores_legacy_restart(
        self, small_gnp, monkeypatch
    ):
        monkeypatch.setattr(recovery, "CHECKPOINTS_ENABLED", False)
        algo = LocalAlgorithm(name="kill-always", process=_KillAlwaysWorker)
        base = run(small_gnp, algo, seed=1, backend="reference")
        got = run(small_gnp, algo, seed=1, backend="sharded", shards=2,
                  shard_channel="mp-pooled")
        assert_results_equal(base, got, context="legacy")
        assert last_recovery() == "restart-inline"

    def test_respawn_emits_resilience_warning(self, small_gnp):
        algo = LocalAlgorithm(name="kill-once", process=_KillOnceWorker)
        with pytest.warns(ResilienceWarning, match="respawning"):
            run(small_gnp, algo, seed=1, backend="sharded", shards=2,
                shard_channel="mp-pooled")

    def test_honest_run_leaves_no_trail(self, small_gnp):
        run(small_gnp, luby_mis(), seed=5, rng="counter",
            backend="sharded", shards=2, shard_channel="mp-pooled")
        assert last_recovery() is None


@needs_fork
class TestCheckpointJournal:
    def test_spill_resume_round_trip(self, small_gnp, monkeypatch, tmp_path):
        """Journal the round-1 checkpoint of a real run, then drive the
        rest of it inline from the spill — outputs, rounds and message
        counts must match the uninterrupted run exactly."""
        monkeypatch.setattr(recovery, "CHECKPOINT_DIR", str(tmp_path))
        orig_write = CheckpointJournal.write

        def keep_round_one(self, checkpoint):
            if checkpoint.round_no <= 1:
                orig_write(self, checkpoint)

        monkeypatch.setattr(CheckpointJournal, "write", keep_round_one)
        result = run(small_gnp, luby_mis(), seed=5, rng="counter",
                     backend="sharded", shards=2, shard_channel="mp-pooled")
        journal = CheckpointJournal(str(tmp_path))
        checkpoint = journal.load()
        assert checkpoint.round_no == 1
        assert checkpoint.complete
        assert checkpoint.ledger is not None

        monkeypatch.setattr(CheckpointJournal, "write", orig_write)
        resumed = resume_from_journal(journal)
        assert resumed["outputs"] == result.outputs
        assert resumed["finish_round"] == result.finish_round
        assert resumed["rounds"] == result.rounds
        assert resumed["messages"] == result.messages

    def test_writes_are_atomic(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path))
        journal.write(RoundCheckpoint(3, {0: b"blob"}, {}, {"x": 1}))
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []
        loaded = journal.load()
        assert loaded.round_no == 3 and loaded.blobs == {0: b"blob"}
        assert loaded.ledger == {"x": 1}

    def test_corrupt_journal_rejected(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path))
        journal.write(RoundCheckpoint(2, {0: b"blob"}, {}, None))
        path = journal.path
        # Bit-flip inside the payload: CRC must catch it.
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointCorruptError, match="CRC"):
            journal.load()
        # A torn/garbage file: the magic header must catch it.
        open(path, "wb").write(b"not a checkpoint")
        with pytest.raises(CheckpointCorruptError, match="header"):
            journal.load()
        # A missing file reads as corruption too, not a crash.
        os.unlink(path)
        with pytest.raises(CheckpointCorruptError, match="cannot read"):
            journal.load()

    def test_incomplete_checkpoint_refuses_restore(self):
        import pickle

        checkpoint = RoundCheckpoint(
            4, {0: pickle.dumps("shard-0"), 1: None}
        )
        assert not checkpoint.complete
        with pytest.raises(CheckpointCorruptError, match="shard 1"):
            checkpoint.restore_all()
        # A blob that does not unpickle reads as corruption, not a crash.
        torn = RoundCheckpoint(4, {0: b"not a pickle"})
        with pytest.raises(CheckpointCorruptError, match="unpickle"):
            torn.restore(0)


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


class TestRecoveryDiagnostics:
    def test_step_record_carries_recovery_trail(self):
        """A runner that recovered folds its trail into the backends
        annotation: ``"shard-batch[respawn@r2(s1)]"``."""
        g = SimGraph.from_networkx(nx.path_graph(4))
        engine = AlternatingEngine(g, {}, mis_pruning(), seed=1)

        def runner(domain, inputs, salt):
            note_stepping("shard-batch")
            note_recovery("respawn@r2(s1)")
            return {u: 0 for u in domain.nodes}, 3

        engine.step_with(
            runner, label="B", iteration=1, index=1, guesses={}, budget=3
        )
        record = engine.steps[-1]
        assert record.backends[0] == "shard-batch[respawn@r2(s1)]"
        assert "[" not in (record.backends[1] or "")

    def test_honest_step_has_plain_backends(self):
        g = SimGraph.from_networkx(nx.path_graph(4))
        engine = AlternatingEngine(g, {}, mis_pruning(), seed=1)

        def runner(domain, inputs, salt):
            note_stepping("batch")
            return {u: 0 for u in domain.nodes}, 2

        engine.step_with(
            runner, label="B", iteration=1, index=1, guesses={}, budget=2
        )
        assert engine.steps[-1].backends[0] == "batch"
        assert last_recovery() is None


@needs_fork
class TestSessionChaos:
    """D18 sessions under D15 chaos: a SIGKILL mid-``.rerun()`` heals
    surgically inside the session's warm pool, and the *next*
    ``.mutate()+.rerun()`` on the healed pool is still bit-identical to
    a cold rebuild — the service keeps serving correct bits after
    losing a worker."""

    @pytest.fixture(autouse=True)
    def fail_once_setup(self, monkeypatch, tmp_path):
        monkeypatch.setattr(sharded, "SHARD_RETRY_BACKOFF", 0.01)
        self.flag = tmp_path / "failed-once.flag"
        monkeypatch.setenv(KILL_FLAG, str(self.flag))

    @pytest.mark.parametrize("channel", ("mp-pooled",))
    def test_mid_rerun_kill_then_mutate_rerun_identical(
        self, small_gnp, channel
    ):
        algo = LocalAlgorithm(name="kill-once", process=_KillOnceWorker)
        honest = run(small_gnp, algo, seed=1, backend="reference")
        with open_session(
            small_gnp, backend="sharded", shards=2, shard_channel=channel
        ) as session:
            got = session.rerun(algo, seed=1)
            assert_results_equal(honest, got, context=("session", channel))
            # Surgical (D15): exactly one respawn, no rebuild, no
            # inline escalation — the warm pool survived the kill.
            assert self.flag.exists(), "the fault never fired"
            trail = last_recovery()
            assert trail is not None and trail.startswith("respawn@r2(s")
            assert trail.count("respawn") == 1
            assert "rebuild" not in trail and "inline" not in trail
            pool = session.stats()["pool"]
            assert pool is not None and not pool["broken"]
            healed_pids = pool["pids"]
            # The flag file stays on disk: warm workers forked with the
            # env baked in see it and survive — later runs are honest.
            edge = next(iter(session.graph.edges()))
            session.mutate(GraphDelta(del_edges=[edge]))
            again = session.rerun(algo, seed=1)
            assert last_recovery() is None
            truth = small_gnp.to_networkx()
            truth.remove_edge(*edge)
            oracle = SimGraph.from_networkx(
                truth, idents=dict(small_gnp.ident)
            )
            cold = run(oracle, algo, seed=1, backend="reference")
            assert_results_equal(again, cold, context=("post-heal", channel))
            # The healed pool (same slots) served the mutated rerun.
            assert session.stats()["pool"]["pids"] == healed_pids
        assert sharded.pool_stats() is None
