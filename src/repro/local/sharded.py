"""Sharded round loop: partitioned CSR execution with boundary exchange.

The paper's algorithms are LOCAL by construction — one round reads one
neighbourhood — so the compiled engine's round loop shards naturally
across graph partitions: each shard steps its owned frontier
independently per round and only the boundary (cross-shard messages for
the per-node stepping, ghost/halo state for the batched stepping) is
exchanged between rounds.  This module is the ``backend="sharded"`` /
``run(graph, algo, shards=k)`` implementation (DESIGN.md D12).

Two steppings, one plan
-----------------------
Both steppings consume the same :class:`~repro.local.engine.Partition`
(contiguous identity-ordered shards, halo tables):

* **per-node** (:class:`PerNodeShard`) — every :class:`LocalAlgorithm`
  qualifies.  A shard owns the node processes of its index range and
  walks the same double-buffered inbox loop as the compiled engine;
  deliveries whose receiver lives elsewhere are exported as
  ``(receiver index, reverse port, payload)`` packets and merged into
  the destination shard's buffers before the next round.  Inboxes are
  re-assembled in ascending *port* order, which equals ascending sender
  identity order — exactly the insertion order the single-process loops
  produce — so inbox iteration order is preserved bit for bit.
* **batched** (:class:`BatchShard`) — gated on the algorithm's
  ``supports_shard`` capability.  The shard runs the *unchanged* batch
  kernel on its sub-CSR (owned rows complete, ghost rows empty); after
  every kernel round the halo exchange overwrites each ghost's entries
  in the kernel's per-node state arrays with the owning shard's
  authoritative values, so the next round's slab gathers read exactly
  what the single-process kernel would.  Ghost rows being empty makes
  degree-weighted message counts partition exactly (each edge slot is
  owned once) and makes ghost-side round artifacts harmless scratch —
  they are resynchronized before anything reads them.

Channels
--------
``channel="inline"`` steps the shards sequentially in-process — the
deterministic reference for the exchange protocol (and the numpy-free /
single-core fallback).  ``channel="mp-pooled"`` (D13) dispatches to a
*persistent* :class:`WorkerPool`: workers are spawned once per pool
scope (``use_backend("sharded", ...)``) and reused across every run of
a pipeline, with the per-round halo exchange travelling through a
fork-inherited shared-memory arena rather than through pipes.  Runs
whose shard state will not pickle (or platforms without fork) degrade
to ``"inline"`` with a :class:`~repro.errors.ResilienceWarning`.  Both
channels produce bit-identical :class:`~repro.local.runner.RunResult`
fields for every shard count — the ``sharded(k) ≡ compiled ≡
reference`` contract enforced by ``tests/test_engine_equivalence.py``.

Checkpoints and self-healing recovery (D15)
-------------------------------------------
The pooled channel takes a round-level checkpoint after every committed
round: each worker piggybacks a pickled snapshot of its shard on its
round report, and the parent's :class:`RecoveryManager`
(``local/recovery.py``) retains the latest complete set.  When a worker
dies or hangs mid-round, only that worker is respawned and restored
from the checkpoint, and the failed round is re-dispatched to it alone
— the survivors' reports are salvaged, so a dead worker costs one round
of one shard, not the run.  Because every per-node draw is a pure
function of ``(identity, round)`` (D9), the replayed round is
bit-identical to the one the dead worker never finished.  Recovery
escalates respawn-shard → rebuild-pool → inline-from-checkpoint under a
per-run retry budget (``recovery.MAX_RETRIES``); with checkpointing off
the legacy restart-on-inline ladder applies.  Every rung emits a
:class:`~repro.errors.ResilienceWarning` and is recorded in the
``runner.last_recovery`` diagnostics channel.
"""

from __future__ import annotations

import os
import time
import warnings
from contextlib import contextmanager

from ..errors import (
    FaultError,
    NonTerminationError,
    RecoveryExhaustedError,
    ResilienceWarning,
    WorkerDiedError,
    WorkerTimeoutError,
)
from .recovery import INITIAL_ROUND, RecoveryManager, snapshot_blob
from .algorithm import LocalAlgorithm, capabilities_of
from .batch import (
    _engine_draw_builder,
    BatchSetup,
    make_shard_kernels,
    numpy_or_none,
)
from .context import NodeContext, rng_source
from .execution import env_setting
from .faults import DROP, GARBLE, GARBLED
from .message import Broadcast, normalize_outgoing
from .msgsize import estimate_bits

#: Per-round deadline (seconds) for collecting every worker's report.
#: A worker that hangs past it surfaces as
#: :class:`~repro.errors.WorkerTimeoutError` instead of blocking the
#: parent forever; values <= 0 disable the deadline.  Read at call time
#: so tests (and operators, via ``REPRO_SHARD_TIMEOUT``) can tighten it.
SHARD_TIMEOUT = env_setting(os.environ, "REPRO_SHARD_TIMEOUT", 30.0, float)

#: Pause before the retry attempt of the resilience ladder (seconds) —
#: long enough for a transiently-starved machine to recover, short
#: enough to be invisible next to the respawn it precedes.
SHARD_RETRY_BACKOFF = 0.1


def fork_available():
    """Whether the multiprocessing channel can run on this platform."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------------
# batched stepping: unchanged kernels on sub-CSRs + halo state exchange
# ---------------------------------------------------------------------------

def _state_array_names(kernel):
    """Names of the kernel's halo-synced state arrays.

    A kernel may pin the set explicitly with a ``SHARD_SYNC`` class
    attribute — required when it also keeps derived length-n arrays
    (sorted orders, rank permutations) whose values are local positions
    rather than per-node state (the coloring/MIS kernels, D13).
    Without the declaration, every ``__slots__`` entry that holds a
    length-n numpy array at exchange time is synced, in deterministic
    (mro, declaration) order — sufficient for kernels whose only
    length-n arrays *are* per-node state (the Luby family, the
    pruners).
    """
    declared = getattr(type(kernel), "SHARD_SYNC", None)
    if declared is not None:
        return list(declared)
    names = []
    for cls in type(kernel).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if name not in names:
                names.append(name)
    return names


class BatchShard:
    """One shard of a batched sharded run: sub-CSR kernel + halo sync.

    ``sends`` lists ``(dest, local indices)`` of the owned boundary
    nodes each other shard mirrors; ``recv_slots`` maps a source shard
    to the local ghost slots its packet fills (same agreed order).  A
    sync packet is ``[(attr name, values), ...]`` for every kernel
    attribute that is a per-node state array (numpy, first axis of
    length ``n``) — the D12 shard-safe kernel contract guarantees those
    are exactly the arrays the next round's gathers read.
    """

    __slots__ = (
        "index",
        "kernel",
        "n_local",
        "own_lo",
        "own_hi",
        "gmap",
        "sends",
        "recv_slots",
        "halo_total",
        "halo_regions",
        "_names",
    )

    def __init__(self, index, kernel, part):
        np = numpy_or_none()
        self.index = index
        self.kernel = kernel
        loc = part.locals_of(index)
        self.n_local = len(loc)
        self.own_lo, self.own_hi = part.own_local_range(index)
        self.gmap = loc
        sends, recv = part.sync_plan()
        self.sends = [
            (dest, np.asarray(idx, dtype=np.int64))
            for dest, idx in sends[index]
        ]
        self.recv_slots = {
            src: np.asarray(idx, dtype=np.int64)
            for src, idx in recv[index].items()
        }
        # Stable shared-memory offsets of this shard's halo regions
        # (D13): pure geometry, so the pickled shard carries everything
        # a pooled worker needs to place its ring-buffer writes/reads.
        total, regions = part.halo_layout(
            _HALO_BYTES_PER_NODE, _HALO_HEADER_BYTES
        )
        self.halo_total = total
        self.halo_regions = {
            pair: region
            for pair, region in regions.items()
            if pair[0] == index or pair[1] == index
        }
        self._names = _state_array_names(kernel)

    def owned(self, finished, results):
        """Filter a kernel report down to this shard's owned nodes,
        translated to global indices."""
        lo, hi = self.own_lo, self.own_hi
        gmap = self.gmap
        fin = []
        res = []
        for i, value in zip(finished, results):
            if lo <= i < hi:
                fin.append(gmap[i])
                res.append(value)
        return fin, res

    def _report(self, finished, results, messages):
        fin, res = self.owned(finished, results)
        return (fin, res, messages, None, self._sync_payload())

    def sync_arrays(self):
        """The kernel's per-node state arrays, ``[(name, array), ...]``."""
        np = numpy_or_none()
        kernel = self.kernel
        n = self.n_local
        arrays = []
        for name in self._names:
            value = getattr(kernel, name, None)
            if isinstance(value, np.ndarray) and len(value) == n:
                arrays.append((name, value))
        return arrays

    def _sync_payload(self):
        arrays = self.sync_arrays()
        return {
            dest: [(name, arr[idx]) for name, arr in arrays]
            for dest, idx in self.sends
        }

    def apply_sync_one(self, src, payload):
        """Overwrite ghost entries owned by shard ``src`` from ``payload``."""
        np = numpy_or_none()
        kernel = self.kernel
        n = self.n_local
        slots = self.recv_slots[src]
        for name, values in payload:
            target = getattr(kernel, name, None)
            if isinstance(target, np.ndarray) and len(target) == n:
                target[slots] = values

    def _apply_sync(self, inbound):
        for src, payload in inbound:
            self.apply_sync_one(src, payload)

    def round0(self):
        return self._report(*self.kernel.start())

    def round(self, inbound):
        self._apply_sync(inbound)
        return self._report(*self.kernel.step())

    def undone(self):
        lo, hi = self.own_lo, self.own_hi
        gmap = self.gmap
        return [gmap[i] for i in self.kernel.undone_indices() if lo <= i < hi]


# ---------------------------------------------------------------------------
# per-node stepping: node processes + boundary message packets
# ---------------------------------------------------------------------------

class PerNodeShard:
    """One shard of a per-node sharded run.

    ``rows[t]`` holds, per edge slot of the shard's ``t``-th owned
    node, ``(dest_shard, target, reverse_port)`` — ``dest_shard`` is
    ``None`` for in-shard deliveries (``target`` is then the receiver's
    owned slot) and the owning shard otherwise (``target`` the
    receiver's global index).  The round logic mirrors the compiled
    engine's double-buffered loop; remote packets merge into the
    consuming buffer before the round and every non-empty inbox is
    re-assembled in ascending port order, reproducing the
    single-process insertion order exactly (ports are assigned in
    increasing neighbour identity, which is increasing global index —
    the order senders activate in).
    """

    __slots__ = (
        "index",
        "lo",
        "procs",
        "rows",
        "track_bits",
        "active",
        "cur",
        "cur_touched",
        "nxt",
        "nxt_touched",
        "max_bits",
        "faults",
        "g_labels",
        "g_idents",
        "round_no",
    )

    def __init__(
        self, index, lo, procs, rows, track_bits, faults=None, labels=None,
        idents=None,
    ):
        self.index = index
        self.lo = lo
        self.procs = procs
        self.rows = rows
        self.track_bits = track_bits
        self.active = []
        n = len(procs)
        self.cur = [None] * n
        self.cur_touched = []
        self.nxt = [None] * n
        self.nxt_touched = []
        self.max_bits = 0
        # D14 injection state: the run's CompiledFaults plus the global
        # label/ident tables (fault decisions are keyed by the *global*
        # endpoint identities, so every shard derives the same per-edge
        # fate).  All None for honest runs — nothing extra is forked or
        # pickled then.
        self.faults = faults
        self.g_labels = labels
        self.g_idents = idents
        self.round_no = 0

    def _note_bits(self, payload):
        bits = estimate_bits(payload)
        if bits > self.max_bits:
            self.max_bits = bits

    def _deliver(self, t, outgoing, out_remote):
        """Route one node's outgoing spec; returns the payload count."""
        row = self.rows[t]
        nxt = self.nxt
        touch = self.nxt_touched.append
        if isinstance(outgoing, Broadcast):
            payload = outgoing.payload
            if self.track_bits:
                self._note_bits(payload)
            for dest, target, rp in row:
                if dest is None:
                    box = nxt[target]
                    if box is None:
                        box = nxt[target] = {}
                        touch(target)
                    box[rp] = payload
                else:
                    bucket = out_remote.get(dest)
                    if bucket is None:
                        bucket = out_remote[dest] = []
                    bucket.append((target, rp, payload))
            return len(row)
        if not isinstance(outgoing, dict):
            normalize_outgoing(outgoing, len(row))  # raises TypeError
        degree = len(row)
        count = 0
        for port, payload in outgoing.items():
            if not isinstance(port, int) or port < 0 or port >= degree:
                # Re-raise with the specification's exact diagnostics.
                normalize_outgoing(outgoing, degree)
            if self.track_bits:
                self._note_bits(payload)
            dest, target, rp = row[port]
            if dest is None:
                box = nxt[target]
                if box is None:
                    box = nxt[target] = {}
                    touch(target)
                box[rp] = payload
            else:
                bucket = out_remote.get(dest)
                if bucket is None:
                    bucket = out_remote[dest] = []
                bucket.append((target, rp, payload))
            count += 1
        return count

    def _deliver_faulted(self, t, outgoing, out_remote):
        """Faulted :meth:`_deliver` (DESIGN.md D14), reference-exact.

        Silenced senders produce nothing (uncounted, unsized — the
        payload never leaves the node), dropped payloads vanish in
        flight (uncounted, but dict-path payloads are still sized as in
        the reference), garbled payloads arrive as :data:`GARBLED`
        (counted, sized as sent).  Fault fates are keyed by the global
        endpoint identities: an in-shard target is the receiver's owned
        slot (global ``lo + target``) while a remote target is already a
        global index, so both sides of a cut edge derive the same fate.
        """
        faults = self.faults
        rnd = self.round_no
        lo = self.lo
        label = self.g_labels[lo + t]
        if faults.silenced(label, rnd):
            return 0
        idents = self.g_idents
        ident = idents[lo + t]
        decide = faults.decide
        row = self.rows[t]
        nxt = self.nxt
        touch = self.nxt_touched.append
        if isinstance(outgoing, Broadcast):
            payload = outgoing.payload
            if self.track_bits:
                self._note_bits(payload)
            count = 0
            for dest, target, rp in row:
                receiver = idents[lo + target if dest is None else target]
                fate = decide(label, ident, receiver, rnd)
                if fate == DROP:
                    continue
                body = GARBLED if fate == GARBLE else payload
                if dest is None:
                    box = nxt[target]
                    if box is None:
                        box = nxt[target] = {}
                        touch(target)
                    box[rp] = body
                else:
                    bucket = out_remote.get(dest)
                    if bucket is None:
                        bucket = out_remote[dest] = []
                    bucket.append((target, rp, body))
                count += 1
            return count
        if not isinstance(outgoing, dict):
            normalize_outgoing(outgoing, len(row))  # raises TypeError
        degree = len(row)
        count = 0
        for port, payload in outgoing.items():
            if not isinstance(port, int) or port < 0 or port >= degree:
                # Re-raise with the specification's exact diagnostics.
                normalize_outgoing(outgoing, degree)
            if self.track_bits:
                self._note_bits(payload)
            dest, target, rp = row[port]
            receiver = idents[lo + target if dest is None else target]
            fate = decide(label, ident, receiver, rnd)
            if fate == DROP:
                continue
            if fate == GARBLE:
                payload = GARBLED
            if dest is None:
                box = nxt[target]
                if box is None:
                    box = nxt[target] = {}
                    touch(target)
                box[rp] = payload
            else:
                bucket = out_remote.get(dest)
                if bucket is None:
                    bucket = out_remote[dest] = []
                bucket.append((target, rp, payload))
            count += 1
        return count

    def round0(self):
        out_remote = {}
        finished = []
        results = []
        messages = 0
        lo = self.lo
        add_active = self.active.append
        faults = self.faults
        deliver = self._deliver if faults is None else self._deliver_faulted
        for t, process in enumerate(self.procs):
            if faults is not None:
                crashed = faults.crash_of(self.g_labels[lo + t])
                if crashed is not None and crashed[0] == 0:
                    finished.append(lo + t)
                    results.append(crashed[1])
                    continue
            outgoing = process.start()
            if outgoing is not None:
                messages += deliver(t, outgoing, out_remote)
            if process.done:
                finished.append(lo + t)
                results.append(process.result)
            else:
                add_active(t)
        return (finished, results, messages, self.max_bits, out_remote)

    def round(self, inbound):
        self.round_no += 1
        # Swap buffers: `cur` now holds everything delivered last round.
        self.cur, self.cur_touched, self.nxt, self.nxt_touched = (
            self.nxt,
            self.nxt_touched,
            self.cur,
            self.cur_touched,
        )
        cur, cur_touched = self.cur, self.cur_touched
        lo = self.lo
        for _src, packets in inbound:
            for target, rp, payload in packets:
                t = target - lo
                box = cur[t]
                if box is None:
                    box = cur[t] = {}
                    cur_touched.append(t)
                box[rp] = payload
        out_remote = {}
        finished = []
        results = []
        messages = 0
        procs = self.procs
        still_active = []
        add_still = still_active.append
        faults = self.faults
        deliver = self._deliver if faults is None else self._deliver_faulted
        rnd = self.round_no
        for t in self.active:
            if faults is not None:
                crashed = faults.crash_of(self.g_labels[lo + t])
                if crashed is not None and crashed[0] == rnd:
                    # Crash-stop: force-finished before receiving or
                    # acting at the crash round (DESIGN.md D14).
                    finished.append(lo + t)
                    results.append(crashed[1])
                    continue
            process = procs[t]
            box = cur[t]
            inbox = dict(sorted(box.items())) if box else {}
            outgoing = process.receive(inbox)
            if outgoing is not None:
                messages += deliver(t, outgoing, out_remote)
            if process.done:
                finished.append(lo + t)
                results.append(process.result)
            else:
                add_still(t)
        self.active = still_active
        for t in cur_touched:
            cur[t] = None
        cur_touched.clear()
        return (finished, results, messages, self.max_bits, out_remote)

    def undone(self):
        lo = self.lo
        return [lo + t for t in self.active]


# ---------------------------------------------------------------------------
# channels: deterministic in-process loop / forked worker pool
# ---------------------------------------------------------------------------

def _route(reports, k):
    """Turn per-shard outbound maps into per-shard inbound lists.

    Inbound packets are ordered by source shard, so the exchange is
    deterministic under both channels.
    """
    inbound = [[] for _ in range(k)]
    for src, report in enumerate(reports):
        outbound = report[4]
        for dest, payload in outbound.items():
            inbound[dest].append((src, payload))
    return inbound


class InlineChannel:
    """Deterministic in-process channel: shards step sequentially."""

    def __init__(self, shards):
        self.shards = shards

    def round0(self):
        return [shard.round0() for shard in self.shards]

    def round(self, inbound):
        return [
            shard.round(inbound[s]) for s, shard in enumerate(self.shards)
        ]

    def undone(self):
        return [shard.undone() for shard in self.shards]

    def close(self):
        pass


def _recv_reports(conns, on_failure, round_no=0):
    """Collect one reply per worker, failing fast on the first failure.

    The strict ack-collection variant: used where a failure aborts the
    whole exchange (pooled ``load``/``restore`` acknowledgements) rather
    than entering surgical recovery — round reports go through
    :func:`_recv_outcomes` instead, which salvages the survivors.  The
    receive polls against a shared per-round deadline
    (:data:`SHARD_TIMEOUT`) instead of blocking — a SIGKILLed worker
    surfaces as :class:`~repro.errors.WorkerDiedError` (EOF on its pipe)
    and a hung one as :class:`~repro.errors.WorkerTimeoutError`, both
    carrying the shard index and round and both retryable.
    ``on_failure()`` runs once before the failure is raised.
    """
    timeout = SHARD_TIMEOUT
    deadline = time.monotonic() + timeout if timeout > 0 else None
    reports = []
    failure = None
    for s, conn in enumerate(conns):
        try:
            if deadline is not None and not conn.poll(
                max(0.0, deadline - time.monotonic())
            ):
                failure = WorkerTimeoutError(s, round_no, timeout)
                break
            message = conn.recv()
            tag, payload = message[0], message[1]
        except (EOFError, OSError):
            tag, payload = "err", WorkerDiedError(shard=s, round_no=round_no)
        if tag == "err":
            failure = payload
            break
        reports.append(payload)
    if failure is not None:
        on_failure()
        raise failure
    return reports


def _recv_outcomes(conns, round_no, procs=None, outcomes=None, beats=None):
    """Collect one outcome per worker *without* failing fast.

    Fills ``outcomes`` so slot ``s`` holds ``("ok", payload, blob)`` —
    ``blob`` the piggybacked checkpoint snapshot, or ``None`` — or
    ``("fail", exc)``.  Pre-populated (non-``None``) slots are kept
    as-is and their connections left untouched; recovery uses this to
    re-collect only the shards it re-dispatched while salvaging the
    survivors' committed reports.  A parent-side watchdog checks
    ``procs[s].is_alive()`` between poll ticks, so a worker that died
    without writing surfaces immediately instead of at the shared
    deadline; ``beats`` (when given) records per-shard report
    timestamps — the heartbeat trail quoted by recovery warnings.
    """
    from multiprocessing.connection import wait as _conn_wait

    timeout = SHARD_TIMEOUT
    deadline = time.monotonic() + timeout if timeout > 0 else None
    if outcomes is None:
        outcomes = [None] * len(conns)
    pending = [s for s in range(len(conns)) if outcomes[s] is None]
    while pending:
        progressed = False
        for s in list(pending):
            conn = conns[s]
            try:
                ready = conn.poll(0)
            except (EOFError, OSError):
                ready = True  # recv below surfaces the EOF
            if not ready:
                continue
            try:
                message = conn.recv()
            except (EOFError, OSError):
                outcomes[s] = (
                    "fail", WorkerDiedError(shard=s, round_no=round_no)
                )
            else:
                if beats is not None:
                    beats[s] = time.monotonic()
                if message[0] == "err":
                    outcomes[s] = ("fail", message[1])
                else:
                    outcomes[s] = (
                        "ok",
                        message[1],
                        message[2] if len(message) > 2 else None,
                    )
            pending.remove(s)
            progressed = True
        if progressed:
            continue
        # Watchdog: a worker that died without writing never becomes
        # readable — surface it now rather than at the deadline.  A
        # short grace poll first, in case its report is still landing.
        for s in list(pending):
            proc = procs[s] if procs is not None else None
            if proc is not None and not proc.is_alive():
                try:
                    if conns[s].poll(0.2):
                        continue  # report landed; next sweep reads it
                except (EOFError, OSError):
                    pass
                outcomes[s] = (
                    "fail", WorkerDiedError(shard=s, round_no=round_no)
                )
                pending.remove(s)
        if not pending:
            break
        now = time.monotonic()
        if deadline is not None and now >= deadline:
            for s in pending:
                outcomes[s] = (
                    "fail", WorkerTimeoutError(s, round_no, timeout)
                )
            break
        tick = 0.05
        if deadline is not None:
            tick = min(tick, max(0.001, deadline - now))
        try:
            _conn_wait([conns[s] for s in pending], timeout=tick)
        except OSError:  # pragma: no cover - racing close
            pass
    return outcomes


def _join_workers(procs, conns, grace=True):
    """Stop, join (terminating stragglers) and disconnect workers.

    ``grace=False`` is the abort path after a timeout or death: a hung
    worker would sit out the full graceful join, so it is terminated
    outright — the retry ladder rebuilds fresh workers anyway.
    """
    if grace:
        for conn in conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in procs:
            proc.join(timeout=5)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
    for conn in conns:
        conn.close()


def _regen_inbound(shards, payloads, wrap_pipe=False):
    """Rebuild a round's inbound payloads from restored shard state.

    Batch shards' sync payloads are a pure function of their committed
    state, so the checkpointed round's exchange can be regenerated
    without the original reports (whose pooled form may reference a
    halo arena that no longer exists).  Per-node shards' in-flight
    packets cannot be derived from state — but their original payloads
    are plain data and remain valid as-is.  ``wrap_pipe`` tags each
    payload in the piped-marker format expected by workers that hold a
    halo plane.
    """
    if not all(isinstance(shard, BatchShard) for shard in shards):
        return payloads
    reports = []
    for shard in shards:
        outbound = shard._sync_payload()
        if wrap_pipe:
            outbound = {
                dest: ("pipe", sliced) for dest, sliced in outbound.items()
            }
        reports.append(([], [], 0, None, outbound))
    return _route(reports, len(shards))


class _RecoveringChannel:
    """Surgical-recovery machinery of the worker channel (D15).

    Subclasses provide the transport: ``_conn_list``/``_proc_list``
    (live pipe ends and processes, indexed by shard), ``_respawn_shard``
    (replace one worker with a checkpoint-restored twin),
    ``_restore_all``/``_recoverable`` (checkpoint access),
    ``_fail_teardown`` (abandon the workers) and optionally
    ``_handle_exhausted`` (the intermediate escalation rung — the
    pooled channel rebuilds its pool before giving up on workers).

    ``_run_op`` drives one exchange: dispatch the op to every worker,
    collect all outcomes, and — when a worker died or hung — respawn
    just that worker from the last round checkpoint and re-dispatch the
    op to it alone, under the run's retry budget with exponential
    backoff.  When workers are beyond saving, the channel restores
    every shard from the checkpoint and finishes the run in-process
    (``self.fallback``), so committed rounds are never re-executed.
    """

    def _init_recovery(self, k, rm):
        self.k = k
        self.rm = rm
        self.fallback = None
        self.beats = {}
        self.round_no = 0

    @staticmethod
    def _message_for(op, payloads, s):
        if op == "round":
            return ("round", payloads[s])
        return (op,)

    def _ckpt_round(self):
        latest = self.rm.latest
        if latest is None or latest.round_no == INITIAL_ROUND:
            return "initial"
        return f"round-{latest.round_no}"

    def _run_op(self, op, payloads=None):
        outcomes = self._exchange(op, payloads, [None] * self.k)
        if any(o is None or o[0] == "fail" for o in outcomes):
            return self._recover(op, payloads, outcomes)
        return self._commit(op, outcomes)

    def _exchange(self, op, payloads, outcomes):
        conns = self._conn_list()
        for s in range(self.k):
            if outcomes[s] is not None:
                continue
            try:
                conns[s].send(self._message_for(op, payloads, s))
            except (BrokenPipeError, OSError):
                outcomes[s] = (
                    "fail", WorkerDiedError(shard=s, round_no=self.round_no)
                )
        return _recv_outcomes(
            conns, self.round_no, self._proc_list(), outcomes, self.beats
        )

    def _commit(self, op, outcomes):
        reports = [o[1] for o in outcomes]
        self._note_reports(op, reports)
        if op != "undone" and self.rm.enabled:
            self.rm.commit(
                self.round_no, {s: o[2] for s, o in enumerate(outcomes)}
            )
        return reports

    def _note_reports(self, op, reports):
        pass

    def _on_real_error(self, outcomes):
        pass

    def _handle_exhausted(self, op, payloads, cause):
        return self._escalate_inline(op, payloads, cause)

    def _recover(self, op, payloads, outcomes):
        from .runner import note_recovery

        rm = self.rm
        while True:
            failed = [
                s for s, o in enumerate(outcomes)
                if o is None or o[0] == "fail"
            ]
            if not failed:
                reports = self._commit(op, outcomes)
                note_recovery(rm.summary())
                return reports
            # A worker's real exception is a bug to surface, never an
            # outage to recover from.
            for s in failed:
                o = outcomes[s]
                if o is not None and not getattr(o[1], "retryable", False):
                    self._on_real_error(outcomes)
                    raise o[1]
            cause = next(
                (outcomes[s][1] for s in failed if outcomes[s] is not None),
                WorkerDiedError(shard=failed[0], round_no=self.round_no),
            )
            if not self._recoverable():
                # No usable checkpoint (checkpointing off, or shard
                # state that would not pickle): tear down and let
                # run_sharded's outer ladder restart on inline.
                self._fail_teardown()
                raise cause
            if not rm.budget_left():
                return self._handle_exhausted(
                    op,
                    payloads,
                    RecoveryExhaustedError(
                        failed[0], self.round_no, rm.attempts, cause
                    ),
                )
            backoff = rm.backoff_for(SHARD_RETRY_BACKOFF)
            for s in failed:
                exc = outcomes[s][1] if outcomes[s] is not None else cause
                rm.note_failure("respawn", s, self.round_no, exc)
                beat = self.beats.get(s)
                ago = (
                    f"{time.monotonic() - beat:.1f}s ago"
                    if beat is not None else "never"
                )
                warnings.warn(
                    f"sharded worker {s} failed at round {self.round_no} "
                    f"({exc}); last heartbeat {ago} — respawning it from "
                    f"the {self._ckpt_round()} checkpoint "
                    f"(attempt {rm.attempts}/{rm.max_retries})",
                    ResilienceWarning,
                    stacklevel=4,
                )
            if backoff > 0:
                time.sleep(backoff)
            try:
                for s in failed:
                    self._respawn_shard(s)
                    outcomes[s] = None
            except FaultError as exc:
                return self._handle_exhausted(op, payloads, exc)
            self._exchange(op, payloads, outcomes)

    def _escalate_inline(self, op, payloads, cause):
        from .runner import note_recovery

        rm = self.rm
        rm.note_failure("inline", None, self.round_no, cause)
        warnings.warn(
            f"sharded {op!r} could not be recovered on workers ({cause}); "
            f"degrading to the inline channel from the "
            f"{self._ckpt_round()} checkpoint",
            ResilienceWarning,
            stacklevel=4,
        )
        restored = self._restore_all()
        self._fail_teardown()
        self.fallback = InlineChannel(restored)
        note_recovery(rm.summary())
        if op == "round0":
            return self.fallback.round0()
        if op == "undone":
            return self.fallback.undone()
        return self.fallback.round(_regen_inbound(restored, payloads))


# ---------------------------------------------------------------------------
# persistent worker pool + shared-memory halo plane (D13)
# ---------------------------------------------------------------------------

#: Per-boundary-node byte budget of a halo-plane ring slot.  Covers the
#: certified kernels' state (a handful of 8-byte scalars plus bool
#: flags) with room for moderate 2-D rows; a round whose payload
#: outgrows its region falls back to the piped exchange — sizing is a
#: throughput knob, never a correctness one.
_HALO_BYTES_PER_NODE = 256
#: Fixed per-region headroom for array headers (names, dtypes, shapes).
_HALO_HEADER_BYTES = 1024
#: Initial size of a pool's halo arena.
_ARENA_MIN_BYTES = 1 << 20

#: Marker a pooled worker reports in place of a halo payload that was
#: written to the shared-memory plane (the receiver reads it directly).
_SHM = ("shm",)


class _HaloPlane:
    """Worker-side view of the shared halo arena (one per loaded run).

    Each boundary pair ``(src, dest)`` owns a double-buffered region at
    a stable offset (``Partition.halo_layout``); a round writes slot
    ``round & 1`` and reads the peer slot of the previous round.  The
    parent's recv-all/send-all sequencing is the barrier: a worker only
    reads a region after the parent has collected the writer's report
    for that round, and the two-slot ring keeps a racing writer off the
    slot a slower reader is still consuming.  Arrays travel as raw
    bytes plus a tiny header (name, dtype, row width) — no pickling, no
    parent relay.
    """

    __slots__ = ("buf", "regions", "index", "writes")

    def __init__(self, buf, regions, index):
        self.buf = buf
        self.regions = regions
        self.index = index
        self.writes = 0

    def write_outbound(self, shard):
        """Write this round's boundary slices; returns the report's
        outbound map (shm markers, or inline payloads on overflow)."""
        arrays = shard.sync_arrays()
        slot = self.writes & 1
        self.writes += 1
        out = {}
        for dest, idx in shard.sends:
            sliced = [(name, arr[idx]) for name, arr in arrays]
            region = self.regions.get((self.index, dest))
            if region is not None and self._write(region, slot, sliced):
                out[dest] = _SHM
            else:
                out[dest] = ("pipe", sliced)
        return out

    def _write(self, region, slot, sliced):
        import struct

        offset, capacity = region
        base = offset + slot * capacity
        end = base + capacity
        buf = self.buf
        pos = base + 4
        for name, arr in sliced:
            raw = arr.tobytes()
            nm = name.encode()
            dt = arr.dtype.str.encode()
            ncols = arr.shape[1] if arr.ndim == 2 else 0
            if pos + 2 + len(nm) + len(dt) + 8 + len(raw) > end:
                return False
            buf[pos] = len(nm)
            pos += 1
            buf[pos:pos + len(nm)] = nm
            pos += len(nm)
            buf[pos] = len(dt)
            pos += 1
            buf[pos:pos + len(dt)] = dt
            pos += len(dt)
            struct.pack_into("<II", buf, pos, ncols, len(raw))
            pos += 8
            buf[pos:pos + len(raw)] = raw
            pos += len(raw)
        struct.pack_into("<I", buf, base, len(sliced))
        return True

    def read_inbound(self, src):
        """Read the ghost-state payload shard ``src`` wrote last round."""
        import struct

        np = numpy_or_none()
        offset, capacity = self.regions[(src, self.index)]
        base = offset + ((self.writes - 1) & 1) * capacity
        buf = self.buf
        (count,) = struct.unpack_from("<I", buf, base)
        pos = base + 4
        payload = []
        for _ in range(count):
            ln = buf[pos]
            pos += 1
            name = bytes(buf[pos:pos + ln]).decode()
            pos += ln
            ln = buf[pos]
            pos += 1
            dtype = np.dtype(bytes(buf[pos:pos + ln]).decode())
            pos += ln
            ncols, nbytes = struct.unpack_from("<II", buf, pos)
            pos += 8
            values = np.frombuffer(
                buf, dtype=dtype, count=nbytes // dtype.itemsize, offset=pos
            )
            pos += nbytes
            if ncols:
                values = values.reshape(-1, ncols)
            payload.append((name, values))
        return payload


def _serve_round0(shard, halo):
    if halo is None:
        return shard.round0()
    finished, results, messages = shard.kernel.start()
    finished, results = shard.owned(finished, results)
    return (finished, results, messages, None, halo.write_outbound(shard))


def _serve_round(shard, halo, inbound):
    if halo is None:
        return shard.round(inbound)
    for src, marker in inbound:
        payload = (
            halo.read_inbound(src) if marker[0] == "shm" else marker[1]
        )
        shard.apply_sync_one(src, payload)
    finished, results, messages = shard.kernel.step()
    finished, results = shard.owned(finished, results)
    return (finished, results, messages, None, halo.write_outbound(shard))


def _pool_worker(conn, arena):
    """Persistent worker loop: load a run, serve its rounds, unload.

    Spawned once per pool (fork inherits the halo arena mapping) and
    reused across runs — the per-run shard state arrives pickled with
    the ``load`` message, which is acked before any round runs so the
    parent can tell load failures from round failures.  ``restore``
    loads a checkpointed shard instead, re-aiming the halo ring at the
    checkpoint's write sequence so a replayed round lands in the same
    double-buffer slot the failed attempt would have used.  A worker's
    exception is reported per-message and the loop keeps serving — an
    isolated shard bug no longer condemns its pool-mates.
    """
    import pickle

    shard = None
    halo = None
    checkpointing = False
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "stop":
                break
            try:
                if kind == "load" or kind == "restore":
                    shard = pickle.loads(message[1])
                    halo = (
                        _HaloPlane(arena, shard.halo_regions, shard.index)
                        if message[2] and arena is not None
                        else None
                    )
                    if kind == "restore":
                        if halo is not None:
                            halo.writes = message[3] + 1
                        checkpointing = message[4]
                    else:
                        checkpointing = (
                            message[3] if len(message) > 3 else False
                        )
                    conn.send(("ok", None))
                elif kind == "round0":
                    report = _serve_round0(shard, halo)
                    blob = snapshot_blob(shard) if checkpointing else None
                    conn.send(("ok", report, blob))
                elif kind == "round":
                    report = _serve_round(shard, halo, message[1])
                    blob = snapshot_blob(shard) if checkpointing else None
                    conn.send(("ok", report, blob))
                elif kind == "undone":
                    conn.send(("ok", shard.undone()))
                elif kind == "unload":
                    shard = None
                    halo = None
                    checkpointing = False
            except BaseException as exc:
                try:
                    conn.send(("err", exc))
                except Exception:
                    try:
                        conn.send(("err", RuntimeError(repr(exc))))
                    except Exception:
                        pass
    except EOFError:  # parent went away; nothing left to report to
        pass
    finally:
        conn.close()


class WorkerPool:
    """Persistent sharded-run workers sharing one halo arena (D13).

    Workers are forked lazily on first use and reused across every run
    dispatched while the pool is alive — each ``(A_i ; P)`` step of an
    alternation re-dispatches to the warm pool instead of re-forking.
    The halo arena is an anonymous ``MAP_SHARED`` mmap created *before*
    the first fork, so every worker inherits the same physical pages:
    ghost-state exchange is a memory copy between processes with no
    pipe traffic, no pickling and no named-segment lifecycle to leak
    (the mapping dies with the processes).  Growing the arena respawns
    the workers (mappings cannot be resized post-fork); runs whose
    plane never fits simply pipe their halos — correctness is
    channel-independent by construction.
    """

    __slots__ = ("ctx", "workers", "arena", "arena_size", "broken")

    def __init__(self, arena_bytes=_ARENA_MIN_BYTES):
        import multiprocessing

        self.ctx = multiprocessing.get_context("fork")
        self.workers = []
        self.arena_size = max(int(arena_bytes), _ARENA_MIN_BYTES)
        self.arena = None
        self.broken = False

    def ensure_arena(self, nbytes):
        """Make the halo arena at least ``nbytes`` big."""
        if self.arena is not None and nbytes <= self.arena_size:
            return
        import mmap

        if self.arena is not None:
            self.stop_workers()
            self.arena.close()
            self.arena_size = max(nbytes, self.arena_size * 2)
        else:
            self.arena_size = max(nbytes, self.arena_size)
        self.arena = mmap.mmap(-1, self.arena_size)

    def _spawn(self):
        parent_conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=_pool_worker,
            args=(child_conn, self.arena),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def lease(self, k):
        """``k`` live workers (forked on demand), as ``(proc, conn)``.

        A worker that died while idle (OOM kill, external signal) is
        respawned in place — per-worker, so its healthy pool-mates keep
        their warm state and pids.
        """
        if self.arena is None:
            self.ensure_arena(self.arena_size)
        for i, (proc, _) in enumerate(self.workers):
            if not proc.is_alive():
                self.respawn(i)
        while len(self.workers) < k:
            self.workers.append(self._spawn())
        return self.workers[:k]

    def respawn(self, i):
        """Replace worker slot ``i`` with a fresh fork; return it."""
        proc, conn = self.workers[i]
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=5)
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self.workers[i] = self._spawn()
        return self.workers[i]

    def worker_pids(self):
        """Live worker pids (diagnostics and lifecycle tests)."""
        return [proc.pid for proc, _ in self.workers]

    def stop_workers(self, grace=True):
        _join_workers(
            [proc for proc, _ in self.workers],
            [conn for _, conn in self.workers],
            grace=grace,
        )
        self.workers = []

    def poison(self):
        """Tear the pool down after a worker failure; never reused.

        Gracelessly: a hung worker would stall the stop handshake for
        the full join timeout, and the pool is being discarded anyway.
        """
        self.broken = True
        self.stop_workers(grace=False)
        if self.arena is not None:
            self.arena.close()
            self.arena = None

    def shutdown(self):
        self.stop_workers()
        if self.arena is not None:
            self.arena.close()
            self.arena = None


#: Pool shared by every pooled run inside a ``pool_scope`` (see
#: :func:`repro.local.execution.use_backend`); ``None`` between scopes.
_POOL = None
#: Nesting depth of active pool scopes.
_POOL_SCOPES = 0


def active_pool():
    """The scope's shared pool, created lazily on the first pooled run."""
    global _POOL
    if _POOL is None:
        _POOL = WorkerPool()
    return _POOL


def pool_stats():
    """Diagnostic view of the scope's shared pool (D18 session tests).

    ``None`` outside a pool scope or before the first pooled run;
    otherwise the live worker pids and whether the pool was poisoned.
    Sessions use this to *prove* warm reuse: the pids surviving across
    ``mutate()``/``rerun()`` cycles are the warm-pool contract.
    """
    if _POOL is None:
        return None
    return {"pids": _POOL.worker_pids(), "broken": _POOL.broken}


@contextmanager
def pool_scope():
    """Context manager scoping the shared worker pool (D13).

    ``use_backend("sharded", ...)`` (and any ``mp-pooled`` scope)
    enters one: the first pooled run inside spawns the workers, every
    later run re-dispatches to them, and the *outermost* exit joins the
    pool — nested scopes share one pool and cannot leak workers.
    """
    global _POOL_SCOPES, _POOL
    _POOL_SCOPES += 1
    try:
        yield
    finally:
        _POOL_SCOPES -= 1
        if _POOL_SCOPES == 0 and _POOL is not None:
            _POOL.shutdown()
            _POOL = None


class PooledChannel(_RecoveringChannel):
    """Channel over the persistent pool: pickled load, shm halos.

    Protocol per run: one acked ``load`` per shard (the pickled shard
    plus whether the halo plane applies), then ``round0``/``round``/
    ``undone`` messages, then one ``unload``.  Batched shards exchange
    ghost state through the shared arena (the report carries a marker,
    not the payload); per-node shards and oversized payloads pipe their
    data, so every configuration stays bit-identical to the inline
    channel.

    Failure handling is per-worker (D15): a dead or hung worker is
    respawned in its pool slot and ``restore``d from the last round
    checkpoint while its pool-mates idle; if the budget runs out the
    channel rebuilds the whole pool once from the checkpoint, then
    finishes inline.  A worker's *real* exception is raised as-is, and
    the pool survives it when every other worker stayed healthy — the
    bug was the shard's, not the pool's.
    """

    def __init__(self, pool, workers, owns_pool, rm, use_plane, plane_total):
        self.pool = pool
        self.workers = workers
        self.owns_pool = owns_pool
        self.use_plane = use_plane
        self.plane_total = plane_total
        self.closed = False
        self._rebuilt = False
        self._overflow_warned = False
        self._init_recovery(len(workers), rm)

    @classmethod
    def open(cls, shards):
        """Dispatch a run to the pool, or ``None`` when the run's shard
        state cannot ship to persistent workers (unpicklable processes
        degrade to the inline channel)."""
        import pickle

        try:
            blobs = [
                pickle.dumps(shard, pickle.HIGHEST_PROTOCOL)
                for shard in shards
            ]
        except Exception:
            return None
        owns = _POOL_SCOPES == 0
        pool = WorkerPool() if owns else active_pool()
        use_plane = bool(shards) and all(
            isinstance(shard, BatchShard) for shard in shards
        )
        plane_total = shards[0].halo_total if use_plane else 0
        use_plane = use_plane and plane_total > 0
        rm = RecoveryManager(len(shards))
        try:
            if use_plane:
                pool.ensure_arena(plane_total)
            workers = pool.lease(len(shards))
            for (_, conn), blob in zip(workers, blobs):
                conn.send(("load", blob, use_plane, rm.enabled))
            _recv_reports([conn for _, conn in workers], lambda: None, 0)
        except Exception:
            # Poison even the shared scope pool: a failed dispatch may
            # leave dead or half-loaded workers behind, and the next
            # pooled run must start from a fresh pool.
            global _POOL
            if _POOL is pool:
                _POOL = None
            pool.poison()
            raise
        channel = cls(pool, workers, owns, rm, use_plane, plane_total)
        if rm.enabled:
            # The load blobs double as the pre-round-0 checkpoint, so
            # even a round-0 failure recovers surgically.
            rm.commit(INITIAL_ROUND, dict(enumerate(blobs)))
        return channel

    def _poison(self):
        global _POOL
        self.closed = True
        if _POOL is self.pool:
            _POOL = None
        self.pool.poison()

    # -- recovery plumbing (see _RecoveringChannel) --------------------

    def _conn_list(self):
        return [conn for _, conn in self.workers]

    def _proc_list(self):
        return [proc for proc, _ in self.workers]

    def _recoverable(self):
        return self.rm.recoverable

    def _restore_all(self):
        return self.rm.latest.restore_all()

    def _respawn_shard(self, s):
        ckpt = self.rm.latest
        proc, conn = self.pool.respawn(s)
        self.workers[s] = (proc, conn)
        conn.send(
            ("restore", ckpt.blobs[s], self.use_plane,
             ckpt.round_no, self.rm.enabled)
        )
        _recv_reports([conn], lambda: None, self.round_no)

    def _fail_teardown(self):
        self._poison()

    def _on_real_error(self, outcomes):
        # Keep the pool warm only when the failure is provably isolated:
        # every other worker reported this op (ok, or its own real
        # error).  A missing or retryable outcome means a worker may be
        # hung or dead — leasing it to the next run would corrupt it.
        healthy = all(
            o is not None
            and (o[0] == "ok" or not getattr(o[1], "retryable", False))
            for o in outcomes
        )
        if not healthy:
            self._poison()

    def _handle_exhausted(self, op, payloads, cause):
        from .runner import note_recovery

        if self._rebuilt or not self.rm.recoverable:
            return self._escalate_inline(op, payloads, cause)
        self._rebuilt = True
        self.rm.note_failure("rebuild", None, self.round_no, cause)
        warnings.warn(
            f"sharded worker pool gave up on surgical respawns at round "
            f"{self.round_no} ({cause}); rebuilding the pool from the "
            f"{self._ckpt_round()} checkpoint",
            ResilienceWarning,
            stacklevel=5,
        )
        note_recovery(self.rm.summary())
        try:
            return self._rebuild_and_redo(op, payloads)
        except FaultError as exc:
            return self._escalate_inline(op, payloads, exc)

    def _rebuild_and_redo(self, op, payloads):
        """Replace the poisoned pool wholesale and replay the failed op.

        The fresh arena holds no round data, so every worker re-executes
        the op with payloads regenerated from the restored shards
        (piped, not shm) — after which the restored write sequence makes
        subsequent rounds use the arena as usual.
        """
        global _POOL
        ckpt = self.rm.latest
        restored = ckpt.restore_all()
        blobs = dict(ckpt.blobs)
        self._poison()
        self.closed = False
        pool = WorkerPool()
        if _POOL is None and _POOL_SCOPES > 0:
            _POOL = pool
        self.pool = pool
        self.owns_pool = _POOL is not pool
        if self.use_plane:
            pool.ensure_arena(self.plane_total)
        workers = pool.lease(self.k)
        self.workers = list(workers)
        for s, (_, conn) in enumerate(self.workers):
            conn.send(
                ("restore", blobs[s], self.use_plane,
                 ckpt.round_no, self.rm.enabled)
            )
        _recv_reports(self._conn_list(), lambda: None, self.round_no)
        if op == "round":
            payloads = _regen_inbound(
                restored, payloads, wrap_pipe=self.use_plane
            )
        outcomes = self._exchange(op, payloads, [None] * self.k)
        failed = [
            s for s, o in enumerate(outcomes) if o is None or o[0] == "fail"
        ]
        if not failed:
            from .runner import note_recovery

            reports = self._commit(op, outcomes)
            note_recovery(self.rm.summary())
            return reports
        for s in failed:
            o = outcomes[s]
            if o is not None and not getattr(o[1], "retryable", False):
                self._on_real_error(outcomes)
                raise o[1]
        raise WorkerDiedError(shard=failed[0], round_no=self.round_no)

    def _note_reports(self, op, reports):
        if (
            self._overflow_warned
            or not self.use_plane
            or op == "undone"
        ):
            return
        for report in reports:
            outbound = report[4] if len(report) > 4 else None
            if not outbound:
                continue
            if any(
                isinstance(marker, tuple) and marker and marker[0] == "pipe"
                for marker in outbound.values()
            ):
                self._overflow_warned = True
                warnings.warn(
                    f"sharded halo plane overflowed at round "
                    f"{self.round_no}; oversized boundary payloads are "
                    f"piping instead of using shared memory",
                    ResilienceWarning,
                    stacklevel=5,
                )
                return

    # -- public channel interface --------------------------------------

    def round0(self):
        if self.fallback is not None:
            return self.fallback.round0()
        return self._run_op("round0")

    def round(self, inbound):
        if self.fallback is not None:
            return self.fallback.round(inbound)
        self.round_no += 1
        return self._run_op("round", inbound)

    def undone(self):
        if self.fallback is not None:
            return self.fallback.undone()
        return self._run_op("undone")

    def close(self):
        if self.closed:
            return
        self.closed = True
        for _, conn in self.workers:
            try:
                conn.send(("unload",))
            except (BrokenPipeError, OSError):
                pass
        if self.owns_pool:
            self.pool.shutdown()


def open_channel(shards, channel):
    """Build the requested channel.

    ``"mp-pooled"`` degrades to ``"inline"`` when the run's shard state
    does not pickle or fork is unavailable — the exchange protocol is
    identical across both channels, so the bits are too.
    """
    if channel == "mp-pooled":
        if not fork_available():
            reason = "fork is unavailable on this platform"
        else:
            chan = PooledChannel.open(shards)
            if chan is not None:
                return chan
            reason = "the run's shard state does not pickle"
        warnings.warn(
            f"{reason}; degrading the mp-pooled channel to inline "
            f"(same bits, one process)",
            ResilienceWarning,
            stacklevel=3,
        )
    return InlineChannel(shards)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

class ShardedKernelLoop:
    """Per-shard kernels presented through the single-kernel interface.

    ``start`` / ``step`` / ``done`` / ``undone_indices`` match the D10
    kernel contract with *global* node indices, so existing kernel
    drivers (the engine's ledger, the virtual-domain replay) consume a
    sharded ensemble exactly as they consume one kernel.  ``close``
    releases the channel (joins the worker pool).
    """

    __slots__ = ("channel", "k", "total", "finished", "done", "_reports")

    def __init__(self, channel, k, total):
        self.channel = channel
        self.k = k
        self.total = total
        self.finished = 0
        self.done = total == 0
        self._reports = None

    def _merge(self, reports):
        self._reports = reports
        finished = []
        results = []
        messages = 0
        for report in reports:
            finished.extend(report[0])
            results.extend(report[1])
            messages += report[2]
        self.finished += len(finished)
        if self.finished >= self.total:
            self.done = True
        return finished, results, messages

    def start(self):
        return self._merge(self.channel.round0())

    def step(self):
        inbound = _route(self._reports, self.k)
        return self._merge(self.channel.round(inbound))

    def undone_indices(self):
        return [i for shard in self.channel.undone() for i in shard]

    def commit_ledger(self, labels, rounds, outputs, finish_round, messages):
        """Attach the driver's committed aggregation state (D15).

        Called by the batch driver after it absorbs each round's
        reports; a channel with a spill journal then persists the
        checkpoint together with the ledger so a resumed run need not
        replay committed rounds.  No-op on journal-less channels.
        """
        rm = getattr(self.channel, "rm", None)
        if rm is None or rm.journal is None:
            return
        rm.note_ledger(
            {
                "labels": labels,
                "rounds": rounds,
                "outputs": dict(outputs),
                "finish_round": dict(finish_round),
                "messages": messages,
            }
        )

    def undone_by_shard(self):
        """Map ``shard index -> unfinished count`` (non-empty shards only)."""
        return {
            s: len(u) for s, u in enumerate(self.channel.undone()) if u
        }

    def close(self):
        self.channel.close()


def _drive_pernode(channel, k, cg, algorithm, *, cap, truncating,
                   default_output, track_bits, result_cls):
    """Parent-side ledger of a per-node sharded run.

    Field-for-field the same accounting as the compiled engine's
    per-node loop; only the stepping is distributed.
    """
    labels = cg.labels
    outputs = {}
    finish_round = {}
    messages = 0
    max_bits = 0
    undone_total = cg.n

    def absorb(reports):
        nonlocal messages, max_bits, undone_total
        for report in reports:
            finished, results, sent, bits, _ = report
            for i, value in zip(finished, results):
                label = labels[i]
                outputs[label] = value
                finish_round[label] = rounds
            undone_total -= len(finished)
            messages += sent
            if bits and bits > max_bits:
                max_bits = bits
        return reports

    rounds = 0
    reports = absorb(channel.round0())
    while undone_total:
        if rounds >= cap:
            per_shard = channel.undone()
            undone = [i for shard in per_shard for i in shard]
            if truncating:
                for i in undone:
                    label = labels[i]
                    outputs[label] = default_output
                    finish_round[label] = cap
                return result_cls(
                    outputs,
                    finish_round,
                    cap,
                    messages,
                    frozenset(labels[i] for i in undone),
                    max_bits if track_bits else None,
                )
            raise NonTerminationError(
                algorithm.name,
                cap,
                [labels[i] for i in undone],
                shard_counts={
                    s: len(u) for s, u in enumerate(per_shard) if u
                },
            )
        rounds += 1
        reports = absorb(channel.round(_route(reports, k)))
    total = max(finish_round.values()) if finish_round else 0
    return result_cls(
        outputs,
        finish_round,
        total,
        messages,
        frozenset(),
        max_bits if track_bits else None,
    )


def build_pernode_shards(cg, part, algorithm, *, inputs, guesses, seed,
                         salt, rng_mode, track_bits, faults=None):
    """Per-shard node processes + delivery tables for a per-node run."""
    make_gen = rng_source(rng_mode, seed, salt)
    if type(algorithm) is LocalAlgorithm:
        make_process = algorithm.process
    else:
        make_process = algorithm.make
    get_input = inputs.get
    labels = cg.labels
    idents = cg.idents
    degrees = cg.degrees
    pairs = cg.pairs
    shard_of = part.shard_of
    shards = []
    for s in range(part.k):
        lo, hi = part.own_range(s)
        rows = []
        for i in range(lo, hi):
            entries = []
            for vi, rp in pairs[i]:
                dest = shard_of(vi)
                if dest == s:
                    entries.append((None, vi - lo, rp))
                else:
                    entries.append((dest, vi, rp))
            rows.append(tuple(entries))
        procs = [
            make_process(
                NodeContext(
                    labels[i],
                    idents[i],
                    degrees[i],
                    get_input(labels[i]),
                    guesses,
                    None,
                    make_gen,
                    rng_mode,
                )
            )
            for i in range(lo, hi)
        ]
        shards.append(
            PerNodeShard(
                s,
                lo,
                procs,
                rows,
                track_bits,
                faults=faults,
                labels=labels if faults is not None else None,
                idents=idents if faults is not None else None,
            )
        )
    return shards


def build_batch_shards(algorithm, cg, part, *, inputs, guesses, seed, salt,
                       rng_mode, track_bits, enabled, faults=None):
    """Per-shard batch kernels, or ``None`` to step per node.

    On top of the engine's eligibility rules (D10) the algorithm must
    advertise ``supports_shard`` — the D12 certification that its
    kernel's slab reductions are owner-side, its message counts
    degree-weighted and its per-node state introspectable length-n
    arrays, which is what makes the halo exchange exact.  Under an
    active fault plan the kernel must additionally be certified
    ``supports_faulted_batch`` (D14); otherwise the run falls back to
    the always-exact per-node shards.
    """
    if not enabled or track_bits or numpy_or_none() is None or cg.n == 0:
        return None
    caps = capabilities_of(algorithm)
    if not caps.get("supports_shard"):
        return None
    if faults is not None and not caps.get("supports_faulted_batch"):
        return None

    def setup_of(bg):
        return BatchSetup(
            inputs,
            guesses,
            rng_mode,
            _engine_draw_builder(bg, rng_mode, seed, salt),
            sharded=True,
            faults=faults.batch_view(bg) if faults is not None else None,
        )

    built = make_shard_kernels(
        algorithm.batch, part, cg.labels, cg.idents, setup_of
    )
    if built is None:
        return None
    return [
        BatchShard(s, kernel, part) for s, (_bg, kernel) in enumerate(built)
    ]


def run_sharded(
    graph,
    algorithm,
    execution,
    *,
    inputs,
    guesses,
    seed,
    salt,
    cap,
    truncating,
    default_output,
    track_bits,
    result_cls,
    faults=None,
):
    """Execute one synchronous run on the partitioned engine.

    ``execution.shards`` shards exchange boundaries over
    ``execution.shard_channel``.  Bit-identical to
    :func:`repro.local.engine.run_compiled` for every shard count and
    channel (the backend equivalence contract, extended
    by D12 and, under an active fault plan, D14).  Shard counts larger
    than ``n`` clamp to one node per shard; the empty graph degenerates
    to the single-process engine.

    Resilience (D14/D15): a worker that times out or dies mid-round
    (:class:`~repro.errors.WorkerTimeoutError` /
    :class:`~repro.errors.WorkerDiedError`) is recovered *inside* the
    channel — respawned alone and restored from the last round
    checkpoint, escalating to a pool rebuild and finally to finishing
    the run inline from the checkpoint (see ``_RecoveringChannel``).
    Committed rounds are never re-executed, and the recovered run is
    bit-identical by the D9 purity argument.  Only when no checkpoint
    exists (``REPRO_CHECKPOINT=0``) does the legacy ladder below
    restart the whole run on the workerless inline channel.  Real worker exceptions are never
    retried; they propagate first-failure as before.
    """
    from .engine import run_batch, run_compiled
    from .runner import note_recovery, note_stepping

    note_recovery(None)
    cg = graph.compiled()
    if cg.n == 0:
        return run_compiled(
            graph,
            algorithm,
            execution,
            inputs=inputs,
            guesses=guesses,
            seed=seed,
            salt=salt,
            cap=cap,
            truncating=truncating,
            default_output=default_output,
            track_bits=track_bits,
            result_cls=result_cls,
            faults=faults,
        )
    rng_mode = execution.rng_mode
    use_batch = execution.batch
    channel = execution.shard_channel
    part = cg.partition(execution.shards)

    def attempt(chan_kind):
        batch_shards = build_batch_shards(
            algorithm,
            cg,
            part,
            inputs=inputs,
            guesses=guesses,
            seed=seed,
            salt=salt,
            rng_mode=rng_mode,
            track_bits=track_bits,
            enabled=use_batch,
            faults=faults,
        )
        if batch_shards is not None:
            note_stepping("shard-batch")
        elif (
            use_batch
            and not track_bits
            and numpy_or_none() is None
            and capabilities_of(algorithm).get("supports_shard")
        ):
            warnings.warn(
                "sharded batch kernels need numpy; stepping per node "
                "instead (slower, same bits)",
                ResilienceWarning,
                stacklevel=3,
            )
        if batch_shards is not None:
            loop = ShardedKernelLoop(
                open_channel(batch_shards, chan_kind), part.k, cg.n
            )
            try:
                return run_batch(
                    loop,
                    cg,
                    algorithm,
                    cap=cap,
                    truncating=truncating,
                    default_output=default_output,
                    result_cls=result_cls,
                )
            finally:
                loop.close()
        note_stepping("shard-per-node")
        pernode = build_pernode_shards(
            cg,
            part,
            algorithm,
            inputs=inputs,
            guesses=guesses,
            seed=seed,
            salt=salt,
            rng_mode=rng_mode,
            track_bits=track_bits,
            faults=faults,
        )
        chan = open_channel(pernode, chan_kind)
        try:
            return _drive_pernode(
                chan,
                part.k,
                cg,
                algorithm,
                cap=cap,
                truncating=truncating,
                default_output=default_output,
                track_bits=track_bits,
                result_cls=result_cls,
            )
        finally:
            chan.close()

    # Outer ladder, reached only when in-channel recovery was
    # unavailable (no checkpoint): restart the whole run once on the
    # workerless inline channel.  Only transport failures (retryable
    # FaultErrors) walk it; determinism makes the restart the same
    # pure function of ``(graph, algorithm, seed, plan)``.
    try:
        return attempt(channel)
    except FaultError as exc:
        if channel == "inline" or not exc.retryable:
            raise
        warnings.warn(
            f"sharded run failed on the {channel!r} channel with no "
            f"usable checkpoint ({exc}); restarting from scratch on "
            f"the inline channel",
            ResilienceWarning,
            stacklevel=2,
        )
        note_recovery("restart-inline")
        if SHARD_RETRY_BACKOFF > 0:
            time.sleep(SHARD_RETRY_BACKOFF)
        return attempt("inline")
