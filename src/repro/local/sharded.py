"""Sharded round loop: partitioned CSR execution with boundary exchange.

The paper's algorithms are LOCAL by construction — one round reads one
neighbourhood — so the compiled engine's round loop shards naturally
across graph partitions: each shard steps its owned frontier
independently per round and only the boundary (cross-shard messages for
the per-node stepping, ghost/halo state for the batched stepping) is
exchanged between rounds.  This module is the ``backend="sharded"`` /
``run(graph, algo, shards=k)`` implementation (DESIGN.md D12, D20).

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

The exchange
------------
:class:`InlineChannel` steps the shards sequentially in-process and
routes every report's outbound packets to their destination shards in
ascending source order, so the exchange is deterministic.  Sharding is
a specification of the partitioned round loop, not a wall-time tier: a
LOCAL round still reads a full neighbourhood, so no shard can fuse
rounds between exchanges, and the single-process round-fused batch
engine is faster on every measured configuration (DESIGN.md D20).  The
contract is ``sharded(k) ≡ compiled ≡ reference`` — bit-identical
:class:`~repro.local.runner.RunResult` fields for every shard count,
honest or under a fault plan (D14) — enforced by
``tests/test_engine_equivalence.py``.
"""

from __future__ import annotations

import warnings

from ..errors import NonTerminationError, ResilienceWarning
from .algorithm import LocalAlgorithm, capabilities_of
from .batch import (
    _engine_draw_builder,
    BatchSetup,
    make_shard_kernels,
    numpy_or_none,
)
from .context import NodeContext, rng_source
from .faults import DROP, GARBLE, GARBLED
from .message import Broadcast, normalize_outgoing
from .msgsize import estimate_bits


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
        self._names = _state_array_names(kernel)

    def _state_array(self, name):
        """The kernel's per-node state array ``name``, or ``None``."""
        value = getattr(self.kernel, name, None)
        if isinstance(value, numpy_or_none().ndarray) and (
            len(value) == self.n_local
        ):
            return value
        return None

    def _report(self, finished, results, messages):
        """Owned finishers (global indices) plus this round's sync packets."""
        lo, hi = self.own_lo, self.own_hi
        gmap = self.gmap
        fin = []
        res = []
        for i, value in zip(finished, results):
            if lo <= i < hi:
                fin.append(gmap[i])
                res.append(value)
        arrays = []
        for name in self._names:
            value = self._state_array(name)
            if value is not None:
                arrays.append((name, value))
        outbound = {
            dest: [(name, arr[idx]) for name, arr in arrays]
            for dest, idx in self.sends
        }
        return (fin, res, messages, None, outbound)

    def _apply_sync(self, inbound):
        """Overwrite each ghost's state entries from its owner's packet."""
        for src, payload in inbound:
            slots = self.recv_slots[src]
            for name, values in payload:
                target = self._state_array(name)
                if target is not None:
                    target[slots] = values

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
# the exchange: shards stepped in-process, packets routed between rounds
# ---------------------------------------------------------------------------

def _route(reports, k):
    """Turn per-shard outbound maps into per-shard inbound lists.

    Inbound packets are ordered by source shard, so the exchange is
    deterministic.
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


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

class ShardedKernelLoop:
    """Per-shard kernels presented through the single-kernel interface.

    ``start`` / ``step`` / ``done`` / ``undone_indices`` match the D10
    kernel contract with *global* node indices, so existing kernel
    drivers (the engine's ledger, the virtual-domain replay) consume a
    sharded ensemble exactly as they consume one kernel.
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

    def undone_by_shard(self):
        """Map ``shard index -> unfinished count`` (non-empty shards only)."""
        return {
            s: len(u) for s, u in enumerate(self.channel.undone()) if u
        }


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

    ``execution.shards`` shards exchange boundaries in-process.
    Bit-identical to :func:`repro.local.engine.run_compiled` for every
    shard count (the backend equivalence contract, extended by D12 and,
    under an active fault plan, D14).  Shard counts larger than ``n``
    clamp to one node per shard; the empty graph degenerates to the
    single-process engine.
    """
    from .engine import run_batch, run_compiled
    from .runner import note_stepping

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
    part = cg.partition(execution.shards)
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
        return run_batch(
            ShardedKernelLoop(InlineChannel(batch_shards), part.k, cg.n),
            cg,
            algorithm,
            cap=cap,
            truncating=truncating,
            default_output=default_output,
            result_cls=result_cls,
        )
    if (
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
    return _drive_pernode(
        InlineChannel(pernode),
        part.k,
        cg,
        algorithm,
        cap=cap,
        truncating=truncating,
        default_output=default_output,
        track_bits=track_bits,
        result_cls=result_cls,
    )
