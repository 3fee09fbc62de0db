"""Fused multi-run engine: b independent runs as one kernel (D16).

The production workloads of this reproduction are rarely one huge graph
— they are *fleets* of independent small runs: Table-1 seed sweeps,
guess sweeps, per-user matchmaking instances.  Each solo
run pays the full per-round Python dispatch cost alone; this module
packs ``b`` independent ``(graph, algorithm, seed)`` instances into one
**block-diagonal CSR slab** and steps them as *lanes* of a single batch
kernel, amortizing the dispatch cost ``1/b``.

Why the certified kernels run unchanged
---------------------------------------
A fused slab has no cross-lane edges, so every edge-slab reduction a
kernel performs (rival checks, taken scatters, blocking gathers) only
ever combines nodes of the same lane; global round/phase counters stay
aligned because lanes of one slab share the exact same schedule (same
algorithm object, same guesses — grouping is by that key).  Random
draws stay bit-identical to each lane's solo run because per-node
streams are pure functions of ``(run key, identity)`` (the D9 purity
argument): the fused draw source simply derives each lane's keys from
*that lane's* ``(seed, salt)`` — a lane-offset derivation, not a shared
slab-global stream.  The one thing a kernel cannot decompose by itself
is its *message ledger* (a single per-round total), so every certified
kernel routes its counts through ``BatchGraph.charge`` and
:class:`FusedBatchGraph` splits them per lane as a side effect.  A
kernel is only ever fused when its algorithm is certified ``fuse=True``
(capability ``supports_fuse``); everything else runs each lane solo
through :func:`~repro.local.runner.run`, which is trivially
bit-identical.

Per-lane termination is tracked by the driver (a lane's result is
committed the round its last node finishes); a settled lane's edges are
retired from the shared slab the same round, so stragglers don't pay
for the fleet.  Slabs are at most :data:`LANE_WIDTH` lanes wide.
"""

from __future__ import annotations

import weakref

from ..errors import NonTerminationError, ParameterError, ReproError
from . import batch
from .algorithm import capabilities_of
from .context import run_key
from .execution import resolve
from .runner import (
    RunResult,
    execute,
    note_stepping,
    require_guesses,
    round_cap,
)

#: Maximum number of lanes packed into one block-diagonal slab; a
#: larger group of same-schedule jobs is split into chunks this wide.
LANE_WIDTH = 32


class FusedBatchGraph(batch.BatchGraph):
    """Block-diagonal slab over member graphs, with lane attribution.

    ``lane_of[i]`` is the lane (chunk position) of slab node ``i``;
    ``lane_bounds`` are the node-offset boundaries per lane (length
    ``lane_count + 1``).  Labels are ``(lane, original label)`` so
    member graphs may carry colliding labels and identities.

    The :meth:`charge` override is the per-lane message ledger: every
    certified kernel's counts flow through this one seam, so the exact
    split is a by-product of the existing accounting, not a parallel
    re-derivation.
    """

    __slots__ = (
        "lane_of",
        "lane_bounds",
        "lane_count",
        "_fdegrees",
        "_lane_degrees",
        "_lane_sent",
        "_draw_cache",
        "_full_owner",
        "_full_neigh",
        "_edge_bounds",
        "_live",
    )

    def __init__(self, labels, idents, offsets, neigh, lane_of, lane_bounds):
        super().__init__(labels, idents, offsets, neigh)
        np = batch.numpy_or_none()
        self.lane_of = lane_of
        self.lane_bounds = lane_bounds
        self.lane_count = len(lane_bounds) - 1
        # float64 degree sums are exact below 2^53; slabs are far
        # smaller, and keeping everything float avoids an astype copy
        # on every charge.
        self._fdegrees = self.degrees.astype(np.float64)
        self._lane_degrees = np.bincount(
            lane_of, weights=self._fdegrees, minlength=self.lane_count
        )
        self._lane_sent = np.zeros(self.lane_count, dtype=np.float64)
        self._draw_cache = {}
        # Edge slab is lane-contiguous (owner indices ascend), so the
        # live window below is a concatenation of per-lane segments.
        self._full_owner = self.owner
        self._full_neigh = self.neigh
        self._edge_bounds = np.zeros(self.lane_count + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(lane_of[self.owner], minlength=self.lane_count),
            out=self._edge_bounds[1:],
        )
        self._live = np.ones(self.lane_count, dtype=bool)

    def fork(self):
        """A twin sharing the immutable slab arrays but owning the
        per-run mutable state (edge window, charge accumulator).

        Chunks stepped concurrently by one ``_drive`` may hash to the
        same cached slab (a seed sweep over one graph chunked by lane
        width does); each needs its own window and ledger, or one
        chunk's retirements would shrink the slab under the others.
        The draw cache *is* shared — its entries are keyed by per-lane
        run keys, which never collide across chunks.
        """
        np = batch.numpy_or_none()
        twin = FusedBatchGraph.__new__(FusedBatchGraph)
        for name in (
            "labels", "idents", "n", "offsets", "degrees", "_mix",
            "lane_of", "lane_bounds", "lane_count",
            "_fdegrees", "_lane_degrees", "_draw_cache",
            "_full_owner", "_full_neigh", "_edge_bounds",
        ):
            setattr(twin, name, getattr(self, name))
        twin.owner = self._full_owner
        twin.neigh = self._full_neigh
        twin._lane_sent = np.zeros(self.lane_count, dtype=np.float64)
        twin._live = np.ones(self.lane_count, dtype=bool)
        return twin

    def csr_neigh(self):
        return self._full_neigh

    def reset_window(self):
        """Restore the full edge slab (cached slabs are reused across runs)."""
        if not self._live.all():
            self._live[:] = True
            self.owner = self._full_owner
            self.neigh = self._full_neigh

    def retire_lanes(self, positions):
        """Drop settled lanes' edges from ``owner``/``neigh``.

        Kernels re-read both arrays every step, so edge-slab work for
        retired lanes vanishes — finished lanes drop out of the active
        set and stragglers don't pay for the fleet.  Block-diagonality
        makes the shrunken view invisible to surviving lanes: a retired
        lane's edges only ever connect that lane's own (terminated)
        nodes, and every per-node reduction is index-based against the
        unchanged node arrays.
        """
        np = batch.numpy_or_none()
        self._live[positions] = False
        bounds = self._edge_bounds
        segments = [
            (int(bounds[k]), int(bounds[k + 1]))
            for k in np.flatnonzero(self._live).tolist()
        ]
        self.owner = np.concatenate(
            [self._full_owner[lo:hi] for lo, hi in segments]
        ) if segments else self._full_owner[:0]
        self.neigh = np.concatenate(
            [self._full_neigh[lo:hi] for lo, hi in segments]
        ) if segments else self._full_neigh[:0]

    def charge(self, senders=None):
        np = batch.numpy_or_none()
        if senders is None:
            self._lane_sent += self._lane_degrees
            return int(self._lane_degrees.sum())
        per_lane = np.bincount(
            self.lane_of[senders],
            weights=self._fdegrees[senders],
            minlength=self.lane_count,
        )
        self._lane_sent += per_lane
        return int(per_lane.sum())

    def take_lane_sent(self):
        """This round's per-lane message counts; resets the accumulator."""
        np = batch.numpy_or_none()
        out = self._lane_sent
        self._lane_sent = np.zeros(self.lane_count, dtype=np.float64)
        return out


#: ``tuple(id(cg) for member cgs) -> FusedBatchGraph``, evicted by
#: weakref finalizers when any member ``CompiledGraph`` is collected.
#: Keyed by object identity (not content): a seed sweep reuses the same
#: compiled graphs, which is the case the cache exists for.
_SLAB_CACHE = {}
_SLAB_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def slab_cache_stats():
    """Copy of the fused-slab cache counters (tests assert cache hits)."""
    return dict(_SLAB_STATS)


def _evict_slab(key):
    if _SLAB_CACHE.pop(key, None) is not None:
        _SLAB_STATS["evictions"] += 1


def release_slabs_of(cg):
    """Deterministically evict every cached slab that includes ``cg``.

    The weakref finalizers already evict entries when a member graph is
    collected, but a long-lived session (D18) cannot lean on collection
    timing — user code may still hold the pre-mutation graph — so
    ``SimulationSession.mutate``/``close`` call this to guarantee a
    retired topology never serves another slab, no matter who still
    references it.
    """
    target = id(cg)
    for key in [key for key in _SLAB_CACHE if target in key]:
        _evict_slab(key)


def fused_slab_of(cgs):
    """The (cached) block-diagonal slab over compiled member graphs."""
    key = tuple(id(cg) for cg in cgs)
    slab = _SLAB_CACHE.get(key)
    if slab is not None:
        _SLAB_STATS["hits"] += 1
        return slab
    _SLAB_STATS["misses"] += 1
    np = batch.numpy_or_none()
    bgs = [batch.batch_graph_of(cg) for cg in cgs]
    labels = [(lane, u) for lane, bg in enumerate(bgs) for u in bg.labels]
    idents = [ident for bg in bgs for ident in bg.idents]
    counts = [bg.n for bg in bgs]
    lane_bounds = np.zeros(len(bgs) + 1, dtype=np.int64)
    np.cumsum(counts, out=lane_bounds[1:])
    edge_base = 0
    offset_parts = [np.zeros(1, dtype=np.int64)]
    neigh_parts = []
    for lane, bg in enumerate(bgs):
        offset_parts.append(bg.offsets[1:] + edge_base)
        neigh_parts.append(bg.neigh + lane_bounds[lane])
        edge_base += int(bg.offsets[-1])
    offsets = np.concatenate(offset_parts)
    neigh = (
        np.concatenate(neigh_parts)
        if neigh_parts
        else np.zeros(0, dtype=np.int64)
    )
    lane_of = np.repeat(np.arange(len(bgs), dtype=np.int64), counts)
    slab = FusedBatchGraph(labels, idents, offsets, neigh, lane_of, lane_bounds)
    _SLAB_CACHE[key] = slab
    for cg in {id(c): c for c in cgs}.values():
        weakref.finalize(cg, _evict_slab, key)
    return slab


def _fused_draw_builder(bg, seeds, salts):
    """Per-lane draw derivation: each lane's streams match its solo run.

    Each lane's slice of the slab's identity mix is keyed by that lane's
    ``run_key(seed, salt)`` — the closed per-draw counter form then
    yields bit-identical values because a node's draw index (its phase)
    advances exactly as in the solo run (lanes share the schedule).
    """

    def build(bits):
        np = batch.numpy_or_none()
        run_keys = tuple(
            run_key(seeds[k], salts[k]) for k in range(bg.lane_count)
        )
        # Key derivation is a pure function of the per-lane run keys, so
        # a repeated sweep reuses the concatenated key slab.
        keys = bg._draw_cache.get(run_keys)
        if keys is None:
            if len(bg._draw_cache) >= 8:
                bg._draw_cache.clear()
            keys = bg.ident_mix() ^ np.repeat(
                np.array(run_keys, dtype=np.uint64),
                np.diff(bg.lane_bounds),
            )
            bg._draw_cache[run_keys] = keys
        return batch.CounterDraws(keys, bits)

    return build


class _Lane:
    """Per-run bookkeeping of one ``run_many`` job."""

    __slots__ = (
        "graph",
        "algorithm",
        "guesses",
        "inputs",
        "seed",
        "salt",
        "labels",
        "messages",
        "remaining",
        "result",
        "error",
    )

    def __init__(self, graph, algorithm, guesses, inputs, seed, salt):
        self.graph = graph
        self.algorithm = algorithm
        self.guesses = guesses
        self.inputs = inputs
        self.seed = seed
        self.salt = salt
        self.labels = None
        self.messages = 0
        self.remaining = 0
        self.result = None
        self.error = None

    @property
    def settled(self):
        return self.result is not None or self.error is not None


class _Chunk:
    """One fused kernel: a slab, its kernel and its member lanes.

    ``value_of``/``round_of`` are slab-wide per-node result and finish
    round accumulators, filled by vectorized scatters each round and
    only materialized into the per-lane dicts a lane's
    :class:`RunResult` needs at the moment that lane completes — the
    per-node Python work is two ``dict(zip(...))`` passes per lane, not
    a per-node loop per round.
    """

    __slots__ = ("bg", "kernel", "lanes", "value_of", "round_of")

    def __init__(self, bg, kernel, lanes):
        np = batch.numpy_or_none()
        self.bg = bg
        self.kernel = kernel
        self.lanes = lanes
        self.value_of = np.empty(bg.n, dtype=object)
        self.round_of = np.zeros(bg.n, dtype=np.int64)

    def refresh_window(self):
        """Retire any newly settled lanes from the shared edge slab."""
        bg = self.bg
        newly = [
            pos
            for pos, lane in enumerate(self.lanes)
            if lane.settled and bg._live[pos]
        ]
        if newly:
            bg.retire_lanes(newly)

    def materialize(self, pos, lane):
        """Commit lane ``pos``'s result from the slab accumulators."""
        lo = int(self.bg.lane_bounds[pos])
        hi = int(self.bg.lane_bounds[pos + 1])
        values = self.value_of[lo:hi].tolist()
        rounds_arr = self.round_of[lo:hi]
        rounds = rounds_arr.tolist()
        lane.result = RunResult(
            dict(zip(lane.labels, values)),
            dict(zip(lane.labels, rounds)),
            int(rounds_arr.max()) if hi > lo else 0,
            lane.messages,
            frozenset(),
            None,
        )


def run_many(
    jobs,
    *,
    max_rounds=None,
    default_output=None,
    truncate=False,
    backend=None,
    rng=None,
):
    """Execute independent runs, fusing certified ones into shared slabs.

    Parameters
    ----------
    jobs:
        Iterable of ``(graph, algorithm)`` or ``(graph, algorithm,
        opts)`` where ``opts`` may set ``guesses``, ``inputs``,
        ``seed`` and ``salt`` for that job (defaults: none, none, 0, 0).
    max_rounds, default_output, truncate:
        Round restriction, applied to every lane with the exact
        semantics of :func:`~repro.local.runner.run`.
    backend, rng:
        Resolved like a solo run.  Lanes fuse when the resolved
        backend is ``"compiled"`` with batching on and the algorithm is
        certified ``supports_fuse``; everything else — including every
        lane when numpy is missing — runs solo, bit-identically.

    Returns the per-job list of :class:`~repro.local.runner.RunResult`,
    each field-for-field identical to the job's solo ``run``.  A lane
    that exceeds the round cap without truncation fails the call: once
    every lane has settled, the lowest-index lane's
    :class:`NonTerminationError` is raised.
    """
    lanes_list = []
    for job in jobs:
        if not isinstance(job, (tuple, list)) or len(job) not in (2, 3):
            raise ParameterError(
                "each job must be (graph, algorithm) or (graph, algorithm, opts)"
            )
        graph, algorithm = job[0], job[1]
        opts = dict(job[2]) if len(job) == 3 else {}
        unknown = set(opts) - {"guesses", "inputs", "seed", "salt"}
        if unknown:
            raise ParameterError(f"unknown job option(s) {sorted(unknown)}")
        if capabilities_of(algorithm).get("kind") != "node":
            raise TypeError(
                f"expected LocalAlgorithm, got {type(algorithm).__name__}"
            )
        lanes_list.append(
            _Lane(
                graph,
                algorithm,
                require_guesses(algorithm, opts.get("guesses")),
                dict(opts.get("inputs") or {}),
                opts.get("seed", 0),
                opts.get("salt", 0),
            )
        )
    truncating = truncate or default_output is not None
    cap = round_cap(max_rounds, truncating)
    execution = resolve(backend, rng)
    fuse_ok = (
        batch.numpy_or_none() is not None
        and execution.backend == "compiled"
        and execution.batch
    )
    solo, chunks = [], []
    if fuse_ok:
        groups = {}
        for lane in lanes_list:
            caps = capabilities_of(lane.algorithm)
            cg = lane.graph.compiled()
            if not caps.get("supports_fuse") or cg.n == 0:
                solo.append(lane)
                continue
            try:
                # Lanes only share a slab under one schedule: the same
                # algorithm object AND the same guesses (round layouts
                # of the certified kernels are pure in the guesses).
                gkey = tuple(sorted(lane.guesses.items()))
            except TypeError:
                solo.append(lane)
                continue
            groups.setdefault((id(lane.algorithm), gkey), []).append(lane)
        claimed = set()
        for members in groups.values():
            for at in range(0, len(members), LANE_WIDTH):
                chunk_lanes = members[at : at + LANE_WIDTH]
                chunk = _build_chunk(chunk_lanes, claimed)
                if chunk is None:
                    solo.extend(chunk_lanes)
                else:
                    chunks.append(chunk)
    else:
        solo = list(lanes_list)
    # Solo lanes run first, so the fused drive leaves
    # last_stepping()=="fused" whenever any lane actually fused.
    for lane in solo:
        try:
            lane.result = execute(
                lane.graph,
                lane.algorithm,
                execution,
                inputs=lane.inputs,
                guesses=lane.guesses,
                seed=lane.seed,
                salt=lane.salt,
                max_rounds=max_rounds,
                default_output=default_output,
                truncate=truncate,
            )
        except NonTerminationError as exc:
            lane.error = exc
    if chunks:
        _drive(
            chunks,
            cap=cap,
            truncating=truncating,
            default_output=default_output,
        )
        note_stepping("fused")
    for lane in lanes_list:
        if lane.error is not None:
            raise lane.error
    return [lane.result for lane in lanes_list]


def _build_chunk(chunk_lanes, claimed):
    """Slab + kernel for one group chunk (``None``: factory declined).

    ``claimed`` holds the slab ids already handed to earlier chunks of
    this call; a collision gets a :meth:`FusedBatchGraph.fork` so the
    concurrently-stepped chunks don't share mutable window state.
    """
    algorithm = chunk_lanes[0].algorithm
    cgs = tuple(lane.graph.compiled() for lane in chunk_lanes)
    bg = fused_slab_of(cgs)
    if id(bg) in claimed:
        bg = bg.fork()
    else:
        claimed.add(id(bg))
    fused_inputs = {}
    for pos, lane in enumerate(chunk_lanes):
        lane.remaining = cgs[pos].n
        lane.labels = cgs[pos].labels
        for u, x in lane.inputs.items():
            fused_inputs[(pos, u)] = x
    setup = batch.BatchSetup(
        fused_inputs,
        dict(chunk_lanes[0].guesses),
        _fused_draw_builder(
            bg,
            [lane.seed for lane in chunk_lanes],
            [lane.salt for lane in chunk_lanes],
        ),
    )
    kernel = algorithm.batch(bg, setup)
    if kernel is None:
        return None
    # A stale accumulator (or a shrunken edge window left by an aborted
    # drive) would corrupt the first round on a cache-hit slab.
    bg.take_lane_sent()
    bg.reset_window()
    return _Chunk(bg, kernel, chunk_lanes)


def _drive(chunks, *, cap, truncating, default_output):
    """The fused round loop: the solo drive's ledger
    (:func:`repro.local.batch.settle`), kept per lane.

    All chunks advance in lockstep engine rounds; a chunk leaves the
    loop when its kernel is done.
    """
    pending = []
    for chunk in chunks:
        finished, results, sent = chunk.kernel.start()
        _distribute(chunk, finished, results, 0, sent)
        if not chunk.kernel.done:
            chunk.refresh_window()
            pending.append(chunk)
    rounds = 0
    while pending:
        if rounds >= cap:
            for chunk in pending:
                _cut(chunk, cap, truncating, default_output)
            return
        rounds += 1
        still = []
        for chunk in pending:
            finished, results, sent = chunk.kernel.step()
            _distribute(chunk, finished, results, rounds, sent)
            if not chunk.kernel.done:
                chunk.refresh_window()
                still.append(chunk)
        pending = still


def _distribute(chunk, finished, results, round_no, sent):
    """Credit one engine round to the chunk's lanes (vectorized)."""
    np = batch.numpy_or_none()
    bg = chunk.bg
    lane_sent = bg.take_lane_sent()
    attributed = int(lane_sent.sum())
    if attributed != sent:
        raise ReproError(
            f"fused message attribution mismatch for "
            f"{chunk.lanes[0].algorithm.name!r} at round {round_no}: kernel "
            f"reported {sent}, lanes account for {attributed} — the kernel "
            "bypasses BatchGraph.charge and must not be certified fuse=True"
        )
    for pos, lane in enumerate(chunk.lanes):
        lane.messages += int(lane_sent[pos])
    if not len(finished):
        return
    fin = np.asarray(finished, dtype=np.int64)
    chunk.value_of[fin] = results
    chunk.round_of[fin] = round_no
    counts = np.bincount(bg.lane_of[fin], minlength=len(chunk.lanes))
    for pos in np.flatnonzero(counts).tolist():
        lane = chunk.lanes[pos]
        lane.remaining -= int(counts[pos])
        if lane.remaining == 0:
            chunk.materialize(pos, lane)


def _cut(chunk, cap, truncating, default_output):
    """Round cap reached: truncate or fail each unfinished lane.

    Mirrors the solo ``settle`` exactly — truncated lanes report
    ``rounds == cap`` with the forced nodes in ``truncated``; without
    truncation the lane records a :class:`NonTerminationError`, which
    :func:`run_many` raises once every lane has settled.
    """
    np = batch.numpy_or_none()
    bg = chunk.bg
    undone = chunk.kernel.undone_indices()
    undone_by_lane = {}
    for i in undone:
        undone_by_lane.setdefault(int(bg.lane_of[i]), []).append(
            bg.labels[i][1]
        )
    if truncating and undone:
        idx = np.asarray(undone, dtype=np.int64)
        chunk.value_of[idx] = default_output
        chunk.round_of[idx] = cap
    for pos, lane in enumerate(chunk.lanes):
        if lane.settled:
            continue
        stragglers = undone_by_lane.get(pos, [])
        if not truncating:
            lane.error = NonTerminationError(
                lane.algorithm.name, cap, stragglers
            )
            continue
        chunk.materialize(pos, lane)
        lane.result = RunResult(
            lane.result.outputs, lane.result.finish_round, cap,
            lane.messages, frozenset(stragglers), None,
        )
