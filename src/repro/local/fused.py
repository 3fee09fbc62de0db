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

Each chunk is driven by :func:`repro.local.batch.drive_kernel`, the
one call that drives every solo kernel run too (D30, D32), and its
lanes are settled from the folded commits afterwards (D40): a lane's
rounds are its own last finish round, its messages its own share of the
ledger.  Slabs are at most :data:`LANE_WIDTH` lanes wide.
"""

from __future__ import annotations

import weakref

import numpy as np

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
    re-derivation.  ``lane_sent`` accumulates one drive's per-lane
    totals; :func:`run_many` zeroes it before each drive, since chunks
    sharing a cached slab run one after another.
    """

    __slots__ = (
        "lane_of",
        "lane_bounds",
        "lane_count",
        "lane_sent",
        "_firsts",
        "_fdegrees",
        "_lane_degrees",
    )

    def __init__(self, labels, idents, offsets, neigh, lane_of, lane_bounds):
        super().__init__(labels, idents, offsets, neigh)
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
        self.lane_sent = np.zeros(self.lane_count, dtype=np.float64)
        self._firsts = None

    def ident_firsts(self):
        """Per node, the first slab index holding its identity (int64),
        computed once per cached slab."""
        firsts = self._firsts
        if firsts is None:
            first = {}
            firsts = self._firsts = np.array(
                [first.setdefault(x, i) for i, x in enumerate(self.idents)],
                dtype=np.int64,
            )
        return firsts

    def charge(self, senders=None):
        if senders is None:
            self.lane_sent += self._lane_degrees
            return int(self._lane_degrees.sum())
        per_lane = np.bincount(
            self.lane_of[senders],
            weights=self._fdegrees[senders],
            minlength=self.lane_count,
        )
        self.lane_sent += per_lane
        return int(per_lane.sum())


#: ``tuple(id(cg) for member cgs) -> FusedBatchGraph``, evicted by
#: weakref finalizers when any member ``CompiledGraph`` is collected.
#: Keyed by object identity (not content): a seed sweep reuses the same
#: compiled graphs, which is the case the cache exists for.
_SLAB_CACHE = {}


def _evict_slab(key):
    _SLAB_CACHE.pop(key, None)


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
        return slab
    labels = [(lane, u) for lane, cg in enumerate(cgs) for u in cg.labels]
    idents = [ident for cg in cgs for ident in cg.idents]
    counts = [cg.n for cg in cgs]
    lane_bounds = np.zeros(len(cgs) + 1, dtype=np.int64)
    np.cumsum(counts, out=lane_bounds[1:])
    edge_base = 0
    offset_parts = [np.zeros(1, dtype=np.int64)]
    neigh_parts = []
    for lane, cg in enumerate(cgs):
        offset_parts.append(cg.offsets[1:] + edge_base)
        neigh_parts.append(cg.neigh + lane_bounds[lane])
        edge_base += int(cg.offsets[-1])
    offsets = np.concatenate(offset_parts)
    neigh = (
        np.concatenate(neigh_parts)
        if neigh_parts
        else np.zeros(0, dtype=np.int64)
    )
    lane_of = np.repeat(np.arange(len(cgs), dtype=np.int64), counts)
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
        run_keys = np.array(
            [run_key(seed, salt) for seed, salt in zip(seeds, salts)],
            dtype=np.uint64,
        )
        keys = bg.ident_mix() ^ np.repeat(run_keys, np.diff(bg.lane_bounds))
        return batch.CounterDraws(keys, bits)

    return build


class _Lane:
    """One ``run_many`` job and, once settled, its result or error."""

    __slots__ = (
        "graph",
        "algorithm",
        "guesses",
        "inputs",
        "seed",
        "salt",
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
        self.result = None
        self.error = None


def run_many(
    jobs,
    *,
    max_rounds=None,
    default_output=None,
    truncate=False,
    backend=None,
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
    backend:
        Resolved like a solo run.  Lanes fuse when the resolved
        backend is ``"compiled"`` and the algorithm is certified
        ``supports_fuse``; everything else runs solo, bit-identically.

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
    execution = resolve(backend)

    def run_solo(lane):
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

    fuse_ok = execution.backend == "compiled"
    groups, solo = {}, []
    for lane in lanes_list:
        if (
            not fuse_ok
            or not capabilities_of(lane.algorithm).get("supports_fuse")
            or lane.graph.compiled().n == 0
        ):
            solo.append(lane)
            continue
        try:
            # Lanes only share a slab under one schedule: the same
            # algorithm object AND the same guesses (round layouts of
            # the certified kernels are pure in the guesses).
            gkey = tuple(sorted(lane.guesses.items()))
        except TypeError:
            solo.append(lane)
            continue
        groups.setdefault((id(lane.algorithm), gkey), []).append(lane)
    for lane in solo:
        run_solo(lane)
    fused = False
    for members in groups.values():
        for at in range(0, len(members), LANE_WIDTH):
            chunk = members[at : at + LANE_WIDTH]
            if _run_chunk(
                chunk, cap=cap, truncating=truncating,
                default_output=default_output,
            ):
                fused = True
            else:
                for lane in chunk:
                    run_solo(lane)
    if fused:
        note_stepping("fused")
    for lane in lanes_list:
        if lane.error is not None:
            raise lane.error
    return [lane.result for lane in lanes_list]


def _run_chunk(lanes, *, cap, truncating, default_output):
    """Build, drive and settle one chunk; ``False`` if the factory
    declined (the caller then runs its lanes solo).

    One :func:`~repro.local.batch.drive_kernel` call runs the whole
    slab, exactly as a solo run's drive does.  Its commits are folded
    once for the whole slab (:func:`~repro.local.batch.fold_commits`),
    and each lane is settled from its slice with the solo
    :func:`~repro.local.batch.settle` semantics: its rounds are the
    slice's largest finish round.
    """
    algorithm = lanes[0].algorithm
    cgs = [lane.graph.compiled() for lane in lanes]
    bg = fused_slab_of(cgs)
    fused_inputs = {}
    for pos, lane in enumerate(lanes):
        for u, x in lane.inputs.items():
            fused_inputs[(pos, u)] = x
    setup = batch.BatchSetup(
        fused_inputs,
        dict(lanes[0].guesses),
        _fused_draw_builder(
            bg, [lane.seed for lane in lanes], [lane.salt for lane in lanes]
        ),
    )
    kernel = algorithm.batch(bg, setup)
    if kernel is None:
        return False
    bg.lane_sent[:] = 0
    events, _, messages = batch.drive_kernel(kernel, cap)
    attributed = int(bg.lane_sent.sum())
    if attributed != messages:
        raise ReproError(
            f"fused message attribution mismatch for {algorithm.name!r}: "
            f"kernel reported {messages}, lanes account for {attributed} — "
            "the kernel bypasses BatchGraph.charge and must not be "
            "certified fuse=True"
        )
    undone = () if kernel.done else kernel.undone_indices()
    round_of, values = batch.fold_commits(
        events, bg.n, undone, default_output, cap
    )
    bounds = bg.lane_bounds
    lane_rounds = np.maximum.reduceat(round_of, bounds[:-1]).tolist()
    rounds = round_of.tolist()
    values = values.tolist()
    # Stragglers per lane: undone is ascending, so each lane's are one run.
    undone = np.asarray(undone, dtype=np.int64)
    cuts = np.searchsorted(undone, bounds).tolist()
    starts = bounds.tolist()
    for pos, lane in enumerate(lanes):
        lo, hi = starts[pos], starts[pos + 1]
        labels = cgs[pos].labels
        stuck = undone[cuts[pos]:cuts[pos + 1]] - lo
        stuck = [labels[i] for i in stuck.tolist()]
        if stuck and not truncating:
            lane.error = NonTerminationError(algorithm.name, cap, stuck)
            continue
        lane.result = RunResult(
            dict(zip(labels, values[lo:hi])),
            dict(zip(labels, rounds[lo:hi])),
            lane_rounds[pos],
            int(bg.lane_sent[pos]),
            frozenset(stuck),
            None,
        )
    return True
