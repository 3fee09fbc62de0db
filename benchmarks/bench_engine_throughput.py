"""Engine throughput tracker: reference loop vs the batch kernels.

Measures the two execution strategies (DESIGN.md, backend contract +
D10 batch-step contract) on the workloads the reproduction actually
runs — Table-1 MIS and matching uniform transforms, plain Luby runs,
the cross-family workload sweep, incremental vs rebuild restriction,
and the matching-heavy dense line-graph substrate — and records
rounds/sec, messages/sec and the speedups into
``benchmarks/BENCH_engine.json``:

* ``reference`` — the seed-faithful specification stack;
* ``batch`` — the compiled CSR engine, which drives every registered
  batch kernel round-fused (a run without a kernel takes the reference
  loop, DESIGN.md D33).

Both draw the one counter random scheme (DESIGN.md D36).

``speedup_batch`` is reference/batch.

Usage
-----
``python benchmarks/bench_engine_throughput.py``            full suite, print table
``python benchmarks/bench_engine_throughput.py --update``   full suite, rewrite BENCH_engine.json
    in one pass, stamped with the commit, core count and numpy version;
    refuses to run from a checkout whose files differ from that commit
``python benchmarks/bench_engine_throughput.py --smoke``    quick subset; exit 1 if any
    recorded speedup regressed >20% against the committed baseline,
    exit 2 if the strategies stopped being bit-identical

The smoke gate compares *speedups* (a machine-relative quantity), not
absolute times, so it is stable across runner hardware.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.algorithms import TABLE1  # noqa: E402
from repro.algorithms.arboricity import h_partition  # noqa: E402
from repro.algorithms.fast_coloring import fast_coloring_rounds  # noqa: E402
from repro.algorithms.fast_mis import fast_mis  # noqa: E402
from repro.algorithms.greedy import greedy_coloring  # noqa: E402
from repro.algorithms.hash_luby import hash_luby_mis  # noqa: E402
from repro.algorithms.luby import luby_mis  # noqa: E402
from repro.bench import WORKLOADS, build_graph  # noqa: E402
from repro.core.domain import VirtualDomain  # noqa: E402
from repro.core.pruning import MatchingPruning  # noqa: E402
from repro.graphs import line_graph_spec  # noqa: E402
from repro.errors import NonTerminationError  # noqa: E402
from repro.local import (  # noqa: E402
    GraphDelta,
    SimGraph,
    flatten_outputs,
    open_session,
    run,
    run_many,
    run_restricted,
    run_virtual_batch,
    use_backend,
    virtualize,
)
from repro.local.batch import BatchGraph  # noqa: E402
from repro.local.fused import LANE_WIDTH  # noqa: E402
from repro.local.runner import last_stepping  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_engine.json"

#: A smoke run fails when a recorded speedup drops below this fraction
#: of the committed baseline's value.
REGRESSION_TOLERANCE = 0.80

BACKENDS = ("reference", "batch")

#: Speedup ratios recorded per unit (numerator strategy / denominator).
RATIOS = (
    ("speedup_batch", "reference", "batch"),
    # Fused unit (D16): b sequential solo runs / one b-lane fused
    # run_many — the multi-run dispatch amortization this PR exists
    # to track.  Only the dispatch-bound mis-fast row is gated; the
    # luby row (fused_gain_luby) is recorded as information — its solo
    # side is milliseconds-scale and too noisy for an 80% floor.
    ("fused_gain", "solo", "fused"),
    # Round-fused unit (D17, D30): reference-loop seconds under the
    # counter scheme / rf-drive seconds on the round-floor workloads
    # (long fixed schedules of cheap rounds) — the per-round Python
    # floor this ratio tracks.
    ("rf_gain", "reference", "rf"),
    # Session unit (D18): stateless cold rebuild-per-request seconds /
    # live-session mutate+rerun seconds on a churn workload — the
    # incremental CSR patch win the live-graph service exists for.
    ("session_gain", "cold-rebuild", "session"),
)


def _atomic_write_text(path, text):
    """Temp-file + rename: a crashed or killed ``--update`` run can
    never leave a truncated ``BENCH_engine.json`` behind."""
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _backend_context(backend):
    """Scope pinning one of the two execution strategies."""
    return use_backend(
        "reference" if backend == "reference" else "compiled"
    )


def _best(fn, reps):
    best = None
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best


def _per_backend(make_fn, reps, backends=BACKENDS, warm=True):
    """Time ``make_fn(backend)()`` under each strategy; return stats."""
    out = {}
    for backend in backends:
        with _backend_context(backend):
            fn, meta = make_fn(backend)
            if warm:
                fn()  # warm caches (CSR compile, schedule memos)
            seconds = _best(fn, reps)
        entry = {"seconds": round(seconds, 6)}
        entry.update(meta())
        if "rounds" in entry and entry["seconds"] > 0:
            entry["rounds_per_sec"] = round(entry["rounds"] / entry["seconds"], 1)
        if "messages" in entry and entry["seconds"] > 0:
            entry["messages_per_sec"] = round(
                entry["messages"] / entry["seconds"], 1
            )
        out[backend] = entry
    for name, top, bottom in RATIOS:
        if top in out and bottom in out:
            out[name] = round(
                out[top]["seconds"] / out[bottom]["seconds"], 2
            )
    return out


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------

def unit_plain_luby(n, seeds, reps):
    """bench_table1_luby-style: plain uniform Luby runs, gnp-sparse."""
    graph = build_graph(WORKLOADS["gnp-sparse"](n, seed=2), seed=2)
    algo = luby_mis()

    def make(backend):
        state = {}

        def fn():
            rounds = messages = 0
            for seed in seeds:
                result = run(graph, algo, seed=seed)
                rounds += result.rounds
                messages += result.messages
            state["rounds"] = rounds
            state["messages"] = messages

        return fn, lambda: dict(state)

    return _per_backend(make, reps)


def unit_table1_row(row, n, seeds, reps):
    """A Table-1 row's uniform transform (alternation) on gnp-sparse.

    Records the per-step backend attribution of the last run
    (``StepRecord.backends`` aggregated by ``backend_summary``), so the
    committed baseline shows whether an alternation's guess *and*
    pruning runs actually took the batched path.
    """
    graph = build_graph(WORKLOADS["gnp-sparse"](n, seed=2), seed=2)

    def make(backend):
        _, _, uniform = TABLE1[row].build()
        state = {}

        def fn():
            rounds = steps = 0
            for seed in seeds:
                result = uniform.run(graph, seed=seed)
                rounds += result.rounds
                steps += len(result.steps)
            state["rounds"] = rounds
            state["steps"] = steps
            state["step_backends"] = {
                key: entry["steps"]
                for key, entry in sorted(result.backend_summary().items())
            }

        return fn, lambda: dict(state)

    return _per_backend(make, reps)


def unit_workload_sweep(n, reps):
    """One Luby run per workload family — cross-family throughput."""
    graphs = [
        build_graph(WORKLOADS[name](n, seed=3), seed=3)
        for name in sorted(WORKLOADS)
    ]
    algo = luby_mis()

    def make(backend):
        state = {}

        def fn():
            rounds = messages = 0
            for graph in graphs:
                result = run(graph, algo, seed=5)
                rounds += result.rounds
                messages += result.messages
            state["rounds"] = rounds
            state["messages"] = messages

        return fn, lambda: dict(state)

    return _per_backend(make, reps)


def unit_subgraph_cascade(n, reps):
    """Alternation-style restriction cascade: keep 85% per step.

    The reference backend takes the rebuild path, the batch strategy
    the incremental CSR path (both produce identical graphs — the
    equivalence suite asserts it); ``ops`` counts restriction steps.
    """
    base = build_graph(WORKLOADS["gnp-sparse"](n, seed=4), seed=4)

    def make(backend):
        state = {}

        def fn():
            graph = base
            ops = 0
            while graph.n > 8:
                keep = set(list(graph.nodes)[: max(8, (graph.n * 85) // 100)])
                graph = graph.subgraph(keep)
                ops += 1
            state["ops"] = ops
            state["ops_per_sec"] = None  # filled below from seconds

        return fn, lambda: dict(state)

    out = _per_backend(make, reps)
    for backend in BACKENDS:
        entry = out.get(backend)
        if entry and entry.get("ops"):
            entry["ops_per_sec"] = round(entry["ops"] / entry["seconds"], 1)
    return out


def unit_virtual_linegraph(n, reps):
    """Line-graph MIS through the virtual layer (matching-row substrate)."""
    graph = build_graph(WORKLOADS["gnp-sparse"](n, seed=6), seed=6)
    spec = line_graph_spec(graph)
    algo = luby_mis()

    def make(backend):
        state = {}

        def fn():
            domain = VirtualDomain(graph, spec)
            outputs, charged = domain.run_restricted(algo, 40, seed=9)
            state["rounds"] = charged
            state["virtual_nodes"] = len(outputs)

        return fn, lambda: dict(state)

    return _per_backend(make, reps)


def unit_fused_sweep(n, b, reps):
    """Fused multi-run engine (D16, D32): one b-lane slab vs b solo runs.

    The seed-sweep workload the fused engine exists for — ``b``
    independent runs of a Table-1 MIS row over the same gnp-sparse
    graph, measured as ``b`` sequential round-fused solo runs
    (``solo``) and as one :func:`repro.local.run_many` call packing
    them into block-diagonal slabs of up to ``LANE_WIDTH`` lanes
    (``fused``).  Every unit passes ``b = 32 = LANE_WIDTH`` jobs, which
    fill exactly one slab.  Both sides run the same driver,
    ``batch.drive_kernel`` — once per solo run, once per slab — so the
    gain is the slab's amortization alone.

    Two rows bracket the regime (DESIGN.md D16): ``mis-fast`` (the
    Kuhn–Wattenhofer coloring + color-class sweep, hundreds of light
    lockstep rounds — the per-round *dispatch*-dominated case fusion
    amortizes) is the tracked ``fused_gain``; ``luby`` (a handful of
    heavy edge-slab rounds, per-round *vector*-dominated, so the slab
    step replicates each lane's work and only the dispatch share
    amortizes) is recorded alongside as ``fused_gain_luby``.  Every
    lane is checked bit-identical to its solo run before anything is
    recorded — a baseline can never commit a diverging fused
    configuration.
    """
    graph = build_graph(WORKLOADS["gnp-sparse"](n, seed=2), seed=2)
    mis_guesses = {"m": graph.edge_count(), "Delta": graph.max_degree}
    rows = (
        ("", fast_mis(), mis_guesses),
        ("_luby", luby_mis(), None),
    )
    seeds = tuple(range(1, b + 1))

    def signature_of(results):
        return [
            (r.rounds, r.messages, r.outputs, r.finish_round)
            for r in results
        ]

    out = {}
    with use_backend("compiled"):
        for suffix, algo, guesses in rows:
            opts = {"guesses": guesses} if guesses else {}
            jobs = [(graph, algo, dict(opts, seed=s)) for s in seeds]
            state = {}

            def solo_fn():
                results = [
                    run(graph, algo, seed=s, guesses=guesses) for s in seeds
                ]
                state["rounds"] = sum(r.rounds for r in results)
                state["messages"] = sum(r.messages for r in results)
                state["signature"] = signature_of(results)

            def fused_fn():
                results = run_many(jobs)
                state["rounds"] = sum(r.rounds for r in results)
                state["messages"] = sum(r.messages for r in results)
                state["signature"] = signature_of(results)

            signatures = {}
            for name, fn in (("solo", solo_fn), ("fused", fused_fn)):
                fn()  # warm caches (CSR compile, slab build)
                seconds = _best(fn, reps)
                signatures[name] = state.pop("signature")
                entry = {"seconds": round(seconds, 6), "lanes": LANE_WIDTH}
                entry.update(state)
                if entry["seconds"] > 0:
                    entry["rounds_per_sec"] = round(
                        entry["rounds"] / entry["seconds"], 1
                    )
                out[name + suffix] = entry
            if signatures["solo"] != signatures["fused"]:
                raise SystemExit(
                    f"fused(b={b}) {algo.name!r} lanes diverged from solo "
                    "runs — refusing to record"
                )
            out["fused_gain" + suffix] = round(
                out["solo" + suffix]["seconds"]
                / out["fused" + suffix]["seconds"],
                2,
            )
    return out


def unit_rf(n, reps, alt_n=150):
    """Round-fused driver (D17, D30): the reference loop vs the rf drive.

    The round-floor scenario, in two halves timed together: H-partition
    peeling with a deliberately stretched ``ñ`` guess (``n⁸``, the
    overshooting-guess regime the Theorem-2 ladder produces naturally →
    an ~8× longer fixed lockstep schedule of cheap bincount rounds, the
    regime where the phase driver's fixed-point early exit and the
    hoisted per-round ledger bookkeeping dominate), and the Theorem-2
    Luby alternation at small ``alt_n`` (every ``B_i = (A_i ; P)`` step
    is a handful of cheap pruner/decision rounds).

    ``reference`` runs the reference loop (what a compiled run without
    a kernel executes, D33); ``rf`` drives the
    batch kernels round-fused.  Both configurations are checked
    bit-identical before anything is recorded.  ``rf_gain`` = reference
    seconds / rf seconds is the tracked (smoke-gated) number.
    """
    graph = build_graph(WORKLOADS["gnp-sparse"](n, seed=4), seed=4)
    small = build_graph(WORKLOADS["gnp-sparse"](alt_n, seed=4), seed=4)
    peel = h_partition()
    peel_guesses = {"a": 2, "n": n**8}

    def fn(state):
        rounds = messages = 0
        signature = []
        for seed in (1, 2):
            got = run(graph, peel, seed=seed, guesses=peel_guesses)
            rounds += got.rounds
            messages += got.messages
            signature.append(
                (got.rounds, got.messages, got.outputs, got.finish_round)
            )
        _, _, uniform = TABLE1["luby"].build()
        alt = uniform.run(small, seed=1)
        rounds += alt.rounds
        signature.append((alt.rounds, alt.outputs))
        state.update(rounds=rounds, messages=messages, signature=signature)

    # The two sides are timed in alternation, so a slow spell of the
    # host hits both; the rf side takes milliseconds, so each of its
    # turns is the best of ten calls.
    sides = (("reference", "reference", 1), ("rf", "compiled", 10))
    states = {key: {} for key, _, _ in sides}
    best = {}
    for turn in range(reps + 1):  # turn 0 warms caches (CSR, memos)
        for key, backend, calls in sides:
            with use_backend(backend):
                seconds = _best(lambda: fn(states[key]), calls)
            if turn:
                best[key] = min(best.get(key, seconds), seconds)
    out = {}
    signatures = {}
    for key, _, _ in sides:
        state = states[key]
        signatures[key] = state.pop("signature")
        entry = {"seconds": round(best[key], 6)}
        entry.update(state)
        if entry["seconds"] > 0:
            entry["rounds_per_sec"] = round(
                entry["rounds"] / entry["seconds"], 1
            )
        out[key] = entry
    if signatures["reference"] != signatures["rf"]:
        raise SystemExit(
            "round-fused drive diverged from the reference loop — "
            "refusing to record"
        )
    out["rf_gain"] = round(
        out["reference"]["seconds"] / out["rf"]["seconds"], 2
    )
    return out


def _churn_script(base, requests, churn, seed):
    """Deterministic edge-churn request stream over ``base``.

    Returns ``[(delta, snapshot), ...]``: per request, a small
    :class:`GraphDelta` (a few edge deletes + inserts, node set fixed)
    plus a networkx snapshot of the topology *after* that delta — the
    full-graph payload a stateless service would have to re-ingest.
    """
    import networkx as nx

    rnd = random.Random(seed)
    truth = nx.Graph(base)
    nodes = list(truth.nodes())
    script = []
    for _ in range(requests):
        dels = rnd.sample(list(truth.edges()), churn // 2)
        gone = {frozenset(e) for e in dels}
        adds = []
        while len(adds) < churn - len(dels):
            u, v = rnd.sample(nodes, 2)
            key = frozenset((u, v))
            if truth.has_edge(u, v) or key in gone:
                continue
            if key in {frozenset(e) for e in adds}:
                continue
            adds.append((u, v))
        truth.remove_edges_from(dels)
        truth.add_edges_from(adds)
        script.append((
            GraphDelta(add_edges=adds, del_edges=dels),
            nx.Graph(truth),
        ))
    return script


def unit_session_churn(n, reps, requests=8, churn=4):
    """Live-graph session service vs stateless rebuilds (D18).

    The serving scenario the session exists for: a long-lived engine
    holds a graph under churn, and each request applies a small delta
    (``churn`` edge flips) then re-answers a Luby MIS query.  The
    ``session`` side mutates one :class:`SimulationSession` in place —
    incremental CSR row patch, no networkx round-trip, no identity
    re-sort.  The ``cold-rebuild`` side is what the batch engines force
    on a service: re-ingest the whole mutated topology from networkx
    and run from scratch, every request.

    Every request is checked bit-identical across the two sides —
    outputs and round counts — before anything is timed; divergence
    refuses to record.  ``session_gain`` (cold seconds / session
    seconds) is the acceptance-gated ≥3× number.
    """
    base = WORKLOADS["gnp-sparse"](n, seed=21)
    graph = build_graph(base, seed=21)
    idents = dict(graph.ident)
    script = _churn_script(base, requests, churn, seed=97)
    algo = luby_mis()

    def session_once():
        signature = []
        with open_session(graph) as session:
            for delta, _ in script:
                session.mutate(delta)
                result = session.rerun(algo, seed=5)
                signature.append((result.rounds, result.outputs))
        return signature

    def cold_once():
        signature = []
        for _, snapshot in script:
            rebuilt = SimGraph.from_networkx(snapshot, idents=idents)
            result = run(rebuilt, algo, seed=5)
            signature.append((result.rounds, result.outputs))
        return signature

    out = {}
    with _backend_context("batch"):
        # Warm-up doubles as the identity gate: per request, the live
        # session's answer must equal the cold rebuild's, bit for bit.
        warm = session_once()
        if warm != cold_once():
            raise SystemExit(
                "live-session reruns diverged from cold rebuilds — "
                "refusing to record"
            )
        state = {}
        rounds = sum(r for r, _ in warm)
        out["session"] = {
            "seconds": round(
                _best(lambda: state.update(s=session_once()), reps), 6
            ),
            "requests": len(script),
            "rounds": rounds,
        }
        out["cold-rebuild"] = {
            "seconds": round(
                _best(lambda: state.update(c=cold_once()), reps), 6
            ),
            "requests": len(script),
            "rounds": rounds,
        }
        if state["s"] != state["c"]:
            raise SystemExit(
                "timed session/cold signatures diverged — refusing to record"
            )
    out["session_gain"] = round(
        out["cold-rebuild"]["seconds"] / out["session"]["seconds"], 2
    )
    return out


def unit_matching_dense(n, reps):
    """Matching-heavy scenario: fast MIS over a *dense* line graph.

    Denser gnp (average degree ~24) and larger n than the Table-1 unit,
    so the per-virtual-node algorithm floor the batch kernels remove is
    unmistakable.  One full-budget restricted run of the matching row's
    inner engine; the reference column is omitted (the seed stack needs
    minutes here), so the batch seconds are recorded as information.
    """
    graph = build_graph(WORKLOADS["gnp-dense"](n, seed=6), seed=6)
    spec = line_graph_spec(graph)
    guesses = {
        "Delta": max(1, 2 * graph.max_degree - 2),
        "m": (graph.max_ident + 2) ** 2,
    }
    budget = (
        fast_coloring_rounds(guesses["m"], guesses["Delta"])
        + guesses["Delta"]
        + 2
    )

    def make(backend):
        state = {}

        def fn():
            domain = VirtualDomain(graph, spec)
            outputs, charged = domain.run_restricted(
                fast_mis(), budget, seed=9, guesses=guesses
            )
            state["rounds"] = charged
            state["virtual_nodes"] = len(outputs)
            state["in_set"] = sum(1 for v in outputs.values() if v == 1)

        return fn, lambda: dict(state)

    return _per_backend(make, reps, backends=("batch",), warm=False)


def _same_run(a, b):
    """Two runs agree on outputs, rounds, messages and finish rounds."""
    return (
        a.outputs == b.outputs
        and a.rounds == b.rounds
        and a.messages == b.messages
        and a.finish_round == b.finish_round
    )


def _same_arrays(x, y, fields):
    """``x`` and ``y`` hold equal int64 arrays under every name in
    ``fields``."""
    return all(
        getattr(x, field).dtype == getattr(y, field).dtype == numpy.int64
        and numpy.array_equal(getattr(x, field), getattr(y, field))
        for field in fields
    )


def _same_graph(a, b):
    """Two graphs agree on labels, identities, adjacency and every CSR
    array of their ``CompiledGraph``; ``a``'s owners and degrees also
    against a fresh ``BatchGraph`` of ``b``'s CSR."""
    ca, cb = a.compiled(), b.compiled()
    fresh = BatchGraph(cb.labels, cb.idents, cb.offsets, cb.neigh)
    return (
        a.nodes == b.nodes
        and a.ident == b.ident
        and a.adj == b.adj
        and ca.labels == cb.labels
        and ca.idents == cb.idents
        and _same_arrays(ca, cb, ("offsets", "neigh", "rev", "degrees", "owner"))
        and _same_arrays(ca, fresh, ("offsets", "neigh", "owner", "degrees"))
    )


def _same_line_graph(a, b):
    """Two line-graph specs agree on everything the batched virtual
    driver reads: batch graph, host index, relays and dilation."""
    x, y = a._batch, b._batch
    return (
        list(x.labels) == list(y.labels)
        and x.idents == y.idents
        and _same_arrays(x, y, ("offsets", "neigh", "owner", "degrees"))
        and numpy.array_equal(a.host_index, b.host_index)
        and all(numpy.array_equal(p, q) for p, q in zip(a.relays, b.relays))
        and a.dilation == b.dilation
    )


def check_bit_identity(n=120):
    """Quick identity check across every stepping strategy (smoke net).

    Covers the two stepping strategies — the ``batch ≡ reference``
    contract, where ``batch`` is the round-fused drive of every kernel
    family, lockstep schedules cut by their cap included — plus fused
    lanes, whole alternations (the matching row's on
    the line-graph virtual domain among them), the restrictions of one
    alternation and their derived line graphs against their rebuilds,
    and live sessions.
    """
    graph = build_graph(WORKLOADS["gnp-sparse"](n, seed=8), seed=8)
    guesses = {"m": graph.max_ident, "Delta": graph.max_degree}
    # Round-fused identity (D17, D30): the batch strategy drives every
    # kernel family round-fused — fixed-point (Luby, fast MIS, D37) and
    # phase-scheduled (h-partition) — and each drive must equal the
    # reference loop.
    jobs = (
        (luby_mis(), None),
        (fast_mis(), guesses),
        (h_partition(), {"a": 2, "n": 1 << 24}),
    )
    for algo, g in jobs:
        results = []
        for backend in BACKENDS:
            with _backend_context(backend):
                results.append(run(graph, algo, seed=3, guesses=g))
                if backend == "batch" and last_stepping() != "rf":
                    return False
        first = results[0]
        for other in results[1:]:
            if not _same_run(first, other):
                return False
    # Cut-cap lockstep identity (D35): a cap below a lockstep schedule
    # settles by arithmetic and runs no kernel code, so h-partition
    # (schedule 25) and P_MM (schedule 3) truncated below it must equal
    # the reference loop's truncated run, messages included.
    draw = random.Random(8).choice
    tentative = {u: (None, draw((0, 1, 2))) for u in sorted(graph.nodes)}
    cut_jobs = (
        (h_partition(), {"a": 2, "n": 1 << 24}, None, 3),
        (MatchingPruning().algorithm(), None, tentative, 2),
    )
    for algo, g, inputs, cap in cut_jobs:
        results = []
        for backend in BACKENDS:
            with _backend_context(backend):
                results.append(run_restricted(
                    graph, algo, cap, guesses=g, inputs=inputs,
                ))
                if backend == "batch" and last_stepping() != "rf":
                    return False
        first, other = results
        if not _same_run(first, other) or first.truncated != other.truncated:
            return False
    # Fused identity (D16): every lane of a multi-run slab — mixed
    # algorithms, mixed seeds — must equal its solo run; a lane
    # divergence fails the gate with exit 2.
    algo = luby_mis()
    lanes = [(graph, algo, {"seed": s}) for s in (3, 4, 5)]
    lanes.append((graph, fast_mis(), {"guesses": guesses, "seed": 3}))
    fused = run_many(lanes)
    for (g, a, opts), got in zip(lanes, fused):
        solo = run(
            g, a, seed=opts["seed"], guesses=opts.get("guesses")
        )
        if not _same_run(solo, got):
            return False
    # Guess-sweep identity (D34): a chunk shaped like perfbench's
    # guess-sweep at k = 2 — fast MIS at Δ̃ = 4Δ, m̃ = m³ and hash-Luby
    # at ñ = n³ — runs the longest KW schedules and the most Luby slot
    # compactions; every lane must equal its solo run on both strategies.
    over = {"Delta": 4 * graph.max_degree, "m": graph.max_ident**3}
    sweep = [
        (graph, a, {"guesses": g, "seed": s})
        for a, g in ((fast_mis(), over), (hash_luby_mis(), {"n": graph.n**3}))
        for s in (3, 4)
    ]
    for (g, a, opts), got in zip(sweep, run_many(sweep)):
        for backend in BACKENDS:
            with _backend_context(backend):
                if not _same_run(run(g, a, **opts), got):
                    return False
    # Fixed-point identity (D37): at Δ̃ = 4Δ the coloring kernel reaches
    # the KW fixed point phases before its schedule ends and settles
    # those phases by arithmetic.  A fused fast-MIS chunk cut in the last KW
    # round, inside those settled phases, must equal each lane's solo
    # run on both strategies, truncated sets included.
    mis = fast_mis()
    cap = fast_coloring_rounds(over["m"], over["Delta"]) - 1
    chunk = [(graph, mis, {"guesses": over, "seed": s}) for s in (3, 4)]
    cut = run_many(chunk, max_rounds=cap, default_output=-1)
    if last_stepping() != "fused":
        return False
    for (g, a, opts), got in zip(chunk, cut):
        for backend in BACKENDS:
            with _backend_context(backend):
                solo = run(g, a, max_rounds=cap, default_output=-1, **opts)
            if not _same_run(solo, got) or solo.truncated != got.truncated:
                return False
    # Shared-identity identity (D40): hash-Luby draws one digest per
    # distinct identity on the frontier and gathers it to every lane
    # holding that identity.  A chunk over the graph and two induced
    # subgraphs (overlapping identity sets, different slab positions),
    # cut mid-phase at the second decision round with default None,
    # must equal each lane's solo run on both strategies, truncated
    # sets included; a draw keyed by slab position diverges here.
    order = sorted(graph.nodes, key=graph.ident.__getitem__)
    shared = (
        graph,
        graph.subgraph(order[::2]),
        graph.subgraph(order[len(order) // 3:]),
    )
    hashed = hash_luby_mis()
    chunk = [(g, hashed, {"guesses": {"n": graph.n**3}}) for g in shared]
    cut = run_many(chunk, max_rounds=3, truncate=True)
    if last_stepping() != "fused" or not any(r.truncated for r in cut):
        return False
    for (g, a, opts), got in zip(chunk, cut):
        for backend in BACKENDS:
            with _backend_context(backend):
                solo = run(g, a, max_rounds=3, truncate=True, **opts)
            if not _same_run(solo, got) or solo.truncated != got.truncated:
                return False
    # Near misses the fixed-point test must refuse: one-group phases
    # entered with carried announcements (Δ̃ = 2 is below this graph's
    # degree), and a proper input coloring that is not first-fit (the
    # greedy classes relabelled), whose first KW phase recolors.
    greedy = greedy_coloring(graph)
    relabel = list(range(1, max(greedy.values()) + 1))
    random.Random(8).shuffle(relabel)
    relabelled = {u: {"color": relabel[c - 1]} for u, c in greedy.items()}
    near = (
        ({"m": graph.max_ident, "Delta": 2}, None),
        ({"m": 4 * (graph.max_degree + 1), "Delta": graph.max_degree},
         relabelled),
    )
    for near_guesses, inputs in near:
        results = []
        for backend in BACKENDS:
            with _backend_context(backend):
                results.append(run(
                    graph, mis, seed=3, guesses=near_guesses, inputs=inputs,
                ))
        if not _same_run(*results):
            return False
    # Whole-alternation identity: guess runs AND pruner runs must agree
    # across every stepping strategy (D11 pruner batch contract).
    alternations = []
    for backend in BACKENDS:
        with _backend_context(backend):
            _, _, uniform = TABLE1["luby"].build()
            alternations.append(uniform.run(graph, seed=3))
    first = alternations[0]
    for other in alternations[1:]:
        if first.outputs != other.outputs or first.rounds != other.rounds:
            return False
    # Restriction identity: both strategies' alternations above compare
    # outputs only, and a wrong CompiledGraph.restrict shows there only
    # where it changes them (or as a crash in the line-graph build).
    # The keep sets of the matching row's uniform alternation, recorded
    # on the reference strategy (which rebuilds every subgraph), are
    # replayed as a chain through subgraph and subgraph_rebuild, and
    # every child must match: every int64 CSR array and the adjacency.
    keeps = []
    subgraph = SimGraph.subgraph

    def recording(self, keep):
        keeps.append(frozenset(keep))
        return subgraph(self, keep)

    SimGraph.subgraph = recording
    try:
        with _backend_context("reference"):
            TABLE1["matching"].build()[2].run(graph, seed=3)
    finally:
        SimGraph.subgraph = subgraph
    if not keeps:
        return False
    # Each child of the chain derives its line graph from its parent's
    # (D42); it must equal a fresh build on the rebuilt graph.  A second
    # chain drops only the largest identity, which re-encodes every
    # virtual identity.
    derived = 0
    for chain in (keeps, [frozenset(graph.nodes[:-1])]):
        line_graph_spec(graph)
        inc = ref = graph
        for keep in chain:
            inc, ref = inc.subgraph(keep), ref.subgraph_rebuild(keep)
            if not _same_graph(inc, ref):
                return False
            derived += inc.compiled()._line_from is not None
            if not _same_line_graph(line_graph_spec(inc), line_graph_spec(ref)):
                return False
    if derived < 2:
        return False
    # Virtual-domain identity: the matching row's uniform run drives
    # fast MIS on the line graph (array-built spec, lazy routing plans)
    # through the batched virtual driver or the host processes; every
    # strategy must agree.  Its budgets leave the host commit replay and
    # the per-host draws unobservable, so truncated Luby runs on the
    # same line graph cover those.
    spec = line_graph_spec(graph)
    matchings = []
    truncated = []
    for backend in BACKENDS:
        with _backend_context(backend):
            _, _, uniform = TABLE1["matching"].build()
            matchings.append(uniform.run(graph, seed=3))
            domain = VirtualDomain(graph, spec)
            truncated.append([
                domain.run_restricted(luby_mis(), budget, seed=3)
                for budget in (2, 4, 8)
            ])
    first = matchings[0]
    for other in matchings[1:]:
        if first.outputs != other.outputs or first.rounds != other.rounds:
            return False
    if truncated[1:] != truncated[:1] * (len(truncated) - 1):
        return False
    # Relay-window identity: a relay commits one round after the last
    # announcement of its client hosts.  At dilation 2 every
    # announcement is even, so a host committing at an odd round is a
    # relay held by a client, and one round earlier the cap lies
    # between the relay's own announcement and its client's
    # announcement + 1.  A line-graph fast-MIS run truncated there must
    # give the same outputs and leave the same hosts unfinished on both
    # strategies.  Δ̃ = 2 keeps the schedule short (59 physical rounds).
    short = {"m": graph.max_ident, "Delta": 2}
    hosts = virtualize(spec, mis)
    full = run(graph, hosts, guesses=short, seed=3, backend="reference")
    held = [r for r in full.finish_round.values() if r % 2]
    if spec.dilation != 2 or not held:
        return False
    cap = min(held) - 1
    cut = run_restricted(
        graph, hosts, cap, guesses=short, seed=3, default_output=None,
        backend="reference",
    )
    batched = run_virtual_batch(
        spec, mis, graph, cap=cap, virt_inputs={}, guesses=short, seed=3,
        salt=0, default_output=-1,
    )
    if batched != flatten_outputs(spec, cut.outputs, default=-1):
        return False
    unfinished = []
    for backend in BACKENDS:
        with _backend_context(backend):
            try:
                VirtualDomain(graph, spec).run_full(
                    mis, guesses=short, seed=3, max_rounds=cap
                )
            except NonTerminationError as exc:
                unfinished.append(exc.unfinished)
    if len(unfinished) != 2 or unfinished[0] != unfinished[1]:
        return False
    # Live-session identity (D18): a mutate-then-rerun on a long-lived
    # session must equal a cold run on a from-scratch rebuild of the
    # mutated topology — per strategy and per fused lane.  The session
    # patches the CSR row slices incrementally, so this is the gate that
    # the patch path stays bit-exact, arrays included.
    nodes = sorted(graph.nodes)
    truth = graph.to_networkx()
    gone = next(iter(truth.edges()))
    grown = next(
        (a, b)
        for a in nodes
        for b in nodes
        if a < b and not truth.has_edge(a, b)
    )
    fresh, fresh_ident = max(nodes) + 1, graph.max_ident + 11
    delta = GraphDelta(
        add_nodes={fresh: fresh_ident},
        del_edges=[gone],
        add_edges=[grown, (fresh, nodes[0])],
    )
    truth.remove_edge(*gone)
    truth.add_node(fresh)
    truth.add_edge(*grown)
    truth.add_edge(fresh, nodes[0])
    idents = dict(graph.ident)
    idents[fresh] = fresh_ident
    oracle = SimGraph.from_networkx(truth, idents=idents)
    pairs = []
    for backend in BACKENDS:
        # A session resolves its execution record at open, so each
        # strategy gets its own session.
        with _backend_context(backend), \
                open_session(graph) as session:
            session.mutate(delta)
            pairs.append((
                session.rerun(luby_mis(), seed=3),
                run(oracle, luby_mis(), seed=3),
            ))
    with open_session(graph) as session:
        session.mutate(delta)
        # The spliced CSR itself, not only the runs that read it: a
        # wrong reverse port changes no kernel run.
        if not _same_graph(session.graph, oracle):
            return False
        live_lanes = session.rerun_many(
            [(luby_mis(), {"seed": s}) for s in (3, 4)]
        )
        cold_lanes = run_many(
            [(oracle, luby_mis(), {"seed": s}) for s in (3, 4)],
        )
        pairs.extend(zip(live_lanes, cold_lanes))
    return all(_same_run(live, cold) for live, cold in pairs)


def full_suite():
    return {
        "table1-mis-n2000": unit_table1_row("mis-nonly", 2000, (1, 2, 3), reps=3),
        "table1-luby-n2000": unit_plain_luby(2000, (1, 2, 3, 4, 5), reps=3),
        "table1-luby-wrap-n2000": unit_table1_row("luby", 2000, (1,), reps=3),
        "table1-matching-n2000": unit_table1_row("matching", 2000, (1,), reps=1),
        # Pruning-heavy alternation: multi-seed Theorem-2 Luby pipeline,
        # where every step runs the P(2,1) pruner — the floor the D11
        # pruner kernels remove.
        "uniform-alternation-n2000": unit_table1_row(
            "luby", 2000, (1, 2, 3), reps=3
        ),
        # Arboricity orchestration: H-partition peeling + nested uniform
        # fast-MIS per class + per-step MIS pruning, all batched.
        "arboricity-n1200": unit_table1_row(
            "mis-arb-product", 1200, (1,), reps=3
        ),
        "matching-dense-n1800": unit_matching_dense(1800, reps=1),
        # Fused multi-run engine (D16): 32-seed Table-1 MIS sweeps as
        # one block-diagonal slab vs 32 sequential solo batch runs.
        # The n=60 instance is the dispatch-floor regime the engine
        # exists for (the mis-fast row's Linial fallback runs thousands
        # of light lockstep rounds there, so per-round Python dispatch
        # dominates and fusing b runs amortizes it ~1/b) — fused_gain
        # on that row is the acceptance-gated ≥4× number.  The n=500
        # instance brackets the other end: per-round edge-slab vector
        # work dominates, each lane's work is replicated in the slab,
        # and only the dispatch share amortizes.
        "fused-sweep-n60xb32": unit_fused_sweep(60, 32, reps=3),
        "fused-sweep-n500xb32": unit_fused_sweep(500, 32, reps=3),
        # Round-fused driver (D17, D30): the per-round Python floor on
        # long-fixed-schedule workloads — stretched H-partition peeling
        # plus a pruner-heavy small-n alternation, the reference loop vs
        # one rf drive per run (rf_gain is the tracked number).
        "roundfloor-n1200": unit_rf(1200, reps=3),
        # Live-graph session service (D18): per-request small delta +
        # rerun on a long-lived session vs a stateless cold rebuild of
        # the whole topology per request — session_gain is the
        # acceptance-gated ≥3× number, and the unit refuses to record
        # if a session rerun ever diverges from its rebuild oracle.
        "session-churn-n2000": unit_session_churn(2000, reps=3),
        "workload-sweep-n600": unit_workload_sweep(600, reps=3),
        "subgraph-cascade-n2000": unit_subgraph_cascade(2000, reps=3),
        "virtual-linegraph-n400": unit_virtual_linegraph(400, reps=3),
    }


#: Smoke sizing: large enough that per-edge work dominates fixed
#: overheads (speedup ratios stabilize), small enough for a CI gate.
SMOKE_N = 800
SMOKE_REPS = 5

SMOKE_UNITS = {
    "smoke-mis": lambda: unit_table1_row("mis-nonly", SMOKE_N, (1,), reps=SMOKE_REPS),
    "smoke-luby": lambda: unit_plain_luby(SMOKE_N, (1, 2), reps=SMOKE_REPS),
    "smoke-subgraph": lambda: unit_subgraph_cascade(SMOKE_N, reps=SMOKE_REPS),
    "smoke-matching": lambda: unit_table1_row("matching", 300, (1,), reps=2),
    # Pruning-heavy gate unit: every step of the Theorem-2 Luby
    # alternation runs the P(2,1) pruner, so this guards the batched
    # pruner kernels (D11) the way smoke-matching guards the virtual
    # driver.
    "smoke-alternation": lambda: unit_table1_row(
        "luby", SMOKE_N, (1, 2), reps=SMOKE_REPS
    ),
    # Fused gate unit (D16): the seed-sweep slab vs sequential solo
    # runs, at the dispatch-floor size where the amortization is the
    # point (mis-fast at n=60: thousands of light lockstep rounds).
    # fused_gain falling below 80% of the baseline means the multi-run
    # dispatch amortization regressed; the unit refuses to record if
    # any lane stops being bit-identical to its solo run, and
    # check_bit_identity diffs fused lanes on every smoke run.
    "smoke-fused": lambda: unit_fused_sweep(60, 32, reps=2),
    # Round-fused gate unit (D17, D30): the same round-floor scenario
    # at smoke size.  rf_gain falling below 80% of the baseline means
    # the rf drive stopped amortizing the per-round floor; the unit
    # refuses to record if an rf drive stops being bit-identical to
    # the reference loop, and check_bit_identity diffs every kernel
    # family's rf drive against the reference loop on every smoke run.
    "smoke-roundfuse": lambda: unit_rf(600, reps=2, alt_n=100),
    # Live-session gate unit (D18): the churn scenario at smoke size.
    # session_gain falling below 80% of the baseline means the
    # incremental CSR patch stopped beating stateless rebuilds; the
    # unit refuses to record if a session rerun ever diverges from its
    # cold-rebuild oracle, and check_bit_identity diffs a mutated
    # session against a from-scratch build on every smoke run.
    "smoke-session": lambda: unit_session_churn(SMOKE_N, reps=2),
}


def smoke_suite(only=None):
    names = SMOKE_UNITS if only is None else {k: SMOKE_UNITS[k] for k in only}
    return {name: make() for name, make in names.items()}


def render(units):
    lines = [
        f"{'unit':24} {'reference':>11} {'batch':>11} {'ref/bat':>8}",
        "-" * 57,
    ]

    def cell(entry):
        if entry is None:
            return f"{'-':>11}"
        return f"{entry['seconds'] * 1000:9.1f}ms"

    def ratio(value):
        return f"{value:7.2f}x" if value is not None else f"{'-':>8}"

    for name, entry in units.items():
        lines.append(
            f"{name:24} {cell(entry.get('reference'))}"
            f" {cell(entry.get('batch'))} {ratio(entry.get('speedup_batch'))}"
        )
        if "fused_gain" in entry:
            lines.append(
                f"  fused vs solo: mis-fast={entry['fused_gain']:.2f}x"
                f"  luby={entry.get('fused_gain_luby', 0):.2f}x"
                f"  (b={entry['fused']['lanes']})"
            )
        if "rf_gain" in entry:
            lines.append(
                f"  rf drive vs reference loop: {entry['rf_gain']:.2f}x"
            )
        if "session_gain" in entry:
            lines.append(
                f"  session vs cold rebuild: {entry['session_gain']:.2f}x"
                f" ({entry['session']['requests']} churn requests)"
            )
    return "\n".join(lines)


def _provenance(baseline):
    """``(commit, None)`` for a checkout that matches its commit, else
    ``(None, reason)``.

    A recorded baseline must describe committed code, so every file git
    sees — tracked changes and untracked files alike — must be clean;
    only the baseline being rewritten is exempt.
    """
    root = Path(__file__).resolve().parents[1]
    exclude = []
    if baseline.resolve().is_relative_to(root):
        exclude = [f":(exclude){baseline.resolve().relative_to(root)}"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", ".", *exclude],
            cwd=root, check=True, capture_output=True, text=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        return None, f"cannot read the commit ({exc})"
    if dirty:
        return None, "the checkout differs from its commit:\n" + dirty
    return commit, None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="quick regression gate")
    parser.add_argument("--update", action="store_true", help="rewrite the baseline")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    args = parser.parse_args(argv)

    if args.smoke:
        if not check_bit_identity():
            print("FAIL: execution strategies are no longer bit-identical")
            return 2
        units = smoke_suite()
        print(render(units))
        if not args.baseline.exists():
            print(f"no baseline at {args.baseline}; skipping regression gate")
            return 0
        baseline = json.loads(args.baseline.read_text()).get("smoke", {})

        def failing(measured):
            out = []
            for name, entry in measured.items():
                base = baseline.get(name)
                if not base:
                    continue
                for ratio_name, _, _ in RATIOS:
                    if ratio_name not in base or ratio_name not in entry:
                        continue
                    floor = REGRESSION_TOLERANCE * base[ratio_name]
                    if entry[ratio_name] < floor:
                        out.append(
                            (
                                name,
                                ratio_name,
                                entry[ratio_name],
                                floor,
                                base[ratio_name],
                            )
                        )
            return out

        failed = failing(units)
        if failed:
            # Wall-time ratios at this scale can wobble on shared CI
            # runners (noisy neighbours mid-timing-window); re-measure
            # just the failing units once before declaring a regression.
            names = sorted({name for name, *_ in failed})
            print(f"retrying after transient miss: {', '.join(names)}")
            retried = smoke_suite(only=names)
            print(render(retried))
            failed = failing(retried)
        if failed:
            print("FAIL: speedup regressed >20% vs baseline:")
            for name, ratio_name, speed, floor, base in failed:
                print(
                    f"  {name}.{ratio_name}: {speed:.2f}x < {floor:.2f}x "
                    f"(80% of baseline {base:.2f}x)"
                )
            return 1
        print("smoke ok: within 20% of committed baseline speedups")
        return 0

    if args.update:
        commit, reason = _provenance(args.baseline)
        if commit is None:
            print(f"FAIL: refusing to rewrite the baseline: {reason}")
            return 1
    if args.update and not check_bit_identity():
        # The smoke gate refuses divergence with exit 2; the baseline
        # writer must be equally strict — a committed BENCH_engine.json
        # can never describe strategies that stopped agreeing.
        print(
            "FAIL: execution strategies are no longer bit-identical — "
            "refusing to rewrite the baseline"
        )
        return 2
    units = full_suite()
    print(render(units))
    if args.update:
        smoke = smoke_suite()
        payload = {
            "meta": {
                "commit": commit,
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "machine": platform.machine(),
                "cores": os.cpu_count(),
                "note": (
                    "best-of-N wall times, all recorded in one pass. "
                    "reference = seed-faithful stack (dict loop, eager "
                    "counter rng, rebuild restriction); batch = compiled "
                    "CSR engine driving the batched frontier-step kernels "
                    "round-fused (D10, D17, D30; a run without a kernel "
                    "takes the reference loop, D33). Both draw the one "
                    "counter rng scheme (D36). "
                    "speedup_batch = reference/batch, fused_gain = b "
                    "sequential solo runs / one b-lane fused run_many "
                    "slab (D16, D32; fused_gain_luby is information "
                    "only), rf_gain = reference loop / "
                    "round-fused drive, session_gain = stateless cold "
                    "rebuild-per-request / live-session mutate+rerun "
                    "(D18 incremental CSR patch on a long-lived session)."
                ),
            },
            "units": units,
            "smoke": smoke,
        }
        _atomic_write_text(args.baseline, json.dumps(payload, indent=2) + "\n")
        print(f"baseline written to {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
