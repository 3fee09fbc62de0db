"""Whole-request benchmark of the LOCAL-model reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload as a closed loop with one client: set up,
then ops back to back until ``--seconds`` have passed.  The loop runs
whole cycles, and at least the exact cycles: enough ops for the tail
percentile.  Rounds per op and the rounds ratio are taken over the exact
cycles only, so they repeat exactly for a seed.  Every op's output goes
through its ``repro.problems`` verifier; an op that raises or fails
verification counts as failed and the loop goes on.  Times are reported
at the reference pace of ``pace.py``, which takes out the host's changes
of speed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones.  With ``--trace 1`` every other cycle
is traced, the metrics are per layer, and the spans are written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` takes their median.
SETUPS = 3

#: Reference-kernel samples taken before, between and after set-ups.
SETUP_PACE_SAMPLES = 5

#: Layer spans and counts reported with ``--trace 1``, in output order.
LAYER_TIMES = (
    "graphs.generate",
    "graphs.idents",
    "local.graph.from_networkx",
    "local.engine.compile",
    "local.batch.mirror",
    "local.runner.run",
    "local.fused.run_many",
    "local.service.mutate",
    "local.service.rerun",
    "params.actual",
    "core.nonuniform",
    "core.uniform",
    "problems.verify",
)
ROW_TIMES = ("core.nonuniform", "core.uniform", "problems.verify")
LAYER_COUNTS = ("local.runner.rounds", "local.runner.messages", "core.steps")

#: One timed op; ``rounds`` and ``ratio`` are ``None`` when it failed.
#: ``latency`` is at the reference pace: wall time times ``scale``.
Op = collections.namedtuple("Op", "latency ok rounds ratio traced cycle scale")


def percentile(values, q):
    """Nearest-rank ``q`` quantile of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def exact_cycles(workload):
    """Fewest whole cycles that leave 10 ops beyond the tail percentile."""
    ops = math.ceil(10 / (1 - workload.tail_q) - 1e-9)
    return math.ceil(ops / len(workload.labels))


def provenance():
    """Where the numbers come from: code, machine and library versions."""
    import networkx
    import numpy

    def git(*args):
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # Only this checkout's own repository counts; git would otherwise
    # search the parent directories for one.
    commit = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain") if commit else None
    return {
        "commit": commit or "unknown",
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def measure(workload, seconds, tracer):
    """The closed loop; returns one :data:`Op` per op.

    With a real ``tracer``, odd cycles are traced (probes installed) and
    even cycles are not, so both halves see the same machine state.
    Garbage is collected after each op, outside its timer, so cyclic
    garbage from one op neither lands in the next op's time nor raises
    the peak memory by the luck of when the collector ran.  The
    workload's reference kernel is timed before each op and once after
    the last; each latency is then scaled to the reference pace.
    """
    from pace import Pace
    from tracing import NULL
    from workloads import verify

    floor = exact_cycles(workload)
    pace = Pace(workload.pace)
    ops = []
    started = time.perf_counter()
    cycle_no = 0
    while True:
        traced = tracer is not NULL and cycle_no % 2 == 1
        tr = tracer if traced else NULL
        with ExitStack() as probes:
            for owner, attr, name, on_result in workload.probes:
                probes.enter_context(tr.patched(owner, attr, name, on_result))
            for j, label in enumerate(workload.labels):
                pace.sample()
                tr.begin_op(len(ops), label)
                outcome = None
                t0 = time.perf_counter()
                try:
                    with tr.span("op"):
                        outcome = workload.op(tr, cycle_no, j)
                        ok = verify(tr, outcome) if workload.verify_in_op else None
                    latency = time.perf_counter() - t0
                    if ok is None:
                        ok = verify(tr, outcome)
                except Exception:
                    latency = time.perf_counter() - t0
                    traceback.print_exc(file=sys.stderr)
                    ok = False
                counts = (outcome.rounds, outcome.ratio) if ok else (None, None)
                ops.append(Op(latency, ok, *counts, traced, cycle_no, None))
                outcome = None
                gc.collect()
        cycle_no += 1
        elapsed = time.perf_counter() - started
        # Stop at the cycle boundary nearest to ``seconds``.
        if elapsed + elapsed / cycle_no / 2 >= seconds and cycle_no >= floor:
            break
    pace.sample()
    scales = [pace.scale(i) for i in range(len(ops))]
    return [op._replace(latency=op.latency * s, scale=s) for op, s in zip(ops, scales)]


def end_to_end(workload, ops, setup_s):
    """``ops_per_s`` is the median over cycles of verified ops per second of
    op time: every cycle holds the same op kinds, and the median drops a
    cycle whose inputs happened to be unusually slow or fast."""
    latencies = [op.latency for op in ops]
    good = [op for op in ops if op.ok]
    exact = [op for op in good if op.cycle < exact_cycles(workload)]
    cycles = {}
    for op in ops:
        done, spent = cycles.get(op.cycle, (0, 0.0))
        cycles[op.cycle] = (done + op.ok, spent + op.latency)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(d / t for d, t in cycles.values()), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (percentile(latencies, workload.tail_q), "s"),
        "verified_frac": (len(good) / len(ops), "fraction"),
        "rounds_per_op": (
            statistics.fmean(op.rounds for op in exact) if exact else 0.0, "rounds"
        ),
        "rounds_ratio": (
            math.exp(statistics.fmean(math.log(op.ratio) for op in exact)) if exact else 0.0,
            "x",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def per_layer(ops, tracer, setups, setup_scale):
    """Per-op self times and counts from the traced cycles.

    A layer the op never enters on this workload reports its cost in
    one set-up instead; the set-up's warm-up runs every layer, so every
    value is measured.  ``other_s`` is op time no layer span covers.
    Self times are at the reference pace, scaled like their op.
    """
    from workloads import TABLE1_ROWS

    traced = [i for i, op in enumerate(ops) if op.traced]
    setup = tracer.setup_ops()
    times = {
        (i, name): value * (ops[i].scale if i >= 0 else setup_scale)
        for (i, name), value in tracer.self_times().items()
    }
    counts = tracer.count_totals()

    def per_op(table, name, label=None):
        def total(members):
            if label is not None:
                members = [i for i in members if tracer.labels[i] == label]
            found = [table[(i, name)] for i in members if (i, name) in table]
            return sum(found), len(members), bool(found)

        value, ops_seen, found = total(traced)
        if found:
            return value / ops_seen
        return total(setup)[0] / setups

    def share(numerator, denominator):
        bottom = per_op(counts, denominator)
        return per_op(counts, numerator) / bottom if bottom else 0.0

    metrics = {name + "_s": (per_op(times, name), "s") for name in LAYER_TIMES}
    metrics["other_s"] = (per_op(times, "op"), "s")
    for name in LAYER_COUNTS:
        metrics[name] = (per_op(counts, name), "count")
    metrics["core.prune_yield"] = (share("core.pruned", "core.nodes_before"), "fraction")
    metrics["local.fused.lane_occupancy"] = (
        share("local.fused.lane_rounds", "local.fused.lane_slots"), "fraction"
    )
    plain = [op.latency for op in ops if not op.traced]
    with_spans = [op.latency for op in ops if op.traced]
    rate = len(with_spans) / sum(with_spans)
    metrics["trace.overhead_frac"] = (1 - rate / (len(plain) / sum(plain)), "fraction")
    metrics["machine.slowdown"] = (1 / statistics.median(op.scale for op in ops), "x")
    for row, _ in TABLE1_ROWS:
        for name in ROW_TIMES:
            metrics[f"table1.{row}.{name}_s"] = (per_op(times, name, row), "s")
    return metrics


def bench(name, seed, seconds, trace, sizes=None, setups=SETUPS, spans=None):
    """Run one workload; returns the result object the CLI prints last.

    ``spans`` is an optional ``(path, header)``: a traced run writes its
    spans there.
    """
    import tracing
    from pace import Pace
    from workloads import WORKLOADS, warm_up

    imported = time.perf_counter()
    tracer = tracing.Tracer() if trace else tracing.NULL
    workload = WORKLOADS[name](seed, **(sizes or {}))
    # Set-up builds graphs in networkx and imports modules: interpreter work.
    setup_pace = Pace("interpreter")
    try:
        durations = []
        for _ in range(setups):
            for _ in range(SETUP_PACE_SAMPLES):
                setup_pace.sample()
            t0 = time.perf_counter()
            workload.setup(tracer)
            warm_up(tracer, seed)
            durations.append(time.perf_counter() - t0)
        for _ in range(SETUP_PACE_SAMPLES):
            setup_pace.sample()
        setup_scale = setup_pace.overall()
        setup_s = ((imported - START) + statistics.median(durations)) * setup_scale
        gc.collect()
        gc.freeze()
        ops = measure(workload, seconds, tracer)
    finally:
        gc.unfreeze()
        workload.close()
    if trace:
        metrics = per_layer(ops, tracer, setups, setup_scale)
        if spans is not None:
            tracer.dump(*spans)
    else:
        metrics = end_to_end(workload, ops, setup_s)
    failed = sum(1 for op in ops if not op.ok)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    switches = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if switches:
        print(
            f"refusing to run with {', '.join(switches)} set: REPRO_* switches "
            "re-route executors, and the numbers must describe the default path",
            file=sys.stderr,
        )
        return 2
    if not (SRC / "repro").is_dir():
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    header = {"provenance": provenance(), "workload": args.workload, "seed": args.seed}
    print(json.dumps(header))
    spans = None
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans = (out / f"spans-{args.workload}-seed{args.seed}.jsonl", header)
    result = bench(args.workload, args.seed, args.seconds, args.trace, spans=spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
