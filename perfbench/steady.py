"""Steadiness check: run one workload K times and compare spreads to bounds.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]
        [--seconds S] [--trace 0|1] [--save FILE] [--compare FILE]

Each run is a separate ``perfbench/run.py`` process with its own seed.
For every metric the table shows the median of the K values, the
quartile spread ``(q3 - q1) / median`` (quartiles as
``statistics.quantiles(values, n=4)`` gives them) and the metric's bound
from ``BENCHMARK.json``.  A spread under a third of the bound is
``steady``; under the bound is ``ok``.  ``--save`` keeps the values;
``--compare`` reads an earlier saved set and shows how far each median
moved in the metric's worse direction, against the same bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in config["end_to_end"] + config["per_layer"]}
    return config, metrics


def collect(workload, runs, first_seed, seconds, trace):
    values = {}
    for seed in range(first_seed, first_seed + runs):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"run with seed {seed} exited {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"run with seed {seed} failed {result['failed']} op(s)")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {result['attempted']} ops", file=sys.stderr, flush=True)
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, (q3 - q1) / middle if middle else float("inf")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)

    config, metrics = spec()
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    values = collect(args.workload, args.runs, args.first_seed, seconds, args.trace)
    if args.save:
        args.save.write_text(json.dumps(values))
    before = json.loads(args.compare.read_text()) if args.compare else {}

    print(f"{'metric':44} {'median':>12} {'spread':>8} {'bound':>6}  verdict"
          + ("   moved" if before else ""))
    for name, series in values.items():
        middle, width = spread(series)
        bound = metrics.get(name, {}).get("bound")
        if bound is None:
            verdict = "-"
        elif width <= bound / 3:
            verdict = "steady"
        elif width <= bound:
            verdict = "ok"
        else:
            verdict = "WIDE"
        line = f"{name:44} {middle:12.6g} {width:8.4f} {bound if bound else '-':>6}  {verdict:7}"
        if name in before:
            old = statistics.median(before[name])
            moved = (middle - old) / old if old else 0.0
            if metrics.get(name, {}).get("better") == "higher":
                moved = -moved
            flag = " WORSE" if bound is not None and moved > bound else ""
            line += f" {moved:+.4f}{flag}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
