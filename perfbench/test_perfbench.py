"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import run  # noqa: E402
from pace import NOMINAL_S, Pace  # noqa: E402
from repro.algorithms.registry import TABLE1  # noqa: E402
from repro.bench.harness import measure_row  # noqa: E402
from repro.errors import NonTerminationError  # noqa: E402
from repro.problems import in_set  # noqa: E402
from tracing import NULL  # noqa: E402
from workloads import TABLE1_ROWS, TINY, WORKLOADS, build, derive, verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, trace=0, seed=1):
    return run.bench(name, seed, 0, trace, sizes=TINY[name], setups=1)


@pytest.fixture(scope="module")
def untraced():
    return {name: tiny(name) for name in WORKLOADS}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_and_no_op_fails(name, untraced):
    for key, result in (("end_to_end", untraced[name]), ("per_layer", tiny(name, 1))):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        emitted = result["metrics"]
        assert list(emitted) == [m["name"] for m in SPEC[key]]
        for metric in SPEC[key]:
            assert emitted[metric["name"]]["unit"] == metric["unit"]
    assert untraced[name]["metrics"]["verified_frac"]["value"] == 1.0


@pytest.mark.parametrize("name", ["table1-repro", "guess-sweep"])
def test_round_metrics_repeat_exactly_for_a_seed(name, untraced):
    again = tiny(name)["metrics"]
    for key in ("rounds_per_op", "rounds_ratio"):
        assert again[key]["value"] == untraced[name]["metrics"][key]["value"]


def test_table1_op_matches_measure_row():
    n = TINY["table1-repro"]["n"]
    workload = WORKLOADS["table1-repro"](5, n=n)
    for j, (row_id, family) in enumerate(TABLE1_ROWS):
        outcome = workload.op(NULL, 0, j)
        seed = derive(5, row_id, 0)
        _, graph = build(NULL, family, n, seed)
        meas = measure_row(TABLE1[row_id], row_id, graph, seed=seed)
        assert meas.nonuniform_ok and meas.uniform_ok
        assert outcome.rounds == meas.nonuniform_rounds + meas.uniform_rounds
        assert outcome.ratio == meas.ratio


def flip_one_bit(outcome):
    """Replace the first check's outputs by a copy with one MIS bit flipped."""
    problem, graph, outputs = outcome.checks[0]
    flipped = dict(outputs)
    u = graph.nodes[0]
    flipped[u] = 0 if in_set(flipped[u]) else 1
    outcome.checks[0] = (problem, graph, flipped)
    return outcome


def test_corrupted_output_fails_verification():
    outcome = WORKLOADS["table1-repro"](1, **TINY["table1-repro"]).op(NULL, 0, 2)
    assert verify(NULL, outcome)
    assert not verify(NULL, flip_one_bit(outcome))


@pytest.mark.parametrize("name", ["table1-repro", "session-churn"])
def test_loop_counts_failed_ops_and_goes_on(name):
    workload = WORKLOADS[name](1, **TINY[name])
    workload.setup(NULL)
    real = workload.op

    def op(tr, c, j):
        outcome = real(tr, c, j)
        if (c, j) == (1, 0):
            raise NonTerminationError("injected")
        return flip_one_bit(outcome) if (c, j) == (0, 1) else outcome

    workload.op = op
    try:
        ops = run.measure(workload, 0, NULL)
    finally:
        workload.close()
    assert len(ops) == run.exact_cycles(workload) * len(workload.labels)
    assert [op.cycle for op in ops if not op.ok] == [0, 1]


def test_pace_scale_ignores_one_disturbed_sample():
    pace = Pace("interpreter")
    pace.samples = [2 * NOMINAL_S["interpreter"]] * 4 + [1.0]
    assert pace.scale(1) == pace.scale(2) == 0.5


def test_refuses_repro_switches(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BACKEND", "reference")
    assert run.main(["--workload", "guess-sweep", "--seed", "1", "--seconds", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "guess-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
