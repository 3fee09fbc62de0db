"""Overestimated guesses: kernels stay bit-identical to the reference loop.

The paper's knowledge axis: a non-uniform box fed guesses far above the
truth (Δ̃ = Δ·2^k, m̃ = m^(k+1), ñ = n^(k+1)) stays correct but runs
longer schedules.  Those are the schedules where the fixed-point kernels
skip work — Linial rivals compared on machine words, the KW first-free
scan capped at ``2·max_degree + 1`` columns, the Luby slot list compacted
to live–live slots (DESIGN.md D34) — so every case here runs solo on the
compiled backend and as a lane of a fused chunk, and each must equal the
reference loop field for field.

The caps cut the kernels where their state is most delicate: mid-Linial,
mid-KW, at the end of the first KW phase and one round past it (the
cross-phase carry), and mid-sweep; the Luby family is cut right after
its slot list has been compacted.  Overestimated Δ̃ is also where the
coloring kernel reaches the KW fixed point and settles the remaining
phases by arithmetic (DESIGN.md D37), so those runs are cut at the
first settled phase's boundary, inside a settled phase, and mid-sweep
after the settled phases.
"""

from __future__ import annotations

import pytest

from repro.algorithms import luby as luby_module
from repro.algorithms.color_reduction import kw_total_rounds
from repro.algorithms.fast_coloring import ColoringBatchKernel, fast_coloring
from repro.algorithms.fast_mis import fast_mis
from repro.algorithms.hash_luby import hash_luby_mis
from repro.algorithms.linial import linial_schedule
from repro.algorithms.luby import luby_mc, luby_mis
from repro.bench import WORKLOADS, build_graph
from repro.local import run, run_many

FAMILIES = ("gnp-sparse", "tree", "regular-4")
LEVELS = (0, 1, 2)
DEFAULT = -1

RESULT_FIELDS = (
    "outputs",
    "finish_round",
    "rounds",
    "messages",
    "truncated",
    "max_message_bits",
)


def family_lanes(n):
    """Two graphs per family: the two lanes of each fused chunk."""
    return {
        family: tuple(
            build_graph(WORKLOADS[family](n, seed=seed), seed=seed + 1)
            for seed in (3, 5)
        )
        for family in FAMILIES
    }


@pytest.fixture(scope="module")
def lanes():
    return family_lanes(48)


@pytest.fixture(scope="module")
def luby_lanes():
    # Luby settles 48 nodes in 2–3 phases; at 200 most runs outlive the
    # round that compacts.
    return family_lanes(200)


def overestimates(graphs, k):
    """Guesses k levels above the truth of every lane."""
    delta = max(graph.max_degree for graph in graphs)
    m = max(graph.max_ident for graph in graphs)
    n = max(graph.n for graph in graphs)
    return {"Delta": delta * 2**k, "m": m ** (k + 1), "n": n ** (k + 1)}


def coloring_caps(guesses):
    """Caps inside each stage of the Linial → KW → sweep schedule."""
    delta = guesses["Delta"]
    steps, palette = linial_schedule(guesses["m"], delta)
    linial = len(steps)
    group = 2 * (delta + 1)
    kw = kw_total_rounds(palette, delta)
    assert kw > group, "the schedule needs a second KW phase"
    return {
        "none": None,
        "mid-linial": max(1, linial // 2),
        "mid-kw": linial + group // 2,
        "phase-boundary": linial + group,
        "past-boundary": linial + group + 1,
        "mid-sweep": linial + kw + (delta + 1) // 2,
    }


def compaction_round(graph, result):
    """First decision round at which the Luby kernel compacts.

    A node is live at the start of round r when it finishes at r or
    later; the kernel shrinks its slot list at the first decision round
    whose live–live slots are at most half of all slots.
    """
    finish = result.finish_round
    edges = list(graph.to_networkx().edges())
    for r in range(1, result.rounds + 1, 2):
        live = sum(finish[u] >= r and finish[v] >= r for u, v in edges)
        if 2 * live <= len(edges):
            return r
    return None


def assert_same(expected, got, context):
    for field in RESULT_FIELDS:
        assert getattr(expected, field) == getattr(got, field), (
            field,
            context,
        )


def check_solo_and_fused(graphs, algorithm, guesses, cap, context):
    """Solo compiled runs and one fused chunk against the reference loop."""
    opts = {} if cap is None else {"max_rounds": cap, "default_output": DEFAULT}
    jobs = [
        (graph, algorithm, {"guesses": guesses, "seed": seed})
        for seed, graph in enumerate(graphs, start=7)
    ]
    fused = run_many(jobs, backend="compiled", **opts)
    references = []
    for (graph, _, job), lane in zip(jobs, fused):
        reference = run(
            graph, algorithm, backend="reference", **job, **opts
        )
        solo = run(
            graph, algorithm, backend="compiled", **job, **opts
        )
        assert_same(reference, solo, context + ("solo",))
        assert_same(reference, lane, context + ("fused",))
        references.append(reference)
    return references


@pytest.mark.parametrize("k", LEVELS)
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("make", (fast_mis, fast_coloring))
def test_coloring_kernels_match_reference(lanes, family, k, make):
    graphs = lanes[family]
    guesses = overestimates(graphs, k)
    for name, cap in coloring_caps(guesses).items():
        check_solo_and_fused(
            graphs, make(), guesses, cap, (make.__name__, family, k, name)
        )


@pytest.mark.parametrize("k", LEVELS)
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("make", (fast_mis, fast_coloring))
def test_coloring_kernels_cut_around_settled_phases(
    lanes, family, k, make, monkeypatch
):
    graphs = lanes[family]
    guesses = overestimates(graphs, k)
    algorithm = make()
    context = (make.__name__, family, k)
    computed = {}
    phase = ColoringBatchKernel._kw_phase

    def count_phases(kernel, carry, limit):
        computed[kernel] = computed.get(kernel, 0) + 1
        return phase(kernel, carry, limit)

    monkeypatch.setattr(ColoringBatchKernel, "_kw_phase", count_phases)
    full = check_solo_and_fused(graphs, algorithm, guesses, None, context)
    delta = guesses["Delta"]
    steps, palette = linial_schedule(guesses["m"], delta)
    linial = len(steps)
    group = 2 * (delta + 1)
    kw = kw_total_rounds(palette, delta)
    # The fused chunk reaches the fixed point when its slowest lane
    # does, so its count of simulated phases is the largest.
    settled = max(computed.values())
    assert settled < kw // group, context  # some phase is settled
    start = linial + settled * group
    caps = {
        "first-settled-boundary": start,
        "in-first-settled": start + group // 2,
        "in-last-settled": linial + kw - 1,
    }
    for name, cap in caps.items():
        cut = check_solo_and_fused(
            graphs, algorithm, guesses, cap, context + (name,)
        )
        assert all(result.truncated for result in cut), context + (name,)
    if make is fast_mis:
        sweep = sorted({
            rnd
            for result in full
            for rnd in result.finish_round.values()
            if rnd > linial + kw
        })
        cap = sweep[len(sweep) // 2]
        cut = check_solo_and_fused(
            graphs, algorithm, guesses, cap, context + ("mid-sweep",)
        )
        assert any(result.truncated for result in cut), context


@pytest.mark.parametrize("k", LEVELS)
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("make", (luby_mis, hash_luby_mis, luby_mc))
def test_luby_kernels_match_reference_past_compaction(
    luby_lanes, family, k, make
):
    graphs = luby_lanes[family]
    guesses = overestimates(graphs, k)
    context = (make.__name__, family, k)
    full = check_solo_and_fused(graphs, make(), guesses, None, context)
    cut = min(filter(None, map(compaction_round, graphs, full)))
    assert any(cut < result.rounds for result in full), context
    # Truncated in the decision round that compacts, and in the
    # retirement round after it.
    for cap in (cut, cut + 1):
        check_solo_and_fused(graphs, make(), guesses, cap, context + (cap,))


def test_luby_mc_budget_cut_matches_reference(luby_lanes, monkeypatch):
    """luby-mc's phase budget ends runs before Luby settles them.

    Luby settles these graphs in 3–4 phases, below ``mc_phases``' floor
    of 10, so the budget is lowered to two phases to make it bind: the
    second decision round compacts, the second retirement round cuts.
    """
    monkeypatch.setattr(luby_module, "mc_phases", lambda n_guess: 2)
    cut_after_compaction = 0
    for family in FAMILIES:
        graphs = luby_lanes[family]
        guesses = overestimates(graphs, 1)
        budgeted = check_solo_and_fused(
            graphs, luby_mc(), guesses, None, ("budget", family)
        )
        check_solo_and_fused(graphs, luby_mc(), guesses, 3, ("budget", family))
        for seed, (graph, result) in enumerate(zip(graphs, budgeted), start=7):
            settled = run(graph, luby_mis(), seed=seed)
            cut_after_compaction += (
                result.rounds < settled.rounds
                and compaction_round(graph, result) == 3
            )
    assert cut_after_compaction >= 2
