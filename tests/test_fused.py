"""Fused multi-run engine (DESIGN.md D16).

The contract under test: every lane of a :func:`repro.local.run_many`
call is *field-for-field identical* to its solo :func:`repro.local.run`
— outputs, finish rounds, total rounds, message counts, truncation sets
— under the counter scheme (the only one the compiled tiers draw, D29),
across heterogeneous graphs, algorithms and seeds, whether the lane
fused into a block-diagonal slab or fell back to a solo run.  Plus the
machinery around it: chunking at the lane width, one
``batch.drive_kernel`` call per chunk (D32), slab caching, per-lane
termination and message attribution, and backend wiring.
"""

from __future__ import annotations

import collections
import gc
import random

import numpy as np
import pytest

from repro.algorithms import capability_table, hash_luby
from repro.algorithms.fast_mis import fast_mis
from repro.algorithms.hash_luby import hash_luby_mis
from repro.algorithms.luby import luby_mc, luby_mis
from repro.algorithms.ruling_sets import bitwise_ruling_set
from repro.core.pruning import MatchingPruning
from repro.errors import NonTerminationError, ParameterError, ReproError
from repro.graphs import families, identifiers
from repro.local import (
    LocalAlgorithm,
    SimGraph,
    run,
    run_many,
    use_backend,
)
from repro.local import batch as batch_module
from repro.local import fused as fused_module
from repro.local.algorithm import capabilities_of
from repro.local.fused import _SLAB_CACHE, fused_slab_of
from repro.local.runner import last_stepping


def build(graph, *, seed=0):
    idents = identifiers.SCHEMES["poly"](graph, seed=seed)
    return SimGraph.from_networkx(graph, idents=idents)


def fields_of(result):
    return (
        dict(result.outputs),
        dict(result.finish_round),
        result.rounds,
        result.messages,
        set(result.truncated),
        result.max_message_bits,
    )


def jobs_matrix(small_gnp, medium_gnp):
    """Heterogeneous lanes: two graphs, four algorithms, distinct seeds."""
    mis_algo = luby_mis()
    m = small_gnp.edge_count()
    delta = small_gnp.max_degree
    return [
        (small_gnp, mis_algo, {"seed": 1}),
        (small_gnp, luby_mc(), {"guesses": {"n": 40}, "seed": 2}),
        (medium_gnp, hash_luby_mis(), {"guesses": {"n": 90}, "seed": 3}),
        (small_gnp, fast_mis(), {"guesses": {"m": m, "Delta": delta}, "seed": 4}),
        (medium_gnp, mis_algo, {"seed": 5, "salt": "other"}),
    ]


def solo_twin(job, **kwargs):
    graph, algorithm = job[0], job[1]
    opts = job[2] if len(job) == 3 else {}
    return run(
        graph,
        algorithm,
        guesses=opts.get("guesses"),
        seed=opts.get("seed", 0),
        salt=opts.get("salt", 0),
        **kwargs,
    )


class TestBitIdentity:
    def test_heterogeneous_matrix(self, small_gnp, medium_gnp):
        jobs = jobs_matrix(small_gnp, medium_gnp)
        fused = run_many(jobs)
        for job, result in zip(jobs, fused):
            solo = solo_twin(job)
            assert fields_of(result) == fields_of(solo), job[1].name

    def test_truncated_lanes_match_solo(self, small_gnp, medium_gnp):
        jobs = jobs_matrix(small_gnp, medium_gnp)
        fused = run_many(jobs, max_rounds=1, default_output=0)
        for job, result in zip(jobs, fused):
            solo = solo_twin(job, max_rounds=1, default_output=0)
            assert fields_of(result) == fields_of(solo), job[1].name
            assert result.rounds <= 1

    def test_chunked_lanes_match_unchunked(self, small_gnp, monkeypatch):
        algo = luby_mis()
        jobs = [(small_gnp, algo, {"seed": s}) for s in range(5)]
        wide = run_many(jobs)
        monkeypatch.setattr(fused_module, "LANE_WIDTH", 2)
        narrow = run_many(jobs)
        for a, b in zip(wide, narrow):
            assert fields_of(a) == fields_of(b)

    def test_shared_slab_chunks_are_isolated(self, medium_gnp, monkeypatch):
        # Eight lanes over one graph chunked to width 2: all four
        # chunks hash to the same cached slab and run one after
        # another, so each drive must start from a zeroed per-lane
        # message ledger — no chunk may inherit another's counts.
        monkeypatch.setattr(fused_module, "LANE_WIDTH", 2)
        algo = luby_mis()
        jobs = [(medium_gnp, algo, {"seed": s}) for s in range(8)]
        results = run_many(jobs)
        for job, result in zip(jobs, results):
            assert fields_of(result) == fields_of(solo_twin(job))

    def test_fast_mis_lanes_of_different_sizes(self):
        # Lanes of different sizes finish their sweeps in different
        # rounds; each still reports exactly its solo run.
        graphs = [
            build(families.gnp_avg_degree(n, 6.0, seed=50 + k), seed=5)
            for k, n in enumerate((300, 350, 400, 450))
        ]
        algo = fast_mis()
        opts = {"guesses": {"Delta": 60, "m": 10**6}, "seed": 1}
        jobs = [(graph, algo, opts) for graph in graphs]
        results = run_many(jobs)
        for job, result in zip(jobs, results):
            assert fields_of(result) == fields_of(solo_twin(job))
        assert len({result.rounds for result in results}) > 1

    def test_one_drive_per_chunk(self, small_gnp, monkeypatch):
        # The guess-sweep shape: three schedules x 8 seeds over one
        # graph make three chunks over the same cached slab, and each
        # chunk is driven by exactly one batch.drive_kernel call.
        m, delta = small_gnp.edge_count(), small_gnp.max_degree
        schedules = [
            (luby_mis(), None),
            (luby_mc(), {"n": 40}),
            (fast_mis(), {"m": m, "Delta": delta}),
        ]
        jobs = [
            (small_gnp, algo, {"guesses": guesses, "seed": s})
            for algo, guesses in schedules
            for s in range(8)
        ]
        driven = []
        drive = batch_module.drive_kernel

        def spy(kernel, cap):
            driven.append(kernel.bg)
            return drive(kernel, cap)

        monkeypatch.setattr(batch_module, "drive_kernel", spy)
        results = run_many(jobs)
        slabs = list(driven)
        monkeypatch.setattr(batch_module, "drive_kernel", drive)
        assert len(slabs) == len(schedules)
        assert all(slab is slabs[0] for slab in slabs)
        assert slabs[0] is fused_slab_of((small_gnp.compiled(),) * 8)
        for job, result in zip(jobs, results):
            assert fields_of(result) == fields_of(solo_twin(job))

    def test_per_job_salt_changes_the_draws(self, small_gnp):
        algo = luby_mis()
        jobs = [
            (small_gnp, algo, {"seed": 4}),
            (small_gnp, algo, {"seed": 4, "salt": 0}),
            (small_gnp, algo, {"seed": 4, "salt": "x"}),
        ]
        plain, zero, salted = run_many(jobs)
        assert fields_of(plain) == fields_of(zero)
        assert fields_of(salted) == fields_of(solo_twin(jobs[2]))
        assert (salted.outputs, salted.finish_round) != (
            plain.outputs, plain.finish_round
        )


class TestTermination:
    def test_nontermination_raises_the_lowest_lane_error(self, path12):
        # Lane 0 (fused) and lane 1 (solo: its algorithm is not
        # certified to fuse) both miss the cap; lane 2 finishes.  Solo
        # lanes run first, yet the error raised is lane 0's.
        finishes = build(families.gnp(5, 0.0, seed=1), seed=2)
        algo = luby_mis()
        jobs = [
            (path12, algo),
            (path12, bitwise_ruling_set(), {"guesses": {"m": 64}}),
            (finishes, algo),
        ]
        with pytest.raises(NonTerminationError) as caught:
            run_many(jobs, max_rounds=1)
        with pytest.raises(NonTerminationError) as solo:
            run(path12, algo, max_rounds=1)
        assert caught.value.algorithm_name == algo.name
        assert caught.value.unfinished
        assert sorted(caught.value.unfinished) == sorted(solo.value.unfinished)

    @pytest.mark.parametrize("case", ("luby", "fast-mis"))
    def test_lanes_straddling_the_cap(self, medium_gnp, case):
        # One chunk whose lanes finish on both sides of max_rounds:
        # finished lanes keep their own rounds, the rest are cut.
        if case == "luby":
            algo = luby_mis()
            jobs = [(medium_gnp, algo, {"seed": s}) for s in range(8)]
        else:
            algo = fast_mis()
            opts = {"guesses": {"Delta": 8, "m": 400}, "seed": 1}
            jobs = [
                (build(families.gnp_avg_degree(n, 4.0, seed=50 + k), seed=5),
                 algo, opts)
                for k, n in enumerate((20, 40, 60, 80))
            ]
        solo_rounds = [solo_twin(job).rounds for job in jobs]
        cap = min(solo_rounds)
        assert cap < max(solo_rounds)
        # A sequence default is one output per cut node, not an array
        # to broadcast over them.
        for default in (0, (0, 0)):
            results = run_many(jobs, max_rounds=cap, default_output=default)
            for job, result in zip(jobs, results):
                solo = solo_twin(
                    job, max_rounds=cap, default_output=default
                )
                assert fields_of(result) == fields_of(solo)
            assert {bool(r.truncated) for r in results} == {False, True}
        with pytest.raises(NonTerminationError) as caught:
            run_many(jobs, max_rounds=cap)
        lowest = solo_rounds.index(next(r for r in solo_rounds if r > cap))
        with pytest.raises(NonTerminationError) as solo:
            solo_twin(jobs[lowest], max_rounds=cap)
        assert sorted(caught.value.unfinished) == sorted(solo.value.unfinished)

    def test_nontermination_lane_raises_by_default(self, path12):
        with pytest.raises(NonTerminationError):
            run_many([(path12, luby_mis())], max_rounds=1)

    def test_truncate_requires_max_rounds(self, small_gnp):
        with pytest.raises(ParameterError):
            run_many([(small_gnp, luby_mis())], truncate=True)


class _UnchargedKernel:
    """Finishes every node in round 1 and reports one broadcast's
    messages without routing them through ``bg.charge``."""

    def __init__(self, bg):
        self.bg = bg
        self.done = False

    def run_fixedpoint(self, cap):
        self.done = True
        events = [(1, list(range(self.bg.n)), [0] * self.bg.n)]
        return events, 1, int(self.bg.degrees.sum())

    def undone_indices(self):
        return [] if self.done else list(range(self.bg.n))


class TestAttribution:
    def test_uncharged_messages_are_rejected(self, small_gnp):
        algo = LocalAlgorithm(
            "uncharged",
            lambda ctx: None,
            batch=lambda bg, setup: _UnchargedKernel(bg),
            fuse=True,
        )
        with pytest.raises(ReproError, match="attribution mismatch"):
            run_many([(small_gnp, algo, {"seed": s}) for s in range(2)])


class TestFallbacks:
    def test_uncertified_algorithm_runs_solo(self, small_gnp):
        algo = bitwise_ruling_set()
        caps = capabilities_of(algo)
        assert caps["supports_batch"] and not caps["supports_fuse"]
        m = small_gnp.edge_count()
        jobs = [
            (small_gnp, algo, {"guesses": {"m": m}, "seed": 3}),
            (small_gnp, luby_mis()),
        ]
        fused = run_many(jobs)
        for job, result in zip(jobs, fused):
            assert fields_of(result) == fields_of(solo_twin(job))

    def test_reference_backend_never_fuses(self, small_gnp):
        jobs = [(small_gnp, luby_mis(), {"seed": s}) for s in range(2)]
        via_ref = run_many(jobs, backend="reference")
        for job, result in zip(jobs, via_ref):
            solo = solo_twin(job, backend="reference")
            assert fields_of(result) == fields_of(solo)


class TestSlabCache:
    def test_cache_hits_on_reuse(self, small_gnp):
        algo = luby_mis()
        jobs = [(small_gnp, algo, {"seed": s}) for s in range(4)]
        run_many(jobs)
        key = (id(small_gnp.compiled()),) * 4
        slab = _SLAB_CACHE[key]
        run_many([(graph, algo, {"seed": 9}) for graph, algo, _ in jobs])
        assert _SLAB_CACHE[key] is slab

    def test_compiled_graph_is_the_slab_member(self, small_gnp):
        cg = small_gnp.compiled()
        assert isinstance(cg, batch_module.BatchGraph)
        assert small_gnp.compiled() is cg
        slab = fused_slab_of((cg, cg))
        assert fused_slab_of((cg, cg)) is slab
        assert slab.n == 2 * cg.n
        m = len(cg.neigh)
        for field in ("offsets", "neigh", "owner", "degrees"):
            assert getattr(slab, field).dtype == np.int64, field
        offsets = np.append(cg.offsets, cg.offsets[1:] + m)
        assert np.array_equal(slab.offsets, offsets)
        assert np.array_equal(slab.neigh, np.append(cg.neigh, cg.neigh + cg.n))

    def test_eviction_on_graph_collection(self):
        graph = build(families.gnp(12, 0.2, seed=3), seed=4)
        algo = luby_mis()
        run_many([(graph, algo), (graph, algo, {"seed": 1})])
        key = (id(graph.compiled()),) * 2
        assert key in _SLAB_CACHE
        del graph
        gc.collect()
        assert key not in _SLAB_CACHE

    def test_session_mutation_invalidates_every_cache_layer(self):
        """The stale-cache footgun, closed (D18): after a session
        mutate, the compiled graph and the draw-slab cache all serve the
        *new* topology — the retired graph's slab entry is evicted
        deterministically even though we still reference it."""
        from repro.local import GraphDelta, open_session

        graph = build(families.gnp(24, 0.15, seed=6), seed=7)
        with open_session(graph) as session:
            jobs = [luby_mis() for _ in range(3)]
            session.rerun_many(
                [(algo, {"seed": s}) for algo, s in zip(jobs, [1, 2, 3])]
            )
            old_graph = session.graph
            old_cg = old_graph.compiled()
            assert any(id(old_cg) in key for key in _SLAB_CACHE)

            delta = GraphDelta(del_edges=[next(iter(old_graph.edges()))])
            session.mutate(delta)

            # Slab of the retired topology: evicted now, not at GC time
            # (this test still holds old_cg alive).
            assert not any(id(old_cg) in key for key in _SLAB_CACHE)

            # Identity-keyed layers: the new graph is a new object with
            # empty caches — nothing can serve stale bits.
            new_cg = session.graph.compiled()
            assert new_cg is not old_cg
            fresh = old_graph.apply_delta_rebuild(delta).compiled()
            for field in ("offsets", "neigh", "rev", "degrees", "owner"):
                values = getattr(new_cg, field)
                assert values.dtype == np.int64, field
                assert np.array_equal(values, getattr(fresh, field)), field
                assert values is not getattr(old_cg, field), field

            # The post-mutate fused sweep equals its solo runs on the
            # new topology (a stale slab would diverge here).
            fused = session.rerun_many(
                [(algo, {"seed": s}) for algo, s in zip(jobs, [4, 5, 6])]
            )
            for seed, lane in zip([4, 5, 6], fused):
                solo = run(session.graph, luby_mis(), seed=seed,
                           backend="compiled")
                assert fields_of(lane) == fields_of(solo)


class TestBackendWiring:
    def test_use_backend_fused_lanes(self, small_gnp, monkeypatch):
        algo = luby_mis()
        jobs = [(small_gnp, algo, {"seed": s}) for s in range(4)]
        plain = run_many(jobs)
        monkeypatch.setattr(fused_module, "LANE_WIDTH", 2)
        with use_backend("compiled"):
            chunked = run_many(jobs)
        for a, b in zip(plain, chunked):
            assert fields_of(a) == fields_of(b)

    def test_job_shape_validated(self, small_gnp):
        with pytest.raises(ParameterError):
            run_many([(small_gnp,)])
        with pytest.raises(ParameterError):
            run_many([(small_gnp, luby_mis(), {"bogus": 1})])
        with pytest.raises(ParameterError):
            run_many([(small_gnp, luby_mc())])  # missing guess for n

    def test_capability_table_publishes_supports_fuse(self):
        table = capability_table()
        assert table["luby"]["supports_fuse"] is True
        assert table["mis-fast"]["supports_fuse"] is True
        assert table["mis-nonly"]["supports_fuse"] is True
        for record in table.values():
            assert "supports_fuse" in record
            assert record["pruning"]["supports_fuse"] is False


def overlapping_graphs(graph):
    """``graph``, its induced subgraph on every other node and on the
    last two thirds: three lanes whose identity sets overlap."""
    nodes = sorted(graph.nodes, key=graph.ident.__getitem__)
    return [
        graph,
        graph.subgraph(nodes[::2]),
        graph.subgraph(nodes[len(nodes) // 3:]),
    ]


class TestHashLubyIdentityDraws:
    """hash-Luby draws one digest per distinct identity per phase and
    gathers it to every lane holding that identity (D40)."""

    GUESSES = {"n": 90**2}

    def test_lanes_of_different_graphs_sharing_identities(self, medium_gnp):
        graphs = overlapping_graphs(medium_gnp)
        slab = fused_slab_of([g.compiled() for g in graphs])
        firsts = slab.ident_firsts()
        assert (firsts < np.arange(slab.n)).any()  # identities repeat
        algo = hash_luby_mis()
        jobs = [(g, algo, {"guesses": self.GUESSES}) for g in graphs]
        for kwargs in ({}, *(
            {"max_rounds": cap, "truncate": True} for cap in (1, 2, 3)
        )):
            fused = run_many(jobs, **kwargs)
            assert last_stepping() == "fused"
            for job, result in zip(jobs, fused):
                solo = solo_twin(job, **kwargs)
                reference = solo_twin(job, backend="reference", **kwargs)
                assert fields_of(result) == fields_of(solo), kwargs
                assert fields_of(result) == fields_of(reference), kwargs
            if kwargs:
                assert any(result.truncated for result in fused), kwargs

    def test_one_digest_per_identity_and_phase(self, medium_gnp, monkeypatch):
        calls = collections.Counter()
        digest = hash_luby._hash_bits

        def spy(ident, phase):
            calls[ident, phase] += 1
            return digest(ident, phase)

        monkeypatch.setattr(hash_luby, "_hash_bits", spy)
        algo = hash_luby_mis()
        jobs = [
            (medium_gnp, algo, {"guesses": self.GUESSES, "seed": s})
            for s in range(8)
        ]
        results = run_many(jobs)
        assert last_stepping() == "fused"
        assert calls and max(calls.values()) == 1
        assert {ident for ident, _ in calls} == {
            medium_gnp.ident[u] for u in medium_gnp.nodes if medium_gnp.degree(u)
        }
        assert all(fields_of(r) == fields_of(results[0]) for r in results)

    def test_a_single_graph_has_unique_identities(self, medium_gnp):
        bg = medium_gnp.compiled()
        assert bg.ident_firsts() is None


class TestArrayFold:
    """Every drive folds its ``(round, indices, value)`` commits through
    ``batch.fold_commits`` (D40): int results stay in an int64 array,
    anything else (a ``None`` or tuple default, tuple outputs) in an
    object array.  Each case equals the reference loop field for field."""

    @pytest.mark.parametrize(
        "default", [None, (0, "cut")], ids=["none-default", "tuple-default"]
    )
    def test_truncated_lanes_with_object_defaults(
        self, small_gnp, medium_gnp, default
    ):
        jobs = jobs_matrix(small_gnp, medium_gnp)
        for cap in (1, 3, 6):
            kwargs = {"max_rounds": cap, "default_output": default,
                      "truncate": True}
            fused = run_many(jobs, **kwargs)
            for job, result in zip(jobs, fused):
                solo = solo_twin(job, **kwargs)
                reference = solo_twin(job, backend="reference", **kwargs)
                assert fields_of(result) == fields_of(solo), job[1].name
                assert fields_of(solo) == fields_of(reference), job[1].name
                for u in result.truncated:
                    assert result.outputs[u] == default
            assert any(result.truncated for result in fused), cap

    def test_fast_mis_cut_mid_sweep(self, small_gnp, medium_gnp):
        algo = fast_mis()
        guesses = {"m": medium_gnp.max_ident, "Delta": medium_gnp.max_degree}
        jobs = [
            (graph, algo, {"guesses": guesses, "seed": 1})
            for graph in (small_gnp, medium_gnp)
        ]
        full = run_many(jobs)
        cap = max(res.rounds for res in full) - 2
        kwargs = {"max_rounds": cap, "truncate": True}
        cut = run_many(jobs, **kwargs)
        for job, result in zip(jobs, cut):
            reference = solo_twin(job, backend="reference", **kwargs)
            assert fields_of(result) == fields_of(solo_twin(job, **kwargs))
            assert fields_of(result) == fields_of(reference)
        assert any(
            0 < len(result.truncated) < job[0].n
            for job, result in zip(jobs, cut)
        )

    def test_lockstep_pruner_tuple_outputs(self, small_gnp):
        rng = random.Random(3)
        inputs = {u: (None, rng.choice([0, 1, 2])) for u in small_gnp.nodes}
        algo = MatchingPruning().algorithm()
        for kwargs in ({}, {"max_rounds": 1, "default_output": ("cut", 0),
                            "truncate": True}):
            solo = run(small_gnp, algo, inputs=inputs, **kwargs)
            assert last_stepping() == "rf"
            reference = run(
                small_gnp, algo, inputs=inputs, backend="reference", **kwargs
            )
            assert fields_of(solo) == fields_of(reference), kwargs
            assert all(type(v) is tuple for v in solo.outputs.values())
