"""The round-fused driver, the one ledger of every batch-kernel run
(DESIGN.md D17, D30).

Every algorithm that registers a batch kernel is driven through
:func:`repro.local.batch.drive_kernel` on full, truncated, pruner and
virtual runs, and each run is diffed field for field against the
reference loop (both draw the one counter scheme, D29, D36).  A cap
shorter than a lockstep schedule settles by arithmetic and runs no
kernel code (D35); every other kernel runs its own ``run_fixedpoint``
loop up to the cap (D34, D37).  Every kernel has exactly one stepping
loop.  A compiled run that drives no kernel takes the reference loop
itself (D33); the fallback ladder pins every trigger of that.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms import TABLE1
from repro.algorithms.arboricity import h_partition
from repro.algorithms.fast_coloring import ColoringBatchKernel, fast_coloring
from repro.algorithms.fast_mis import MISBatchKernel, fast_mis
from repro.algorithms.hash_luby import hash_luby_mis
from repro.algorithms.luby import luby_mc, luby_mis
from repro.algorithms.ruling_sets import bitwise_ruling_set, sw_ruling_set
from repro.core.alternating import render_trace
from repro.core.domain import PhysicalDomain, VirtualDomain
from repro.core.pruning import MatchingPruning, RulingSetPruning, SLCPruning
from repro.errors import NonTerminationError
from repro.graphs import line_graph_spec
from repro.local import (
    LocalAlgorithm,
    run,
    run_restricted,
    use_backend,
    virtualize,
)
from repro.local import batch as batch_module
from repro.local.algorithm import HostAlgorithm
from repro.local.batch import LockstepKernel
from repro.local.runner import last_stepping
from repro.problems.coloring import ColorList, SLCInput

RESULT_FIELDS = (
    "outputs",
    "finish_round",
    "rounds",
    "messages",
    "truncated",
    "max_message_bits",
)

#: The two ways a run can execute, each with the tag it leaves.
STRATEGIES = (
    ("reference", "reference"),
    ("rf", "compiled"),
)


def assert_results_equal(a, b, context=""):
    for field in RESULT_FIELDS:
        assert getattr(a, field) == getattr(b, field), (field, context)


def kernel_algorithms(graph):
    """Every algorithm with a batch kernel, with good and garbage guesses."""
    good = {"m": graph.max_ident, "Delta": graph.max_degree}
    return [
        ("luby-mis", luby_mis(), None),
        ("luby-mc", luby_mc(), {"n": graph.n}),
        ("hash-luby", hash_luby_mis(), {"n": graph.n}),
        ("fast-coloring", fast_coloring(), good),
        ("fast-mis", fast_mis(), good),
        ("fast-mis-bad-guess", fast_mis(), {"m": 12, "Delta": 3}),
        ("bitwise-ruling", bitwise_ruling_set(), {"m": graph.max_ident}),
        ("bitwise-ruling-bad-guess", bitwise_ruling_set(), {"m": 5}),
        ("sw-ruling-c2", sw_ruling_set(2), {"n": graph.n}),
        ("h-partition", h_partition(), {"a": 2, "n": graph.n}),
        ("h-partition-overshoot", h_partition(), {"a": 2, "n": graph.n**4}),
    ]


def lockstep_jobs(nodes, max_degree, guesses):
    """Every lockstep kernel algorithm, as ``(label, algorithm, guesses,
    inputs)`` over ``nodes``: H-partition and the bitwise ruling set
    under ``guesses``, and the four pruners on seeded ``(x, ŷ)`` inputs
    with conflicts in them."""
    rng = random.Random(4)
    colors = SLCInput(max_degree, ColorList(2 * (max_degree + 1),
                                            max_degree + 1))

    def pairs(draw):
        return {u: draw() for u in nodes}

    return [
        ("h-partition", h_partition(), guesses, None),
        ("bitwise-ruling", bitwise_ruling_set(), guesses, None),
        *(
            (f"P(2,{beta})", RulingSetPruning(beta).algorithm(), None,
             pairs(lambda: (None, rng.choice([0, 1]))))
            for beta in (1, 2)
        ),
        ("P_MM", MatchingPruning().algorithm(), None,
         pairs(lambda: (None, rng.choice([0, 1, 2])))),
        ("P_SLC", SLCPruning().algorithm(), None,
         pairs(lambda: (colors, (rng.randint(1, 3), 1)
                        if rng.random() < 0.7 else 0))),
    ]


def run_both_ways(call):
    """``call()`` under the reference loop and the round-fused driver;
    checks each run's stepping tag."""
    results = {}
    for tag, backend in STRATEGIES:
        with use_backend(backend):
            results[tag] = call()
            assert last_stepping() == tag
    return results


def assert_both_equal(results, context):
    assert_results_equal(results["reference"], results["rf"], context)


def divergence(call):
    """The :class:`NonTerminationError` ``call()`` raises, as
    ``(rounds, text, unfinished nodes)``."""
    with pytest.raises(NonTerminationError) as err:
        call()
    return err.value.rounds, str(err.value), err.value.unfinished


@pytest.fixture
def coloring_loop_calls(monkeypatch):
    """Record every coloring/MIS kernel's ``run_fixedpoint`` call:
    ``(kernel class, cap)`` per call."""
    calls = []
    loop = ColoringBatchKernel.run_fixedpoint

    def spy(kernel, cap):
        calls.append((type(kernel), cap))
        return loop(kernel, cap)

    monkeypatch.setattr(ColoringBatchKernel, "run_fixedpoint", spy)
    return calls


@pytest.fixture
def run_phases_calls(monkeypatch):
    """Record every lockstep kernel's ``run_phases`` call:
    ``(kernel class, schedule)`` per call."""
    calls = []
    for cls in LockstepKernel.__subclasses__():

        def spy(kernel, run_phases=cls.run_phases):
            calls.append((type(kernel), kernel.schedule))
            return run_phases(kernel)

        monkeypatch.setattr(cls, "run_phases", spy)
    return calls


class TestFusedBitIdentity:
    """rf ≡ reference for every kernel algorithm (D17, D30)."""

    def test_full_runs(self, small_gnp):
        for label, algorithm, guesses in kernel_algorithms(small_gnp):
            results = run_both_ways(
                lambda: run(small_gnp, algorithm, seed=11, guesses=guesses)
            )
            assert_both_equal(results, label)

    @pytest.mark.parametrize("rounds", (1, 2, 7, 40))
    def test_truncated_runs(self, small_gnp, rounds):
        """Restriction parity — including caps shorter than a schedule
        and fixed-point truncation."""
        for label, algorithm, guesses in kernel_algorithms(small_gnp):
            results = run_both_ways(
                lambda: run_restricted(
                    small_gnp, algorithm, rounds, default_output="cut",
                    guesses=guesses,
                )
            )
            assert_both_equal(results, (rounds, label))

    def test_virtual_runs(self, small_gnp):
        """Drives through the virtual (line-graph) batch driver equal
        the host simulation."""
        spec = line_graph_spec(small_gnp)
        guesses = {
            "m": (small_gnp.max_ident + 2) ** 2,
            "Delta": max(1, 2 * small_gnp.max_degree - 2),
        }
        jobs = (
            (fast_mis(), guesses, 400),
            (h_partition(), {"a": 2, "n": small_gnp.n**2}, 60),
        )
        for algorithm, g, budget in jobs:
            outs = {}
            for tag, backend in STRATEGIES:
                with use_backend(backend):
                    outs[tag] = VirtualDomain(small_gnp, spec).run_restricted(
                        algorithm, budget, inputs=None, guesses=g,
                        seed=7, salt="rf", default_output=0,
                    )
                    assert last_stepping() == tag
            assert outs["reference"] == outs["rf"], algorithm.name

    @pytest.mark.parametrize("beta", (1, 3))
    def test_pruner_application(self, small_gnp, beta):
        """Pruner kernels (fixed lockstep schedules) through apply()."""
        rng = random.Random(beta)
        tentative = {u: rng.choice([0, 1]) for u in small_gnp.nodes}
        results = {}
        for tag, backend in STRATEGIES:
            with use_backend(backend):
                results[tag] = RulingSetPruning(beta).apply(
                    PhysicalDomain(small_gnp), {}, dict(tentative)
                )
        want, got = results["reference"], results["rf"]
        assert want.pruned == got.pruned
        assert want.new_inputs == got.new_inputs
        assert want.rounds == got.rounds

    def test_nontermination_parity(self, small_gnp):
        """Without truncation every strategy raises the same divergence."""
        raised = {}
        for tag, backend in STRATEGIES:
            with use_backend(backend):
                with pytest.raises(NonTerminationError) as err:
                    run(small_gnp, luby_mis(), seed=11, max_rounds=1)
            raised[tag] = (err.value.rounds, str(err.value))
        assert raised["rf"][0] == 1
        assert raised["reference"] == raised["rf"]

    def test_whole_alternation(self, small_gnp):
        """Theorem-2 pipeline: rf ≡ reference, steps tagged."""
        outcomes = {}
        for tag, backend in STRATEGIES:
            with use_backend(backend):
                _, _, uniform = TABLE1["luby"].build()
                outcomes[tag] = uniform.run(small_gnp, seed=13)
        fused, reference = outcomes["rf"], outcomes["reference"]
        assert fused.outputs == reference.outputs
        assert fused.rounds == reference.rounds
        assert all(
            step.backends == ("reference", "reference")
            for step in reference.steps
        )
        assert all(step.backends == ("rf", "rf") for step in fused.steps)
        assert "via rf/rf" in render_trace(fused)
        assert "via reference/reference" in render_trace(reference)


def declining(algorithm):
    """``algorithm`` with a batch factory that declines every run."""
    return LocalAlgorithm(
        f"{algorithm.name}-declined",
        algorithm.process,
        requires=algorithm.requires,
        randomized=algorithm.randomized,
        batch=lambda bg, setup: None,
    )


#: Every way a compiled run ends up driving no kernel (D33), as
#: ``trigger -> (algorithm factory, run options)``.
KERNEL_LESS = {
    "no-kernel": (
        lambda: LocalAlgorithm(
            "luby-no-kernel", luby_mis().process, randomized=True
        ),
        {},
    ),
    "factory-declines": (lambda: declining(luby_mis()), {}),
    "track-bits": (luby_mis, {"track_bits": True}),
}


class TestFallbackLadder:
    """What runs off the phase path: a cap shorter than a lockstep
    schedule runs no kernel code (D35), the coloring/MIS kernels cut
    their own loop (D37), and a compiled run that drives no kernel
    takes the reference loop (D33)."""

    @pytest.mark.parametrize("trigger", sorted(KERNEL_LESS))
    def test_kernel_less_runs_take_the_reference_loop(self, small_gnp, trigger):
        """Each remaining trigger: the compiled run is tagged
        ``reference`` and equals ``backend="reference"``
        field for field — full, truncated, diverging and virtual."""
        make, options = KERNEL_LESS[trigger]
        spec = line_graph_spec(small_gnp)
        algorithm = make()

        def each_backend(call):
            results = {}
            for backend in ("reference", "compiled"):
                with use_backend(backend):
                    results[backend] = call()
                    assert last_stepping() == "reference", backend
            return results

        runs = (
            lambda: run(small_gnp, algorithm, seed=3, **options),
            lambda: run_restricted(
                small_gnp, algorithm, 2, default_output="cut", seed=3,
                **options,
            ),
        )
        for call in runs:
            results = each_backend(call)
            assert_results_equal(
                results["reference"], results["compiled"], trigger
            )
        assert results["compiled"].truncated

        def diverge():
            with pytest.raises(NonTerminationError) as err:
                run(small_gnp, algorithm, seed=3, max_rounds=1, **options)
            return err.value.rounds, str(err.value)

        raised = each_backend(diverge)
        assert raised["reference"] == raised["compiled"]

        if options:
            # Domains take no track_bits: run the host simulation itself.
            wrapped = virtualize(spec, algorithm)
            virtual = each_backend(
                lambda: run(small_gnp, wrapped, seed=3, **options)
            )
            assert_results_equal(
                virtual["reference"], virtual["compiled"], trigger
            )
            return
        virtual = each_backend(
            lambda: VirtualDomain(small_gnp, spec).run_restricted(
                algorithm, 6, seed=3, default_output=-1,
            )
        )
        assert virtual["reference"] == virtual["compiled"]

    @pytest.mark.parametrize("cap", (0, 1, 3))
    def test_cap_below_schedule_physical(self, small_gnp, run_phases_calls,
                                         cap):
        """A cap below a lockstep schedule runs no kernel code: truncated,
        the run equals the reference truncated run; not truncated, it
        raises the reference loop's divergence.  ``cap`` is clipped to
        ``schedule - 1``, so 3 is the last cut round of every pruner."""
        guesses = {"m": small_gnp.max_ident, "a": 2, "n": small_gnp.n**4}
        for label, algorithm, g, inputs in lockstep_jobs(
            small_gnp.nodes, small_gnp.max_degree, guesses
        ):
            run_phases_calls.clear()
            full = run_both_ways(
                lambda: run(small_gnp, algorithm, guesses=g, inputs=inputs)
            )
            assert_both_equal(full, label)
            [(_, schedule)] = run_phases_calls
            assert full["rf"].rounds == schedule, label
            run_phases_calls.clear()
            cut = min(cap, schedule - 1)
            results = run_both_ways(
                lambda: run_restricted(
                    small_gnp, algorithm, cut, default_output="cut",
                    guesses=g, inputs=inputs,
                )
            )
            assert_both_equal(results, (cut, label))
            assert results["rf"].truncated == frozenset(small_gnp.nodes)
            raised = run_both_ways(
                lambda: divergence(
                    lambda: run(
                        small_gnp, algorithm, guesses=g, inputs=inputs,
                        max_rounds=cut,
                    )
                )
            )
            assert raised["reference"] == raised["rf"], (cut, label)
            assert run_phases_calls == [], (cut, label)

    def test_cap_below_schedule_virtual(self, small_gnp, run_phases_calls):
        """On a virtual domain the physical cap reaches the driver
        through the dilation (engine cap ``physical // dilation``).  At
        engine caps 0, 1 and ``schedule - 1`` no kernel code runs, and
        each run equals the host runs: truncated (``run_restricted``,
        whose overhead keeps the engine cap ≥ 1) and diverging
        (``run_full``)."""
        spec = line_graph_spec(small_gnp)
        max_degree = max(len(row) for row in spec.adj.values())
        guesses = {
            "m": (small_gnp.max_ident + 2) ** 2, "a": 2, "n": small_gnp.n**8,
        }
        domain = VirtualDomain(small_gnp, spec)
        for label, algorithm, g, inputs in lockstep_jobs(
            spec.virtual_nodes, max_degree, guesses
        ):
            run_phases_calls.clear()
            full = run_both_ways(
                lambda: domain.run_full(algorithm, inputs=inputs, guesses=g)
            )
            assert full["reference"] == full["rf"], label
            [(_, schedule)] = run_phases_calls
            run_phases_calls.clear()
            for cap in sorted({0, 1, schedule - 1}):
                if cap:
                    outs = run_both_ways(
                        lambda: domain.run_restricted(
                            algorithm, cap - 1, inputs=inputs, guesses=g,
                            default_output=-1,
                        )
                    )
                    assert outs["rf"][1] // spec.dilation == cap, label
                    assert outs["reference"] == outs["rf"], (cap, label)
                    assert set(outs["rf"][0].values()) == {-1}
                raised = run_both_ways(
                    lambda: divergence(
                        lambda: domain.run_full(
                            algorithm, inputs=inputs, guesses=g,
                            max_rounds=cap * spec.dilation,
                        )
                    )
                )
                assert raised["reference"] == raised["rf"], (cap, label)
            assert run_phases_calls == [], label

    @pytest.mark.parametrize("label", ("fast-mis", "fast-coloring"))
    def test_coloring_kernels_own_their_loop(self, small_gnp,
                                             coloring_loop_calls, label):
        """The coloring/MIS kernels run their own ``run_fixedpoint``:
        one call per drive, full or cut mid-KW, and no per-round
        ``start``/``step`` protocol is left for a driver to step."""
        assert not hasattr(batch_module, "generic_fixedpoint")
        for cls in (ColoringBatchKernel, MISBatchKernel):
            assert not hasattr(cls, "start") and not hasattr(cls, "step")
            assert not hasattr(cls, "run_phases")
        algorithm, guesses = {
            label: (algorithm, guesses)
            for label, algorithm, guesses in kernel_algorithms(small_gnp)
        }[label]
        results = run_both_ways(
            lambda: run(small_gnp, algorithm, seed=5, guesses=guesses)
        )
        assert_both_equal(results, label)
        full = results["rf"].rounds
        cut = run_both_ways(
            lambda: run_restricted(
                small_gnp, algorithm, full // 2, default_output=-1,
                seed=5, guesses=guesses,
            )
        )
        assert_both_equal(cut, (label, "cut"))
        assert cut["rf"].truncated
        # One drive per compiled run: the full one, then the cut one.
        [(first_cls, _), (cut_cls, cut_cap)] = coloring_loop_calls
        assert first_cls is cut_cls and cut_cap == full // 2
        assert issubclass(first_cls, ColoringBatchKernel)

    def test_track_bits_degrades(self, small_gnp):
        """Message-size tracking drives no kernel, yet counts the same
        rounds and messages as the rf drive."""
        tracked = run(small_gnp, luby_mis(), seed=3,
                      backend="compiled", track_bits=True)
        assert tracked.max_message_bits is not None
        fused = run(small_gnp, luby_mis(), seed=3,
                    backend="compiled")
        assert tracked.outputs == fused.outputs
        assert tracked.rounds == fused.rounds
        assert tracked.messages == fused.messages


#: The two stepping loops a batch kernel may define (D35, D37).
STEPPING_LOOPS = ("run_phases", "run_fixedpoint")


class TestOneSteppingLoop:
    """Each kernel's recurrence is written once (D35, D37)."""

    def test_every_kernel_defines_one_loop(self, small_gnp):
        """Every kernel class a registered batch factory builds defines
        exactly one stepping loop; a lockstep kernel's is its own
        ``run_phases``, and no kernel has ``start`` or ``step``."""
        bg = small_gnp.compiled()

        def setup_of(inputs, guesses):
            return batch_module.BatchSetup(
                inputs or {}, guesses or {},
                lambda bits: batch_module.CounterDraws(bg.ident_mix(), bits),
            )

        guesses = {"m": small_gnp.max_ident, "a": 2, "n": small_gnp.n}
        jobs = [(a, g, None) for _, a, g in kernel_algorithms(small_gnp)]
        jobs += [
            (a, g, inputs)
            for _, a, g, inputs in lockstep_jobs(
                small_gnp.nodes, small_gnp.max_degree, guesses
            )
        ]
        classes = {
            type(algorithm.batch(bg, setup_of(inputs, g)))
            for algorithm, g, inputs in jobs
        }
        lockstep = {cls for cls in classes if issubclass(cls, LockstepKernel)}
        assert lockstep == set(LockstepKernel.__subclasses__())
        for cls in classes:
            loops = [
                name
                for name in STEPPING_LOOPS
                if getattr(cls, name, None) not in (
                    None, getattr(LockstepKernel, name, None)
                )
            ]
            assert len(loops) == 1, (cls.__name__, loops)
            if cls in lockstep:
                assert loops == ["run_phases"], cls.__name__
            # No kernel keeps a per-round protocol beside its loop.
            assert not hasattr(cls, "start"), cls.__name__
            assert not hasattr(cls, "step"), cls.__name__


class TestDispatchAttributes:
    """Dispatch reads ``batch`` and ``fuse`` off the algorithm, nothing
    else."""

    def test_table1_rows(self):
        for row_id, row in TABLE1.items():
            box = row.make_nonuniform().algorithm
            for algorithm in (box, row.make_pruning().algorithm()):
                assert not hasattr(algorithm, "roundfuse"), row_id
                # Lane fusion implies a batch kernel to fuse.
                if getattr(algorithm, "fuse", False):
                    assert algorithm.batch is not None, row_id
        luby = TABLE1["luby"]
        assert luby.make_nonuniform().algorithm.batch is not None
        assert luby.make_pruning().algorithm().batch is not None
        # Host orchestrations never run a kernel at top level.
        box = TABLE1["matching"].make_nonuniform().algorithm
        assert isinstance(box, HostAlgorithm)
        assert not hasattr(box, "batch")

    def test_kernel_algorithms_have_batch(self, small_gnp):
        for label, algorithm, _ in kernel_algorithms(small_gnp):
            assert algorithm.batch is not None, label
        assert MatchingPruning().algorithm().batch is not None


class TestLockstepKernelCache:
    """The cached undone-indices satellite."""

    def test_undone_indices_cached(self, small_gnp):
        bg = small_gnp.compiled()
        kernel = batch_module.LockstepKernel(bg, schedule=3)
        first = kernel.undone_indices()
        assert first == list(range(bg.n))
        assert kernel.undone_indices() is first

    def test_mis_sweep_stays_dynamic(self, small_gnp):
        """MIS undone sets shrink slot by slot: a cap inside the sweep
        leaves only the later slots' nodes undone, not the cached
        every-node list of the coloring stages."""
        guesses = {"m": small_gnp.max_ident, "Delta": small_gnp.max_degree}
        full = run(small_gnp, fast_mis(), guesses=guesses)
        for cap in (3, full.rounds - 1):
            results = run_both_ways(
                lambda: run_restricted(
                    small_gnp, fast_mis(), cap, default_output=0,
                    guesses=guesses,
                )
            )
            assert_both_equal(results, ("mis-sweep", cap))
        assert 0 < len(results["rf"].truncated) < small_gnp.n
