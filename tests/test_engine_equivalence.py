"""Cross-backend equivalence suite (DESIGN.md, backend contract).

Proves the compiled engine and the reference loop are interchangeable:
bit-identical :class:`RunResult` fields under the one counter random
scheme both draw (DESIGN.md D29, D36) on every workload family, for
truncated and self-terminating runs, for targeted-message algorithms,
with message-size tracking, through whole alternation pipelines, and on
virtual (line-graph) domains.  Also pins
the incremental restriction paths against their rebuild specifications.
"""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import TABLE1
from repro.algorithms.arboricity import h_partition
from repro.algorithms.fast_coloring import ColoringBatchKernel, fast_coloring
from repro.algorithms.fast_mis import fast_mis
from repro.algorithms.greedy import greedy_coloring, greedy_matching
from repro.algorithms.hash_luby import hash_luby_mis
from repro.algorithms.luby import luby_mc, luby_mis
from repro.algorithms.ruling_sets import bitwise_ruling_set, sw_ruling_set
from repro.bench import WORKLOADS, build_graph
from repro.core.domain import PhysicalDomain, VirtualDomain
from repro.core.pruning import MatchingPruning, RulingSetPruning, SLCPruning
from repro.errors import NonTerminationError
from repro.graphs import clique_product_spec, line_graph_spec
from repro.local import (
    Broadcast,
    LocalAlgorithm,
    NodeProcess,
    SimGraph,
    run,
    run_many,
    run_restricted,
    use_backend,
)
from repro.local import virtual
from repro.local.batch import BatchGraph
from repro.problems import MIS, ColorList, SLCInput

BACKENDS = ("reference", "compiled")

RESULT_FIELDS = (
    "outputs",
    "finish_round",
    "rounds",
    "messages",
    "truncated",
    "max_message_bits",
)


def assert_results_equal(a, b, context=""):
    for field in RESULT_FIELDS:
        assert getattr(a, field) == getattr(b, field), (field, context)


def run_both(graph, algorithm, **kwargs):
    ref = run(graph, algorithm, backend="reference", **kwargs)
    cmp_ = run(graph, algorithm, backend="compiled", **kwargs)
    return ref, cmp_


class PingPong(NodeProcess):
    """Targeted-message algorithm: exercises the dict delivery path."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.rounds_left = 3
        self.heard = 0

    def start(self):
        if self.ctx.degree == 0:
            self.finish(0)
            return None
        # Message only the even ports, with port-dependent payloads.
        return {p: ("ping", self.ctx.ident, p) for p in range(0, self.ctx.degree, 2)}

    def receive(self, inbox):
        self.heard += len(inbox)
        self.rounds_left -= 1
        if self.rounds_left == 0:
            self.finish(self.heard)
            return None
        return {p: ("ping", self.heard) for p in range(0, self.ctx.degree, 2)}


def ping_pong():
    return LocalAlgorithm("ping-pong", PingPong)


class TestRunEquivalence:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_luby_all_workloads(self, workload):
        graph = build_graph(WORKLOADS[workload](48, seed=3), seed=4)
        ref, cmp_ = run_both(graph, luby_mis(), seed=11)
        assert_results_equal(ref, cmp_, context=workload)
        assert MIS.is_solution(graph, {}, cmp_.outputs)

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_seed_sweep(self, small_gnp, seed):
        ref, cmp_ = run_both(small_gnp, luby_mis(), seed=seed)
        assert_results_equal(ref, cmp_, context=seed)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_truncated_run(self, workload):
        graph = build_graph(WORKLOADS[workload](48, seed=3), seed=4)
        ref = run_restricted(
            graph, luby_mis(), 2, default_output="cut",
            backend="reference",
        )
        cmp_ = run_restricted(
            graph, luby_mis(), 2, default_output="cut",
            backend="compiled",
        )
        assert_results_equal(ref, cmp_, context=workload)

    def test_truncation_bites(self, small_gnp):
        ref = run_restricted(
            small_gnp, luby_mis(), 2, default_output="cut",
            backend="reference",
        )
        cmp_ = run_restricted(
            small_gnp, luby_mis(), 2, default_output="cut",
            backend="compiled",
        )
        assert_results_equal(ref, cmp_)
        assert ref.truncated  # the restriction actually bit

    def test_targeted_messages(self, small_gnp):
        ref, cmp_ = run_both(small_gnp, ping_pong(), seed=5)
        assert_results_equal(ref, cmp_)
        assert cmp_.messages > 0

    def test_track_bits(self, small_gnp):
        ref, cmp_ = run_both(
            small_gnp, luby_mis(), seed=7, track_bits=True
        )
        assert_results_equal(ref, cmp_)
        assert cmp_.max_message_bits is not None
        assert cmp_.max_message_bits > 0

    def test_empty_graph(self):
        import networkx as nx

        from repro.local import SimGraph

        graph = SimGraph.from_networkx(nx.empty_graph(0))
        ref, cmp_ = run_both(graph, luby_mis())
        assert_results_equal(ref, cmp_)

    def test_nontermination_parity(self, path12):
        class Forever(NodeProcess):
            def start(self):
                return Broadcast("x")

            def receive(self, inbox):
                return Broadcast("x")

        algo = LocalAlgorithm("forever", Forever)
        errors = {}
        for backend in BACKENDS:
            with pytest.raises(NonTerminationError) as excinfo:
                run(path12, algo, max_rounds=4, backend=backend)
            errors[backend] = excinfo.value
        assert str(errors["reference"]) == str(errors["compiled"])

    def test_bad_port_parity(self, path12):
        class BadPort(NodeProcess):
            def start(self):
                return {99: "boom"}

            def receive(self, inbox):
                return None

        algo = LocalAlgorithm("bad", BadPort)
        messages = {}
        for backend in BACKENDS:
            with pytest.raises(ValueError) as excinfo:
                run(path12, algo, backend=backend)
            messages[backend] = str(excinfo.value)
        assert messages["reference"] == messages["compiled"]


class TestPipelineEquivalence:
    @pytest.mark.parametrize("row", ("mis-nonly", "luby"))
    def test_uniform_rows(self, small_gnp, row):
        results = {}
        for backend in BACKENDS:
            with use_backend(backend):
                _, _, uniform = TABLE1[row].build()
                results[backend] = uniform.run(small_gnp, seed=13)
        ref, cmp_ = results["reference"], results["compiled"]
        assert ref.outputs == cmp_.outputs
        assert ref.rounds == cmp_.rounds
        assert len(ref.steps) == len(cmp_.steps)

    def test_matching_row_on_line_graph(self, small_gnp):
        """Virtual-domain (line-graph) alternation, both backends."""
        results = {}
        for backend in BACKENDS:
            with use_backend(backend):
                _, _, uniform = TABLE1["matching"].build()
                results[backend] = uniform.run(small_gnp, seed=17)
        ref, cmp_ = results["reference"], results["compiled"]
        assert ref.outputs == cmp_.outputs
        assert ref.rounds == cmp_.rounds


class TestVirtualDomainEquivalence:
    def test_line_graph_restricted_run(self, small_gnp):
        spec = line_graph_spec(small_gnp)
        outputs = {}
        for backend in BACKENDS:
            domain = VirtualDomain(small_gnp, spec)
            outputs[backend] = domain.run_restricted(
                luby_mis(), 24, seed=19, backend=backend
            )
        assert outputs["reference"] == outputs["compiled"]

    def test_clique_product_full_run(self, small_gnp):
        spec = clique_product_spec(small_gnp)
        outputs = {}
        for backend in BACKENDS:
            domain = VirtualDomain(small_gnp, spec)
            outputs[backend] = domain.run_full(
                luby_mis(), seed=23, backend=backend
            )
        assert outputs["reference"] == outputs["compiled"]


def kernel_algorithms(graph):
    """Every algorithm with a batch kernel, with good and garbage guesses."""
    good = {"m": graph.max_ident, "Delta": graph.max_degree}
    bad = {"m": 12, "Delta": 3}
    return [
        ("luby-mis", luby_mis(), None),
        ("luby-mc", luby_mc(), {"n": graph.n}),
        ("hash-luby", hash_luby_mis(), {"n": graph.n}),
        ("fast-coloring", fast_coloring(), good),
        ("fast-mis", fast_mis(), good),
        ("fast-coloring-bad-guess", fast_coloring(), bad),
        ("fast-mis-bad-guess", fast_mis(), bad),
        ("bitwise-ruling", bitwise_ruling_set(), {"m": graph.max_ident}),
        ("bitwise-ruling-bad-guess", bitwise_ruling_set(), {"m": 5}),
        ("sw-ruling-c1", sw_ruling_set(1), {"n": graph.n}),
        ("h-partition", h_partition(), {"a": 2, "n": graph.n}),
        ("h-partition-bad-guess", h_partition(), {"a": 1, "n": 3}),
    ]


class TestBatchEquivalence:
    """Batch-vs-reference bit identity for every batched kernel (D10)."""

    @pytest.mark.parametrize("workload", ("gnp-sparse", "tree", "star-noise"))
    def test_full_runs(self, workload):
        graph = build_graph(WORKLOADS[workload](52, seed=3), seed=4)
        for label, algorithm, guesses in kernel_algorithms(graph):
            reference, batched = run_both(
                graph, algorithm, seed=11, guesses=guesses
            )
            assert_results_equal(
                reference, batched, context=(workload, label)
            )

    @pytest.mark.parametrize("rounds", (1, 2, 7))
    def test_truncated_runs(self, small_gnp, rounds):
        for label, algorithm, guesses in kernel_algorithms(small_gnp):
            reference, batched = (
                run_restricted(
                    small_gnp, algorithm, rounds, default_output="cut",
                    guesses=guesses, backend=backend,
                )
                for backend in BACKENDS
            )
            assert_results_equal(reference, batched, context=(rounds, label))

    def test_batch_matches_reference(self, small_gnp):
        for label, algorithm, guesses in kernel_algorithms(small_gnp):
            reference = run(
                small_gnp, algorithm, backend="reference",
                seed=5, guesses=guesses,
            )
            batched = run(
                small_gnp, algorithm, backend="compiled",
                seed=5, guesses=guesses,
            )
            assert_results_equal(reference, batched, context=label)

    def test_big_identity_space_matches_reference(self):
        """Identities beyond int64 peel the first Linial reduction in
        Python ints; the fused kernel still runs and matches the
        reference loop."""
        import networkx as nx

        from repro.local import SimGraph
        from repro.local.runner import last_stepping

        graph = nx.path_graph(6)
        idents = {i: (1 << 70) + 2 * i + 1 for i in graph.nodes}
        sim = SimGraph.from_networkx(graph, idents=idents)
        guesses = {"m": max(idents.values()), "Delta": 2}
        reference, compiled = run_both(
            sim, fast_mis(), seed=3, guesses=guesses
        )
        assert last_stepping() == "rf"
        assert_results_equal(reference, compiled, context="big idents")

    @pytest.mark.parametrize(
        "top", [2**64 - 1, 2**70], ids=["u64-max", "past-u64"]
    )
    def test_counter_luby_identities_around_two_to_the_64(self, top):
        """Counter-rng Luby draws from the identity mix; identities at and
        past 2^64 - 1 (and a set straddling it) keep batched = reference."""
        import networkx as nx

        from repro.local import SimGraph
        from repro.local.runner import last_stepping

        graph = nx.cycle_graph(8)
        pool = [1, 2**63, 2**64 - 2, top, 2**63 + 5, 7, 2**62, top - 9]
        sim = SimGraph.from_networkx(graph, idents=dict(enumerate(pool)))
        reference, compiled = run_both(sim, luby_mis(), seed=9)
        assert last_stepping() == "rf"
        assert_results_equal(reference, compiled, context=top)

    def test_nontermination_parity(self, small_gnp):
        errors = {}
        for backend in BACKENDS:
            with pytest.raises(NonTerminationError) as excinfo:
                run(small_gnp, luby_mis(), max_rounds=1, backend=backend)
            errors[backend] = str(excinfo.value)
        assert errors["reference"] == errors["compiled"]

    @pytest.mark.parametrize("budget", (2, 8, 40))
    def test_line_graph_domain(self, small_gnp, budget):
        spec = line_graph_spec(small_gnp)
        guesses = {"m": small_gnp.max_ident**2, "Delta": 2 * small_gnp.max_degree}
        for label, algorithm, g in (
            ("luby", luby_mis(), None),
            ("fast-mis", fast_mis(), guesses),
        ):
            outputs = {}
            for backend in BACKENDS:
                domain = VirtualDomain(small_gnp, spec)
                outputs[backend] = domain.run_restricted(
                    algorithm, budget, seed=19, guesses=g, backend=backend,
                )
            assert outputs["reference"] == outputs["compiled"], (
                label, budget,
            )

    def test_clique_product_domain(self, small_gnp):
        spec = clique_product_spec(small_gnp)
        outputs = {}
        for backend in BACKENDS:
            domain = VirtualDomain(small_gnp, spec)
            outputs[backend] = domain.run_restricted(
                luby_mis(), 30, seed=23, backend=backend
            )
        assert outputs["reference"] == outputs["compiled"]

    def test_restricted_spec_domain(self, small_gnp):
        """Batch driver on an incrementally restricted virtual spec."""
        spec = line_graph_spec(small_gnp)
        keep = set(list(spec.virtual_nodes)[::2])
        outputs = {}
        for backend in BACKENDS:
            domain = VirtualDomain(small_gnp, spec)
            with use_backend(backend):
                sub = domain.subgraph(keep)
                outputs[backend] = sub.run_restricted(luby_mis(), 24, seed=29)
        assert outputs["reference"] == outputs["compiled"]

    def test_matching_row_pipeline(self, small_gnp):
        """Whole matching alternation: batch vs the reference loop."""
        results = {}
        for backend in BACKENDS:
            with use_backend(backend):
                _, _, uniform = TABLE1["matching"].build()
                results[backend] = uniform.run(small_gnp, seed=17)
        ref, cmp_ = results["reference"], results["compiled"]
        assert ref.outputs == cmp_.outputs
        assert ref.rounds == cmp_.rounds
        assert len(ref.steps) == len(cmp_.steps)


class TestKWBoundaries:
    """The KW kernel's announcement edge cases, reference vs batch vs fused.

    A phase visits only its non-empty ranks, absorbs an in-phase
    announcement only where a later same-group rank reads it, carries
    only last-rank announcements into the next phase, and stops at a
    fixed point (DESIGN.md D28, D37).  So these are the cases that path
    must get right: an announcement made in a phase's last rank landing
    under the next phase's groups, adjacent nodes announcing in the
    same round, long runs of empty ranks, a phase whose last
    announcement comes before its last rank and would pass the next
    phase's group test if it were carried, and a fixed point with
    phases left to settle.  Spies on ``_kw_phase`` and ``_repeats``
    assert each case really occurs.
    """

    CASES = {
        # Δ̃ = 1 on a degree-12 graph: many phases, and the last rank of
        # a phase announces to neighbours that share the next group
        # (on this graph, testing the sender's next-phase group instead
        # of the one it announced under changes the colors).
        "cross-phase": ({"Delta": 1}, ("cross",)),
        # Δ̃ = 3 with a tiny m̃: no Linial stage, and neighbours share
        # ranks.
        "adjacent-announcers": ({"m": 12, "Delta": 3}, ("adjacent",)),
        # Δ̃ = 40: group size 82, most ranks empty; phases end before
        # their last rank, and the colors settle into one group with
        # phases to spare.
        "empty-rank-runs": (
            {"Delta": 40}, ("empty-run", "dropped", "fixed-point")
        ),
    }

    @pytest.fixture
    def kw_events(self, monkeypatch):
        events = set()
        phases_run = {}
        phase = ColoringBatchKernel._kw_phase
        repeats = ColoringBatchKernel._repeats

        def phase_spy(kernel, carry, limit):
            bg = kernel.bg
            group_size = 2 * (kernel.delta + 1)
            entry = kernel.colors.copy()
            group, rank = entry // group_size, entry % group_size
            out = phase(kernel, carry, limit)
            # Keyed by the kernel itself, which keeps it alive: an id
            # could be reused by the next run's kernel.
            index = phases_run[kernel] = phases_run.get(kernel, -1) + 1
            left = len(kernel.kw_phases) - index - 1
            if carry is not None:
                # One entry per carried slot: sender, receiver, value,
                # and the group array the senders announced under.
                src, dst, _, sent_group = carry
                if (group[dst] == sent_group[src]).any():
                    events.add("cross")
            live = rank[bg.owner] < limit
            if (rank[bg.owner] == rank[bg.neigh])[live].any():
                events.add("adjacent")
            empty = np.bincount(rank, minlength=group_size)[:limit] == 0
            run = 0
            for is_empty in empty.tolist():
                run = run + 1 if is_empty else 0
                if run >= 8:
                    events.add("empty-run")
            last = int(rank.max())
            if limit == group_size and last < group_size - 1 and left:
                # The phase's last announcers precede its last rank, and
                # carrying them would reach a same-group receiver.
                senders = np.flatnonzero(rank == last)
                k, w = bg.row_slots(senders)
                next_group = kernel.colors // group_size
                if (next_group[w] == group[senders[k]]).any():
                    events.add("dropped")
            return out

        def repeats_spy(kernel):
            out = repeats(kernel)
            colors = kernel.colors
            if out:
                events.add("fixed-point")
            elif 0 <= colors.min() and colors.max() <= kernel.delta:
                events.add("one-group-recolor")
            return out

        monkeypatch.setattr(ColoringBatchKernel, "_kw_phase", phase_spy)
        monkeypatch.setattr(ColoringBatchKernel, "_repeats", repeats_spy)
        return events

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("make", (fast_coloring, fast_mis))
    def test_per_node_batch_and_fused_agree(self, case, make, kw_events):
        graph = build_graph(WORKLOADS["gnp-sparse"](52, seed=3), seed=4)
        other = build_graph(WORKLOADS["tree"](40, seed=5), seed=6)
        guesses, expected = self.CASES[case]
        guesses = {"m": graph.max_ident, **guesses}
        algorithm = make()
        reference, batched = run_both(
            graph, algorithm, seed=11, guesses=guesses
        )
        assert_results_equal(reference, batched, context=case)
        assert kw_events.issuperset(expected), (case, kw_events)
        kw_events.clear()
        jobs = [
            (other, algorithm, {"guesses": guesses, "seed": 1}),
            (graph, algorithm, {"guesses": guesses, "seed": 11}),
            (graph, algorithm, {"guesses": guesses, "seed": 2}),
        ]
        for (lane_graph, _, opts), fused in zip(jobs, run_many(jobs)):
            solo = run(lane_graph, algorithm, backend="reference", **opts)
            assert_results_equal(solo, fused, context=(case, "fused"))
        assert kw_events.issuperset(expected), (case, "fused", kw_events)


    @pytest.mark.parametrize("make", (fast_coloring, fast_mis))
    def test_one_group_phase_that_recolors(self, make, kw_events):
        """A phase whose colors all lie in one group is not a fixed point
        by itself: a proper input coloring with its classes relabelled
        (so a node may sit above a missing lower color) recolors in the
        first KW phase, and only a later phase repeats."""
        graph = build_graph(WORKLOADS["gnp-sparse"](52, seed=3), seed=4)
        delta = graph.max_degree
        greedy = greedy_coloring(graph)
        relabel = list(range(1, max(greedy.values()) + 1))
        random.Random(7).shuffle(relabel)
        inputs = {u: {"color": relabel[c - 1]} for u, c in greedy.items()}
        # No Linial stage (the palette guess is below q²) and two KW
        # phases from a palette of 4(Δ̃+1).
        guesses = {"m": 4 * (delta + 1), "Delta": delta}
        algorithm = make()
        reference, batched = run_both(
            graph, algorithm, seed=11, guesses=guesses, inputs=inputs
        )
        assert_results_equal(reference, batched, context="recolor")
        assert {"one-group-recolor", "fixed-point"} <= kw_events, kw_events
        jobs = [
            (graph, algorithm, {"guesses": guesses, "inputs": inputs,
                                "seed": seed})
            for seed in (1, 2)
        ]
        for (_, _, opts), fused in zip(jobs, run_many(jobs)):
            solo = run(graph, algorithm, backend="reference", **opts)
            assert_results_equal(solo, fused, context=("recolor", "fused"))


def assert_prune_results_equal(a, b, context=""):
    assert a.pruned == b.pruned, ("pruned", context)
    assert a.new_inputs == b.new_inputs, ("new_inputs", context)
    assert a.rounds == b.rounds, ("rounds", context)


def apply_both(pruner, domain_factory, inputs, tentative, seed=3):
    """One reference-loop pruning application, one batched, same config."""
    with use_backend("reference"):
        reference = pruner.apply(
            domain_factory(), inputs, tentative, seed=seed, salt="eq"
        )
    batched = pruner.apply(
        domain_factory(), inputs, tentative, seed=seed, salt="eq"
    )
    return reference, batched


def slc_instance(graph, rng):
    delta_hat = graph.max_degree
    width = 2 * (delta_hat + 1)
    inputs = {
        u: SLCInput(delta_hat, ColorList(width, delta_hat + 1))
        for u in graph.nodes
    }
    colors = greedy_coloring(graph)
    tentative = {
        u: (colors[u], 1) if rng.random() < 0.5 else 0 for u in graph.nodes
    }
    return inputs, tentative


class TestPrunerBatchEquivalence:
    """Batch-vs-reference bit identity for the pruner kernels (D11)."""

    @pytest.mark.parametrize("beta", (1, 2, 4))
    @pytest.mark.parametrize("seed", (0, 1))
    def test_ruling_set_pruning(self, small_gnp, beta, seed):
        rng = random.Random(seed)
        tentative = {u: rng.choice([0, 1]) for u in small_gnp.nodes}
        reference, batched = apply_both(
            RulingSetPruning(beta),
            lambda: PhysicalDomain(small_gnp),
            {},
            tentative,
        )
        assert_prune_results_equal(reference, batched, (beta, seed))

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_matching_pruning(self, small_gnp, seed):
        rng = random.Random(seed)
        base = greedy_matching(small_gnp)
        tentative = {}
        for u in small_gnp.nodes:
            roll = rng.random()
            if roll < 0.5:
                tentative[u] = base[u]
            elif roll < 0.8:
                tentative[u] = ("U", small_gnp.ident[u])
            else:
                tentative[u] = 0  # truncation default
        reference, batched = apply_both(
            MatchingPruning(), lambda: PhysicalDomain(small_gnp), {}, tentative
        )
        assert_prune_results_equal(reference, batched, seed)

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_slc_pruning_rewrites_inputs_identically(self, small_gnp, seed):
        inputs, tentative = slc_instance(small_gnp, random.Random(seed))
        reference, batched = apply_both(
            SLCPruning(), lambda: PhysicalDomain(small_gnp), inputs, tentative
        )
        assert_prune_results_equal(reference, batched, seed)
        survivors = set(small_gnp.nodes) - reference.pruned
        rewritten = [
            u
            for u in survivors
            if reference.new_inputs[u].colors.removed
        ]
        assert rewritten  # the rewrite actually bit
        for u in rewritten:
            assert (
                batched.new_inputs[u].colors.removed
                == reference.new_inputs[u].colors.removed
            )

    def test_restricted_domain_survivors(self, medium_gnp):
        """Pruner kernels on an incrementally restricted SimGraph."""
        keep = [u for u in medium_gnp.nodes if medium_gnp.ident[u] % 3]
        sub = PhysicalDomain(medium_gnp).subgraph(keep)
        rng = random.Random(7)
        tentative = {u: rng.choice([0, 1]) for u in sub.nodes}
        reference, batched = apply_both(
            RulingSetPruning(2), lambda: sub, {}, tentative
        )
        assert_prune_results_equal(reference, batched)
        inputs, slc_tent = slc_instance(sub.as_simgraph(), random.Random(9))
        reference, batched = apply_both(
            SLCPruning(), lambda: sub, inputs, slc_tent
        )
        assert_prune_results_equal(reference, batched)

    def test_virtual_domain_pruning(self, small_gnp):
        """Pruner kernels through the virtual batch driver (line graph)."""
        spec = line_graph_spec(small_gnp)
        rng = random.Random(11)
        mis_bits = {v: rng.choice([0, 1]) for v in spec.virtual_nodes}
        matching = {
            v: ("M",) + tuple(sorted(spec.ident[w] for w in (v,)))
            if mis_bits[v]
            else ("U", spec.ident[v])
            for v in spec.virtual_nodes
        }
        for pruner, tentative in (
            (RulingSetPruning(1), mis_bits),
            (MatchingPruning(), matching),
        ):
            reference, batched = apply_both(
                pruner, lambda: VirtualDomain(small_gnp, spec), {}, tentative
            )
            assert_prune_results_equal(reference, batched, pruner.name)

    def test_restricted_spec_survivors(self, small_gnp):
        """Pruner kernels on an incrementally restricted VirtualSpec."""
        spec = line_graph_spec(small_gnp)
        keep = set(list(spec.virtual_nodes)[::2])
        sub = VirtualDomain(small_gnp, spec).subgraph(keep)
        rng = random.Random(13)
        tentative = {v: rng.choice([0, 1]) for v in sub.nodes}
        reference, batched = apply_both(
            RulingSetPruning(1), lambda: sub, {}, tentative
        )
        assert_prune_results_equal(reference, batched)

    def test_unhashable_values_fall_back(self, small_gnp):
        """Unencodable ŷ values decline batching but stay correct."""
        tentative = {u: ["unhashable", u] for u in small_gnp.nodes}
        reference, batched = apply_both(
            MatchingPruning(), lambda: PhysicalDomain(small_gnp), {}, tentative
        )
        assert_prune_results_equal(reference, batched)

    def test_pruner_runs_as_plain_algorithm(self, small_gnp):
        """The pruner's LocalAlgorithm itself satisfies the D10 contract."""
        rng = random.Random(3)
        pair_inputs = {
            u: (None, rng.choice([0, 1])) for u in small_gnp.nodes
        }
        for pruner in (RulingSetPruning(2), MatchingPruning()):
            algo = pruner.algorithm()
            reference, batched = (
                run_restricted(
                    small_gnp, algo, pruner.rounds, default_output=("keep", None),
                    inputs=pair_inputs, backend=backend,
                )
                for backend in BACKENDS
            )
            assert_results_equal(reference, batched, context=pruner.name)

    def test_alternation_records_backends(self, small_gnp):
        """StepRecords attribute both runs of a step to their backend."""
        with use_backend("compiled"):
            _, _, uniform = TABLE1["luby"].build()
            result = uniform.run(small_gnp, seed=13)
        assert result.steps
        # Both halves of each B_i = (A_i ; P) step register a batch
        # kernel, so the round-fused driver tags them "rf" (D17, D30).
        for step in result.steps:
            assert step.backends == ("rf", "rf")
            assert step.seconds is not None and step.seconds >= 0
        summary = result.backend_summary()
        assert summary == {
            "rf|rf": {
                "steps": len(result.steps),
                "seconds": summary["rf|rf"]["seconds"],
            }
        }
        with use_backend("reference"):
            _, _, uniform = TABLE1["luby"].build()
            reference = uniform.run(small_gnp, seed=13)
        assert all(
            step.backends == ("reference", "reference")
            for step in reference.steps
        )
        assert reference.outputs == result.outputs
        assert reference.rounds == result.rounds


class TestVirtualRunFullBatch:
    """``run_full`` on virtual domains through the batch path (the
    ROADMAP "still per-node" gap): doubling budget to the fixed point,
    bit-identical outputs *and* physical rounds vs the host loop."""

    def test_line_graph_full(self, small_gnp):
        spec = line_graph_spec(small_gnp)
        domain = VirtualDomain(small_gnp, spec)
        with use_backend("reference"):
            reference = domain.run_full(luby_mis(), seed=23)
        batched = domain.run_full(luby_mis(), seed=23)
        assert reference == batched

    def test_clique_product_full(self, small_gnp):
        spec = clique_product_spec(small_gnp)
        domain = VirtualDomain(small_gnp, spec)
        with use_backend("reference"):
            reference = domain.run_full(luby_mis(), seed=23)
        batched = domain.run_full(luby_mis(), seed=23)
        assert reference == batched

    def test_matches_reference_stack(self, small_gnp):
        spec = line_graph_spec(small_gnp)
        with use_backend("reference"):
            ref = VirtualDomain(small_gnp, spec).run_full(
                luby_mis(), seed=31
            )
        got = VirtualDomain(small_gnp, spec).run_full(
            luby_mis(), seed=31
        )
        assert ref == got

    def test_nonuniform_kernel_full(self, small_gnp):
        spec = line_graph_spec(small_gnp)
        domain = VirtualDomain(small_gnp, spec)
        guesses = {
            "m": small_gnp.max_ident**2,
            "Delta": 2 * small_gnp.max_degree,
        }
        with use_backend("reference"):
            reference = domain.run_full(fast_mis(), seed=9, guesses=guesses)
        batched = domain.run_full(fast_mis(), seed=9, guesses=guesses)
        assert reference == batched

    def test_nontermination_parity(self, small_gnp):
        spec = line_graph_spec(small_gnp)
        domain = VirtualDomain(small_gnp, spec)
        errors = {}
        for backend in BACKENDS:
            with use_backend(backend):
                with pytest.raises(NonTerminationError) as excinfo:
                    domain.run_full(luby_mis(), seed=23, max_rounds=2)
            errors[backend] = str(excinfo.value)
        assert errors["reference"] == errors["compiled"]



class TestRelayBumpSweep:
    """The host commit replay at every physical cap, relays included.

    A relay commits one round after the last announcement of its client
    hosts, so from its own announcement up to that round its virtual
    nodes still take the default output and it still counts as
    unfinished.  The star and the path relay through a node that hosts
    nothing; on ``small_gnp``'s line graph relays host edges too.
    """

    @staticmethod
    def graph(name, small_gnp):
        if name == "star":
            idents = {0: 10, 1: 1, 2: 2, 3: 3, 4: 4}
            return SimGraph.from_networkx(nx.star_graph(4), idents=idents)
        if name == "path":
            idents = {0: 1, 1: 3, 2: 2}
            return SimGraph.from_networkx(nx.path_graph(3), idents=idents)
        return small_gnp

    @pytest.mark.parametrize("algorithm", ["luby", "fast-mis"])
    @pytest.mark.parametrize("name", ["star", "path", "small_gnp"])
    def test_every_physical_cap(self, small_gnp, name, algorithm, monkeypatch):
        graph = self.graph(name, small_gnp)
        spec = line_graph_spec(graph)
        assert spec.dilation == 2
        # Δ̃ = 2 keeps fast MIS's schedule short (61 physical rounds on
        # small_gnp's line graph); the backends agree under any guess.
        algo, guesses = {
            "luby": (luby_mis(), None),
            "fast-mis": (fast_mis(), {"m": graph.max_ident**2, "Delta": 2}),
        }[algorithm]
        domain = VirtualDomain(graph, spec)
        finishes = []
        replay = virtual._host_commits

        def spy(spec, physical, finish):
            finishes.append(finish.copy())
            return replay(spec, physical, finish)

        monkeypatch.setattr(virtual, "_host_commits", spy)
        full = {
            backend: domain.run_full(
                algo, seed=5, guesses=guesses, backend=backend
            )
            for backend in BACKENDS
        }
        assert full["reference"] == full["compiled"]
        rounds = full["compiled"][1]
        # Host announcements of the full run, to locate the relay
        # windows the sweep below must cross.
        last = np.zeros(graph.n, dtype=np.int64)
        np.maximum.at(last, spec.host_index, finishes[0])
        announce = np.maximum(last - 1, 0) * spec.dilation
        pairs = list(zip(*(a.tolist() for a in spec.relays)))

        def bumps(caps, relays):
            return any(
                announce[r] <= cap <= announce[c]
                for r, c in pairs
                if r in relays
                for cap in caps
            )

        assert bumps(range(rounds), {r for r, _ in pairs})
        for cap in range(rounds):
            errors = {}
            for backend in BACKENDS:
                with pytest.raises(NonTerminationError) as excinfo:
                    domain.run_full(
                        algo, seed=5, guesses=guesses, max_rounds=cap,
                        backend=backend,
                    )
                errors[backend] = (str(excinfo.value), excinfo.value.unfinished)
            assert errors["reference"] == errors["compiled"], cap
        caps = []
        for budget in range(rounds // spec.dilation + 1):
            outputs = [
                domain.run_restricted(
                    algo, budget, seed=5, guesses=guesses, default_output=-1,
                    backend=backend,
                )
                for backend in BACKENDS
            ]
            assert outputs[0] == outputs[1], budget
            caps.append(outputs[0][1])
        if name == "small_gnp":
            # A bumped relay that hosts edges, at a run_restricted cap.
            assert bumps(caps, set(spec.host_index.tolist()))


def spec_signature(spec):
    return (
        spec.host,
        spec.ident,
        spec.adj,
        spec.dilation,
        spec.send_plan,
        spec.forward_plan,
        spec.relay_client_ports,
    )


class TestIncrementalRestriction:
    def test_subgraph_matches_rebuild(self, medium_gnp):
        keep = set(list(medium_gnp.nodes)[::3]) | {medium_gnp.nodes[1]}
        inc = medium_gnp.subgraph(keep)
        ref = medium_gnp.subgraph_rebuild(keep)
        assert inc.nodes == ref.nodes
        assert inc.ident == ref.ident
        assert inc.adj == ref.adj

    def test_chained_restriction(self, medium_gnp):
        inc = medium_gnp
        ref = medium_gnp
        for step, stride in enumerate((2, 3, 2)):
            keep = set(list(inc.nodes)[::stride])
            inc = inc.subgraph(keep)
            ref = ref.subgraph_rebuild(keep)
            assert inc.nodes == ref.nodes, step
            assert inc.adj == ref.adj, step

    def test_csr_restrict_attaches_child_view(self, medium_gnp):
        keep = frozenset(list(medium_gnp.nodes)[::2])
        csr = medium_gnp.subgraph(keep)
        assert csr._compiled is not None  # child inherits a ready CSR
        assert csr._compiled.graph is csr
        again = medium_gnp.subgraph(keep)  # parent CSR now cached
        assert again.nodes == csr.nodes
        assert again.adj == csr.adj

    def test_full_keep_returns_self(self, small_gnp):
        assert small_gnp.subgraph(set(small_gnp.nodes)) is small_gnp

    def test_subgraph_rejects_unknown(self, small_gnp):
        from repro.errors import InvalidInstanceError

        with pytest.raises(InvalidInstanceError):
            small_gnp.subgraph({"nope"})

    def test_virtual_spec_restricted_matches_rebuild(self, small_gnp):
        from repro.local.virtual import VirtualSpec

        spec = line_graph_spec(small_gnp)
        keep = set(list(spec.virtual_nodes)[::2])
        inc = spec.restricted(keep)
        adj = {
            v: [w for w in spec.adj[v] if w in keep]
            for v in spec.virtual_nodes
            if v in keep
        }
        rebuilt = VirtualSpec(
            {v: spec.host[v] for v in adj},
            {v: spec.ident[v] for v in adj},
            adj,
            small_gnp,
        )
        assert spec_signature(inc) == spec_signature(rebuilt)

    def test_virtual_chained_restriction(self, small_gnp):
        spec = clique_product_spec(small_gnp)
        domain = VirtualDomain(small_gnp, spec)
        for stride in (2, 3):
            keep = set(list(domain.nodes)[::stride])
            domain = domain.subgraph(keep)
            assert set(domain.nodes) == keep
            # ports renumbered consistently: every neighbour pair symmetric
            for v in domain.nodes:
                for w in domain.neighbors(v):
                    assert v in domain.neighbors(w)

    def test_restricted_run_equivalence(self, small_gnp):
        """Runs on a restricted virtual domain agree across backends."""
        spec = line_graph_spec(small_gnp)
        keep = set(list(spec.virtual_nodes)[::2])
        outputs = {}
        for backend in BACKENDS:
            domain = VirtualDomain(small_gnp, spec)
            with use_backend(backend):
                sub = domain.subgraph(keep)
                outputs[backend] = sub.run_restricted(luby_mis(), 24, seed=29)
        assert outputs["reference"] == outputs["compiled"]


def assert_restricts_like_rebuild(graph, keep):
    """The array ``restrict`` equals ``subgraph_rebuild``: labels,
    identities, adjacency, every CSR list (Python ints) and the mirror
    the child arrives with."""
    child = graph.compiled().restrict(frozenset(keep))
    want = graph.subgraph_rebuild(keep)
    assert child.nodes == want.nodes
    assert child.ident == want.ident
    assert child.adj == want.adj
    got, ref = child._compiled, want.compiled()
    assert got.graph is child and got.index == ref.index
    for field in ("idents", "offsets", "neigh", "rev", "degrees"):
        values = getattr(got, field)
        assert values == getattr(ref, field), field
        assert all(type(v) is int for v in values), field
    mirror = got._batch
    assert mirror is not None  # attached, so batch_graph_of converts nothing
    fresh = BatchGraph(ref.labels, ref.idents, ref.offsets, ref.neigh)
    for field in ("offsets", "neigh", "owner", "degrees"):
        assert np.array_equal(getattr(mirror, field), getattr(fresh, field))
        assert getattr(mirror, field).dtype == np.int64, field
    assert mirror.labels == child.nodes and mirror.n == child.n
    return child


class TestArrayRestrictCorners:
    """Corner cases of the one-pass numpy ``CompiledGraph.restrict``."""

    def test_empty_keep_set(self, medium_gnp):
        child = assert_restricts_like_rebuild(medium_gnp, ())
        assert child.n == 0 and child.compiled().offsets == [0]
        # subgraph answers an empty keep set without the array pass.
        empty, want = medium_gnp.subgraph(()), medium_gnp.subgraph_rebuild(())
        assert (empty.nodes, empty.ident, empty.adj) == ((), {}, {})
        assert (want.nodes, want.ident, want.adj) == ((), {}, {})
        assert empty.compiled().offsets == want.compiled().offsets == [0]

    def test_full_keep_set(self, medium_gnp):
        assert_restricts_like_rebuild(medium_gnp, medium_gnp.nodes)

    def test_single_node(self, medium_gnp):
        hub = max(medium_gnp.nodes, key=medium_gnp.degree)
        child = assert_restricts_like_rebuild(medium_gnp, [hub])
        assert child.compiled().degrees == [0]

    def test_edgeless_graph(self):
        graph = SimGraph.from_networkx(nx.empty_graph(12))
        assert_restricts_like_rebuild(graph, list(graph.nodes)[::2])
        assert_restricts_like_rebuild(graph, ())

    def test_survivors_whose_neighbours_all_leave(self, medium_gnp):
        # A maximal independent set keeps no edge at all, and a star's
        # leaves lose their only neighbour.
        independent = nx.maximal_independent_set(
            medium_gnp.to_networkx(), seed=4
        )
        child = assert_restricts_like_rebuild(medium_gnp, independent)
        assert child.edge_count() == 0
        star = SimGraph.from_networkx(nx.star_graph(6))
        leaves = [u for u in star.nodes if star.degree(u) == 1]
        assert_restricts_like_rebuild(star, leaves[:4])

    def test_chained_restriction_of_a_child(self, medium_gnp):
        graph = medium_gnp
        for stride in (2, 3, 2):
            graph = assert_restricts_like_rebuild(
                graph, list(graph.nodes)[::stride]
            )

    def test_parent_whose_mirror_is_not_built(self, medium_gnp):
        # A dict-born copy compiles its CSR from ``adj`` and has no mirror
        # until ``restrict`` asks for one.
        parent = SimGraph(medium_gnp.nodes, medium_gnp.ident, medium_gnp.adj)
        assert parent.compiled()._batch is None
        assert_restricts_like_rebuild(parent, list(parent.nodes)[1::3])
        assert parent.compiled()._batch is not None


class TestCounterRNG:
    def test_deterministic_and_independent(self):
        from repro.local import CounterRNG
        from repro.local.context import rng_source

        source = rng_source(1, "salt")
        a1 = source(101)
        a2 = source(101)
        b = source(102)
        seq1 = [a1.getrandbits(62) for _ in range(8)]
        seq2 = [a2.getrandbits(62) for _ in range(8)]
        seq3 = [b.getrandbits(62) for _ in range(8)]
        assert seq1 == seq2
        assert seq1 != seq3
        rng = CounterRNG(7)
        assert 0.0 <= rng.random() < 1.0
        values = {rng.randrange(10) for _ in range(200)}
        assert values == set(range(10))
        with pytest.raises(ValueError):
            rng.getrandbits(0)

    def test_source_draws_the_run_keyed_counter_stream(self):
        """A run's source hands node ``ident`` the counter stream of
        ``(run_key(seed, salt), ident)``, and a context keeps the very
        generator it was built with."""
        from repro.local import NodeContext
        from repro.local.context import counter_rng, rng_source, run_key

        source = rng_source(9, "phase-2")
        key = run_key(9, "phase-2")
        for ident in (1, 101, 2**40 + 3):
            got, want = source(ident), counter_rng(key, ident)
            assert [got.getrandbits(62) for _ in range(8)] == [
                want.getrandbits(62) for _ in range(8)
            ]
        rng = source(42)
        assert NodeContext(0, 42, 3, None, {}, rng).rng is rng
