"""Coloring stack: Linial schedules, KW reduction, fast coloring/MIS.

Includes the *declared-bound enforcement grid*: every declared runtime
bound must dominate the actual schedule length over a wide sweep of
guesses — the property every theorem in the paper silently relies on.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.color_reduction import (
    KWReducer,
    kw_schedule,
    kw_total_rounds,
    sequential_reduce_rounds,
)
from repro.algorithms.fast_coloring import (
    fast_coloring,
    fast_coloring_bound,
    fast_coloring_rounds,
)
from repro.algorithms.fast_mis import (
    fast_mis,
    fast_mis_bound,
    fast_mis_rounds,
)
from repro.algorithms.lambda_coloring import (
    lambda_coloring,
    lambda_coloring_bound,
    lambda_coloring_rounds,
)
from repro.algorithms.linial import (
    best_system,
    linial_coloring,
    linial_fixpoint_palette,
    linial_schedule,
    linial_steps_upper,
    reduce_color,
)
from repro.local import SimGraph, run
from repro.local.batch import BatchSetup
from repro.mathutils import is_prime
from repro.problems import MIS, ColoringProblem, PROPER_COLORING


class TestSetSystems:
    @pytest.mark.parametrize("m", [10, 1000, 10**6, 2**40, 2**120])
    @pytest.mark.parametrize("delta", [1, 3, 8, 30])
    def test_best_system_admissible(self, m, delta):
        q, d = best_system(m, delta)
        assert is_prime(q)
        assert q >= delta * d + 1
        assert q ** (d + 1) >= m

    @pytest.mark.parametrize("delta", [1, 2, 5, 16, 64])
    def test_schedule_reaches_fixpoint_bound(self, delta):
        for m in (100, 10**6, 2**40):
            _, palette = linial_schedule(m, delta)
            assert palette <= max(linial_fixpoint_palette(delta), m)
            if m > linial_fixpoint_palette(delta):
                assert palette <= linial_fixpoint_palette(delta)

    @pytest.mark.parametrize("m", [2, 100, 10**4, 10**9, 2**60, 2**150])
    def test_schedule_length_within_declared(self, m):
        for delta in (1, 4, 16, 80):
            steps, _ = linial_schedule(m, delta)
            assert len(steps) <= linial_steps_upper(m), (m, delta)

    @given(
        color=st.integers(min_value=0, max_value=10**9),
        rivals=st.lists(
            st.integers(min_value=0, max_value=10**9), max_size=8
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_reduce_color_avoids_distinct_rivals(self, color, rivals):
        q, d = best_system(10**9 + 1, 8)
        if len(rivals) > 8:
            rivals = rivals[:8]
        new = reduce_color(color, rivals, q, d)
        assert 0 <= new < q * q
        for rival in rivals:
            if rival != color:
                assert new != reduce_color(rival, [], q, d) or True
        # the real guarantee: distinct old colors -> distinct new points
        # against *this* node's choice
        space = q ** (d + 1)
        for rival in rivals:
            if rival % space != color % space:
                x, val = divmod(new, q)
                from repro.algorithms.linial import _digits, _poly_eval

                assert _poly_eval(_digits(rival % space, q, d + 1), x, q) != val


class TestKWReducer:
    def test_schedule_halves(self):
        phases = kw_schedule(400, 9)
        assert phases[0] == 400
        assert phases == sorted(phases, reverse=True)
        assert kw_total_rounds(400, 9) == len(phases) * 20

    def test_no_phases_when_small(self):
        assert kw_schedule(5, 9) == []

    def test_beats_sequential_on_big_palettes(self):
        assert kw_total_rounds(10_000, 10) < sequential_reduce_rounds(
            10_000, 10
        )

    def test_reducer_isolated_node(self):
        reducer = KWReducer(100, 4, 37)
        rounds = 0
        while not reducer.done:
            reducer.step([])
            rounds += 1
        assert rounds == reducer.rounds_total
        assert 0 <= reducer.color <= 4


GUESS_GRID = [
    (10, 1),
    (100, 2),
    (1000, 3),
    (50, 8),
    (10**6, 5),
    (10**6, 20),
    (2**40, 12),
    (2**96, 40),
    (17, 16),
    (3, 1),
]


class TestDeclaredBoundsDominateSchedules:
    @pytest.mark.parametrize("m,delta", GUESS_GRID)
    def test_fast_coloring(self, m, delta):
        assert fast_coloring_rounds(m, delta) <= fast_coloring_bound().value(
            {"m": m, "Delta": delta}
        )

    @pytest.mark.parametrize("m,delta", GUESS_GRID)
    def test_fast_mis(self, m, delta):
        assert fast_mis_rounds(m, delta) <= fast_mis_bound().value(
            {"m": m, "Delta": delta}
        )

    @pytest.mark.parametrize("m,delta", GUESS_GRID)
    @pytest.mark.parametrize("lam", [1, 2, 8])
    def test_lambda_coloring(self, m, delta, lam):
        assert lambda_coloring_rounds(lam, m, delta) <= lambda_coloring_bound(
            lam
        ).value({"m": m, "Delta": delta})


class TestExecutionWithCorrectGuesses:
    def test_linial_proper_on_catalog(self, catalog):
        for name, graph in catalog.items():
            if graph.n == 0:
                continue
            guesses = {
                "m": graph.max_ident,
                "Delta": max(1, graph.max_degree),
            }
            result = run(graph, linial_coloring(), guesses=guesses)
            assert PROPER_COLORING.is_solution(graph, {}, result.outputs), name

    def test_fast_coloring_palette(self, catalog):
        for name, graph in catalog.items():
            if graph.n == 0:
                continue
            delta = max(1, graph.max_degree)
            guesses = {"m": graph.max_ident, "Delta": delta}
            result = run(graph, fast_coloring(), guesses=guesses)
            problem = ColoringProblem(max_colors=delta + 1)
            assert problem.is_solution(graph, {}, result.outputs), (
                name,
                problem.violations(graph, {}, result.outputs)[:3],
            )
            assert result.rounds <= fast_coloring_rounds(
                graph.max_ident, delta
            )

    def test_fast_mis_on_catalog(self, catalog):
        for name, graph in catalog.items():
            delta = max(1, graph.max_degree)
            guesses = {"m": graph.max_ident, "Delta": delta}
            result = run(graph, fast_mis(), guesses=guesses)
            assert MIS.is_solution(graph, {}, result.outputs), name

    @pytest.mark.parametrize("lam", [1, 3, 10])
    def test_lambda_coloring_colors_and_rounds(self, medium_gnp, lam):
        delta = medium_gnp.max_degree
        guesses = {"m": medium_gnp.max_ident, "Delta": delta}
        result = run(medium_gnp, lambda_coloring(lam), guesses=guesses)
        assert PROPER_COLORING.is_solution(medium_gnp, {}, result.outputs)
        cap = max(lam * (delta + 1), linial_fixpoint_palette(delta))
        assert max(result.outputs.values()) <= cap

    def test_lambda_tradeoff_monotone_rounds(self, medium_gnp):
        """Exact schedule shortens as λ grows (the row's tradeoff)."""
        m, delta = medium_gnp.max_ident, medium_gnp.max_degree
        rounds = [
            lambda_coloring_rounds(lam, m, delta) for lam in (1, 2, 4, 8, 16)
        ]
        assert rounds == sorted(rounds, reverse=True)

    def test_initial_color_input_respected(self, path12):
        """Section 5.2's identities-as-colors convention."""
        inputs = {u: {"color": path12.ident[u]} for u in path12.nodes}
        guesses = {"m": path12.max_ident, "Delta": 2}
        with_input = run(
            path12, fast_coloring(), inputs=inputs, guesses=guesses
        )
        without = run(path12, fast_coloring(), guesses=guesses)
        assert with_input.outputs == without.outputs


class TestBadGuessBehaviour:
    """Bad guesses may yield garbage, but on schedule and crash-free."""

    @pytest.mark.parametrize("m,delta", [(2, 1), (5, 1), (100, 2)])
    def test_underestimates_run_to_schedule(self, medium_gnp, m, delta):
        result = run(
            medium_gnp, fast_coloring(), guesses={"m": m, "Delta": delta}
        )
        assert result.rounds <= fast_coloring_rounds(m, delta)

    @pytest.mark.parametrize("make", [fast_coloring, fast_mis])
    @pytest.mark.parametrize("m,delta", [(100, 2), (50, 1), (300, 2)])
    def test_neighbours_sharing_a_reduced_color_are_no_rivals(
        self, medium_gnp, make, m, delta
    ):
        """An underestimated m̃ reduces the identities modulo a space
        below their range, so two neighbours can share a reduced color
        in the first Linial step; neither then blocks the other's
        points, on the batch kernel as in the scalar machine."""
        (q, d), *_ = linial_schedule(m, delta)[0]
        space = q ** (d + 1)
        ident = medium_gnp.ident
        assert any(
            (ident[u] - 1) % space == (ident[v] - 1) % space
            for u, v in medium_gnp.edges()
        )
        guesses = {"m": m, "Delta": delta}
        seen = self._across_stacks(medium_gnp, make(), guesses)
        assert seen[0] == seen[1]

    @staticmethod
    def _across_stacks(graph, algo, guesses):
        """(outputs, rounds) on the reference loop and the batch kernel."""
        seen = []
        for backend in ("reference", "compiled"):
            result = run(
                graph, algo, guesses=guesses, seed=5,
                backend=backend,
            )
            seen.append((result.outputs, result.rounds))
        return seen

    @pytest.mark.parametrize("make", [fast_coloring, fast_mis])
    def test_all_points_covered_falls_back_identically(self, make):
        """A star whose centre sees every point of F_q covered (Δ̃=1).

        The centre's colour is the polynomial ``p(t) = 2 + 3t``; leaf
        ``x`` carries ``p(t) + (t - x)``, which meets it at ``t = x``.
        So the first Linial step finds no free point at the centre and
        takes the ``p(0)`` branch (``p(0) = 2``, unlike every other
        point).
        """
        m = 10**6
        (q, d), *_ = linial_schedule(m, 1)[0]
        centre = 2 + 3 * q
        leaves = [(2 - x) % q + 4 * q for x in range(q)]

        def value(color, x):
            return (color % q + (color // q) * x) % q

        for x in range(q):
            assert any(value(c, x) == value(centre, x) for c in leaves)
        graph = SimGraph.from_networkx(
            nx.star_graph(q),
            idents={0: centre + 1, **{i + 1: c + 1 for i, c in enumerate(leaves)}},
        )
        assert reduce_color(centre, leaves, q, d) == value(centre, 0) == 2
        guesses = {"m": m, "Delta": 1}
        seen = self._across_stacks(graph, make(), guesses)
        assert seen[0] == seen[1]
        # The final colours can hide the branch, so also compare the
        # kernel's first Linial step (a one-round cap stops right after
        # it) with the scalar machine node by node.
        bg = graph.compiled()
        kernel = make().batch(bg, BatchSetup({}, guesses, None))
        kernel.run_fixedpoint(1)
        colors = [ident - 1 for ident in bg.idents]
        expected = [
            reduce_color(
                colors[i],
                [colors[j] for j in bg.neigh[bg.offsets[i] : bg.offsets[i + 1]]],
                q,
                d,
            )
            for i in range(bg.n)
        ]
        assert kernel.colors.tolist() == expected

    @pytest.mark.parametrize("make", [fast_coloring, fast_mis])
    def test_nonpositive_input_colors_take_the_reference_loop(
        self, make, small_gnp
    ):
        """Input colors below 1 with no Linial stage: the KW stage keeps
        negative colors, so MIS nodes sit in sweep slots below 1 that the
        scalar machine never reaches.  The kernel declines and the run
        truncates exactly as the reference loop does."""
        bg = small_gnp.compiled()
        inputs = {u: {"color": i % 5 - 1} for i, u in enumerate(bg.labels)}
        guesses = {"m": 4 * (small_gnp.max_degree + 1),
                   "Delta": small_gnp.max_degree}
        assert not linial_schedule(guesses["m"], guesses["Delta"])[0]
        assert make().batch(bg, BatchSetup(inputs, guesses, None)) is None
        results = [
            run(small_gnp, make(), guesses=guesses, inputs=inputs, seed=5,
                backend=backend, max_rounds=400, default_output=-1)
            for backend in ("reference", "compiled")
        ]
        assert results[0].outputs == results[1].outputs
        assert results[0].finish_round == results[1].finish_round
        assert results[0].messages == results[1].messages

    @pytest.mark.parametrize("make", [fast_coloring, fast_mis])
    def test_big_integer_identities_agree(self, make, small_gnp):
        """Identities past 2^62 take the kernel's big-integer colour path."""
        base = 1 << 70
        graph = SimGraph.from_networkx(
            small_gnp.to_networkx(),
            idents={u: base + 7 * small_gnp.ident[u] for u in small_gnp.nodes},
        )
        guesses = {"m": graph.max_ident, "Delta": graph.max_degree}
        assert linial_schedule(guesses["m"], guesses["Delta"])[0]
        seen = self._across_stacks(graph, make(), guesses)
        assert seen[0] == seen[1]

    def test_overestimates_still_correct(self, small_gnp):
        guesses = {
            "m": small_gnp.max_ident * 1000,
            "Delta": small_gnp.max_degree * 10,
        }
        result = run(small_gnp, fast_mis(), guesses=guesses)
        assert MIS.is_solution(small_gnp, {}, result.outputs)
