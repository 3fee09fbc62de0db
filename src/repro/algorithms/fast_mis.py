"""MIS in ``O(Δ̃ log Δ̃ + log* m̃)``: fast coloring plus a color-class sweep.

The classic coloring→MIS reduction used by both Barenboim–Elkin '09 and
Kuhn '09 (Table 1 row 1): after a ``(Δ̃+1)``-coloring, sweep the color
classes — class ``t`` decides in sweep round ``t``, joining when no
neighbour has joined yet.  The sweep adds ``Δ̃+1`` rounds, dominated by
the coloring itself.

This algorithm is also the *inner* engine of the arboricity rows: its
Theorem-1 uniformization adapts to the actual (Δ, m) of each H-partition
class, which is what keeps the outer bounds independent of the guessed
arboricity (see :mod:`repro.algorithms.arboricity`).
"""

from __future__ import annotations

from ..core.bounds import AdditiveBound, custom
from ..core.transformer import NonUniform
from ..local import batch
from ..local.algorithm import LocalAlgorithm
from ..local.message import Broadcast
from .fast_coloring import (
    ColoringBatchKernel,
    FastColoringProcess,
    _coloring_batch_factory,
    _kw_atom_value,
    fast_coloring_rounds,
)
from .linial import linial_steps_upper


class FastMISProcess(FastColoringProcess):
    """Fast coloring, then sweep color classes lowest-first."""

    __slots__ = ("sweep_round", "blocked")

    def __init__(self, ctx):
        super().__init__(ctx)
        self.sweep_round = 0
        self.blocked = False

    # The coloring stages call finish() when the color is final; we
    # intercept that and run the sweep instead.
    def _finish_with_color(self):
        final = self.reducer.color if self.reducer else self.color
        self.color = final  # 0-based final color in [0, delta]
        self.sweep_round = 1

    def receive(self, inbox):
        if self.sweep_round == 0:
            outgoing = super().receive(inbox)
            if self.sweep_round == 0 or outgoing is not None:
                # Still coloring, or carrying the last KW announcement
                # (sweep decisions start strictly after it).
                return outgoing
            return None
        if any(p and p[0] == "mis" for p in inbox.values()):
            self.blocked = True
        my_slot = self.color + 1  # colors are 0-based, slots 1-based
        if self.sweep_round == my_slot:
            if self.blocked:
                self.finish(0)
                return None
            self.finish(1)
            return Broadcast(("mis",))
        self.sweep_round += 1
        return None


class MISBatchKernel(ColoringBatchKernel):
    """Coloring kernel plus the vectorized color-class sweep.

    Instead of finishing with the final colors, schedule completion
    opens the sweep: in sweep slot ``s`` every undecided node of color
    ``s-1`` joins unless a neighbour joined in an earlier slot.  Slots
    are indexed through a sorted color order and blocking gathers over
    the *deciders'* adjacency rows (each node decides exactly once, so
    the whole sweep costs O(n log n + edges)); empty slots (gapped
    garbage colors under bad guesses) cost O(1) instead of a frontier
    scan.

    The blocking test is a decider-side gather — a decider reads the
    ``in_mis`` flags of its neighbours.  The sweep schedule
    (``sweep_order``/``slots_sorted``) is derived lazily at the first
    sweep round.
    """

    __slots__ = ("in_mis", "sweep_order", "slots_sorted", "sweep_ptr")

    def _complete(self):
        np = batch.numpy_or_none()
        self.sweep_order = None
        self.slots_sorted = None
        self.sweep_ptr = 0
        self.in_mis = np.zeros(self.bg.n, dtype=bool)
        self.in_sweep = True
        return [], []

    def undone_indices(self):
        np = batch.numpy_or_none()
        if self.in_sweep and self.sweep_order is not None:
            # Dynamic during the sweep — never served from the cache.
            return np.sort(self.sweep_order[self.sweep_ptr :]).tolist()
        return super().undone_indices()

    def _sweep_step(self, s):
        np = batch.numpy_or_none()
        bg = self.bg
        if self.sweep_order is None:
            slots = self.colors + 1  # colors are 0-based, slots 1-based
            self.sweep_order = np.argsort(slots, kind="stable")
            self.slots_sorted = slots[self.sweep_order]
        hi = np.searchsorted(self.slots_sorted, s, "right")
        deciders = self.sweep_order[self.sweep_ptr : hi]
        self.sweep_ptr = hi
        # Gather each decider's row: blocked iff any neighbour already
        # joined (O(Σ degree of deciders); every node decides once).
        k, w = bg.row_slots(deciders)
        blocked = np.bincount(
            k, weights=self.in_mis[w], minlength=len(deciders)
        ) > 0
        joiners = deciders[~blocked]
        self.in_mis[joiners] = True
        finished = joiners.tolist()
        results = [1] * len(finished)
        lost = deciders[blocked].tolist()
        finished.extend(lost)
        results.extend([0] * len(lost))
        self.done = self.sweep_ptr == bg.n
        return finished, results, bg.charge(joiners)


def fast_mis():
    """The non-uniform MIS (requires m̃, Δ̃)."""
    return LocalAlgorithm(
        name="fast-mis",
        process=FastMISProcess,
        requires=("m", "Delta"),
        batch=_coloring_batch_factory(MISBatchKernel),
        fuse=True,
    )


def fast_mis_rounds(m_guess, delta_guess):
    """Exact schedule length: coloring + Δ̃+1 sweep slots."""
    return fast_coloring_rounds(m_guess, delta_guess) + delta_guess + 1


def fast_mis_bound():
    """Declared ``O(Δ̃ log Δ̃) + O(log* m̃)`` bound (additive, s_f = 1)."""
    return AdditiveBound(
        [
            custom(
                "Delta",
                lambda d: _kw_atom_value(d) + max(0, int(d)) + 2,
                "kw+sweep(Delta)",
            ),
            custom(
                "m", lambda m: 2 * linial_steps_upper(m), "2*(logstar m + 4)"
            ),
        ],
        constant=3,
        label="fast-mis rounds",
    )


def fast_mis_nonuniform():
    """Theorem 1 input for Table 1 row 1 (MIS in O(Δ + log* n))."""
    return NonUniform(
        fast_mis(),
        fast_mis_bound(),
        kind="deterministic",
        default_output=0,
        name="fast-mis",
    )
