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

import numpy as np

from ..core.bounds import AdditiveBound, custom
from ..core.transformer import NonUniform
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
    opens the sweep (:meth:`_tail`): in sweep slot ``s`` every undecided
    node of color ``s-1`` joins unless a neighbour joined in an earlier
    slot.  Slots are indexed through a sorted color order and blocking
    gathers over the *deciders'* adjacency rows (each node decides
    exactly once, so the whole sweep costs O(n log n + edges)); only
    non-empty slots are visited, so the gapped garbage colors of bad
    guesses cost nothing per empty slot.

    The blocking test is a decider-side gather — a decider reads the
    ``in_mis`` flags of its neighbours.  A cap inside the sweep leaves
    the nodes of the later slots undone.
    """

    __slots__ = ()

    def _tail(self, end, cap, events):
        """The sweep after the coloring completes at round ``end``: slot
        ``s`` decides at round ``end + s``, within ``cap``."""
        bg = self.bg
        slots = self.colors + 1  # colors are 0-based, slots 1-based
        order = np.argsort(slots)  # order within a slot is free
        ranked = slots[order]
        bounds = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), bg.n]
        in_mis = np.zeros(bg.n, dtype=bool)
        messages = 0
        for lo, hi in zip(bounds, bounds[1:]):
            rnd = end + int(ranked[lo])
            if rnd > cap:
                # Cut mid-sweep: the nodes still to decide run on.
                self._undone = np.sort(order[lo:]).tolist()
                return cap, messages
            deciders = order[lo:hi]
            # Gather each decider's row: blocked iff any neighbour already
            # joined (O(Σ degree of deciders); every node decides once).
            k, w = bg.row_slots(deciders)
            blocked = np.bincount(
                k, weights=in_mis[w], minlength=len(deciders)
            ) > 0
            joiners, lost = deciders[~blocked], deciders[blocked]
            in_mis[joiners] = True
            events.append((rnd, joiners, 1))
            events.append((rnd, lost, 0))
            messages += bg.charge(joiners)
        self.done = True
        return rnd, messages


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
