"""Luby's randomized MIS (Table 1's uniform baseline, rows [1, 30]).

The random-priority variant: each phase (two rounds) every undecided
node draws a fresh random priority, joins the MIS when it beats all
undecided neighbours, and retires its neighbours.  The algorithm is
**uniform** — no global knowledge whatsoever — and Las Vegas: a node
terminates exactly when its membership is settled, after O(log n) rounds
in expectation and with high probability.

Phase protocol (ties broken by identity, so priorities are totally
ordered):

* bid round — undecided nodes broadcast ``(bid, r, Id)``;
* decision round — a node beating every received bid joins, broadcasts
  ``(win,)`` and terminates with output 1; nodes hearing a ``win`` from a
  neighbour terminate with output 0; the rest bid again.

A node's set of *undecided* neighbours is exactly the set of bids it
received this phase, so no explicit liveness tracking is needed.

:func:`luby_mc` packages the self-truncating variant: run for
``rounds(ñ)`` rounds and output 0 when still undecided — a *weak
Monte-Carlo* algorithm in the paper's sense (Section 2), the input class
of Theorem 2.  Its priorities come from ``ctx.rng``; see
:mod:`repro.algorithms.hash_luby` for the deterministic-given-IDs twin.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..core.bounds import AdditiveBound, log2_of
from ..core.transformer import NonUniform
from ..local import batch
from ..local.algorithm import LocalAlgorithm, NodeProcess
from ..local.message import Broadcast

#: Default output forced on undecided nodes by truncation.
NOT_IN_SET = 0


class LubyProcess(NodeProcess):
    """One node of the random-priority MIS."""

    __slots__ = ("priority_source", "phase_budget", "phases", "bidding", "bid")

    def __init__(self, ctx, priority_source, phase_budget=None):
        super().__init__(ctx)
        self.priority_source = priority_source
        self.phase_budget = phase_budget
        self.phases = 0
        self.bidding = True
        self.bid = None

    def _draw(self):
        self.phases += 1
        priority = self.priority_source(self.ctx, self.phases)
        ident = self.ctx.ident
        self.bid = (priority, ident)
        return Broadcast(("bid", priority, ident))

    def start(self):
        if self.ctx.degree == 0:
            self.finish(1)
            return None
        return self._draw()

    def receive(self, inbox):
        if self.bidding:
            bid = self.bid
            for payload in inbox.values():
                if payload and payload[0] == "bid" and (payload[1], payload[2]) <= bid:
                    # A rival (strictly ordered by the ident tie-break)
                    # beats us; sit out the decision round.
                    self.bidding = False
                    return None
            self.finish(1)
            return Broadcast(("win",))
        # decision round
        for payload in inbox.values():
            if payload and payload[0] == "win":
                self.finish(0)
                return None
        if self.phase_budget is not None and self.phases >= self.phase_budget:
            self.finish(NOT_IN_SET)
            return None
        self.bidding = True
        return self._draw()


def _random_priority(ctx, phase):
    return ctx.rng.getrandbits(62)


class LubyBatchKernel:
    """Whole-frontier Luby phases as array steps over the CSR slab.

    Mirrors :class:`LubyProcess` exactly — same phase structure, same
    message counts, same termination rounds — with the per-node state
    held in numpy arrays.  Priority ties break on the node *index*,
    which equals the identity order of the per-node machines
    (``BatchGraph`` node order is identity order, and identities are
    unique, so ``(priority, index)`` and ``(priority, ident)`` induce
    the same comparisons).

    Engine-round layout (identical to the scalar machine): round 0
    wake-up bids; odd rounds decide winners (local priority minima
    finish with 1 and broadcast the win); even rounds retire their
    neighbours (finish 0), apply the Monte-Carlo phase budget, and
    redraw bids for the survivors.
    """

    __slots__ = (
        "bg",
        "draws",
        "budget",
        "alive",
        "prio",
        "phase",
        "done",
    )

    def __init__(self, bg, draws, budget):
        self.bg = bg
        self.draws = draws
        self.budget = budget
        self.alive = bg.degrees > 0
        self.prio = np.zeros(bg.n, dtype=np.uint64)
        self.phase = 0
        self.done = False

    def undone_indices(self):
        return np.flatnonzero(self.alive).tolist()

    def _draw_bids(self):
        """Draw fresh priorities for the survivors; returns messages sent."""
        self.phase += 1
        idx = np.flatnonzero(self.alive)
        self.prio[idx] = self.draws(idx, self.phase)
        return self.bg.charge(idx)

    def run_fixedpoint(self, cap):
        """The kernel's one stepping loop (D17, D34).

        Executes the whole decide/retire phase alternation inside one
        call with the hot-loop locals hoisted (CSR slabs, priority
        array, budget) and no per-round ledger bookkeeping; the driver
        settles the returned ``(round, indices, value)`` commits
        afterwards.  Each decision round reads only the slots still
        live at both ends, so a round costs O(live edges) once the
        frontier has shrunk.  The divergence cap is enforced in here —
        at most ``cap`` rounds execute, and a mid-phase exit leaves
        ``alive`` (what ``undone_indices`` reads) as of that round.
        """
        # Round 0: isolated nodes join, the rest bid.
        isolated = np.flatnonzero(~self.alive)
        events = [(0, isolated, 1)] if len(isolated) else []
        self.done = not self.alive.any()
        messages = 0 if self.done else self._draw_bids()
        rounds = 0
        bg = self.bg
        own, nb = bg.owner, bg.neigh
        n = bg.n
        charge = bg.charge
        flags = batch.row_flags
        flatnonzero = np.flatnonzero
        prio = self.prio
        budget = self.budget
        alive = self.alive
        while not self.done and rounds < cap:
            # Decision round: a bidder beating every live rival joins.
            # Dead nodes stay dead, so once at most half of the slot list
            # is live–live it shrinks to those slots: later rounds (this
            # retirement's win notices among them) read no other slot.
            rounds += 1
            rival = alive[own] & alive[nb]
            if 2 * np.count_nonzero(rival) <= len(own):
                own, nb = own[rival], nb[rival]
                rival = rival[rival]
            po, pn = prio[own], prio[nb]
            rival &= (pn < po) | ((pn == po) & (nb < own))
            beaten = flags(own[rival], n)
            winners = alive & ~beaten
            alive = alive & beaten
            self.alive = alive
            self.done = not bool(alive.any())
            joined = flatnonzero(winners)
            messages += charge(winners)
            if len(joined):
                events.append((rounds, joined, 1))
            if self.done or rounds >= cap:
                break
            # Retirement round: losers hear the wins, survivors rebid.
            rounds += 1
            heard = winners[nb] & alive[own]
            retired = alive & flags(own[heard], n)
            alive = alive & ~retired
            finished = flatnonzero(retired)
            if len(finished):
                events.append((rounds, finished, 0))
            if budget is not None and self.phase >= budget:
                events.append((rounds, flatnonzero(alive), NOT_IN_SET))
                alive = alive & False
            self.alive = alive
            if alive.any():
                messages += self._draw_bids()
            else:
                self.done = True
        return events, rounds, messages


def _luby_batch_factory(budget_of=None, priorities=None):
    """Batch-kernel factory for a Luby-family algorithm.

    ``budget_of(guesses)`` derives the Monte-Carlo phase budget (``None``
    for the Las Vegas variant); ``priorities(bg, setup)`` builds the
    per-phase draw callable (``None`` uses the node's private rng
    stream, i.e. one ``getrandbits(62)`` per phase).
    """

    def factory(bg, setup):
        if priorities is not None:
            draws = priorities(bg, setup)
        else:
            draws = setup.draw_source(62).draws
        budget = budget_of(setup.guesses) if budget_of is not None else None
        return LubyBatchKernel(bg, draws, budget)

    return factory


def luby_mis():
    """The uniform Las Vegas MIS (no parameters, certain correctness)."""
    return LocalAlgorithm(
        name="luby-mis",
        process=lambda ctx: LubyProcess(ctx, _random_priority),
        requires=(),
        randomized=True,
        batch=_luby_batch_factory(),
        fuse=True,
    )


#: Phase budget multiplier for the Monte-Carlo truncation; calibrated so
#: that the 1/2 guarantee holds with room to spare on the test suite.
MC_PHASE_FACTOR = 4
MC_PHASE_CONSTANT = 6


@lru_cache(maxsize=1024)
def mc_phases(n_guess):
    """Phase budget of the truncated variant for a guess ñ."""
    bits = max(1, (max(1, int(n_guess))).bit_length())
    return MC_PHASE_FACTOR * bits + MC_PHASE_CONSTANT


def luby_mc():
    """Self-truncating Luby: a weak Monte-Carlo MIS requiring ñ.

    Runs ``mc_phases(ñ)`` phases; undecided nodes output 0, so with
    probability ≥ 1/2 (when ñ ≥ n) the output is a MIS and otherwise it
    is near-miss garbage for the pruner to sort out.
    """

    def process(ctx):
        return LubyProcess(
            ctx, _random_priority, phase_budget=mc_phases(ctx.guess("n"))
        )

    return LocalAlgorithm(
        name="luby-mc",
        process=process,
        requires=("n",),
        randomized=True,
        batch=_luby_batch_factory(budget_of=lambda g: mc_phases(g["n"])),
        fuse=True,
    )


def luby_mc_bound():
    """Declared bound: 2 rounds per phase plus the decision round."""
    return AdditiveBound(
        [log2_of("n", 2 * MC_PHASE_FACTOR)],
        constant=2 * MC_PHASE_CONSTANT + 4,
        label="luby-mc rounds",
    )


def luby_mc_nonuniform():
    """Theorem 2 input: the truncated Luby as a packaged weak MC box."""
    return NonUniform(
        luby_mc(),
        luby_mc_bound(),
        kind="weak-monte-carlo",
        guarantee=0.5,
        default_output=NOT_IN_SET,
        name="luby-mc",
    )
