"""Pruning algorithms (paper Section 3).

A pruning algorithm ``P`` is a *uniform*, constant-time local algorithm
taking ``(G, x, ŷ)`` — instance plus tentative output — and returning an
instance ``(G', x')`` induced on the non-pruned nodes, subject to:

* **solution detection** — if ``(G, x, ŷ) ∈ Π`` then all nodes are
  pruned;
* **gluing** — any solution ``y'`` of ``(G', x')`` combines with ``ŷ``
  restricted to the pruned set into a solution of ``(G, x)``.

Implementations here:

* :class:`RulingSetPruning` — the paper's ``P_(2,β)`` (Observation 3.2),
  running in ``1 + β`` rounds; ``β = 1`` prunes for MIS.
* :class:`MatchingPruning` — the paper's ``P_MM`` (Observation 3.3),
  running in 3 rounds.  Our implementation pins down a detail the paper
  leaves implicit: gluing is guaranteed provided output values identify
  their emitting node (all our matching algorithms emit
  ``("M", id_u, id_v)`` / ``("U", id_v)`` values, and the default "0" of
  truncated runs can never form a matched pair with them).
* :class:`SLCPruning` — the pruning algorithm for the strong
  list-coloring problem constructed inside the proof of Theorem 5; it is
  the one pruner that modifies inputs (survivors' lists lose the colors
  committed by pruned neighbours).

Monotonicity (Observation 3.1): the first two leave inputs untouched and
are therefore monotone for every non-decreasing parameter; SLC pruning
keeps the degree estimate ``Δ̂`` and is monotone for all non-decreasing
*graph* parameters.

Batched execution (DESIGN.md D11): every pruner here registers a batch
kernel on the :class:`~repro.local.algorithm.LocalAlgorithm` it builds,
so an alternation's pruning runs ride the same whole-frontier numpy
path as the guess runs — on physical domains through the compiled
engine's dispatcher, on virtual domains through
:func:`repro.local.virtual.run_virtual_batch`.  The kernels are
bit-identical to the per-node state machines, including the
``PruneResult.new_inputs`` materialization of :class:`SLCPruning` (the
one pruner that rewrites inputs).
"""

from __future__ import annotations

import numpy as np

from ..local import batch
from ..local.algorithm import LocalAlgorithm, NodeProcess
from ..local.message import Broadcast
from ..problems.coloring import SLC, SLCInput
from ..problems.matching import MAXIMAL_MATCHING
from ..problems.mis import in_set
from ..problems.ruling import RulingSetProblem

#: Sentinel output for nodes kept in the instance with unchanged input.
KEEP = ("keep", None)

#: Sentinel output for pruned nodes (fresh tuples compare equal; sharing
#: one object keeps the batch kernels allocation-free on the hot path).
PRUNE = ("prune", None)

#: Shared broadcast payloads of the ruling-set pruner (tuples are
#: immutable, so every node can broadcast the same object).
_Y_IN = ("y", True)
_Y_OUT = ("y", False)
_C_ON = ("c", True)
_C_OFF = ("c", False)


class PruneResult:
    """Outcome of one pruning application."""

    __slots__ = ("pruned", "new_inputs", "rounds")

    def __init__(self, pruned, new_inputs, rounds):
        self.pruned = pruned
        self.new_inputs = new_inputs
        self.rounds = rounds

    def __repr__(self):
        return f"PruneResult(pruned={len(self.pruned)}, rounds={self.rounds})"


class PruningAlgorithm:
    """Base class: constant-round uniform pruner for a problem."""

    #: number of rounds the pruner needs (the paper's T0)
    rounds = 0
    name = "pruning"
    #: the problem whose solution-detection/gluing properties hold
    problem = None
    #: human-readable monotonicity note (Observation 3.1)
    monotone = "all non-decreasing parameters"

    def algorithm(self):
        """The pruner as a LOCAL algorithm over inputs ``(x(v), ŷ(v))``.

        Outputs ``("prune", None)`` or ``("keep", new_x)``.
        """
        raise NotImplementedError

    def apply(self, domain, inputs, tentative, *, seed=0, salt="prune"):
        """Run the pruner on a domain; returns a :class:`PruneResult`.

        The constant schedule means no node can miss the deadline; the
        runner raises if one does (which would be an implementation bug,
        not a data condition).
        """
        inputs = inputs or {}
        pair_inputs = {
            u: (inputs.get(u), tentative.get(u)) for u in domain.nodes
        }
        outputs, charged = domain.run_restricted(
            self.algorithm(),
            self.rounds,
            inputs=pair_inputs,
            seed=seed,
            salt=salt,
            default_output=KEEP,
        )
        pruned = set()
        new_inputs = {}
        for u in domain.nodes:
            verdict = outputs[u]
            if not (isinstance(verdict, tuple) and len(verdict) == 2):
                verdict = KEEP
            if verdict[0] == "prune":
                pruned.add(u)
            else:
                new_x = verdict[1]
                new_inputs[u] = new_x if new_x is not None else inputs.get(u)
        return PruneResult(pruned, new_inputs, charged)


# ---------------------------------------------------------------------------
# P_(2, beta): ruling sets and MIS (Observation 3.2)
# ---------------------------------------------------------------------------

class _RulingSetPruneProcess(NodeProcess):
    """1 round of ŷ exchange + β rounds of center-flag flooding."""

    __slots__ = ("beta", "step", "y_hat", "center", "center_near")

    def __init__(self, ctx, beta):
        super().__init__(ctx)
        self.beta = beta
        self.step = 0
        _, self.y_hat = ctx.input if ctx.input else (None, 0)
        self.center = False
        self.center_near = False

    def start(self):
        return Broadcast(_Y_IN if in_set(self.y_hat) else _Y_OUT)

    def receive(self, inbox):
        self.step += 1
        if self.step == 1:
            center = in_set(self.y_hat)
            if center:
                for payload in inbox.values():
                    if payload and payload[0] == "y" and payload[1]:
                        center = False
                        break
            self.center = center
            return Broadcast(_C_ON if center else _C_OFF)
        # Flooding steps 2 .. beta+1: center within (step-1) hops?
        if not self.center_near:
            for payload in inbox.values():
                if payload and payload[0] == "c" and payload[1]:
                    self.center_near = True
                    break
        if self.step < self.beta + 1:
            return Broadcast(
                _C_ON if (self.center or self.center_near) else _C_OFF
            )
        pruned = self.center or (
            not in_set(self.y_hat) and self.center_near
        )
        self.finish(("prune", None) if pruned else KEEP)
        return None


def _tentative_of(inputs, labels, default):
    """Per-node ŷ column from the pruner's ``(x, ŷ)`` pair inputs.

    Mirrors the per-node unpacking exactly: a falsy input (a node the
    pair map missed) contributes ``default``.
    """
    out = []
    for label in labels:
        value = inputs.get(label)
        out.append(value[1] if value else default)
    return out


def _value_codes(values):
    """Dense integer codes preserving ``==`` over arbitrary values.

    The matching and SLC pruners compare tentative outputs for
    *equality* only, so any hashable payloads vectorize as int64 codes.
    Returns ``None`` for unhashable values — the factory then declines
    and the run takes the reference loop (where raw ``==`` needs no
    hashing).
    """
    codes = {}
    out = []
    try:
        for value in values:
            out.append(codes.setdefault(value, len(codes)))
    except TypeError:
        return None
    return out


class RulingSetPruneKernel(batch.LockstepKernel):
    """Whole-frontier ``P_(2,β)``: flag reductions over the edge slab.

    Mirrors :class:`_RulingSetPruneProcess` round for round: one
    ŷ-exchange round computing the center set (in-set nodes with no
    in-set neighbour), then β flooding rounds OR-ing the center flags
    outward one hop at a time.  All nodes are lockstep-active for the
    full ``1 + β`` rounds, so a round is two boolean gathers and one
    scatter — no per-node dispatch.
    """

    __slots__ = ("beta", "y_in")

    def __init__(self, bg, inputs, beta):
        super().__init__(bg, schedule=1 + beta)
        self.beta = beta
        self.y_in = np.array(
            [in_set(y) for y in _tentative_of(inputs, bg.labels, 0)],
            dtype=bool,
        )

    def run_phases(self):
        """Fused center detection + β-flood to fixed point (D17).

        ``center_near`` is monotone and ``prev_flag = center ∪
        center_near``: a flooding round that marks nothing new leaves
        ``prev_flag`` unchanged, so every remaining round is identical
        and the loop may skip to the end of the schedule.
        """
        bg = self.bg
        neigh, owner = bg.neigh, bg.owner
        y_in = self.y_in
        rival = y_in[owner] & y_in[neigh]
        beaten = batch.row_flags(owner[rival], bg.n)
        center = y_in & ~beaten
        center_near = np.zeros(bg.n, dtype=bool)
        prev_flag = center
        for _ in range(self.beta):
            heard = prev_flag[neigh]
            new_near = center_near | batch.row_flags(owner[heard], bg.n)
            if np.array_equal(new_near, center_near):
                break
            center_near = new_near
            prev_flag = center | center_near
        pruned = center | (~y_in & center_near)
        return [PRUNE if p else KEEP for p in pruned.tolist()]


def _ruling_prune_batch_factory(beta):
    def factory(bg, setup):
        return RulingSetPruneKernel(bg, setup.inputs, beta)

    return factory


class RulingSetPruning(PruningAlgorithm):
    """The paper's ``P_(2,β)``: prunes confirmed rulers and their β-balls.

    ``W`` contains nodes ``u`` with (1) ``ŷ(u)=1`` and all neighbours 0
    — *centers* — or (2) ``ŷ(u)=0`` with a center within distance β.
    Runs in ``1 + β`` rounds; leaves inputs unchanged, hence monotone for
    every non-decreasing parameter (Observation 3.1).
    """

    def __init__(self, beta=1):
        if beta < 1:
            raise ValueError("β must be ≥ 1")
        self.beta = beta
        self.rounds = 1 + beta
        self.name = f"P(2,{beta})"
        self.problem = RulingSetProblem(2, beta)

    def algorithm(self):
        beta = self.beta
        return LocalAlgorithm(
            name=self.name,
            process=lambda ctx: _RulingSetPruneProcess(ctx, beta),
            batch=_ruling_prune_batch_factory(beta),
        )


def mis_pruning():
    """``P_(2,1)``: the MIS pruner (2 rounds)."""
    return RulingSetPruning(beta=1)


# ---------------------------------------------------------------------------
# P_MM: maximal matching (Observation 3.3)
# ---------------------------------------------------------------------------

class _MatchingPruneProcess(NodeProcess):
    __slots__ = ("step", "y_hat", "neighbour_values", "matched")

    def __init__(self, ctx):
        super().__init__(ctx)
        self.step = 0
        _, self.y_hat = ctx.input if ctx.input else (None, None)
        self.neighbour_values = {}
        self.matched = False

    def start(self):
        return Broadcast(("y", self.y_hat))

    def receive(self, inbox):
        self.step += 1
        if self.step == 1:
            for port, payload in inbox.items():
                if payload and payload[0] == "y":
                    self.neighbour_values[port] = payload[1]
            # cnt(v) = #{x in N(u)\{v} : ŷ(x) = ŷ(u)}; sent per neighbour.
            sends = {}
            for port in self.neighbour_values:
                count = sum(
                    1
                    for other, value in self.neighbour_values.items()
                    if other != port and value == self.y_hat
                )
                sends[port] = ("cnt", count)
            return sends
        if self.step == 2:
            for port, payload in inbox.items():
                if not (payload and payload[0] == "cnt"):
                    continue
                their_count = payload[1]
                same_value = self.neighbour_values.get(port) == self.y_hat
                my_count = sum(
                    1
                    for other, value in self.neighbour_values.items()
                    if other != port and value == self.y_hat
                )
                if same_value and their_count == 0 and my_count == 0:
                    self.matched = True
            return Broadcast(("m", self.matched))
        neighbour_matched = {
            port: payload[1]
            for port, payload in inbox.items()
            if payload and payload[0] == "m"
        }
        all_matched = all(
            neighbour_matched.get(port, False)
            for port in range(self.ctx.degree)
        )
        pruned = self.matched or all_matched
        self.finish(("prune", None) if pruned else KEEP)
        return None


class MatchingPruneKernel(batch.LockstepKernel):
    """Whole-frontier ``P_MM`` over equality codes of the ŷ values.

    The 3-round per-node scan only ever compares tentative outputs for
    equality, so the arbitrary ``("M", u, v)`` / ``("U", v)`` / default
    payloads collapse to int64 codes: round 1 computes each node's
    same-value neighbour count (one bincount over the equal-endpoint
    edges), round 2 evaluates the paper's matched condition edge-wise
    (``cnt`` both sides zero after excluding the shared edge), round 3
    reduces the saturation test ``all neighbours matched``.
    """

    __slots__ = ("y",)

    def __init__(self, bg, codes):
        super().__init__(bg, schedule=3)
        self.y = np.asarray(codes, dtype=np.int64)

    def run_phases(self):
        bg = self.bg
        own, nb = bg.owner, bg.neigh
        eq = self.y[own] == self.y[nb]
        same_count = np.bincount(own[eq], minlength=bg.n)
        # cnt(v) per neighbour travels as targeted messages — one per
        # port, so round 1 charges one payload per edge slot, as the
        # driver's lockstep ledger assumes.
        excluded = eq.astype(np.int64)
        their_count = same_count[nb] - excluded
        my_count = same_count[own] - excluded
        hit = eq & (their_count == 0) & (my_count == 0)
        matched = batch.row_flags(own[hit], bg.n)
        matched_neighbours = np.bincount(own[matched[nb]], minlength=bg.n)
        pruned = matched | (matched_neighbours == bg.degrees)
        return [PRUNE if p else KEEP for p in pruned.tolist()]


def _matching_prune_batch_factory():
    def factory(bg, setup):
        codes = _value_codes(_tentative_of(setup.inputs, bg.labels, None))
        if codes is None:
            return None
        return MatchingPruneKernel(bg, codes)

    return factory


class MatchingPruning(PruningAlgorithm):
    """The paper's ``P_MM``: prunes matched nodes and saturated nodes.

    3 rounds: exchange values, exchange same-value counts (which decide
    "matched" exactly per the paper's definition), exchange matched
    flags.  ``W = {u : u matched} ∪ {u : all neighbours matched}``.
    """

    rounds = 3
    name = "P_MM"
    problem = MAXIMAL_MATCHING

    def algorithm(self):
        return LocalAlgorithm(
            name=self.name,
            process=_MatchingPruneProcess,
            batch=_matching_prune_batch_factory(),
        )


# ---------------------------------------------------------------------------
# P_SLC: strong list coloring (from the proof of Theorem 5)
# ---------------------------------------------------------------------------

class _SLCPruneProcess(NodeProcess):
    __slots__ = ("step", "x", "y_hat", "ok", "used_nearby")

    def __init__(self, ctx):
        super().__init__(ctx)
        self.step = 0
        self.x, self.y_hat = ctx.input if ctx.input else (None, None)
        self.ok = False
        self.used_nearby = []

    def start(self):
        return Broadcast(("y", self.y_hat))

    def receive(self, inbox):
        self.step += 1
        if self.step == 1:
            neighbour_values = [
                payload[1]
                for payload in inbox.values()
                if payload and payload[0] == "y"
            ]
            in_list = (
                isinstance(self.x, SLCInput) and self.y_hat in self.x.colors
            )
            self.ok = in_list and all(
                value != self.y_hat for value in neighbour_values
            )
            return Broadcast(("ok", self.ok, self.y_hat))
        used = [
            payload[2]
            for payload in inbox.values()
            if payload and payload[0] == "ok" and payload[1]
        ]
        if self.ok:
            self.finish(("prune", None))
            return None
        if isinstance(self.x, SLCInput):
            new_x = SLCInput(
                self.x.delta_hat,
                self.x.colors.without(used),
                self.x.base_color,
            )
        else:
            new_x = self.x
        self.finish(("keep", new_x))
        return None


class SLCPruneKernel(batch.LockstepKernel):
    """Whole-frontier ``P_SLC`` with identical input-rewrite semantics.

    Round 1 vectorizes the conflict test (equal tentative pairs across an
    edge, via the same code trick as the matching kernel) and the
    in-list check; round 2 materializes the survivors' outputs.  The
    list subtraction stays at the Python level — ``ColorList.without``
    takes a *set* of pairs, so collecting each survivor's ok-neighbour
    pairs through one slab slice reproduces the per-node
    ``SLCInput(Δ̂, L \\ used, base)`` object exactly (``removed`` is a
    frozenset: delivery order cannot leak into the result, which is what
    makes the D11 new-inputs contract satisfiable at all).
    """

    __slots__ = ("xs", "ys", "codes")

    def __init__(self, bg, xs, ys, codes):
        super().__init__(bg, schedule=2)
        self.xs = xs
        self.ys = ys
        self.codes = np.asarray(codes, dtype=np.int64)

    def run_phases(self):
        bg = self.bg
        offsets, own, neigh = bg.offsets, bg.owner, bg.neigh
        clash = self.codes[own] == self.codes[neigh]
        conflicted = batch.row_flags(own[clash], bg.n)
        xs, ys = self.xs, self.ys
        in_list = np.array(
            [
                isinstance(x, SLCInput) and y in x.colors
                for x, y in zip(xs, ys)
            ],
            dtype=bool,
        )
        ok = in_list & ~conflicted
        results = []
        for i, pruned in enumerate(ok.tolist()):
            if pruned:
                results.append(PRUNE)
                continue
            x = xs[i]
            if isinstance(x, SLCInput):
                row = neigh[offsets[i] : offsets[i + 1]]
                used = [ys[j] for j in row[ok[row]].tolist()]
                x = SLCInput(x.delta_hat, x.colors.without(used), x.base_color)
            results.append(("keep", x))
        return results


def _slc_prune_batch_factory():
    def factory(bg, setup):
        inputs = setup.inputs
        xs = []
        ys = []
        for label in bg.labels:
            value = inputs.get(label)
            x, y = value if value else (None, None)
            xs.append(x)
            ys.append(y)
        codes = _value_codes(ys)
        if codes is None:
            return None
        return SLCPruneKernel(bg, xs, ys, codes)

    return factory


class SLCPruning(PruningAlgorithm):
    """Pruner for strong list coloring (Theorem 5's proof).

    ``W`` = nodes whose tentative pair is in their list and conflict-free;
    survivors' lists lose the pairs committed by pruned neighbours —
    the one pruner that rewrites inputs, as the definition of pruning
    algorithms allows.  Each pruned neighbour removes at most one pair
    per color index while the degree drops by one, preserving the SLC
    invariant (≥ deg+1 copies per index).  2 rounds.
    """

    rounds = 2
    name = "P_SLC"
    problem = SLC
    monotone = "all non-decreasing graph parameters (Δ̂ is kept)"

    def algorithm(self):
        return LocalAlgorithm(
            name=self.name,
            process=_SLCPruneProcess,
            batch=_slc_prune_batch_factory(),
        )
