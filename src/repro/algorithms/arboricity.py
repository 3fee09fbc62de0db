"""Arboricity-dependent MIS (Table 1 rows 3–4, Corollaries 3 and 4).

The Barenboim–Elkin route: an *H-partition* peels the graph into
``O(log ñ)`` classes such that every node has at most ``4ã`` neighbours
in its own-or-later classes (possible whenever ``ã ≥ a`` because every
subgraph of an arboricity-``a`` graph has average degree ≤ 2a, so
degree-``> 4ã`` nodes are always a minority); then the classes are
processed lowest-first, each through a MIS on a ``≤ 4ã``-degree
subgraph.

The inner per-class MIS is this library's own *Theorem-1-uniformized*
fast MIS — the framework eating its own dog food, and not a gimmick:
the inner algorithm adapts to each class's *actual* maximum degree and
identity space, which keeps the outer running time governed by the real
arboricity rather than by the guess ``ã``.  That independence is exactly
what lets the n-only declared bound of Corollary 4 hold (Theorem 3 with
the family witness ``g(a) = 2^{a²} ≤ n`` on graphs with ``a ≤ √log n``).

Costs charged (aligned phases): peeling ``⌈log2 ñ⌉ + 2`` rounds, then
per class the nested transformer's rounds plus one domination round.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.bounds import AdditiveBound, ProductBound, custom
from ..core.pruning import RulingSetPruning
from ..core.transformer import NonUniform, theorem1
from ..core.weak_domination import DominationWitness
from ..local import batch
from ..local.algorithm import HostAlgorithm, LocalAlgorithm, NodeProcess
from ..local.message import Broadcast
from ..mathutils import ceil_log2
from .fast_mis import fast_mis_bound, fast_mis_nonuniform

#: Peeling threshold multiplier: nodes with residual degree ≤ PEEL_FACTOR·ã
#: are peeled; 4 guarantees at least half the residual nodes peel per
#: round when ã ≥ a.
PEEL_FACTOR = 4


def peel_rounds(n_guess):
    """Rounds of the peeling stage: ⌈log2 ñ⌉ + 2 (halving argument)."""
    return ceil_log2(max(2, n_guess)) + 2


class HPartitionProcess(NodeProcess):
    """Synchronous peeling into classes 1..R (0 = failed to peel)."""

    __slots__ = ("threshold", "phases", "step", "cls")

    def __init__(self, ctx):
        super().__init__(ctx)
        a_guess = max(1, int(ctx.guess("a")))
        self.threshold = PEEL_FACTOR * a_guess
        self.phases = peel_rounds(ctx.guess("n")) - 1
        self.step = 0
        self.cls = 0

    def start(self):
        return Broadcast(("st", False))

    def receive(self, inbox):
        self.step += 1
        alive = sum(
            1 for p in inbox.values() if p and p[0] == "st" and not p[1]
        )
        if self.cls == 0 and alive <= self.threshold:
            self.cls = self.step
        if self.step >= self.phases:
            self.finish(self.cls)
            return None
        return Broadcast(("st", self.cls != 0))


class HPartitionKernel(batch.LockstepKernel):
    """Whole-frontier degree-threshold peeling as bincount sweeps.

    Mirrors :class:`HPartitionProcess` round for round: every node is
    lockstep-active for the full ``peel_rounds(ñ) - 1`` phases, so a
    round is one bincount of the still-unpeeled neighbours over the edge
    slab plus one threshold compare — the arboricity orchestration's
    peeling stage stops paying one Python ``receive`` per node.
    """

    __slots__ = ("threshold",)

    def __init__(self, bg, threshold, phases):
        super().__init__(bg, schedule=phases)
        self.threshold = threshold

    def run_phases(self):
        """Fused peeling to fixed point (D17).

        The recurrence reads only the previous round's peel set: a
        round that peels nothing leaves ``cls`` and ``prev_peeled``
        unchanged, so every remaining round is identical and the loop
        may skip straight to the end of the schedule.  Results record
        the round each node peeled at, which the early exit never
        changes.
        """
        bg = self.bg
        neigh, owner, degrees = bg.neigh, bg.owner, bg.degrees
        threshold = self.threshold
        cls = np.zeros(bg.n, dtype=np.int64)
        prev_peeled = np.zeros(bg.n, dtype=bool)
        for r in range(1, self.schedule + 1):
            peeled_neighbours = np.bincount(
                owner[prev_peeled[neigh]], minlength=bg.n
            )
            fresh = (cls == 0) & (degrees - peeled_neighbours <= threshold)
            if not fresh.any():
                break
            cls[fresh] = r
            prev_peeled = cls != 0
        return [int(c) for c in cls.tolist()]


def _h_partition_batch_factory():
    def factory(bg, setup):
        a_guess = max(1, int(setup.guesses["a"]))
        phases = peel_rounds(setup.guesses["n"]) - 1
        return HPartitionKernel(bg, PEEL_FACTOR * a_guess, phases)

    return factory


def h_partition():
    """The peeling stage as a LOCAL algorithm (requires ã, ñ)."""
    return LocalAlgorithm(
        name="h-partition",
        process=HPartitionProcess,
        requires=("a", "n"),
        batch=_h_partition_batch_factory(),
    )


class ArbMIS(HostAlgorithm):
    """H-partition peeling + nested uniform MIS per class."""

    name = "arb-mis"
    requires = ("a", "n")
    randomized = False

    def __init__(self):
        self._inner = theorem1(
            fast_mis_nonuniform(), RulingSetPruning(beta=1),
            name="inner-uniform-fast-mis",
        )

    def run_restricted(
        self, domain, budget, *, inputs, guesses, seed, salt, default_output
    ):
        used = 0
        outputs = {u: default_output for u in domain.nodes}
        rounds_peel = peel_rounds(guesses["n"])
        if used + rounds_peel > budget:
            return outputs, budget
        classes, charged = domain.run_restricted(
            h_partition(),
            rounds_peel,
            inputs=None,
            guesses=guesses,
            seed=seed,
            salt=f"{salt}|peel",
            default_output=0,
        )
        used += charged
        max_class = max((c for c in classes.values() if isinstance(c, int)), default=0)
        dominated = set()
        decided = set()
        for cls in range(1, max_class + 1):
            members = [
                u
                for u in domain.nodes
                if classes.get(u) == cls and u not in dominated
            ]
            if not members:
                continue
            remaining = budget - used - 1
            if remaining <= 4:
                break
            sub = domain.subgraph(members)
            result = self._inner.run(
                sub, seed=f"{seed}|{salt}|cls{cls}", budget=remaining
            )
            used += result.rounds + 1  # +1: winners announce to neighbours
            if not result.completed:
                break
            for u in members:
                if result.outputs.get(u) == 1:
                    outputs[u] = 1
                    decided.add(u)
                    for v in domain.neighbors(u):
                        if v not in decided:
                            dominated.add(v)
                            outputs[v] = 0
                else:
                    outputs[u] = 0
                    decided.add(u)
        return outputs, budget


def arb_mis():
    """The non-uniform arboricity MIS box."""
    return ArbMIS()


# ---------------------------------------------------------------------------
# declared bounds
# ---------------------------------------------------------------------------

#: Overhead factor of the nested Theorem-1 loop: budgets 2^1..2^s with
#: bounding constant 2 sum to < 8·f*; pruning adds 2 per step.
_INNER_OVERHEAD = 8
_INNER_SLACK = 40


def _inner_cost(delta_cap):
    """Upper bound on the nested uniform MIS cost on a ≤ delta_cap class.

    The inner log* m term is bounded by log*(GUESS_CAP³) ≤ 7, absorbed
    in the slack (identities are poly(n) by assumption D8).
    """
    base = fast_mis_bound().value({"Delta": delta_cap, "m": 2})
    return _INNER_OVERHEAD * (base + 16) + _INNER_SLACK


def arb_mis_product_bound():
    """Product-form bound ``f(ã, ñ) = A(ã) · N(ñ)`` (Theorem 1 path).

    ``A(ã)`` covers one class's nested MIS at degree ``4ã``; ``N(ñ)``
    covers the ``O(log ñ)`` classes plus peeling.  Exercises the
    product/set-sequence machinery of Observation 4.1 (s_f = O(log i)).
    """
    return ProductBound(
        custom("a", lambda a: _inner_cost(PEEL_FACTOR * max(1, int(a))), "A(a)"),
        custom("n", lambda n: ceil_log2(max(2, n)) + 4.0, "log2 n + 4"),
        scale=1.0,
        label="arb-mis product bound",
    )


def sqrt_log_witness():
    """Family witness for Corollary 4: ``g(a) = 2^(a²) ≤ n``.

    Valid on the family of graphs with ``a ≤ √log2 n``; the derived
    guess is ``ã = ⌊√log2 ñ⌋``, which is both good and small — the
    mechanism that makes the n-only bound below true.
    """
    return DominationWitness("a", "n", g=lambda y: 2 ** (y * y))


def arb_mis_nonly_bound():
    """n-only bound for the ``a ≤ √log n`` family (Theorem 3 path).

    peel + (#classes)·(inner cost at degree 4·⌊√log2 ñ⌋): all a function
    of ñ alone, matching Corollary 4's ``f(n)``-style running times.
    """

    def fn(n):
        bits = ceil_log2(max(2, n))
        a_derived = int(math.isqrt(max(1, bits)))
        classes = bits + 2
        return (bits + 4) + classes * (_inner_cost(PEEL_FACTOR * a_derived) + 2)

    return AdditiveBound(
        [custom("n", fn, "arb n-only cost")],
        constant=2,
        label="arb-mis n-only bound",
    )


def arb_mis_nonuniform_product():
    """Theorem 1 input: Γ = {a, n} guessed via the product set-sequence."""
    return NonUniform(
        arb_mis(),
        arb_mis_product_bound(),
        kind="deterministic",
        default_output=0,
        name="arb-mis",
    )


def arb_mis_nonuniform_nonly():
    """Theorem 3 input: Λ = {n}, with ``a`` derived through the family
    witness (Corollary 4's regime)."""
    return NonUniform(
        arb_mis(),
        arb_mis_nonly_bound(),
        kind="deterministic",
        default_output=0,
        name="arb-mis-nonly",
        validate=False,  # Γ = {a, n} ⊄ {n}: the witness supplies ã
    )
