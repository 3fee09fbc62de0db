"""Ruling-set algorithms (Table 1 row 9 and the AGLP primitive).

Two algorithms:

* :func:`bitwise_ruling_set` — the classic deterministic ``(2, b)``-
  ruling set over ``b``-bit identities (the primitive inside
  AGLP/Panconesi–Srinivasan network decompositions): process identity
  bits MSB→LSB, keeping 1-side candidates only when no 0-side candidate
  is adjacent; adjacent survivors would need equal identities, and each
  phase moves the dominating set by at most one hop.  ``b = bitlen(m̃)``
  rounds; requires ``m̃``.

* :func:`sw_ruling_set` — the Table-1 row: a (2, 2(c+1))-ruling set in
  SW'10's running-time *shape* ``O(2^c (log ñ)^{1/c})``.  Our
  substitution (DESIGN.md D6): Luby's MIS *self-truncated* at that
  budget.  Independence holds deterministically (only decided-in nodes
  join); only domination can fail, and only for nodes whose whole
  neighbourhood stayed undecided — the event whose probability shrinks
  with the β-slack.  This is an honest *weak Monte-Carlo* algorithm,
  exactly the class Theorem 2 turns into a uniform Las Vegas one
  (Corollary 1(vii)).
"""

from __future__ import annotations

import numpy as np

from ..core.bounds import AdditiveBound, custom
from ..core.transformer import NonUniform
from ..local import batch
from ..local.algorithm import LocalAlgorithm, NodeProcess
from ..local.message import Broadcast
from ..mathutils import ceil_log2
from .luby import LubyProcess, _luby_batch_factory, _random_priority


class BitwiseRulingProcess(NodeProcess):
    """(2, b)-ruling set by MSB→LSB candidate filtering."""

    __slots__ = ("bits", "step", "candidate")

    def __init__(self, ctx):
        super().__init__(ctx)
        m_guess = max(1, int(ctx.guess("m")))
        self.bits = m_guess.bit_length()
        self.step = 0
        self.candidate = True

    def _bit(self, index):
        return (self.ctx.ident >> index) & 1

    def start(self):
        if self.bits == 0:
            self.finish(1)
            return None
        bit = self._bit(self.bits - 1)
        return Broadcast(("rb", self.candidate, bit))

    def receive(self, inbox):
        index = self.bits - 1 - self.step
        if self.candidate and self._bit(index) == 1:
            zero_neighbour = any(
                p[1] and p[2] == 0
                for p in inbox.values()
                if p and p[0] == "rb"
            )
            if zero_neighbour:
                self.candidate = False
        self.step += 1
        if self.step == self.bits:
            self.finish(1 if self.candidate else 0)
            return None
        bit = self._bit(self.bits - 1 - self.step)
        return Broadcast(("rb", self.candidate, bit))


#: Guess bit-lengths beyond this decline batching (an absurd m̃ would
#: otherwise spend thousands of column sweeps on a garbage run).
_BATCH_BITS_LIMIT = 4096


class BitwiseRulingKernel(batch.LockstepKernel):
    """Whole-frontier MSB→LSB candidate filtering as column sweeps.

    The schedule is a pure function of ``bitlen(m̃)`` and every node
    walks it in lockstep, so the per-round work is one boolean gather
    over the edge slab: a 1-side candidate drops out when some neighbour
    was still a candidate last round and shows a 0 bit at the round's
    index.
    """

    __slots__ = ()

    def _column_matrix(self):
        """All ``schedule`` bit columns in round order as one
        (n, schedule) matrix.

        Identities may exceed 64 bits (derived-graph encodings), so the
        bits are peeled with Python big-int arithmetic, in one pass
        (``to_bytes`` per identity): ``unpackbits`` emits each
        identity's masked bits MSB-first, which *is* the round order
        (round r reads bit index ``bits - r``).
        """
        bits = self.schedule
        nbytes = (bits + 7) // 8
        mask = (1 << bits) - 1
        packed = b"".join(
            (ident & mask).to_bytes(nbytes, "big") for ident in self.bg.idents
        )
        flat = np.frombuffer(packed, dtype=np.uint8).reshape(self.bg.n, nbytes)
        return np.unpackbits(flat, axis=1)[:, nbytes * 8 - bits :]

    def run_phases(self):
        """Fused MSB→LSB cascade over the precomputed bit matrix (D17).

        No fixed point exists here (every round reads a different
        column).  A round reads the candidate flags its neighbours
        broadcast the round before, which are the flags ``cand`` holds
        when the round starts.
        """
        bg = self.bg
        colmat = self._column_matrix().astype(bool)
        neigh, owner = bg.neigh, bg.owner
        cand = np.ones(bg.n, dtype=bool)
        for r in range(self.schedule):
            column = colmat[:, r]
            zero_rival = cand[neigh] & ~column[neigh]
            blocked = batch.row_flags(owner[zero_rival], bg.n)
            cand = cand & ~(column & blocked)
        return [1 if c else 0 for c in cand.tolist()]


def _bitwise_batch_factory():
    def factory(bg, setup):
        bits = max(1, int(setup.guesses["m"])).bit_length()
        if bits > _BATCH_BITS_LIMIT:
            return None
        return BitwiseRulingKernel(bg, bits)

    return factory


def bitwise_ruling_set():
    """Deterministic (2, bitlen(m̃))-ruling set in bitlen(m̃) rounds.

    Identities above ``m̃`` make the run garbage (bits beyond the
    schedule are never examined) — the usual bad-guess behaviour.
    """
    return LocalAlgorithm(
        name="bitwise-ruling-set",
        process=BitwiseRulingProcess,
        requires=("m",),
        batch=_bitwise_batch_factory(),
    )


def bitwise_beta(m_value):
    """The domination radius achieved: the bit-length of m."""
    return max(1, int(m_value).bit_length())


# ---------------------------------------------------------------------------
# SW-style randomized ruling set (weak Monte-Carlo)
# ---------------------------------------------------------------------------

SW_PHASE_FACTOR = 3
SW_PHASE_CONSTANT = 4


def sw_phases(c, n_guess):
    """Phase budget ``⌈3 · 2^c · (log2 ñ)^{1/c}⌉ + 2^c + 4``."""
    bits = max(1, ceil_log2(max(2, n_guess)))
    return (
        int(SW_PHASE_FACTOR * (2**c) * (bits ** (1.0 / c))) + 2**c
        + SW_PHASE_CONSTANT
    )


def sw_ruling_set(c):
    """(2, 2(c+1))-ruling set, weak Monte-Carlo, requires ñ."""
    if c < 1:
        raise ValueError("c must be ≥ 1")

    def process(ctx):
        return LubyProcess(
            ctx, _random_priority, phase_budget=sw_phases(c, ctx.guess("n"))
        )

    return LocalAlgorithm(
        name=f"sw-ruling-set(c={c})",
        process=process,
        requires=("n",),
        randomized=True,
        batch=_luby_batch_factory(budget_of=lambda g: sw_phases(c, g["n"])),
    )


def sw_ruling_set_bound(c):
    """Declared ``O(2^c (log ñ)^{1/c})`` bound (2 rounds per phase)."""
    return AdditiveBound(
        [
            custom(
                "n",
                lambda n: 2.0 * sw_phases(c, n),
                f"2*phases(c={c}, n)",
            )
        ],
        constant=4,
        label=f"sw-ruling-set(c={c}) rounds",
    )


def sw_ruling_set_nonuniform(c):
    """Theorem 2 input for Table 1 row 9."""
    return NonUniform(
        sw_ruling_set(c),
        sw_ruling_set_bound(c),
        kind="weak-monte-carlo",
        guarantee=0.5,
        default_output=0,
        name=f"sw-ruling-set(c={c})",
    )
