"""Per-node execution context.

A :class:`NodeContext` is everything a node may legally look at in the
LOCAL model before any communication: its own identity, degree, problem
input, the common guesses for global parameters (the collection Γ̃ of the
paper), and a private source of random bits.  The context deliberately
does *not* reference the graph: the only way information flows between
nodes is through messages handled by the runner, which is what makes the
simulations honest.

Random sources
--------------
Every run draws one per-node derivation scheme (DESIGN.md D9, D36): a
splitmix64-style counter generator (:class:`CounterRNG`) keyed by a
per-run SHA-512 digest of ``(seed, salt)`` mixed with the node identity.
Construction is ~50ns; streams are independent across nodes and
reproducible across processes, in the same spirit as the paper's
deterministic-given-IDs derandomization (``hash_luby``).  The reference
loop, the compiled engine and its batch, fused and virtual tiers all
draw it, so the two runner backends give bit-identical executions.

Every context is built with its generator (``rng=...``).
"""

from __future__ import annotations

import hashlib
from functools import partial

import numpy as np

from ..errors import ParameterError

_MASK64 = (1 << 64) - 1
#: splitmix64 increment (Steele, Lea & Flood 2014).
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
#: odd multiplier decorrelating node identities from the run key.
_IDENT_MIX = 0xD1342543DE82EF95


class CounterRNG:
    """Counter-based per-node random source (splitmix64).

    Implements the subset of the :class:`random.Random` API the
    simulation layer uses (``getrandbits``, ``random``, ``randrange``,
    ``randint``).  Anything fancier should derive a full
    :class:`random.Random` from ``getrandbits(64)`` explicitly, keeping
    the dependency visible.
    """

    __slots__ = ("_state",)

    def __init__(self, key):
        self._state = key & _MASK64

    def _next64(self):
        # Weyl sequence + single-multiply finalizer (murmur3's fmix64
        # constant).  One multiply instead of splitmix64's two — ~30%
        # cheaper in pure Python, and ample mixing for experiment-grade
        # priorities and coin flips (the streams are not cryptographic).
        self._state = s = (self._state + _SPLITMIX_GAMMA) & _MASK64
        z = ((s ^ (s >> 33)) * 0xFF51AFD7ED558CCD) & _MASK64
        return z ^ (z >> 33)

    def getrandbits(self, k):
        if 0 < k <= 64:
            # Inline _next64 — the hot path for priority draws.
            self._state = s = (self._state + _SPLITMIX_GAMMA) & _MASK64
            z = ((s ^ (s >> 33)) * 0xFF51AFD7ED558CCD) & _MASK64
            return (z ^ (z >> 33)) >> (64 - k)
        if k <= 0:
            raise ValueError("number of bits must be greater than zero")
        out = 0
        filled = 0
        while filled < k:
            out = (out << 64) | self._next64()
            filled += 64
        return out >> (filled - k)

    def random(self):
        # 53 explicit mantissa bits, like CPython's Random.random(), so
        # the result is always in [0, 1) — dividing a raw 64-bit draw by
        # 2**64 can round up to exactly 1.0.
        return (self._next64() >> 11) * 1.1102230246251565e-16

    def randrange(self, start, stop=None):
        if stop is None:
            start, stop = 0, start
        width = stop - start
        if width <= 0:
            raise ValueError(f"empty range for randrange({start}, {stop})")
        return start + self._rand_below(width)

    def randint(self, a, b):
        return self.randrange(a, b + 1)

    def _rand_below(self, n):
        # Rejection sampling for an unbiased integer in [0, n).
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return r

    @classmethod
    def random_batch(cls, keys, draw, bits=62):
        """Vectorized draws across many streams (the batch-kernel view).

        Element ``j`` of the result is exactly what the ``draw``-th
        ``getrandbits(bits)`` call returns on ``CounterRNG(keys[j])``
        (``draw`` is 1-based).  The closed form exists because the state
        is a Weyl sequence: the ``t``-th state is ``key + t*gamma`` and
        the output a pure finalizer of it, so whole frontiers of draws
        vectorize without materializing per-node generator objects.
        Bit-for-bit agreement with the scalar path is pinned by
        ``tests/test_batch_kernels.py``.
        """
        if not 0 < bits <= 64:
            raise ValueError("batch draws support 1..64 bits per draw")
        if draw < 1:
            raise ValueError("draw indices are 1-based")
        keys = np.asarray(keys, dtype=np.uint64)
        s = keys + np.uint64((draw * _SPLITMIX_GAMMA) & _MASK64)
        # Same finalizer as _next64 (murmur3 fmix64 constant); uint64
        # arithmetic wraps exactly like the scalar's explicit masking.
        z = (s ^ (s >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
        z ^= z >> np.uint64(33)
        return z >> np.uint64(64 - bits)


#: ``"{seed!r}|{salt!r}"`` -> 64-bit key.  The digest is a pure function
#: of the material, so the memo can never go stale; the bound guards
#: pathological seed churn (cleared wholesale — refilling is cheap).
_RUN_KEY_CACHE = {}
_RUN_KEY_CACHE_MAX = 4096


def run_key(seed, salt):
    """64-bit per-run key (SHA-512 based).

    Memoized by digest material: a long-lived session
    (:mod:`repro.local.service`, D18) re-derives the key for the same
    ``(seed, salt)`` on every rerun, and alternation steps re-derive it
    per phase salt — one SHA-512 per *distinct* run key is enough.
    """
    material = f"{seed!r}|{salt!r}"
    key = _RUN_KEY_CACHE.get(material)
    if key is None:
        if len(_RUN_KEY_CACHE) >= _RUN_KEY_CACHE_MAX:
            _RUN_KEY_CACHE.clear()
        digest = hashlib.sha512(material.encode()).digest()
        key = _RUN_KEY_CACHE[material] = int.from_bytes(digest[:8], "big")
    return key


def counter_rng(key, ident):
    """Per-node :class:`CounterRNG` from a run key and a node identity.

    The virtual-node layer also keys hosted nodes' streams with it: the
    host draws a 64-bit base once from its own source and passes it as
    ``key``.
    """
    return CounterRNG(key ^ ((ident * _IDENT_MIX) & _MASK64))


def rng_source(seed, salt):
    """Return the ``ident -> CounterRNG`` source of one run."""
    return partial(counter_rng, run_key(seed, salt))


class NodeContext:
    """Immutable node-local view handed to a node process.

    Attributes
    ----------
    node:
        The node's label in the simulation graph (never sent to other
        nodes by the runtime; algorithms must use :attr:`ident`).
    ident:
        The unique identity ``Id(v)`` (paper Section 2).
    degree:
        Number of incident edges; ports are ``0 .. degree-1``.
    input:
        The problem input ``x(v)`` (``None`` when the problem has no
        input).
    guesses:
        Mapping from parameter name (e.g. ``"n"``, ``"Delta"``, ``"m"``,
        ``"a"``) to the common guessed value.  Uniform algorithms receive
        an empty mapping.
    rng:
        Per-node random source; independent across nodes, and
        reproducible from the run seed.
    """

    __slots__ = ("node", "ident", "degree", "input", "guesses", "rng")

    def __init__(self, node, ident, degree, input, guesses, rng):
        self.node = node
        self.ident = ident
        self.degree = degree
        self.input = input
        self.guesses = guesses
        self.rng = rng

    def guess(self, name):
        """Return the guessed value of a required global parameter.

        Raises :class:`ParameterError` when the guess is missing — a
        non-uniform algorithm invoked without its parameters is a
        programming error, not a silent fallback.
        """
        try:
            return self.guesses[name]
        except KeyError:
            raise ParameterError(
                f"algorithm requires a guess for parameter {name!r}; "
                f"provided guesses: {sorted(self.guesses)}"
            ) from None

    def __repr__(self):
        return (
            f"NodeContext(ident={self.ident}, degree={self.degree}, "
            f"guesses={self.guesses})"
        )
