"""Hash-Luby: the n-only deterministic-given-IDs MIS (substitution D2).

Stands in for Panconesi–Srinivasan's ``2^O(√log n)`` network-decomposition
MIS in Table 1 row 2.  Priorities are *deterministic* hashes of
``(identity, phase)``, so the algorithm consumes no random bits and — like
PS96 — its code uses only a guess for ``n`` (for its self-truncation
schedule).  Under the library's identity schemes the hashed priorities
behave like fresh randomness and the algorithm decides every node within
``O(log n)`` phases; the declared bound is the deliberately generous
``O(log² ñ)``.

What this substitution keeps and loses is spelled out in DESIGN.md (D2).
The essential safety property: if an adversarial identity assignment ever
defeated the hash, the output would merely be an incorrect tentative
vector — the pruning loop detects it and iterates, so every *uniform*
algorithm built from this box remains correct with certainty.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

from ..core.bounds import AdditiveBound, log2_squared
from ..core.transformer import NonUniform
from ..local.algorithm import LocalAlgorithm
from .luby import NOT_IN_SET, LubyProcess, _luby_batch_factory


@lru_cache(maxsize=65536)
def _hash_bits(ident, phase):
    material = f"{ident}|{phase}".encode()
    digest = hashlib.blake2b(material, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _hash_priority(ctx, phase):
    # Pure in (ident, phase) and recomputed with identical arguments at
    # every alternation step, so the digest is memoized.
    return _hash_bits(ctx.ident, phase)


#: Phase schedule: ⌈log2 ñ⌉² phases is far beyond the observed O(log n).
HL_PHASE_FACTOR = 2
HL_PHASE_CONSTANT = 8


@lru_cache(maxsize=1024)
def hl_phases(n_guess):
    bits = max(1, (max(1, int(n_guess))).bit_length())
    return HL_PHASE_FACTOR * bits * bits + HL_PHASE_CONSTANT


def _hash_priorities(bg, setup):
    """Frontier-draw hook: deterministic ``(identity, phase)`` hashes.

    The digest is not array arithmetic, so each phase draws one
    memoized blake2b per *distinct identity* on the frontier and
    gathers it to every node holding that identity: a fused slab whose
    lanes share identities (a seed sweep of one graph, or a graph and
    its induced subgraph) pays once per identity, not once per lane.
    ``bg.ident_firsts()`` maps each node to the first index holding its
    identity, once per cached slab; it is ``None`` in a single graph,
    whose identities are unique.
    """
    idents = bg.idents
    firsts = bg.ident_firsts()

    def digests(rows, phase):
        return np.array(
            [_hash_bits(idents[i], phase) for i in rows.tolist()],
            dtype=np.uint64,
        )

    if firsts is None:
        return digests
    n = bg.n

    def draws(idx, phase):
        # Distinct representatives by a mark and a rank scatter: O(n)
        # in C per phase, where sorting the frontier is O(k log k).
        reps = firsts[idx]
        mark = np.zeros(n, dtype=bool)
        mark[reps] = True
        distinct = np.flatnonzero(mark)
        rank = np.empty(n, dtype=np.int64)
        rank[distinct] = np.arange(len(distinct))
        return digests(distinct, phase)[rank[reps]]

    return draws


def hash_luby_mis():
    """The n-only MIS box: deterministic given identities."""

    def process(ctx):
        return LubyProcess(
            ctx, _hash_priority, phase_budget=hl_phases(ctx.guess("n"))
        )

    return LocalAlgorithm(
        name="hash-luby-mis",
        process=process,
        requires=("n",),
        randomized=False,
        batch=_luby_batch_factory(
            budget_of=lambda g: hl_phases(g["n"]),
            priorities=_hash_priorities,
        ),
        fuse=True,
    )


def hash_luby_bound():
    """Declared bound ``O(log² ñ)`` (2 rounds per phase + slack)."""
    return AdditiveBound(
        [log2_squared("n", 2 * HL_PHASE_FACTOR)],
        constant=2 * HL_PHASE_CONSTANT + 4,
        label="hash-luby rounds",
    )


def hash_luby_nonuniform():
    """Theorem 1 input for Table 1 row 2 (n-only deterministic MIS)."""
    return NonUniform(
        hash_luby_mis(),
        hash_luby_bound(),
        kind="deterministic",
        default_output=NOT_IN_SET,
        name="hash-luby-mis",
    )
