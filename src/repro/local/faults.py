"""Deterministic fault injection: adversarial node profiles (D14).

The paper's alternation ``B_i = (A_i ; P)`` is a safety net against bad
guesses — the pruner ``P`` keeps the combined output correct even when
the guess-fed algorithm misbehaves (Theorem 2).  This module supplies
the *adversarial conditions* that guarantee is worth exercising under:
per-node fault profiles compiled into a :class:`FaultPlan` the runner
injects at message-delivery time.

Profiles
--------
``honest()``
    No interference (the implicit default for unlisted nodes).
``crash_at(round, output=None)``
    The node stops participating at ``round`` (0 = before wake-up): it
    is force-finished with ``output``, sends nothing and receives
    nothing from then on.  Rounds are per *run* — in an alternation the
    node crashes at that round of every guess run and every pruner run.
``byzantine_silent()``
    The node executes its protocol faithfully but none of its messages
    are ever delivered — the classic send-omission adversary.  Unlike a
    crash it keeps running (and may terminate with a locally-consistent
    but globally-wrong output).
``drop(p)``
    Each outgoing message is dropped independently with probability
    ``p`` (per directed edge, per round).  Dropped messages are not
    counted in ``RunResult.messages``.
``garble(p)``
    Each outgoing message is independently replaced by the
    :data:`GARBLED` sentinel with probability ``p``.  Garbled messages
    *are* counted (the bytes travelled); tag-checking receive loops —
    every algorithm and pruner in this repository — ignore the payload.

Determinism contract
--------------------
An injected run is a pure function of ``(graph, algorithm, inputs,
guesses, seed, salt, plan)``.  Drop/garble decisions come from the
identity-keyed counter RNG (:class:`~repro.local.context.CounterRNG`):
the decision for the message ``u -> v`` sent at round ``r`` is a closed
form of ``(fault key, Id(u), Id(v), r)``, evaluable from either
endpoint of the edge and therefore identical no matter which backend —
reference loop, compiled per-node loop or batch kernel — asks the
question.  The fault stream is keyed
separately from the algorithm's random streams (same seed material,
distinct salt domain), so injection never perturbs the algorithm's own
draws.  ``tests/test_faults.py`` pins the resulting bit-identity across
every stack.

Scope: fault injection applies to physical-domain runs.  Virtual
domains (line graphs, clique products) pin faults off — a virtual
node's messages have no 1:1 physical transmission for a per-edge
adversary to act on (documented limit, DESIGN.md D14).
"""

from __future__ import annotations

from contextlib import contextmanager

from ..errors import ParameterError
from .context import _IDENT_MIX, _MASK64, _SPLITMIX_GAMMA, run_key

#: Sentinel payload substituted for garbled messages.  A tuple whose
#: tag matches no protocol, so every tag-checking receive loop ignores
#: it without crashing; algorithms may match it explicitly to count
#: corruption.
GARBLED = ("garbled",)

#: Per-edge decision outcomes of :meth:`CompiledFaults.decide`.
DELIVER, DROP, GARBLE = 0, 1, 2

#: Odd 64-bit multiplier decorrelating the *receiver* identity from the
#: sender's :data:`~repro.local.context._IDENT_MIX` stream, so the
#: directed edges ``u -> v`` and ``v -> u`` draw from independent
#: fault streams.
_RECV_MIX = 0xA24BAED4963EE407

#: ``silence_from`` value of nodes that are never silenced.
_NEVER = 1 << 62


class Profile:
    """One node's fault behaviour.  Build via the module constructors."""

    __slots__ = ("kind", "crash_round", "crash_output", "p")

    def __init__(self, kind, crash_round=None, crash_output=None, p=0.0):
        self.kind = kind
        self.crash_round = crash_round
        self.crash_output = crash_output
        self.p = p

    def __repr__(self):
        if self.kind == "crash":
            return f"crash_at({self.crash_round})"
        if self.kind in ("drop", "garble"):
            return f"{self.kind}({self.p})"
        return self.kind


def honest():
    """The no-interference profile (same as not listing the node)."""
    return Profile("honest")


def crash_at(round, output=None):
    """Crash-stop at ``round`` (0 = before wake-up), forced to ``output``."""
    if int(round) < 0:
        raise ParameterError(f"crash round must be >= 0, got {round}")
    return Profile("crash", crash_round=int(round), crash_output=output)


def byzantine_silent():
    """Send-omission adversary: runs faithfully, delivers nothing."""
    return Profile("byzantine-silent")


def drop(p):
    """Drop each outgoing message independently with probability ``p``."""
    return Profile("drop", p=_check_p(p))


def garble(p):
    """Garble each outgoing message independently with probability ``p``."""
    return Profile("garble", p=_check_p(p))


def _check_p(p):
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"fault probability must be in [0, 1], got {p}")
    return p


def _threshold_m1(p):
    """``thr - 1`` for the 64-bit draw comparison, or ``None`` for never.

    The effect applies iff ``draw <= thr - 1`` where ``thr = p * 2**64``
    — exact for ``p = 1.0`` (threshold ``2**64 - 1`` admits every draw)
    and never firing for ``p = 0`` (no entry at all), identically in
    Python big-int and numpy uint64 arithmetic.
    """
    thr = int(p * (1 << 64))
    if thr <= 0:
        return None
    return min(thr, 1 << 64) - 1


class FaultPlan:
    """Immutable per-run fault assignment: node label -> :class:`Profile`.

    ``salt`` decorrelates the drop/garble streams of otherwise identical
    plans (sweeps vary it to resample the adversary); the plan is inert
    for nodes it does not mention and for labels absent from the graph.
    Pass ``nodes`` (any iterable of labels, e.g. ``graph.nodes``) to
    instead *reject* profiles for unknown labels at build time — the
    eager check that catches a typo'd label before it silently no-ops
    through an entire sweep.
    """

    __slots__ = ("profiles", "salt")

    def __init__(self, profiles, salt=0, nodes=None):
        cleaned = {}
        for label, profile in dict(profiles or {}).items():
            if not isinstance(profile, Profile):
                raise ParameterError(
                    f"fault profile for {label!r} must be a Profile, "
                    f"got {type(profile).__name__}"
                )
            if profile.kind != "honest":
                cleaned[label] = profile
        if nodes is not None:
            known = set(nodes)
            unknown = sorted(
                (repr(label) for label in cleaned if label not in known)
            )
            if unknown:
                raise ParameterError(
                    f"fault plan names {len(unknown)} unknown node "
                    f"label(s): {', '.join(unknown[:5])}"
                    + (", ..." if len(unknown) > 5 else "")
                )
        self.profiles = cleaned
        self.salt = salt

    def __bool__(self):
        return bool(self.profiles)

    def __len__(self):
        return len(self.profiles)

    def describe(self):
        """Short human-readable summary for traces and bench records."""
        kinds = {}
        for profile in self.profiles.values():
            kinds[profile.kind] = kinds.get(profile.kind, 0) + 1
        inner = ",".join(f"{k}:{kinds[k]}" for k in sorted(kinds))
        return f"faults[{inner or 'none'}]"

    def fault_key(self, seed, salt):
        """64-bit key of the run's fault stream.

        Same seed material as the algorithm's rng derivation but a
        distinct salt domain, so fault decisions are reproducible with
        the run yet independent of the algorithm's own draws.
        """
        return run_key(seed, ("faults", self.salt, salt))

    def compile(self, labels, idents, seed, salt):
        """Per-run scalar view over a graph's ``(labels, idents)``.

        Returns ``None`` when no listed node is present — the engines
        then take their unfaulted hot paths.
        """
        present = set(labels) & set(self.profiles)
        if not present:
            return None
        silence = {}
        crash = {}
        edge = {}
        for label in present:
            profile = self.profiles[label]
            if profile.kind == "crash":
                crash[label] = (profile.crash_round, profile.crash_output)
                silence[label] = profile.crash_round
            elif profile.kind == "byzantine-silent":
                silence[label] = 0
            else:  # drop / garble
                thr_m1 = _threshold_m1(profile.p)
                if thr_m1 is not None:
                    effect = DROP if profile.kind == "drop" else GARBLE
                    edge[label] = (effect, thr_m1)
        if not (silence or crash or edge):
            return None
        return CompiledFaults(
            self.fault_key(seed, salt), silence, crash, edge
        )

    def __repr__(self):
        return f"FaultPlan({self.describe()}, salt={self.salt!r})"


class CompiledFaults:
    """Scalar per-run fault view (pure Python — no numpy required).

    Used directly by the per-node execution paths (reference loop and
    compiled loop); :meth:`batch_view` derives the
    vectorized twin for fault-certified batch kernels.
    """

    __slots__ = ("fkey", "silence", "crash", "edge")

    def __init__(self, fkey, silence, crash, edge):
        self.fkey = fkey
        #: label -> first silenced round (byzantine: 0; crash: its round)
        self.silence = silence
        #: label -> (crash round, forced output)
        self.crash = crash
        #: label -> (effect, threshold - 1) for drop/garble senders
        self.edge = edge

    def silenced(self, label, round_no):
        first = self.silence.get(label)
        return first is not None and round_no >= first

    def crash_of(self, label):
        """``(round, output)`` of a crash-stop node, else ``None``."""
        return self.crash.get(label)

    def decide(self, sender_label, sender_ident, receiver_ident, round_no):
        """Fate of the message ``sender -> receiver`` sent at ``round_no``.

        The closed form of the counter scheme: the edge stream's key is
        ``fkey ^ mix1(Id(u)) ^ mix2(Id(v))`` and the round's draw is the
        fmix64 finalizer of ``key + (round + 1) * gamma`` — exactly what
        :meth:`CounterRNG.random_batch` computes, so the vectorized view
        agrees bit for bit.  Identities may exceed 64 bits; mixing is
        big-int then narrowed, matching ``stream_keys``.
        """
        entry = self.edge.get(sender_label)
        if entry is None:
            return DELIVER
        effect, thr_m1 = entry
        key = (
            self.fkey
            ^ ((sender_ident * _IDENT_MIX) & _MASK64)
            ^ ((receiver_ident * _RECV_MIX) & _MASK64)
        )
        s = (key + ((round_no + 1) * _SPLITMIX_GAMMA)) & _MASK64
        z = ((s ^ (s >> 33)) * 0xFF51AFD7ED558CCD) & _MASK64
        value = z ^ (z >> 33)
        return effect if value <= thr_m1 else DELIVER

    def batch_view(self, bg):
        """Vectorized view over a :class:`~repro.local.batch.BatchGraph`."""
        return BatchFaults(self, bg)


class BatchFaults:
    """Numpy fault view a fault-certified batch kernel consumes.

    Per-node arrays are in the ``bg``'s node order; per-slot arrays
    parallel the CSR slab.  ``keys_out[k]`` keys the message the slot's
    *owner* sends through it, ``keys_in[k]`` the message the slot's
    *neighbour* sends back along the same edge — the two views of one
    directed message agree by construction.
    """

    __slots__ = (
        "n",
        "silence_from",
        "crash_round",
        "crash_out",
        "has_crash",
        "eff",
        "thr_m1",
        "keys_out",
        "keys_in",
        "_owner",
        "_neigh",
    )

    def __init__(self, compiled, bg):
        from .batch import numpy_or_none

        np = numpy_or_none()
        n = bg.n
        self.n = n
        silence_from = np.full(n, _NEVER, dtype=np.int64)
        crash_round = np.full(n, -1, dtype=np.int64)
        crash_out = [None] * n
        eff = np.zeros(n, dtype=np.int8)
        thr_m1 = np.zeros(n, dtype=np.uint64)
        silence = compiled.silence
        crash = compiled.crash
        edge = compiled.edge
        for i, label in enumerate(bg.labels):
            first = silence.get(label)
            if first is not None:
                silence_from[i] = first
            entry = crash.get(label)
            if entry is not None:
                crash_round[i] = entry[0]
                crash_out[i] = entry[1]
            entry = edge.get(label)
            if entry is not None:
                eff[i] = entry[0]
                thr_m1[i] = entry[1]
        self.silence_from = silence_from
        self.crash_round = crash_round
        self.crash_out = crash_out
        self.has_crash = bool((crash_round >= 0).any())
        self.eff = eff
        self.thr_m1 = thr_m1
        # Big-int identity mixing before narrowing (idents may exceed
        # 64 bits), matching stream_keys / CompiledFaults.decide.
        fkey = compiled.fkey
        m1 = np.array(
            [fkey ^ ((ident * _IDENT_MIX) & _MASK64) for ident in bg.idents],
            dtype=np.uint64,
        )
        m2 = np.array(
            [(ident * _RECV_MIX) & _MASK64 for ident in bg.idents],
            dtype=np.uint64,
        )
        self.keys_out = m1[bg.owner] ^ m2[bg.neigh]
        self.keys_in = m1[bg.neigh] ^ m2[bg.owner]
        self._owner = bg.owner
        self._neigh = bg.neigh

    def _hits(self, keys, senders, round_no):
        """Per-slot drop/garble flags for messages sent at ``round_no``."""
        from .context import CounterRNG

        eff = self.eff[senders]
        value = CounterRNG.random_batch(keys, round_no + 1, 64)
        hit = (eff > 0) & (value <= self.thr_m1[senders])
        return hit, eff

    def silenced_at(self, round_no):
        """Per-node flags: sends at ``round_no`` are suppressed."""
        return self.silence_from <= round_no

    def crashed_at(self, round_no):
        """Per-node flags: the node crash-stops at exactly ``round_no``."""
        if not self.has_crash:
            return None
        return self.crash_round == round_no

    def delivered_out(self, round_no):
        """Per-slot flags: the owner's send through the slot is counted.

        Garbled messages count (the bytes travelled); dropped and
        silenced ones do not — the sender-side view that keeps
        degree-weighted message totals identical to the per-node paths.
        """
        hit, eff = self._hits(self.keys_out, self._owner, round_no)
        dropped = hit & (eff == DROP)
        return ~dropped & ~self.silenced_at(round_no)[self._owner]

    def tainted_in(self, round_no):
        """Per-slot flags: the neighbour's send along the slot's edge at
        ``round_no`` does not arrive as a valid payload (silenced,
        dropped, or garbled) — the receiver-side gather mask."""
        hit, _eff = self._hits(self.keys_in, self._neigh, round_no)
        return hit | self.silenced_at(round_no)[self._neigh]


# ---------------------------------------------------------------------------
# ambient plan (process-wide default, scoped by use_faults)
# ---------------------------------------------------------------------------

#: Process-wide fault plan applied to runs that pass ``faults=None``;
#: ``None`` (or an empty plan) injects nothing.
DEFAULT_FAULTS = None


def set_default_faults(plan):
    """Set the process-wide fault plan; returns the previous one."""
    global DEFAULT_FAULTS
    if plan is not None and not isinstance(plan, FaultPlan):
        raise ParameterError(
            f"expected a FaultPlan or None, got {type(plan).__name__}"
        )
    previous = DEFAULT_FAULTS
    DEFAULT_FAULTS = plan
    return previous


@contextmanager
def use_faults(plan):
    """Temporarily pin the ambient fault plan (``None`` pins faults off).

    Whole pipelines inject without threading ``faults=`` through every
    call site: every run inside the scope — each guess run *and* pruner
    run of an alternation — resolves the plan, exactly like
    ``use_backend`` scopes the executor.
    """
    previous = set_default_faults(plan)
    try:
        yield
    finally:
        set_default_faults(previous)


def resolve_faults(faults):
    """Per-call plan, falling back to the ambient default; ``None`` when
    the winning plan is absent or empty."""
    plan = faults if faults is not None else DEFAULT_FAULTS
    if plan is not None and not isinstance(plan, FaultPlan):
        raise ParameterError(
            f"expected a FaultPlan or None, got {type(plan).__name__}"
        )
    return plan if plan else None


def sample_plan(graph, profile, fraction, *, seed=0, salt=0):
    """Deterministically assign ``profile`` to ~``fraction`` of the nodes.

    Selection draws one 64-bit value per node from a counter stream
    keyed by ``(seed, salt, identity)`` — a pure function of the graph
    and the parameters, so bench sweeps and tests rebuild the exact
    same adversary on every backend and every machine.
    """
    fraction = _check_p(fraction)
    thr_m1 = _threshold_m1(fraction)
    if thr_m1 is None:
        return FaultPlan({}, salt=salt)
    key = run_key(seed, ("fault-sample", salt))
    profiles = {}
    for label in graph.nodes:
        ident = graph.ident[label]
        node_key = key ^ ((ident * _IDENT_MIX) & _MASK64)
        s = (node_key + _SPLITMIX_GAMMA) & _MASK64
        z = ((s ^ (s >> 33)) * 0xFF51AFD7ED558CCD) & _MASK64
        if (z ^ (z >> 33)) <= thr_m1:
            profiles[label] = profile
    return FaultPlan(profiles, salt=salt)
