"""Batched frontier-step infrastructure for the compiled engine.

The per-node interpreter (the reference loop) spends its time
dispatching one Python ``receive`` per active node per round.
For the lockstep state machines that dominate the reproduction's hot
workloads — Luby-style priority phases, the Linial/Kuhn–Wattenhofer
coloring schedule, the color-class MIS sweep — every node of a round
executes the *same* few arithmetic operations, which makes the whole
frontier one data-parallel array job over the CSR layout.

This module holds the backend-neutral plumbing of that path (DESIGN.md,
D10: the batch-step contract):

* :class:`BatchGraph` — a numpy CSR adjacency (offsets / neighbour /
  owner slabs) plus the Python-level label and identity views the
  kernels need for big-integer work; a physical graph's
  :class:`~repro.local.engine.CompiledGraph` is one (DESIGN.md D43).
  Node order is identity order, so kernels may tie-break on the node
  *index* wherever the per-node machines tie-break on the identity.
* :class:`BatchSetup` — the per-run context a kernel factory receives
  (inputs, guesses and a lazily-built draw source).
* :class:`CounterDraws` — vectorized access to each node's private
  counter-scheme stream, producing the exact values the scalar per-node
  generators would.  The compiled engine draws no other scheme (D29).
* :func:`row_flags` — "some selected edge points at this node" flag
  reduction over the edge slab.
* :func:`drive_kernel` and :func:`settle` — the round-fused driver
  (D17, D30), the one ledger of every solo kernel run, physical or
  virtual: the whole round schedule runs inside one call, never one
  interpreter return per simulated round.
* :func:`fold_commits` — the one fold of a drive's array commits
  (D40), shared by :func:`settle`, the fused lanes and the virtual
  driver.

numpy is a required dependency (DESIGN.md D39).  A run falls back to
the reference loop (D33) only when it has no kernel, tracks message
bits, or its kernel factory declines the configuration.  Kernels
register on a :class:`~repro.local.algorithm.LocalAlgorithm` through
its ``batch`` factory; eligibility rules live in
:func:`make_engine_kernel`.

A kernel instance drives one run through exactly one stepping loop,
chosen by its shape:

``run_phases() -> results``
    A :class:`LockstepKernel` (fixed ``schedule``, every node active
    until the last round): the whole schedule in one call, returning
    every node's result in index order.  The driver commits that list
    as it is and settles everything else arithmetically, including a
    cap the schedule does not fit.
``run_fixedpoint(cap) -> (events, rounds, messages)``
    Every other kernel (the Luby family, the coloring/MIS kernels): its
    own loop up to ``cap`` rounds, leaving truncation to
    :func:`settle`.  ``events`` lists ``(round, indices, value)``
    commits — an index array of nodes that terminated that round and
    their output: one ``value`` for all of them, or an array aligned
    with ``indices`` — and ``messages`` the point-to-point deliveries
    of every executed round.  The loop may skip work it can prove
    changes nothing: rounds without events or messages, and a fixed
    point's repeats, which it settles by arithmetic.

Every kernel also exposes ``done`` (true once every node terminated)
and ``undone_indices()`` — the indices still running, ascending: what
truncation forces to the default output (and what
:class:`NonTerminationError` reports).  Each node lies in exactly one
commit or, while the kernel is not done, among the undone.

The contract with the reference loop is *bit-identity*: for the same
``(graph, algorithm, inputs, guesses, seed, salt)`` the kernel must
yield a field-for-field identical
:class:`~repro.local.runner.RunResult` (asserted by
``tests/test_engine_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from ..errors import NonTerminationError
from .context import _IDENT_MIX, _MASK64, CounterRNG, run_key


def ident_mix(idents):
    """Per-node ``(ident * mix) mod 2^64`` as a read-only uint64 array.

    When every identity fits in 64 bits this is one wrapping uint64
    multiply; identities past 2^64 - 1 (derived-graph encodings) are
    mixed in Python big-int arithmetic before narrowing.
    """
    if idents and max(idents) > _MASK64:
        mixed = np.array(
            [(ident * _IDENT_MIX) & _MASK64 for ident in idents],
            dtype=np.uint64,
        )
    else:
        mixed = np.array(idents, dtype=np.uint64) * np.uint64(_IDENT_MIX)
    mixed.flags.writeable = False
    return mixed


class CounterDraws:
    """Vectorized per-node draws of the counter rng scheme.

    ``draws(idx, t)`` returns, for each node index in ``idx``, the value
    the node's ``t``-th ``getrandbits(bits)`` call would produce on its
    private :class:`~repro.local.context.CounterRNG` stream.
    """

    __slots__ = ("keys", "bits")

    def __init__(self, keys, bits=62):
        self.keys = keys
        self.bits = bits

    def draws(self, idx, draw):
        return CounterRNG.random_batch(self.keys[idx], draw, self.bits)


class BatchGraph:
    """Numpy CSR plus label/identity views, in identity order.

    ``rev`` holds a physical graph's reverse ports
    (:class:`~repro.local.engine.CompiledGraph`); it is ``None`` on
    virtual and fused graphs, which have no port numbering of their own.
    """

    __slots__ = (
        "labels", "idents", "n", "offsets", "neigh", "owner", "degrees",
        "rev", "_mix",
    )

    def __init__(self, labels, idents, offsets, neigh, rev=None):
        self.labels = labels
        self.idents = idents  # Python ints: may exceed 64 bits
        self.n = len(labels)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.neigh = np.asarray(neigh, dtype=np.int64)
        self.degrees = self.offsets[1:] - self.offsets[:-1]
        self.owner = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        self.rev = rev
        self._mix = None

    def ident_mix(self):
        """This graph's :func:`ident_mix`, computed once and cached."""
        mix = self._mix
        if mix is None:
            mix = self._mix = ident_mix(self.idents)
        return mix

    def ident_firsts(self):
        """Per node, the first index holding its identity, or ``None``
        when identities are unique — always, in one graph (a fused slab,
        whose lanes may share identities, overrides this)."""
        return None

    def induced(self, alive):
        """The CSR induced on the rows where the bool mask ``alive`` holds.

        One pass, O(n + m) in C.  Index order is kept, so rows, ports and
        slots keep their relative order.  A slot is kept when both its
        ends survive, and the zero-padded cumulative count of kept slots
        gives its new position: a dead row keeps no slot, so a
        survivor's row starts where its old row did, counted in kept
        slots.  Returns ``(survivors, count, slots, offsets, neigh)``:
        the surviving rows, that count (``count[k]`` is the new position
        of kept slot ``k``), the kept slots, and the induced CSR.
        """
        kept = np.repeat(alive, self.degrees) & alive[self.neigh]
        count = np.zeros(len(self.neigh) + 1, dtype=np.int64)
        np.cumsum(kept, out=count[1:])
        survivors = np.flatnonzero(alive)
        offsets = count[self.offsets[np.append(survivors, self.n)]]
        slots = np.flatnonzero(kept)
        neigh = (np.cumsum(alive) - 1)[self.neigh[slots]]
        return survivors, count, slots, offsets, neigh

    def row_slots(self, rows):
        """Every CSR slot of ``rows``, row by row, in O(Σ their degree).

        Returns ``(k, w)``: slot ``i`` lies in row ``rows[k[i]]`` and
        points at neighbour ``w[i]``.
        """
        lens = self.degrees[rows]
        k = np.repeat(np.arange(len(rows)), lens)
        first = np.cumsum(lens) - lens
        slot = np.arange(len(k)) + (self.offsets[rows] - first)[k]
        return k, self.neigh[slot]

    def charge(self, senders=None):
        """Message count for a broadcast by ``senders`` (all nodes if
        ``None``).

        Honest kernels route every message-ledger contribution through
        this single seam so a subclass can also *attribute* the count
        (the fused engine's :class:`~repro.local.fused.FusedBatchGraph`
        splits it per lane, D16).  ``senders`` is an int-index array or
        a boolean node mask.
        """
        if senders is None:
            return int(self.degrees.sum())
        return int(self.degrees[senders].sum())


def batch_graph_of(cg):
    """``cg`` itself: a ``CompiledGraph`` is its own :class:`BatchGraph`."""
    return cg


def batch_graph_of_spec(spec):
    """The cached :class:`BatchGraph` of a virtual graph (identity order).

    Cached on the spec: a step's guess run and pruner run share one
    batch graph.  Array-built specs arrive with theirs; dict-built ones
    get it from their dicts here.
    """
    bg = spec._batch
    if bg is not None:
        return bg
    ident = spec.ident
    adj = spec.adj
    labels = sorted(adj, key=lambda v: ident[v])
    index = {v: i for i, v in enumerate(labels)}
    rows = [adj[v] for v in labels]
    offsets = np.zeros(len(labels) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    neigh = [index[w] for row in rows for w in row]
    bg = spec._batch = BatchGraph(
        labels, [ident[v] for v in labels], offsets, neigh
    )
    return bg


class BatchSetup:
    """Run context handed to a kernel factory.

    ``draw_source(bits)`` builds the per-node random-draw view lazily,
    so deterministic kernels never touch seed material.
    """

    __slots__ = ("inputs", "guesses", "_draw_builder")

    def __init__(self, inputs, guesses, draw_builder):
        self.inputs = inputs
        self.guesses = guesses
        self._draw_builder = draw_builder

    def draw_source(self, bits=62):
        return self._draw_builder(bits)


def _engine_draw_builder(bg, seed, salt):
    def build(bits):
        keys = bg.ident_mix() ^ np.uint64(run_key(seed, salt))
        return CounterDraws(keys, bits)

    return build


def virtual_draw_builder(bg, host_index, physical, seed, salt):
    """Draw builder reproducing the virtual layer's nested derivation.

    Each host draws a 64-bit base from its own stream (its first draw),
    then every hosted virtual node derives an independent sub-stream
    from ``(base, virtual identity)`` — see
    :class:`repro.local.virtual._VirtualHostProcess`.  ``host_index``
    holds each virtual node's host as a physical CSR index.
    """

    def build(bits):
        mix = physical.compiled().ident_mix()
        base = CounterRNG.random_batch(
            mix ^ np.uint64(run_key(seed, salt)), 1, 64
        )
        return CounterDraws(base[host_index] ^ bg.ident_mix(), bits)

    return build


def row_flags(owner_hits, n):
    """Boolean per-node flags from the owning side of selected edges."""
    flags = np.zeros(n, dtype=bool)
    flags[owner_hits] = True
    return flags


class LockstepKernel:
    """Base for kernels whose nodes all run the full fixed schedule.

    The pruners, the bitwise ruling cascade and the H-partition peeling
    keep *every* node active until round ``schedule``, when all of them
    terminate together, and broadcast one payload per edge slot in
    every earlier round (round 0 included).  So a run's ledger is a
    function of ``schedule`` and the cap alone, and
    :func:`drive_kernel` settles it without kernel code: a subclass
    keeps only its inputs in ``__slots__`` and implements
    :meth:`run_phases`.
    """

    __slots__ = ("bg", "schedule", "done", "_undone")

    def __init__(self, bg, schedule):
        self.bg = bg
        self.schedule = schedule
        self.done = False
        self._undone = None

    def undone_indices(self):
        undone = self._undone
        if undone is None:
            undone = self._undone = list(range(self.bg.n))
        return undone

    def run_phases(self):
        """Run the whole schedule in one call; return every node's
        result in index order.

        Must equal the per-node process bit for bit.  It may stop early
        only at a proven fixed point (a round that changes nothing makes
        every later round identical).
        """
        raise NotImplementedError


def drive_kernel(kernel, cap):
    """Run a freshly built kernel's whole schedule, at most ``cap`` rounds.

    * **Lockstep** — a :class:`LockstepKernel` settles by arithmetic
      (D35).  When its ``schedule`` fits the cap it runs
      :meth:`~LockstepKernel.run_phases`: every node finishes at round
      ``schedule`` and the messages are ``schedule × degrees.sum()``.
      When the cap cuts the schedule short no node can have finished,
      so no kernel code runs: the drive is ``cap`` rounds with no
      event and ``(cap + 1) × degrees.sum()`` messages (round 0 and
      rounds 1..cap each broadcast on every edge slot).
    * **Fixed-point** — every other kernel runs its own
      ``run_fixedpoint(cap)``.

    Returns ``(events, rounds, messages)``: ``events`` is the list of
    ``(round, indices, value)`` commits of the run (a lockstep run
    commits its ``run_phases()`` list over every index),
    ``rounds`` how many rounds executed (``rounds == cap`` with
    ``kernel.done`` false means the cap bit — truncation or
    :class:`NonTerminationError` — is the caller's to settle).  Shared
    by the engine and the virtual-domain drivers.
    """
    if isinstance(kernel, LockstepKernel):
        schedule = kernel.schedule
        charge = kernel.bg.charge()
        if schedule > cap:
            return [], cap, (cap + 1) * charge
        results = kernel.run_phases()
        kernel.done = True
        events = [(schedule, np.arange(kernel.bg.n), results)]
        return events, schedule, schedule * charge
    return kernel.run_fixedpoint(cap)


def _is_int64(value):
    """Whether ``value`` stores as int64 without changing type or bits."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind == "i"
    return type(value) is int and -(1 << 63) <= value < 1 << 63


def _as_objects(value):
    """``value`` as an object array: element-wise when it is aligned
    with the indices (a list or an array), else one boxed value that
    broadcasts whole (a tuple stays one result)."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, list):
        return np.fromiter(value, dtype=object, count=len(value))
    box = np.empty((), dtype=object)
    box[()] = value
    return box


def fold_commits(events, n, undone, fill, fill_round):
    """Scatter a drive's commits over the node indices.

    ``events`` holds ``(round, indices, value)`` commits, ``value`` one
    result for every index or a list/array aligned with ``indices``.
    Each index lies in exactly one commit or in ``undone``, which gets
    ``fill`` at round ``fill_round``.  Returns ``(round_of, values)``:
    the int64 finish rounds and the results, both arrays in index
    order.  Results stay in an int64 array when every one of them is an
    int (the common case); object dtype is kept for anything else, a
    non-int ``fill`` for stragglers included.
    """
    round_of = np.zeros(n, dtype=np.int64)
    ints = all(_is_int64(value) for _, _, value in events) and (
        not len(undone) or _is_int64(fill)
    )
    if ints:
        value_of, wrap = np.zeros(n, dtype=np.int64), lambda value: value
    else:
        value_of, wrap = np.empty(n, dtype=object), _as_objects
    for rnd, idx, value in events:
        round_of[idx] = rnd
        value_of[idx] = wrap(value)
    if len(undone):
        round_of[undone] = fill_round
        value_of[undone] = wrap(fill)
    return round_of, value_of


def settle(
    driven, kernel, labels, algorithm, *, cap, truncating, default_output,
    result_cls,
):
    """Fold a drive's commits into the LOCAL-model ledger.

    Outputs and termination times come from :func:`fold_commits`;
    truncation forces the default output at the cap, non-termination
    raises with the undone labels — field for field what the reference
    loop reports.  Both maps list the nodes in index (identity) order.
    """
    events, _, messages = driven
    undone = () if kernel.done else kernel.undone_indices()
    if not kernel.done and not truncating:
        raise NonTerminationError(
            algorithm.name, cap, [labels[i] for i in undone]
        )
    round_of, values = fold_commits(
        events, len(labels), undone, default_output, cap
    )
    return result_cls(
        dict(zip(labels, values.tolist())),
        dict(zip(labels, round_of.tolist())),
        int(round_of.max(initial=0)) if kernel.done else cap,
        messages,
        frozenset(labels[i] for i in undone),
        None,
    )


def make_engine_kernel(
    algorithm, cg, *, inputs, guesses, seed, salt, track_bits,
):
    """Build the run's batch kernel, or ``None`` to run the reference loop.

    Fallback rules (DESIGN.md D10, D33): no ``algorithm.batch``
    factory, message-size tracking requested (payload bits are a
    property of the materialized tuples the batch path never builds),
    an empty graph, or the factory itself declining the configuration
    (e.g. palette bounds it cannot represent).
    """
    if track_bits or cg.n == 0 or algorithm.batch is None:
        return None
    return algorithm.batch(
        cg, BatchSetup(inputs, guesses, _engine_draw_builder(cg, seed, salt))
    )
