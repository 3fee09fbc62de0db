"""(Δ+1)-coloring: Linial reduction followed by Kuhn–Wattenhofer halving.

The library's stand-in for the Barenboim–Elkin '09 / Kuhn '09
``O(Δ + log* n)`` algorithms (Table 1 row 1; deviation D1 in DESIGN.md):
``O(Δ̃ log Δ̃ + log* m̃)`` rounds, colors in ``[1, Δ̃+1]``.

Everything about the execution — the Linial schedule, the number of
halving phases, the per-phase slot structure — is a pure function of the
guesses ``(m̃, Δ̃)``, which is what makes the algorithm *non-uniform* and
a Theorem 1 input.  Under good guesses the run is proper and within the
declared bound; under bad guesses it produces arbitrary output on
schedule, as the paper's model allows.
"""

from __future__ import annotations

import numpy as np

from ..core.bounds import AdditiveBound, custom
from ..core.transformer import NonUniform
from ..local import batch
from ..local.algorithm import LocalAlgorithm, NodeProcess
from ..local.message import Broadcast
from .color_reduction import KWReducer, kw_schedule, kw_total_rounds
from .linial import (
    initial_color,
    linial_fixpoint_palette,
    linial_schedule,
    linial_steps_upper,
    reduce_color,
)


class FastColoringProcess(NodeProcess):
    """Linial stage then KW stage, one master round counter."""

    __slots__ = ("steps", "color", "index", "reducer", "palette", "delta")

    def __init__(self, ctx):
        super().__init__(ctx)
        m_guess = ctx.guess("m")
        self.delta = max(0, int(ctx.guess("Delta")))
        self.steps, self.palette = linial_schedule(m_guess, self.delta)
        self.color = initial_color(ctx) - 1
        self.index = 0
        self.reducer = None

    def _enter_kw(self):
        self.reducer = KWReducer(self.palette, self.delta, self.color)
        if self.reducer.done:
            self._finish_with_color()

    def _finish_with_color(self):
        final = self.reducer.color if self.reducer else self.color
        self.finish(final + 1)

    def start(self):
        if self.steps:
            return Broadcast(("lc", self.color))
        # No Linial stage: KW round 1 happens at the first receive.
        self._enter_kw()
        return None

    def receive(self, inbox):
        if self.index < len(self.steps):
            q, d = self.steps[self.index]
            neighbour_colors = [
                p[1] for p in inbox.values() if p and p[0] == "lc"
            ]
            self.color = reduce_color(self.color, neighbour_colors, q, d)
            self.index += 1
            if self.index < len(self.steps):
                return Broadcast(("lc", self.color))
            self._enter_kw()
            return None
        messages = [
            (p[1], p[2]) for p in inbox.values() if p and p[0] == "kw"
        ]
        announce = self.reducer.step(messages)
        if self.reducer.done:
            self._finish_with_color()
        if announce is not None:
            return Broadcast(("kw",) + announce)
        return None


#: Batch-kernel safety bounds: a Linial step scans up to ``q`` point
#: columns of length ``n`` and the KW taken matrix is at most ``n × (Δ̃+1)``;
#: configurations beyond these fall back to the reference loop rather
#: than allocate absurd scratch.
_BATCH_Q_LIMIT = 2048
_BATCH_DELTA_LIMIT = 4096
#: Colors must fit comfortably in int64 for the vectorized KW phase
#: arithmetic; bigger initial colors only occur with an empty Linial
#: schedule under huge identity spaces.
_BATCH_COLOR_LIMIT = 1 << 62


class ColoringBatchKernel:
    """Whole-frontier Linial + Kuhn–Wattenhofer schedule as array steps.

    The entire round layout of :class:`FastColoringProcess` is a pure
    function of the guesses, and every node walks it in lockstep — so
    one loop, :meth:`run_fixedpoint`, replaces n per-node stage
    pointers and each stage is a handful of numpy operations over the
    CSR slab:

    * rounds ``1..L`` — Linial reductions: rivals are the slots whose
      endpoints' reduced colors differ (one int64 compare per slot),
      then the scan walks the points of ``F_q`` in order and
      cover-checks each still-searching node against its rivals.
      Column ``x = 0`` is every node's lowest digit; a later column is
      one Horner pass over the digits of the live rows only — the
      nodes still searching and their remaining rivals — and the scan
      usually ends at ``x ≈ 0``;
    * rounds ``L+1..L+K`` — KW halving, one :meth:`_kw_phase` per
      phase: the phase sorts its nodes by rank once and builds one
      slot plan holding only the CSR slots it reads, sorted by their
      owner's rank, so a rank's announcers and their slots are two
      slices, and it visits only the non-empty ranks.  Chosen values
      are per-row first-free scans over at most ``2·max_degree + 1``
      columns; an announcement is absorbed only where it can still be
      read — by same-group neighbours of higher rank, or, from the
      phase's last rank, by the next phase's ``taken`` rows under the
      same group test the scalar machine applies.  Every node
      announces once per phase, so a phase is charged once.

    Once a phase starts with no carried announcement, with every color
    in ``[0, Δ̃]`` (one group, no announcer at the last rank), and hands
    its colors back unchanged — :meth:`_repeats` checks this in one pass
    before the phase would run — every later phase repeats it exactly:
    that phase and the rest of the schedule are settled by arithmetic
    (DESIGN.md D37).

    Identities can exceed 64 bits on derived graphs, so the *first*
    reduction runs in Python big-int arithmetic when the color space
    demands it; every later palette is tiny.  Bit-identity with the
    reference loop is asserted by the equivalence suite.
    """

    __slots__ = (
        "bg",
        "delta",
        "steps",
        "kw_phases",
        "L",
        "width",
        "colors_obj",
        "colors",
        "rank",
        "done",
        "_undone",
    )

    def __init__(self, bg, setup, steps, palette, delta):
        self.bg = bg
        self.delta = delta
        self.steps = steps
        self.kw_phases = kw_schedule(palette, delta)
        self.L = len(steps)
        # A row's taken set holds at most one carried value plus one
        # in-phase value per neighbour, so its first free value is below
        # 2·max_degree + 1 and the KW columns past that are never read.
        self.width = min(delta + 1, 2 * int(bg.degrees.max(initial=0)) + 1)
        # 1-based initial colors: an input "color", else the identity.
        inputs = setup.inputs
        seeds = bg.idents
        if any(isinstance(v, dict) and "color" in v for v in inputs.values()):
            seeds = [
                int(value["color"])
                if isinstance(value, dict) and "color" in value
                else ident
                for value, ident in zip(map(inputs.get, bg.labels), seeds)
            ]
        if not seeds or (1 <= min(seeds) and max(seeds) <= _BATCH_COLOR_LIMIT):
            # Machine-word color space: keep the whole schedule in int64
            # arrays.
            self.colors = np.asarray(seeds, dtype=np.int64) - 1
            self.colors_obj = None
        else:
            # Big-integer identities: peel the first reduction with
            # Python ints (the factory guarantees a Linial stage).
            self.colors = None
            self.colors_obj = [c - 1 for c in seeds]
        self.done = False
        self._undone = None

    def undone_indices(self):
        # The schedule is lockstep: until it completes, every node runs
        # (a cap inside the MIS sweep sets the list to the nodes left).
        undone = self._undone
        if undone is None:
            undone = self._undone = list(range(self.bg.n))
        return undone

    def run_fixedpoint(self, cap):
        """The kernel's one stepping loop (D37): at most ``cap`` rounds.

        Returns ``(events, rounds, messages)`` for the driver to settle.
        The coloring stages end at round ``L + K``; :meth:`_tail` then
        commits the colors (or, in the MIS subclass, sweeps them).
        """
        events = []
        end, messages = self._color(cap)
        if end is None:
            return events, cap, messages
        rounds, sent = self._tail(end, cap, events)
        return events, rounds, messages + sent

    def _color(self, cap):
        """Linial then KW within ``cap`` rounds; returns ``(end,
        messages)``, ``end`` the round the schedule completes or
        ``None`` when the cap cuts it."""
        charge = self.bg.charge
        messages = 0
        if self.steps:
            messages = charge()  # round 0 broadcasts the initial colors
            for r, (q, d) in enumerate(self.steps, 1):
                if r > cap:
                    return None, messages
                self._linial_step(q, d)
                if r < self.L:
                    messages += charge()
        group_size = 2 * (self.delta + 1)
        end = self.L
        carry = None
        fixed = False
        for _ in self.kw_phases:
            limit = min(group_size, cap - end)
            if limit <= 0:
                return None, messages
            if not fixed:
                fixed = carry is None and self._repeats()
                if fixed:
                    # One group: a node's rank is its color, and every
                    # later phase is this one again.
                    self.rank = self.colors
                else:
                    carry = self._kw_phase(carry, limit)
            if limit < group_size:
                return None, messages + charge(self.rank < limit)
            messages += charge()
            end += group_size
        return end, messages

    def _tail(self, end, cap, events):
        """Schedule complete at round ``end``: commit final colors
        (1-based).  Returns ``(rounds, messages)``."""
        self.done = True
        events.append((end, np.arange(self.bg.n), self.colors + 1))
        return end, 0

    def _linial_step(self, q, d):
        bg = self.bg
        n = bg.n
        space = q ** (d + 1)
        if self.colors is not None:
            # Machine-word colors: when the evaluation space exceeds the
            # color range the modulo is the identity.
            reduced = self.colors % space if space < _BATCH_COLOR_LIMIT else self.colors
        elif space < _BATCH_COLOR_LIMIT:
            # First reduction of a huge identity space whose reduced
            # space fits machine words.
            reduced = np.asarray(
                [c % space for c in self.colors_obj], dtype=np.int64
            )
        else:
            reduced = None
        owner, neigh, degrees = bg.owner, bg.neigh, bg.degrees
        if reduced is not None:
            # Rivals: neighbours with a different reduced color, one
            # int64 compare per slot.
            rival = np.repeat(reduced, degrees) != reduced[neigh]
            low = reduced % q

            def digits_of(rows):
                value = reduced[rows]
                digits = np.empty((len(rows), d + 1), dtype=np.int32)
                for j in range(d + 1):
                    digits[:, j] = value % q
                    value = value // q
                return digits
        else:
            # Even the reduced space overflows: peel digits with Python
            # big ints, then stay in machine words forever after.
            digits = np.empty((n, d + 1), dtype=np.int32)
            for i, c in enumerate(self.colors_obj):
                value = c % space
                for j in range(d + 1):
                    digits[i, j] = value % q
                    value //= q
            # Digit rows uniquely encode values below the space, so
            # comparing them is comparing the reduced colors.
            rival = (np.repeat(digits, degrees, axis=0) != digits[neigh]).any(1)
            low = digits[:, 0]

            def digits_of(rows):
                return digits[rows]

        # First-free-point scan, one evaluation column at a time with
        # early exit: a random-like collision pattern frees almost every
        # node at x = 0, so the expected work is O(edges), not O(edges·q)
        # — mirroring the scalar machine's first-hit loop.  Column 0 is
        # p_u(0), the lowest digit, so every node starts at color p_u(0)
        # (also the scalar fallback when every point is covered).
        new_colors = low.astype(np.int64)
        hit = rival & (np.repeat(low, degrees) == low[neigh])
        searching = batch.row_flags(owner[hit], n)
        keep = rival & np.repeat(searching, degrees)
        own, nb = owner[keep], neigh[keep]
        # A later column is one Horner pass over the digits of the
        # *live* rows only: the nodes still searching and their
        # remaining rivals (values < q ≤ 2048, so int32 holds the
        # intermediates).  Row r is node live[r]; the rows are re-packed
        # only when those a later column can read fall below half.
        live = np.arange(n)
        rows = n
        table = None  # digits_of(live), built when column 1 is reached
        settled = True
        for x in range(1, q):
            if settled:
                left = np.count_nonzero(searching)
                if not left:
                    break
                if left + len(nb) < rows:
                    mark = searching.copy()
                    mark[nb] = True
                    kept = np.flatnonzero(mark)
                    if 2 * len(kept) <= rows:
                        at = np.empty(rows, dtype=np.int64)
                        at[kept] = np.arange(len(kept))
                        own, nb = at[own], at[nb]
                        searching = searching[kept]
                        live = live[kept]
                        table = None if table is None else table[kept]
                        rows = len(kept)
            if table is None:
                table = digits_of(live)
            col = table[:, d]
            for j in range(d - 1, -1, -1):
                col = (col * x + table[:, j]) % q
            covered = batch.row_flags(own[col[nb] == col[own]], rows)
            idx = np.flatnonzero(searching & ~covered)
            settled = len(idx) > 0
            if settled:
                new_colors[live[idx]] = np.int64(x) * q + col[idx]
                searching &= covered
                keep = searching[own]
                own, nb = own[keep], nb[keep]
        # Reduced colors always fit machine words (< q² + q), so even a
        # big-integer start promotes to the int64 array after one step.
        self.colors = new_colors
        self.colors_obj = None

    def _repeats(self):
        """Whether a phase entered with these colors and no carried
        announcement hands them back unchanged.

        With every color in ``[0, Δ̃]`` the phase has one group and a
        node's rank is its color, so if no node below a node's rank
        recolors, the node picks the first value missing among its
        lower-colored neighbours' colors.  Every node picking its own
        color is then the phase's output, by induction over the ranks —
        one pass over the CSR checks it.  The next phase starts from the
        same colors with no carry (no node sits in the last rank), so
        every later phase repeats this one.
        """
        bg = self.bg
        colors = self.colors
        width = self.width
        if colors.max(initial=0) >= width:
            # A color the first-free scan cannot pick changes (colors
            # are never negative: the factory sees to it).
            return False
        below = np.zeros((bg.n, width), dtype=bool)
        own, nb = colors[bg.owner], colors[bg.neigh]
        lower = nb < own
        below[bg.owner[lower], nb[lower]] = True
        return np.array_equal(below.argmin(axis=1), colors)

    def _kw_phase(self, carry, limit):
        """Ranks ``0..limit-1`` of one KW phase; returns its ``carry``.

        ``carry`` holds the previous phase's last-rank announcements as
        ``(sender, receiver, value, sender groups)`` per slot: they
        arrive in this phase's first round, and a receiver takes the
        value when its new group is the one it was announced under.
        The returned one is this phase's (``None`` when its last rank
        is empty or was not reached).  Colors change only at its end.
        """
        bg = self.bg
        delta = self.delta
        width = self.width
        group_size = 2 * (delta + 1)
        colors = self.colors
        group = colors // group_size
        # Ranks are below 2·_BATCH_DELTA_LIMIT, so the stable sorts run
        # on uint16 keys (a radix sort).  Rank r announces
        # order[bounds[r]:bounds[r + 1]] through the slots
        # src/dst[slots[r]:slots[r + 1]]: only those the phase reads,
        # toward a same-group neighbour of higher rank (colors[w] in
        # (colors[v], top of v's group]) and the last rank's, carried.
        rank = self.rank = (colors % group_size).astype(np.uint16)
        order = np.argsort(rank, kind="stable")
        bounds = np.searchsorted(rank[order], np.arange(group_size + 1))
        own = np.repeat(colors, bg.degrees)
        top = np.repeat((group + 1) * group_size - 1, bg.degrees)
        seen = colors[bg.neigh]
        plan = np.flatnonzero(((seen > own) & (seen <= top)) | (own == top))
        plan = plan[np.argsort(rank[bg.owner[plan]], kind="stable")]
        src, dst = bg.owner[plan], bg.neigh[plan]
        slots = np.searchsorted(rank[src], np.arange(group_size + 1)).tolist()
        rank_bounds = bounds.tolist()
        taken = np.zeros((bg.n, width), dtype=bool)
        flat = taken.reshape(-1)
        if carry is not None:
            sender, receiver, value, sent_group = carry
            hit = group[receiver] == sent_group[sender]
            flat[receiver[hit] * width + value[hit]] = True
        carry = None
        chosen = np.zeros(bg.n, dtype=np.int64)
        for r in np.flatnonzero(np.diff(bounds[: limit + 1])).tolist():
            rows = order[rank_bounds[r]:rank_bounds[r + 1]]
            # First free value; a row with every value taken picks 0
            # (bad guesses: garbage, the pruner's job).
            chosen[rows] = taken[rows].argmin(axis=1)
            a, b = slots[r], slots[r + 1]
            sent = chosen[src[a:b]]
            if r == group_size - 1:
                carry = src[a:b], dst[a:b], sent, group
            else:
                # The phase's taken rows are dropped at its end.
                flat[dst[a:b] * width + sent] = True
        np.copyto(colors, group * (delta + 1) + chosen, where=rank < limit)
        return carry


def _coloring_batch_factory(kernel_cls=ColoringBatchKernel):
    """Eligibility-checked factory shared by the coloring/MIS kernels."""

    def factory(bg, setup):
        delta = max(0, int(setup.guesses["Delta"]))
        steps, palette = linial_schedule(setup.guesses["m"], delta)
        if delta + 1 > _BATCH_DELTA_LIMIT:
            return None
        if any(q > _BATCH_Q_LIMIT for q, _ in steps):
            return None
        if not steps:
            # Without a Linial stage the colors feed the KW arithmetic
            # unreduced: decline when the identity/input space cannot
            # live in int64, or an input color is below 1 (the run falls
            # back to the reference loop, which is always exact).
            for label, ident in zip(bg.labels, bg.idents):
                value = setup.inputs.get(label)
                color = (
                    int(value["color"])
                    if isinstance(value, dict) and "color" in value
                    else ident
                )
                if not 1 <= color < _BATCH_COLOR_LIMIT:
                    return None
        return kernel_cls(bg, setup, steps, palette, delta)

    return factory


def fast_coloring():
    """The non-uniform (Δ̃+1)-coloring algorithm (requires m̃, Δ̃)."""
    return LocalAlgorithm(
        name="fast-coloring",
        process=FastColoringProcess,
        requires=("m", "Delta"),
        batch=_coloring_batch_factory(),
        fuse=True,
    )


def fast_coloring_rounds(m_guess, delta_guess):
    """Exact round count of the schedule for given guesses."""
    steps, palette = linial_schedule(m_guess, delta_guess)
    return len(steps) + kw_total_rounds(palette, max(0, delta_guess))


def _kw_atom_value(delta):
    delta = max(0, int(delta))
    return kw_total_rounds(linial_fixpoint_palette(delta), delta) + 2


def fast_coloring_bound():
    """Declared bound ``O(Δ̃ log Δ̃) + O(log* m̃)`` (additive, s_f = 1).

    The Δ atom is the exact worst-case KW cost from the fixpoint
    palette; the m atom doubles the calibrated Linial-schedule length.
    """
    return AdditiveBound(
        [
            custom("Delta", _kw_atom_value, "kw-rounds(Delta)"),
            custom(
                "m",
                lambda m: 2 * linial_steps_upper(m),
                "2*(logstar m + 4)",
            ),
        ],
        constant=2,
        label="fast-coloring rounds",
    )


def fast_coloring_nonuniform():
    """Theorem 1 input for the (Δ+1)-coloring rows."""
    return NonUniform(
        fast_coloring(),
        fast_coloring_bound(),
        kind="deterministic",
        default_output=0,
        name="fast-coloring",
    )
