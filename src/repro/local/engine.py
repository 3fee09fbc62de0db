"""Compiled execution core: CSR graph engine and the batch-kernel entry.

This module is the ``backend="compiled"`` implementation of
:func:`repro.local.runner.run`.  It executes the same synchronous LOCAL
semantics as the reference loop (which survives as
``backend="reference"`` and doubles as the executable specification):
a run whose algorithm registers a batch kernel is driven round-fused by
:func:`repro.local.batch.drive_kernel`; every other run — no kernel,
``track_bits``, or a factory that declines — is handed back to the
reference loop (DESIGN.md D33), so the reference loop is the one
per-node interpreter.  numpy is a required dependency (DESIGN.md D39).
Both draw the one counter random scheme of :mod:`repro.local.context`
(DESIGN.md D36).

CSR layout
----------
A :class:`CompiledGraph` flattens a :class:`~repro.local.graph.SimGraph`
into integer-indexed int64 arrays, once: it *is* the graph's
:class:`~repro.local.batch.BatchGraph`, so the kernels, the verifiers
and the derived graphs read the same arrays (DESIGN.md D43).  Nodes are
numbered ``0 .. n-1`` in identity order (the order of
``SimGraph.nodes``), and edges live in one flat slab:

* ``offsets`` — ``n+1`` row pointers; node ``i``'s edge slots are
  ``offsets[i] .. offsets[i+1]``;
* ``neigh`` — flat neighbour *indices*, port order within each row;
* ``owner`` — the row of every slot;
* ``rev`` — parallel reverse-port array: ``rev[k]`` is the sender's port
  in the receiver's own numbering, i.e. exactly where a payload sent
  through slot ``k`` lands in the receiver's inbox;
* ``degrees`` — per-index degree;
* ``idents`` / ``labels`` — per-index identity (a Python list, since
  derived identities may exceed 64 bits) and label; ``index`` maps
  labels back to indices.

Incremental restriction
-----------------------
:meth:`CompiledGraph.restrict` produces the induced subgraph of the
survivors in one numpy pass over the parent's arrays: survivor order is
inherited (identity order is preserved by restriction, so nothing
re-sorts) and ports renumber through a cumulative count of the kept
slots.  The child ``SimGraph`` is created with its ``CompiledGraph``
already attached, so an alternation ``B_i = (A_i ; P)`` never
recompiles surviving structure.  A parent that has its line graph hands
the child its keep mask, from which the child's line graph is derived
instead of built (:func:`repro.graphs.line_graph_spec`, DESIGN.md D42).

Backend selection
-----------------
``run(graph, algo)`` defaults to this engine; pass
``backend="reference"`` for the specification loop, or pin it for a
scope with :func:`repro.local.execution.use_backend`.  See DESIGN.md for
the equivalence contract between the two backends.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .batch import BatchGraph, drive_kernel, make_engine_kernel, settle


class CompiledGraph(BatchGraph):
    """CSR (compressed sparse row) view of a :class:`SimGraph`.

    It is the graph's :class:`~repro.local.batch.BatchGraph` itself, so
    kernels, verifiers and derived graphs read one set of int64 arrays
    (DESIGN.md D43).
    """

    __slots__ = (
        "graph",
        "index",
        # L(G), memoised by repro.graphs.transforms.line_graph_spec, and
        # (parent's L(G), keep mask, slot count) until it is derived
        # from the parent's (DESIGN.md D42).
        "_line",
        "_line_from",
        # Weak-referenceable so the fused engine's slab cache (D16) can
        # evict block-diagonal slabs when a member graph is collected.
        "__weakref__",
    )

    def __init__(self, graph):
        """The CSR of a dict-born ``graph``: ``adj`` flattened in its
        own node and port order."""
        labels = graph.nodes
        index = {u: i for i, u in enumerate(labels)}
        adj = graph.adj
        rows = [adj[u] for u in labels]
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=offsets[1:], dtype=np.int64)
        ident = graph.ident
        self._fill(
            graph,
            index,
            [ident[u] for u in labels],
            offsets,
            [index[v] for row in rows for _, v, _ in row],
            [port for row in rows for _, _, port in row],
        )

    def _fill(self, graph, index, idents, offsets, neigh, rev):
        BatchGraph.__init__(
            self, graph.nodes, idents, offsets, neigh,
            np.asarray(rev, dtype=np.int64),
        )
        self.graph = graph
        self.index = index
        self._line = self._line_from = None

    def slot_of(self, rows, neighbours):
        """The slot of every edge ``rows[i] -> neighbours[i]`` (each must
        exist).  Rows ascend by neighbour, so the keys ``owner * n +
        neigh`` ascend over the slab and one search finds them all."""
        n = self.n
        keys = self.owner * n + self.neigh
        return np.searchsorted(keys, rows * n + neighbours)

    @classmethod
    def _attach(cls, graph, index, idents, offsets, neigh, rev):
        """Attach a ready-made CSR to a CSR-born ``graph`` and return it.

        ``offsets``, ``neigh`` and ``rev`` are int64 arrays (or anything
        that converts to them) and are kept without a copy.  ``index``
        and ``idents`` may be the parent's own objects when the node set
        is unchanged: like ``labels`` they are immutable by contract, so
        sharing them is safe.
        """
        cg = cls.__new__(cls)
        cg._fill(graph, index, idents, offsets, neigh, rev)
        graph._compiled = cg
        return cg

    def restrict(self, keep_set):
        """Induced ``SimGraph`` on ``keep_set`` with an attached CSR.

        One numpy pass, O(n + m) in C (:meth:`BatchGraph.induced
        <repro.local.batch.BatchGraph.induced>`); index order is
        identity order, so nothing re-sorts.  A port is a kept slot's
        new position minus its row's start, and the reverse port is the
        port of the twin slot ``offsets[v] + rev[k]``.  The child takes
        the induced arrays as they are.  When this graph has its line
        graph, the child is handed the keep mask and the slot count to
        derive its own from it (DESIGN.md D42).
        """
        from .graph import SimGraph

        alive = np.zeros(self.n, dtype=bool)
        alive[[self.index[u] for u in keep_set]] = True
        survivors, count, slots, offsets, neigh = self.induced(alive)
        twin = self.offsets[self.neigh[slots]] + self.rev[slots]
        rows = survivors.tolist()
        labels = tuple([self.labels[i] for i in rows])
        idents = [self.idents[i] for i in rows]
        # The dict adjacency view is derived lazily by SimGraph.adj from
        # the attached CSR — instances that only ever run compiled (or
        # get pruned away) never build it.
        child = SimGraph._from_csr(labels, dict(zip(labels, idents)))
        cg = CompiledGraph._attach(
            child,
            dict(zip(labels, range(len(rows)))),
            idents,
            offsets,
            neigh,
            count[twin] - offsets[neigh],
        )
        if self._line is not None:
            cg._line_from = (self._line, alive, count)
        return child

    def apply_delta(self, delta):
        """Row-splice application of a validated :class:`GraphDelta`.

        The insert/delete analogue of :meth:`restrict` (DESIGN.md D18,
        D27, D43).  A row is *touched* when it is an endpoint of an added
        or deleted edge, a neighbour of a deleted node, or an added node;
        touched rows are rebuilt from small ``tolist()`` slices by a
        sorted merge.  Every maximal run of untouched rows between two
        events (a touched, deleted or added row) is copied as array
        slices of ``neigh``, ``rev`` and ``degrees`` — ``neigh`` remapped
        through ``new_of`` only when the node set changes.  Reverse
        ports are recomputed only for the slots of rebuilt rows and
        their twins, by one ``searchsorted`` over the row-major slot
        keys: a slot between two untouched rows keeps its ``rev``,
        because a monotone index remap preserves ranks.

        Python-level work is O(churn · log Δ) for an edge-only delta, on
        top of O(n + m) array copies; node churn adds a fresh label
        index.  When the node set is unchanged the child shares
        ``labels``, ``index``, ``idents``, ``ident``, the node set and
        the identity mix with the parent (immutable by contract).

        The caller (:meth:`SimGraph.apply_delta <repro.local.graph.
        SimGraph.apply_delta>`) has already validated ``delta``; rows
        here trust it (an unvalidated duplicate insert would silently
        corrupt port ranks, which is why validation is mandatory and
        eager).
        """
        from .graph import SimGraph

        graph = self.graph
        index = self.index
        offsets, neigh, rev = self.offsets, self.neigh, self.rev
        labels, idents, n = self.labels, self.idents, self.n

        def row(i):
            lo, hi = offsets[i:i + 2].tolist()
            return neigh[lo:hi].tolist()

        dead = {index[u] for u in delta.del_nodes}
        # Old-index pairs of deleted edges, both directions, and the
        # surviving old rows whose contents change.
        dropped = set()
        touched = set()
        for u, v in delta.del_edges:
            iu, iv = index[u], index[v]
            dropped.add((iu, iv))
            dropped.add((iv, iu))
            touched.add(iu)
            touched.add(iv)
        for i in dead:
            touched.update(row(i))
        for edge in delta.add_edges:
            for u in edge:
                i = index.get(u)
                if i is not None:
                    touched.add(i)
        touched -= dead

        # Events in old-row order: an added node (kind 0) slots in before
        # the first old row of larger identity; deleted rows (1) vanish;
        # touched rows (2) are rebuilt; the end sentinel (3) flushes the
        # last untouched run.  Added nodes at one position sort by
        # identity, so labels are never compared.
        events = sorted(
            [(bisect_left(idents, ident), 0, ident, u)
             for u, ident in delta.add_nodes]
            + [(i, 1, 0, None) for i in dead]
            + [(i, 2, 0, None) for i in touched]
        )
        events.append((n, 3, 0, None))

        if delta.del_nodes or delta.add_nodes:
            # The node set changes: splice labels and identities, and
            # map old row i to new row new_of[i], shifted by the added
            # rows before it and the deleted rows above it (a deleted
            # row's own entry is never read).
            new_labels, new_idents = [], []
            shift = np.zeros(n + 1, dtype=np.int64)
            prev = 0
            for pos, kind, ident, u in events:
                if kind == 2:
                    continue
                if pos > prev:
                    new_labels += labels[prev:pos]
                    new_idents += idents[prev:pos]
                    prev = pos
                if kind == 0:
                    new_labels.append(u)
                    new_idents.append(ident)
                    shift[pos] += 1
                elif kind == 1:
                    shift[pos + 1] -= 1
                    prev = pos + 1
            new_of = np.arange(n) + np.cumsum(shift[:n])
            new_labels = tuple(new_labels)
            new_index = dict(zip(new_labels, range(len(new_labels))))
            new_ident = dict(graph.ident)
            for u in delta.del_nodes:
                del new_ident[u]
            new_ident.update(delta.add_nodes)
            node_set = graph._node_set.difference(delta.del_nodes).union(
                u for u, _ in delta.add_nodes
            )
        else:
            new_labels, new_idents, new_of = labels, idents, None
            new_index, new_ident, node_set = index, graph.ident, graph._node_set

        inserts = {}
        for u, v in delta.add_edges:
            ju, jv = new_index[u], new_index[v]
            inserts.setdefault(ju, []).append(jv)
            inserts.setdefault(jv, []).append(ju)

        runs = []  # (new row, old row lo, old row hi) per copied run
        rebuilt = {}  # new row -> its neighbours, ascending
        j = prev = 0
        for pos, kind, _, _ in events:
            if pos > prev:
                runs.append((j, prev, pos))
                j += pos - prev
                prev = pos
            if kind == 3:
                break
            if kind == 1:
                prev = pos + 1
                continue
            merged = inserts.get(j, [])
            if kind == 2:
                kept = [
                    w for w in row(pos)
                    if w not in dead and (pos, w) not in dropped
                ]
                if new_of is not None:
                    kept = new_of[kept].tolist()
                merged = kept + merged
                prev = pos + 1
            # The kept slice already ascends (new_of is monotone on
            # survivors), so this sort is a near-linear merge.
            merged.sort()
            rebuilt[j] = merged
            j += 1

        degrees = np.empty(j, dtype=np.int64)
        for at, a, b in runs:
            degrees[at:at + b - a] = self.degrees[a:b]
        rows = np.fromiter(rebuilt, dtype=np.int64, count=len(rebuilt))
        degrees[rows] = [len(merged) for merged in rebuilt.values()]
        new_offsets = np.zeros(j + 1, dtype=np.int64)
        np.cumsum(degrees, out=new_offsets[1:])
        new_neigh = np.empty(new_offsets[-1], dtype=np.int64)
        new_rev = np.empty_like(new_neigh)
        source = neigh if new_of is None else new_of[neigh]
        for at, a, b in runs:
            lo, hi = offsets[a], offsets[b]
            start = new_offsets[at]
            new_neigh[start:start + hi - lo] = source[lo:hi]
            new_rev[start:start + hi - lo] = rev[lo:hi]
        # Every slot k of the rebuilt rows, with its row.
        lens = degrees[rows]
        owner = np.repeat(rows, lens)
        k = np.arange(len(owner)) + np.repeat(
            new_offsets[rows] - (np.cumsum(lens) - lens), lens
        )
        new_neigh[k] = [w for merged in rebuilt.values() for w in merged]

        child = SimGraph._from_csr(new_labels, new_ident, node_set)
        cg = CompiledGraph._attach(
            child, new_index, new_idents, new_offsets, new_neigh, new_rev
        )
        # Slot k (row j -> v) and its twin (row v -> j) each take the
        # other's port as their reverse port.
        v = new_neigh[k]
        twin = cg.slot_of(v, owner)
        new_rev[k] = twin - new_offsets[v]
        new_rev[twin] = k - new_offsets[owner]
        if new_of is None:
            cg._mix = self._mix
        return child


def run_compiled(
    graph,
    algorithm,
    *,
    inputs,
    guesses,
    seed,
    salt,
    cap,
    truncating,
    default_output,
    track_bits,
    result_cls,
):
    """Drive the run's batch kernel, or return ``None`` when none runs.

    Arguments arrive pre-validated from :func:`repro.local.runner.run`.
    When the algorithm registers a batch kernel and the run is eligible
    (see :func:`repro.local.batch.make_engine_kernel`), the kernel's
    whole schedule runs in one :func:`repro.local.batch.drive_kernel`
    call and the returned ``result_cls`` instance is field-for-field
    identical to what the reference loop produces.  ``None`` tells the
    caller to run the reference loop instead (D33).
    """
    from .runner import note_stepping

    cg = graph.compiled()
    kernel = make_engine_kernel(
        algorithm,
        cg,
        inputs=inputs,
        guesses=guesses,
        seed=seed,
        salt=salt,
        track_bits=track_bits,
    )
    if kernel is None:
        return None
    note_stepping("rf")
    return settle(
        drive_kernel(kernel, cap),
        kernel,
        cg.labels,
        algorithm,
        cap=cap,
        truncating=truncating,
        default_output=default_output,
        result_cls=result_cls,
    )
