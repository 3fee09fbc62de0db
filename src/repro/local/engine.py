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
into integer-indexed arrays.  Nodes are numbered ``0 .. n-1`` in
identity order (the order of ``SimGraph.nodes``), and edges live in one
flat slab:

* ``offsets`` — ``n+1`` row pointers; node ``i``'s edge slots are
  ``offsets[i] .. offsets[i+1]``;
* ``neigh`` — flat neighbour *indices*, port order within each row;
* ``rev`` — parallel reverse-port array: ``rev[k]`` is the sender's port
  in the receiver's own numbering, i.e. exactly where a payload sent
  through slot ``k`` lands in the receiver's inbox;
* ``idents`` / ``labels`` / ``degrees`` — per-index identity, label and
  degree; ``index`` maps labels back to indices.

Incremental restriction
-----------------------
:meth:`CompiledGraph.restrict` produces the induced subgraph of the
survivors in one numpy pass over the parent's mirror: survivor order is
inherited (identity order is preserved by restriction, so nothing
re-sorts) and ports renumber through a cumulative count of the kept
slots.  The child ``SimGraph`` is created with its ``CompiledGraph`` and
mirror already attached, so an alternation ``B_i = (A_i ; P)`` never
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
from itertools import accumulate

import numpy as np

from .batch import (
    BatchGraph,
    batch_graph_of,
    drive_kernel,
    make_engine_kernel,
    rev_of,
    settle,
    splice_batch_graph,
)


class CompiledGraph:
    """CSR (compressed sparse row) view of a :class:`SimGraph`."""

    __slots__ = (
        "graph",
        "n",
        "labels",
        "index",
        "idents",
        "degrees",
        "offsets",
        "neigh",
        "rev",
        "_batch",
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
        self.graph = graph
        labels = graph.nodes
        self.labels = labels
        self.n = len(labels)
        index = {u: i for i, u in enumerate(labels)}
        self.index = index
        ident = graph.ident
        self.idents = [ident[u] for u in labels]
        offsets = [0]
        neigh = []
        rev = []
        adj = graph.adj
        for u in labels:
            for _, v, reverse_port in adj[u]:
                neigh.append(index[v])
                rev.append(reverse_port)
            offsets.append(len(neigh))
        self.offsets = offsets
        self.neigh = neigh
        self.rev = rev
        self.degrees = [
            offsets[i + 1] - offsets[i] for i in range(self.n)
        ]
        #: Lazily built numpy mirror (repro.local.batch.BatchGraph).
        self._batch = None
        self._line = self._line_from = None

    @classmethod
    def _attach(cls, graph, index, idents, offsets, neigh, rev, degrees):
        """Attach a ready-made CSR to a CSR-born ``graph`` and return it.

        ``index`` and ``idents`` may be the parent's own objects when the
        node set is unchanged: like ``labels`` they are immutable by
        contract, so sharing them is safe.
        """
        cg = cls.__new__(cls)
        cg.graph = graph
        cg.labels = graph.nodes
        cg.n = len(graph.nodes)
        cg.index = index
        cg.idents = idents
        cg.offsets = offsets
        cg.neigh = neigh
        cg.rev = rev
        cg.degrees = degrees
        cg._batch = None
        cg._line = cg._line_from = None
        graph._compiled = cg
        return cg

    def restrict(self, keep_set):
        """Induced ``SimGraph`` on ``keep_set`` with an attached CSR.

        One numpy pass over this graph's mirror, O(n + m) in C
        (:meth:`BatchGraph.induced <repro.local.batch.BatchGraph.
        induced>`); index order is identity order, so nothing re-sorts.
        A port is a kept slot's new position minus its row's start, and
        the reverse port is the port of the twin slot
        ``offsets[v] + rev[k]``.  The child's lists come by ``tolist()``
        and its mirror, reverse ports included, from the same arrays.
        When this graph has its line graph, the child is handed the keep
        mask and the slot count to derive its own from it (DESIGN.md
        D42).
        """
        from .graph import SimGraph

        bg = batch_graph_of(self)
        alive = np.zeros(self.n, dtype=bool)
        alive[[self.index[u] for u in keep_set]] = True
        survivors, count, slots, new_offsets, new_neigh = bg.induced(alive)
        twin = bg.offsets[bg.neigh[slots]] + rev_of(self)[slots]
        new_rev = count[twin] - new_offsets[new_neigh]
        labels, idents = self.labels, self.idents
        rows = survivors.tolist()
        new_labels = tuple([labels[i] for i in rows])
        new_idents = [idents[i] for i in rows]
        # The dict adjacency view is derived lazily by SimGraph.adj from
        # the attached CSR — instances that only ever run compiled (or
        # get pruned away) never build it.
        child = SimGraph._from_csr(new_labels, dict(zip(new_labels, new_idents)))
        cg = CompiledGraph._attach(
            child,
            dict(zip(new_labels, range(len(rows)))),
            new_idents,
            new_offsets.tolist(),
            new_neigh.tolist(),
            new_rev.tolist(),
            np.diff(new_offsets).tolist(),
        )
        cg._batch = BatchGraph(
            new_labels, new_idents, new_offsets, new_neigh, new_rev
        )
        if self._line is not None:
            cg._line_from = (self._line, alive, count)
        return child

    def apply_delta(self, delta):
        """Row-splice application of a validated :class:`GraphDelta`.

        The insert/delete analogue of :meth:`restrict` (DESIGN.md D18,
        D27).  A row is *touched* when it is an endpoint of an added or
        deleted edge, a neighbour of a deleted node, or an added node;
        touched rows are rebuilt by a sorted merge.  Every maximal run of
        untouched rows between two events (a touched, deleted or added
        row) is copied as C-level slices of ``neigh``, ``rev`` and
        ``degrees`` — remapped through ``new_of`` only when the node set
        changes — and ``offsets`` re-accumulate from the spliced degrees
        in one C-level pass.  Reverse ports are recomputed only for slots
        that point into a rebuilt row: a slot between two untouched rows
        keeps its ``rev``, because a monotone index remap preserves ranks.

        Python-level work is O(churn · log Δ) for an edge-only delta, on
        top of the C-level slab copies; node churn adds the O(n + m)
        remap and a fresh label index.  When the node set is unchanged
        the child shares ``labels``, ``index``, ``idents``, ``ident`` and
        the node set with the parent (immutable by contract), and a
        parent that already has its numpy mirror hands the child one
        spliced from it (:func:`repro.local.batch.splice_batch_graph`).

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
        labels, idents, degrees = self.labels, self.idents, self.degrees
        n = self.n

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
            touched.update(neigh[offsets[i]:offsets[i + 1]])
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
            # map old row i to new row new_of[i] (-1 when deleted).
            new_labels, new_idents, new_of = [], [], []
            prev = 0
            for pos, kind, ident, u in events:
                if kind == 2:
                    continue
                if pos > prev:
                    base = len(new_labels)
                    new_labels += labels[prev:pos]
                    new_idents += idents[prev:pos]
                    new_of += range(base, base + pos - prev)
                    prev = pos
                if kind == 0:
                    new_labels.append(u)
                    new_idents.append(ident)
                elif kind == 1:
                    new_of.append(-1)
                    prev = pos + 1
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

        new_neigh = []
        new_rev = []
        new_degrees = []
        runs = []  # (new row, old row lo, old row hi) per copied run
        rebuilt = []  # new rows built by merge
        prev = 0
        for pos, kind, _, _ in events:
            if pos > prev:
                lo, hi = offsets[prev], offsets[pos]
                seg = neigh[lo:hi]
                if new_of is not None:
                    seg = [new_of[w] for w in seg]
                runs.append((len(new_degrees), prev, pos))
                new_neigh += seg
                new_rev += rev[lo:hi]
                new_degrees += degrees[prev:pos]
                prev = pos
            if kind == 3:
                break
            if kind == 1:
                prev = pos + 1
                continue
            j = len(new_degrees)
            row = inserts.get(j, [])
            if kind == 2:
                kept = [
                    w for w in neigh[offsets[pos]:offsets[pos + 1]]
                    if w not in dead and (pos, w) not in dropped
                ]
                if new_of is not None:
                    kept = [new_of[w] for w in kept]
                row = kept + row
                prev = pos + 1
            # The kept slice already ascends (new_of is monotone on
            # survivors), so this sort is a near-linear merge.
            row.sort()
            rebuilt.append(j)
            new_neigh += row
            new_rev += [0] * len(row)
            new_degrees.append(len(row))
        new_offsets = list(accumulate(new_degrees, initial=0))

        # Reverse ports for every slot touching a rebuilt row j: the slot
        # j -> v at port p has rev r = rank of j in v's new row, and v's
        # slot r points back at port p.
        for j in rebuilt:
            lo, hi = new_offsets[j], new_offsets[j + 1]
            for k in range(lo, hi):
                v = new_neigh[k]
                vlo = new_offsets[v]
                r = bisect_left(new_neigh, j, vlo, new_offsets[v + 1]) - vlo
                new_rev[k] = r
                new_rev[vlo + r] = k - lo

        child = SimGraph._from_csr(new_labels, new_ident, node_set)
        cg = CompiledGraph._attach(
            child, new_index, new_idents, new_offsets, new_neigh, new_rev,
            new_degrees,
        )
        if self._batch is not None:
            cg._batch = splice_batch_graph(self._batch, cg, runs, rebuilt, new_of)
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
