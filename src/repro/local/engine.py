"""Compiled execution core: CSR graph engine and O(active) round loop.

This module is the ``backend="compiled"`` implementation of
:func:`repro.local.runner.run`.  It executes the same synchronous LOCAL
semantics as the reference loop (which survives as
``backend="reference"`` and doubles as the executable specification) but
is built for throughput:

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
  degree; ``index`` maps labels back to indices;
* ``pairs`` — per-row ``((neighbour_index, reverse_port), ...)`` tuples,
  a pre-zipped view of the slab that the inner loop iterates (CPython
  unpacks a pre-built tuple faster than it can index two arrays).

O(active) frontier invariant
----------------------------
The round loop touches only (a) nodes that are still running and (b)
inboxes that actually received a payload.  Inboxes are double-buffered
flat lists (``cur``/``nxt``) with an explicit touched-list per buffer;
after a round the consumed buffer is wiped by walking its touched list,
never by reallocating n dicts.  A round therefore costs
O(active + messages delivered) — independent of n once the frontier has
shrunk — where the reference loop pays an Θ(n) inbox reallocation every
round.

Message-size accounting (``track_bits``) is compiled into a separate
delivery path so the untracked hot path never tests the flag per
payload.

Incremental restriction
-----------------------
:meth:`CompiledGraph.restrict` produces the induced subgraph of the
survivors in O(Σ old-degree of survivors): survivor order is inherited
(identity order is preserved by restriction, so nothing re-sorts) and
reverse ports renumber through a rank scan over the slab.  The child
``SimGraph`` is created with its ``CompiledGraph`` already attached, so
an alternation ``B_i = (A_i ; P)`` never recompiles surviving structure.

Backend selection
-----------------
``run(graph, algo)`` defaults to this engine; pass
``backend="reference"`` for the specification loop, or pin it for a
scope with :func:`repro.local.execution.use_backend`.  See DESIGN.md for
the equivalence contract between the two backends.
"""

from __future__ import annotations

from ..errors import NonTerminationError
from .algorithm import LocalAlgorithm
from .batch import make_engine_kernel
from .context import NodeContext, rng_source
from .message import Broadcast, normalize_outgoing
from .msgsize import estimate_bits


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
        "_pairs",
        "_batch",
        # Weak-referenceable so the fused engine's slab cache (D16) can
        # evict block-diagonal slabs when a member graph is collected.
        "__weakref__",
    )

    def __init__(self, graph, _raw=None):
        self.graph = graph
        labels = graph.nodes
        self.labels = labels
        self.n = len(labels)
        index = {u: i for i, u in enumerate(labels)}
        self.index = index
        ident = graph.ident
        self.idents = [ident[u] for u in labels]
        if _raw is not None:
            offsets, neigh, rev = _raw
        else:
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
        self._pairs = None
        #: Lazily built numpy mirror (repro.local.batch.BatchGraph).
        self._batch = None

    @property
    def pairs(self):
        """Per-row pre-zipped ``((neighbour_index, reverse_port), ...)``.

        Built lazily: restriction-only children (alternation instances
        that get pruned before ever running) never pay for it.
        """
        rows = self._pairs
        if rows is None:
            offsets, neigh, rev = self.offsets, self.neigh, self.rev
            rows = self._pairs = [
                tuple(
                    zip(
                        neigh[offsets[i]:offsets[i + 1]],
                        rev[offsets[i]:offsets[i + 1]],
                    )
                )
                for i in range(self.n)
            ]
        return rows

    def restrict(self, keep_set):
        """Induced ``SimGraph`` on ``keep_set`` with an attached CSR.

        Python-level work is O(s log s + Σ old-degree of survivors) where
        ``s`` is the survivor count: no re-sorting of identities — index
        order already is identity order and restriction preserves it (the
        log factor is one integer sort of the survivor indices) — and
        reverse ports renumber via one rank scan over the survivor rows.
        The scratch buffers below (``mask``, ``new_of``, ``newport``) are
        sized by the parent, but their allocation is a C-level memset —
        orders of magnitude cheaper than one Python-level edge visit —
        chosen over survivor-keyed dicts because integer list indexing
        beats dict probing on the per-edge hot path.
        """
        from .graph import SimGraph

        index = self.index
        survivor_idx = sorted(index[u] for u in keep_set)
        offsets, neigh, rev = self.offsets, self.neigh, self.rev
        labels = self.labels
        n = self.n
        mask = bytearray(n)
        new_of = [-1] * n
        for j, i in enumerate(survivor_idx):
            mask[i] = 1
            new_of[i] = j
        # newport[k]: for edge slot k owned by a survivor, the slot's rank
        # among the owner's surviving neighbours (the owner's new port for
        # that slot); -1 when the slot's neighbour is pruned.
        newport = [-1] * len(neigh)
        for i in survivor_idx:
            count = 0
            for k in range(offsets[i], offsets[i + 1]):
                if mask[neigh[k]]:
                    newport[k] = count
                    count += 1
        new_offsets = [0]
        new_neigh = []
        new_rev = []
        for i in survivor_idx:
            for k in range(offsets[i], offsets[i + 1]):
                v = neigh[k]
                if mask[v]:
                    new_neigh.append(new_of[v])
                    # rev[k] is our port in v's old numbering; its rank in
                    # v's surviving row is our new reverse port.
                    new_rev.append(newport[offsets[v] + rev[k]])
            new_offsets.append(len(new_neigh))
        new_labels = [labels[i] for i in survivor_idx]
        ident = self.graph.ident
        new_ident = {u: ident[u] for u in new_labels}
        # The dict adjacency view is derived lazily by SimGraph.adj from
        # the attached CSR — instances that only ever run compiled (or
        # get pruned away) never build it.
        child = SimGraph(new_labels, new_ident, None)
        child._compiled = CompiledGraph(
            child, _raw=(new_offsets, new_neigh, new_rev)
        )
        return child

    def apply_delta(self, delta):
        """Patched-CSR application of a validated :class:`GraphDelta`.

        The insert/delete analogue of :meth:`restrict`'s rank scan
        (DESIGN.md D18): untouched rows are copied as C-level slices
        (edge-only deltas) or a flat index remap (node churn), touched
        rows are rebuilt by a sorted merge of the surviving slice with
        the insertions, and reverse ports renumber in one seen-counter
        pass over the new CSR.  Total Python-level work is O(n + m) with
        per-edge costs only on touched rows — no identity re-sort, no
        networkx round-trip, no global re-porting.

        The caller (:meth:`SimGraph.apply_delta <repro.local.graph.
        SimGraph.apply_delta>`) has already validated ``delta``; rows
        here trust it (an unvalidated duplicate insert would silently
        corrupt port ranks, which is why validation is mandatory and
        eager).
        """
        from .graph import SimGraph

        index = self.index
        offsets, neigh, rev = self.offsets, self.neigh, self.rev
        labels = self.labels
        idents = self.idents
        n = self.n

        dead = bytearray(n)
        for u in delta.del_nodes:
            dead[index[u]] = 1
        # Old-index pairs of deleted edges, both directions, plus the
        # set of rows whose surviving slice differs from the old row.
        dropped = set()
        touched = bytearray(n)
        for u, v in delta.del_edges:
            iu, iv = index[u], index[v]
            dropped.add((iu, iv))
            dropped.add((iv, iu))
            touched[iu] = 1
            touched[iv] = 1
        for u in delta.del_nodes:
            i = index[u]
            for k in range(offsets[i], offsets[i + 1]):
                touched[neigh[k]] = 1

        # Merge survivors (already in identity order) with the added
        # nodes (sorted by identity) into the new node order.
        added = sorted(delta.add_nodes, key=lambda pair: pair[1])
        survivors = [i for i in range(n) if not dead[i]]
        new_labels = []
        new_ident = {}
        new_of = [-1] * n  # old index -> new index (-1 when deleted)
        old_of = []  # new index -> old index (-1 for added nodes)
        added_index = {}
        si = ai = 0
        n_surv = len(survivors)
        n_add = len(added)
        while si < n_surv or ai < n_add:
            if ai < n_add and (
                si == n_surv or added[ai][1] < idents[survivors[si]]
            ):
                label, ident = added[ai]
                added_index[label] = len(new_labels)
                old_of.append(-1)
                new_labels.append(label)
                new_ident[label] = ident
                ai += 1
            else:
                i = survivors[si]
                new_of[i] = len(new_labels)
                old_of.append(i)
                u = labels[i]
                new_labels.append(u)
                new_ident[u] = idents[i]
                si += 1

        def index_new(u):
            i = index.get(u)
            if i is not None and not dead[i]:
                return new_of[i]
            return added_index[u]

        inserts = {}
        for u, v in delta.add_edges:
            ju, jv = index_new(u), index_new(v)
            inserts.setdefault(ju, []).append(jv)
            inserts.setdefault(jv, []).append(ju)

        # new_of is the identity map iff the node set is unchanged —
        # then untouched rows copy as raw slices with no remap at all.
        identity_map = not (delta.del_nodes or delta.add_nodes)
        nn = len(new_labels)
        new_offsets = [0]
        new_neigh = []
        for j in range(nn):
            i = old_of[j]
            adds = inserts.get(j)
            if i < 0:
                # Fresh node: its row is exactly its sorted insertions.
                if adds:
                    new_neigh.extend(sorted(adds))
            elif adds is None and not touched[i]:
                row = neigh[offsets[i]:offsets[i + 1]]
                if identity_map:
                    new_neigh.extend(row)
                else:
                    new_neigh.extend([new_of[w] for w in row])
            else:
                # Sorted merge: the surviving slice and the insertions
                # are both ascending in new-index order (new_of is
                # monotone on survivors), so one linear pass keeps the
                # row in canonical neighbour-identity order.
                adds = sorted(adds) if adds else []
                pa = 0
                na = len(adds)
                for k in range(offsets[i], offsets[i + 1]):
                    w = neigh[k]
                    if dead[w] or (i, w) in dropped:
                        continue
                    nw = new_of[w]
                    while pa < na and adds[pa] < nw:
                        new_neigh.append(adds[pa])
                        pa += 1
                    new_neigh.append(nw)
                while pa < na:
                    new_neigh.append(adds[pa])
                    pa += 1
            new_offsets.append(len(new_neigh))

        # Reverse ports in one seen-counter pass: rows are ascending and
        # the relation is symmetric, so for a fixed target w the slots
        # pointing at w arrive in ascending owner order — the running
        # count seen[w] is exactly the owner's rank (= port) in w's row.
        new_rev = [0] * len(new_neigh)
        seen = [0] * nn
        pos = 0
        for w in new_neigh:
            new_rev[pos] = seen[w]
            seen[w] += 1
            pos += 1

        child = SimGraph(new_labels, new_ident, None)
        child._compiled = CompiledGraph(
            child, _raw=(new_offsets, new_neigh, new_rev)
        )
        return child


def run_batch(
    kernel, cg, algorithm, *, cap, truncating, default_output, result_cls
):
    """Drive one run through a whole-frontier batch kernel.

    The kernel owns the per-node state and the message exchange (as
    arrays over the CSR slab); this loop keeps the LOCAL-model ledger —
    round counting, termination times, truncation, non-termination
    diagnostics — so a batch run reports field-for-field what the
    per-node paths report (DESIGN.md D10).
    """
    labels = cg.labels
    outputs = {}
    finish_round = {}
    finished, results, messages = kernel.start()
    for i, value in zip(finished, results):
        label = labels[i]
        outputs[label] = value
        finish_round[label] = 0
    rounds = 0
    while not kernel.done:
        if rounds >= cap:
            undone = kernel.undone_indices()
            if truncating:
                for i in undone:
                    label = labels[i]
                    outputs[label] = default_output
                    finish_round[label] = cap
                return result_cls(
                    outputs,
                    finish_round,
                    cap,
                    messages,
                    frozenset(labels[i] for i in undone),
                    None,
                )
            raise NonTerminationError(
                algorithm.name, cap, [labels[i] for i in undone]
            )
        rounds += 1
        finished, results, sent = kernel.step()
        messages += sent
        for i, value in zip(finished, results):
            label = labels[i]
            outputs[label] = value
            finish_round[label] = rounds
    total = max(finish_round.values()) if finish_round else 0
    return result_cls(
        outputs, finish_round, total, messages, frozenset(), None
    )


def run_compiled(
    graph,
    algorithm,
    execution,
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
    """Execute one synchronous run on the compiled engine.

    Arguments arrive pre-validated from :func:`repro.local.runner.run`;
    the returned ``result_cls`` instance is field-for-field identical to
    what the reference loop produces for the same configuration.  When
    ``execution.batch`` is on and the algorithm registers a batch kernel
    (and the run is eligible — see
    :func:`repro.local.batch.make_engine_kernel`), the whole frontier is
    stepped per round through :func:`run_batch` instead of dispatching
    per node.
    """
    from .runner import note_stepping

    rng_mode = execution.rng_mode
    cg = graph.compiled()
    if execution.batch:
        kernel = make_engine_kernel(
            algorithm,
            cg,
            inputs=inputs,
            guesses=guesses,
            seed=seed,
            salt=salt,
            rng_mode=rng_mode,
            track_bits=track_bits,
            enabled=True,
        )
        if kernel is not None:
            if execution.roundfuse:
                # Round-fused tier (D17): certified kernels execute the
                # whole schedule in one driver call; try_drive declines
                # (capability, cap too small) back to the per-round loop
                # below.
                from .roundfuse import try_drive

                fused = try_drive(
                    kernel,
                    cg,
                    algorithm,
                    cap=cap,
                    truncating=truncating,
                    default_output=default_output,
                    result_cls=result_cls,
                )
                if fused is not None:
                    return fused
            note_stepping("batch")
            return run_batch(
                kernel,
                cg,
                algorithm,
                cap=cap,
                truncating=truncating,
                default_output=default_output,
                result_cls=result_cls,
            )
    note_stepping("per-node")
    n = cg.n
    labels = cg.labels
    idents = cg.idents
    degrees = cg.degrees
    pairs = cg.pairs

    make_gen = rng_source(rng_mode, seed, salt)
    # For plain LocalAlgorithm instances, `make` is pure delegation to the
    # process factory — skip the extra call layer.  Subclasses keep their
    # `make` hook.
    if type(algorithm) is LocalAlgorithm:
        make_process = algorithm.process
    else:
        make_process = algorithm.make
    get_input = inputs.get
    processes = [
        make_process(
            NodeContext(
                label,
                ident,
                degree,
                get_input(label),
                guesses,
                None,
                make_gen,
                rng_mode,
            )
        )
        for label, ident, degree in zip(labels, idents, degrees)
    ]

    outputs = {}
    finish_round = {}
    messages = 0
    max_bits = 0

    # Double-buffered flat inboxes: `nxt` collects deliveries for the next
    # round, `cur` is consumed this round and wiped via its touched list.
    nxt = [None] * n
    nxt_touched = []
    cur = [None] * n
    cur_touched = []

    def deliver_slow(i, outgoing):
        """Targeted/odd outgoing specs; returns payload count.

        The Broadcast fast path is inlined in the round loops below —
        this handles port dicts (validated with the specification's exact
        diagnostics) plus Broadcast/dict subclasses.
        """
        nonlocal max_bits
        if isinstance(outgoing, Broadcast):
            payload = outgoing.payload
            if track_bits:
                bits = estimate_bits(payload)
                if bits > max_bits:
                    max_bits = bits
            row = pairs[i]
            for vi, rp in row:
                box = nxt[vi]
                if box is None:
                    box = nxt[vi] = {}
                    nxt_touched.append(vi)
                box[rp] = payload
            return len(row)
        if not isinstance(outgoing, dict):
            normalize_outgoing(outgoing, len(pairs[i]))  # raises TypeError
        row = pairs[i]
        degree = len(row)
        count = 0
        for port, payload in outgoing.items():
            if not isinstance(port, int) or port < 0 or port >= degree:
                # Re-raise with the specification's exact diagnostics.
                normalize_outgoing(outgoing, degree)
            if track_bits:
                bits = estimate_bits(payload)
                if bits > max_bits:
                    max_bits = bits
            vi, rp = row[port]
            box = nxt[vi]
            if box is None:
                box = nxt[vi] = {}
                nxt_touched.append(vi)
            box[rp] = payload
            count += 1
        return count

    touch = nxt_touched.append
    active = []
    add_active = active.append
    for i in range(n):
        process = processes[i]
        outgoing = process.start()
        if outgoing is not None:
            if type(outgoing) is Broadcast:
                payload = outgoing.payload
                if track_bits:
                    bits = estimate_bits(payload)
                    if bits > max_bits:
                        max_bits = bits
                row = pairs[i]
                for vi, rp in row:
                    box = nxt[vi]
                    if box is None:
                        box = nxt[vi] = {}
                        touch(vi)
                    box[rp] = payload
                messages += len(row)
            else:
                messages += deliver_slow(i, outgoing)
        if process.done:
            label = labels[i]
            outputs[label] = process.result
            finish_round[label] = 0
        else:
            add_active(i)

    rounds = 0
    while active:
        if rounds >= cap:
            if truncating:
                for i in active:
                    label = labels[i]
                    outputs[label] = default_output
                    finish_round[label] = cap
                return result_cls(
                    outputs,
                    finish_round,
                    cap,
                    messages,
                    frozenset(labels[i] for i in active),
                    max_bits if track_bits else None,
                )
            raise NonTerminationError(
                algorithm.name, cap, [labels[i] for i in active]
            )
        rounds += 1
        cur, cur_touched, nxt, nxt_touched = nxt, nxt_touched, cur, cur_touched
        touch = nxt_touched.append
        still_active = []
        add_still = still_active.append
        for i in active:
            process = processes[i]
            box = cur[i]
            outgoing = process.receive(box if box is not None else {})
            if outgoing is not None:
                if type(outgoing) is Broadcast:
                    payload = outgoing.payload
                    if track_bits:
                        bits = estimate_bits(payload)
                        if bits > max_bits:
                            max_bits = bits
                    row = pairs[i]
                    for vi, rp in row:
                        box = nxt[vi]
                        if box is None:
                            box = nxt[vi] = {}
                            touch(vi)
                        box[rp] = payload
                    messages += len(row)
                else:
                    messages += deliver_slow(i, outgoing)
            if process.done:
                label = labels[i]
                outputs[label] = process.result
                finish_round[label] = rounds
            else:
                add_still(i)
        active = still_active
        # Wipe only the slots this round touched — the O(active) invariant.
        for i in cur_touched:
            cur[i] = None
        cur_touched.clear()

    total = max(finish_round.values()) if finish_round else 0
    return result_cls(
        outputs,
        finish_round,
        total,
        messages,
        frozenset(),
        max_bits if track_bits else None,
    )
