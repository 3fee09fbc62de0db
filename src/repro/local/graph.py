"""Simulation-graph representation used by the LOCAL runner.

A :class:`SimGraph` is an immutable adjacency view of a network together
with the unique node identities the paper assumes (Section 2: "each node
v is provided with a unique integer Id(v)").  Ports are assigned per node
in increasing order of neighbour identity, which gives deterministic
simulations.

Induced subgraphs — the ``(G_i, x_i)`` instances of the alternating
algorithm (Figure 1) — are produced by :meth:`SimGraph.subgraph`.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from ..errors import InvalidInstanceError, ParameterError


class GraphDelta:
    """A validated batch of topology edits for :meth:`SimGraph.apply_delta`.

    Deltas are the unit of mutation for the live-graph session service
    (:mod:`repro.local.service`, DESIGN.md D18).  One delta may insert
    and delete both edges and nodes; application order is fixed and
    documented: edge deletions, then node deletions (taking their
    incident edges with them), then node insertions, then edge
    insertions — so inserted edges may touch inserted nodes, and a
    deleted edge must exist in the *pre*-delta graph.

    Validation is eager and total: every
    structural error — a self-loop, a duplicate within the delta, an
    ident that is not a positive integer — raises
    :class:`~repro.errors.ParameterError` at construction, and every
    graph-relative error — deleting a nonexistent edge, inserting a
    duplicate edge, touching an unknown node label, an identity
    collision — raises at :meth:`validate` time, before any state
    changes.  A delta either applies exactly or not at all.
    """

    __slots__ = ("add_nodes", "del_nodes", "add_edges", "del_edges")

    def __init__(self, *, add_nodes=(), del_nodes=(), add_edges=(),
                 del_edges=()):
        if isinstance(add_nodes, dict):
            add_nodes = add_nodes.items()
        self.add_nodes = tuple((u, ident) for u, ident in add_nodes)
        self.del_nodes = tuple(del_nodes)
        self.add_edges = tuple((u, v) for u, v in add_edges)
        self.del_edges = tuple((u, v) for u, v in del_edges)

        added_labels = set()
        for u, ident in self.add_nodes:
            if isinstance(ident, bool) or not isinstance(ident, int) or ident < 1:
                raise ParameterError(
                    f"added node {u!r}: identities must be positive integers "
                    f"(paper Section 2), got {ident!r}"
                )
            if u in added_labels:
                raise ParameterError(f"node {u!r} added twice in one delta")
            added_labels.add(u)
        added_idents = [ident for _, ident in self.add_nodes]
        if len(set(added_idents)) != len(added_idents):
            raise ParameterError("added identities collide within the delta")
        deleted = set()
        for u in self.del_nodes:
            if u in deleted:
                raise ParameterError(f"node {u!r} deleted twice in one delta")
            deleted.add(u)
        both = added_labels & deleted
        if both:
            raise ParameterError(
                f"labels both added and deleted in one delta: "
                f"{sorted(both, key=repr)[:5]} (split into two deltas)"
            )
        for kind, edges in (("added", self.add_edges),
                            ("deleted", self.del_edges)):
            seen = set()
            for u, v in edges:
                if u == v:
                    raise ParameterError(f"{kind} edge ({u!r}, {v!r}) is a self-loop")
                key = frozenset((u, v))
                if key in seen:
                    raise ParameterError(
                        f"edge ({u!r}, {v!r}) {kind} twice in one delta"
                    )
                seen.add(key)
        overlap = (
            {frozenset(e) for e in self.add_edges}
            & {frozenset(e) for e in self.del_edges}
        )
        if overlap:
            pair = sorted(next(iter(overlap)), key=repr)
            raise ParameterError(
                f"edge {tuple(pair)!r} both added and deleted in one delta "
                f"(split into two deltas)"
            )
        for u, v in self.add_edges:
            if u in deleted or v in deleted:
                raise ParameterError(
                    f"added edge ({u!r}, {v!r}) touches a node deleted by "
                    f"the same delta"
                )

    def is_empty(self):
        """True when applying this delta is the identity."""
        return not (self.add_nodes or self.del_nodes
                    or self.add_edges or self.del_edges)

    def __bool__(self):
        return not self.is_empty()

    def validate(self, graph):
        """Check this delta against ``graph``; raise ParameterError early.

        Pure — never touches graph state.  All graph-relative edge cases
        live here: unknown labels, nonexistent deleted edges, duplicate
        inserted edges, identity collisions with surviving nodes.
        """
        node_set = graph._node_set
        for u in self.del_nodes:
            if u not in node_set:
                raise ParameterError(f"cannot delete unknown node {u!r}")
        deleted = set(self.del_nodes)
        for u, v in self.del_edges:
            if u not in node_set or v not in node_set:
                missing = u if u not in node_set else v
                raise ParameterError(
                    f"deleted edge ({u!r}, {v!r}) touches unknown node "
                    f"{missing!r}"
                )
            if not graph.has_edge(u, v):
                raise ParameterError(
                    f"cannot delete nonexistent edge ({u!r}, {v!r})"
                )
        added_labels = {u for u, _ in self.add_nodes}
        for u, ident in self.add_nodes:
            if u in node_set:
                raise ParameterError(
                    f"cannot add node {u!r}: label already in the graph"
                )
        if self.add_nodes:
            surviving_idents = {
                graph.ident[u] for u in graph.nodes if u not in deleted
            }
            for u, ident in self.add_nodes:
                if ident in surviving_idents:
                    raise ParameterError(
                        f"added node {u!r}: identity {ident} collides with "
                        f"a surviving node"
                    )

        def final(u):
            return u in added_labels or (u in node_set and u not in deleted)

        dropped = {frozenset(e) for e in self.del_edges}
        for u, v in self.add_edges:
            if not (final(u) and final(v)):
                missing = v if final(u) else u
                raise ParameterError(
                    f"added edge ({u!r}, {v!r}) touches unknown node "
                    f"{missing!r}"
                )
            if (
                u in node_set
                and v in node_set
                and graph.has_edge(u, v)
                and frozenset((u, v)) not in dropped
            ):
                raise ParameterError(
                    f"cannot add duplicate edge ({u!r}, {v!r})"
                )

    def __repr__(self):
        return (
            f"GraphDelta(+{len(self.add_nodes)}n/-{len(self.del_nodes)}n, "
            f"+{len(self.add_edges)}e/-{len(self.del_edges)}e)"
        )


class SimGraph:
    """Static adjacency + identity view of a network.

    Attributes
    ----------
    nodes:
        Tuple of node labels, sorted by identity.
    ident:
        Mapping node label -> unique integer identity.
    adj:
        Mapping node -> tuple of ``(port, neighbour, reverse_port)``
        triples where ``reverse_port`` is the port of *node* in
        *neighbour*'s own numbering.
    """

    __slots__ = ("nodes", "ident", "_adj", "_degree", "_node_set", "_compiled")

    def __init__(self, nodes, ident, adj):
        self.nodes = tuple(nodes)
        self.ident = dict(ident)
        # ``adj`` given here makes a dict-born graph, whose CSR is
        # compiled from it on first use.  Library-built graphs are
        # CSR-born instead (``_from_csr``) and derive the dict view
        # lazily, so the compiled engine and the CSR verifiers never
        # build it.
        self._adj = adj
        self._degree = (
            None if adj is None else {u: len(adj[u]) for u in self.nodes}
        )
        self._node_set = frozenset(self.nodes)
        #: Lazily built CSR view (repro.local.engine.CompiledGraph).
        self._compiled = None

    @classmethod
    def _from_csr(cls, nodes, ident, node_set=None):
        """A CSR-born graph: ``adj`` is derived lazily from the CSR the
        caller attaches (:meth:`_build`, :meth:`CompiledGraph.restrict
        <repro.local.engine.CompiledGraph.restrict>`,
        :meth:`CompiledGraph.apply_delta <repro.local.engine.
        CompiledGraph.apply_delta>`).

        ``nodes`` (a tuple), ``ident`` and ``node_set`` are taken as
        given, not copied: a child with its parent's node set shares
        them, which is safe because they are immutable by contract.
        """
        graph = cls.__new__(cls)
        graph.nodes = nodes
        graph.ident = ident
        graph._adj = None
        graph._degree = None
        graph._node_set = frozenset(nodes) if node_set is None else node_set
        graph._compiled = None
        return graph

    @property
    def adj(self):
        view = self._adj
        if view is None:
            cg = self._compiled
            if cg is None:
                raise InvalidInstanceError(
                    "SimGraph built with adj=None but no compiled CSR "
                    "attached; adj=None is reserved for CSR-born graphs"
                )
            labels = cg.labels
            offsets = cg.offsets.tolist()
            neigh, rev = cg.neigh.tolist(), cg.rev.tolist()
            view = {}
            for j, u in enumerate(labels):
                start, end = offsets[j], offsets[j + 1]
                view[u] = tuple(
                    (p, labels[vi], rp)
                    for p, (vi, rp) in enumerate(
                        zip(neigh[start:end], rev[start:end])
                    )
                )
            self._adj = view
        return view

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_networkx(cls, graph, idents=None):
        """Build a :class:`SimGraph` from an undirected networkx graph.

        Parameters
        ----------
        graph:
            Undirected simple graph.  Self-loops are rejected.
        idents:
            Optional mapping node -> unique integer identity.  Defaults to
            the node labels themselves when they are integers, else to an
            enumeration in sorted-label order.
        """
        if graph.is_directed():
            raise InvalidInstanceError("LOCAL networks are undirected")
        view = dict(graph.adjacency())
        if any(u in nbrs for u, nbrs in view.items()):
            raise InvalidInstanceError("self-loops are not allowed")
        if idents is None:
            labels = list(graph.nodes())
            if all(isinstance(u, int) for u in labels):
                # The paper's identities are positive integers; shift
                # 0-based integer labels up by one.
                idents = {u: u + 1 for u in labels}
            else:
                idents = {u: i + 1 for i, u in enumerate(sorted(labels, key=repr))}
        else:
            idents = dict(idents)
            missing = [u for u in graph.nodes() if u not in idents]
            if missing:
                raise InvalidInstanceError(
                    f"identities missing for {len(missing)} node(s)"
                )
        values = list(idents[u] for u in graph.nodes())
        if len(set(values)) != len(values):
            raise InvalidInstanceError("identities must be unique")
        if any(
            isinstance(x, bool) or not isinstance(x, int) or x < 1
            for x in values
        ):
            raise InvalidInstanceError(
                "identities must be positive integers (paper Section 2)"
            )
        return cls._build(view, idents, view)

    @classmethod
    def _build(cls, labels, idents, neighbour_view):
        """The canonical CSR-born graph on ``labels`` (DESIGN.md D31).

        ``neighbour_view[u]`` iterates ``u``'s neighbours: labels in
        ``labels``, symmetric, with no self-loop and no repeat.  Nodes
        go in identity order, so a row sorted by neighbour *index* is
        sorted by identity and its positions are the ports.  Reverse
        ports come from one stable argsort of ``neigh``: the k-th time
        ``j`` appears as a neighbour, the owner is ``j``'s k-th smallest
        neighbour and so sits at port k of row ``j``, and the slots
        pointing at ``j`` sort to positions ``offsets[j] ..`` in owner
        order.  The dict view (``adj``) and the degree table are derived
        lazily from the CSR.  ``idents`` becomes the graph's ``ident``
        without a copy.
        """
        from .engine import CompiledGraph

        nodes = tuple(sorted(labels, key=idents.__getitem__))
        index = {u: i for i, u in enumerate(nodes)}
        at = index.__getitem__
        bounds = [0]
        flat = []
        for u in nodes:
            flat += sorted(map(at, neighbour_view[u]))
            bounds.append(len(flat))
        offsets = np.array(bounds, dtype=np.int64)
        neigh = np.array(flat, dtype=np.int64)
        # The stable argsort of ``neigh``, as one sort of the distinct
        # keys ``neigh * m + slot`` (faster than an int64 argsort).
        m = len(flat)
        order = np.sort(neigh * m + np.arange(m)) % m
        rev = np.empty_like(neigh)
        rev[order] = np.arange(m) - offsets[neigh[order]]
        graph = cls._from_csr(nodes, idents)
        CompiledGraph._attach(
            graph, index, [idents[u] for u in nodes], offsets, neigh, rev
        )
        return graph

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n(self):
        """Number of nodes."""
        return len(self.nodes)

    @property
    def _degrees(self):
        table = self._degree
        if table is None:
            cg = self._compiled
            if cg is None:
                raise InvalidInstanceError(
                    "SimGraph built with adj=None but no compiled CSR "
                    "attached; adj=None is reserved for CSR-born graphs"
                )
            table = self._degree = dict(zip(cg.labels, cg.degrees.tolist()))
        return table

    @property
    def max_degree(self):
        """Maximum degree Δ (0 for the empty graph)."""
        if not self.nodes:
            return 0
        return max(self._degrees.values())

    @property
    def max_ident(self):
        """Largest identity m (0 for the empty graph)."""
        if not self.nodes:
            return 0
        return max(self.ident.values())

    def degree(self, u):
        """Degree of node ``u``."""
        return self._degrees[u]

    def neighbors(self, u):
        """Neighbour labels of ``u`` in port order, read off the CSR."""
        cg = self.compiled()
        i = cg.index[u]
        labels = cg.labels
        lo, hi = cg.offsets[i:i + 2].tolist()
        return tuple([labels[j] for j in cg.neigh[lo:hi].tolist()])

    def has_edge(self, u, v):
        """Edge membership in O(log deg), without materializing ``adj``.

        Delta validation (:meth:`GraphDelta.validate`) probes edges on
        every session mutate; going through the dict view would rebuild
        the O(m) adjacency on each CSR-born child and erase the
        incremental win, so this searches the sorted CSR row directly.
        A label not in the graph is ``False`` on either representation.
        """
        node_set = self._node_set
        if u not in node_set or v not in node_set:
            return False
        if self._adj is not None:
            return any(w == v for _, w, _ in self._adj[u])
        cg = self.compiled()
        i, j = cg.index[u], cg.index[v]
        lo, hi = cg.offsets[i:i + 2].tolist()
        row = cg.neigh[lo:hi]
        k = int(row.searchsorted(j))
        return k < hi - lo and int(row[k]) == j

    def edge_count(self):
        """Number of edges."""
        return sum(self._degrees.values()) // 2

    def edges(self):
        """Iterate over edges as (u, v) with ident(u) < ident(v).

        Rows in node order, neighbours in port order; reads the CSR, so
        a CSR-born graph never builds its dict view here.  Index order
        is identity order, so the edges are the slots ``owner < neigh``.
        """
        cg = self.compiled()
        labels = cg.labels
        upper = cg.owner < cg.neigh
        for i, j in zip(cg.owner[upper].tolist(), cg.neigh[upper].tolist()):
            yield (labels[i], labels[j])

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def compiled(self):
        """The cached CSR view of this graph (built on first use)."""
        view = self._compiled
        if view is None:
            from .engine import CompiledGraph

            view = self._compiled = CompiledGraph(self)
        return view

    def subgraph(self, keep):
        """Induced subgraph on ``keep`` with fresh port numbering.

        This realizes the instances ``(G_{i+1}, x_{i+1})`` produced by a
        pruning algorithm: pruned nodes leave the network entirely and the
        survivors renumber their ports among themselves.

        Incremental path: ``self.nodes`` and every adjacency row are
        already sorted by identity, and restriction preserves that order,
        so survivor ports renumber in one numpy pass over the CSR arrays
        via :meth:`CompiledGraph.restrict <repro.local.engine.
        CompiledGraph.restrict>` — no re-sorting of identities, no global
        re-porting (the ``subgraph_rebuild`` reference path does the full
        sort-and-re-port rebuild and is kept as the executable
        specification).  The child inherits a ready-made CSR, so an
        alternation never recompiles surviving structure.

        Under the reference backend (``use_backend("reference")``) the
        rebuild path is used instead, keeping that backend a faithful
        end-to-end reproduction of the seed execution stack; both paths
        produce identical graphs (asserted by the equivalence suite).
        """
        from .execution import current

        if current().backend == "reference":
            return self.subgraph_rebuild(keep)
        keep_set = keep if isinstance(keep, frozenset) else frozenset(keep)
        unknown = keep_set - self._node_set
        if unknown:
            raise InvalidInstanceError(
                f"subgraph nodes not in graph: {sorted(unknown, key=repr)[:5]}"
            )
        if len(keep_set) == len(self.nodes):
            return self
        if not keep_set:  # an alternation's last step; restrict is O(n + m)
            return SimGraph._build((), {}, {})
        return self.compiled().restrict(keep_set)

    def subgraph_rebuild(self, keep):
        """Reference restriction path: full sort-and-re-port rebuild.

        Kept as the executable specification that the incremental
        :meth:`subgraph` is tested against (DESIGN.md, backend
        equivalence contract).
        """
        keep_set = set(keep)
        unknown = keep_set - self._node_set
        if unknown:
            raise InvalidInstanceError(
                f"subgraph nodes not in graph: {sorted(unknown, key=repr)[:5]}"
            )
        idents = {u: self.ident[u] for u in keep_set}
        neighbour_view = {
            u: [v for _, v, _ in self.adj[u] if v in keep_set]
            for u in keep_set
        }
        return SimGraph._build(list(keep_set), idents, neighbour_view)

    def apply_delta(self, delta):
        """Apply a :class:`GraphDelta`, returning a **new** SimGraph.

        Application is functional: the receiver is never mutated, so
        every cache keyed by object identity (the ``CompiledGraph``, the
        fused slab cache) stays trivially coherent
        — a mutated topology is a different object with empty caches,
        not a patched one with stale entries (DESIGN.md D18).

        The result is bit-identical to rebuilding from scratch: the
        CSR layout is a pure function of the (labels, identities, edge
        set) triple — nodes in identity order, rows sorted by neighbour
        identity, ports equal to ranks — and the incremental patch
        produces exactly that canonical form (asserted by the
        differential harness in ``tests/test_service.py``).

        Under the reference backend the full sort-and-re-port rebuild
        path (:meth:`apply_delta_rebuild`) is used instead, mirroring
        :meth:`subgraph`; both paths produce identical graphs.

        An empty delta returns ``self`` unchanged (no-op identity).
        """
        from .execution import current

        if not isinstance(delta, GraphDelta):
            raise ParameterError(
                f"apply_delta expects a GraphDelta, got {type(delta).__name__}"
            )
        delta.validate(self)
        if delta.is_empty():
            return self
        if current().backend == "reference":
            return self.apply_delta_rebuild(delta)
        return self.compiled().apply_delta(delta)

    def apply_delta_rebuild(self, delta):
        """Reference delta path: full sort-and-re-port rebuild.

        The executable specification the incremental
        :meth:`CompiledGraph.apply_delta <repro.local.engine.
        CompiledGraph.apply_delta>` patch is tested against — same role
        :meth:`subgraph_rebuild` plays for :meth:`subgraph`.
        """
        delta.validate(self)
        if delta.is_empty():
            return self
        dead = set(delta.del_nodes)
        dropped = {frozenset(e) for e in delta.del_edges}
        idents = {u: self.ident[u] for u in self.nodes if u not in dead}
        view = {
            u: [
                v
                for _, v, _ in self.adj[u]
                if v not in dead and frozenset((u, v)) not in dropped
            ]
            for u in self.nodes
            if u not in dead
        }
        for u, ident in delta.add_nodes:
            idents[u] = ident
            view[u] = []
        for u, v in delta.add_edges:
            view[u].append(v)
            view[v].append(u)
        return SimGraph._build(list(idents), idents, view)

    def to_networkx(self):
        """Export to a networkx graph (identities as node attribute)."""
        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        graph.add_edges_from(self.edges())
        nx.set_node_attributes(graph, self.ident, "ident")
        return graph

    def __repr__(self):
        return f"SimGraph(n={self.n}, m={self.edge_count()}, Δ={self.max_degree})"
