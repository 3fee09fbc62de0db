"""Virtual-node simulation: run a LOCAL algorithm on a derived graph.

Two constructions in the paper execute an algorithm on a graph derived
from the network rather than on the network itself:

* Section 5.1 builds the *clique product* ``G'`` (one clique ``C_u`` of
  size ``deg(u)+1`` per node, with ``(u_i, v_i)`` edges across each
  physical edge) and computes a MIS of ``G'`` to obtain a
  ``(deg+1)``-coloring of ``G``;
* Section 5.2 / the edge-coloring rows color the *line graph* ``L(G)``.

Both derived graphs can be simulated on the physical network: each
physical node *hosts* a set of virtual nodes, and every virtual edge maps
to a path of length ≤ 2 in ``G`` (internal to a host, a physical edge, or
a two-hop route through a shared physical neighbour).  One virtual round
therefore costs ``dilation`` ∈ {1, 2} physical rounds.  The paper notes
such derived graphs "can be constructed by a local algorithm without
using any global parameter"; we compute the mapping centrally, which
stands in for that constant-round construction.

What is computed, and when, depends on who reads it.  An array-built
spec (:func:`repro.graphs.line_graph_spec`) holds only what the batched
virtual driver reads: its ``BatchGraph``, the host index array, the
dilation and the relay pairs.  The dict views (``host``, ``ident``,
``adj``, ``hosted``, ``relay_client_ports``) and the host-process
routing plans (``send_plan``, ``forward_plan``, ``recv_port``) are built
on first read, because only the host process,
:meth:`VirtualSpec.restricted`, the virtual domain's per-node accessors
and the tests read them.  The validating dict constructor builds the
views and the plans eagerly; a batched run derives its host index and
relay pairs from the views once and caches them on the spec.  A line
graph's spec is memoised per physical graph, and an alternation step's
is derived from the previous step's arrays (DESIGN.md D42).

A batched run returns its outputs as an array in ``BatchGraph`` order
(:func:`run_virtual_batch_values`), which the matching row decodes on
arrays; :func:`run_virtual_batch` and the domains' ``run_restricted``
turn it into the ``virtual node -> output`` dict.

Port-order contract: virtual ports follow the order of ``adj[v]``.  Any
builder must produce the order a spec is tested against — for the line
graph, the other edges at the lower-identity endpoint, then those at the
higher one, each in virtual-identity order.

Termination: a physical node may serve as a *relay* for virtual edges
between other hosts, so it cannot stop when its own virtual nodes finish.
Hosts broadcast a one-off "all my virtual nodes are done" announcement;
a relay terminates once its own virtual nodes and all its client hosts
have announced.  This adds O(1) physical rounds, absorbed in the declared
bounds of the algorithms built on this layer.

Restriction semantics: when a run of the wrapped algorithm is truncated
(the paper's *restriction to i rounds*), hosts that have not committed
their output dict yet contribute the default output for all their hosted
virtual nodes — a valid instance of the paper's "arbitrary output".

Host process: one host-process implementation, the seed's dict-driven
one, runs the simulation on every backend.  A wrapped algorithm has no
batch kernel, so the compiled backend runs it on the reference loop
(DESIGN.md D33); the domains reach the batched virtual driver below
instead whenever the inner algorithm has a kernel.

Incremental restriction: :meth:`VirtualSpec.restricted` produces the spec
induced on surviving virtual nodes in O(Σ surviving old-degree) by
filtering the parent's routing plans (building them first if they are
still lazy) — the physical graph is unchanged by virtual pruning, so
surviving pairs keep their routes and nothing is re-derived.
``VirtualSpec(host, ident, adj, physical)`` (the full rebuild) remains
the specification path it is tested against.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInstanceError, NonTerminationError
from .algorithm import LocalAlgorithm, NodeProcess
from .batch import (
    BatchSetup,
    _is_int64,
    batch_graph_of_spec,
    drive_kernel,
    fold_commits,
    virtual_draw_builder,
)
from .context import NodeContext, counter_rng
from .message import Broadcast
from .runner import note_stepping, require_guesses


def _lazy(slot, build):
    """A property reading ``slot``, filled by ``build(spec)`` on first read."""

    def get(spec):
        if getattr(spec, slot) is None:
            build(spec)
        return getattr(spec, slot)

    return property(get)


class VirtualSpec:
    """Hosting and routing data for a derived (virtual) graph.

    Attributes
    ----------
    dilation:
        Physical rounds per virtual round (1 without relays, else 2).
    physical:
        The physical :class:`~repro.local.graph.SimGraph` the spec routes
        over.
    host_index, relays:
        The arrays the batched virtual driver reads, in the physical
        CSR's index space: the host of each virtual node in
        ``BatchGraph`` order (identity order), and ``(relay, client)``
        with one entry per relay and client host whose traffic routes
        through it.
    host, ident, adj, hosted, relay_client_ports:
        The dict views: virtual node -> physical node; virtual node ->
        unique integer identity; virtual node -> tuple of neighbour
        virtual nodes (virtual ports follow this order); physical node
        -> its virtual nodes in identity order (hosts with none are
        absent); relay -> frozenset of its ports towards its client
        hosts.
    recv_port, send_plan, forward_plan:
        The host-process routing plans (see :meth:`_build_routes`).

    The dict constructor builds the views and plans eagerly, validating
    the instance, and derives the arrays from the views on first read.
    An array-built spec holds the arrays and builds the views and plans
    on first read.
    """

    __slots__ = (
        "dilation",
        "physical",
        "_host",
        "_ident",
        "_adj",
        "_hosted",
        "_relay_client_ports",
        "_recv_port",
        "_send_plan",
        "_forward_plan",
        "_batch",
        "_host_index",
        "_relays",
    )

    def __init__(self, host, ident, adj, physical_graph):
        for name in self.__slots__:
            setattr(self, name, None)
        self.physical = physical_graph
        self._host = dict(host)
        self._ident = ident = dict(ident)
        self._adj = {v: tuple(neigh) for v, neigh in adj.items()}
        if len(set(ident.values())) != len(ident):
            raise InvalidInstanceError("virtual identities must be unique")
        self._hosted = hosted = {}
        for virt, p in self._host.items():
            hosted.setdefault(p, []).append(virt)
        for virts in hosted.values():
            virts.sort(key=ident.__getitem__)
        # Eager on purpose: asymmetric adjacency and virtual edges
        # without a physical route of length <= 2 raise here.
        self.dilation, self._relay_client_ports = self._build_routes()

    @classmethod
    def _assemble(cls, **fields):
        """A spec from already-derived fields; the rest stay lazy.

        No validation: callers derive the fields from an instance that
        is valid by construction (a physical CSR, or a valid spec).
        """
        spec = object.__new__(cls)
        for name in cls.__slots__:
            setattr(spec, name, fields.pop(name.lstrip("_"), None))
        assert not fields, f"unknown spec fields {sorted(fields)}"
        return spec

    def _build_views(self):
        """The dict views of an array-built spec."""
        bg = self._batch
        cg = self.physical.compiled()
        virts = bg.labels
        hosts = [cg.labels[a] for a in self._host_index.tolist()]
        self._host = dict(zip(virts, hosts))
        self._ident = dict(zip(virts, bg.idents))
        bounds = bg.offsets.tolist()
        flat = [virts[j] for j in bg.neigh.tolist()]
        self._adj = {
            virt: tuple(flat[bounds[i] : bounds[i + 1]])
            for i, virt in enumerate(virts)
        }
        self._hosted = {}
        for virt, p in zip(virts, hosts):
            self._hosted.setdefault(p, []).append(virt)
        relays, clients = self._relays
        client_ports = cg.slot_of(relays, clients) - cg.offsets[relays]
        ports = {}
        for relay, port in zip(relays.tolist(), client_ports.tolist()):
            ports.setdefault(cg.labels[relay], set()).add(port)
        self._relay_client_ports = {
            relay: frozenset(group) for relay, group in ports.items()
        }

    def _build_arrays(self):
        """The host index and relay pairs of a dict-built spec."""
        cg = self.physical.compiled()
        index = cg.index
        host = self._host
        self._host_index = np.array(
            [index[host[v]] for v in batch_graph_of_spec(self).labels],
            dtype=np.int64,
        )
        pairs = np.array(
            [
                (index[relay], port)
                for relay, ports in self._relay_client_ports.items()
                for port in ports
            ],
            dtype=np.int64,
        ).reshape(-1, 2)
        relays = pairs[:, 0]
        self._relays = (relays, cg.neigh[cg.offsets[relays] + pairs[:, 1]])

    def _build_recv_port(self):
        """``(sender, receiver) -> receiver's port of the sender``."""
        self._recv_port = table = {}
        for virt, neighbours in self.adj.items():
            for port, other in enumerate(neighbours):
                table[(other, virt)] = port

    def _build_routes(self):
        """Fill the send and forward plans; return dilation and relay ports.

        Raises :class:`InvalidInstanceError` on asymmetric adjacency or a
        virtual edge whose hosts have no physical route of length <= 2.

        A relayed pair routes through its common neighbour of smallest
        identity.  The array line-graph builder
        (``repro.graphs.transforms._line_graph_relays``) applies the same
        rule to derive the relay pairs without these plans; the two must
        agree, and the oracle tests in ``tests/test_virtual.py`` compare
        both.
        """
        graph = self.physical
        recv_port = self.recv_port
        port_to = {u: {v: p for p, v, _ in graph.adj[u]} for u in graph.nodes}
        neighbour_sets = {
            u: frozenset(v for _, v, _ in graph.adj[u]) for u in graph.nodes
        }
        send_plan = {}
        forward_plan = {}
        relay_clients = {}
        for virt, neighbours in self.adj.items():
            p = self.host[virt]
            for other in neighbours:
                q = self.host[other]
                # ``virt`` must sit in ``other``'s row: the key is the
                # reverse direction.
                if (virt, other) not in recv_port:
                    raise InvalidInstanceError(
                        f"virtual adjacency not symmetric: {virt}->{other}"
                    )
                if p == q:
                    send_plan[(virt, other)] = ("internal",)
                elif q in port_to[p]:
                    send_plan[(virt, other)] = ("direct", port_to[p][q])
                else:
                    shared = neighbour_sets[p] & neighbour_sets[q]
                    if not shared:
                        raise InvalidInstanceError(
                            f"virtual edge ({virt},{other}) has no physical "
                            "route of length <= 2"
                        )
                    relay = min(shared, key=lambda r: graph.ident[r])
                    # Relay plans carry everything restriction needs to
                    # reconstruct forwarding without re-deriving routes:
                    # (kind, sender's port to relay, relay node, relay's
                    # port to the destination host, relay's port back to
                    # the sending host).
                    send_plan[(virt, other)] = (
                        "relay",
                        port_to[p][relay],
                        relay,
                        port_to[relay][q],
                        port_to[relay][p],
                    )
                    forward_plan.setdefault(relay, {})[other] = (
                        port_to[relay][q]
                    )
                    relay_clients.setdefault(relay, set()).add(p)
        self._send_plan = send_plan
        self._forward_plan = forward_plan
        # Ports (at the relay) of the hosts whose traffic routes through it.
        relay_client_ports = {
            relay: frozenset(port_to[relay][p] for p in clients)
            for relay, clients in relay_clients.items()
        }
        return (2 if relay_clients else 1), relay_client_ports

    host = _lazy("_host", _build_views)
    ident = _lazy("_ident", _build_views)
    adj = _lazy("_adj", _build_views)
    hosted = _lazy("_hosted", _build_views)
    relay_client_ports = _lazy("_relay_client_ports", _build_views)
    host_index = _lazy("_host_index", _build_arrays)
    relays = _lazy("_relays", _build_arrays)
    recv_port = _lazy("_recv_port", _build_recv_port)
    send_plan = _lazy("_send_plan", _build_routes)
    forward_plan = _lazy("_forward_plan", _build_routes)

    def restricted(self, keep):
        """Spec induced on the surviving virtual nodes (incremental).

        The physical graph is untouched by virtual pruning, so surviving
        pairs keep the routing plans they already have; only the virtual
        port numbering and the relay bookkeeping are re-derived, in
        O(Σ surviving old-degree).  Produces the same spec as a full
        ``VirtualSpec(host', ident', adj', physical)`` rebuild.
        """
        keep = keep if isinstance(keep, frozenset) else frozenset(keep)
        adj = {
            v: tuple(w for w in neighbours if w in keep)
            for v, neighbours in self.adj.items()
            if v in keep
        }
        hosted = {}
        for p, virts in self.hosted.items():
            survivors = [v for v in virts if v in keep]
            if survivors:
                hosted[p] = survivors
        send_plan = {}
        forward_plan = {}
        relay_client_ports = {}
        old_plan = self.send_plan
        for virt, neighbours in adj.items():
            for other in neighbours:
                plan = old_plan[(virt, other)]
                send_plan[(virt, other)] = plan
                if plan[0] == "relay":
                    relay = plan[2]
                    forward_plan.setdefault(relay, {})[other] = plan[3]
                    relay_client_ports.setdefault(relay, set()).add(plan[4])
        return VirtualSpec._assemble(
            physical=self.physical,
            dilation=2 if relay_client_ports else 1,
            host={v: self.host[v] for v in adj},
            ident={v: self.ident[v] for v in adj},
            adj=adj,
            hosted=hosted,
            relay_client_ports={
                relay: frozenset(ports)
                for relay, ports in relay_client_ports.items()
            },
            send_plan=send_plan,
            forward_plan=forward_plan,
        )

    @property
    def virtual_nodes(self):
        return tuple(self._batch.labels if self._adj is None else self._adj)


class _VirtualHostProcess(NodeProcess):
    """Physical-node process simulating all hosted virtual processes.

    Dict-driven, kept as the seed wrote it (modulo the counter rng
    scheme); the batched virtual driver is diffed against it.
    """

    __slots__ = (
        "spec",
        "algorithm",
        "virt_inputs",
        "subs",
        "phase",
        "virt_round_inbox",
        "outputs",
        "announced",
        "announced_ports",
        "client_ports",
    )

    def __init__(self, ctx, spec, algorithm, virt_inputs):
        super().__init__(ctx)
        self.spec = spec
        self.algorithm = algorithm
        self.virt_inputs = virt_inputs
        base = ctx.rng.getrandbits(64)
        self.subs = {}
        self.outputs = {}
        self.virt_round_inbox = {}
        self.phase = 0
        self.announced = False
        self.announced_ports = set()
        self.client_ports = spec.relay_client_ports.get(ctx.node, frozenset())
        for virt in spec.hosted.get(ctx.node, ()):
            sub_ctx = NodeContext(
                node=virt,
                ident=spec.ident[virt],
                degree=len(spec.adj[virt]),
                input=virt_inputs.get(virt),
                guesses=ctx.guesses,
                rng=counter_rng(base, spec.ident[virt]),
            )
            self.subs[virt] = self.algorithm.make(sub_ctx)

    # -- virtual round plumbing -----------------------------------------
    def _virts_all_done(self):
        return all(sub.done for sub in self.subs.values())

    def _dispatch(self, virt, outgoing, sends):
        spec = self.spec
        neighbours = spec.adj[virt]
        if outgoing is None:
            return
        if isinstance(outgoing, Broadcast):
            items = [(p, outgoing.payload) for p in range(len(neighbours))]
        else:
            items = list(outgoing.items())
        for vport, payload in items:
            other = neighbours[vport]
            rport = spec.recv_port[(virt, other)]
            plan = spec.send_plan[(virt, other)]
            if plan[0] == "internal":
                self.virt_round_inbox.setdefault(other, {})[rport] = payload
            elif plan[0] == "direct":
                sends.setdefault(plan[1], []).append(("dlv", other, rport, payload))
            else:
                sends.setdefault(plan[1], []).append(("rly", other, rport, payload))

    def _advance(self, starting, sends):
        # Swap buffers so internal (same-host) messages dispatched during
        # this virtual round land in the *next* round's inbox — exactly
        # the one-round latency a real edge has.
        current = self.virt_round_inbox
        self.virt_round_inbox = {}
        for virt in self.spec.hosted.get(self.ctx.node, ()):
            sub = self.subs[virt]
            if sub.done:
                continue
            if starting:
                outgoing = sub.start()
            else:
                outgoing = sub.receive(current.get(virt, {}))
            self._dispatch(virt, outgoing, sends)
            if sub.done:
                self.outputs[virt] = sub.result

    def _absorb(self, inbox, sends):
        table = self.spec.forward_plan.get(self.ctx.node, {})
        for port, message in inbox.items():
            if not (isinstance(message, tuple) and message and message[0] == "vmsg"):
                continue
            _, payloads, fin = message
            if fin:
                self.announced_ports.add(port)
            for kind, virt, rport, payload in payloads:
                if kind == "dlv":
                    self.virt_round_inbox.setdefault(virt, {})[rport] = payload
                else:
                    out_port = table[virt]
                    sends.setdefault(out_port, []).append(
                        ("dlv", virt, rport, payload)
                    )

    def _emit(self, sends, fin):
        """Build the per-port physical messages; fin goes to every port."""
        if fin:
            return {
                port: ("vmsg", tuple(sends.get(port, ())), True)
                for port in range(self.ctx.degree)
            }
        if not sends:
            return None
        return {
            port: ("vmsg", tuple(payloads), False)
            for port, payloads in sends.items()
        }

    def _maybe_finish(self):
        if self._virts_all_done() and self.client_ports <= self.announced_ports:
            self.finish(dict(self.outputs))

    # -- NodeProcess API --------------------------------------------------
    def start(self):
        sends = {}
        fin = False
        if self.subs:
            self._advance(starting=True, sends=sends)
        if self._virts_all_done() and not self.announced:
            self.announced = True
            fin = True
        self._maybe_finish()
        return self._emit(sends, fin)

    def receive(self, inbox):
        sends = {}
        self._absorb(inbox, sends)
        self.phase += 1
        relay_only = self.spec.dilation == 2 and self.phase % 2 == 1
        if not relay_only and not self._virts_all_done():
            self._advance(starting=False, sends=sends)
        fin = False
        if self._virts_all_done() and not self.announced:
            self.announced = True
            fin = True
        self._maybe_finish()
        return self._emit(sends, fin)


def virtualize(spec, algorithm, *, virt_inputs=None, name=None):
    """Wrap ``algorithm`` (for the derived graph) as a physical algorithm.

    The wrapped algorithm's output at a physical node is the dict
    ``virtual node -> output``; use :func:`flatten_outputs` to merge the
    per-host dicts into a single mapping over virtual nodes.
    """
    virt_inputs = virt_inputs or {}
    return LocalAlgorithm(
        name=name or f"virtual[{algorithm.name}]",
        process=lambda ctx: _VirtualHostProcess(
            ctx, spec, algorithm, virt_inputs
        ),
        requires=algorithm.requires,
        randomized=algorithm.randomized,
    )


def _drive_virtual(
    spec, algorithm, physical, *, cap, virt_inputs, guesses, seed, salt
):
    """Drive a virtual run's kernel within physical cap ``cap``.

    The shared prologue of :func:`run_virtual_batch_values` and
    :func:`run_virtual_batch_full`.  Returns ``(bg, results, commit)``
    — the virtual ``BatchGraph``, each bg index's result as an array
    (:func:`~repro.local.batch.fold_commits`) and :func:`_host_commits`'
    commit array — or ``None`` when the run is ineligible (empty spec,
    no ``algorithm.batch`` factory) or the factory declines.

    The drive is one :func:`~repro.local.batch.drive_kernel` call (D17,
    D30).  Virtual round ``k`` is engine round ``k-1`` and runs at
    physical round ``(k-1) * dilation``, so the drive gets the engine
    cap ``cap // dilation`` and its commits map back by ``+1``; the
    nodes still running at the cap fold to virtual round 0, so their
    hosts never commit and their result (0) is never read.
    """
    if algorithm.batch is None:
        return None
    bg = batch_graph_of_spec(spec)
    if not bg.n:
        return None
    guesses = require_guesses(
        algorithm, guesses, name=f"virtual[{algorithm.name}]"
    )
    draws = virtual_draw_builder(bg, spec.host_index, physical, seed, salt)
    kernel = algorithm.batch(bg, BatchSetup(virt_inputs or {}, guesses, draws))
    if kernel is None:
        return None
    events, _rounds, _messages = drive_kernel(kernel, cap // spec.dilation)
    undone = () if kernel.done else kernel.undone_indices()
    round_of, results = fold_commits(events, bg.n, undone, 0, -1)
    note_stepping("rf")
    return bg, results, _host_commits(spec, physical, round_of + 1)


def _host_commits(spec, physical, finish):
    """Replay the host announce/commit protocol from kernel finish data.

    ``finish[i]`` is the virtual round (1-based) bg node ``i`` finished
    in, 0 = not within the simulated horizon.  Returns one physical
    commit round per physical CSR index (-1 = beyond the horizon): a
    host announces at the physical round its last virtual node
    finishes, a relay additionally waits one round past each client
    host's announcement.
    """
    n = physical.compiled().n
    hosts = spec.host_index
    relays, clients = spec.relays
    last = np.zeros(n, dtype=np.int64)
    np.maximum.at(last, hosts, finish)
    announce = np.maximum(last - 1, 0) * spec.dilation
    never = np.zeros(n, dtype=bool)
    never[hosts[finish == 0]] = True
    commit = announce.copy()
    np.maximum.at(commit, relays, announce[clients] + 1)
    never[relays[never[clients]]] = True
    commit[never] = -1
    return commit


def run_virtual_batch_values(
    spec,
    algorithm,
    physical,
    *,
    cap,
    virt_inputs,
    guesses,
    seed,
    salt,
    default_output,
):
    """Budgeted virtual run through a batch kernel; ``None`` = ineligible.

    The host simulation (``virtualize`` + the physical runner) exists to
    realize the derived-graph execution on the network; its *observable*
    product at the domain level is the per-virtual-node output map.  When
    the inner algorithm registers a batch kernel, this driver produces
    that map bit-identically without materializing a physical transcript,
    as an array of outputs in the order of the spec's ``BatchGraph``
    (virtual identity order): int64 when every output and the default
    are ints, else object.

    * the kernel runs directly on the virtual graph's CSR (node order =
      virtual identity order), with each virtual node's random stream
      derived exactly as the hosts derive it (host base draw + sub
      stream, :func:`virtual_draw_builder`);
    * virtual round ``k`` corresponds to physical round
      ``(k-1) * dilation``, so the kernel runs at most
      ``cap // dilation + 1`` virtual rounds;
    * host commit times are replayed from the announcement protocol: a
      host announces when its last hosted virtual node finishes, a relay
      additionally waits one round past each client host's announcement
      (``relay_client_ports`` ↦ client hosts through the physical port
      map).  Hosts whose commit round exceeds the physical budget
      contribute the default output for all their virtual nodes —
      exactly the truncation semantics of the simulated run.

    Equivalence with the host path is asserted by the equivalence suite
    for full, truncated and restricted-spec runs.
    """
    driven = _drive_virtual(
        spec, algorithm, physical, cap=cap, virt_inputs=virt_inputs,
        guesses=guesses, seed=seed, salt=salt,
    )
    if driven is None:
        return None
    bg, results, commit = driven
    committed = commit[spec.host_index]
    ready = (committed >= 0) & (committed <= cap)
    if results.dtype.kind == "i" and _is_int64(default_output):
        return np.where(ready, results, default_output)
    return np.fromiter(
        (
            default_output if not ok or value is None else value
            for ok, value in zip(ready.tolist(), results.tolist())
        ),
        dtype=object,
        count=bg.n,
    )


def run_virtual_batch(spec, algorithm, physical, **kwargs):
    """:func:`run_virtual_batch_values` as a ``virtual node -> output``
    dict; ``None`` = ineligible."""
    values = run_virtual_batch_values(spec, algorithm, physical, **kwargs)
    if values is None:
        return None
    return dict(zip(spec._batch.labels, values.tolist()))


def run_virtual_batch_full(
    spec,
    algorithm,
    physical,
    *,
    cap,
    virt_inputs,
    guesses,
    seed,
    salt,
):
    """Full (self-terminating) virtual run through a batch kernel.

    Closes the ROADMAP "still per-node" gap for ``run_full`` on virtual
    domains: with no declared round budget to hand the driver, the
    kernel is driven to its fixed point (every virtual node finished),
    capped only by the physical round limit.  The observable product
    mirrors the host simulation bit for bit: the per-virtual-node
    output map plus the physical
    running time ``max(host commit rounds)`` replayed from the
    announcement protocol — and when the cap bites, the same
    :class:`~repro.errors.NonTerminationError` the physical runner
    would raise for the wrapped algorithm, listing the hosts that could
    not commit.  Returns ``(outputs, rounds)`` or ``None`` when the
    configuration is ineligible for the batch path.
    """
    driven = _drive_virtual(
        spec, algorithm, physical, cap=cap, virt_inputs=virt_inputs,
        guesses=guesses, seed=seed, salt=salt,
    )
    if driven is None:
        return None
    bg, results, commit = driven
    overdue = ((commit < 0) | (commit > cap)).nonzero()[0].tolist()
    if overdue:
        # Same diagnostics the physical runner raises for the wrapped
        # algorithm: the hosts still active at the cap, identity order.
        labels = physical.compiled().labels
        raise NonTerminationError(
            f"virtual[{algorithm.name}]", cap, [labels[i] for i in overdue]
        )
    return dict(zip(bg.labels, results.tolist())), int(commit.max(initial=0))


def flatten_outputs(spec, physical_outputs, *, default=None):
    """Merge per-host output dicts into ``virtual node -> output``."""
    merged = {virt: default for virt in spec.virtual_nodes}
    for p, value in physical_outputs.items():
        if isinstance(value, dict):
            for virt, out in value.items():
                merged[virt] = out
    return merged
