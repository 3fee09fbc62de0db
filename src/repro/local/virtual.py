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
stands in for that constant-round construction.  What is computed, and
when, depends on who reads it: hosting, identities, virtual ports, the
dilation and each relay's client ports are built with the spec, because
the batched virtual driver reads them; the host-process routing plans
(``send_plan``, ``forward_plan``, ``recv_port``) are built eagerly by
the validating dict constructor, but only on first access in an
array-built spec (:func:`repro.graphs.line_graph_spec`), since only the
host process and :meth:`VirtualSpec.restricted` read them.

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

from ..errors import InvalidInstanceError, NonTerminationError
from .algorithm import LocalAlgorithm, NodeProcess, capabilities_of
from .batch import (
    BatchSetup,
    available as batch_available,
    batch_graph_of_spec,
    drive_kernel,
    virtual_draw_builder,
)
from .context import NodeContext, counter_rng
from .message import Broadcast
from .runner import note_stepping, require_guesses


class VirtualSpec:
    """Hosting and routing data for a derived (virtual) graph.

    Attributes
    ----------
    host:
        Mapping virtual node -> physical node.
    ident:
        Mapping virtual node -> unique integer identity.
    adj:
        Mapping virtual node -> tuple of neighbour virtual nodes (virtual
        ports follow this order).
    hosted:
        Mapping physical node -> list of its virtual nodes, identity
        order (only hosts with at least one virtual node appear).
    dilation:
        Physical rounds per virtual round (1 without relays, else 2).
    relay_client_ports:
        Mapping relay -> frozenset of the relay's ports towards the hosts
        whose traffic routes through it.
    physical:
        The physical :class:`~repro.local.graph.SimGraph` the spec routes
        over.
    recv_port, send_plan, forward_plan:
        The host-process routing plans (see :meth:`_build_routes`).  The
        dict constructor builds them eagerly, validating the instance;
        array-built specs build them on first access, since only the
        host process and :meth:`restricted` read them.
    """

    __slots__ = (
        "host",
        "ident",
        "adj",
        "dilation",
        "hosted",
        "relay_client_ports",
        "physical",
        "_recv_port",
        "_send_plan",
        "_forward_plan",
        "_batch",
    )

    def __init__(self, host, ident, adj, physical_graph):
        self.host = dict(host)
        self.ident = dict(ident)
        self.adj = {v: tuple(neigh) for v, neigh in adj.items()}
        if len(set(self.ident.values())) != len(self.ident):
            raise InvalidInstanceError("virtual identities must be unique")
        self.hosted = {}
        for virt, p in self.host.items():
            self.hosted.setdefault(p, []).append(virt)
        for p in self.hosted:
            self.hosted[p].sort(key=lambda v: self.ident[v])
        self.physical = physical_graph
        self._recv_port = None
        #: Lazily built numpy mirror, shared by a step's guess and
        #: pruner runs.
        self._batch = None
        # Eager on purpose: asymmetric adjacency and virtual edges
        # without a physical route of length <= 2 raise here.
        self.dilation, self.relay_client_ports = self._build_routes()

    @classmethod
    def _assemble(
        cls, physical, host, ident, adj, hosted, dilation, relay_client_ports,
        *, batch=None,
    ):
        """A spec from already-derived fields; the plans stay lazy.

        No validation: callers derive the fields from an instance that
        is valid by construction (a physical CSR, or a valid spec).
        """
        spec = object.__new__(cls)
        spec.host = host
        spec.ident = ident
        spec.adj = adj
        spec.hosted = hosted
        spec.dilation = dilation
        spec.relay_client_ports = relay_client_ports
        spec.physical = physical
        spec._recv_port = None
        spec._send_plan = None
        spec._forward_plan = None
        spec._batch = batch
        return spec

    @property
    def recv_port(self):
        """``(sender, receiver) -> receiver's port of the sender``."""
        table = self._recv_port
        if table is None:
            table = self._recv_port = {}
            for virt, neighbours in self.adj.items():
                for port, other in enumerate(neighbours):
                    table[(other, virt)] = port
        return table

    @property
    def send_plan(self):
        """``(sender, receiver) -> plan``: internal, direct or relay."""
        if self._send_plan is None:
            self._build_routes()
        return self._send_plan

    @property
    def forward_plan(self):
        """``relay -> {receiver: relay's port to the receiver's host}``."""
        if self._forward_plan is None:
            self._build_routes()
        return self._forward_plan

    def _build_routes(self):
        """Fill the send and forward plans; return dilation and relay ports.

        Raises :class:`InvalidInstanceError` on asymmetric adjacency or a
        virtual edge whose hosts have no physical route of length <= 2.

        A relayed pair routes through its common neighbour of smallest
        identity.  The array line-graph builder
        (``repro.graphs.transforms._line_graph_relays``) applies the same
        rule to derive ``dilation`` and ``relay_client_ports`` without
        these plans; the two must agree, and the oracle tests in
        ``tests/test_virtual.py`` compare both.
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
        spec = VirtualSpec._assemble(
            self.physical,
            {v: self.host[v] for v in adj},
            {v: self.ident[v] for v in adj},
            adj,
            hosted,
            2 if relay_client_ports else 1,
            {
                relay: frozenset(ports)
                for relay, ports in relay_client_ports.items()
            },
        )
        spec._send_plan = send_plan
        spec._forward_plan = forward_plan
        return spec

    @property
    def virtual_nodes(self):
        return tuple(self.adj.keys())


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

    The shared prologue of :func:`run_virtual_batch` and
    :func:`run_virtual_batch_full`.  Returns ``(results, vindex,
    commit)`` — bg index -> result of every node that finished, virtual
    label -> bg index, and :func:`_host_commits`' host -> physical
    commit round — or ``None`` when the run is ineligible (numpy
    missing, empty spec, no batch capability) or the factory declines.

    The drive is one :func:`~repro.local.batch.drive_kernel` call (D17,
    D30).  Virtual round ``k`` is engine round ``k-1`` and runs at
    physical round ``(k-1) * dilation``, so the drive gets the engine
    cap ``cap // dilation`` and its events map back by ``+1``.
    """
    if not batch_available() or not spec.adj:
        return None
    if not capabilities_of(algorithm).get("supports_batch"):
        return None
    guesses = require_guesses(
        algorithm, guesses, name=f"virtual[{algorithm.name}]"
    )
    bg = batch_graph_of_spec(spec)
    draws = virtual_draw_builder(bg, spec, physical, seed, salt)
    kernel = algorithm.batch(bg, BatchSetup(virt_inputs or {}, guesses, draws))
    if kernel is None:
        return None
    finish_vround = {}
    results = {}
    events, _rounds, _messages = drive_kernel(kernel, cap // spec.dilation)
    for rnd, finished, values in events:
        for i, value in zip(finished, values):
            finish_vround[i] = rnd + 1
            results[i] = value
    note_stepping("rf")
    vindex = {label: i for i, label in enumerate(bg.labels)}
    commit = _host_commits(spec, physical, finish_vround, vindex)
    return results, vindex, commit


def _host_commits(spec, physical, finish_vround, vindex):
    """Replay the host announce/commit protocol from kernel finish data.

    ``finish_vround`` maps bg index -> virtual round (1-based) the node
    finished in; missing = not within the simulated horizon.  Returns
    ``host -> physical commit round`` (``None`` = beyond the horizon):
    a host announces at the physical round its last virtual node
    finishes, a relay additionally waits one round past each client
    host's announcement.
    """
    dilation = spec.dilation
    announce = {}
    for p in physical.nodes:
        virts = spec.hosted.get(p)
        if not virts:
            announce[p] = 0
            continue
        last = 0
        for v in virts:
            k = finish_vround.get(vindex[v])
            if k is None:
                last = None
                break
            if k > last:
                last = k
        announce[p] = None if last is None else (last - 1) * dilation
    cg = physical.compiled()
    commit = dict(announce)
    for relay, ports in spec.relay_client_ports.items():
        worst = commit[relay]
        if worst is None:
            continue
        row = cg.offsets[cg.index[relay]]
        for port in ports:
            client_announce = announce[cg.labels[cg.neigh[row + port]]]
            if client_announce is None:
                worst = None
                break
            if client_announce + 1 > worst:
                worst = client_announce + 1
        commit[relay] = worst
    return commit


def run_virtual_batch(
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
    that map bit-identically without materializing a physical transcript:

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
    results, vindex, commit = driven
    outputs = {}
    host_of = spec.host
    for virt in spec.virtual_nodes:
        committed = commit[host_of[virt]]
        if committed is not None and committed <= cap:
            value = results[vindex[virt]]
            outputs[virt] = default_output if value is None else value
        else:
            outputs[virt] = default_output
    return outputs


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
    results, vindex, commit = driven
    overdue = [
        p
        for p in physical.nodes
        if commit[p] is None or commit[p] > cap
    ]
    if overdue:
        # Same diagnostics the physical runner raises for the wrapped
        # algorithm: the hosts still active at the cap, identity order.
        raise NonTerminationError(f"virtual[{algorithm.name}]", cap, overdue)
    outputs = {
        virt: results[vindex[virt]] for virt in spec.virtual_nodes
    }
    rounds = max(commit.values()) if commit else 0
    return outputs, rounds


def flatten_outputs(spec, physical_outputs, *, default=None):
    """Merge per-host output dicts into ``virtual node -> output``."""
    merged = {virt: default for virt in spec.virtual_nodes}
    for p, value in physical_outputs.items():
        if isinstance(value, dict):
            for virt, out in value.items():
                merged[virt] = out
    return merged
