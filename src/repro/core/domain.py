"""Execution domains: where a transformer runs its black-box algorithm.

The transformers of Theorems 1–5 repeatedly (a) run an algorithm with a
round budget, (b) run a pruning algorithm, and (c) restrict the instance
to the non-pruned nodes.  They do not care whether the nodes are the
physical network's nodes or virtual nodes of a derived graph (line graph,
clique product) — so both are hidden behind a :class:`Domain`:

* :class:`PhysicalDomain` — a :class:`~repro.local.graph.SimGraph` driven
  by the plain synchronous runner;
* :class:`VirtualDomain` — a derived graph executed through
  :mod:`repro.local.virtual`; round budgets are charged at the simulation
  dilation (×2 for line graphs) plus a constant bookkeeping overhead,
  keeping the round ledgers honest about what the physical network pays.

Restriction semantics follow the paper: a budgeted run forces the default
output ("0") on nodes that have not terminated.

Domain runs honour the ambient execution record
(:func:`repro.local.execution.use_backend`) and accept a ``backend``
override per call (resolved once into one
:class:`~repro.local.execution.Execution`, exactly as
:func:`repro.local.runner.run` resolves it) — so a whole transformer
pipeline switches executor without the transformers knowing: each
alternation step's guess run *and* pruning run execute under the
scope's record.
Restriction uses the incremental subgraph paths (``SimGraph.subgraph``
/ ``VirtualSpec.restricted``), so one alternation step costs O(pruned
work), not O(steps · n log n).
"""

from __future__ import annotations

import numpy as np

from ..local.batch import batch_graph_of_spec
from ..local.execution import current, resolve
from ..local.graph import SimGraph
from ..local.runner import execute, round_cap
from ..local.virtual import (
    VirtualSpec,
    flatten_outputs,
    run_virtual_batch_full,
    run_virtual_batch_values,
    virtualize,
)

#: Extra physical rounds charged per virtual-domain run for the
#: host-announcement handshake of the virtual layer.
VIRTUAL_OVERHEAD = 3


class Domain:
    """Common interface over physical and derived execution graphs."""

    @property
    def nodes(self):
        raise NotImplementedError

    @property
    def n(self):
        return len(self.nodes)

    def ident(self, u):
        raise NotImplementedError

    def degree(self, u):
        raise NotImplementedError

    def neighbors(self, u):
        raise NotImplementedError

    def run_restricted(self, algorithm, budget, **kwargs):
        """Run with a round budget; returns ``(outputs, rounds_charged)``.

        ``rounds_charged`` is what the physical network pays for the
        budget — the aligned-schedule cost of the paper's sub-iterations
        (the full budget, not the realized rounds, because every node
        must know when the phase ends).
        """
        raise NotImplementedError

    def run_full(self, algorithm, **kwargs):
        """Run to self-termination; returns ``(outputs, rounds_used)``."""
        raise NotImplementedError

    def subgraph(self, keep):
        """Domain induced on the surviving nodes."""
        raise NotImplementedError

    def as_simgraph(self):
        """Materialize the domain's graph for centralized verification."""
        raise NotImplementedError


class PhysicalDomain(Domain):
    """The network itself."""

    def __init__(self, graph):
        if not isinstance(graph, SimGraph):
            raise TypeError("PhysicalDomain wraps a SimGraph")
        self.graph = graph

    @property
    def nodes(self):
        return self.graph.nodes

    def ident(self, u):
        return self.graph.ident[u]

    def degree(self, u):
        return self.graph.degree(u)

    def neighbors(self, u):
        return self.graph.neighbors(u)

    def run_restricted(
        self,
        algorithm,
        budget,
        *,
        inputs=None,
        guesses=None,
        seed=0,
        salt=0,
        default_output=0,
        backend=None,
    ):
        result = execute(
            self.graph,
            algorithm,
            resolve(backend),
            max_rounds=budget,
            default_output=default_output,
            truncate=True,
            inputs=inputs,
            guesses=guesses,
            seed=seed,
            salt=salt,
        )
        return result.outputs, budget

    def run_full(
        self,
        algorithm,
        *,
        inputs=None,
        guesses=None,
        seed=0,
        salt=0,
        max_rounds=None,
        backend=None,
    ):
        result = execute(
            self.graph,
            algorithm,
            resolve(backend),
            inputs=inputs,
            guesses=guesses,
            seed=seed,
            salt=salt,
            max_rounds=max_rounds,
        )
        return result.outputs, result.rounds

    def subgraph(self, keep):
        return PhysicalDomain(self.graph.subgraph(keep))

    def as_simgraph(self):
        return self.graph


class VirtualDomain(Domain):
    """A derived graph simulated on the physical network.

    Budgets are given in *virtual* rounds; the charge is
    ``budget * dilation + VIRTUAL_OVERHEAD`` physical rounds.
    """

    def __init__(self, physical, spec):
        if not isinstance(spec, VirtualSpec):
            raise TypeError("VirtualDomain wraps a VirtualSpec")
        self.physical = physical
        self.spec = spec

    @property
    def nodes(self):
        return self.spec.virtual_nodes

    def ident(self, u):
        return self.spec.ident[u]

    def degree(self, u):
        return len(self.spec.adj[u])

    def neighbors(self, u):
        return self.spec.adj[u]

    def run_restricted(self, algorithm, budget, **kwargs):
        values, charged = self.run_restricted_values(algorithm, budget, **kwargs)
        labels = batch_graph_of_spec(self.spec).labels
        return dict(zip(labels, values.tolist())), charged

    def run_restricted_values(
        self,
        algorithm,
        budget,
        *,
        inputs=None,
        guesses=None,
        seed=0,
        salt=0,
        default_output=0,
        backend=None,
    ):
        """:meth:`run_restricted` with the outputs as an array in the
        order of the spec's ``BatchGraph`` (virtual identity order)."""
        execution = resolve(backend)
        physical_budget = budget * self.spec.dilation + VIRTUAL_OVERHEAD
        if execution.backend == "compiled":
            # Batched fast path: the kernel runs on the virtual graph
            # itself and the host commit protocol is replayed from the
            # spec's routing tables — bit-identical domain outputs with
            # no per-virtual-node host simulation (DESIGN.md D10).
            values = run_virtual_batch_values(
                self.spec,
                algorithm,
                self.physical,
                cap=physical_budget,
                virt_inputs=inputs or {},
                guesses=guesses,
                seed=seed,
                salt=salt,
                default_output=default_output,
            )
            if values is not None:
                return values, physical_budget
        wrapped = virtualize(self.spec, algorithm, virt_inputs=inputs or {})
        result = execute(
            self.physical,
            wrapped,
            execution,
            max_rounds=physical_budget,
            truncate=True,
            guesses=guesses,
            seed=seed,
            salt=salt,
        )
        outputs = flatten_outputs(
            self.spec, result.outputs, default=default_output
        )
        labels = batch_graph_of_spec(self.spec).labels
        values = np.fromiter(
            (
                default_output if outputs[virt] is None else outputs[virt]
                for virt in labels
            ),
            dtype=object,
            count=len(labels),
        )
        return values, physical_budget

    def run_full(
        self,
        algorithm,
        *,
        inputs=None,
        guesses=None,
        seed=0,
        salt=0,
        max_rounds=None,
        backend=None,
    ):
        execution = resolve(backend)
        if execution.backend == "compiled":
            # Batched full run (D10 closure): step the kernel to its
            # fixed point and replay the host commit rounds — no host
            # simulation, same outputs/rounds.
            got = run_virtual_batch_full(
                self.spec,
                algorithm,
                self.physical,
                cap=round_cap(max_rounds, False),
                virt_inputs=inputs or {},
                guesses=guesses,
                seed=seed,
                salt=salt,
            )
            if got is not None:
                return got
        wrapped = virtualize(self.spec, algorithm, virt_inputs=inputs or {})
        result = execute(
            self.physical,
            wrapped,
            execution,
            guesses=guesses,
            seed=seed,
            salt=salt,
            max_rounds=max_rounds,
        )
        return flatten_outputs(self.spec, result.outputs), result.rounds

    def subgraph(self, keep):
        if current().backend == "reference":
            # Seed-faithful path: rebuild the spec (and its routes) from
            # scratch, as the original implementation did.
            keep = set(keep)
            adj = {
                v: [w for w in self.spec.adj[v] if w in keep]
                for v in self.spec.virtual_nodes
                if v in keep
            }
            host = {v: self.spec.host[v] for v in adj}
            ident = {v: self.spec.ident[v] for v in adj}
            spec = VirtualSpec(host, ident, adj, self.physical)
            return VirtualDomain(self.physical, spec)
        return VirtualDomain(self.physical, self.spec.restricted(keep))

    def as_simgraph(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.spec.virtual_nodes)
        for v, neighbours in self.spec.adj.items():
            for w in neighbours:
                graph.add_edge(v, w)
        return SimGraph.from_networkx(graph, idents=self.spec.ident)


def as_domain(graph_or_domain):
    """Coerce a SimGraph into a PhysicalDomain (Domains pass through)."""
    if isinstance(graph_or_domain, Domain):
        return graph_or_domain
    if isinstance(graph_or_domain, SimGraph):
        return PhysicalDomain(graph_or_domain)
    raise TypeError(
        f"expected SimGraph or Domain, got {type(graph_or_domain).__name__}"
    )
