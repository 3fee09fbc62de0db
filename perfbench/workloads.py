"""The workloads: inputs made from a seed, one op, and its checks.

Every op is a whole user request.  A workload's ``op(tr, c, j)`` runs
the ``j``-th op of cycle ``c``; its inputs depend only on the workload
seed, ``c`` and ``j``, so the same seed repeats the same work exactly.

Each call into a layer sits inside ``tr.span(<layer>)``; the span names
are the per-layer metric names without their ``_s`` suffix.  ``probes``
lists calls that happen inside a public function and are wrapped only in
traced cycles (see :meth:`tracing.Tracer.patched`).  ``pace`` names the
reference kernel whose kind of work matches the op (see ``pace.py``).
"""

from __future__ import annotations

import math
import random
from contextlib import ExitStack

from repro.algorithms.fast_mis import fast_mis
from repro.algorithms.hash_luby import hash_luby_mis
from repro.algorithms.luby import luby_mis
from repro.algorithms.registry import TABLE1
from repro.bench import WORKLOADS as FAMILIES
from repro.bench import harness
from repro.graphs.identifiers import poly_idents
from repro.local import GraphDelta, SimGraph, open_session, run_many
from repro.local.batch import batch_graph_of
from repro.params import actual_parameters
from repro.problems import MIS

#: Table-1 rows in cycle order, with the graph family each is measured on.
#: The arboricity rows run on trees, not forest-3: the exact arboricity
#: oracle (Goldberg's binary search, ``graphs.params.max_density``) costs
#: 0.5 s on most forest-3 graphs at n=1000 but 15 s on about one in four,
#: which no run here is long enough to average.  On a tree the whole
#: graph is always the densest subgraph, so the oracle takes one flow.
TABLE1_ROWS = (
    ("mis-fast", "gnp-sparse"),
    ("mis-nonly", "gnp-sparse"),
    ("luby", "gnp-sparse"),
    ("matching", "gnp-sparse"),
    ("ruling-c1", "gnp-sparse"),
    ("mis-arb-product", "tree"),
    ("mis-arb-nonly", "tree"),
)


def derive(seed, *parts):
    """A 31-bit seed that depends only on ``seed`` and ``parts``."""
    return random.Random(":".join(map(str, (seed,) + parts))).randrange(2**31)


class Outcome:
    """What one op produced: exact round counts and outputs to verify.

    ``checks`` holds ``(problem, graph, outputs)`` triples; ``ratio`` is
    the op's uniform ÷ oracle-knowledge rounds.
    """

    __slots__ = ("rounds", "ratio", "checks")

    def __init__(self, rounds, ratio, checks):
        self.rounds = rounds
        self.ratio = ratio
        self.checks = checks


def verify(tr, outcome):
    """Check every output of ``outcome`` with its ``repro.problems`` verifier."""
    ok = True
    for problem, graph, outputs in outcome.checks:
        with tr.span("problems.verify"):
            ok = problem.is_solution(graph, {}, outputs) and ok
    return ok


def build(tr, family, n, seed):
    """Generate → identities → ``SimGraph`` → CSR: a cold graph request."""
    with tr.span("graphs.generate"):
        nx_graph = FAMILIES[family](n, seed=seed)
    with tr.span("graphs.idents"):
        idents = poly_idents(nx_graph, seed=seed)
    with tr.span("local.graph.from_networkx"):
        graph = SimGraph.from_networkx(nx_graph, idents=idents)
    with tr.span("local.engine.compile"):
        graph.compiled()
    return nx_graph, graph


def count_run(tr, result):
    tr.count("local.runner.rounds", result.rounds)
    tr.count("local.runner.messages", result.messages)


class Table1Repro:
    """One op is one Table-1 measurement, step for step ``measure_row``.

    The graph, identities, ``SimGraph`` and oracle parameters are built
    inside the op, then the non-uniform box and the uniform transform
    run and both outputs are verified.
    """

    name = "table1-repro"
    verify_in_op = True
    tail_q = 0.83
    pace = "interpreter"
    labels = tuple(row for row, _ in TABLE1_ROWS)
    probes = (
        (harness, "actual_parameters", "params.actual", None),
        (harness, "run", "local.runner.run", count_run),
    )

    def __init__(self, seed, n=1000):
        self.seed = seed
        self.n = n

    def setup(self, tr):
        pass

    def op(self, tr, c, j):
        row_id, family = TABLE1_ROWS[j]
        seed = derive(self.seed, row_id, c)
        _, graph = build(tr, family, self.n, seed)
        row = TABLE1[row_id]
        nonuniform, _, uniform = row.build()
        with tr.span("core.nonuniform"):
            nu_rounds, nu_outputs, _ = harness.measure_nonuniform(
                nonuniform, graph, seed=seed
            )
        with tr.span("core.uniform"):
            result = uniform.run(graph, seed=seed)
        tr.count("core.steps", len(result.steps))
        tr.count("core.pruned", sum(step.pruned for step in result.steps))
        tr.count("core.nodes_before", sum(step.nodes_before for step in result.steps))
        return Outcome(
            nu_rounds + result.rounds,
            result.rounds / nu_rounds,
            [(row.problem, graph, nu_outputs), (row.problem, graph, result.outputs)],
        )

    def close(self):
        pass


class GuessSweep:
    """One op is one ``run_many`` call at one guess level k.

    Each call runs ``lanes`` seeds of fast MIS with Δ̃=Δ·2^k and
    m̃=m^(k+1), hash-Luby with ñ=n^(k+1), and Luby (no guesses).  A cycle
    runs k = 0, 1, 2 on one graph with the same lane seeds; the rounds
    ratio of a lane is its rounds over its rounds at k=0 in that cycle,
    the oracle guesses.  Set-up builds ``graphs`` graphs and cycles take
    them in turn, so a run averages over the seed's graphs' Δ.
    """

    name = "guess-sweep"
    verify_in_op = False
    tail_q = 0.75
    pace = "vectorised"
    levels = (0, 1, 2)
    labels = tuple(f"k{k}" for k in levels)
    probes = ()

    def __init__(self, seed, n=2000, lanes=8, graphs=8):
        self.seed = seed
        self.n = n
        self.lanes = lanes
        self.graphs = graphs

    def setup(self, tr):
        self.pool = []
        for g in range(self.graphs):
            _, graph = build(tr, "gnp-sparse", self.n, derive(self.seed, "graph", g))
            with tr.span("local.batch.mirror"):
                batch_graph_of(graph.compiled())
            with tr.span("params.actual"):
                truth = actual_parameters(graph, ["Delta", "m", "n"])
            self.pool.append((graph, truth))
        self.algorithms = (fast_mis(), hash_luby_mis(), luby_mis())

    def _sweep(self, tr, c, k):
        graph, truth = self.pool[c % len(self.pool)]
        guesses = (
            {"Delta": truth["Delta"] * 2**k, "m": truth["m"] ** (k + 1)},
            {"n": truth["n"] ** (k + 1)},
            {},
        )
        jobs = [
            (graph, algorithm, {"guesses": g, "seed": derive(self.seed, c, s)})
            for algorithm, g in zip(self.algorithms, guesses)
            for s in range(self.lanes)
        ]
        with tr.span("local.fused.run_many"):
            results = run_many(jobs)
        for at in range(0, len(results), self.lanes):
            rounds = [r.rounds for r in results[at : at + self.lanes]]
            tr.count("local.fused.lane_rounds", sum(rounds))
            tr.count("local.fused.lane_slots", len(rounds) * max(rounds))
        return graph, results

    def op(self, tr, c, j):
        graph, results = self._sweep(tr, c, self.levels[j])
        rounds = [r.rounds for r in results]
        if j == 0:
            self.base = rounds
        log_ratio = sum(math.log(r / b) for r, b in zip(rounds, self.base))
        return Outcome(
            sum(rounds),
            math.exp(log_ratio / len(rounds)),
            [(MIS, graph, r.outputs) for r in results],
        )

    def close(self):
        pass


def churn_deltas(nx_graph, steps, rng):
    """``steps`` random edits (2 deletions + 2 insertions), then their undo.

    Applying the whole list returns the graph to its start, so a cycle
    of ops can repeat forever on the same sequence of topologies.
    """
    graph = nx_graph.copy()
    nodes = list(graph.nodes())
    forward = []
    for _ in range(steps):
        dels = rng.sample(list(graph.edges()), 2)
        graph.remove_edges_from(dels)
        gone = {frozenset(e) for e in dels}
        adds = []
        while len(adds) < 2:
            u, v = rng.sample(nodes, 2)
            if graph.has_edge(u, v) or frozenset((u, v)) in gone:
                continue
            graph.add_edge(u, v)
            adds.append((u, v))
        forward.append((dels, adds))
    undo = [GraphDelta(del_edges=a, add_edges=d) for d, a in reversed(forward)]
    return [GraphDelta(del_edges=d, add_edges=a) for d, a in forward] + undo


class SessionChurn:
    """One op is one session request: ``mutate`` a small delta, ``rerun`` Luby."""

    name = "session-churn"
    verify_in_op = False
    tail_q = 0.95
    pace = "interpreter"
    steps = 8
    labels = ("churn",) * (2 * steps)
    probes = ()

    def __init__(self, seed, n=10000):
        self.seed = seed
        self.n = n
        self.session = None

    def setup(self, tr):
        self.close()
        nx_graph, graph = build(tr, "regular-4", self.n, derive(self.seed, "graph"))
        self.deltas = churn_deltas(
            nx_graph, self.steps, random.Random(derive(self.seed, "deltas"))
        )
        self.algorithm = luby_mis()
        self.session = open_session(graph)

    def op(self, tr, c, j):
        session = self.session
        with tr.span("local.service.mutate"):
            session.mutate(self.deltas[j])
        with tr.span("local.service.rerun"):
            result = session.rerun(self.algorithm, seed=derive(self.seed, c, j))
        # Luby needs no global knowledge: uniform and oracle runs coincide.
        return Outcome(result.rounds, 1.0, [(MIS, session.graph, result.outputs)])

    def close(self):
        if self.session is not None:
            self.session.close()
            self.session = None


WORKLOADS = {w.name: w for w in (Table1Repro, GuessSweep, SessionChurn)}

#: Sizes small enough for a warm-up request and for the tests.
TINY = {
    "table1-repro": {"n": 40},
    "guess-sweep": {"n": 60, "lanes": 2, "graphs": 2},
    "session-churn": {"n": 60},
}


def warm_up(tr, seed):
    """One tiny cycle of every workload, so every layer has run once."""
    for name, workload_cls in WORKLOADS.items():
        workload = workload_cls(seed, **TINY[name])
        try:
            with ExitStack() as probes:
                for probe in workload.probes:
                    probes.enter_context(tr.patched(*probe))
                _warm_cycle(tr, workload, name)
        finally:
            workload.close()


def _warm_cycle(tr, workload, name):
    workload.setup(tr)
    for j, label in enumerate(workload.labels):
        with tr.setup_op(label):
            ok = verify(tr, workload.op(tr, 0, j))
        if not ok:
            raise RuntimeError(f"warm-up {name} op {j} failed verification")
