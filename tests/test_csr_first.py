"""CSR-first construction and the CSR verifiers (DESIGN.md D31).

Construction: ``SimGraph.from_networkx`` and the two reference rebuild
paths (``subgraph_rebuild``, ``apply_delta_rebuild``) build the CSR
directly and derive the dict adjacency lazily.  The dict-first build
they replaced is kept here as the oracle: every graph must come out
identical — node order, identities, CSR arrays, the derived dict view
and degree table — whether the source lists its nodes and edges as
built or in a shuffled order.

Verifiers: the MIS, maximal-matching and ruling-set verifiers loop over
the CSR.  The dict loops they replaced are kept here as oracles and must
give the same ``Violation`` lists, entry for entry and in order, on
dict-born, CSR-born and restricted graphs.

Guards: a whole Table-1 request — build, non-uniform box, uniform
transform, oracle parameters, both verifications — never derives the
dict view; and the measured requests (every Table-1 row, a
``guess-sweep``-shaped ``run_many``, a session ``mutate`` + ``rerun``)
only ever drive batch kernels, so a kernel that starts declining cannot
silently move a workload onto the reference loop (D33).
"""

from __future__ import annotations

import random
import sys
from collections import deque

import networkx as nx
import pytest

from repro.algorithms.fast_mis import fast_mis
from repro.algorithms.greedy import greedy_matching, greedy_mis
from repro.algorithms.hash_luby import hash_luby_mis
from repro.algorithms.luby import luby_mis
from repro.algorithms.registry import TABLE1
from repro.bench import WORKLOADS as FAMILIES
from repro.bench import harness
from repro.errors import InvalidInstanceError
from repro.graphs.identifiers import poly_idents
from repro.local import GraphDelta, SimGraph, open_session, run_many
from repro.local import runner
from repro.params import actual_parameters
from repro.problems import (
    MAXIMAL_MATCHING,
    MIS,
    Violation,
    in_set,
    matched_pairs,
    require_outputs,
    ruling_set,
)


# ----------------------------------------------------------------------
# oracle: the dict-first build
# ----------------------------------------------------------------------
def dict_first_from_networkx(graph, idents=None):
    """``SimGraph.from_networkx`` as it was before the CSR-first build."""
    if graph.is_directed():
        raise InvalidInstanceError("LOCAL networks are undirected")
    if any(u == v for u, v in graph.edges()):
        raise InvalidInstanceError("self-loops are not allowed")
    if idents is None:
        labels = list(graph.nodes())
        if all(isinstance(u, int) for u in labels):
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
    if any((not isinstance(x, int)) or x < 1 for x in values):
        raise InvalidInstanceError(
            "identities must be positive integers (paper Section 2)"
        )
    return dict_first_build(list(graph.nodes()), idents, graph.adj)


def dict_first_build(labels, idents, neighbour_view):
    """Sort every row by identity and port it through a dict: dict-born."""
    nodes = sorted(labels, key=lambda u: idents[u])
    order = {}
    for u in nodes:
        order[u] = sorted(
            (v for v in neighbour_view[u] if v in idents and v != u),
            key=lambda v: idents[v],
        )
    port_of = {u: {v: p for p, v in enumerate(order[u])} for u in nodes}
    adj = {
        u: tuple((p, v, port_of[v][u]) for p, v in enumerate(order[u]))
        for u in nodes
    }
    return SimGraph(nodes, idents, adj)


def assert_same_graph(got, want):
    """``got`` is CSR-born and equals the dict-born oracle ``want``."""
    assert got._adj is None and got._degree is None
    assert got.nodes == want.nodes
    assert got.ident == want.ident
    cg, ref = got.compiled(), want.compiled()
    assert cg.labels == ref.labels
    assert cg.index == ref.index
    for field in ("idents", "offsets", "neigh", "rev", "degrees"):
        assert getattr(cg, field) == getattr(ref, field), field
    assert list(got.edges()) == list(want.edges())
    assert got.edge_count() == want.edge_count()
    assert got._adj is None  # nothing above derived the dict view
    assert got.adj == want.adj
    assert got._degrees == want._degrees


#: How a construction's source lists its nodes and edges.  The CSR is a
#: pure function of (labels, identities, edge set), so the order of
#: insertion and the orientation of each edge must not show.
ORDERS = ["as-built", "shuffled"]


def shuffled(items, rng):
    items = list(items)
    rng.shuffle(items)
    return items


def flipped(edges, rng):
    return [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]


def in_order(graph, order, seed):
    """``graph`` itself, or a copy whose nodes and edges were inserted
    in a seeded random order with each edge in a random orientation."""
    if order == "as-built":
        return graph
    rng = random.Random(seed)
    copy = nx.Graph()
    copy.add_nodes_from(shuffled(graph.nodes(), rng))
    copy.add_edges_from(shuffled(flipped(graph.edges(), rng), rng))
    return copy


def delta_in_order(delta, order, seed):
    """``delta`` itself, or the same edits listed in a seeded random
    order with each edge in a random orientation."""
    if order == "as-built":
        return delta
    rng = random.Random(seed)
    return GraphDelta(
        add_nodes=shuffled(delta.add_nodes, rng),
        del_nodes=shuffled(delta.del_nodes, rng),
        add_edges=shuffled(flipped(delta.add_edges, rng), rng),
        del_edges=shuffled(flipped(delta.del_edges, rng), rng),
    )


# ----------------------------------------------------------------------
# construction identity
# ----------------------------------------------------------------------
class TestConstructionIdentity:
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_bench_families(self, family, seed, order):
        nx_graph = FAMILIES[family](48, seed=seed)
        source = in_order(nx_graph, order, seed)
        idents = poly_idents(nx_graph, seed=seed)
        assert_same_graph(
            SimGraph.from_networkx(source, idents=idents),
            dict_first_from_networkx(nx_graph, idents=idents),
        )
        # Default identities: integer labels shifted up by one.
        assert_same_graph(
            SimGraph.from_networkx(source),
            dict_first_from_networkx(nx_graph),
        )

    @pytest.mark.parametrize(
        "case", ["strings", "tuples", "mixed", "isolated", "empty", "edgeless"]
    )
    @pytest.mark.parametrize("order", ORDERS)
    def test_label_and_size_corners(self, case, order):
        if case == "strings":
            graph = nx.relabel_nodes(
                nx.gnm_random_graph(30, 60, seed=3), lambda u: f"peer-{u}"
            )
        elif case == "tuples":
            graph = nx.grid_2d_graph(5, 6)
        elif case == "mixed":
            graph = nx.relabel_nodes(
                nx.cycle_graph(9), {0: "a", 3: (1, 2), 5: 2.5}
            )
        elif case == "isolated":
            graph = nx.gnm_random_graph(25, 20, seed=4)
            graph.add_nodes_from(range(25, 32))
        elif case == "empty":
            graph = nx.Graph()
        else:
            graph = nx.empty_graph(6)
        source = in_order(graph, order, 11)
        want = dict_first_from_networkx(graph)
        got = SimGraph.from_networkx(source)
        assert_same_graph(got, want)
        assert (got.n, got.max_degree, got.max_ident) == (
            want.n, want.max_degree, want.max_ident
        )
        shuffled = list(graph.nodes())
        random.Random(7).shuffle(shuffled)
        idents = {u: 3 * i + 2 for i, u in enumerate(shuffled)}
        assert_same_graph(
            SimGraph.from_networkx(source, idents=idents),
            dict_first_from_networkx(graph, idents=idents),
        )

    def test_identity_map_with_extra_labels(self):
        graph = nx.path_graph(5)
        idents = {u: 10 - u for u in graph.nodes()}
        idents["absent"] = 99
        got = SimGraph.from_networkx(graph, idents=idents)
        assert_same_graph(got, dict_first_from_networkx(graph, idents=idents))
        assert got.max_ident == 99

    @pytest.mark.parametrize(
        "case",
        [
            "directed",
            "self-loop",
            "missing",
            "duplicate",
            "zero",
            "negative",
            "float",
            "string",
        ],
    )
    def test_same_errors(self, case):
        graph = nx.path_graph(4)
        idents = {u: u + 1 for u in graph.nodes()}
        if case == "directed":
            graph = nx.DiGraph(graph)
        elif case == "self-loop":
            graph.add_edge(2, 2)
        elif case == "missing":
            del idents[3]
        elif case == "duplicate":
            idents[3] = 1
        elif case == "zero":
            idents[0] = 0
        elif case == "negative":
            idents[1] = -4
        elif case == "float":
            idents[2] = 7.0
        else:
            idents[2] = "7"
        with pytest.raises(InvalidInstanceError) as want:
            dict_first_from_networkx(graph, idents=idents)
        with pytest.raises(InvalidInstanceError) as got:
            SimGraph.from_networkx(graph, idents=idents)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_subgraph_rebuild(self, seed, order):
        nx_graph = FAMILIES["gnp-sparse"](60, seed=seed)
        graph = SimGraph.from_networkx(
            in_order(nx_graph, order, seed),
            idents=poly_idents(nx_graph, seed=seed),
        )
        keep = set(random.Random(seed).sample(list(graph.nodes), 41))
        want = dict_first_build(
            list(keep),
            {u: graph.ident[u] for u in keep},
            {u: [v for v in graph.neighbors(u) if v in keep] for u in keep},
        )
        assert_same_graph(graph.subgraph_rebuild(keep), want)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("seed", [3, 4])
    def test_apply_delta_rebuild(self, seed, order, delta_harness):
        script = delta_harness.make_script(seed, steps=10)
        truth = nx.Graph(script.base)
        idents = dict(script.idents)
        graph = SimGraph.from_networkx(
            in_order(truth, order, seed), idents=idents
        )
        for step, (kind, delta) in enumerate(script.ops):
            if kind != "mutate":
                continue
            delta_harness.apply_to_networkx(truth, idents, delta)
            graph = graph.apply_delta_rebuild(
                delta_in_order(delta, order, seed + step)
            )
            assert_same_graph(graph, dict_first_from_networkx(truth, idents))


# ----------------------------------------------------------------------
# oracle: the dict-loop verifiers
# ----------------------------------------------------------------------
def oracle_mis(graph, outputs):
    require_outputs(graph, outputs)
    found = []
    for u in graph.nodes:
        if in_set(outputs[u]):
            for v in graph.neighbors(u):
                if in_set(outputs[v]) and graph.ident[u] < graph.ident[v]:
                    found.append(Violation((u, v), "two adjacent nodes in the set"))
        elif not any(in_set(outputs[v]) for v in graph.neighbors(u)):
            found.append(
                Violation(u, "node outside the set with no neighbor in it")
            )
    return found


def oracle_matched_pairs(graph, outputs):
    pairs = set()
    for u, v in graph.edges():
        if outputs.get(u) != outputs.get(v):
            continue
        value = outputs[u]
        clean = True
        for w in set(graph.neighbors(u)) | set(graph.neighbors(v)):
            if w in (u, v):
                continue
            if outputs.get(w) == value:
                clean = False
                break
        if clean:
            pairs.add((u, v))
    return pairs


def oracle_matching(graph, outputs):
    require_outputs(graph, outputs)
    found = []
    pairs = oracle_matched_pairs(graph, outputs)
    matched_nodes = set()
    incident = {u: 0 for u in graph.nodes}
    for u, v in pairs:
        matched_nodes.update((u, v))
        incident[u] += 1
        incident[v] += 1
    for u in graph.nodes:
        if incident[u] > 1:
            found.append(Violation(u, "node matched to two neighbours"))
    for u in graph.nodes:
        if u in matched_nodes:
            continue
        if not all(v in matched_nodes for v in graph.neighbors(u)):
            found.append(
                Violation(u, "unmatched node with an unmatched neighbour")
            )
    return found


def _oracle_bfs_within(graph, source, limit):
    seen = {source: 0}
    queue = deque([source])
    reached = []
    while queue:
        u = queue.popleft()
        if seen[u] == limit:
            continue
        for v in graph.neighbors(u):
            if v not in seen:
                seen[v] = seen[u] + 1
                reached.append((v, seen[v]))
                queue.append(v)
    return reached


def oracle_ruling(alpha, beta):
    def violations(graph, outputs):
        require_outputs(graph, outputs)
        found = []
        rulers = {u for u in graph.nodes if in_set(outputs[u])}
        for u in rulers:
            for v, dist in _oracle_bfs_within(graph, u, alpha - 1):
                if v in rulers and graph.ident[u] < graph.ident[v]:
                    found.append(
                        Violation((u, v), f"rulers at distance {dist} < α={alpha}")
                    )
        reached = set(rulers)
        frontier = list(rulers)
        for _ in range(beta):
            next_frontier = []
            for u in frontier:
                for v in graph.neighbors(u):
                    if v not in reached:
                        reached.add(v)
                        next_frontier.append(v)
            frontier = next_frontier
        for u in graph.nodes:
            if u not in reached:
                found.append(Violation(u, f"no ruler within distance β={beta}"))
        return found

    return violations


class _DictView:
    """The oracles' view of a graph: rows read off the dict adjacency."""

    def __init__(self, graph):
        self.nodes = graph.nodes
        self.ident = graph.ident
        self._graph = graph

    def neighbors(self, u):
        return tuple(v for _, v, _ in self._graph.adj[u])

    def edges(self):
        for u in self.nodes:
            for v in self.neighbors(u):
                if self.ident[u] < self.ident[v]:
                    yield (u, v)


def _flat(found):
    return [(v.where, v.reason) for v in found]


def _graphs(seed):
    """Dict-born, CSR-born and restricted graphs, int and string labels."""
    rnd = random.Random(seed)
    base = FAMILIES["gnp-sparse"](70, seed=seed)
    idents = poly_idents(base, seed=seed)
    named = nx.relabel_nodes(base, lambda u: f"n{u}")
    named_idents = {f"n{u}": x for u, x in idents.items()}
    csr = SimGraph.from_networkx(base, idents=idents)
    return {
        "dict-born": dict_first_from_networkx(base, idents=idents),
        "csr-born": csr,
        "csr-born-str": SimGraph.from_networkx(named, idents=named_idents),
        "dict-born-str": dict_first_from_networkx(named, idents=named_idents),
        "restricted": csr.subgraph(rnd.sample(list(csr.nodes), 50)),
        "tree": SimGraph.from_networkx(FAMILIES["tree"](40, seed=seed)),
    }


GRAPH_KINDS = ["dict-born", "csr-born", "csr-born-str", "dict-born-str",
               "restricted", "tree"]


def _mis_outputs(graph, rnd):
    valid = greedy_mis(graph)
    yield valid
    nodes = list(graph.nodes)
    members = [u for u in nodes if valid[u]]
    adjacent = dict(valid)  # adjacent set members
    for u in rnd.sample(members, min(3, len(members))):
        for v in graph.neighbors(u)[:1]:
            adjacent[v] = 1
    yield adjacent
    undominated = dict(valid)  # members dropped: their region is bare
    for u in rnd.sample(members, min(4, len(members))):
        undominated[u] = 0
    yield undominated
    for p in (0.1, 0.4, 0.8):
        yield {u: int(rnd.random() < p) for u in nodes}
    yield {u: rnd.choice([True, False, 2, "1", None, 1.0]) for u in nodes}


def _matching_outputs(graph, rnd):
    valid = greedy_matching(graph)
    yield valid
    nodes = list(graph.nodes)
    pairs = sorted(matched_pairs(graph, valid), key=repr)
    broken = dict(valid)  # one endpoint of a match changes its value
    for u, _ in rnd.sample(pairs, min(3, len(pairs))):
        broken[u] = ("U", graph.ident[u])
    yield broken
    contested = dict(valid)  # a neighbour copies a matched value
    for u, v in rnd.sample(pairs, min(3, len(pairs))):
        others = [w for w in graph.neighbors(u) if w != v]
        if others:
            contested[others[0]] = valid[u]
    yield contested
    for k in (2, 3, 6):
        yield {u: rnd.randrange(k) for u in nodes}


def _ruling_outputs(graph, rnd):
    nodes = list(graph.nodes)
    valid = greedy_mis(graph)
    yield valid
    close = dict(valid)  # extra rulers one and two hops from a ruler
    for u in rnd.sample(nodes, min(5, len(nodes))):
        close[u] = 1
    yield close
    for p in (0.05, 0.2, 0.5):
        yield {u: int(rnd.random() < p) for u in nodes}
    yield {u: 0 for u in nodes}


class TestVerifierOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_mis(self, kind, seed):
        graph = _graphs(seed)[kind]
        rnd = random.Random(seed)
        for outputs in _mis_outputs(graph, rnd):
            want = _flat(oracle_mis(_DictView(graph), outputs))
            assert _flat(MIS.violations(graph, {}, outputs)) == want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_maximal_matching(self, kind, seed):
        graph = _graphs(seed)[kind]
        rnd = random.Random(seed)
        for outputs in _matching_outputs(graph, rnd):
            view = _DictView(graph)
            assert matched_pairs(graph, outputs) == oracle_matched_pairs(
                view, outputs
            )
            want = _flat(oracle_matching(view, outputs))
            assert _flat(MAXIMAL_MATCHING.violations(graph, {}, outputs)) == want

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 1), (2, 4), (3, 2), (4, 3)])
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_ruling_set(self, kind, alpha, beta):
        problem = ruling_set(alpha, beta)
        oracle = oracle_ruling(alpha, beta)
        for seed in (0, 1):
            graph = _graphs(seed)[kind]
            rnd = random.Random(seed)
            for outputs in _ruling_outputs(graph, rnd):
                want = _flat(oracle(_DictView(graph), outputs))
                assert _flat(problem.violations(graph, {}, outputs)) == want

    @pytest.mark.parametrize(
        "problem,oracle",
        [
            (MIS, oracle_mis),
            (MAXIMAL_MATCHING, oracle_matching),
            (ruling_set(2, 4), oracle_ruling(2, 4)),
        ],
        ids=["mis", "matching", "ruling"],
    )
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_missing_outputs_raise(self, kind, problem, oracle):
        graph = _graphs(0)[kind]
        outputs = {u: 0 for u in graph.nodes[3:]}
        with pytest.raises(InvalidInstanceError) as want:
            oracle(_DictView(graph), outputs)
        with pytest.raises(InvalidInstanceError) as got:
            problem.violations(graph, {}, outputs)
        assert str(got.value) == str(want.value)

    def test_csr_born_verifiers_leave_dict_view_unbuilt(self):
        graph = _graphs(0)["csr-born"]
        rnd = random.Random(0)
        for outputs in _mis_outputs(graph, rnd):
            MIS.violations(graph, {}, outputs)
            ruling_set(3, 2).violations(graph, {}, outputs)
        for outputs in _matching_outputs(graph, rnd):
            MAXIMAL_MATCHING.violations(graph, {}, outputs)
        assert graph._adj is None


# ----------------------------------------------------------------------
# guard: a Table-1 request never derives the dict view
# ----------------------------------------------------------------------
#: Perfbench's row → family pairing; the arboricity rows run on trees.
_FAMILY = {"mis-arb-product": "tree", "mis-arb-nonly": "tree"}


def _table1_request(row_id):
    """Generate, build, run both boxes and verify both outputs, as one
    ``table1-repro`` op does; returns the graph."""
    seed = 5
    nx_graph = FAMILIES[_FAMILY.get(row_id, "gnp-sparse")](80, seed=seed)
    graph = SimGraph.from_networkx(nx_graph, idents=poly_idents(nx_graph, seed=seed))
    graph.compiled()
    row = TABLE1[row_id]
    nonuniform, _, uniform = row.build()
    _, nu_outputs, _ = harness.measure_nonuniform(nonuniform, graph, seed=seed)
    result = uniform.run(graph, seed=seed)
    actual_parameters(graph, ["n", "Delta", "m", "a"])
    assert row.problem.is_solution(graph, {}, nu_outputs)
    assert row.problem.is_solution(graph, {}, result.outputs)
    return graph


@pytest.mark.parametrize("row_id", sorted(TABLE1))
def test_table1_request_never_builds_dict_view(row_id):
    """One ``table1-repro`` op leaves the dict view unbuilt."""
    assert _table1_request(row_id)._adj is None


# ----------------------------------------------------------------------
# guard: the measured requests only ever drive batch kernels
# ----------------------------------------------------------------------
#: The stepping tags the measured workloads may leave: a solo kernel
#: drive, a fused chunk, and the alternation engine's per-step reset.
WORKLOAD_TAGS = {"rf", "fused", None}


@pytest.fixture
def stepping_tags(monkeypatch):
    """Every tag noted while the test runs: a spy on each module's
    binding of :func:`repro.local.runner.note_stepping`."""
    tags = []
    original = runner.note_stepping

    def spy(kind):
        tags.append(kind)
        original(kind)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and (
            getattr(module, "note_stepping", None) is original
        ):
            monkeypatch.setattr(module, "note_stepping", spy)
    return tags


@pytest.mark.parametrize("row_id", sorted(TABLE1))
def test_table1_request_drives_only_kernels(row_id, stepping_tags):
    _table1_request(row_id)
    assert "rf" in stepping_tags
    assert set(stepping_tags) <= WORKLOAD_TAGS, row_id


def test_sweep_and_session_drive_only_kernels(stepping_tags):
    """A ``guess-sweep``-shaped ``run_many`` (three algorithms, two
    lanes each, three guess levels) and a session ``mutate`` +
    ``rerun``."""
    nx_graph = FAMILIES["gnp-sparse"](80, seed=3)
    graph = SimGraph.from_networkx(nx_graph, idents=poly_idents(nx_graph, seed=3))
    truth = actual_parameters(graph, ["Delta", "m", "n"])
    for k in (0, 1, 2):
        guesses = (
            {"Delta": truth["Delta"] * 2**k, "m": truth["m"] ** (k + 1)},
            {"n": truth["n"] ** (k + 1)},
            {},
        )
        run_many([
            (graph, algorithm, {"guesses": g, "seed": s})
            for algorithm, g in zip(
                (fast_mis(), hash_luby_mis(), luby_mis()), guesses
            )
            for s in (1, 2)
        ])
    assert set(stepping_tags) == {"fused"}
    stepping_tags.clear()
    edge = next(iter(nx_graph.edges()))
    with open_session(graph) as session:
        session.mutate(GraphDelta(del_edges=[edge]))
        session.rerun(luby_mis(), seed=4)
    assert stepping_tags == ["rf"]
