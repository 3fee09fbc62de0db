"""Live-graph session service: the differential mutation harness (D18).

Contract under test: for every delta sequence, a session's
``.rerun()`` on its incrementally-patched graph is **bit-identical** to
a cold ``run()`` on a graph rebuilt from scratch — outputs, rounds,
message counts, truncation and backend attribution — on every stack
(reference / compiled / the session's own record / fused lanes).
Scripts are generated by the seeded, shrinkable
``DeltaScript`` machinery in ``conftest.py``: on divergence the harness
bisects to the minimal failing prefix and prints it, so a red run is a
small reproduction, not a 20-op haystack.

Also here: eager ``GraphDelta`` validation edge cases, session
lifecycle semantics and ``StepRecord.backends`` attribution through a
whole alternation.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import TABLE1
from repro.algorithms.luby import luby_mis
from repro.errors import ParameterError
from repro.graphs import families, identifiers
from repro.local import (
    GraphDelta,
    SimGraph,
    SimulationSession,
    open_session,
    run,
    run_many,
    use_backend,
)
from repro.local.batch import BatchGraph, ident_mix
from repro.local.execution import current
from repro.local.runner import last_stepping

RESULT_FIELDS = ("outputs", "finish_round", "rounds", "messages", "truncated")
CSR_ARRAYS = ("offsets", "neigh", "rev", "degrees", "owner")


def assert_results_equal(a, b, context=""):
    for field in RESULT_FIELDS:
        assert getattr(a, field) == getattr(b, field), (field, context)


def csr_state(graph):
    """Copies of a graph's labels, identities and CSR arrays, and of its
    identity mix once cached."""
    cg = graph.compiled()
    state = {field: getattr(cg, field).tolist() for field in CSR_ARRAYS}
    state["labels"] = list(cg.labels)
    state["idents"] = list(cg.idents)
    if cg._mix is not None:
        state["mix"] = cg._mix.tolist()
    return state


def assert_csr_matches_fresh(live, oracle, context=""):
    """The live graph's patched CSR equals a build from scratch, array
    for array and int64 throughout; its slot owners equal a fresh
    ``BatchGraph``'s, and its (possibly carried) identity mix a fresh
    one."""
    cg, fresh = live.compiled(), oracle.compiled()
    assert list(cg.labels) == list(fresh.labels), ("labels", context)
    assert cg.idents == fresh.idents, ("idents", context)
    for field in CSR_ARRAYS:
        values = getattr(cg, field)
        assert values.dtype == np.int64, (field, context)
        assert values.tolist() == getattr(fresh, field).tolist(), (
            field, context,
        )
    ref = BatchGraph(fresh.labels, fresh.idents, fresh.offsets, fresh.neigh)
    assert cg.owner.tolist() == ref.owner.tolist(), ("owner", context)
    assert cg.ident_mix().tolist() == ident_mix(fresh.idents).tolist(), (
        "mix", context,
    )


def build(graph, *, seed=0):
    idents = identifiers.SCHEMES["poly"](graph, seed=seed)
    return SimGraph.from_networkx(graph, idents=idents)


# ----------------------------------------------------------------------
# The differential matrix: three script blocks × every stack, every
# rerun diffed against a from-scratch rebuild oracle.  Six scripts per
# block keep the volume above the acceptance floor.
# ----------------------------------------------------------------------
MATRIX = (1, 2, 3)
SCRIPT_SEEDS = (7, 8, 9, 10, 11, 12)

#: Volume accounting for the acceptance floor (≥200 compared cases).
VOLUME = {"cases": 0, "params": set()}


def rerun_specs():
    """One rerun spec per stack: both backends, the session's own record
    (batched stepping) and fused lanes."""
    return [
        {"backend": "reference"},
        {"backend": "compiled"},
        {},
        {"fused_lanes": 3},
    ]


def make_executor(harness):
    """Script executor diffing every rerun against the rebuild oracle."""

    def execute(script):
        truth = nx.Graph(script.base)
        idents = dict(script.idents)
        base_graph = SimGraph.from_networkx(truth, idents=dict(idents))
        cases = 0
        with open_session(base_graph) as session:
            for step, (kind, payload) in enumerate(script.ops):
                if kind == "mutate":
                    retired = session.graph
                    before = csr_state(retired)
                    session.mutate(payload)
                    # Functional mutation: the child may share node-side
                    # objects with its parent but must never write them.
                    assert csr_state(retired) == before, ("retired", step)
                    harness.apply_to_networkx(truth, idents, payload)
                    oracle = SimGraph.from_networkx(truth, idents=dict(idents))
                    live = session.graph
                    assert live.nodes == oracle.nodes, ("nodes", step)
                    assert live.ident == oracle.ident, ("ident", step)
                    assert_csr_matches_fresh(live, oracle, context=step)
                    assert live.adj == oracle.adj, ("adj", step)
                    continue
                spec = dict(payload)
                lanes = spec.pop("fused_lanes", None)
                seed = 100 + step
                oracle = SimGraph.from_networkx(truth, idents=dict(idents))
                if lanes:
                    opts = [{"seed": seed + j} for j in range(lanes)]
                    live = session.rerun_many(
                        [(luby_mis(), o) for o in opts], **spec
                    )
                    cold = run_many(
                        [(oracle, luby_mis(), o) for o in opts], **spec
                    )
                    for lane, (a, b) in enumerate(zip(live, cold)):
                        assert_results_equal(a, b, context=(step, spec, lane))
                        cases += 1
                else:
                    live = session.rerun(luby_mis(), seed=seed, **spec)
                    live_attr = last_stepping()
                    cold = run(oracle, luby_mis(), seed=seed, **spec)
                    cold_attr = last_stepping()
                    assert live_attr == cold_attr, (
                        "backend attribution", step, spec, live_attr, cold_attr,
                    )
                    assert_results_equal(live, cold, context=(step, spec))
                    cases += 1
        return cases

    return execute


@pytest.mark.parametrize("block", MATRIX)
def test_differential_delta_scripts(delta_harness, block):
    execute = make_executor(delta_harness)
    specs = rerun_specs()
    cases = 0
    for seed in SCRIPT_SEEDS:
        script = delta_harness.make_script(
            1000 * block + seed, steps=12, rerun_specs=specs
        )
        try:
            cases += execute(script)
        except AssertionError:
            delta_harness.shrink(script, execute)
    VOLUME["cases"] += cases
    VOLUME["params"].add(block)
    assert cases >= 30  # every matrix cell carries real volume


def test_differential_volume_floor():
    """Acceptance: ≥200 randomized compared cases across the matrix."""
    if VOLUME["params"] != set(MATRIX):
        pytest.skip("full differential matrix did not run in this selection")
    assert VOLUME["cases"] >= 200, VOLUME


# ----------------------------------------------------------------------
# StepRecord.backends attribution through a whole alternation
# ----------------------------------------------------------------------
def test_alternation_attribution_matches_rebuild(delta_harness):
    _, _, uniform = TABLE1["luby"].build()
    script = delta_harness.make_script(42, steps=8, rerun_specs=[{}])
    truth = nx.Graph(script.base)
    idents = dict(script.idents)
    base_graph = SimGraph.from_networkx(truth, idents=dict(idents))
    with open_session(base_graph) as session:
        for kind, payload in script.ops:
            if kind == "mutate":
                session.mutate(payload)
                delta_harness.apply_to_networkx(truth, idents, payload)
        oracle = SimGraph.from_networkx(truth, idents=dict(idents))
        with session.scope():
            live = uniform.run(session.graph, seed=5)
        with use_backend("compiled"):
            cold = uniform.run(oracle, seed=5)
    assert live.outputs == cold.outputs
    assert live.rounds == cold.rounds
    assert live.completed == cold.completed
    assert [s.backends for s in live.steps] == [s.backends for s in cold.steps]


# ----------------------------------------------------------------------
# GraphDelta validation: eager ParameterError, state untouched
# ----------------------------------------------------------------------
class TestGraphDeltaValidation:
    @pytest.fixture()
    def graph(self):
        return build(families.path(6), seed=3)

    def test_delete_nonexistent_edge(self, graph):
        u = graph.nodes[0]
        w = next(
            v for v in graph.nodes if v != u and not graph.has_edge(u, v)
        )
        with pytest.raises(ParameterError, match="nonexistent edge"):
            graph.apply_delta(GraphDelta(del_edges=[(u, w)]))

    def test_insert_duplicate_edge(self, graph):
        edge = next(iter(graph.edges()))
        with pytest.raises(ParameterError, match="duplicate edge"):
            graph.apply_delta(GraphDelta(add_edges=[edge]))

    def test_unknown_node_label(self, graph):
        with pytest.raises(ParameterError, match="unknown node"):
            graph.apply_delta(GraphDelta(del_nodes=["ghost"]))
        with pytest.raises(ParameterError, match="unknown node"):
            graph.apply_delta(GraphDelta(add_edges=[(graph.nodes[0], "ghost")]))
        with pytest.raises(ParameterError, match="unknown node"):
            graph.apply_delta(GraphDelta(del_edges=[(graph.nodes[0], "ghost")]))

    def test_add_existing_label(self, graph):
        with pytest.raises(ParameterError, match="already in the graph"):
            graph.apply_delta(
                GraphDelta(add_nodes={graph.nodes[0]: 10_000})
            )

    def test_added_identity_collision(self, graph):
        taken = graph.ident[graph.nodes[2]]
        with pytest.raises(ParameterError, match="collides"):
            graph.apply_delta(GraphDelta(add_nodes={"fresh": taken}))

    def test_identity_must_be_positive_int(self):
        with pytest.raises(ParameterError, match="positive integers"):
            GraphDelta(add_nodes={"fresh": 0})
        with pytest.raises(ParameterError, match="positive integers"):
            GraphDelta(add_nodes={"fresh": "seven"})
        with pytest.raises(ParameterError, match="positive integers"):
            GraphDelta(add_nodes={"fresh": True})

    def test_self_loop_rejected(self):
        with pytest.raises(ParameterError, match="self-loop"):
            GraphDelta(add_edges=[(1, 1)])

    def test_duplicates_within_delta(self):
        with pytest.raises(ParameterError, match="twice in one delta"):
            GraphDelta(add_edges=[(1, 2), (2, 1)])
        with pytest.raises(ParameterError, match="twice in one delta"):
            GraphDelta(del_edges=[(1, 2), (1, 2)])
        with pytest.raises(ParameterError, match="added twice"):
            GraphDelta(add_nodes=[("a", 1), ("a", 2)])
        with pytest.raises(ParameterError, match="deleted twice"):
            GraphDelta(del_nodes=["a", "a"])
        with pytest.raises(ParameterError, match="collide within"):
            GraphDelta(add_nodes=[("a", 5), ("b", 5)])

    def test_add_and_delete_same_edge(self):
        with pytest.raises(ParameterError, match="both added and deleted"):
            GraphDelta(add_edges=[(1, 2)], del_edges=[(2, 1)])

    def test_add_and_delete_same_node(self):
        with pytest.raises(ParameterError, match="both added and deleted"):
            GraphDelta(add_nodes={"a": 9}, del_nodes=["a"])

    def test_added_edge_touching_deleted_node(self, graph):
        u, v = graph.nodes[0], graph.nodes[3]
        with pytest.raises(ParameterError, match="deleted by"):
            GraphDelta(del_nodes=[u], add_edges=[(u, v)])

    def test_empty_delta_is_noop_identity(self, graph):
        delta = GraphDelta()
        assert delta.is_empty() and not delta
        assert graph.apply_delta(delta) is graph
        with open_session(graph) as session:
            before = session.graph
            session.mutate(delta)
            assert session.graph is before
            assert session.epoch == 0

    def test_failed_validation_leaves_session_untouched(self, graph):
        with open_session(graph) as session:
            before = session.graph
            with pytest.raises(ParameterError):
                session.mutate(GraphDelta(del_nodes=["ghost"]))
            assert session.graph is before and session.epoch == 0

    def test_incremental_matches_rebuild_on_mixed_delta(self, graph):
        edge = next(iter(graph.edges()))
        delta = GraphDelta(
            add_nodes={"x": 5_000, "y": 5_001},
            del_nodes=[graph.nodes[5]],
            add_edges=[("x", "y"), ("x", graph.nodes[0])],
            del_edges=[edge],
        )
        inc = graph.compiled().apply_delta(delta)
        reb = graph.apply_delta_rebuild(delta)
        assert inc.nodes == reb.nodes
        assert inc.ident == reb.ident
        assert inc.adj == reb.adj

    @pytest.mark.parametrize("node_churn", [False, True])
    def test_mutate_leaves_retired_graph_untouched(self, graph, node_churn):
        """The child may share node-side objects with its parent; the
        parent's CSR arrays and identity mix must still read as before."""
        u, gone = graph.nodes[0], graph.nodes[5]
        v = next(
            w for w in graph.nodes[1:5] if not graph.has_edge(u, w)
        )
        edge = next(e for e in graph.edges() if u not in e)
        delta = GraphDelta(del_edges=[edge], add_edges=[(u, v)])
        if node_churn:
            # The added node reuses the deleted node's identity.
            delta = GraphDelta(
                del_edges=[edge],
                add_edges=[(u, v), ("z", u)],
                add_nodes={"z": graph.ident[gone]},
                del_nodes=[gone],
            )
        with open_session(graph) as session:
            session.rerun(luby_mis(), seed=1)  # builds the identity mix
            retired = session.graph
            before = csr_state(retired)
            assert "mix" in before
            session.mutate(delta)
            assert csr_state(retired) == before
            oracle = retired.apply_delta_rebuild(delta)
            assert_csr_matches_fresh(session.graph, oracle)


# ----------------------------------------------------------------------
# Session lifecycle
# ----------------------------------------------------------------------
class TestSessionLifecycle:
    def test_closed_session_refuses_everything(self, small_gnp):
        session = open_session(small_gnp)
        session.close()
        session.close()  # idempotent
        with pytest.raises(ParameterError, match="closed"):
            session.rerun(luby_mis(), seed=1)
        with pytest.raises(ParameterError, match="closed"):
            session.mutate(GraphDelta())
        with pytest.raises(ParameterError, match="closed"):
            with session:
                pass

    def test_session_requires_simgraph_and_delta_types(self, small_gnp):
        with pytest.raises(ParameterError, match="SimGraph"):
            SimulationSession(nx.path_graph(4))
        with open_session(small_gnp) as session:
            with pytest.raises(ParameterError, match="GraphDelta"):
                session.mutate({"add_edges": []})

    def test_pins_apply_and_per_call_overrides_win(self, small_gnp):
        with open_session(small_gnp, backend="compiled") as s:
            base = s.rerun(luby_mis(), seed=4)
            assert last_stepping() is not None
            ref = s.rerun(luby_mis(), seed=4, backend="reference")
            assert_results_equal(base, ref, context="pin override")

    def test_scope_installs_every_pin(self, small_gnp):
        """Regression: ``.scope()`` used to drop pins unless the
        (former) fused backend was pinned."""
        with open_session(small_gnp, backend="reference") as s:
            s.rerun(luby_mis(), seed=4)
            assert last_stepping() == "reference"
            with s.scope():
                run(small_gnp, luby_mis(), seed=4)
                assert last_stepping() == "reference"
                assert current().backend == "reference"

    def test_epoch_and_rerun_counters(self, small_gnp):
        with open_session(small_gnp) as s:
            edge = next(iter(small_gnp.edges()))
            s.mutate(GraphDelta(del_edges=[edge]))
            s.mutate(GraphDelta(add_edges=[edge]))
            s.rerun(luby_mis(), seed=1)
            stats = s.stats()
            assert stats["epoch"] == 2
            assert stats["reruns"] == 1

    @pytest.mark.parametrize("entry", [
        pytest.param(("algo",), id="one-item"),
        pytest.param(("algo", {}, "extra"), id="three-items"),
    ])
    def test_rerun_many_entry_shape_validated(self, small_gnp, entry):
        """A malformed entry is a ParameterError naming the expected
        shape, as a malformed ``run_many`` job is — not a bare
        unpacking ValueError."""
        algo = luby_mis()
        entry = tuple(algo if item == "algo" else item for item in entry)
        with open_session(small_gnp) as s:
            with pytest.raises(ParameterError, match=r"\(algorithm, opts\)"):
                s.rerun_many([entry])
