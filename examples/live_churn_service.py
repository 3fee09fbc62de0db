"""A matchmaking service on a living overlay: open once, mutate, rerun.

Scenario: the p2p overlay of ``p2p_matchmaking.py``, but *in
production* — peers join, leave, and links flap, and every change needs
a fresh MIS-based coordinator set within one request's latency budget.
The batch engines force a service to rebuild the whole graph per
request; the live-graph session (DESIGN.md D18) keeps one engine open
and applies each change as an incremental CSR patch instead:

    session = open_session(graph)
    session.mutate(GraphDelta(add_edges=[...], del_edges=[...]))
    session.rerun(algo, seed=...)        # ≡ cold run on a fresh build

The demo churns an overlay through a burst of joins/leaves/link flaps
and, after every delta, asserts the session's answer is bit-identical
to a cold ``run()`` on a graph rebuilt from scratch — outputs, rounds
and message counts — which is the session's correctness contract
(enforced at scale by ``tests/test_service.py``'s differential delta
harness).

Run:  python examples/live_churn_service.py
"""

import networkx as nx

from repro.algorithms.luby import luby_mis
from repro.bench import build_graph
from repro.local import GraphDelta, SimGraph, open_session, run
from repro.problems import MIS


def main():
    base = nx.gnp_random_graph(160, 0.05, seed=23)
    overlay = build_graph(base, seed=4)
    print(f"overlay: n={overlay.n}, links={overlay.edge_count()}, "
          f"Δ={overlay.max_degree}\n")

    # The mutable "truth" the service's clients see: a networkx graph we
    # churn in parallel with the session, purely to rebuild the cold
    # oracle after every delta.
    truth = overlay.to_networkx()
    idents = dict(overlay.ident)

    # One churn burst: two peers leave (dropping their links), three
    # peers join with bootstrap links, and a handful of links flap.
    nodes = sorted(truth.nodes())
    leavers = {nodes[7], nodes[31]}
    survivors = [u for u in nodes if u not in leavers]
    next_label = max(nodes) + 1
    next_ident = overlay.max_ident + 1
    # A link flap among survivors stays valid after the join/leave
    # deltas: node departures only remove *incident* edges, and the
    # joins only add edges touching the fresh labels.
    flap_del = next(
        (u, v) for u, v in truth.edges()
        if u not in leavers and v not in leavers
    )
    flap_add = next(
        (u, v)
        for u in survivors[3:] for v in survivors[3:]
        if u < v and not truth.has_edge(u, v)
    )
    churn = [
        GraphDelta(del_nodes=sorted(leavers)),
        GraphDelta(
            add_nodes={next_label + i: next_ident + i for i in range(3)},
            add_edges=[
                (next_label, nodes[0]),
                (next_label + 1, nodes[1]),
                (next_label + 2, nodes[2]),
                (next_label, next_label + 1),
            ],
        ),
        GraphDelta(del_edges=[flap_del], add_edges=[flap_add]),
    ]

    algo = luby_mis()
    with open_session(overlay) as session:
        warm = session.rerun(algo, seed=11)
        MIS.assert_solution(session.graph, {}, warm.outputs)
        print(f"request 0 (no churn): |MIS|={sum(warm.outputs.values())}, "
              f"{warm.rounds} rounds")

        for step, delta in enumerate(churn, start=1):
            session.mutate(delta)

            # Mirror the delta onto the networkx truth and rebuild the
            # cold oracle the way a stateless service would per request.
            truth.remove_edges_from(delta.del_edges)
            truth.remove_nodes_from(delta.del_nodes)
            for u in delta.del_nodes:
                del idents[u]
            for u, ident in delta.add_nodes:
                truth.add_node(u)
                idents[u] = ident
            truth.add_edges_from(delta.add_edges)
            oracle = SimGraph.from_networkx(truth, idents=idents)

            live = session.rerun(algo, seed=11)
            cold = run(oracle, algo, seed=11)
            assert (live.outputs, live.rounds, live.messages) == (
                cold.outputs, cold.rounds, cold.messages
            ), "session diverged from cold rebuild"
            MIS.assert_solution(session.graph, {}, live.outputs)
            print(f"request {step}: {delta!r} -> |MIS|="
                  f"{sum(live.outputs.values())}, {live.rounds} rounds "
                  f"(bit-identical to a from-scratch rebuild)")

        print(f"\nsession stats: {session.stats()}")
    print("session closed; graph remains a plain immutable SimGraph")


if __name__ == "__main__":
    main()
