"""Quickstart: make a non-uniform algorithm uniform in ~20 lines.

The paper's pitch in miniature: you have a distributed MIS algorithm
whose *code needs an upper bound on n* (here: Luby's algorithm truncated
after O(log ñ) phases).  Wrap it with a pruning algorithm and Theorem 2,
and you get an algorithm no node of which needs to know anything about
the network — at the same asymptotic round cost, with certain
correctness.

Run:  python examples/quickstart.py
"""

from repro.algorithms.luby import luby_mc_nonuniform
from repro.bench import build_graph
from repro.core import mis_pruning, render_trace, theorem2
from repro.graphs import families
from repro.problems import MIS


def main():
    # A 200-node communication network; nodes carry unique ids but have
    # no idea how large the network is.
    network = build_graph(families.gnp_avg_degree(200, 7.0, seed=42), seed=1)
    print(f"network: n={network.n}, m={network.edge_count()}, "
          f"Δ={network.max_degree}")

    # The non-uniform ingredient: truncated Luby — a weak Monte-Carlo
    # MIS whose code consumes a guess ñ (paper Table 1, last rows).
    box = luby_mc_nonuniform()
    print(f"black box: {box.name}, requires Γ = {box.algorithm.requires}, "
          f"declared bound f(ñ=200) = {box.bound.rounds({'n': 200})} rounds")

    # The paper's machinery: a 2-round pruning algorithm for MIS
    # (Observation 3.2) + Theorem 2 = a uniform Las Vegas algorithm.
    uniform = theorem2(box, mis_pruning())
    print(f"uniform algorithm: {uniform.name}, requires Γ = "
          f"{uniform.requires or '∅ — nothing!'}")

    result = uniform.run(network, seed=7)
    MIS.assert_solution(network, {}, result.outputs, context="quickstart")
    chosen = sum(1 for v in result.outputs.values() if v == 1)
    print(f"\nvalid MIS with {chosen} nodes in {result.rounds} rounds "
          f"({len(result.steps)} alternating steps)\n")
    print(render_trace(result))


if __name__ == "__main__":
    main()
