"""Fused multi-run execution: a seed sweep in one slab (D16).

A **seed sweep**: 16 independent MIS runs packed by ``run_many`` into
one block-diagonal slab, stepped together by the unchanged certified
kernels — each lane bit-identical to its solo ``run`` (asserted below),
but the per-round Python dispatch is paid once for the fleet instead of
once per run.  Each job carries its own seed in its options.

Run:  python examples/fused_seed_sweep.py
"""

from repro.algorithms.luby import luby_mis
from repro.bench import build_graph
from repro.graphs import families
from repro.local import run, run_many
from repro.problems import MIS


def seed_sweep(graph, seeds):
    algo = luby_mis()
    jobs = [(graph, algo, {"seed": s}) for s in seeds]
    results = run_many(jobs)

    print(f"seed sweep: {len(seeds)} lanes of {algo.name!r} on "
          f"gnp(n={graph.n}), one fused slab\n")
    print(f"{'seed':>4s} {'rounds':>7s} {'messages':>9s}")
    for s, result in zip(seeds, results):
        MIS.assert_solution(graph, {}, result.outputs, context=f"seed {s}")
        print(f"{s:4d} {result.rounds:7d} {result.messages:9d}")

    best = min(zip(seeds, results), key=lambda sr: sr[1].rounds)
    print(f"\nbest draw: seed {best[0]} at {best[1].rounds} rounds")

    # The D16 contract: a fused lane is field-for-field the solo run.
    solo = run(graph, algo, seed=best[0])
    assert solo.outputs == best[1].outputs
    assert solo.rounds == best[1].rounds
    assert solo.messages == best[1].messages
    print("lane checked bit-identical to its solo run\n")


def main():
    graph = build_graph(families.gnp_avg_degree(150, 6.0, seed=11), seed=2)
    seed_sweep(graph, seeds=list(range(1, 17)))


if __name__ == "__main__":
    main()
