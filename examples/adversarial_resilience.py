"""Adversarial resilience: deterministic faults, measurable degradation.

Scenario: the sensor field again, but honest about the hardware — some
radios drop packets, some nodes are dead on arrival, some die mid-
protocol.  The question that matters before flashing firmware: *what
does the algorithm's answer degrade into?*

Fault injection (DESIGN.md, D14) makes misbehaviour a first-class,
reproducible input: a ``FaultPlan`` assigns per-node profiles
(``crash_at``, ``byzantine_silent``, ``drop(p)``, ``garble(p)``) and
every fate is drawn from the identity-keyed counter RNG — the injected
run is a pure function of ``(graph, algo, seed, plan)``, bit-identical
on every backend.  So a fault study debugged on the reference loop is
*the same experiment* on the batch kernels.

Run:  python examples/adversarial_resilience.py
"""

from repro.algorithms import TABLE1
from repro.algorithms.luby import luby_mis
from repro.bench import build_graph
from repro.core.alternating import AlternationDiverged
from repro.graphs import families
from repro.local import run, sample_plan, use_faults
from repro.local.faults import crash_at, drop

SEED = 11


def violations(network, outputs):
    """(independence, maximality) violation counts of an MIS guess."""
    indep = maximal = 0
    for u in network.nodes:
        if outputs.get(u) == 1:
            for _, v, _ in network.adj[u]:
                if outputs.get(v) == 1 and network.ident[u] < network.ident[v]:
                    indep += 1
        elif not any(outputs.get(v) == 1 for _, v, _ in network.adj[u]):
            maximal += 1
    return indep, maximal


def main():
    network = build_graph(families.unit_disk(300, 0.09, seed=3), seed=SEED)
    flaky = sample_plan(network, drop(0.5), 0.15, seed=7)
    print(
        f"field: n={network.n} Δ={network.max_degree}; "
        f"plan: {flaky.describe()} (15% of radios drop half their sends)"
    )

    # 1. The same adversarial experiment on every backend, bit for bit.
    configs = [
        ("reference", dict(backend="reference")),
        ("compiled+batch", dict(backend="compiled")),
    ]
    results = []
    for name, kwargs in configs:
        results.append(
            run(network, luby_mis(), seed=SEED, rng="counter",
                faults=flaky, **kwargs)
        )
    assert all(
        r.outputs == results[0].outputs and r.messages == results[0].messages
        for r in results
    ), "D14 broken: injected runs diverged across backends"
    print("\ninjected Luby run, identical on " +
          ", ".join(name for name, _ in configs) + ":")
    indep, maximal = violations(network, results[0].outputs)
    print(
        f"  rounds={results[0].rounds} messages={results[0].messages}  "
        f"violations: independence={indep} maximality={maximal}"
    )

    # 2. Degradation axis: the Theorem-2 Luby alternation under rising
    # drop rates — rounds stretch, and past some rate the (equally
    # injected) pruner starts letting violations through.
    print("\nTheorem-2 alternation vs drop rate:")
    for rate in (0.0, 0.1, 0.3):
        plan = sample_plan(network, drop(0.5), rate, seed=7)
        _, _, uniform = TABLE1["luby"].build()
        with use_faults(plan if rate else None):
            result = uniform.run(network, seed=SEED)
        indep, maximal = violations(network, result.outputs)
        print(
            f"  rate={rate:.1f}  rounds={result.rounds:3d} "
            f"steps={len(result.steps)}  violations={indep + maximal}"
        )

    # 3. Crashes stall the alternation by design: a crashed node outputs
    # None, the pruner keeps it every iteration, and the run hits the
    # divergence cap — the honest answer, not a hang.
    crashed = sample_plan(network, crash_at(2), 0.1, seed=9)
    _, _, uniform = TABLE1["luby"].build()
    try:
        with use_faults(crashed):
            uniform.run(network, seed=SEED)
        print("\nunexpected: alternation converged despite crashes")
    except AlternationDiverged:
        print(
            f"\nwith {crashed.describe()}: alternation diverges at its "
            "iteration cap — crashed nodes are never pruned (expected)."
        )


if __name__ == "__main__":
    main()
