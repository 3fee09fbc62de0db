"""Theorem 4: run as fast as the fastest of k uniform algorithms.

Given uniform algorithms ``U_1 .. U_k`` whose running times (functions of
*unknown* parameter sets) cannot be compared locally, and a pruning
algorithm monotone for all of them, the interleaving

    iteration i:  (U_1 restricted to 2^i ; P ; ... ; U_k restricted to 2^i ; P)

terminates by iteration ``⌈log f_min⌉`` and costs ``O(f_min)`` overall —
the minimum of the members' bounds, with no knowledge of which member is
best (this is how Corollary 1(i) assembles its ``min{2^O(√log n)},
O(Δ + log* n), f(a, n)}`` MIS).

Members implement ``run_budget(domain, inputs, seed, budget) ->
(outputs, charged)`` with restriction semantics.  Both
:class:`~repro.core.transformer.UniformAlgorithm` (Theorem 1/2/3
products) and plain uniform LOCAL algorithms wrapped in
:class:`LocalMember` qualify — matching the paper, where Theorem 4 is
applied to already-uniformized algorithms.
"""

from __future__ import annotations

from .alternating import AlternatingEngine, AlternationDiverged
from .domain import as_domain


class LocalMember:
    """A plain uniform LOCAL algorithm as a portfolio member."""

    def __init__(self, algorithm, *, default_output=0, name=None):
        if algorithm.requires:
            raise ValueError(
                f"portfolio members must be uniform; {algorithm.name!r} "
                f"requires {algorithm.requires}"
            )
        self.algorithm = algorithm
        self.default_output = default_output
        self.name = name or algorithm.name

    def run_budget(self, domain, inputs, seed, budget):
        outputs, charged = domain.run_restricted(
            self.algorithm,
            budget,
            inputs=inputs,
            seed=seed,
            salt=f"member|{self.name}",
            default_output=self.default_output,
        )
        return outputs, charged


class Portfolio:
    """The Theorem 4 interleaver."""

    def __init__(self, members, pruning, *, name=None, base=2.0,
                 max_iterations=60, default_output=0):
        if not members:
            raise ValueError("portfolio needs at least one member")
        self.members = list(members)
        self.pruning = pruning
        self.base = float(base)
        self.max_iterations = max_iterations
        self.default_output = default_output
        self.name = name or (
            "portfolio[" + ",".join(m.name for m in self.members) + "]"
        )

    @property
    def requires(self):
        return ()

    def run(self, graph, *, inputs=None, seed=0, budget=None):
        domain = as_domain(graph)
        engine = AlternatingEngine(
            domain,
            inputs,
            self.pruning,
            seed=seed,
            default_output=self.default_output,
        )
        for i in range(1, self.max_iterations + 1):
            member_budget = max(1, int(self.base**i))
            for j, member in enumerate(self.members, start=1):

                def runner(dom, ins, salt, member=member):
                    return member.run_budget(
                        dom, ins, f"{seed}|{salt}", member_budget
                    )

                step_cost = member_budget + self.pruning.rounds
                if budget is not None and engine.rounds + step_cost > budget:
                    engine.charge(max(0, budget - engine.rounds))
                    return engine.finalize(self.name, completed=False)
                engine.step_with(
                    runner,
                    label=member.name,
                    iteration=i,
                    index=j,
                    guesses={},
                    budget=member_budget,
                )
                if engine.done:
                    return engine.finalize(self.name)
        raise AlternationDiverged(
            f"{self.name}: nodes remain after {self.max_iterations} iterations"
        )

    def run_budget(self, domain, inputs, seed, budget):
        """Portfolios are themselves uniform: they nest as members."""
        result = self.run(domain, inputs=inputs, seed=seed, budget=budget)
        return result.outputs, budget

    def __repr__(self):
        return f"Portfolio({self.name!r}, members={len(self.members)})"


def theorem4(members, pruning, *, name=None, base=2.0, max_iterations=60,
             default_output=0):
    """Build the Theorem 4 portfolio over uniform members."""
    return Portfolio(
        members,
        pruning,
        name=name,
        base=base,
        max_iterations=max_iterations,
        default_output=default_output,
    )
