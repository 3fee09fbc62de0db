"""Theorem 1: the deterministic uniformization transformer (Algorithm 1).

Given a non-uniform deterministic algorithm ``A_Γ`` whose running time is
bounded by ``f`` (with a sequence-number function ``s_f``) and a
Γ-monotone pruning algorithm ``P``, Algorithm 1 produces a uniform
algorithm ``π``:

    for i = 1, 2, ...:
        S_i = S_f(2^i)
        for each guess vector x^j in S_i:
            run A_Γ with guesses x^j restricted to c·2^i rounds
            run P; continue on the non-pruned subgraph

Once ``2^i`` reaches ``f* = f(Γ*)``, some vector of ``S_i`` dominates
the correct parameters, that sub-iteration's execution is both *correct*
and *complete within its budget*, and the pruner removes every remaining
node.  Total time ``O(f* · s_f(f*))``.

:func:`theorem1` packages this as a :class:`UniformAlgorithm` — an
object with no parameter requirements whose ``run`` executes the loop on
any graph or domain.  ``run(budget=...)`` realizes the *restriction* of
the uniform algorithm (used by Theorem 4's portfolio): the loop stops
before exceeding the budget and unfinished nodes take the default
output.
"""

from __future__ import annotations

from ..local.algorithm import HostAlgorithm, LocalAlgorithm
from .alternating import AlternatingEngine, AlternationDiverged
from .domain import as_domain


class NonUniform:
    """A non-uniform algorithm packaged for the transformers.

    Parameters
    ----------
    algorithm:
        The black box; ``algorithm.requires`` is the paper's Γ.
    bound:
        Declared :class:`~repro.core.bounds.RuntimeBound` (a true upper
        bound under good guesses).  For Theorem 1 its parameters must
        cover Γ.
    kind:
        ``"deterministic"`` or ``"weak-monte-carlo"``.
    guarantee:
        Success probability ρ for weak Monte-Carlo algorithms.
    default_output:
        The arbitrary value forced by round restriction (paper: "0").
    """

    __slots__ = ("algorithm", "bound", "kind", "guarantee", "default_output", "name")

    def __init__(
        self,
        algorithm,
        bound,
        *,
        kind="deterministic",
        guarantee=1.0,
        default_output=0,
        name=None,
        validate=True,
    ):
        if not isinstance(algorithm, (LocalAlgorithm, HostAlgorithm)):
            raise TypeError(
                "NonUniform wraps a LocalAlgorithm or HostAlgorithm"
            )
        if validate:
            missing = [p for p in algorithm.requires if p not in bound.params]
            if missing:
                raise ValueError(
                    "bound must cover the algorithm's parameters; missing "
                    f"{missing} (use theorem3 with domination witnesses when "
                    "Γ is larger than Λ)"
                )
        self.algorithm = algorithm
        self.bound = bound
        self.kind = kind
        self.guarantee = guarantee
        self.default_output = default_output
        self.name = name or algorithm.name


class UniformAlgorithm:
    """The uniform algorithm π produced by Theorem 1.

    Uniform by construction: ``run`` consumes no parameter guesses; all
    global values it ever feeds the black box come from the bound's
    set-sequences.
    """

    def __init__(
        self,
        nonuniform,
        pruning,
        *,
        name=None,
        base=2.0,
        max_iterations=60,
    ):
        self.nonuniform = nonuniform
        self.pruning = pruning
        self.base = float(base)
        self.max_iterations = max_iterations
        self.name = name or f"uniform[{nonuniform.name}]"

    @property
    def requires(self):
        return ()

    def run(self, graph, *, inputs=None, seed=0, budget=None):
        """Execute π; returns a :class:`TransformResult`.

        With ``budget`` set, realizes π *restricted to budget rounds*
        (stops before over-charging; unfinished nodes get the default).
        """
        domain = as_domain(graph)
        engine = AlternatingEngine(
            domain,
            inputs,
            self.pruning,
            seed=seed,
            default_output=self.nonuniform.default_output,
        )
        bound = self.nonuniform.bound
        c = bound.bounding_constant
        for i in range(1, self.max_iterations + 1):
            level = int(self.base**i)
            if level < 1:
                continue
            vectors = bound.set_sequence(level)
            sub_budget = max(1, int(c * level))
            for j, guesses in enumerate(vectors, start=1):
                step_cost = sub_budget + self.pruning.rounds
                if budget is not None and engine.rounds + step_cost > budget:
                    engine.charge(max(0, budget - engine.rounds))
                    return engine.finalize(self.name, completed=False)
                engine.step_algorithm(
                    self.nonuniform.algorithm,
                    iteration=i,
                    index=j,
                    guesses=guesses,
                    budget=sub_budget,
                )
                if engine.done:
                    return engine.finalize(self.name)
            if engine.done:
                return engine.finalize(self.name)
        raise AlternationDiverged(
            f"{self.name}: {engine.active} node(s) never pruned after "
            f"{self.max_iterations} iterations — declared bound or pruner "
            "is wrong"
        )

    def run_budget(self, domain, inputs, seed, budget):
        """Theorem 4 member protocol: restricted run on a domain."""
        result = self.run(domain, inputs=inputs, seed=seed, budget=budget)
        return result.outputs, budget

    def __repr__(self):
        return f"UniformAlgorithm({self.name!r})"


def theorem1(nonuniform, pruning, *, name=None, base=2.0, max_iterations=60):
    """Build the Theorem 1 transformer output.

    Parameters
    ----------
    nonuniform:
        :class:`NonUniform` with ``kind="deterministic"``.
    pruning:
        A Γ-monotone :class:`~repro.core.pruning.PruningAlgorithm` for
        the same problem.
    base:
        Budget growth base (the paper's 2; exposed for the ablation
        study E11).
    """
    if nonuniform.kind != "deterministic":
        raise ValueError(
            "Theorem 1 takes deterministic algorithms; use theorem2 for "
            "weak Monte-Carlo ones"
        )
    return UniformAlgorithm(
        nonuniform,
        pruning,
        name=name,
        base=base,
        max_iterations=max_iterations,
    )
