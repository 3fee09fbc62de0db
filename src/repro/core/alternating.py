"""The alternating-algorithm engine (paper Section 3.3, Figure 1).

An alternating algorithm ``π((A_i), P)`` executes ``B_i = (A_i ; P)`` for
``i = 1, 2, ...`` where each ``A_i`` runs on the instance ``(G_i, x_i)``
left by the previous pruning step.  Observation 3.4: if the alternation
terminates (all nodes pruned), the combined output — each node keeping
the tentative value it was pruned with — solves the problem.

:class:`AlternatingEngine` maintains the evolving ``(G_i, x_i)``, the
combined output vector, and the round ledger.  All sub-iterations of the
paper's Algorithms 1 and 2 have round budgets known to every node in
advance (``c · 2^i``), so phases are globally aligned and the ledger
charges the full budget plus the pruner's constant time — exactly the
accounting of the proofs of Theorems 1 and 2 (deviation D7 in
DESIGN.md).

The engine records a :class:`StepRecord` per ``B`` step; the records
render Figure 1's schematic via :func:`render_trace`.
"""

from __future__ import annotations

from time import perf_counter

from ..errors import ReproError
from ..local.algorithm import HostAlgorithm
from ..local.runner import last_stepping, note_stepping
from .domain import as_domain


class StepRecord:
    """One ``A_i ; P`` step of an alternation.

    ``backends`` attributes the step's two runs to their stepping
    strategy — ``(algorithm, pruning)``, each ``"rf"`` (a batch
    kernel's round-fused drive) or ``"reference"`` (the reference loop,
    which also runs every compiled run without a kernel, D33); host
    orchestrations report the stepping of their last inner run, and
    ``None`` means nothing executed.
    ``seconds`` is the step's wall clock, so traces and benches can
    attribute time per step and per backend.
    """

    __slots__ = (
        "label",
        "iteration",
        "index",
        "guesses",
        "budget",
        "charged",
        "nodes_before",
        "pruned",
        "backends",
        "seconds",
    )

    def __init__(
        self,
        label,
        iteration,
        index,
        guesses,
        budget,
        charged,
        nodes_before,
        pruned,
        backends=(None, None),
        seconds=None,
    ):
        self.label = label
        self.iteration = iteration
        self.index = index
        self.guesses = guesses
        self.budget = budget
        self.charged = charged
        self.nodes_before = nodes_before
        self.pruned = pruned
        self.backends = backends
        self.seconds = seconds

    @property
    def nodes_after(self):
        return self.nodes_before - self.pruned

    def __repr__(self):
        return (
            f"StepRecord(i={self.iteration}, j={self.index}, {self.label}, "
            f"budget={self.budget}, {self.nodes_before}->{self.nodes_after})"
        )


class TransformResult:
    """Final outcome of a transformer run.

    Attributes
    ----------
    outputs:
        Combined output vector (Observation 3.4's gluing of per-step
        tentative outputs over the pruned sets).
    rounds:
        Total rounds charged (aligned-schedule accounting).
    steps:
        List of :class:`StepRecord`.
    completed:
        False when a budget cut the run short (Theorem 4 restriction);
        remaining nodes carry the default output.
    """

    __slots__ = ("name", "outputs", "rounds", "steps", "completed")

    def __init__(self, name, outputs, rounds, steps, completed):
        self.name = name
        self.outputs = outputs
        self.rounds = rounds
        self.steps = steps
        self.completed = completed

    def backend_summary(self):
        """Wall clock and step counts grouped by executing backend.

        Returns ``{"algo|prune": {"steps": k, "seconds": s}}`` over the
        recorded :class:`StepRecord` backends — what the throughput
        bench prints to show where an alternation's time actually went
        (e.g. batch guess runs stuck with reference-loop pruning).
        """
        summary = {}
        for step in self.steps:
            algo, prune = step.backends or (None, None)
            key = f"{algo or '?'}|{prune or '?'}"
            entry = summary.setdefault(key, {"steps": 0, "seconds": 0.0})
            entry["steps"] += 1
            if step.seconds is not None:
                entry["seconds"] += step.seconds
        for entry in summary.values():
            entry["seconds"] = round(entry["seconds"], 6)
        return summary

    def __repr__(self):
        return (
            f"TransformResult({self.name!r}, rounds={self.rounds}, "
            f"steps={len(self.steps)}, completed={self.completed})"
        )


class AlternatingEngine:
    """Mutable state of one alternation: domain, inputs, outputs, ledger."""

    def __init__(self, domain, inputs, pruning, *, seed=0, default_output=0):
        self.domain = as_domain(domain)
        self.inputs = dict(inputs or {})
        self.pruning = pruning
        self.seed = seed
        self.default_output = default_output
        self.outputs = {}
        self.rounds = 0
        self.steps = []

    @property
    def active(self):
        return self.domain.n

    @property
    def done(self):
        return self.domain.n == 0

    def charge(self, rounds):
        """Charge rounds outside a step (e.g. Theorem 5 phase plumbing)."""
        self.rounds += rounds

    def step_with(self, runner, *, label, iteration, index, guesses, budget):
        """One ``B = (A ; P)`` step via a caller-supplied runner.

        ``runner(domain, inputs, salt)`` must return
        ``(tentative_outputs, rounds_charged)`` with every active node
        carrying a tentative value.  Returns the number of pruned nodes.
        """
        if self.done:
            return 0
        salt = f"{label}|{iteration}|{index}"
        started = perf_counter()
        note_stepping(None)
        tentative, charged = runner(self.domain, self.inputs, salt)
        algo_backend = last_stepping()
        self.rounds += charged
        note_stepping(None)
        prune = self.pruning.apply(
            self.domain,
            self.inputs,
            tentative,
            seed=self.seed,
            salt=f"{salt}|prune",
        )
        prune_backend = last_stepping()
        self.rounds += prune.rounds
        for u in prune.pruned:
            self.outputs[u] = tentative[u]
        record = StepRecord(
            label=label,
            iteration=iteration,
            index=index,
            guesses=dict(guesses or {}),
            budget=budget,
            charged=charged + prune.rounds,
            nodes_before=self.domain.n,
            pruned=len(prune.pruned),
            backends=(algo_backend, prune_backend),
            seconds=perf_counter() - started,
        )
        self.steps.append(record)
        pruned = prune.pruned
        if pruned:
            survivors = [u for u in self.domain.nodes if u not in pruned]
            self.domain = self.domain.subgraph(survivors)
        else:
            survivors = self.domain.nodes
        self.inputs = {u: prune.new_inputs.get(u) for u in survivors}
        return len(pruned)

    def step_algorithm(self, algorithm, *, iteration, index, guesses, budget):
        """Standard step: run ``algorithm`` restricted to ``budget`` rounds.

        A :class:`~repro.local.algorithm.HostAlgorithm` restricts
        itself; any other box goes through the domain's restricted
        runner.
        """

        def runner(domain, inputs, salt):
            if isinstance(algorithm, HostAlgorithm):
                return algorithm.run_restricted(
                    domain,
                    budget,
                    inputs=inputs,
                    guesses=guesses,
                    seed=self.seed,
                    salt=salt,
                    default_output=self.default_output,
                )
            return domain.run_restricted(
                algorithm,
                budget,
                inputs=inputs,
                guesses=guesses,
                seed=self.seed,
                salt=salt,
                default_output=self.default_output,
            )

        return self.step_with(
            runner,
            label=algorithm.name,
            iteration=iteration,
            index=index,
            guesses=guesses,
            budget=budget,
        )

    def finalize(self, name, *, completed=True):
        """Build the result; unpruned nodes get the default output."""
        outputs = dict(self.outputs)
        for u in self.domain.nodes:
            outputs[u] = self.default_output
        return TransformResult(name, outputs, self.rounds, self.steps, completed)


class AlternationDiverged(ReproError):
    """An alternation exhausted its iteration cap without pruning all nodes."""


def render_trace(result, *, max_steps=40):
    """ASCII rendering of Figure 1 for an actual execution.

    Each line is one ``B_i = (A_i ; P)`` box: the instance entering it,
    the guesses used, the budget, and the pruned/surviving split.
    """
    lines = [
        f"alternating trace of {result.name}: total rounds = {result.rounds}",
        "(G1,x1)",
    ]
    for step in result.steps[:max_steps]:
        guess_text = (
            ",".join(f"{k}={v}" for k, v in sorted(step.guesses.items()))
            or "uniform"
        )
        algo_backend, prune_backend = step.backends or (None, None)
        via = ""
        if algo_backend or prune_backend:
            via = f" via {algo_backend or '?'}/{prune_backend or '?'}"
        lines.append(
            f"  | B(i={step.iteration},j={step.index}): "
            f"A={step.label} [{guess_text}] restricted to {step.budget} "
            f"rounds ; P prunes {step.pruned}/{step.nodes_before}{via}"
        )
        lines.append(
            f"  v (G,x) with {step.nodes_after} node(s), "
            f"{step.charged} round(s) charged"
        )
    if len(result.steps) > max_steps:
        lines.append(f"  ... {len(result.steps) - max_steps} more steps")
    lines.append(
        "(∅,∅) — all nodes pruned; combined output is a solution "
        "(Observation 3.4)"
        if result.completed
        else "budget exhausted before termination"
    )
    return "\n".join(lines)
