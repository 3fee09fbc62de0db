"""Synchronous LOCAL-model runner.

Executes one algorithm on a :class:`~repro.local.graph.SimGraph` under the
paper's standard assumptions (Section 2): all nodes wake simultaneously,
rounds are fault-free and synchronous, messages sent in round ``r`` arrive
before round ``r+1``, message size and local computation are unbounded.

Round accounting follows the paper: the running time of an execution is
the number of rounds until every node has terminated.  A node that
terminates during :meth:`start` — before any communication — has
termination time 0.

The *restriction to i rounds* operator (Section 2) is obtained with
``max_rounds=i`` together with ``default_output``: nodes that have not
produced an output by round ``i`` are forced to terminate with the
default (the paper uses the arbitrary value "0").

Backends
--------
Two interchangeable executors implement these semantics:

* ``backend="compiled"`` (default) — the CSR engine of
  :mod:`repro.local.engine`: an algorithm's registered batch kernel is
  driven round-fused; a run without one (no kernel, ``track_bits``,
  or a declining factory) takes the reference loop below (DESIGN.md
  D33).
* ``backend="reference"`` — the original dict-based loop below, kept
  verbatim as the executable specification (eager per-node sources) and
  the one per-node interpreter.  It is the oracle the equivalence suite
  (``tests/test_engine_equivalence.py``) diffs the kernels against: the
  two backends produce bit-identical :class:`RunResult` fields.

Both draw the one counter random scheme
(:mod:`repro.local.context`, DESIGN.md D36).  Select per call
(``run(..., backend=...)``) or per scope
(:func:`~repro.local.execution.use_backend`, or the ``REPRO_BACKEND``
environment variable); both resolve into one
:class:`~repro.local.execution.Execution` record.
"""

from __future__ import annotations

from collections import defaultdict

from ..errors import NonTerminationError, ParameterError
from .algorithm import LocalAlgorithm
from .context import NodeContext, rng_source
from .execution import resolve
from .message import Broadcast, normalize_outgoing
from .msgsize import estimate_bits

#: Cap applied when the caller neither bounds the rounds nor truncates.
SAFETY_ROUND_CAP = 100_000

#: Stepping strategy of the most recent run in this process
#: (``"reference"``, ``"rf"`` or ``"fused"``);
#: ``None`` before the first run.  The alternation engine
#: samples this right after each guess/pruning run to attribute wall
#: clock per step (StepRecord backends) — a diagnostic channel,
#: deliberately kept out of :class:`RunResult` so the backend
#: equivalence contract stays field-for-field.
_LAST_STEPPING = None


def note_stepping(kind):
    """Record the stepping strategy that executed the latest run."""
    global _LAST_STEPPING
    _LAST_STEPPING = kind


def last_stepping():
    """Stepping strategy of the most recent run (``None`` if none ran)."""
    return _LAST_STEPPING


class RunResult:
    """Outcome of one synchronous execution.

    Attributes
    ----------
    outputs:
        Mapping node -> final output ``y(v)``.
    finish_round:
        Mapping node -> termination time (rounds of communication used).
    rounds:
        Running time of the execution: ``max(finish_round.values())``.
    messages:
        Total number of point-to-point payload deliveries.
    truncated:
        Frozenset of nodes forced to the default output by a round
        restriction (empty when the algorithm terminated on its own).
    max_message_bits:
        Largest single payload observed (only when the run was started
        with ``track_bits=True``; else ``None``) — the Section 6.2
        message-size instrumentation.
    """

    __slots__ = (
        "outputs",
        "finish_round",
        "rounds",
        "messages",
        "truncated",
        "max_message_bits",
    )

    def __init__(
        self,
        outputs,
        finish_round,
        rounds,
        messages,
        truncated,
        max_message_bits=None,
    ):
        self.outputs = outputs
        self.finish_round = finish_round
        self.rounds = rounds
        self.messages = messages
        self.truncated = truncated
        self.max_message_bits = max_message_bits

    def __repr__(self):
        return (
            f"RunResult(rounds={self.rounds}, messages={self.messages}, "
            f"truncated={len(self.truncated)})"
        )


def run(
    graph,
    algorithm,
    *,
    backend=None,
    **options,
):
    """Execute ``algorithm`` on ``graph`` and return a :class:`RunResult`.

    Parameters
    ----------
    graph:
        The :class:`SimGraph` to run on.
    algorithm:
        A :class:`LocalAlgorithm`.
    backend:
        ``"compiled"`` (CSR engine; an algorithm's registered batch
        kernel runs round-fused, any other run takes the reference
        loop) or ``"reference"`` (the specification loop).  ``None``
        uses the ambient :class:`~repro.local.execution.Execution`
        record.
    options:
        The run itself, see :func:`execute`: ``inputs``, ``guesses``,
        ``seed``, ``salt``, ``max_rounds``, ``default_output``,
        ``truncate`` and ``track_bits``.
    """
    return execute(graph, algorithm, resolve(backend), **options)


def require_guesses(algorithm, guesses, name=None):
    """``guesses`` as a fresh dict, checked to cover ``algorithm.requires``.

    Every entry point raises the same :class:`ParameterError` for a
    missing guess; ``name`` overrides the algorithm name it reports
    (virtual runs report ``virtual[<name>]``).
    """
    guesses = dict(guesses or {})
    missing = [p for p in algorithm.requires if p not in guesses]
    if missing:
        name = algorithm.name if name is None else name
        raise ParameterError(
            f"algorithm {name!r} requires guesses for {missing}"
        )
    return guesses


def round_cap(max_rounds, truncating):
    """The round cap a run with ``max_rounds`` executes under.

    ``None`` gives :data:`SAFETY_ROUND_CAP`, except that truncation
    needs an explicit cap.  Otherwise ``max_rounds`` must be an int (not
    a bool) of at least 0; anything else raises
    :class:`~repro.errors.ParameterError` showing the value as passed.
    """
    if max_rounds is None:
        if truncating:
            raise ParameterError("truncation requires an explicit max_rounds")
        return SAFETY_ROUND_CAP
    if not isinstance(max_rounds, int) or isinstance(max_rounds, bool):
        raise ParameterError(
            f"max_rounds must be an int, got {max_rounds!r} "
            f"({type(max_rounds).__name__})"
        )
    if max_rounds < 0:
        raise ParameterError(f"max_rounds must be >= 0, got {max_rounds!r}")
    return max_rounds


def execute(
    graph,
    algorithm,
    execution,
    *,
    inputs=None,
    guesses=None,
    seed=0,
    salt=0,
    max_rounds=None,
    default_output=None,
    truncate=False,
    track_bits=False,
):
    """:func:`run` under an already-resolved ``execution`` record.

    Parameters
    ----------
    inputs:
        Optional mapping node -> input ``x(v)``; missing nodes get ``None``.
    guesses:
        Mapping parameter-name -> common guessed value (the Γ̃ of the
        paper).  Must cover ``algorithm.requires``.
    seed, salt:
        Seed material for the per-node RNGs; two runs with identical
        arguments are bit-for-bit identical.
    max_rounds:
        Round cap, an int of at least 0 (see :func:`round_cap`).  With
        ``truncate=True`` (or a non-None ``default_output``) unfinished
        nodes are forced to the default output — the paper's
        restriction operator.  Otherwise exceeding the cap raises
        :class:`NonTerminationError`.
    default_output:
        Output forced on truncated nodes.
    truncate:
        Explicitly request truncation semantics even when the default
        output is ``None``.
    track_bits:
        Record the largest payload size observed (Section 6.2's
        message-size instrumentation; small runtime overhead).
    """
    if not isinstance(algorithm, LocalAlgorithm):
        raise TypeError(f"expected LocalAlgorithm, got {type(algorithm).__name__}")
    guesses = require_guesses(algorithm, guesses)
    inputs = inputs or {}
    truncating = truncate or default_output is not None
    cap = round_cap(max_rounds, truncating)
    if execution.backend == "compiled":
        from .engine import run_compiled

        result = run_compiled(
            graph,
            algorithm,
            inputs=inputs,
            guesses=guesses,
            seed=seed,
            salt=salt,
            cap=cap,
            truncating=truncating,
            default_output=default_output,
            track_bits=track_bits,
            result_cls=RunResult,
        )
        if result is not None:
            return result
    return _run_reference(
        graph,
        algorithm,
        inputs=inputs,
        guesses=guesses,
        seed=seed,
        salt=salt,
        cap=cap,
        truncating=truncating,
        default_output=default_output,
        track_bits=track_bits,
    )


def _run_reference(
    graph,
    algorithm,
    *,
    inputs,
    guesses,
    seed,
    salt,
    cap,
    truncating,
    default_output,
    track_bits,
):
    """The specification loop: fresh dict inboxes every round.

    Kept verbatim from the seed implementation (modulo the counter rng
    scheme) as the oracle for the batch kernels' equivalence suite, and
    the one per-node interpreter: compiled runs without a batch kernel
    land here (D33).
    """
    note_stepping("reference")
    make_gen = rng_source(seed, salt)
    processes = {}
    for u in graph.nodes:
        ctx = NodeContext(
            node=u,
            ident=graph.ident[u],
            degree=graph.degree(u),
            input=inputs.get(u),
            guesses=guesses,
            rng=make_gen(graph.ident[u]),
        )
        processes[u] = algorithm.make(ctx)

    outputs = {}
    finish_round = {}
    messages = 0
    max_bits = 0
    active = []

    # Round 0: wake-up.  `pending[u]` maps the receiver's port -> payload;
    # only a node that receives a message gets an inbox.
    pending = defaultdict(dict)

    def route(u, outgoing):
        nonlocal messages, max_bits
        outgoing = normalize_outgoing(outgoing, graph.degree(u))
        if outgoing is None:
            return
        if isinstance(outgoing, Broadcast):
            payload = outgoing.payload
            if track_bits:
                bits = estimate_bits(payload)
                if bits > max_bits:
                    max_bits = bits
            for _, v, reverse_port in graph.adj[u]:
                pending[v][reverse_port] = payload
                messages += 1
            return
        adj = graph.adj[u]
        for port, payload in outgoing.items():
            if track_bits:
                bits = estimate_bits(payload)
                if bits > max_bits:
                    max_bits = bits
            _, v, reverse_port = adj[port]
            pending[v][reverse_port] = payload
            messages += 1

    for u in graph.nodes:
        process = processes[u]
        route(u, process.start())
        if process.done:
            outputs[u] = process.result
            finish_round[u] = 0
        else:
            active.append(u)

    rounds = 0
    while active:
        if rounds >= cap:
            if truncating:
                for u in active:
                    outputs[u] = default_output
                    finish_round[u] = cap
                return RunResult(
                    outputs,
                    finish_round,
                    cap,
                    messages,
                    frozenset(active),
                    max_bits if track_bits else None,
                )
            raise NonTerminationError(algorithm.name, cap, active)
        rounds += 1
        delivery = pending
        pending = defaultdict(dict)
        still_active = []
        for u in active:
            process = processes[u]
            route(u, process.receive(delivery.get(u, {})))
            if process.done:
                outputs[u] = process.result
                finish_round[u] = rounds
            else:
                still_active.append(u)
        active = still_active

    total = max(finish_round.values()) if finish_round else 0
    return RunResult(
        outputs,
        finish_round,
        total,
        messages,
        frozenset(),
        max_bits if track_bits else None,
    )


def run_restricted(graph, algorithm, rounds, *, default_output=0, **kwargs):
    """The paper's ``A restricted to i rounds``: truncate at ``rounds``.

    Nodes without an output by then get ``default_output`` (the paper's
    arbitrary value "0").
    """
    return run(
        graph,
        algorithm,
        max_rounds=rounds,
        default_output=default_output,
        truncate=True,
        **kwargs,
    )
