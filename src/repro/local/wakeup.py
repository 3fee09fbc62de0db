"""Non-simultaneous wake-up and the α-synchronizer (paper Section 2).

The paper defines, for executions in which nodes wake at different times:

* a node *terminates in time t* if it terminates at most ``t`` rounds
  after all nodes in ``B_G(u, t)`` have woken up;
* the *termination time* of ``u`` is the least such ``t``;
* the *running time* of an algorithm is the maximum termination time over
  all nodes and wake-up patterns.

It then observes that an algorithm designed for simultaneous wake-up can
be emulated with the simple α synchronizer at no asymptotic cost: a node
performs round ``i`` once all its neighbours have performed round
``i-1``.  :func:`run_with_wakeup` implements exactly this emulation.

Simulation note: the synchronizer's bookkeeping (neighbours' progress
counters) is read directly from the previous tick's state instead of
being carried in explicit piggybacked status messages.  The information
and its timing are identical to what the real protocol delivers, so round
counts are unaffected; this is a standard simulation shortcut.
"""

from __future__ import annotations

from ..errors import NonTerminationError, ParameterError
from .algorithm import LocalAlgorithm
from .context import NodeContext, rng_source
from .message import Broadcast, normalize_outgoing
from .runner import SAFETY_ROUND_CAP, RunResult, require_guesses


def run_with_wakeup(
    graph,
    algorithm,
    wake,
    *,
    inputs=None,
    guesses=None,
    seed=0,
    salt=0,
    max_ticks=None,
):
    """Run ``algorithm`` under a wake-up pattern with the α synchronizer.

    Parameters
    ----------
    wake:
        Mapping node -> global wake-up tick (non-negative int).

    This is its own per-node loop, not the compiled engine, and it draws
    the same per-node random sources as :func:`repro.local.runner.run`,
    so an all-zero wake pattern reproduces the synchronous run bit for
    bit under either backend — including for randomized algorithms.

    Returns a :class:`~repro.local.runner.RunResult` whose
    ``finish_round`` records *global* finish ticks; use
    :func:`termination_times` to convert to the paper's per-node
    termination times.
    """
    if not isinstance(algorithm, LocalAlgorithm):
        raise TypeError(f"expected LocalAlgorithm, got {type(algorithm).__name__}")
    guesses = require_guesses(algorithm, guesses)
    inputs = inputs or {}
    wake = {u: int(wake.get(u, 0)) for u in graph.nodes}
    if any(t < 0 for t in wake.values()):
        raise ParameterError("wake-up times must be non-negative")
    cap = SAFETY_ROUND_CAP if max_ticks is None else max_ticks
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

    # steps_done[u]: local steps performed (step 0 is `start`); -1 = asleep.
    steps_done = {u: -1 for u in graph.nodes}
    finished = {u: False for u in graph.nodes}
    outputs = {}
    finish_tick = {}
    messages = 0
    # payload sent by u at its local step j, for the neighbour on port q of u.
    sent = {u: [] for u in graph.nodes}  # list indexed by step -> outgoing spec

    def record(u, outgoing):
        nonlocal messages
        outgoing = normalize_outgoing(outgoing, graph.degree(u))
        sent[u].append(outgoing)
        if outgoing is None:
            return
        if isinstance(outgoing, Broadcast):
            messages += graph.degree(u)
        else:
            messages += len(outgoing)

    def payload_for(v, step, u_port_on_v):
        """Payload node v sent at local step ``step`` toward node u.

        Targeted dicts are keyed by the *sender's* ports, so the lookup
        key is u's port in v's numbering.
        """
        if step >= len(sent[v]):
            return _NOTHING
        outgoing = sent[v][step]
        if outgoing is None:
            return _NOTHING
        if isinstance(outgoing, Broadcast):
            return outgoing.payload
        if u_port_on_v in outgoing:
            return outgoing[u_port_on_v]
        return _NOTHING

    remaining = set(graph.nodes)
    tick = 0
    while remaining:
        if tick > cap:
            raise NonTerminationError(algorithm.name, cap, sorted(remaining, key=repr))
        progress_snapshot = dict(steps_done)
        finished_snapshot = dict(finished)
        for u in graph.nodes:
            if finished[u] or tick < wake[u]:
                continue
            if steps_done[u] == -1:
                # Wake up: perform local step 0 (the `start` computation).
                process = processes[u]
                record(u, process.start())
                steps_done[u] = 0
            else:
                next_step = steps_done[u] + 1
                ready = True
                for _, v, _ in graph.adj[u]:
                    if finished_snapshot[v]:
                        continue
                    if progress_snapshot[v] < next_step - 1:
                        ready = False
                        break
                if not ready:
                    continue
                inbox = {}
                for port, v, reverse_port in graph.adj[u]:
                    payload = payload_for(v, next_step - 1, reverse_port)
                    if payload is not _NOTHING:
                        inbox[port] = payload
                process = processes[u]
                record(u, process.receive(inbox))
                steps_done[u] = next_step
            process = processes[u]
            if process.done:
                finished[u] = True
                outputs[u] = process.result
                finish_tick[u] = tick
                remaining.discard(u)
        tick += 1

    rounds = max(finish_tick.values()) if finish_tick else 0
    return RunResult(outputs, finish_tick, rounds, messages, frozenset())


class _Nothing:
    __slots__ = ()


_NOTHING = _Nothing()


def termination_times(graph, wake, finish_tick):
    """Per-node termination times as defined in the paper (Section 2).

    ``t(u)`` is the least ``t`` such that ``finish_tick[u] <= t +
    max(wake(v) for v in B(u, t))``.
    """
    wake = {u: int(wake.get(u, 0)) for u in graph.nodes}
    times = {}
    for u in graph.nodes:
        target = finish_tick[u]
        # Grow the ball layer by layer, tracking the latest wake-up in it.
        seen = {u}
        frontier = [u]
        max_wake = wake[u]
        t = 0
        while target > t + max_wake:
            t += 1
            next_frontier = []
            for w in frontier:
                for _, v, _ in graph.adj[w]:
                    if v not in seen:
                        seen.add(v)
                        next_frontier.append(v)
                        if wake[v] > max_wake:
                            max_wake = wake[v]
            frontier = next_frontier
            if not frontier and target > t + max_wake:
                # Ball saturated the component; remaining slack is pure time.
                t = target - max_wake
                break
        times[u] = t
    return times


def running_time(graph, wake, finish_tick):
    """The paper's running time: maximum termination time over nodes."""
    times = termination_times(graph, wake, finish_tick)
    return max(times.values()) if times else 0
