"""Algorithm and node-process abstractions.

A LOCAL algorithm is described by a :class:`LocalAlgorithm`: metadata (its
name and the collection Γ of global parameters its code consumes) plus a
factory that builds one :class:`NodeProcess` per node.  The process runs
the node's state machine:

* :meth:`NodeProcess.start` is called once when the node wakes up and
  returns the messages of the node's first round;
* :meth:`NodeProcess.receive` is called once per subsequent round with
  the inbox (a dict ``port -> payload``) and returns the round's outgoing
  messages;
* the process calls :meth:`NodeProcess.finish` to commit its final output
  ``y(v)``; messages returned by the finishing call are still delivered,
  after which the node is inert.

The *restriction to i rounds* of the paper (Section 2) is obtained by
running with ``max_rounds=i`` and a default output; see
:func:`repro.local.runner.run`.
"""

from __future__ import annotations

from ..errors import ParameterError


class NodeProcess:
    """Base class for the per-node state machine of a LOCAL algorithm."""

    __slots__ = ("ctx", "done", "result")

    def __init__(self, ctx):
        self.ctx = ctx
        self.done = False
        self.result = None

    # -- lifecycle ------------------------------------------------------
    def start(self):
        """First activation; return the messages of the node's round 1."""
        return None

    def receive(self, inbox):
        """Process one round's inbox; return the next outgoing messages."""
        raise NotImplementedError

    def finish(self, result):
        """Commit the node's final output and stop participating."""
        self.done = True
        self.result = result


class LocalAlgorithm:
    """Declarative description of a LOCAL algorithm.

    Parameters
    ----------
    name:
        Human-readable identifier used in errors, traces and reports.
    process:
        Callable ``NodeContext -> NodeProcess``.
    requires:
        Names of the global parameters Γ the code consumes through
        ``ctx.guess`` (empty tuple -> the algorithm is *uniform*).
    randomized:
        Whether the algorithm consumes random bits (``ctx.rng``).
    batch:
        Optional batched-step kernel factory
        ``(BatchGraph, BatchSetup) -> kernel | None`` (DESIGN.md D10).
        When present, the compiled engine runs the whole schedule
        through the kernel in one round-fused drive (D17, D30) instead
        of dispatching ``receive`` per node; a factory may return
        ``None`` to decline a configuration it cannot reproduce
        bit-identically, in which case the run takes the reference
        loop (D33).
    fuse:
        Whether the batch kernel is certified *fuse-safe* (DESIGN.md
        D16): all cross-node reads follow CSR edges or compare by
        value, global round/phase counters advance in lockstep for
        every node, and every message-ledger contribution flows through
        ``BatchGraph.charge``.  Only then may the fused engine run the
        kernel on a block-diagonal multi-run slab; uncertified
        algorithms run each lane solo instead.  ``fuse=True`` without a
        ``batch`` factory is a :class:`~repro.errors.ParameterError`.
    """

    __slots__ = (
        "name", "process", "requires", "randomized", "batch", "fuse",
    )

    def __init__(
        self, name, process, requires=(), randomized=False, batch=None,
        fuse=False,
    ):
        if fuse and batch is None:
            raise ParameterError(
                f"algorithm {name!r}: fuse=True needs a batch kernel factory"
            )
        self.name = name
        self.process = process
        self.requires = tuple(requires)
        self.randomized = bool(randomized)
        self.batch = batch
        self.fuse = bool(fuse)

    def make(self, ctx):
        """Instantiate the node process for one node."""
        return self.process(ctx)

    def __repr__(self):
        kind = "randomized" if self.randomized else "deterministic"
        gamma = ",".join(self.requires) if self.requires else "uniform"
        return f"LocalAlgorithm({self.name!r}, {kind}, Γ=({gamma}))"


class HostAlgorithm:
    """An algorithm realized as a host-level orchestration.

    Some of the paper's black boxes are themselves compositions of local
    algorithms with data-dependent stage lengths (e.g. the
    Barenboim–Elkin arboricity MIS processes H-partition classes
    sequentially, each through a nested uniform MIS).  Such boxes
    implement ``run_restricted`` directly against a
    :class:`~repro.core.domain.Domain`: the orchestration executes its
    stages as aligned phases, charges the full budget (the paper's
    sub-iteration accounting) and forces the default output on nodes it
    could not finish — identical restriction semantics to a plain
    :class:`LocalAlgorithm`.

    Subclasses define ``name``, ``requires``, ``randomized`` and
    ``run_restricted(domain, budget, *, inputs, guesses, seed, salt,
    default_output) -> (outputs, rounds_charged)``.
    """

    name = "host-algorithm"
    requires = ()
    randomized = False

    def run_restricted(
        self, domain, budget, *, inputs, guesses, seed, salt, default_output
    ):
        raise NotImplementedError

    def __repr__(self):
        gamma = ",".join(self.requires) if self.requires else "uniform"
        return f"HostAlgorithm({self.name!r}, Γ=({gamma}))"


class FunctionProcess(NodeProcess):
    """Single-shot process computing its output from the context alone.

    Useful for zero-round algorithms (e.g. assigning layer indices from
    the node's own degree in Theorem 5's layering).
    """

    __slots__ = ("fn",)

    def __init__(self, ctx, fn):
        super().__init__(ctx)
        self.fn = fn

    def start(self):
        self.finish(self.fn(self.ctx))
        return None

    def receive(self, inbox):
        return None


def zero_round_algorithm(name, fn):
    """Build an algorithm whose output is a pure function of the context."""
    return LocalAlgorithm(
        name=name, process=lambda ctx: FunctionProcess(ctx, fn), requires=()
    )

