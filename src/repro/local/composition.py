"""Sequential composition ``A1;A2`` of LOCAL algorithms (Observation 2.1).

The paper composes algorithms by letting each node start ``A2`` the moment
it locally terminates ``A1``; correctness for algorithms designed for
simultaneous wake-up is recovered with the α synchronizer, and the running
time of ``A1;A2`` is at most the sum of the individual running times.

:class:`Chain` packages this construction as a single
:class:`~repro.local.algorithm.LocalAlgorithm`: every node runs the stage
machine, exchanging *envelopes* that piggyback (a) the node's progress
counter ``(stage, steps-done)`` and (b) the payloads of the sub-steps it
executed this round.  A node executes local step ``i`` of stage ``s`` only
once every neighbour's progress reaches ``(s, i-1)``, which is exactly the
α-synchronizer rule; a node that terminates a stage during step ``k``
jumps to the next stage immediately (its progress then dominates every
step of the finished stage, so neighbours never wait for messages that
will not come).

Local computation is free in the LOCAL model, so a node finishing stage
``s`` performs the next stage's wake-up computation within the same round;
this gives the exact ``t1 + t2`` bound of Observation 2.1.
"""

from __future__ import annotations

from .algorithm import LocalAlgorithm, NodeProcess
from .context import NodeContext, counter_rng


def default_carry(stage_index, original_input, previous_outputs):
    """Default input threading: ``(original, tuple of previous outputs)``."""
    if stage_index == 0:
        return original_input
    return (original_input, tuple(previous_outputs))


class _ChainProcess(NodeProcess):
    __slots__ = (
        "stages",
        "carry",
        "stage_index",
        "steps_done",
        "sub",
        "sub_outputs",
        "neighbor_progress",
        "buffers",
        "progress_dirty",
    )

    def __init__(self, ctx, stages, carry):
        super().__init__(ctx)
        self.stages = stages
        self.carry = carry
        self.stage_index = 0
        self.steps_done = -1
        self.sub = None
        self.sub_outputs = []
        # Progress of each neighbour as of the latest envelope; a missing
        # port means "no news yet", i.e. progress (0, -1).
        self.neighbor_progress = {}
        # buffers[(stage, step)][port] = payload
        self.buffers = {}
        self.progress_dirty = True

    # -- helpers --------------------------------------------------------
    def _sub_ctx(self):
        stage = self.stage_index
        ctx = self.ctx
        # Each stage draws from its own sub-stream of the node's stream:
        # the node's s-th 64-bit draw keys stage s, as a virtual host
        # keys its hosted nodes, so stage streams follow the run's seed
        # and salt and stay independent of one another.
        return NodeContext(
            node=ctx.node,
            ident=ctx.ident,
            degree=ctx.degree,
            input=self.carry(stage, ctx.input, self.sub_outputs),
            guesses=ctx.guesses,
            rng=counter_rng(ctx.rng.getrandbits(64), ctx.ident),
        )

    def _progress(self):
        return (self.stage_index, self.steps_done)

    def _spawn_entries(self, entries):
        """Run as many sub-steps as the synchronizer allows this round.

        ``entries`` accumulates ``(stage, step, outgoing-spec)`` tuples for
        the envelope.  Stage wake-ups (step 0) never wait; subsequent
        steps require every neighbour to have completed the previous step
        of the same stage, where progress is compared lexicographically so
        neighbours already past the stage dominate.
        """
        while self.stage_index < len(self.stages):
            if self.sub is None:
                self.sub = self.stages[self.stage_index].make(self._sub_ctx())
                outgoing = self.sub.start()
                self.steps_done = 0
                entries.append((self.stage_index, 0, outgoing))
                self.progress_dirty = True
            else:
                next_step = self.steps_done + 1
                needed = (self.stage_index, next_step - 1)
                for port in range(self.ctx.degree):
                    progress = self.neighbor_progress.get(port, (0, -1))
                    if progress < needed:
                        return
                inbox = self.buffers.pop(
                    (self.stage_index, next_step - 1), {}
                )
                outgoing = self.sub.receive(inbox)
                self.steps_done = next_step
                entries.append((self.stage_index, next_step, outgoing))
                self.progress_dirty = True
            if self.sub.done:
                self.sub_outputs.append(self.sub.result)
                self.sub = None
                self.stage_index += 1
                self.steps_done = -1
                continue
            return
        # All stages finished.
        self.finish(tuple(self.sub_outputs))

    def _envelope(self, entries):
        """Targeted per-port envelopes with progress + addressed payloads."""
        from .message import Broadcast

        progress = (
            (len(self.stages), 0) if self.done else self._progress()
        )
        per_port = {}
        for port in range(self.ctx.degree):
            addressed = []
            for stage, step, outgoing in entries:
                if outgoing is None:
                    continue
                if isinstance(outgoing, Broadcast):
                    addressed.append((stage, step, outgoing.payload))
                elif port in outgoing:
                    addressed.append((stage, step, outgoing[port]))
            per_port[port] = ("env", progress, tuple(addressed))
        if not per_port:
            return None
        return per_port

    # -- NodeProcess API --------------------------------------------------
    def start(self):
        entries = []
        self._spawn_entries(entries)
        return self._envelope(entries)

    def receive(self, inbox):
        for port, message in inbox.items():
            if not (isinstance(message, tuple) and message and message[0] == "env"):
                continue
            _, progress, addressed = message
            self.neighbor_progress[port] = progress
            for stage, step, payload in addressed:
                self.buffers.setdefault((stage, step), {})[port] = payload
        entries = []
        self._spawn_entries(entries)
        return self._envelope(entries)


class Chain(LocalAlgorithm):
    """``A1;A2;...;Ak`` as a single LOCAL algorithm.

    The chain's output at a node is the tuple of all stage outputs; use
    ``result[-1]`` for the final stage's output.  Stage ``k`` receives as
    input ``carry(k, original_input, outputs_so_far)``.
    """

    def __init__(self, stages, *, name=None, carry=default_carry):
        stages = tuple(stages)
        if not stages:
            raise ValueError("Chain requires at least one stage")
        requires = []
        for stage in stages:
            for param in stage.requires:
                if param not in requires:
                    requires.append(param)
        super().__init__(
            name=name or ";".join(stage.name for stage in stages),
            process=lambda ctx: _ChainProcess(ctx, stages, carry),
            requires=tuple(requires),
            randomized=any(stage.randomized for stage in stages),
        )
        self.stages = stages
