"""Exception types shared across the library."""


class ReproError(Exception):
    """Base class for all library-specific errors."""


class NonTerminationError(ReproError):
    """An algorithm exceeded its round cap without every node terminating.

    Raised only when the caller did not request truncation (i.e. gave no
    ``default_output``).  The paper's *restriction to i rounds* operator
    (Section 2) is the truncating variant and never raises.

    ``shard_counts`` is populated by the sharded engine: a mapping
    ``shard index -> unfinished node count`` so a partitioned run's
    diagnostics show *where* the stragglers live, not just how many.
    """

    def __init__(self, algorithm_name, rounds, unfinished, shard_counts=None):
        self.algorithm_name = algorithm_name
        self.rounds = rounds
        self.unfinished = tuple(unfinished)
        self.shard_counts = dict(shard_counts) if shard_counts else None
        message = (
            f"algorithm {algorithm_name!r} did not terminate within "
            f"{rounds} rounds; {len(self.unfinished)} node(s) unfinished"
        )
        if self.shard_counts:
            per_shard = ", ".join(
                f"shard {s}: {count}"
                for s, count in sorted(self.shard_counts.items())
            )
            message += f" ({per_shard})"
        super().__init__(message)


class ParameterError(ReproError, ValueError):
    """A required global-parameter guess is missing or malformed.

    Subclasses :class:`ValueError` so eager argument validation (fault
    probabilities outside ``[0, 1]``, negative crash rounds, unknown
    fault-plan labels) reads as the standard library convention to
    callers that never import the library's error hierarchy.
    """


class FaultError(ReproError):
    """Base class of the fault-injection / resilience error family (D14).

    Covers both *modelled* faults (a malformed :class:`FaultPlan`) and
    *infrastructure* faults of the sharded channels (a worker process
    that hung or died).  The sharded retry ladder only retries
    subclasses flagged ``retryable`` — a worker's real exception is a
    bug to surface, not an outage to paper over.
    """

    #: Whether the sharded run may re-dispatch after this failure.
    retryable = False


class WorkerTimeoutError(FaultError):
    """A shard worker failed to report within the per-round timeout.

    The parent-side receive loop polls with a deadline instead of
    blocking forever, so a hung (or SIGSTOPped, or livelocked) worker
    surfaces as this error with the shard index and round attached —
    and the run retries once before degrading to the inline channel.
    """

    retryable = True

    def __init__(self, shard, round_no, timeout):
        self.shard = shard
        self.round_no = round_no
        self.timeout = timeout
        super().__init__(
            f"sharded worker {shard} did not report round {round_no} "
            f"within {timeout:.1f}s"
        )


class WorkerDiedError(FaultError, RuntimeError):
    """A shard worker died without reporting (EOF / broken pipe).

    Subclasses :class:`RuntimeError` for compatibility with callers that
    matched the pre-D14 generic failure; the message is kept verbatim.
    """

    retryable = True

    def __init__(self, message="sharded worker died without reporting",
                 shard=None, round_no=None):
        self.shard = shard
        self.round_no = round_no
        if shard is not None:
            message = f"{message} (shard {shard}, round {round_no})"
        super().__init__(message)


class RecoveryExhaustedError(FaultError):
    """Surgical shard recovery ran out of its per-run retry budget.

    Raised by a channel when ``recovery.MAX_RETRIES`` respawn
    attempts were consumed without completing the failed round.  Still
    ``retryable``: the run-level ladder may re-dispatch the whole run on
    the inline channel as a last resort.
    """

    retryable = True

    def __init__(self, shard, round_no, attempts, cause=None):
        self.shard = shard
        self.round_no = round_no
        self.attempts = attempts
        self.cause = cause
        message = (
            f"shard {shard} could not be recovered at round {round_no} "
            f"after {attempts} respawn attempt(s)"
        )
        if cause is not None:
            message += f" (last cause: {cause})"
        super().__init__(message)


class CheckpointCorruptError(ReproError):
    """A spilled checkpoint file failed validation (magic/CRC/unpickle).

    Resuming from a torn or tampered journal would silently break the
    bit-identity contract, so the journal refuses it loudly instead.
    """


class ResilienceWarning(UserWarning):
    """A run degraded or recovered instead of failing.

    Emitted whenever the resilience machinery silently changes how a
    run executes — a worker respawn, a pool rebuild, a fallback from
    mp-pooled/mp to inline, a shared-memory halo overflow, or a
    numpy-free degradation — carrying shard/round/cause context so the
    degradation is observable without failing the run.
    """


class LaneCancelled(ReproError):
    """A fused lane was cancelled before completion (DESIGN.md D16).

    Never raised by :func:`~repro.local.fused.run_many` itself: the
    only way a lane gets cancelled is through the caller's own
    ``on_lane_done`` hook (speculative racing), so the exception object
    is placed in the lane's result slot for the caller to recognise.
    """

    def __init__(self, lane, winner=None):
        self.lane = lane
        self.winner = winner
        message = f"lane {lane} cancelled"
        if winner is not None:
            message += f" after lane {winner} won"
        super().__init__(message)


class InvalidInstanceError(ReproError):
    """An instance violates the preconditions of a problem or algorithm."""


class BoundViolationError(ReproError):
    """A declared runtime bound was exceeded by an actual execution.

    Declared bounds must be true upper bounds for our implementations;
    tests and the transformer harness raise this error when they are not,
    because every theorem in the paper silently assumes the declared ``f``
    really bounds the running time under good guesses.
    """
