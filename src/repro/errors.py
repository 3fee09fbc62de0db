"""Exception types shared across the library."""


class ReproError(Exception):
    """Base class for all library-specific errors."""


class NonTerminationError(ReproError):
    """An algorithm exceeded its round cap without every node terminating.

    Raised only when the caller did not request truncation (i.e. gave no
    ``default_output``).  The paper's *restriction to i rounds* operator
    (Section 2) is the truncating variant and never raises.
    """

    def __init__(self, algorithm_name, rounds, unfinished):
        self.algorithm_name = algorithm_name
        self.rounds = rounds
        self.unfinished = tuple(unfinished)
        super().__init__(
            f"algorithm {algorithm_name!r} did not terminate within "
            f"{rounds} rounds; {len(self.unfinished)} node(s) unfinished"
        )


class ParameterError(ReproError, ValueError):
    """A required global-parameter guess is missing or malformed.

    Subclasses :class:`ValueError` so eager argument validation (a
    negative or non-int ``max_rounds``, a malformed ``REPRO_*``
    variable, a self-loop in a ``GraphDelta``) reads as the standard
    library convention to callers that never import the library's error
    hierarchy.
    """


class InvalidInstanceError(ReproError):
    """An instance violates the preconditions of a problem or algorithm."""


class BoundViolationError(ReproError):
    """A declared runtime bound was exceeded by an actual execution.

    Declared bounds must be true upper bounds for our implementations;
    tests and the transformer harness raise this error when they are not,
    because every theorem in the paper silently assumes the declared ``f``
    really bounds the running time under good guesses.
    """
