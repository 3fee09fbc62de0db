"""How runs execute: one frozen :class:`Execution` record, resolved once.

Every executor choice — today, which engine — lives in one immutable
record.  The process starts from
:meth:`Execution.from_env`; the scope :func:`use_backend` swaps the
*ambient* record for a :func:`dataclasses.replace`-d copy; and
:func:`run
<repro.local.runner.run>`, :func:`run_many <repro.local.fused.run_many>`,
the domain runners and the session service each :func:`resolve` their
per-call overrides against it exactly once.  Everything downstream
reads the resolved record it was handed.

:func:`env_setting` is the one parser behind every ``REPRO_*``
variable the library reads: malformed values raise
:class:`~repro.errors.ParameterError` naming the variable instead of
silently falling back to a default.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

from ..errors import ParameterError

#: ``"compiled"`` drives an algorithm's registered batch kernel
#: round-fused and runs the reference loop otherwise (D33);
#: ``"reference"`` is the seed-faithful specification loop.  Both draw
#: the one counter random scheme (D36).
BACKENDS = ("compiled", "reference")


def env_setting(environ, name, default, choices=None):
    """Read the variable ``name`` from the mapping ``environ``.

    Unset or blank gives ``default``; ``choices`` restricts the accepted
    strings, and anything else raises
    :class:`~repro.errors.ParameterError`.
    """
    raw = environ.get(name, "").strip()
    if not raw:
        return default
    if choices is not None and raw not in choices:
        raise ParameterError(f"{name}={raw!r}: use one of {choices}")
    return raw


@dataclass(frozen=True)
class Execution:
    """One executor configuration."""

    backend: str = "compiled"

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ParameterError(
                f"unknown backend {self.backend!r} (use {BACKENDS})"
            )

    @classmethod
    def from_env(cls, environ):
        """The record the ``REPRO_*`` variables of ``environ`` describe."""
        return cls(env_setting(environ, "REPRO_BACKEND", "compiled",
                               choices=BACKENDS))

    def resolve(self, backend=None):
        """This record under per-call overrides (``self`` when none)."""
        if backend is None:
            return self
        return replace(self, backend=backend)


_ambient = Execution.from_env(os.environ)


def current():
    """The ambient record (what a run with no overrides executes under)."""
    return _ambient


def resolve(backend=None):
    """The ambient record under per-call overrides."""
    return _ambient.resolve(backend)


@contextmanager
def installed(execution):
    """Make ``execution`` the ambient record inside the scope."""
    global _ambient
    previous = _ambient
    _ambient = execution
    try:
        yield execution
    finally:
        _ambient = previous


@contextmanager
def use_backend(backend):
    """Pin the backend for every run in the scope.

    The equivalence suite runs whole pipelines — alternations, virtual
    domains, portfolios — under each backend, proving the engines
    interchangeable end to end.
    """
    with installed(_ambient.resolve(backend)):
        yield

