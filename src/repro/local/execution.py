"""How runs execute: one frozen :class:`Execution` record, resolved once.

Every executor choice — which engine and which random-source scheme —
lives in one immutable record.  The process starts from
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
#: round-fused and runs the reference loop under ``rng="counter"``
#: otherwise (D33); ``"reference"`` is the seed-faithful specification
#: loop.
BACKENDS = ("compiled", "reference")
RNG_MODES = ("counter", "mt")


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
    """One executor configuration.

    ``rng`` is ``None`` for the backend's native scheme (``"mt"`` for
    the reference loop, ``"counter"`` otherwise; see :attr:`rng_mode`).
    The compiled engine draws the counter scheme only (D29): pinning
    ``"mt"`` on it raises :class:`~repro.errors.ParameterError` here, so
    no fast path ever sees a scheme name.
    """

    backend: str = "compiled"
    rng: str | None = None

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ParameterError(
                f"unknown backend {self.backend!r} (use {BACKENDS})"
            )
        if self.rng is not None and self.rng not in RNG_MODES:
            raise ParameterError(
                f"unknown rng scheme {self.rng!r} (use {RNG_MODES})"
            )
        if self.backend == "compiled" and self.rng == "mt":
            raise ParameterError(
                "rng='mt' runs only on backend='reference'; the compiled "
                "engine draws rng='counter'"
            )

    @classmethod
    def from_env(cls, environ):
        """The record the ``REPRO_*`` variables of ``environ`` describe."""
        backend = env_setting(environ, "REPRO_BACKEND", "compiled",
                              choices=BACKENDS)
        rng = env_setting(environ, "REPRO_RNG", None, choices=RNG_MODES)
        try:
            return cls(backend, rng)
        except ParameterError as exc:  # each value parsed: the pairing
            raise ParameterError(f"REPRO_RNG={rng!r}: {exc}") from None

    @property
    def rng_mode(self):
        """The concrete random-source scheme runs draw from."""
        return self.rng or ("mt" if self.backend == "reference" else "counter")

    def resolve(self, backend=None, rng=None):
        """This record under per-call overrides (``self`` when none)."""
        if backend is None and rng is None:
            return self
        changes = {}
        if backend is not None:
            changes["backend"] = backend
        if rng is not None:
            changes["rng"] = rng
        return replace(self, **changes)


_ambient = Execution.from_env(os.environ)


def current():
    """The ambient record (what a run with no overrides executes under)."""
    return _ambient


def resolve(backend=None, rng=None):
    """The ambient record under per-call overrides."""
    return _ambient.resolve(backend, rng)


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
def use_backend(backend, rng=None):
    """Pin the backend (and optionally the rng scheme) for every run in
    the scope.

    The equivalence suite runs whole pipelines — alternations, virtual
    domains, portfolios — under each backend with ``rng="counter"``
    pinned, proving the engines interchangeable end to end.
    """
    with installed(_ambient.resolve(backend, rng)):
        yield

