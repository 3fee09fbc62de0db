"""How runs execute: one frozen :class:`Execution` record, resolved once.

Every executor choice — which engine, which random-source scheme, how
wide a fused slab, and whether the batched (D10) and round-fused (D17)
tiers may engage — lives in one immutable record.
The process starts from :meth:`Execution.from_env`; the scopes
:func:`use_backend`, :func:`use_batch` and :func:`use_roundfuse` swap
the *ambient* record for a :func:`dataclasses.replace`-d copy; and
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

#: ``"compiled"`` is the CSR engine (batched and round-fused tiers
#: auto-engage for certified kernels), ``"reference"`` the seed-faithful
#: specification loop.
BACKENDS = ("compiled", "reference")
RNG_MODES = ("counter", "mt")

_TRUE = ("1", "on", "true", "yes")
_FALSE = ("0", "off", "false", "no")


def env_setting(environ, name, default, kind=str, choices=None):
    """Read the variable ``name`` from the mapping ``environ``.

    Unset or blank gives ``default``.  ``kind`` is ``bool`` (one of
    1/on/true/yes or 0/off/false/no, any case), ``int`` (at least 1)
    or ``str``; ``choices`` restricts the accepted values.
    Anything else raises :class:`~repro.errors.ParameterError`.
    """
    raw = environ.get(name, "").strip()
    if not raw:
        return default
    if kind is bool:
        if raw.lower() not in _TRUE + _FALSE:
            raise ParameterError(f"{name}={raw!r}: use one of {_TRUE + _FALSE}")
        return raw.lower() in _TRUE
    try:
        value = kind(raw)
    except ValueError:
        raise ParameterError(
            f"{name}={raw!r} is not a valid {kind.__name__}"
        ) from None
    if kind is int and value < 1:
        raise ParameterError(f"{name}={raw!r} must be >= 1")
    if choices is not None and value not in choices:
        raise ParameterError(f"{name}={raw!r}: use one of {choices}")
    return value


@dataclass(frozen=True)
class Execution:
    """One executor configuration.

    ``rng`` is ``None`` for the backend's native scheme (``"mt"`` for
    the reference loop, ``"counter"`` otherwise; see :attr:`rng_mode`).
    ``lanes`` caps the width of one fused
    :func:`~repro.local.fused.run_many` slab (D16) and must be an int
    (not a bool) of at least 1.  ``batch``
    and ``roundfuse`` let compiled runs take the batched frontier
    stepping (D10) and the round-fused drivers (D17) when the algorithm
    is certified for them.
    """

    backend: str = "compiled"
    rng: str | None = None
    lanes: int = 32
    batch: bool = True
    roundfuse: bool = True

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ParameterError(
                f"unknown backend {self.backend!r} (use {BACKENDS})"
            )
        if self.rng is not None and self.rng not in RNG_MODES:
            raise ParameterError(
                f"unknown rng scheme {self.rng!r} (use {RNG_MODES})"
            )
        lanes = self.lanes
        if not isinstance(lanes, int) or isinstance(lanes, bool):
            raise ParameterError(
                f"lanes must be an int, got {lanes!r} "
                f"({type(lanes).__name__})"
            )
        if lanes < 1:
            raise ParameterError(f"lanes must be >= 1, got {lanes!r}")

    @classmethod
    def from_env(cls, environ):
        """The record the ``REPRO_*`` variables of ``environ`` describe."""
        return cls(
            backend=env_setting(environ, "REPRO_BACKEND", "compiled",
                                choices=BACKENDS),
            rng=env_setting(environ, "REPRO_RNG", None, choices=RNG_MODES),
            lanes=env_setting(environ, "REPRO_FUSE_LANES", 32, int),
            batch=env_setting(environ, "REPRO_BATCH", True, bool),
            roundfuse=env_setting(environ, "REPRO_ROUNDFUSE", True, bool),
        )

    @property
    def rng_mode(self):
        """The concrete random-source scheme runs draw from."""
        return self.rng or ("mt" if self.backend == "reference" else "counter")

    def resolve(self, backend=None, rng=None, lanes=None):
        """This record under per-call overrides (``self`` when none)."""
        if backend is None and rng is None and lanes is None:
            return self
        changes = {}
        if backend is not None:
            changes["backend"] = backend
        if rng is not None:
            changes["rng"] = rng
        if lanes is not None:
            changes["lanes"] = lanes
        return replace(self, **changes)


_ambient = Execution.from_env(os.environ)


def current():
    """The ambient record (what a run with no overrides executes under)."""
    return _ambient


def resolve(backend=None, rng=None, lanes=None):
    """The ambient record under per-call overrides."""
    return _ambient.resolve(backend, rng, lanes)


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
def use_backend(backend, rng=None, lanes=None):
    """Pin the backend (and optionally the rng scheme and fused lane
    width) for every run in the scope.

    The equivalence suite runs whole pipelines — alternations, virtual
    domains, portfolios — under each backend with the rng scheme pinned,
    proving the engines interchangeable end to end.
    ``use_backend("compiled", lanes=b)`` packs every
    :func:`~repro.local.fused.run_many` inside at most ``b`` runs per
    block-diagonal slab (D16).
    """
    if lanes is not None and backend == "reference":
        raise ParameterError(
            "use_backend(..., lanes=b) requires a compiled backend; "
            "the reference loop never fuses runs"
        )
    with installed(_ambient.resolve(backend, rng, lanes)):
        yield


@contextmanager
def use_batch(enabled):
    """Pin the batched frontier stepping (D10) on or off in the scope
    (the equivalence suite diffs batch and per-node stepping under
    ``use_batch(False)``)."""
    with installed(replace(_ambient, batch=bool(enabled))):
        yield


@contextmanager
def use_roundfuse(enabled):
    """Pin the round-fused drivers (D17) on or off in the scope (the
    equivalence suite diffs fused and per-round stepping under
    ``use_roundfuse(False)``)."""
    with installed(replace(_ambient, roundfuse=bool(enabled))):
        yield
