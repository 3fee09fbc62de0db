"""The frozen execution record, its scopes and the ``REPRO_*`` parser.

The parser is exercised on plain mappings: every malformed value raises
``ParameterError`` naming its variable instead of silently becoming a
default.  Removed backend names are rejected with the valid ones listed,
the removed ``shard_channel=``, ``shards=`` and ``faults=`` keywords are
a ``TypeError`` at every entry point, the fault-injection names are gone
from the API, and a call without overrides resolves to the ambient
record itself.
"""

from __future__ import annotations

import re

import pytest

from repro.algorithms.luby import luby_mis
from repro.core.domain import PhysicalDomain
from repro.errors import ParameterError
from repro.local import (
    Execution,
    LocalAlgorithm,
    open_session,
    run,
    run_many,
    use_backend,
    use_batch,
    use_roundfuse,
)
from repro.local.execution import current, resolve


class TestEnvironmentParser:
    def test_defaults_when_unset_or_blank(self):
        assert Execution.from_env({}) == Execution()
        assert Execution.from_env({"REPRO_FUSE_LANES": "  "}) == Execution()

    def test_values_parse(self):
        execution = Execution.from_env({
            "REPRO_BACKEND": "reference",
            "REPRO_RNG": "mt",
            "REPRO_FUSE_LANES": "8",
            "REPRO_BATCH": "No",
            "REPRO_ROUNDFUSE": "off",
        })
        assert execution == Execution(
            backend="reference", rng="mt", lanes=8, batch=False,
            roundfuse=False,
        )

    @pytest.mark.parametrize("name,raw", [
        ("REPRO_FUSE_LANES", "0"),
        ("REPRO_BATCH", "maybe"),
        ("REPRO_ROUNDFUSE", "2"),
        ("REPRO_BACKEND", "batch"),
        ("REPRO_BACKEND", "sharded"),
        ("REPRO_RNG", "xorshift"),
    ])
    def test_malformed_values_name_the_variable(self, name, raw):
        with pytest.raises(ParameterError, match=name):
            Execution.from_env({name: raw})


class TestRemovedNames:
    @pytest.mark.parametrize("backend", ("jit", "batch", "fused", "sharded"))
    def test_removed_backends_rejected(self, small_gnp, backend):
        with pytest.raises(ParameterError,
                           match=r"\('compiled', 'reference'\)"):
            run(small_gnp, luby_mis(), backend=backend)

    @pytest.mark.parametrize("entry", (
        "run", "use_backend", "open_session", "domain",
    ))
    def test_shard_channel_keyword_removed(self, small_gnp, entry):
        with pytest.raises(TypeError, match="shard_channel"):
            entry_point(small_gnp, entry, shard_channel="inline")

    @pytest.mark.parametrize("keyword,value,entry", [
        *(pytest.param("shards", 2, entry, id=entry) for entry in (
            "run", "use_backend", "open_session", "domain", "run_many",
        )),
        # Only the entry points that took ``faults=`` before D24; the
        # domain runners never did.
        *(pytest.param("faults", None, entry, id=f"faults-{entry}")
          for entry in ("run", "rerun")),
    ])
    def test_shards_keyword_removed(self, small_gnp, keyword, value, entry):
        with pytest.raises(TypeError, match=keyword):
            entry_point(small_gnp, entry, **{keyword: value})

    @pytest.mark.parametrize("case", ("import", "flag", "capability"))
    def test_fault_injection_removed(self, case):
        """D24: fault injection left the API along with ``faults=``."""
        if case == "import":
            with pytest.raises(ImportError):
                from repro.local import use_faults  # noqa: F401
        elif case == "flag":
            with pytest.raises(TypeError, match="fault_batch"):
                LocalAlgorithm("x", lambda ctx: None, fault_batch=True)
        else:
            assert "supports_faulted_batch" not in luby_mis().capabilities()

    def test_shards_field_removed(self):
        with pytest.raises(TypeError, match="shards"):
            Execution(shards=2)
        assert Execution.from_env({"REPRO_SHARDS": "3"}) == Execution()


def entry_point(graph, entry, **removed):
    """Call one public execution entry point with ``removed`` keywords."""
    calls = {
        "run": lambda: run(graph, luby_mis(), **removed),
        "run_many": lambda: run_many([(graph, luby_mis())], **removed),
        "use_backend": lambda: use_backend("compiled", **removed).__enter__(),
        "open_session": lambda: open_session(graph, **removed),
        "domain": lambda: PhysicalDomain(graph).run_full(
            luby_mis(), **removed
        ),
        "rerun": lambda: open_session(graph).rerun(luby_mis(), **removed),
    }
    return calls[entry]()


class TestResolution:
    def test_no_overrides_returns_the_ambient_record(self):
        assert resolve() is current()
        with use_backend("compiled", rng="counter", lanes=4):
            assert resolve() is current()
            assert current().lanes == 4

    @pytest.mark.parametrize("name", ("lanes", "max_rounds"))
    @pytest.mark.parametrize("value", (2.7, 0.5, True, False, "2", None, -1),
                             ids=("2.7", "0.5", "True", "False", "str",
                                  "None", "-1"))
    def test_counts_must_be_ints(self, small_gnp, name, value):
        """Bad counts raise showing the value as passed, instead of being
        truncated (2.7 -> 2, True -> 1), misreported (0.5 -> 0) or
        reported back as a negative round count."""
        if isinstance(value, int) and not isinstance(value, bool):
            floor = 0 if name == "max_rounds" else 1
            shown = f"{name} must be >= {floor}, got {value!r}"
        else:
            shown = f"{name} must be an int, got {value!r}"
        if name == "lanes":
            calls = [lambda: Execution(lanes=value)]
            if value is not None:  # None means "no override" to resolve
                calls.append(lambda: resolve(lanes=value))
        else:
            if value is None:  # no cap given: truncation has none to cut at
                shown = "truncation requires an explicit max_rounds"
            calls = [
                lambda: run(small_gnp, luby_mis(), max_rounds=value,
                            truncate=True, default_output=0),
                lambda: run_many([(small_gnp, luby_mis())],
                                 max_rounds=value, truncate=True),
            ]
            if value is not None:
                calls.append(
                    lambda: run(small_gnp, luby_mis(), max_rounds=value)
                )
        for call in calls:
            with pytest.raises(ParameterError, match=re.escape(shown)):
                call()

    def test_parameter_errors_are_value_errors(self, small_gnp):
        """Callers that never import the library's error hierarchy catch
        eager argument validation as the standard ``ValueError``."""
        assert issubclass(ParameterError, ValueError)
        with pytest.raises(ValueError, match="max_rounds"):
            run(small_gnp, luby_mis(), max_rounds=-1)

    def test_rng_mode_follows_the_backend_unless_pinned(self):
        assert resolve(backend="reference").rng_mode == "mt"
        assert resolve(backend="compiled").rng_mode == "counter"
        with use_backend("compiled", rng="mt"):
            assert resolve(backend="reference").rng_mode == "mt"
            assert current().rng_mode == "mt"

    def test_scopes_swap_and_restore_the_record(self):
        before = current()
        with use_batch(False), use_roundfuse(False):
            assert not current().batch and not current().roundfuse
            assert current().backend == before.backend
        assert current() is before

    def test_lanes_on_any_compiled_scope(self, small_gnp):
        jobs = [(small_gnp, luby_mis(), {"seed": s}) for s in range(3)]
        plain = run_many(jobs)
        with use_backend("compiled", lanes=2):
            assert current().lanes == 2
            chunked = run_many(jobs)
        assert [r.outputs for r in chunked] == [r.outputs for r in plain]
