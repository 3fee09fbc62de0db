"""The frozen execution record, its scopes and the ``REPRO_*`` parser.

The parser is exercised on plain mappings: every malformed value raises
``ParameterError`` naming its variable instead of silently becoming a
default.  Removed backend names are rejected with the valid ones listed,
the removed ``shard_channel=`` keyword is a ``TypeError`` at every entry
point, and a call without overrides resolves to the ambient record
itself.
"""

from __future__ import annotations

import re

import pytest

from repro.algorithms.luby import luby_mis
from repro.core.domain import PhysicalDomain
from repro.errors import ParameterError
from repro.local import (
    Execution,
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
        assert Execution.from_env({"REPRO_SHARDS": "  "}) == Execution()

    def test_values_parse(self):
        execution = Execution.from_env({
            "REPRO_BACKEND": "sharded",
            "REPRO_RNG": "mt",
            "REPRO_SHARDS": "3",
            "REPRO_FUSE_LANES": "8",
            "REPRO_BATCH": "No",
            "REPRO_ROUNDFUSE": "off",
        })
        assert execution == Execution(
            backend="sharded", rng="mt", shards=3, lanes=8, batch=False,
            roundfuse=False,
        )

    @pytest.mark.parametrize("name,raw", [
        ("REPRO_SHARDS", "0"),
        ("REPRO_SHARDS", "abc"),
        ("REPRO_FUSE_LANES", "0"),
        ("REPRO_BATCH", "maybe"),
        ("REPRO_ROUNDFUSE", "2"),
        ("REPRO_BACKEND", "batch"),
        ("REPRO_RNG", "xorshift"),
    ])
    def test_malformed_values_name_the_variable(self, name, raw):
        with pytest.raises(ParameterError, match=name):
            Execution.from_env({name: raw})



class TestRemovedNames:
    @pytest.mark.parametrize("backend", ("jit", "batch", "fused"))
    def test_removed_backends_rejected(self, small_gnp, backend):
        with pytest.raises(ParameterError, match="compiled.*reference.*sharded"):
            run(small_gnp, luby_mis(), backend=backend)

    @pytest.mark.parametrize("entry", (
        "run", "use_backend", "open_session", "domain",
    ))
    def test_shard_channel_keyword_removed(self, small_gnp, entry):
        calls = {
            "run": lambda: run(small_gnp, luby_mis(), shards=2,
                               shard_channel="inline"),
            "use_backend": lambda: use_backend(
                "sharded", shards=2, shard_channel="inline"
            ).__enter__(),
            "open_session": lambda: open_session(
                small_gnp, shards=2, shard_channel="inline"
            ),
            "domain": lambda: PhysicalDomain(small_gnp).run_full(
                luby_mis(), shards=2, shard_channel="inline"
            ),
        }
        with pytest.raises(TypeError, match="shard_channel"):
            calls[entry]()


class TestResolution:
    def test_no_overrides_returns_the_ambient_record(self):
        assert resolve() is current()
        with use_backend("compiled", rng="counter", lanes=4):
            assert resolve() is current()
            assert current().lanes == 4

    def test_per_call_shards_select_the_sharded_engine(self):
        execution = resolve(shards=3)
        assert (execution.backend, execution.shards) == ("sharded", 3)
        with pytest.raises(ParameterError, match="cannot take shards"):
            resolve(backend="reference", shards=2)
        with pytest.raises(ParameterError, match="shards must be >= 1"):
            resolve(shards=0)

    @pytest.mark.parametrize("name", ("shards", "lanes"))
    @pytest.mark.parametrize("value", (2.7, 0.5, True, False, "2", None),
                             ids=("2.7", "0.5", "True", "False", "str",
                                  "None"))
    def test_counts_must_be_ints(self, name, value):
        """Non-int counts raise showing the value as passed, instead of
        being truncated (2.7 -> 2, True -> 1) or misreported (0.5 -> 0)."""
        shown = re.escape(f"{name} must be an int, got {value!r}")
        with pytest.raises(ParameterError, match=shown):
            Execution(**{name: value})
        if value is not None:  # None means "no override" to resolve
            with pytest.raises(ParameterError, match=shown):
                resolve(**{name: value})

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
        for backend in ("compiled", "sharded"):
            with use_backend(backend, lanes=2):
                assert current().lanes == 2
                chunked = run_many(jobs)
            assert [r.outputs for r in chunked] == [r.outputs for r in plain]
