"""The frozen execution record, its scopes and the ``REPRO_*`` parser.

The parser is exercised on plain mappings: every malformed value raises
``ParameterError`` naming its variable instead of silently becoming a
default.  Removed backend and channel names are rejected with the valid
ones listed, and a call without overrides resolves to the ambient record
itself.
"""

from __future__ import annotations

import pytest

from repro.algorithms.luby import luby_mis
from repro.errors import ParameterError
from repro.local import (
    Execution,
    run,
    run_many,
    use_backend,
    use_batch,
    use_roundfuse,
)
from repro.local.execution import current, env_setting, resolve


class TestEnvironmentParser:
    def test_defaults_when_unset_or_blank(self):
        assert Execution.from_env({}) == Execution()
        assert Execution.from_env({"REPRO_SHARDS": "  "}) == Execution()

    def test_values_parse(self):
        execution = Execution.from_env({
            "REPRO_BACKEND": "sharded",
            "REPRO_RNG": "mt",
            "REPRO_SHARDS": "3",
            "REPRO_SHARD_CHANNEL": "mp-pooled",
            "REPRO_FUSE_LANES": "8",
            "REPRO_BATCH": "No",
            "REPRO_ROUNDFUSE": "off",
        })
        assert execution == Execution(
            backend="sharded", rng="mt", shards=3,
            shard_channel="mp-pooled", lanes=8, batch=False,
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
        ("REPRO_SHARD_CHANNEL", "mp"),
    ])
    def test_malformed_values_name_the_variable(self, name, raw):
        with pytest.raises(ParameterError, match=name):
            Execution.from_env({name: raw})

    def test_float_and_flag_settings(self):
        env = {"REPRO_SHARD_TIMEOUT": "0.5", "REPRO_CHECKPOINT": "no"}
        assert env_setting(env, "REPRO_SHARD_TIMEOUT", 30.0, float) == 0.5
        assert env_setting(env, "REPRO_CHECKPOINT", True, bool) is False
        assert env_setting({}, "REPRO_CHECKPOINT_DIR", None) is None
        with pytest.raises(ParameterError, match="REPRO_SHARD_TIMEOUT"):
            env_setting({"REPRO_SHARD_TIMEOUT": "soon"},
                        "REPRO_SHARD_TIMEOUT", 30.0, float)


class TestRemovedNames:
    @pytest.mark.parametrize("backend", ("jit", "batch", "fused"))
    def test_removed_backends_rejected(self, small_gnp, backend):
        with pytest.raises(ParameterError, match="compiled.*reference.*sharded"):
            run(small_gnp, luby_mis(), backend=backend)

    def test_removed_channel_rejected(self, small_gnp):
        with pytest.raises(ParameterError, match="inline.*mp-pooled"):
            run(small_gnp, luby_mis(), shards=2, shard_channel="mp")


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
