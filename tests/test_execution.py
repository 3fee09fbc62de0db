"""The frozen execution record, its scopes and the ``REPRO_*`` parser.

The parser is exercised on plain mappings: every malformed value raises
``ParameterError`` naming its variable instead of silently becoming a
default.  Removed backend names are rejected with the valid ones listed,
the removed ``shard_channel=``, ``shards=``, ``faults=``, ``lanes=``,
``errors=``, ``on_lane_done=`` and ``seeds=`` keywords are a
``TypeError`` at every entry point that once took them, the
fault-injection, racing, round-fuse, batch and rng switch names are
gone from the API (every run draws the one counter scheme, D36), and a
call without overrides resolves to the ambient record itself.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.algorithms.luby import luby_mis
from repro.core.domain import PhysicalDomain, VirtualDomain
from repro.core.pruning import PruningAlgorithm
from repro.errors import ParameterError
from repro.graphs import line_graph_spec
from repro.local import (
    Execution,
    HostAlgorithm,
    LocalAlgorithm,
    open_session,
    run,
    run_many,
    run_with_wakeup,
    use_backend,
)
from repro.local import fused
from repro.local.execution import current, resolve

README = Path(__file__).resolve().parents[1] / "README.md"


def subclasses_of(*roots):
    """``roots`` and every class derived from them."""
    found = list(roots)
    for cls in found:
        found.extend(cls.__subclasses__())
    return found


class RecordingEnviron(dict):
    """A mapping that records every key it is asked for."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.asked = []

    def get(self, key, default=None):
        self.asked.append(key)
        return super().get(key, default)


class TestEnvironmentParser:
    def test_defaults_when_unset_or_blank(self):
        assert Execution.from_env({}) == Execution()
        assert Execution.from_env({"REPRO_BACKEND": "  "}) == Execution()

    def test_values_parse(self):
        execution = Execution.from_env({"REPRO_BACKEND": "reference"})
        assert execution == Execution(backend="reference")
        assert Execution.from_env({"REPRO_BACKEND": " compiled "}) == (
            Execution(backend="compiled")
        )

    @pytest.mark.parametrize("name,raw", [
        ("REPRO_BACKEND", "batch"),
        ("REPRO_BACKEND", "sharded"),
    ])
    def test_malformed_values_name_the_variable(self, name, raw):
        with pytest.raises(ParameterError, match=name):
            Execution.from_env({name: raw})

    def test_readme_table_names_exactly_the_parsed_variables(self):
        environ = RecordingEnviron()
        Execution.from_env(environ)
        documented = re.findall(
            r"^\| `(REPRO_\w+)` \|", README.read_text(), re.MULTILINE
        )
        assert sorted(documented) == sorted(set(environ.asked))
        assert len(documented) == len(set(documented))


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
        # D25: the fused lane width is a constant, and run_many lost its
        # error policy, its lane callback and its call-wide seeds.
        *(pytest.param("lanes", 2, entry, id=f"lanes-{entry}")
          for entry in ("run_many", "use_backend", "open_session")),
        *(pytest.param(keyword, value, entry, id=f"{keyword}-{entry}")
          for keyword, value in (
              ("errors", "raise"), ("on_lane_done", None), ("seeds", 0),
          )
          for entry in ("run_many", "rerun_many")),
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
            # D44: the capability record that carried the flag is gone.
            for module, name in (
                ("repro.local.algorithm", "capabilities_of"),
                ("repro.algorithms", "capability_table"),
                ("repro.algorithms", "row_capabilities"),
            ):
                with pytest.raises(ImportError):
                    exec(f"from {module} import {name}", {})

    @pytest.mark.parametrize("module,name", [
        ("repro.core", "speculative_race"),
        ("repro.core", "RaceArm"),
        ("repro.core", "RaceResult"),
        ("repro.errors", "LaneCancelled"),
        ("repro.local.service", "open"),
    ])
    def test_racing_names_removed(self, module, name):
        """D25: speculative racing, its cancellation error and the
        ``service.open`` alias left the API."""
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})

    @pytest.mark.parametrize("case", (
        "env", "field", "import",
        # Every entry point that took ``rng=`` before D36.
        "run", "run_many", "use_backend", "open_session", "rerun",
        "rerun_many", "domain", "domain_restricted", "virtual_domain",
        "virtual_domain_restricted", "wakeup",
    ))
    def test_rng_switch_removed(self, small_gnp, case):
        """D36: every run draws the counter scheme, so the variable, the
        field, the mt generator and the ``rng=`` keyword are gone."""
        if case == "env":
            environ = RecordingEnviron(REPRO_RNG="mt")
            assert Execution.from_env(environ) == Execution()
            assert environ.asked and "REPRO_RNG" not in environ.asked
        elif case == "field":
            assert [f.name for f in fields(Execution)] == ["backend"]
            with pytest.raises(TypeError, match="rng"):
                Execution(rng="counter")
        elif case == "import":
            with pytest.raises(ImportError):
                from repro.local import make_rng  # noqa: F401
            with pytest.raises(ImportError):
                from repro.local.context import make_rng  # noqa: F401, F811
        else:
            with pytest.raises(TypeError, match="rng"):
                entry_point(small_gnp, case, rng="counter")

    def test_slab_cache_stats_removed(self):
        """D32: the fused-slab cache counters were diagnostics only
        tests read; the cache itself stays."""
        with pytest.raises(ImportError):
            from repro.local import slab_cache_stats  # noqa: F401

    def test_shards_field_removed(self):
        with pytest.raises(TypeError, match="shards"):
            Execution(shards=2)
        assert Execution.from_env({"REPRO_SHARDS": "3"}) == Execution()

    def test_lanes_field_removed(self):
        """D25: no ``lanes`` field, and the parser never asks for
        ``REPRO_FUSE_LANES``."""
        with pytest.raises(TypeError, match="lanes"):
            Execution(lanes=2)
        environ = RecordingEnviron(REPRO_FUSE_LANES="8")
        assert Execution.from_env(environ) == Execution()
        assert environ.asked and "REPRO_FUSE_LANES" not in environ.asked

    @pytest.mark.parametrize("case", ("env", "field", "flag", "scope"))
    def test_roundfuse_switches_removed(self, case):
        """D30: every batch-kernel run is round-fused, so the kill
        switch, its field and scope, and the certification flag left
        the API."""
        if case == "env":
            environ = RecordingEnviron(REPRO_ROUNDFUSE="0")
            assert Execution.from_env(environ) == Execution()
            assert environ.asked and "REPRO_ROUNDFUSE" not in environ.asked
        elif case == "field":
            with pytest.raises(TypeError, match="roundfuse"):
                Execution(roundfuse=False)
        elif case == "flag":
            with pytest.raises(TypeError, match="roundfuse"):
                LocalAlgorithm("x", lambda ctx: None, roundfuse=True)
            # D44: no algorithm or pruner publishes a capability record.
            for cls in subclasses_of(
                LocalAlgorithm, HostAlgorithm, PruningAlgorithm
            ):
                assert not hasattr(cls, "capabilities"), cls.__name__
        else:
            with pytest.raises(ImportError):
                from repro.local import use_roundfuse  # noqa: F401

    def test_batch_switch_removed(self):
        """D33: a compiled run without a batch kernel is the reference
        loop, so the switch that selected the
        per-node compiled loop — variable, scope and field — is gone."""
        environ = RecordingEnviron(REPRO_BATCH="0")
        assert Execution.from_env(environ) == Execution()
        assert environ.asked and "REPRO_BATCH" not in environ.asked
        with pytest.raises(ImportError):
            from repro.local import use_batch  # noqa: F401
        with pytest.raises(TypeError, match="batch"):
            Execution(batch=False)


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
        "domain_restricted": lambda: PhysicalDomain(graph).run_restricted(
            luby_mis(), 2, **removed
        ),
        "virtual_domain": lambda: VirtualDomain(
            graph, line_graph_spec(graph)
        ).run_full(luby_mis(), **removed),
        "virtual_domain_restricted": lambda: VirtualDomain(
            graph, line_graph_spec(graph)
        ).run_restricted(luby_mis(), 2, **removed),
        "wakeup": lambda: run_with_wakeup(
            graph, luby_mis(), {}, **removed
        ),
        "rerun": lambda: open_session(graph).rerun(luby_mis(), **removed),
        "rerun_many": lambda: open_session(graph).rerun_many(
            [luby_mis()], **removed
        ),
    }
    return calls[entry]()


class TestResolution:
    def test_no_overrides_returns_the_ambient_record(self):
        assert resolve() is current()
        with use_backend("reference"):
            assert resolve() is current()
            assert current().backend == "reference"

    @pytest.mark.parametrize("name,value", [
        *(pytest.param("max_rounds", value, id=f"{shown}-max_rounds")
          for value, shown in (
              (2.7, "2.7"), (0.5, "0.5"), (True, "True"), (False, "False"),
              ("2", "str"), (None, "None"), (-1, "-1"),
          )),
        *(pytest.param(name, value, id=f"{shown}-{name}")
          for name in ("batch",)
          for value, shown in (("off", "off"), ("no", "no"), (0, "0"),
                               (1, "1"), (None, "None"))),
    ])
    def test_counts_must_be_ints(self, small_gnp, name, value):
        """Bad counts raise showing the value as passed, instead of being
        truncated (2.7 -> 2, True -> 1), misreported (0.5 -> 0) or
        reported back as a negative round count.  No switch takes such
        a value silently either: ``batch`` is not a field (D33), so
        every value, ``"off"`` included, is a ``TypeError``."""
        if name != "max_rounds":
            with pytest.raises(TypeError, match=name):
                Execution(**{name: value})
            return
        if isinstance(value, int) and not isinstance(value, bool):
            shown = f"{name} must be >= 0, got {value!r}"
        else:
            shown = f"{name} must be an int, got {value!r}"
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

    def test_scopes_swap_and_restore_the_record(self):
        before = current()
        with use_backend("reference"):
            assert current() == Execution(backend="reference")
            with use_backend("compiled"):
                assert current() == Execution(backend="compiled")
            assert current().backend == "reference"
        assert current() is before

    def test_lanes_on_any_compiled_scope(self, small_gnp, monkeypatch):
        algo = luby_mis()
        jobs = [(small_gnp, algo, {"seed": s}) for s in range(3)]
        plain = run_many(jobs)
        monkeypatch.setattr(fused, "LANE_WIDTH", 2)
        with use_backend("compiled"):
            chunked = run_many(jobs)
        assert [r.outputs for r in chunked] == [r.outputs for r in plain]
