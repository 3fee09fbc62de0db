"""Batched frontier-step infrastructure (DESIGN.md D10).

Covers the pieces under the equivalence suite's bit-identity umbrella:
the vectorized counter draws, the object facts that drive backend
selection (a ``batch`` factory, ``fuse``, ``HostAlgorithm``), the
batch-path plumbing, and numpy's place among the declared dependencies.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy
import pytest

from repro.algorithms import TABLE1
from repro.algorithms.fast_mis import fast_mis
from repro.algorithms.luby import luby_mis
from repro.core.pruning import MatchingPruning, RulingSetPruning, SLCPruning
from repro.local import CounterRNG, run
from repro.local import batch as batch_module
from repro.local.algorithm import HostAlgorithm, LocalAlgorithm
from repro.local.context import counter_rng, run_key
from repro.local.execution import Execution, resolve


class TestCounterRandomBatch:
    def test_matches_scalar_draws_element_for_element(self):
        key = run_key(7, "salt")
        idents = [1, 2, 97, 12345, 2**66 + 3]
        keys = batch_module.ident_mix(idents) ^ numpy.uint64(key)
        streams = [counter_rng(key, ident) for ident in idents]
        for draw in range(1, 7):
            batched = CounterRNG.random_batch(keys, draw)
            scalar = [stream.getrandbits(62) for stream in streams]
            assert batched.tolist() == scalar, draw

    @pytest.mark.parametrize(
        "idents",
        [
            [1, 2**63, 2**64 - 1],
            [2**64, 2**70],
            [1, 2**63, 2**64 - 1, 2**64, 2**70],
        ],
    )
    def test_stream_keys_match_big_int_formula(self, idents):
        """The production stream keys ``ident_mix(idents) ^ key`` equal
        the scalar formula under the wrapping uint64 multiply
        (identities up to 2^64 - 1) and the big-int fallback (past it)."""
        mask = (1 << 64) - 1
        key = run_key(11, "mix")
        mix = 0xD1342543DE82EF95
        expected = [key ^ ((ident * mix) & mask) for ident in idents]
        keys = batch_module.ident_mix(idents) ^ numpy.uint64(key)
        assert keys.tolist() == expected
        assert batch_module.ident_mix(idents).tolist() == [
            (ident * mix) & mask for ident in idents
        ]

    @pytest.mark.parametrize("bits", (1, 8, 53, 62, 64))
    def test_bit_widths(self, bits):
        keys = batch_module.ident_mix([5, 6, 7]) ^ numpy.uint64(3)
        batched = CounterRNG.random_batch(keys, 1, bits)
        scalar = [CounterRNG(int(k)).getrandbits(bits) for k in keys.tolist()]
        assert batched.tolist() == scalar

    def test_rejects_bad_arguments(self):
        keys = batch_module.ident_mix([1]) ^ numpy.uint64(0)
        with pytest.raises(ValueError):
            CounterRNG.random_batch(keys, 0)
        with pytest.raises(ValueError):
            CounterRNG.random_batch(keys, 1, 65)

    def test_draw_source_matches_scalar_consumption(self):
        """CounterDraws(idx, t) is the t-th draw of each node's stream."""
        key = run_key(1, 0)
        idents = [11, 22, 33, 44]
        keys = batch_module.ident_mix(idents) ^ numpy.uint64(key)
        draws = batch_module.CounterDraws(keys)
        idx = numpy.array([0, 2, 3])
        second = draws.draws(idx, 2)
        for position, node in enumerate(idx.tolist()):
            stream = counter_rng(key, idents[node])
            stream.getrandbits(62)
            assert int(second[position]) == stream.getrandbits(62)


class TestDispatchFacts:
    """Dispatch reads the objects: a ``batch`` factory, ``fuse`` and
    ``HostAlgorithm``; there is no second description to drift."""

    def test_local_and_host_algorithms(self):
        algo = luby_mis()
        assert isinstance(algo, LocalAlgorithm)
        assert algo.batch is not None
        assert algo.randomized is True
        host = HostAlgorithm()
        assert not isinstance(host, LocalAlgorithm)
        assert not hasattr(host, "batch")

    def test_registry_rows(self):
        boxes = {
            row_id: row.make_nonuniform().algorithm
            for row_id, row in TABLE1.items()
        }
        for row_id in ("mis-fast", "mis-nonly", "luby", "ruling-c1"):
            assert boxes[row_id].batch is not None, row_id
        for row_id in ("matching", "mis-arb-product", "mis-arb-nonly"):
            assert isinstance(boxes[row_id], HostAlgorithm), row_id
        # The matching box drives fast MIS on the line graph.
        assert fast_mis().batch is not None

    def test_registry_rows_cover_pruners(self):
        """Every row's pruner compiles to a batched LOCAL algorithm."""
        for row_id, row in TABLE1.items():
            pruner = row.make_pruning()
            assert pruner.algorithm().batch is not None, row_id
            assert pruner.rounds >= 1, row_id
            assert pruner.name, row_id

    def test_pruner_algorithms(self):
        pruner = RulingSetPruning(beta=3)
        assert pruner.rounds == 4
        assert pruner.algorithm().batch is not None
        assert MatchingPruning().algorithm().batch is not None
        assert SLCPruning().algorithm().batch is not None

    def test_runner_rejects_non_node_kinds(self, small_gnp):
        with pytest.raises(TypeError):
            run(small_gnp, HostAlgorithm())


class TestBackendSelection:
    def test_batch_backend_resolves(self):
        """Batching is the compiled backend's own behaviour, not a
        backend or a flag (D33): the record carries the backend alone
        (D36)."""
        compiled = resolve("compiled")
        assert compiled == Execution(backend="compiled")
        assert not hasattr(compiled, "batch")
        assert resolve("reference") == Execution(backend="reference")

    def test_track_bits_falls_back(self, small_gnp):
        """Message-size instrumentation runs the reference loop."""
        result = run(small_gnp, luby_mis(), seed=3, track_bits=True)
        assert result.max_message_bits is not None
        assert result.max_message_bits > 0

    def test_kernel_built_only_when_registered(self, small_gnp):
        from repro.local.batch import make_engine_kernel

        cg = small_gnp.compiled()
        kernel = make_engine_kernel(
            luby_mis(), cg, inputs={}, guesses={}, seed=0, salt=0,
            track_bits=False,
        )
        assert kernel is not None
        from repro.local.algorithm import LocalAlgorithm, NodeProcess

        plain = LocalAlgorithm("plain", NodeProcess)
        assert (
            make_engine_kernel(
                plain, cg, inputs={}, guesses={}, seed=0, salt=0,
                track_bits=False,
            )
            is None
        )

    def test_setup_declares_numpy(self):
        """numpy is required (D39): ``setup(install_requires=[...])``
        lists it, so no import of it anywhere is guarded."""
        text = REPO.joinpath("setup.py").read_text()
        assert "numpy" in install_requires_of(text)

    @pytest.mark.parametrize(
        "setup_text",
        [
            'setup(install_requires=["networkx"])  # "numpy"\n',
            'setup(install_requires=["networkx"], extras_require={"x": ["numpy"]})\n',
            'setup(install_requires=["networkx"])\nREQUIRES = ["numpy"]\n',
        ],
        ids=["comment", "other-keyword", "other-list"],
    )
    def test_setup_check_reads_install_requires_only(self, setup_text):
        """numpy in a comment, another keyword or a stray list is not a
        declared dependency."""
        assert install_requires_of(setup_text) == ["networkx"]


REPO = Path(__file__).resolve().parents[1]
SOURCE = REPO / "src" / "repro"

#: The names the numpy-missing configuration went by before D39.
ABSENCE_SWITCH = {"_np", "numpy_or_none", "batch_available"}


def imports_numpy(node):
    """Whether the AST ``node`` is an import of numpy or a submodule."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and node.module.split(".")[0] == "numpy"
    return False


def names_in(tree):
    """Every name ``tree`` binds, reads or looks up as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def numpy_importers():
    """The modules under ``src/repro`` that import numpy, as paths
    relative to it."""
    return [
        path.relative_to(SOURCE).as_posix()
        for path in sorted(SOURCE.rglob("*.py"))
        if any(map(imports_numpy, ast.walk(ast.parse(path.read_text()))))
    ]


class TestNumpyRequired:
    """numpy is a hard dependency (D39): the source tree holds no
    configuration in which it is missing."""

    @pytest.mark.parametrize("module", numpy_importers())
    def test_imports_numpy_at_top_level(self, module):
        """Every import of numpy sits in the module body, none deferred
        into a function or guarded by ``try``/``if``."""
        tree = ast.parse(SOURCE.joinpath(module).read_text())
        top = [node for node in tree.body if imports_numpy(node)]
        nested = [
            node.lineno
            for node in ast.walk(tree)
            if imports_numpy(node) and node not in top
        ]
        assert top
        assert nested == []

    def test_no_switch_for_missing_numpy(self):
        """No module names the deleted absence switch or its probes."""
        found = [
            (path.relative_to(SOURCE).as_posix(), name)
            for path in sorted(SOURCE.rglob("*.py"))
            for name in names_in(ast.parse(path.read_text()))
            if name in ABSENCE_SWITCH
        ]
        assert found == []
        assert not hasattr(batch_module, "available")


def install_requires_of(setup_text):
    """The string elements of the ``install_requires`` list passed to
    ``setup(...)`` in ``setup_text``."""
    for node in ast.walk(ast.parse(setup_text)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setup"
        ):
            for keyword in node.keywords:
                if keyword.arg == "install_requires":
                    return [
                        element.value
                        for element in keyword.value.elts
                        if isinstance(element, ast.Constant)
                    ]
    return []
