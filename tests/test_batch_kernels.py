"""Batched frontier-step infrastructure (DESIGN.md D10).

Covers the pieces under the equivalence suite's bit-identity umbrella:
the vectorized counter draws, the numpy-free fallback, the capability
records that drive backend selection, and the batch-path plumbing.
"""

from __future__ import annotations

import pytest

from repro.algorithms import TABLE1, capability_table
from repro.algorithms.arboricity import h_partition
from repro.algorithms.fast_mis import fast_mis
from repro.algorithms.luby import luby_mis
from repro.algorithms.ruling_sets import bitwise_ruling_set
from repro.core.domain import PhysicalDomain, VirtualDomain
from repro.core.pruning import (
    MatchingPruning,
    RulingSetPruning,
    SLCPruning,
    mis_pruning,
)
from repro.graphs import line_graph_spec
from repro.local import CounterRNG, run, use_backend
from repro.local import batch as batch_module
from repro.local.algorithm import HostAlgorithm, capabilities_of
from repro.local.context import counter_rng, run_key
from repro.local.execution import Execution, resolve

numpy = pytest.importorskip("numpy")


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


def reference_counter():
    """The scope every kernel-less compiled run must equal (D33)."""
    return use_backend("reference")


class TestFallbackWithoutNumpy:
    def test_runs_green_and_identical(self, small_gnp, monkeypatch):
        """With numpy gone every run takes the reference loop."""
        with reference_counter():
            expected = run(small_gnp, luby_mis(), seed=3)
        monkeypatch.setattr(batch_module, "_np", None)
        assert not batch_module.available()
        result = run(small_gnp, luby_mis(), seed=3)
        assert result.outputs == expected.outputs
        assert result.rounds == expected.rounds
        assert result.messages == expected.messages

    def test_virtual_domain_falls_back(self, small_gnp, monkeypatch):
        spec = line_graph_spec(small_gnp)
        guesses = {"m": small_gnp.max_ident**2, "Delta": 2 * small_gnp.max_degree}
        domain = VirtualDomain(small_gnp, spec)
        with reference_counter():
            expected = domain.run_restricted(
                fast_mis(), 40, seed=5, guesses=guesses
            )
        monkeypatch.setattr(batch_module, "_np", None)
        domain = VirtualDomain(small_gnp, spec)
        actual = domain.run_restricted(fast_mis(), 40, seed=5, guesses=guesses)
        assert actual == expected

    def test_line_graph_spec_names_numpy(self, small_gnp, monkeypatch):
        """The array line-graph builder needs numpy."""
        from repro.errors import ParameterError

        monkeypatch.setattr(batch_module, "_np", None)
        with pytest.raises(ParameterError, match="numpy"):
            line_graph_spec(small_gnp)

    def test_gnp_names_numpy(self, monkeypatch):
        """G(n, p) draws from numpy; only the draw-free ends skip it."""
        from repro.errors import ParameterError
        from repro.graphs import families

        monkeypatch.setattr(batch_module, "_np", None)
        with pytest.raises(ParameterError, match="gnp requires numpy"):
            families.gnp(20, 0.2, seed=1)
        assert families.gnp(5, 0, seed=1).number_of_edges() == 0
        assert families.gnp(5, 1, seed=1).number_of_edges() == 10

    def test_random_batch_raises_cleanly(self, monkeypatch):
        from repro.errors import ParameterError

        monkeypatch.setattr(batch_module, "_np", None)
        with pytest.raises(ParameterError):
            CounterRNG.random_batch([1, 2], 1)

    def test_new_kernels_fall_back(self, small_gnp, monkeypatch):
        """Bitwise ruling and H-partition run green without numpy."""
        jobs = (
            (bitwise_ruling_set(), {"m": small_gnp.max_ident}),
            (h_partition(), {"a": 2, "n": small_gnp.n}),
        )
        expected = []
        with reference_counter():
            for algo, guesses in jobs:
                expected.append(run(small_gnp, algo, seed=3, guesses=guesses))
        monkeypatch.setattr(batch_module, "_np", None)
        for (algo, guesses), want in zip(jobs, expected):
            got = run(small_gnp, algo, seed=3, guesses=guesses)
            assert got.outputs == want.outputs
            assert got.rounds == want.rounds
            assert got.messages == want.messages

    def test_pruner_kernels_fall_back(self, small_gnp, monkeypatch):
        """Pruning applications run green (and identically) without numpy."""
        tentative = {u: small_gnp.ident[u] % 2 for u in small_gnp.nodes}
        pruners = (mis_pruning(), MatchingPruning())
        expected = []
        with reference_counter():
            for pruner in pruners:
                expected.append(
                    pruner.apply(PhysicalDomain(small_gnp), {}, tentative)
                )
        monkeypatch.setattr(batch_module, "_np", None)
        for pruner, want in zip(pruners, expected):
            got = pruner.apply(PhysicalDomain(small_gnp), {}, tentative)
            assert got.pruned == want.pruned
            assert got.new_inputs == want.new_inputs
            assert got.rounds == want.rounds


class TestCapabilities:
    def test_local_algorithm_records(self):
        caps = capabilities_of(luby_mis())
        assert caps["kind"] == "node"
        assert caps["supports_batch"] is True
        assert caps["randomized"] is True
        plain = capabilities_of(HostAlgorithm())
        assert plain["kind"] == "host"
        assert plain["supports_batch"] is False
        assert capabilities_of(object()) == {}

    def test_registry_table(self):
        table = capability_table()
        assert set(table) == set(TABLE1)
        assert table["mis-fast"]["supports_batch"] is True
        assert table["mis-nonly"]["supports_batch"] is True
        assert table["luby"]["supports_batch"] is True
        assert table["ruling-c1"]["supports_batch"] is True
        assert table["matching"]["kind"] == "host"
        assert table["matching"]["inner_supports_batch"] is True
        assert table["mis-arb-product"]["kind"] == "host"
        for caps in table.values():
            assert caps["domains"]

    def test_registry_table_covers_pruners(self):
        """Every row republishes its pruner's capability record."""
        table = capability_table()
        for row_id, caps in table.items():
            prune_caps = caps["pruning"]
            assert prune_caps["kind"] == "pruning", row_id
            assert prune_caps["supports_batch"] is True, row_id
            assert prune_caps["rounds"] >= 1, row_id
            assert prune_caps["name"], row_id

    def test_pruner_capability_records(self):
        caps = capabilities_of(RulingSetPruning(beta=3))
        assert caps["kind"] == "pruning"
        assert caps["rounds"] == 4
        assert caps["supports_batch"] is True
        assert capabilities_of(MatchingPruning())["supports_batch"] is True
        assert capabilities_of(SLCPruning())["supports_batch"] is True

        class ApplyOnly(RulingSetPruning):
            """Wrapper overriding apply() without a concrete algorithm."""

            def algorithm(self):
                raise NotImplementedError

        conservative = capabilities_of(ApplyOnly())
        assert conservative["kind"] == "pruning"
        assert conservative["supports_batch"] is False

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
        from pathlib import Path

        text = Path(__file__).resolve().parents[1].joinpath("setup.py").read_text()
        assert '"numpy"' in text
