"""Theorem 5: the uniform coloring transformer."""

from __future__ import annotations

import pytest

from repro.algorithms.lambda_coloring import (
    lambda_coloring_nonuniform,
    lambda_colors_bound,
    linial_scheme,
)
from repro.core import g_quadratic, theorem5
from repro.core.coloring_transformer import slc_wrap
from repro.errors import ParameterError
from repro.problems import PROPER_COLORING, ColorList, SLCInput


def build_uniform_linial():
    algorithm, bound, g = linial_scheme()
    return theorem5(algorithm, bound, g)


class TestTheorem5Linial:
    def test_proper_on_catalog(self, catalog):
        uc = build_uniform_linial()
        for name, graph in catalog.items():
            result = uc.run(graph, seed=1)
            assert PROPER_COLORING.is_solution(graph, {}, result.outputs), (
                name,
                PROPER_COLORING.violations(graph, {}, result.outputs)[:3],
            )

    def test_color_count_within_2g(self, catalog):
        algorithm, bound, g = linial_scheme()
        uc = theorem5(algorithm, bound, g)
        for name, graph in catalog.items():
            if graph.n == 0:
                continue
            result = uc.run(graph, seed=2)
            delta = max(1, graph.max_degree)
            # layers stop at the first boundary past Δ; colors live in
            # [g(D)+1, 2g(D)] with g(D) ≤ g(α·Δ) = O(g(Δ)).
            cap = 2 * g(g.invert_doubling(2 * g(delta)))
            assert max(result.outputs.values()) <= cap, (name, cap)

    def test_uniform(self):
        uc = build_uniform_linial()
        assert uc.requires == ()

    def test_empty_graph(self):
        import networkx as nx

        from repro.local import SimGraph

        uc = build_uniform_linial()
        result = uc.run(SimGraph.from_networkx(nx.empty_graph(0)))
        assert result.outputs == {}
        assert result.rounds == 0

    def test_layer_reports(self, catalog):
        uc = build_uniform_linial()
        result = uc.run(catalog["dumbbell"], seed=3)
        assert result.layers
        total = sum(layer.nodes for layer in result.layers)
        assert total == catalog["dumbbell"].n


class TestTheorem5Lambda:
    @pytest.mark.parametrize("lam", [1, 2, 4])
    def test_lambda_rows(self, small_gnp, lam):
        nu = lambda_coloring_nonuniform(lam)
        uc = theorem5(nu.algorithm, nu.bound, lambda_colors_bound(lam))
        result = uc.run(small_gnp, seed=4)
        assert PROPER_COLORING.is_solution(small_gnp, {}, result.outputs)

    def test_more_colors_for_smaller_lambda_cap(self, medium_gnp):
        nu1 = lambda_coloring_nonuniform(1)
        uc1 = theorem5(nu1.algorithm, nu1.bound, lambda_colors_bound(1))
        result = uc1.run(medium_gnp, seed=5)
        g = lambda_colors_bound(1)
        delta = medium_gnp.max_degree
        cap = 2 * g(g.invert_doubling(2 * g(max(1, delta))))
        assert max(result.outputs.values()) <= cap


class TestSLCWrapper:
    def test_requires_drops_delta(self):
        algorithm, _, _ = linial_scheme()
        wrapped = slc_wrap(algorithm)
        assert "Delta" not in wrapped.requires
        assert "m" in wrapped.requires

    def test_wrapper_needs_slc_input(self, path12):
        from repro.local import run

        algorithm, _, _ = linial_scheme()
        wrapped = slc_wrap(algorithm)
        with pytest.raises(ParameterError):
            run(path12, wrapped, guesses={"m": 100})

    def test_wrapper_outputs_pairs_in_list(self, path12):
        from repro.local import run

        algorithm, _, g = linial_scheme()
        wrapped = slc_wrap(algorithm)
        delta_hat = 4
        inputs = {
            u: SLCInput(delta_hat, ColorList(g(delta_hat), delta_hat + 1))
            for u in path12.nodes
        }
        result = run(
            path12, wrapped, inputs=inputs, guesses={"m": path12.max_ident}
        )
        for u, pair in result.outputs.items():
            assert pair in inputs[u].colors

    def test_inner_node_shares_the_outer_random_source(self):
        """``B^{Γ'}`` runs ``A_Γ`` on the outer node's own generator, so
        wrapping adds no draws and no second stream."""
        from repro.local import LocalAlgorithm, NodeContext, NodeProcess

        inner = []

        def probe(ctx):
            inner.append(ctx)
            return NodeProcess(ctx)

        wrapped = slc_wrap(
            LocalAlgorithm("probe", probe, requires=("m", "Delta"))
        )
        rng = object()
        x = SLCInput(4, ColorList(8, 5))
        wrapped.make(NodeContext(7, 12, 2, x, {"m": 30}, rng))
        (ctx,) = inner
        assert ctx.rng is rng
        assert (ctx.node, ctx.ident, ctx.degree, ctx.input) == (7, 12, 2, None)
        assert ctx.guesses == {"m": 30, "Delta": 4}

    def test_rejects_gamma_beyond_m_delta(self):
        from repro.core.bounds import AdditiveBound, linear
        from repro.local import LocalAlgorithm, NodeProcess

        class Dummy(NodeProcess):
            def start(self):
                self.finish(1)

        algo = LocalAlgorithm("dummy", Dummy, requires=("n",))
        with pytest.raises(ParameterError):
            theorem5(algo, AdditiveBound([linear("n")]), g_quadratic())


class TestTheorem5ReadsNoGlobalDegree:
    """Theorem 5 layers nodes by their own degree; nothing reads Δ."""

    @pytest.mark.parametrize("backend", ["reference", "compiled"])
    @pytest.mark.parametrize("lam", [1, 4])
    def test_max_degree_is_never_read(self, small_gnp, lam, backend, monkeypatch):
        import networkx as nx

        from repro.core.domain import Domain, PhysicalDomain, VirtualDomain
        from repro.local import SimGraph, use_backend

        nu = lambda_coloring_nonuniform(lam)
        uc = theorem5(nu.algorithm, nu.bound, lambda_colors_bound(lam))
        edgeless = SimGraph.from_networkx(nx.empty_graph(3))
        with use_backend(backend):
            expected = [uc.run(g, seed=4) for g in (small_gnp, edgeless)]

        def global_read(self):
            raise AssertionError("Theorem 5 read the global max_degree")

        for cls in (Domain, PhysicalDomain, VirtualDomain):
            for name in ("max_degree", "max_ident"):
                assert not hasattr(cls, name), (cls.__name__, name)
        monkeypatch.setattr(SimGraph, "max_degree", property(global_read))
        with use_backend(backend):
            got = [uc.run(g, seed=4) for g in (small_gnp, edgeless)]
        for want, result in zip(expected, got):
            assert result.outputs == want.outputs
            assert result.rounds == want.rounds
        assert PROPER_COLORING.is_solution(small_gnp, {}, got[0].outputs)
