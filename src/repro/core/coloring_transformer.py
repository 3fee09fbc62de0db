"""Theorem 5: the uniform coloring transformer.

No efficient pruning algorithm is known for plain ``g(Δ)``-coloring (the
paper explains why: range-checking needs Δ, and gluing fails when pruned
colors block neighbours).  Theorem 5 routes around both obstacles:

1. **Strong list coloring (SLC).**  Nodes carry a common degree estimate
   ``Δ̂`` and a list ``L(v) ⊆ [1, g(Δ̂)] × [1, Δ̂+1]`` with at least
   ``deg(v)+1`` copies per color index.  SLC *does* admit a pruning
   algorithm (:class:`~repro.core.pruning.SLCPruning`): survivors' lists
   drop the pairs committed by pruned neighbours, which restores gluing.

2. **Degree layers.**  ``D_1 = 1``, ``D_{i+1} = min{ℓ : g(ℓ) ≥ 2g(D_i)}``;
   a node joins layer ``i`` when ``deg ∈ [D_i, D_{i+1}-1]`` — computable
   from its own degree.  Layers get disjoint color ranges (the doubling
   of ``g`` makes ``[g(D_{i+1})+1, 2g(D_{i+1})]`` pairwise disjoint), so
   the layers run **in parallel** on disjoint induced subgraphs and
   inter-layer edges are properly colored for free.

3. **Phase 1** uniformizes, per layer, the SLC-wrapped base algorithm
   (Δ̃ := Δ̂ comes from the input; only ``m̃`` is guessed, via the
   Theorem 1 machinery with the Δ-coordinate of the bound frozen).
   **Phase 2** re-runs the base algorithm non-uniformly but with *locally
   computable, provably good* guesses (``Δ̃ = D_{i+1}``,
   ``m̃ = g(D_{i+1})·(D_{i+1}+1)``, the phase-1 colors serving as
   identities), compressing each layer into ``g(D_{i+1})`` colors.

Total: ``O(g(Δ))`` colors in ``O(f(Λ*) · s_f(f(Λ*)))`` rounds, with ``g``
moderately-fast and the ``m``-dependence of ``f`` polylogarithmic —
Theorem 5's hypotheses, carried here by :class:`GrowthFunction` and the
declared bound.
"""

from __future__ import annotations

from ..errors import BoundViolationError, ParameterError
from ..local.algorithm import LocalAlgorithm, NodeProcess
from ..local.context import NodeContext
from ..problems.coloring import ColorList, SLCInput
from .alternating import AlternatingEngine
from .domain import as_domain
from .pruning import SLCPruning


class _SLCWrapProcess(NodeProcess):
    """The paper's ``B^{Γ'}``: run ``A_Γ`` with Δ̃ := Δ̂ from the input,
    then map the color ``c`` to the pair ``(c, min{s : (c,s) ∈ L(v)})``.
    """

    __slots__ = ("inner",)

    def __init__(self, ctx, base_algorithm):
        super().__init__(ctx)
        x = ctx.input
        if not isinstance(x, SLCInput):
            raise ParameterError("SLC wrapper needs SLCInput inputs")
        guesses = dict(ctx.guesses)
        guesses["Delta"] = x.delta_hat
        inner_ctx = NodeContext(
            node=ctx.node,
            ident=ctx.ident,
            degree=ctx.degree,
            input=None,
            guesses=guesses,
            rng=ctx.rng,
        )
        self.inner = base_algorithm.make(inner_ctx)

    def _check(self, outgoing):
        if self.inner.done:
            color = self.inner.result
            x = self.ctx.input
            pair = None
            if isinstance(color, int) and 1 <= color <= x.colors.width:
                j = x.colors.first_free(color)
                if j is not None:
                    pair = (color, j)
            self.finish(pair if pair is not None else ("invalid", color))
        return outgoing

    def start(self):
        return self._check(self.inner.start())

    def receive(self, inbox):
        return self._check(self.inner.receive(inbox))


def slc_wrap(base_algorithm):
    """Wrap a ``{m, Delta}``-coloring algorithm into an SLC algorithm.

    The result requires only ``m`` (Δ̂ is read from the SLC input), which
    is the Γ' of the theorem's proof.
    """
    requires = tuple(p for p in base_algorithm.requires if p != "Delta")
    return LocalAlgorithm(
        name=f"slc[{base_algorithm.name}]",
        process=lambda ctx: _SLCWrapProcess(ctx, base_algorithm),
        requires=requires,
        randomized=base_algorithm.randomized,
    )


class LayerReport:
    """Bookkeeping for one degree layer."""

    __slots__ = (
        "index",
        "d_low",
        "d_high",
        "nodes",
        "phase1_rounds",
        "phase2_rounds",
        "color_base",
        "colors",
    )

    def __init__(self, index, d_low, d_high, nodes):
        self.index = index
        self.d_low = d_low
        self.d_high = d_high
        self.nodes = nodes
        self.phase1_rounds = 0
        self.phase2_rounds = 0
        self.color_base = 0
        self.colors = 0

    def __repr__(self):
        return (
            f"Layer(i={self.index}, deg∈[{self.d_low},{self.d_high}], "
            f"n={self.nodes}, rounds={self.phase1_rounds}+{self.phase2_rounds})"
        )


class ColoringResult:
    """Outcome of a uniform coloring run."""

    __slots__ = ("name", "outputs", "rounds", "layers", "colors_used")

    def __init__(self, name, outputs, rounds, layers, colors_used):
        self.name = name
        self.outputs = outputs
        self.rounds = rounds
        self.layers = layers
        self.colors_used = colors_used

    def __repr__(self):
        return (
            f"ColoringResult({self.name!r}, rounds={self.rounds}, "
            f"colors={self.colors_used})"
        )


class UniformColoring:
    """The uniform ``O(g(Δ))``-coloring algorithm produced by Theorem 5."""

    def __init__(self, base_algorithm, bound, g, *, name=None, base=2.0,
                 max_iterations=60):
        unknown = [p for p in base_algorithm.requires if p not in ("m", "Delta")]
        if unknown:
            raise ParameterError(
                f"Theorem 5 requires Γ ⊆ {{Δ, m}}; got extra {unknown}"
            )
        self.base_algorithm = base_algorithm
        self.bound = bound
        self.g = g
        self.base = base
        self.max_iterations = max_iterations
        self.name = name or f"uniform-coloring[{base_algorithm.name}, g={g.name}]"

    @property
    def requires(self):
        return ()

    # -- phase 1: uniform SLC per layer ---------------------------------
    def _phase1(self, layer_domain, delta_hat, seed, layer_index):
        width = self.g(delta_hat)
        copies = delta_hat + 1
        inputs = {
            u: SLCInput(delta_hat, ColorList(width, copies))
            for u in layer_domain.nodes
        }
        engine = AlternatingEngine(
            layer_domain,
            inputs,
            SLCPruning(),
            seed=seed,
            default_output=0,
        )
        wrapped = slc_wrap(self.base_algorithm)
        layer_bound = self.bound.freeze("Delta", delta_hat)
        c = layer_bound.bounding_constant
        for i in range(1, self.max_iterations + 1):
            level = int(self.base**i)
            vectors = layer_bound.set_sequence(level)
            sub_budget = max(1, int(c * level))
            for j, guesses in enumerate(vectors, start=1):
                engine.step_algorithm(
                    wrapped,
                    iteration=i,
                    index=j,
                    guesses=guesses,
                    budget=sub_budget,
                )
                if engine.done:
                    return engine.finalize(f"slc-layer{layer_index}")
            if engine.done:
                return engine.finalize(f"slc-layer{layer_index}")
        raise BoundViolationError(
            f"{self.name}: layer {layer_index} SLC phase never completed"
        )

    # -- phase 2: non-uniform recoloring with locally-good guesses -------
    def _phase2(self, layer_domain, delta_hat, pairs, seed, layer_index):
        width = self.g(delta_hat)
        copies = delta_hat + 1
        m_tilde = width * copies
        inputs = {}
        for u in layer_domain.nodes:
            k, j = pairs[u]
            inputs[u] = {"color": (k - 1) * copies + j}
        guesses = {"m": m_tilde, "Delta": delta_hat}
        budget = self.bound.rounds(guesses)
        outputs, charged = layer_domain.run_restricted(
            self.base_algorithm,
            budget,
            inputs=inputs,
            guesses=guesses,
            seed=seed,
            salt=f"t5-phase2-{layer_index}",
            default_output=None,
        )
        for u, color in outputs.items():
            if color is None:
                raise BoundViolationError(
                    f"{self.name}: phase 2 exceeded the declared bound "
                    f"({budget} rounds) on layer {layer_index}"
                )
            if not (isinstance(color, int) and 1 <= color <= width):
                raise BoundViolationError(
                    f"{self.name}: phase 2 produced color {color!r} outside "
                    f"[1, {width}] under good guesses"
                )
        return outputs, charged

    def run(self, graph, *, inputs=None, seed=0):
        """Color the graph; returns a :class:`ColoringResult`.

        The ``inputs`` argument is accepted for interface uniformity but
        unused: the coloring input is the identity assignment itself.
        """
        domain = as_domain(graph)
        if domain.n == 0:
            return ColoringResult(self.name, {}, 0, [], 0)
        layer_nodes = {}
        for u in domain.nodes:
            layer = self.g.layer_of(domain.degree(u))
            layer_nodes.setdefault(layer, []).append(u)

        colors = {}
        layers = []
        phase1_rounds = 0
        phase2_rounds = 0
        colors_used = set()
        for layer, members in sorted(layer_nodes.items()):
            # A member knows D_layer and D_layer+1 from its own degree:
            # the boundaries are a prefix-stable sequence.
            boundaries = self.g.layer_boundaries(
                max(1, domain.degree(members[0]))
            )
            delta_hat = boundaries[layer]
            report = LayerReport(
                layer, boundaries[layer - 1], delta_hat - 1, len(members)
            )
            sub = domain.subgraph(members)
            phase1 = self._phase1(sub, delta_hat, seed, layer)
            report.phase1_rounds = phase1.rounds
            pairs = phase1.outputs
            final, charged = self._phase2(sub, delta_hat, pairs, seed, layer)
            report.phase2_rounds = charged
            offset = self.g(delta_hat)
            report.color_base = offset
            for u in members:
                colors[u] = offset + final[u]
                colors_used.add(colors[u])
            report.colors = len({colors[u] for u in members})
            layers.append(report)
            phase1_rounds = max(phase1_rounds, report.phase1_rounds)
            phase2_rounds = max(phase2_rounds, report.phase2_rounds)

        # +1: one exchange for nodes to learn which neighbours share
        # their layer (the induced-subgraph membership round).
        total = phase1_rounds + phase2_rounds + 1
        return ColoringResult(self.name, colors, total, layers, len(colors_used))


def theorem5(base_algorithm, bound, g, *, name=None, base=2.0,
             max_iterations=60):
    """Build the Theorem 5 uniform coloring transformer.

    Parameters
    ----------
    base_algorithm:
        Non-uniform ``g(Δ̃)``-coloring algorithm with Γ ⊆ {m, Δ}; must
        accept an initial coloring through ``ctx.input["color"]``
        (falling back to the identity) — the "identities as colors"
        convention of Section 5.2.
    bound:
        Declared bound over (m, Δ) with polylogarithmic m-dependence and
        moderately-slow Δ-dependence.
    g:
        A :class:`~repro.core.functions.GrowthFunction` (moderately-fast).
    """
    return UniformColoring(
        base_algorithm, bound, g, name=name, base=base,
        max_iterations=max_iterations
    )
