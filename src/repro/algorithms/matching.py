"""Maximal matching via MIS on the line graph (Table 1 row 8).

A maximal independent set of ``L(G)`` *is* a maximal matching of ``G``;
the virtual-node layer executes our fast MIS on ``L(G)`` at dilation 2.
This replaces the Hańćkowiak–Karoński–Panconesi ``O(log⁴ n)`` splitter
machinery (deviation D5 in DESIGN.md) while preserving the row's
reproducible content: a *uniform* maximal matching at no asymptotic
overhead over the same non-uniform black box.

Outputs use the paper's value encoding (Section 2): matched pairs share
``("M", id_u, id_v)``; unmatched nodes carry the unique ``("U", id)``.
Every emitted value contains the emitting node's own identity — the
invariant under which the gluing property of ``P_MM`` is airtight (see
:mod:`repro.core.pruning`).

Line-graph parameters are derived from the physical guesses inside the
box: ``Δ_L ≤ 2Δ̃ - 2`` and ``m_L ≤ (m̃ + 2)²``, so the black box's Γ
stays ``{Δ, m}`` of the *physical* graph, exactly how the paper words
the row ("n or Δ").
"""

from __future__ import annotations

import numpy as np

from ..core.bounds import AdditiveBound, custom
from ..core.domain import VIRTUAL_OVERHEAD, PhysicalDomain, VirtualDomain
from ..core.transformer import NonUniform
from ..errors import InvalidInstanceError
from ..graphs.transforms import line_graph_ends, line_graph_spec
from ..local.algorithm import HostAlgorithm
from .fast_mis import fast_mis, fast_mis_bound
from .linial import linial_steps_upper


def _line_guesses(guesses):
    delta = max(0, int(guesses["Delta"]))
    m = max(1, int(guesses["m"]))
    return {"Delta": max(1, 2 * delta - 2), "m": (m + 2) * (m + 2)}


class LineMISMatching(HostAlgorithm):
    """Maximal matching as fast MIS on ``L(G)`` through virtualization."""

    name = "line-mis-matching"
    requires = ("Delta", "m")
    randomized = False

    def run_restricted(
        self, domain, budget, *, inputs, guesses, seed, salt, default_output
    ):
        if not isinstance(domain, PhysicalDomain):
            raise InvalidInstanceError(
                "line-graph matching runs on physical domains"
            )
        graph = domain.graph
        cg = graph.compiled()
        outputs = [("U", ident) for ident in cg.idents]
        spec = line_graph_spec(graph)
        if not spec.virtual_nodes:
            return dict(zip(cg.labels, outputs)), budget
        line_domain = VirtualDomain(graph, spec)
        virtual_budget = max(
            1, (budget - VIRTUAL_OVERHEAD) // spec.dilation
        )
        mis, _ = line_domain.run_restricted_values(
            fast_mis(),
            virtual_budget,
            inputs=None,
            guesses=_line_guesses(guesses),
            seed=seed,
            salt=f"{salt}|line",
            default_output=0,
        )
        # The chosen edges whose ends no other chosen edge touches; an
        # end shared by two is garbage under bad guesses: unmatched.
        lower, upper = line_graph_ends(graph)
        chosen = np.flatnonzero(mis == 1)
        a, b = lower[chosen], upper[chosen]
        hits = np.bincount(np.concatenate((a, b)), minlength=cg.n)
        alone = (hits[a] == 1) & (hits[b] == 1)
        idents = cg.idents
        for u, v in zip(a[alone].tolist(), b[alone].tolist()):
            outputs[u] = outputs[v] = ("M", idents[u], idents[v])
        return dict(zip(cg.labels, outputs)), budget


def line_mis_matching():
    """The non-uniform maximal-matching box."""
    return LineMISMatching()


def line_matching_bound():
    """Declared bound: dilation-2 fast-MIS on L(G) plus plumbing.

    ``2 · f_mis(2Δ̃, (m̃+2)²) + O(1)`` — still additive in (Δ̃, m̃), so
    the sequence number stays 1.
    """
    inner = fast_mis_bound()

    def delta_atom(d):
        return 2.0 * inner.value({"Delta": max(1, 2 * int(d) - 2), "m": 2})

    def m_atom(m):
        big = (max(1, int(m)) + 2) ** 2
        return 4.0 * linial_steps_upper(big)

    return AdditiveBound(
        [
            custom("Delta", delta_atom, "2*mis(2Δ)"),
            custom("m", m_atom, "4*(logstar m² + 4)"),
        ],
        constant=VIRTUAL_OVERHEAD + 6,
        label="line-matching rounds",
    )


def line_matching_nonuniform():
    """Theorem 1 input for Table 1 row 8 (uniform maximal matching)."""
    return NonUniform(
        line_mis_matching(),
        line_matching_bound(),
        kind="deterministic",
        default_output=0,
        name="line-mis-matching",
    )
