"""Catalogue wiring every Table-1 row to its reproduction pipeline.

Each :class:`TableRow` packages: the paper's citation and stated bound,
our non-uniform black box with its declared bound, the pruning
algorithm, the transformer that uniformizes it, and the verifying
problem.  The benches (``benchmarks/``) and EXPERIMENTS.md are generated
from this table, so it is the single source of truth for "what does row
X mean in this codebase".
"""

from __future__ import annotations

from ..core.portfolio import theorem4
from ..core.pruning import MatchingPruning, RulingSetPruning, mis_pruning
from ..core.randomized import theorem2
from ..core.transformer import theorem1
from ..core.weak_domination import theorem3
from ..problems.matching import MAXIMAL_MATCHING
from ..problems.mis import MIS
from ..problems.ruling import RulingSetProblem
from .arboricity import (
    arb_mis_nonuniform_nonly,
    arb_mis_nonuniform_product,
    sqrt_log_witness,
)
from .fast_mis import fast_mis_nonuniform
from .hash_luby import hash_luby_nonuniform
from .luby import luby_mc_nonuniform
from .matching import line_matching_nonuniform
from .ruling_sets import sw_ruling_set_nonuniform


class TableRow:
    """One row of Table 1 as an executable reproduction pipeline."""

    __slots__ = (
        "row_id",
        "paper_citation",
        "paper_bound",
        "parameters",
        "problem",
        "make_nonuniform",
        "make_pruning",
        "make_uniform",
        "notes",
    )

    def __init__(
        self,
        row_id,
        paper_citation,
        paper_bound,
        parameters,
        problem,
        make_nonuniform,
        make_pruning,
        make_uniform,
        notes="",
    ):
        self.row_id = row_id
        self.paper_citation = paper_citation
        self.paper_bound = paper_bound
        self.parameters = parameters
        self.problem = problem
        self.make_nonuniform = make_nonuniform
        self.make_pruning = make_pruning
        self.make_uniform = make_uniform
        self.notes = notes

    def build(self):
        """Instantiate ``(nonuniform, pruning, uniform)`` fresh."""
        nonuniform = self.make_nonuniform()
        pruning = self.make_pruning()
        uniform = self.make_uniform(nonuniform, pruning)
        return nonuniform, pruning, uniform

    def __repr__(self):
        return f"TableRow({self.row_id!r}: {self.paper_bound})"


def _rows():
    rows = [
        TableRow(
            row_id="mis-fast",
            paper_citation="Barenboim-Elkin '09 / Kuhn '09 [4,22]",
            paper_bound="O(Δ + log* n)",
            parameters=("Delta", "m"),
            problem=MIS,
            make_nonuniform=fast_mis_nonuniform,
            make_pruning=mis_pruning,
            make_uniform=lambda nu, p: theorem1(nu, p),
            notes="D1: ours is O(Δ log Δ + log* m) via Linial + KW halving",
        ),
        TableRow(
            row_id="mis-nonly",
            paper_citation="Panconesi-Srinivasan '96 [34]",
            paper_bound="2^O(√log n)",
            parameters=("n",),
            problem=MIS,
            make_nonuniform=hash_luby_nonuniform,
            make_pruning=mis_pruning,
            make_uniform=lambda nu, p: theorem1(nu, p),
            notes="D2: hash-Luby stand-in with declared O(log² ñ)",
        ),
        TableRow(
            row_id="mis-arb-product",
            paper_citation="Barenboim-Elkin '10 [6] (Corollary 3 regime)",
            paper_bound="O(a) .. O(a^ε log n)",
            parameters=("a", "n"),
            problem=MIS,
            make_nonuniform=arb_mis_nonuniform_product,
            make_pruning=mis_pruning,
            make_uniform=lambda nu, p: theorem1(nu, p),
            notes="H-partition + nested uniform MIS; product bound, s_f=O(log)",
        ),
        TableRow(
            row_id="mis-arb-nonly",
            paper_citation="Barenboim-Elkin '10 [6] (Corollary 4 regime)",
            paper_bound="O(log n / log log n) for a = O(log^(1/2-δ) n)",
            parameters=("n",),
            problem=MIS,
            make_nonuniform=arb_mis_nonuniform_nonly,
            make_pruning=mis_pruning,
            make_uniform=lambda nu, p: theorem3(nu, p, [sqrt_log_witness()]),
            notes="Theorem 3 with family witness g(a)=2^(a²) ≤ n",
        ),
        TableRow(
            row_id="matching",
            paper_citation="Hańćkowiak-Karoński-Panconesi '01 [19]",
            paper_bound="O(log⁴ n)",
            parameters=("Delta", "m"),
            problem=MAXIMAL_MATCHING,
            make_nonuniform=line_matching_nonuniform,
            make_pruning=MatchingPruning,
            make_uniform=lambda nu, p: theorem1(nu, p),
            notes="D5: MIS on L(G) instead of HKP splitters",
        ),
        TableRow(
            row_id="ruling-c1",
            paper_citation="Schneider-Wattenhofer '10 [36], c=1",
            paper_bound="O(2^c log^(1/c) n), (2,4)-ruling",
            parameters=("n",),
            problem=RulingSetProblem(2, 4),
            make_nonuniform=lambda: sw_ruling_set_nonuniform(1),
            make_pruning=lambda: RulingSetPruning(beta=4),
            make_uniform=lambda nu, p: theorem2(nu, p),
            notes="D6: truncated-Luby cascade; Theorem 2 → Las Vegas",
        ),
        TableRow(
            row_id="ruling-c2",
            paper_citation="Schneider-Wattenhofer '10 [36], c=2",
            paper_bound="O(2^c log^(1/c) n), (2,6)-ruling",
            parameters=("n",),
            problem=RulingSetProblem(2, 6),
            make_nonuniform=lambda: sw_ruling_set_nonuniform(2),
            make_pruning=lambda: RulingSetPruning(beta=6),
            make_uniform=lambda nu, p: theorem2(nu, p),
            notes="D6",
        ),
        TableRow(
            row_id="luby",
            paper_citation="Luby '86 / Alon-Babai-Itai '86 [1,30]",
            paper_bound="O(log n) expected, already uniform",
            parameters=(),
            problem=MIS,
            make_nonuniform=luby_mc_nonuniform,
            make_pruning=mis_pruning,
            make_uniform=lambda nu, p: theorem2(nu, p),
            notes="baseline row; also exercises MC→LV on a classical box",
        ),
    ]
    return {row.row_id: row for row in rows}


TABLE1 = _rows()


def corollary1_portfolio(*, base=2.0):
    """Corollary 1(i): min{2^O(√log n), O(Δ+log* n), f(a,n)} via Theorem 4.

    Members are the three *already uniformized* MIS algorithms — exactly
    how the paper assembles the corollary from Theorems 1/3 plus
    Theorem 4.
    """
    members = [
        theorem1(fast_mis_nonuniform(), mis_pruning(), base=base),
        theorem1(hash_luby_nonuniform(), mis_pruning(), base=base),
        theorem3(
            arb_mis_nonuniform_nonly(),
            mis_pruning(),
            [sqrt_log_witness()],
            base=base,
        ),
    ]
    return theorem4(members, mis_pruning(), name="corollary1(i)-mis", base=base)
