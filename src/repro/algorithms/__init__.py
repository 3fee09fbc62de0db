"""Implementations of the non-uniform algorithms of Table 1."""

from .arboricity import (
    ArbMIS,
    arb_mis,
    arb_mis_nonly_bound,
    arb_mis_nonuniform_nonly,
    arb_mis_nonuniform_product,
    arb_mis_product_bound,
    h_partition,
    peel_rounds,
    sqrt_log_witness,
)
from .color_reduction import (
    KWReducer,
    kw_schedule,
    kw_total_rounds,
    sequential_reduce_rounds,
)
from .coloring_via_mis import CliqueProductColoring, encode_coloring_as_mis
from .edge_coloring import (
    decode_edge_colors,
    edge_color_count,
    edge_coloring_domain,
)
from .forbidden_coloring import (
    ForbiddenPruning,
    forbidden_coloring,
    forbidden_coloring_bound,
    forbidden_coloring_nonuniform,
)
from .fast_coloring import (
    fast_coloring,
    fast_coloring_bound,
    fast_coloring_nonuniform,
    fast_coloring_rounds,
)
from .fast_mis import (
    fast_mis,
    fast_mis_bound,
    fast_mis_nonuniform,
    fast_mis_rounds,
)
from .greedy import (
    greedy_coloring,
    greedy_edge_coloring,
    greedy_matching,
    greedy_mis,
)
from .hash_luby import hash_luby_bound, hash_luby_mis, hash_luby_nonuniform
from .lambda_coloring import (
    lambda_coloring,
    lambda_coloring_bound,
    lambda_coloring_nonuniform,
    lambda_coloring_rounds,
    lambda_colors_bound,
    linial_scheme,
)
from .linial import (
    linial_coloring,
    linial_fixpoint_palette,
    linial_schedule,
    linial_steps_upper,
)
from .luby import luby_mc, luby_mc_bound, luby_mc_nonuniform, luby_mis
from .matching import (
    line_matching_bound,
    line_matching_nonuniform,
    line_mis_matching,
)
from .registry import (
    TABLE1,
    TableRow,
    corollary1_portfolio,
)
from .ruling_sets import (
    bitwise_beta,
    bitwise_ruling_set,
    sw_phases,
    sw_ruling_set,
    sw_ruling_set_bound,
    sw_ruling_set_nonuniform,
)

__all__ = [
    "ArbMIS",
    "CliqueProductColoring",
    "KWReducer",
    "TABLE1",
    "TableRow",
    "arb_mis",
    "arb_mis_nonly_bound",
    "arb_mis_nonuniform_nonly",
    "arb_mis_nonuniform_product",
    "arb_mis_product_bound",
    "bitwise_beta",
    "bitwise_ruling_set",
    "corollary1_portfolio",
    "decode_edge_colors",
    "edge_color_count",
    "edge_coloring_domain",
    "encode_coloring_as_mis",
    "fast_coloring",
    "fast_coloring_bound",
    "fast_coloring_nonuniform",
    "fast_coloring_rounds",
    "fast_mis",
    "fast_mis_bound",
    "fast_mis_nonuniform",
    "fast_mis_rounds",
    "ForbiddenPruning",
    "forbidden_coloring",
    "forbidden_coloring_bound",
    "forbidden_coloring_nonuniform",
    "greedy_coloring",
    "greedy_edge_coloring",
    "greedy_matching",
    "greedy_mis",
    "h_partition",
    "hash_luby_bound",
    "hash_luby_mis",
    "hash_luby_nonuniform",
    "kw_schedule",
    "kw_total_rounds",
    "lambda_coloring",
    "lambda_coloring_bound",
    "lambda_coloring_nonuniform",
    "lambda_coloring_rounds",
    "lambda_colors_bound",
    "line_matching_bound",
    "line_matching_nonuniform",
    "line_mis_matching",
    "linial_coloring",
    "linial_fixpoint_palette",
    "linial_schedule",
    "linial_scheme",
    "linial_steps_upper",
    "luby_mc",
    "luby_mc_bound",
    "luby_mc_nonuniform",
    "luby_mis",
    "peel_rounds",
    "sequential_reduce_rounds",
    "sqrt_log_witness",
    "sw_phases",
    "sw_ruling_set",
    "sw_ruling_set_bound",
    "sw_ruling_set_nonuniform",
]
