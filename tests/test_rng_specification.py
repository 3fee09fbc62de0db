"""The seed-faithful specification: the reference loop under ``rng="mt"``.

The compiled engine draws the counter scheme only (DESIGN.md D29), so no
cross-backend diff checks the Mersenne-Twister streams any more.  These
golden values pin them instead: a Luby run on a fixed small G(n, p)
graph, and a truncated Luby run on that graph's line-graph virtual
domain, whose hosts derive their virtual nodes' streams through
``sub_rng``'s mt branch.  The values were recorded before the compiled
mt twins were deleted and must never change.
"""

from __future__ import annotations

import hashlib

from repro.algorithms.luby import luby_mis
from repro.core.domain import VirtualDomain
from repro.graphs import line_graph_spec
from repro.local import run


def digest(mapping):
    """Order-free 64-bit digest of a node-keyed result map."""
    text = repr(sorted(mapping.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_luby_run_matches_the_recorded_specification(small_gnp):
    result = run(small_gnp, luby_mis(), backend="reference", rng="mt", seed=11)
    assert digest(result.outputs) == "16b6b62aa0612957"
    assert digest(result.finish_round) == "9c2df404f68b8e34"
    assert (result.rounds, result.messages) == (3, 235)
    assert not result.truncated


def test_truncated_line_graph_run_matches_the_recorded_specification(
    small_gnp,
):
    domain = VirtualDomain(small_gnp, line_graph_spec(small_gnp))
    outputs, charged = domain.run_restricted(
        luby_mis(), 2, seed=19, default_output="cut",
        backend="reference", rng="mt",
    )
    values = list(outputs.values())
    assert (len(values), values.count("cut"), values.count(1)) == (87, 46, 12)
    assert digest(outputs) == "2357cbebd314f29b"
    assert charged == 7
