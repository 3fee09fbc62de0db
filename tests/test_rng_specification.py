"""The specification streams: the reference loop's counter draws.

Every run draws the one counter scheme (DESIGN.md D36), and the
equivalence suites prove the compiled tiers equal the reference loop
under it.  These golden values pin the reference loop itself, so a
change to the scheme cannot slip through as a change both sides make
together: a Luby run on a fixed small G(n, p) graph, and a truncated
Luby run on that graph's line-graph virtual domain, whose hosts derive
their virtual nodes' streams from a host-drawn base.  The values were
recorded on the reference loop before the Mersenne-Twister scheme was
deleted and must never change.
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
    result = run(small_gnp, luby_mis(), backend="reference", seed=11)
    assert digest(result.outputs) == "f5b7025dd970e728"
    assert digest(result.finish_round) == "56a555ba11d8d5a2"
    assert (result.rounds, result.messages) == (5, 299)
    assert not result.truncated


def test_truncated_line_graph_run_matches_the_recorded_specification(
    small_gnp,
):
    domain = VirtualDomain(small_gnp, line_graph_spec(small_gnp))
    outputs, charged = domain.run_restricted(
        luby_mis(), 2, seed=19, default_output="cut", backend="reference",
    )
    values = list(outputs.values())
    assert (len(values), values.count("cut"), values.count(1)) == (87, 52, 8)
    assert digest(outputs) == "ee17eddb586ccb63"
    assert charged == 7
