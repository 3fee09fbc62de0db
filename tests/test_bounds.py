"""Runtime-bound algebra: atoms, set-sequences, sequence numbers.

The two set-sequence properties (paper Section 4.2) are the load-bearing
invariants of Theorem 1's proof, so they get property-based coverage.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bounds import (
    AdditiveBound,
    Atom,
    MinBound,
    ProductBound,
    check_set_sequence,
    custom,
    linear,
    log2_of,
    log2_squared,
    logstar_of,
    power_of,
    xlog2x,
)
from repro.errors import ParameterError


class TestAtoms:
    @pytest.mark.parametrize(
        "factory",
        [linear, log2_of, log2_squared, logstar_of, xlog2x],
    )
    def test_non_decreasing(self, factory):
        atom = factory("x")
        values = [atom(v) for v in (1, 2, 3, 5, 10, 100, 10**6)]
        assert values == sorted(values)

    def test_invert_largest_value(self):
        atom = linear("x", 2.0)
        assert atom.invert(10) == 5
        assert atom.invert(11) == 5
        assert atom.invert(1) is None

    def test_invert_plateau_caps(self):
        atom = logstar_of("x")
        assert atom.invert(1000) > 10**20

    def test_invert_respects_budget(self):
        atom = xlog2x("x", 1.0)
        for budget in (5, 17, 100, 999):
            y = atom.invert(budget)
            assert atom(y) <= budget
            assert atom(y + 1) > budget

    def test_power_atom(self):
        atom = power_of("x", 2, 1.0)
        assert atom.invert(100) == 10

    def test_negative_atom_rejected(self):
        atom = Atom("x", lambda v: -1.0, "bad")
        with pytest.raises(ParameterError):
            atom(3)


guess_values = st.integers(min_value=1, max_value=10**7)


class TestAdditiveBound:
    def bound(self):
        return AdditiveBound(
            [linear("Delta", 2.0), logstar_of("m", 3.0)], constant=5
        )

    def test_value(self):
        # log*(16) = 3 (16 -> 4 -> 2 -> 1), and the atom adds 1.
        b = self.bound()
        assert b.value({"Delta": 4, "m": 16}) == 5 + 2 * 4 + 3 * (3 + 1)

    def test_duplicate_params_rejected(self):
        with pytest.raises(ParameterError):
            AdditiveBound([linear("x"), log2_of("x")])

    @given(
        delta=guess_values,
        m=guess_values,
        level=st.integers(min_value=1, max_value=10**5),
    )
    @settings(max_examples=120, deadline=None)
    def test_set_sequence_properties(self, delta, m, level):
        b = self.bound()
        failures = check_set_sequence(
            b, level, [{"Delta": delta, "m": m}]
        )
        assert not failures, failures

    def test_sequence_number_is_one(self):
        b = self.bound()
        assert b.sequence_number(10**6) == 1
        assert len(b.set_sequence(10**6)) <= 1

    def test_empty_below_constant(self):
        b = self.bound()
        assert b.set_sequence(3) == []


class TestProductBound:
    def bound(self):
        return ProductBound(
            custom("a", lambda a: a + 1.0, "a+1"),
            custom("n", lambda n: max(2, int(n)).bit_length() + 1.0, "logn"),
            scale=2.0,
        )

    @given(
        a=st.integers(min_value=1, max_value=10**4),
        n=st.integers(min_value=1, max_value=10**7),
        level=st.integers(min_value=4, max_value=10**5),
    )
    @settings(max_examples=120, deadline=None)
    def test_set_sequence_properties(self, a, n, level):
        b = self.bound()
        failures = check_set_sequence(b, level, [{"a": a, "n": n}])
        assert not failures, failures

    def test_sequence_number_logarithmic(self):
        b = self.bound()
        assert b.sequence_number(2**20) <= 25

    def test_atoms_below_one_rejected(self):
        b = ProductBound(
            custom("a", lambda a: 0.5, "half"), custom("n", lambda n: 2.0, "2")
        )
        with pytest.raises(ParameterError):
            b.value({"a": 1, "n": 1})

    def test_same_param_rejected(self):
        with pytest.raises(ParameterError):
            ProductBound(linear("x"), log2_of("x"))


class TestFrozenBound:
    def test_freeze_projects_vectors(self):
        base = AdditiveBound([linear("Delta", 1.0), linear("m", 1.0)])
        frozen = base.freeze("Delta", 4)
        for vector in frozen.set_sequence(64):
            assert set(vector) == {"m"}
        assert frozen.value({"m": 10}) == 14

    def test_freeze_drops_vectors_below_fixed_value(self):
        base = AdditiveBound([linear("Delta", 1.0), linear("m", 1.0)])
        frozen = base.freeze("Delta", 1000)
        assert frozen.set_sequence(64) == []
        assert frozen.set_sequence(4096) != []

    @given(
        m=st.integers(min_value=1, max_value=10**5),
        level=st.integers(min_value=2, max_value=10**5),
    )
    @settings(max_examples=80, deadline=None)
    def test_frozen_set_sequence_properties(self, m, level):
        base = AdditiveBound([log2_of("Delta", 2.0), linear("m", 1.0)])
        frozen = base.freeze("Delta", 7)
        failures = check_set_sequence(frozen, level, [{"m": m}])
        assert not failures, failures


class TestMinBound:
    def test_value_takes_minimum(self):
        b = MinBound(
            [
                AdditiveBound([linear("Delta", 1.0)]),
                AdditiveBound([log2_of("n", 1.0)]),
            ]
        )
        assert b.value({"Delta": 100, "n": 16}) == 5.0

    def test_set_sequence_refuses(self):
        b = MinBound([AdditiveBound([linear("Delta", 1.0)])])
        with pytest.raises(ParameterError):
            b.set_sequence(10)
        with pytest.raises(ParameterError):
            b.sequence_number(10)
