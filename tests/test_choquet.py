"""Layer-cake integration against capacities and their conjugates."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from credal_bayes import (
    Functional,
    OutcomeSpace,
    ProbabilityVector,
    additive_capacity,
    choquet_lower,
    choquet_upper,
    conjugate,
    epsilon_contamination,
    uniform_vector,
)
from credal_bayes.campaign import random_contamination, random_probability_vector

SP3 = OutcomeSpace(("t1", "t2", "t3"))


def _space(n):
    return OutcomeSpace(tuple(f"x{i}" for i in range(n)))


def _indicator(space, mask):
    return Functional(space, (1,) * space.n).restricted(mask)


class TestFunctional:
    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            Functional(SP3, (1.0, -0.1, 0.0))
        with pytest.raises(ValueError):
            Functional(SP3, (1.0, float("inf"), 0.0))

    def test_restricted_zeroes_off_event(self):
        f = Functional(SP3, (0.5, 0.3, 0.2))
        assert f.restricted(0b101).values == (0.5, 0, 0.2)


class TestUpper:
    def test_constant_integrates_to_itself(self):
        c = epsilon_contamination(uniform_vector(SP3), 0.4)
        f = Functional(SP3, (0.7, 0.7, 0.7))
        assert choquet_upper(c, f) == pytest.approx(0.7, abs=1e-15)

    def test_indicator_gives_capacity_value(self):
        c = epsilon_contamination(uniform_vector(SP3), 0.4)
        for m in range(SP3.size):
            assert choquet_upper(c, _indicator(SP3, m)) == c[m]

    def test_single_layer_example(self):
        c = epsilon_contamination(uniform_vector(SP3), 0.1)
        # one nonzero layer of height 0.5 over the first singleton
        assert choquet_upper(c, Functional(SP3, (0.5, 0.0, 0.0))) == pytest.approx(
            0.5 * 0.4, abs=1e-15
        )


class TestLower:
    def test_indicator_gives_conjugate_value(self):
        c = epsilon_contamination(uniform_vector(SP3), 0.4)
        k = conjugate(c)
        for m in range(SP3.size):
            assert choquet_lower(c, _indicator(SP3, m)) == k[m]

    def test_additive_collapses_to_expectation(self):
        p = ProbabilityVector(SP3, (0.5, 0.3, 0.2))
        c = additive_capacity(p)
        rng = Random(7)
        for _ in range(20):
            f = Functional(SP3, tuple(rng.uniform(0, 2) for _ in range(3)))
            dot = sum(a * b for a, b in zip(f.values, p.mass))
            assert choquet_upper(c, f) == pytest.approx(dot, abs=1e-12)
            assert choquet_lower(c, f) == pytest.approx(dot, abs=1e-12)

    def test_two_layer_example(self):
        c = epsilon_contamination(uniform_vector(SP3), 0.1)
        # layers 0.3 then 0.2 against the conjugate: 0.2*0.6 + 0.1*0.3
        got = choquet_lower(c, Functional(SP3, (0.0, 0.3, 0.2)))
        assert got == pytest.approx(0.15, abs=1e-15)

    def test_exact_mode(self):
        c = epsilon_contamination(uniform_vector(SP3, exact=True), Fraction(1, 10))
        f = Functional(SP3, (0, Fraction(3, 10), Fraction(1, 5)))
        assert choquet_lower(c, f) == Fraction(3, 20)


@st.composite
def capacity_and_functionals(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    space = _space(n)
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    total = sum(raw)
    p = ProbabilityVector(space, tuple(v / total for v in raw))
    c = epsilon_contamination(p, draw(st.floats(0.0, 1.0)))
    f = Functional(space, tuple(draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))))
    g_extra = draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
    g = Functional(space, tuple(a + b for a, b in zip(f.values, g_extra)))
    return c, f, g


@settings(max_examples=150, deadline=None)
@given(capacity_and_functionals())
def test_monotone_in_the_integrand(args):
    c, f, g = args  # f <= g pointwise by construction
    assert choquet_upper(c, f) <= choquet_upper(c, g) + 1e-12
    assert choquet_lower(c, f) <= choquet_lower(c, g) + 1e-12


@settings(max_examples=150, deadline=None)
@given(capacity_and_functionals(), st.floats(0.0, 10.0))
def test_positive_homogeneity(args, lam):
    c, f, _ = args
    got = choquet_upper(c, Functional(f.space, tuple(lam * v for v in f.values)))
    want = lam * choquet_upper(c, f)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_lower_never_exceeds_upper_on_nonempty_cores():
    rng = Random(31)
    for _ in range(50):
        space = _space(rng.randint(1, 5))
        c = random_contamination(rng, space)
        f = Functional(space, tuple(rng.uniform(0, 3) for _ in range(space.n)))
        assert choquet_lower(c, f) <= choquet_upper(c, f) + 1e-12


def test_result_ignores_tie_order():
    c = epsilon_contamination(uniform_vector(SP3), 0.2)
    f = Functional(SP3, (0.4, 0.4, 0.1))
    g = Functional(SP3, (0.4, 0.4, 0.1))
    assert choquet_upper(c, f) == choquet_upper(c, g)
    # merged ties equal the two-layer direct computation
    want = (0.4 - 0.1) * c[0b011] + 0.1 * c[0b111]
    assert choquet_upper(c, f) == pytest.approx(want, abs=1e-15)
