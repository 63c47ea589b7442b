"""Capacity construction, validation, conjugation and the named families."""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from credal_bayes import (
    Capacity,
    OutcomeSpace,
    ProbabilityVector,
    additive_capacity,
    capacity_to_json,
    conjugate,
    distortion_capacity,
    epsilon_contamination,
    is_two_alternating,
    parse_model,
    uniform_vector,
    upper_envelope,
    vacuous_capacity,
    validate,
)
from credal_bayes.campaign import random_probability_vector
from credal_bayes.credal import is_core_empty
from credal_bayes.errors import EmptyFamily, ModelError, NotMonotone, NotNormalized

SP1 = OutcomeSpace(("a",))
SP2 = OutcomeSpace(("a", "b"))
SP3 = OutcomeSpace(("t1", "t2", "t3"))


class TestOutcomeSpace:
    def test_masks_and_keys(self):
        assert SP3.mask_of(["t1", "t3"]) == 0b101
        assert SP3.labels_of(0b101) == ("t1", "t3")
        assert SP3.complement(0b101) == 0b010
        assert SP3.event_key(0b011) == "t1,t2"
        assert SP3.mask_from_key("") == 0
        assert SP3.mask_from_key("t2,t1") == 0b011

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            OutcomeSpace(("a", "a"))
        with pytest.raises(ValueError):
            OutcomeSpace(("a,b",))
        with pytest.raises(ValueError):
            OutcomeSpace(tuple(f"x{i}" for i in range(21)))
        with pytest.raises(ValueError):
            OutcomeSpace(())

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown outcome"):
            SP2.mask_of(["z"])


class TestProbabilityVector:
    def test_sum_tolerance(self):
        ProbabilityVector(SP2, (0.5, 0.5))
        with pytest.raises(ValueError):
            ProbabilityVector(SP2, (0.5, 0.6))
        with pytest.raises(ValueError):
            ProbabilityVector(SP2, (1.5, -0.5))

    def test_exact_mode_is_strict(self):
        ProbabilityVector(SP2, (Fraction(1, 3), Fraction(2, 3)))
        with pytest.raises(ValueError):
            ProbabilityVector(SP2, (Fraction(1, 3), Fraction(1, 3)))

    def test_event_mass(self):
        table = ProbabilityVector(SP3, (0.5, 0.3, 0.2)).mass_table()
        assert table[0b011] == 0.5 + 0.3
        assert table[0] == 0
        assert table[SP3.full_mask] == pytest.approx(1.0, abs=1e-12)


class TestValidate:
    def test_degenerate_space(self):
        c = validate({0: 0, 1: 1}, SP1)
        assert c.values == (0, 1)

    def test_valid_two_outcomes(self):
        c = validate({0: 0, 0b01: 0.6, 0b10: 0.5, 0b11: 1}, SP2)
        assert c[0b01] == 0.6

    def test_monotone_violation_wins_over_top_normalization(self):
        # both constraints fail; the decreasing pair is the reported one
        with pytest.raises(NotMonotone) as exc:
            validate({0: 0, 0b01: 0.6, 0b10: 0.5, 0b11: 0.55}, SP2)
        assert exc.value.witness == (0b01, 0b11)

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            validate({0: 0.1, 0b01: 0.6, 0b10: 0.5, 0b11: 1}, SP2)
        with pytest.raises(NotNormalized):
            validate({0: 0, 0b01: 0.2, 0b10: 0.3, 0b11: 0.9}, SP2)

    def test_wrong_entry_count(self):
        with pytest.raises(ValueError, match=r"^expected one value per event mask 0\.\.3$"):
            validate({0: 0, 3: 1}, SP2)


class TestConjugate:
    def test_additive_is_self_conjugate(self):
        c = additive_capacity(ProbabilityVector(SP2, (0.5, 0.5)))
        k = conjugate(c)
        assert k.values == c.values

    def test_contamination_closed_form(self):
        # conjugate of the contamination envelope is (1-eps) * p(A)
        p = uniform_vector(SP2, exact=True)
        c = epsilon_contamination(p, Fraction(1, 10))
        assert c[0b01] == Fraction(11, 20)  # 0.55
        k = conjugate(c)
        assert k[0b01] == 1 - c[0b10]
        assert k[0b01] == Fraction(9, 20)  # (1 - 0.1) * 0.5

    def test_involution_is_identity(self):
        c = epsilon_contamination(uniform_vector(SP3), 0.3)
        assert conjugate(conjugate(c)) is c
        assert conjugate(conjugate(c)).values == c.values

    def test_lower_below_upper_on_nonempty_core(self):
        rng = Random(20)
        for _ in range(30):
            p = random_probability_vector(rng, SP3)
            c = epsilon_contamination(p, rng.random())
            assert not is_core_empty(c)
            k = conjugate(c)
            for m in range(SP3.size):
                assert k[m] <= c[m] + 1e-12


class TestTwoAlternating:
    def test_additive_true(self):
        c = additive_capacity(ProbabilityVector(SP3, (0.5, 0.3, 0.2)))
        assert is_two_alternating(c)

    def test_contamination_true_any_eps(self):
        rng = Random(4)
        for _ in range(200):
            n = rng.randint(1, 6)
            space = OutcomeSpace(tuple(f"x{i}" for i in range(n)))
            c = epsilon_contamination(random_probability_vector(rng, space), rng.random())
            assert is_two_alternating(c)

    def test_counterexample_with_witness(self):
        c = Capacity(SP2, (0, 0.2, 0.2, 1))
        verdict = is_two_alternating(c)
        assert not verdict
        assert verdict.witness == (0b01, 0b10)  # 1 > 0.2 + 0.2 - 0

    def test_space_cap(self):
        with pytest.raises(ValueError, match="between 1 and 12"):
            OutcomeSpace(tuple(f"x{i}" for i in range(13)))


class TestEpsilonContamination:
    def test_closed_form_uniform(self):
        c = epsilon_contamination(uniform_vector(SP3), 0.1)
        assert c[0b001] == pytest.approx(0.9 * (1 / 3) + 0.1, abs=1e-15)

    def test_eps_zero_is_additive(self):
        p = ProbabilityVector(SP3, (0.5, 0.3, 0.2))
        assert epsilon_contamination(p, 0).values == additive_capacity(p).values

    def test_eps_one_is_vacuous(self):
        p = ProbabilityVector(SP3, (0.5, 0.3, 0.2))
        assert epsilon_contamination(p, 1).values == vacuous_capacity(SP3).values

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            epsilon_contamination(uniform_vector(SP2), 1.1)


class TestDistortion:
    def test_identity_exponent(self):
        p = ProbabilityVector(SP3, (0.5, 0.3, 0.2))
        assert distortion_capacity(p, 1).values == additive_capacity(p).values

    def test_sqrt_of_uniform_pair(self):
        c = distortion_capacity(uniform_vector(SP2), 0.5)
        assert c[0b01] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert is_two_alternating(c)

    def test_output_always_two_alternating(self):
        rng = Random(11)
        for _ in range(200):
            n = rng.randint(1, 6)
            space = OutcomeSpace(tuple(f"x{i}" for i in range(n)))
            c = distortion_capacity(
                random_probability_vector(rng, space), rng.uniform(0.05, 1.0)
            )
            assert is_two_alternating(c)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            distortion_capacity(uniform_vector(SP2), 0.0)


class TestUpperEnvelope:
    def test_singleton_is_additive(self):
        p = ProbabilityVector(SP3, (0.5, 0.3, 0.2))
        assert upper_envelope([p]).values == additive_capacity(p).values

    def test_two_point_masses_are_vacuous(self):
        ps = [ProbabilityVector(SP2, (1, 0)), ProbabilityVector(SP2, (0, 1))]
        assert upper_envelope(ps).values == vacuous_capacity(SP2).values

    def test_componentwise_maxima(self):
        ps = [
            ProbabilityVector(SP3, (0.5, 0.3, 0.2)),
            ProbabilityVector(SP3, (0.2, 0.3, 0.5)),
        ]
        c = upper_envelope(ps)
        assert c[0b001] == 0.5
        assert c[0b011] == pytest.approx(0.8, abs=1e-15)

    def test_dominates_every_input(self):
        rng = Random(9)
        for _ in range(20):
            ps = [random_probability_vector(rng, SP3) for _ in range(rng.randint(1, 4))]
            c = upper_envelope(ps)
            for p in ps:
                table = p.mass_table()
                for m in range(SP3.size):
                    assert table[m] <= c[m] + 1e-12

    def test_empty_family(self):
        with pytest.raises(EmptyFamily):
            upper_envelope([])


@st.composite
def float_capacities(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    space = OutcomeSpace(tuple(f"x{i}" for i in range(n)))
    raw = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0),
            min_size=n,
            max_size=n,
        )
    )
    total = sum(raw)
    p = ProbabilityVector(space, tuple(v / total for v in raw))
    eps = draw(st.floats(min_value=0.0, max_value=1.0))
    return epsilon_contamination(p, eps)


@settings(max_examples=100, deadline=None)
@given(float_capacities())
def test_conjugation_involution_property(c):
    assert conjugate(conjugate(c)) is c


@settings(max_examples=100, deadline=None)
@given(float_capacities())
def test_conjugate_is_monotone_and_normalized(c):
    k = conjugate(c)
    Capacity(k.space, k.values)  # re-validates from scratch


def _read_prior(doc, exact=False):
    """A capacity read from JSON the one way the package reads one: as the
    prior of a model file."""
    ones = [1] * len(doc["outcomes"])
    model = {
        "version": 1,
        "outcomes": doc["outcomes"],
        "prior": doc,
        "likelihood": {"band": {"lower": ones, "upper": ones}},
        "options": {"exact": exact},
    }
    return parse_model(model).prior


class TestSerialization:
    def test_explicit_round_trip(self):
        c = epsilon_contamination(ProbabilityVector(SP3, (0.5, 0.3, 0.2)), 0.25)
        c2 = _read_prior(capacity_to_json(c))
        assert c2.values == c.values
        assert c2.space == c.space

    def test_exact_round_trip_uses_rational_strings(self):
        c = epsilon_contamination(uniform_vector(SP2, exact=True), Fraction(1, 3))
        doc = capacity_to_json(c)
        assert doc["values"]["a"] == "2/3"  # (2/3)(1/2) + 1/3
        c2 = _read_prior(doc, exact=True)
        assert c2.values == c.values
        assert c2.exact

    def test_parametric_forms(self):
        doc = {
            "outcomes": ["a", "b"],
            "kind": "eps-contamination",
            "p": [0.5, 0.5],
            "eps": 0.1,
        }
        c = _read_prior(doc)
        assert c[0b01] == pytest.approx(0.55, abs=1e-15)
        doc = {"outcomes": ["a", "b"], "kind": "distortion", "p": [0.5, 0.5], "alpha": 0.5}
        assert _read_prior(doc)[0b01] == pytest.approx(math.sqrt(0.5), abs=1e-15)
        doc = {"outcomes": ["a", "b"], "kind": "envelope", "vertices": [[1, 0], [0, 1]]}
        assert _read_prior(doc).values == vacuous_capacity(SP2).values

    def test_bad_kind(self):
        with pytest.raises(ModelError, match=r"\$\.prior\.kind"):
            _read_prior({"outcomes": ["a"], "kind": "nope"})
