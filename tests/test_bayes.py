"""Posterior bounds, the posterior capacity sweep and concavity preservation."""

from fractions import Fraction
from random import Random

import pytest

from credal_bayes import (
    Capacity,
    EqualityDiagnosis,
    Functional,
    LikelihoodSet,
    OutcomeSpace,
    PosteriorQuery,
    additive_capacity,
    bounds_report,
    brute_force_upper,
    conjugate,
    epsilon_contamination,
    is_two_alternating,
    posterior_capacity,
    precise_posterior,
    uniform_vector,
    vacuous_capacity,
)
from credal_bayes.campaign import (
    random_band,
    random_contamination,
    random_distortion,
    random_monotone_capacity,
    random_probability_vector,
)
from credal_bayes.capacity import ProbabilityVector
from credal_bayes.errors import (
    InfeasibleCore,
    NotTwoAlternating,
    SwitchVectorMissing,
    UndefinedRatio,
)

SP3 = OutcomeSpace(("t1", "t2", "t3"))


def _space(n):
    return OutcomeSpace(tuple(f"x{i}" for i in range(n)))


def _fixture_query(event=0b001):
    prior = epsilon_contamination(uniform_vector(SP3), 0.1)
    lik = LikelihoodSet.precise(Functional(SP3, (0.5, 0.3, 0.2)))
    return PosteriorQuery(prior, lik, event)


def _report(q):
    return bounds_report(q.prior, q.likelihoods, [q.event])[0]


def _oracle(q):
    return brute_force_upper(q.prior, q.likelihoods, [q.event])[0]


def _complement(q):
    return PosteriorQuery(q.prior, q.likelihoods, q.space.complement(q.event))


class TestLikelihoodSet:
    def test_band_orders_envelopes(self):
        lo = Functional(SP3, (0.1, 0.2, 0.3))
        hi = Functional(SP3, (0.2, 0.3, 0.4))
        band = LikelihoodSet.band(lo, hi)
        assert all(band.holds_switch_vector(m) for m in range(SP3.size))
        with pytest.raises(ValueError):
            LikelihoodSet.band(hi, lo)

    def test_family_envelope_membership_flag(self):
        """A family holds an event's switch vector only as a member."""
        a = Functional(SP3, (0.5, 0.1, 0.1))
        b = Functional(SP3, (0.1, 0.5, 0.1))
        fam = LikelihoodSet.family([a, b])
        # e_A is (0.5, 0.1, 0.1) = a for A = {t1} and b for A = {t2}
        held = [m for m in range(SP3.size) if fam.holds_switch_vector(m)]
        assert held == [0b001, 0b010, 0b101, 0b110]
        dominated = LikelihoodSet.family([a, Functional(SP3, (0.4, 0.1, 0.05))])
        assert dominated.holds_switch_vector(SP3.full_mask)
        assert dominated.holds_switch_vector(0)
        assert not dominated.holds_switch_vector(0b001)  # (0.5, 0.1, 0.05)

    def test_singleton_family_flag(self):
        fam = LikelihoodSet.family([Functional(SP3, (0.5, 0.3, 0.2))])
        assert all(fam.holds_switch_vector(m) for m in range(SP3.size))


class TestUpperBounds:
    def test_full_event_is_one(self):
        rep = _report(_fixture_query(SP3.full_mask))
        assert rep.bound_vertex == pytest.approx(1.0, abs=1e-12)
        assert rep.bound_choquet == pytest.approx(1.0, abs=1e-12)

    def test_empty_event_is_zero(self):
        assert _report(_fixture_query(0)).bound_vertex == pytest.approx(0.0, abs=1e-12)

    def test_empty_event_with_vanishing_evidence(self):
        prior = epsilon_contamination(uniform_vector(SP3), 0.1)
        lik = LikelihoodSet.band(
            Functional(SP3, (0, 0, 0)), Functional(SP3, (1.0, 1.0, 1.0))
        )
        with pytest.raises(UndefinedRatio):
            bounds_report(prior, lik, [0])

    def test_worked_fixture(self):
        rep = _report(_fixture_query())
        assert rep.bound_vertex == pytest.approx(4 / 7, abs=1e-9)
        assert rep.bound_choquet == pytest.approx(4 / 7, abs=1e-9)

    def test_bounds_coincide_for_concave_priors(self):
        rng = Random(73)
        for _ in range(40):
            space = _space(rng.randint(2, 6))
            prior = (
                random_contamination(rng, space)
                if rng.random() < 0.5
                else random_distortion(rng, space)
            )
            q = PosteriorQuery(prior, random_band(rng, space), rng.randint(1, space.full_mask))
            rep = _report(q)
            assert rep.bound_vertex == pytest.approx(rep.bound_choquet, abs=1e-9)

    def test_choquet_dominates_vertex_generally(self):
        rng = Random(79)
        for _ in range(40):
            space = _space(rng.randint(3, 6))
            prior = random_monotone_capacity(rng, space)
            q = PosteriorQuery(
                prior, random_band(rng, space), rng.randint(1, space.full_mask)
            )
            rep = _report(q)
            assert rep.bound_vertex <= rep.bound_choquet + 1e-9

    def test_empty_prior_core_rejected(self):
        bad = Capacity(OutcomeSpace(("a", "b")), (0, 0.2, 0.2, 1))
        lik = LikelihoodSet.precise(Functional(bad.space, (1.0, 1.0)))
        with pytest.raises(InfeasibleCore):
            bounds_report(bad, lik, [0b01])


class TestLowerBound:
    def test_full_event(self):
        rep = _report(_fixture_query(SP3.full_mask))
        assert rep.lower_vertex == pytest.approx(1.0, abs=1e-12)

    def test_precise_reduction_collapses(self):
        rng = Random(83)
        for _ in range(25):
            space = _space(rng.randint(2, 5))
            p = random_probability_vector(rng, space)
            L = Functional(space, tuple(rng.uniform(0.05, 1) for _ in range(space.n)))
            q = PosteriorQuery(additive_capacity(p), LikelihoodSet.precise(L),
                               rng.randint(1, space.full_mask - 1))
            want = precise_posterior(p, L, q.event)
            rep = _report(q)
            assert rep.bound_vertex == pytest.approx(want, abs=1e-12)
            assert rep.lower_vertex == pytest.approx(want, abs=1e-12)

    def test_conjugacy_via_complement(self):
        q = _fixture_query()
        rep = _report(q)
        comp = _report(_complement(q))
        assert rep.lower_vertex == 1 - comp.bound_vertex
        assert rep.lower_choquet == 1 - comp.bound_choquet


class TestScaleInvariance:
    def test_bounds_ignore_likelihood_scale(self):
        rng = Random(89)
        for _ in range(20):
            space = _space(rng.randint(2, 5))
            prior = random_contamination(rng, space)
            band = random_band(rng, space)
            ev = rng.randint(1, space.full_mask)
            lam = rng.uniform(0.1, 9.0)
            q1 = PosteriorQuery(prior, band, ev)
            scaled = LikelihoodSet.band(
                Functional(space, tuple(lam * v for v in band.lower.values)),
                Functional(space, tuple(lam * v for v in band.upper.values)),
            )
            q2 = PosteriorQuery(prior, scaled, ev)
            r1, r2 = _report(q1), _report(q2)
            assert r1.bound_vertex == pytest.approx(r2.bound_vertex, abs=1e-12)
            assert r1.bound_choquet == pytest.approx(r2.bound_choquet, abs=1e-12)


class TestPosteriorCapacity:
    def test_precise_reduction_is_classical_bayes(self):
        p = ProbabilityVector(SP3, (0.5, 0.3, 0.2))
        L = Functional(SP3, (0.2, 0.5, 0.9))
        post = posterior_capacity(additive_capacity(p), LikelihoodSet.precise(L))
        den = sum(a * b for a, b in zip(p.mass, L.values))
        bayes = ProbabilityVector(
            SP3, tuple(a * b / den for a, b in zip(p.mass, L.values))
        )
        want = additive_capacity(bayes)
        for m in range(SP3.size):
            assert post[m] == pytest.approx(float(want[m]), abs=1e-9)

    def test_contamination_band_sweep_is_valid(self):
        prior = epsilon_contamination(uniform_vector(SP3), 0.1)
        L = (0.5, 0.3, 0.2)
        band = LikelihoodSet.band(
            Functional(SP3, tuple(0.9 * x for x in L)),
            Functional(SP3, tuple(1.1 * x for x in L)),
        )
        post = posterior_capacity(prior, band)  # constructor re-validates
        assert post[0] == 0 and post[SP3.full_mask] == 1
        assert is_two_alternating(post)

    def test_vacuous_prior_gives_vacuous_posterior(self):
        prior = epsilon_contamination(uniform_vector(SP3), 1.0)
        band = LikelihoodSet.precise(Functional(SP3, (0.5, 0.3, 0.2)))
        post = posterior_capacity(prior, band)
        assert post.values == vacuous_capacity(SP3).values

    def test_refuses_non_concave_prior(self):
        rng = Random(97)
        prior = random_monotone_capacity(rng, _space(4))
        while bool(is_two_alternating(prior)):
            prior = random_monotone_capacity(rng, _space(4))
        band = random_band(rng, prior.space)
        with pytest.raises(NotTwoAlternating):
            posterior_capacity(prior, band)

    def test_refuses_non_member_envelopes(self):
        a = Functional(SP3, (0.5, 0.1, 0.1))
        b = Functional(SP3, (0.1, 0.5, 0.1))
        fam = LikelihoodSet.family([a, b])
        prior = epsilon_contamination(uniform_vector(SP3), 0.2)
        with pytest.raises(SwitchVectorMissing, match="event ''"):
            posterior_capacity(prior, fam)  # e_{} = (0.1, 0.1, 0.1)

    def test_posterior_conjugacy_identity(self):
        prior = epsilon_contamination(uniform_vector(SP3), 0.15)
        band = random_band(Random(3), SP3)
        post = posterior_capacity(prior, band)
        conj = conjugate(post)
        for m in range(SP3.size):
            assert conj[m] == 1 - post[SP3.complement(m)]

    def test_exact_sweep(self):
        prior = epsilon_contamination(uniform_vector(SP3, exact=True), Fraction(1, 10))
        lik = LikelihoodSet.precise(
            Functional(SP3, (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)))
        )
        post = posterior_capacity(prior, lik)
        assert post.exact
        assert post[0b001] == Fraction(4, 7)

    def test_sweep_equals_the_vertex_bound(self):
        # the sweep takes Choquet values; the theorem makes them the LP's
        rng = Random(151)
        for n in range(2, 9):
            space = _space(n)
            priors = [random_contamination(rng, space), random_distortion(rng, space)]
            if n <= 5:
                priors.append(random_contamination(rng, space, exact=True))
            for prior in priors:
                band = random_band(rng, space, exact=prior.exact)
                post = posterior_capacity(prior, band)
                reports = bounds_report(prior, band, range(space.size))
                for m, rep in enumerate(reports):
                    if prior.exact:
                        assert post[m] == rep.bound_vertex
                    else:
                        assert post[m] == pytest.approx(rep.bound_vertex, abs=1e-12)
                    if n <= 5:
                        q = PosteriorQuery(prior, band, m)
                        assert post[m] == pytest.approx(
                            float(_oracle(q).value), abs=1e-9
                        )


class TestPreservedConcavity:
    def test_contamination_band_instances(self):
        rng = Random(101)
        for _ in range(25):
            space = _space(rng.randint(2, 5))
            prior = random_contamination(rng, space)
            assert is_two_alternating(posterior_capacity(prior, random_band(rng, space)))

    def test_precise_everything(self):
        p = ProbabilityVector(SP3, (0.5, 0.3, 0.2))
        lik = LikelihoodSet.precise(Functional(SP3, (0.2, 0.5, 0.9)))
        assert is_two_alternating(posterior_capacity(additive_capacity(p), lik))


class TestReports:
    def test_bounds_report_fields(self):
        rep = _report(_fixture_query())
        assert rep.equality_diagnosis is EqualityDiagnosis.PROVEN_EQUAL
        assert rep.oracle is None
        assert rep.c_value == pytest.approx(0.35, abs=1e-12)
        assert rep.c_prime_value == pytest.approx(0.35, abs=1e-12)
        assert 0 <= rep.lower_vertex <= rep.bound_vertex <= 1 + 1e-12
        assert rep.achieving_prior is not None
        assert rep.achieving_likelihood == (0.5, 0.3, 0.2)
        doc = rep.to_json()
        assert doc["event"] == "t1"
        assert doc["diagnosis"] == "ProvenEqual"

    def test_diagnosis_bound_only_for_non_member_family(self):
        """The diagnosis is per event: {t1} and its complement have member
        switch vectors, {t1, t2} does not."""
        a = Functional(SP3, (0.5, 0.1, 0.1))
        b = Functional(SP3, (0.1, 0.5, 0.1))
        fam = LikelihoodSet.family([a, b])
        prior = epsilon_contamination(uniform_vector(SP3), 0.2)
        proven, bound_only = bounds_report(prior, fam, [0b001, 0b011])
        assert proven.equality_diagnosis is EqualityDiagnosis.PROVEN_EQUAL
        assert bound_only.equality_diagnosis is EqualityDiagnosis.BOUND_ONLY
