"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one pass/fail line (visible with ``pytest -s``); the
test outcome itself carries the same verdict. Random draws are seeded so
the gate is reproducible run to run.
"""

import contextlib
import io
import json
import os
import time
from fractions import Fraction
from random import Random

import pytest

from credal_bayes import (
    Functional,
    LikelihoodSet,
    OutcomeSpace,
    PosteriorQuery,
    additive_capacity,
    bang_bang_likelihood,
    bounds_report,
    brute_force_upper,
    choquet_lower,
    choquet_upper,
    cli,
    conjugate,
    epsilon_contamination,
    inf_expectation,
    is_two_alternating,
    posterior_capacity,
    precise_posterior,
    sup_expectation,
    uniform_vector,
    verify_theorem,
)
from credal_bayes.campaign import (
    random_band,
    random_contamination,
    random_distortion,
    random_probability_vector,
    random_query,
    run_campaign,
)
from credal_bayes.bayes import EqualityDiagnosis


def _space(n):
    return OutcomeSpace(tuple(f"x{i}" for i in range(n)))


def _bounds(q):
    return bounds_report(q.prior, q.likelihoods, [q.event])[0]


def _oracle(q):
    return brute_force_upper(q.prior, q.likelihoods, [q.event])[0]


def _switch_vectors(band):
    """Every switch vector of a band, as a family for the oracle to sweep."""
    return LikelihoodSet.family(
        [bang_bang_likelihood(band, b) for b in range(band.space.size)]
    )


def _verify(q):
    return verify_theorem(q.prior, q.likelihoods, [q.event])[0]


def _complement(q):
    return PosteriorQuery(q.prior, q.likelihoods, q.space.complement(q.event))


def _report(num, label, elapsed):
    print(f"[acceptance] criterion {num} ({label}): PASS in {elapsed:.1f}s")


def test_criterion_1_contamination_closed_forms():
    """500 exact draws reproduce both closed forms with no tolerance."""
    start = time.monotonic()
    rng = Random(1001)
    for _ in range(500):
        space = _space(rng.randint(1, 6))
        p = random_probability_vector(rng, space, exact=True)
        eps = Fraction(rng.randint(0, 64), 64)
        c = epsilon_contamination(p, eps)
        k = conjugate(c)
        full = space.full_mask
        table = p.mass_table()
        for m in range(space.size):
            if m:
                assert c[m] == (1 - eps) * table[m] + eps
            if m != full:
                assert k[m] == (1 - eps) * table[m]
    elapsed = time.monotonic() - start
    assert elapsed < 5
    _report(1, "contamination closed forms", elapsed)


def test_criterion_2_choquet_lp_exactness():
    """500 concave priors: the layer-cake and the LP agree to 1e-9."""
    start = time.monotonic()
    rng = Random(1002)
    for i in range(500):
        space = _space(rng.randint(1, 6))
        c = (
            random_contamination(rng, space)
            if i % 2
            else random_distortion(rng, space)
        )
        f = Functional(space, tuple(rng.uniform(0, 4) for _ in range(space.n)))
        assert abs(choquet_upper(c, f) - sup_expectation(c, f).value) <= 1e-9
        assert abs(choquet_lower(c, f) - inf_expectation(c, f).value) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(2, "Choquet-LP exactness", elapsed)


def test_criterion_3_equality_campaign():
    """1000 float instances match the oracle to 1e-9; 100 exact ones exactly."""
    start = time.monotonic()
    for family, seed in (("contamination", 31), ("distortion", 32)):
        summary = run_campaign(count=500, seed=seed, family=family)
        assert summary.diagnosis_counts == {"ProvenEqual": 500}
        assert summary.max_abs_gap_oracle_vertex <= 1e-9
        assert summary.max_abs_gap_oracle_choquet <= 1e-9
    exact_summary = run_campaign(count=100, seed=33, family="contamination", exact=True)
    assert exact_summary.diagnosis_counts == {"ProvenEqual": 100}
    assert exact_summary.max_abs_gap_oracle_vertex == 0
    assert exact_summary.max_abs_gap_oracle_choquet == 0
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _report(3, "equality campaign, 1000 float + 100 exact", elapsed)


def test_criterion_4_inequality_campaign():
    """1000 arbitrary monotone priors: the chain holds and both links gap."""
    start = time.monotonic()
    summary = run_campaign(count=1000, seed=41, family="arbitrary")
    assert sum(summary.diagnosis_counts.values()) == 1000
    assert summary.max_gap_oracle_vertex > 1e-6
    assert summary.max_gap_vertex_choquet > 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _report(4, "inequality campaign with strict gaps", elapsed)


def test_criterion_5_singleton_reduction():
    """Singleton families collapse to bands bit for bit; precise priors
    reproduce the classical posterior to 1e-12."""
    start = time.monotonic()
    rng = Random(1005)
    for _ in range(200):
        space = _space(rng.randint(2, 6))
        prior = random_contamination(rng, space)
        L = Functional(space, tuple(rng.uniform(0.05, 1) for _ in range(space.n)))
        ev = rng.randint(1, space.full_mask)
        via_family = PosteriorQuery(prior, LikelihoodSet.family([L]), ev)
        via_band = PosteriorQuery(prior, LikelihoodSet.band(L, L), ev)
        by_family, by_band = _bounds(via_family), _bounds(via_band)
        assert by_family.bound_vertex == by_band.bound_vertex
        assert by_family.bound_choquet == by_band.bound_choquet
        assert by_family.lower_vertex == by_band.lower_vertex
        assert _oracle(via_family).value == _oracle(via_band).value
    for _ in range(200):
        space = _space(rng.randint(2, 6))
        p = random_probability_vector(rng, space)
        L = Functional(space, tuple(rng.uniform(0.05, 1) for _ in range(space.n)))
        ev = rng.randint(1, space.full_mask - 1)
        q = PosteriorQuery(additive_capacity(p), LikelihoodSet.family([L]), ev)
        want = precise_posterior(p, L, ev)
        rep = _bounds(q)
        assert abs(rep.bound_vertex - want) <= 1e-12
        assert abs(rep.bound_choquet - want) <= 1e-12
        assert abs(rep.lower_vertex - want) <= 1e-12
    elapsed = time.monotonic() - start
    _report(5, "singleton likelihood reduction", elapsed)


def test_criterion_6_preserved_concavity(tmp_path):
    """300 posterior sweeps stay 2-alternating; a 10-step fold never
    loses concavity."""
    start = time.monotonic()
    rng = Random(1006)
    for i in range(300):
        space = _space(rng.randint(2, 5))
        prior = (
            random_contamination(rng, space)
            if i % 2
            else random_distortion(rng, space)
        )
        post = posterior_capacity(prior, random_band(rng, space))
        assert is_two_alternating(post)

    model = {
        "version": 1,
        "outcomes": ["a", "b", "c", "d"],
        "prior": {"kind": "eps-contamination", "p": [0.4, 0.3, 0.2, 0.1], "eps": 0.2},
        "likelihood": {"band": {"lower": [0.4, 0.3, 0.2, 0.1],
                                "upper": [0.5, 0.4, 0.3, 0.2]}},
        "events": [["a"]],
        "options": {},
    }
    steps = []
    for _ in range(10):
        lo = [round(rng.uniform(0.05, 0.8), 6) for _ in range(4)]
        hi = [round(x + rng.uniform(0, 0.4), 6) for x in lo]
        steps.append({"band": {"lower": lo, "upper": hi}})
    mp = os.path.join(tmp_path, "model.json")
    op = os.path.join(tmp_path, "obs.json")
    json.dump(model, open(mp, "w"))
    json.dump({"version": 1, "observations": steps}, open(op, "w"))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["iterate", mp, op, "--json"])
    assert code == 0
    assert json.loads(buf.getvalue())["steps"] == 10
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _report(6, "preserved concavity", elapsed)


def test_criterion_7_conjugacy_identities():
    """Conjugation is an exact involution and posterior lower bounds are
    exactly one minus the complementary upper bounds."""
    start = time.monotonic()
    rng = Random(1007)
    for family in ("contamination", "distortion", "arbitrary"):
        for _ in range(70):
            q = random_query(rng, family, max_n=5)
            k = conjugate(q.prior)
            assert conjugate(k) is q.prior
            assert conjugate(k).values == q.prior.values
            comp = _complement(q)
            rep, rep_c = _bounds(q), _bounds(comp)
            assert rep.lower_vertex == 1 - rep_c.bound_vertex
            assert rep.lower_choquet == 1 - rep_c.bound_choquet
            rep = _verify(q)
            assert rep.lower_oracle == 1 - _oracle(comp).value
    elapsed = time.monotonic() - start
    _report(7, "conjugacy identities", elapsed)


def test_criterion_8_bang_bang_sufficiency():
    """Exhaustive switch-vector sweeps never beat the event shortcut."""
    start = time.monotonic()
    rng = Random(1008)
    for _ in range(200):
        space = _space(rng.randint(2, 5))
        prior = random_contamination(rng, space)
        band = random_band(rng, space)
        ev = rng.randint(1, space.full_mask)
        q = PosteriorQuery(prior, band, ev)
        fast = _oracle(q).value
        full = brute_force_upper(prior, _switch_vectors(band), [ev])[0].value
        assert abs(fast - full) <= 1e-12
    elapsed = time.monotonic() - start
    _report(8, "switch-vector sufficiency", elapsed)


def test_criterion_9_worked_fixture_exact():
    """The contamination fixture pins the posterior upper bound at 4/7."""
    start = time.monotonic()
    space = OutcomeSpace(("theta1", "theta2", "theta3"))
    prior = epsilon_contamination(uniform_vector(space, exact=True), Fraction(1, 10))
    lik = LikelihoodSet.precise(
        Functional(space, (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)))
    )
    q = PosteriorQuery(prior, lik, space.mask_of(["theta1"]))
    oracle = _oracle(q).value
    assert oracle == Fraction(4, 7)
    bounds = _bounds(q)
    assert bounds.bound_vertex == Fraction(4, 7)
    assert bounds.bound_choquet == Fraction(4, 7)
    assert abs(bounds.bound_vertex - Fraction(4, 7)) <= Fraction(1, 10**12)
    rep = _verify(q)
    assert rep.equality_diagnosis is EqualityDiagnosis.PROVEN_EQUAL
    elapsed = time.monotonic() - start
    _report(9, "worked fixture 4/7", elapsed)
