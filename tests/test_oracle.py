"""Brute-force ground truth and the bound-chain verifier."""

from dataclasses import replace
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
    ProbabilityVector,
    additive_capacity,
    bounds_report,
    brute_force_upper,
    epsilon_contamination,
    is_two_alternating,
    parse_model,
    precise_posterior,
    uniform_vector,
    verify_theorem,
)
from credal_bayes import oracle as oracle_module
from credal_bayes.campaign import (
    random_band,
    random_contamination,
    random_distortion,
    random_monotone_capacity,
    random_prior,
    random_probability_vector,
    random_query,
    run_campaign,
)
from credal_bayes.credal import core_vertices_two_monotone
from credal_bayes.errors import (
    AllZeroEvidence,
    ChainViolation,
    InfeasibleCore,
    SpaceTooLarge,
    ZeroEvidence,
)
from credal_bayes.optim import most_violated_event
from credal_bayes.oracle import bang_bang_likelihood, query_hash

SP3 = OutcomeSpace(("t1", "t2", "t3"))


def _space(n):
    return OutcomeSpace(tuple(f"x{i}" for i in range(n)))


def _oracle(q):
    return brute_force_upper(q.prior, q.likelihoods, [q.event])[0]


def _verify(q):
    return verify_theorem(q.prior, q.likelihoods, [q.event])[0]


def random_core_points(c, count, rng):
    """Random convex mixtures of the core's vertices of a 2-alternating
    capacity; they stay inside the core by construction."""
    verts = core_vertices_two_monotone(c)
    out = []
    for _ in range(count):
        weights = [rng.random() for _ in verts]
        total = sum(weights)
        mix = [0.0] * c.space.n
        for w, v in zip(weights, verts):
            for i in range(c.space.n):
                mix[i] += w / total * float(v.mass[i])
        s = sum(mix)
        out.append(ProbabilityVector(c.space, tuple(x / s for x in mix)))
    return out


class TestPrecisePosterior:
    def test_uniform_prior_cancels(self):
        p = uniform_vector(SP3)
        L = Functional(SP3, (0.5, 0.3, 0.2))
        assert precise_posterior(p, L, 0b001) == pytest.approx(0.5, abs=1e-12)

    def test_constant_likelihood_is_uninformative(self):
        p = ProbabilityVector(SP3, (0.5, 0.3, 0.2))
        L = Functional(SP3, (0.7, 0.7, 0.7))
        for m in range(1, SP3.size):
            assert precise_posterior(p, L, m) == pytest.approx(
                p.mass_table()[m], abs=1e-12
            )

    def test_degenerate_prior(self):
        p = ProbabilityVector(SP3, (1.0, 0.0, 0.0))
        L = Functional(SP3, (0.4, 0.9, 0.9))
        assert precise_posterior(p, L, 0b001) == 1.0

    def test_zero_evidence(self):
        p = ProbabilityVector(SP3, (1.0, 0.0, 0.0))
        L = Functional(SP3, (0.0, 0.9, 0.9))
        with pytest.raises(ZeroEvidence):
            precise_posterior(p, L, 0b001)


class TestBruteForce:
    def test_precise_pair_is_single_ratio(self):
        p = ProbabilityVector(SP3, (0.5, 0.3, 0.2))
        L = Functional(SP3, (0.4, 0.9, 0.1))
        q = PosteriorQuery(additive_capacity(p), LikelihoodSet.precise(L), 0b010)
        res = _oracle(q)
        assert res.value == pytest.approx(precise_posterior(p, L, 0b010), abs=1e-12)

    def test_worked_fixture_vertex(self):
        prior = epsilon_contamination(uniform_vector(SP3), 0.1)
        q = PosteriorQuery(
            prior, LikelihoodSet.precise(Functional(SP3, (0.5, 0.3, 0.2))), 0b001
        )
        res = _oracle(q)
        assert res.value == pytest.approx(4 / 7, abs=1e-12)
        assert res.achieving_prior.mass == pytest.approx((0.4, 0.3, 0.3), abs=1e-12)

    def test_collapsed_band_equals_precise(self):
        prior = epsilon_contamination(uniform_vector(SP3), 0.2)
        L = Functional(SP3, (0.5, 0.3, 0.2))
        prec = PosteriorQuery(prior, LikelihoodSet.precise(L), 0b011)
        band = PosteriorQuery(prior, LikelihoodSet.band(L, L), 0b011)
        assert _oracle(prec).value == _oracle(band).value

    def test_achieving_pair_reproduces_value(self):
        rng = Random(103)
        for family in ("contamination", "distortion", "arbitrary"):
            for _ in range(15):
                q = random_query(rng, family, max_n=5)
                res = _oracle(q)
                again = precise_posterior(res.achieving_prior, res.achieving_likelihood, q.event)
                assert again == pytest.approx(res.value, abs=1e-12)

    def test_all_zero_evidence(self):
        prior = epsilon_contamination(uniform_vector(SP3), 0.3)
        dead = LikelihoodSet.precise(Functional(SP3, (0.0, 0.0, 0.0)))
        with pytest.raises(AllZeroEvidence):
            _oracle(PosteriorQuery(prior, dead, 0b001))

    def test_space_cap(self):
        space = _space(11)
        prior = epsilon_contamination(uniform_vector(space), 0.1)
        lik = LikelihoodSet.precise(Functional(space, (1.0,) * 11))
        with pytest.raises(SpaceTooLarge):
            _oracle(PosteriorQuery(prior, lik, 1))

    def test_exact_mode(self):
        prior = epsilon_contamination(uniform_vector(SP3, exact=True), Fraction(1, 10))
        lik = LikelihoodSet.precise(
            Functional(SP3, (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)))
        )
        res = _oracle(PosteriorQuery(prior, lik, 0b001))
        assert res.value == Fraction(4, 7)
        assert res.achieving_prior.mass == (
            Fraction(2, 5), Fraction(3, 10), Fraction(3, 10),
        )


class TestBangBang:
    def test_exhaustive_matches_event_shortcut(self):
        rng = Random(107)
        for _ in range(40):
            space = _space(rng.randint(2, 6))
            prior = random_contamination(rng, space)
            band = random_band(rng, space)
            ev = rng.randint(1, space.full_mask)
            q = PosteriorQuery(prior, band, ev)
            fast = _oracle(q)
            switch_vectors = LikelihoodSet.family(
                [bang_bang_likelihood(band, b) for b in range(space.size)]
            )
            full = brute_force_upper(prior, switch_vectors, [ev])[0]
            assert abs(fast.value - full.value) <= 1e-12

    def test_switch_vector_shape(self):
        band = LikelihoodSet.band(
            Functional(SP3, (0.1, 0.2, 0.3)), Functional(SP3, (0.5, 0.6, 0.7))
        )
        bb = bang_bang_likelihood(band, 0b101)
        assert bb.values == (0.5, 0.2, 0.7)


class TestVertexSufficiency:
    def test_random_core_points_never_beat_vertices(self):
        # ten thousand sampled points across ten instances
        rng = Random(109)
        for _ in range(10):
            space = _space(rng.randint(2, 5))
            prior = random_distortion(rng, space)
            band = random_band(rng, space)
            ev = rng.randint(1, space.full_mask)
            q = PosteriorQuery(prior, band, ev)
            res = _oracle(q)
            e = bang_bang_likelihood(band, ev)
            for p in random_core_points(prior, 1000, rng):
                assert precise_posterior(p, e, ev) <= res.value + 1e-9


class TestVerify:
    def test_equality_families(self):
        rng = Random(113)
        for family in ("contamination", "distortion"):
            for _ in range(20):
                rep = _verify(random_query(rng, family, max_n=5))
                assert rep.equality_diagnosis is EqualityDiagnosis.PROVEN_EQUAL
                assert abs(rep.oracle - rep.bound_vertex) <= 1e-9
                assert abs(rep.oracle - rep.bound_choquet) <= 1e-9

    def test_arbitrary_priors_hold_the_chain(self):
        rng = Random(127)
        for _ in range(30):
            rep = _verify(random_query(rng, "arbitrary", max_n=5))
            assert rep.oracle <= rep.bound_vertex + 1e-9
            assert rep.bound_vertex <= rep.bound_choquet + 1e-9
            assert rep.equality_diagnosis in (
                EqualityDiagnosis.PROVEN_EQUAL,
                EqualityDiagnosis.NUMERICALLY_EQUAL,
                EqualityDiagnosis.STRICT_GAP,
            )

    @pytest.mark.parametrize("seed, index", [(180517615, 27), (2027325178, 11)])
    def test_fractional_lp_priors_stay_in_the_core(self, seed, index):
        # campaign instances whose float Charnes-Cooper LP once returned a
        # prior outside the core, so the oracle beat the vertex bound
        rng = Random(seed)
        for _ in range(index + 1):
            q = random_query(rng, "arbitrary")
        _verify(q)  # raises ChainViolation on a broken chain
        sides = [q.event, q.space.complement(q.event)]
        for res in brute_force_upper(q.prior, q.likelihoods, sides):
            assert most_violated_event(q.prior, res.achieving_prior.mass, 1e-9) is None

    def test_singleton_family_matches_precise_path(self):
        rng = Random(131)
        for _ in range(15):
            space = _space(rng.randint(2, 5))
            prior = random_contamination(rng, space)
            L = Functional(space, tuple(rng.uniform(0.05, 1) for _ in range(space.n)))
            ev = rng.randint(1, space.full_mask)
            via_family = PosteriorQuery(prior, LikelihoodSet.family([L]), ev)
            via_band = PosteriorQuery(prior, LikelihoodSet.band(L, L), ev)
            by_family = bounds_report(prior, via_family.likelihoods, [ev])[0]
            by_band = bounds_report(prior, via_band.likelihoods, [ev])[0]
            assert by_family.bound_vertex == by_band.bound_vertex
            assert _oracle(via_family).value == _oracle(via_band).value

    def test_exact_and_float_agree(self):
        rng = Random(137)
        for _ in range(8):
            q = random_query(rng, "contamination", exact=True, max_n=4)
            rep = _verify(q)
            prior_f = type(q.prior)(
                q.prior.space, tuple(float(v) for v in q.prior.values)
            )
            band_f = LikelihoodSet.band(
                Functional(q.space, tuple(float(v) for v in q.likelihoods.lower.values)),
                Functional(q.space, tuple(float(v) for v in q.likelihoods.upper.values)),
            )
            qf = PosteriorQuery(prior_f, band_f, q.event)
            rep_f = _verify(qf)
            assert float(rep.bound_vertex) == pytest.approx(rep_f.bound_vertex, abs=1e-9)
            assert float(rep.oracle) == pytest.approx(rep_f.oracle, abs=1e-9)

    def test_batch_equals_singles(self):
        # the family holds a scaled copy, so achieving pairs tie and the
        # reports agree only if both paths keep the same loop order
        rng = Random(149)
        for family in ("contamination", "distortion", "arbitrary"):
            for _ in range(2):
                space = _space(rng.randint(3, 5))
                prior = random_prior(rng, space, family)
                a, b = (
                    Functional(space, tuple(rng.uniform(0.05, 1) for _ in range(space.n)))
                    for _ in range(2)
                )
                a2 = Functional(space, tuple(2 * v for v in a.values))
                for lik in (random_band(rng, space), LikelihoodSet.family([a, b, a2])):
                    masks = range(space.size)
                    batch = verify_theorem(prior, lik, masks)
                    assert batch == [verify_theorem(prior, lik, [m])[0] for m in masks]

    def test_empty_core_raises_from_the_first_lp(self):
        """verify_theorem learns of an empty core from its bounds, as
        bounds_report does, not from the oracle as zero evidence."""
        sp2 = _space(2)
        empty = Capacity(sp2, (0, 0.2, 0.2, 1))
        band = LikelihoodSet.precise(Functional(sp2, (0.5, 0.5)))
        for run in (bounds_report, verify_theorem):
            with pytest.raises(InfeasibleCore, match="the prior core is empty"):
                run(empty, band, [1])

    def test_exact_unproven_event_with_equal_values_is_numerically_equal(self):
        """The family holds e_A but not e_{A^c}, so nothing proves {a}; the
        oracle, vertex and Choquet values are all 81/89."""
        prior = epsilon_contamination(
            ProbabilityVector(SP3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
            Fraction(1, 5),
        )
        family = LikelihoodSet.family(
            Functional(SP3, tuple(map(Fraction, v.split())))
            for v in ("9/10 1/10 1/5", "1/5 4/5 1/2", "1/2 1/2 9/10")
        )
        assert family.holds_switch_vector(0b001) and not family.holds_switch_vector(0b110)
        (rep,) = verify_theorem(prior, family, [0b001])
        assert rep.oracle == rep.bound_vertex == rep.bound_choquet == Fraction(81, 89)
        assert rep.equality_diagnosis is EqualityDiagnosis.NUMERICALLY_EQUAL

    def test_hash_is_stable_and_content_sensitive(self):
        q1 = random_query(Random(139), "contamination")
        q2 = random_query(Random(139), "contamination")
        q3 = random_query(Random(140), "contamination")
        h1, h2, h3 = (query_hash(q.prior, q.likelihoods, q.event) for q in (q1, q2, q3))
        assert h1 == h2
        assert h1 != h3


def _family_holding_both_envelopes(rng, space, exact):
    """One to three random members plus their pointwise max and min."""
    if exact:
        def draw():
            return Fraction(rng.randint(1, 32), 32)
    else:
        def draw():
            return rng.uniform(0.05, 1.0)
    members = [
        Functional(space, tuple(draw() for _ in range(space.n)))
        for _ in range(rng.randint(1, 3))
    ]
    hull = LikelihoodSet.family(members)
    return LikelihoodSet.family([*members, hull.upper, hull.lower])


def test_family_campaign_claims_equality_only_at_member_switch_vectors():
    """Families that hold both envelopes but not every switch vector, over
    all three prior families: the chain holds on every event, every
    ProvenEqual event has e_A as a member, and concave priors show strict
    gaps where e_A is not one."""
    rng = Random(10)
    proven = concave_gaps = 0
    for family, exact, count, max_n in (
        ("contamination", True, 12, 4),
        ("arbitrary", True, 6, 4),
        ("distortion", False, 20, 5),
    ):
        for _ in range(count):
            space = _space(rng.randint(3 if family == "arbitrary" else 2, max_n))
            prior = random_prior(rng, space, family, exact)
            lik = _family_holding_both_envelopes(rng, space, exact)
            members = [m.values for m in lik.members]
            for rep in verify_theorem(prior, lik, range(space.size)):
                e_a = bang_bang_likelihood(lik, rep.event).values
                if rep.equality_diagnosis is EqualityDiagnosis.PROVEN_EQUAL:
                    assert e_a in members
                    proven += 1
                elif rep.equality_diagnosis is EqualityDiagnosis.STRICT_GAP:
                    concave_gaps += bool(is_two_alternating(prior))
    assert proven > 100 and concave_gaps > 100


def _weights(rng, k, exact):
    raw = [rng.randint(1, 20) if exact else rng.uniform(0.05, 1.0) for _ in range(k)]
    return [Fraction(w, sum(raw)) if exact else w / sum(raw) for w in raw]


def random_plausibility(rng, space, exact):
    """Pl(A) = sum of m(F) over the focal sets F that meet A, for random
    Moebius masses m on 2 to 8 random focal sets; infinitely alternating.
    c(Omega) is set to 1, so a float Pl may exceed it by a rounding."""
    focal = [rng.randint(1, space.full_mask) for _ in range(rng.randint(2, 8))]
    mass = list(zip(focal, _weights(rng, len(focal), exact)))
    values = [sum((m for f, m in mass if f & a), 0) for a in range(space.size)]
    values[-1] = 1
    return Capacity(space, values)


def random_concave_mixture(rng, space, exact):
    """sum_k w_k phi_k(p_k(A)) with phi(x) = min(1, lambda x) in exact mode
    and x ** alpha in float mode: each term is 2-alternating, so the sum is."""
    values = [0] * space.size
    for w in _weights(rng, rng.randint(1, 3), exact):
        table = random_probability_vector(rng, space, exact).mass_table()
        if exact:
            lam = Fraction(rng.randint(4, 16), 4)
            phi = [min(1, lam * x) for x in table]
        else:
            alpha = rng.uniform(0.2, 1.0)
            phi = [min(1, x ** alpha) for x in table]
        values = [v + w * t for v, t in zip(values, phi)]
    values[0], values[-1] = 0, 1
    return Capacity(space, values)


@pytest.mark.parametrize("exact, count", [(True, 8), (False, 25)])
@pytest.mark.parametrize("generator", [random_plausibility, random_concave_mixture])
def test_equality_clause_beyond_the_campaign_families(generator, exact, count):
    """2-alternating priors that are neither contaminations nor power
    distortions, on every proper event. With a band every event is
    ProvenEqual. With a family that holds only some switch vectors, an
    event whose e_A is a member has its upper bound attained, and only
    events whose e_A and e_{A^c} are both members are ProvenEqual."""
    rng = Random(4)
    attained = 0
    for _ in range(count):
        space = _space(rng.randint(2, 5))
        prior = generator(rng, space, exact)
        assert is_two_alternating(prior)
        events = range(1, space.full_mask)
        band = random_band(rng, space, exact)
        for rep in verify_theorem(prior, band, events):
            assert rep.equality_diagnosis is EqualityDiagnosis.PROVEN_EQUAL
        family = _family_holding_both_envelopes(rng, space, exact)
        for rep in verify_theorem(prior, family, events):
            holds = family.holds_switch_vector(rep.event)
            both = holds and family.holds_switch_vector(space.complement(rep.event))
            assert (rep.equality_diagnosis is EqualityDiagnosis.PROVEN_EQUAL) == both
            if holds:
                assert rep.equality_diagnosis in (
                    EqualityDiagnosis.PROVEN_EQUAL, EqualityDiagnosis.NUMERICALLY_EQUAL
                )
                attained += 1
    assert attained > count


def _chain_instance():
    prior = epsilon_contamination(uniform_vector(SP3, exact=True), Fraction(1, 10))
    band = LikelihoodSet.precise(
        Functional(SP3, (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)))
    )
    return prior, band


def _shift_bounds(monkeypatch, event, **shifts):
    """Make verify_theorem see the bounds of ``event`` moved by ``shifts``."""
    real = oracle_module.bounds_report

    def shifted(prior, likelihoods, masks):
        return [
            replace(r, **{k: getattr(r, k) + d for k, d in shifts.items()})
            if r.event == event
            else r
            for r in real(prior, likelihoods, masks)
        ]

    monkeypatch.setattr(oracle_module, "bounds_report", shifted)


CHAIN_DETAILS = {
    "event", "oracle", "bound_vertex", "bound_choquet", "oracle_complement",
    "bound_vertex_complement", "bound_choquet_complement", "instance_hash",
}


@pytest.mark.parametrize(
    "shifts, message",
    [
        ({"bound_vertex": Fraction(-1, 10**6)}, "oracle exceeded the vertex bound"),
        ({"bound_choquet": Fraction(-1, 10**6)}, "vertex bound exceeded the Choquet bound"),
        (
            {"bound_vertex": Fraction(1, 10**6), "bound_choquet": Fraction(1, 10**6)},
            "equality clause failed",
        ),
    ],
)
def test_each_chain_check_fires(monkeypatch, shifts, message):
    prior, band = _chain_instance()
    _shift_bounds(monkeypatch, 0b001, **shifts)
    with pytest.raises(ChainViolation, match=message) as exc:
        verify_theorem(prior, band, [0b001])
    assert set(exc.value.details) == CHAIN_DETAILS
    assert exc.value.details["event"] == "t1"


def test_failing_campaign_dumps_a_replayable_model(monkeypatch):
    """The first instance of a campaign whose Choquet bound is pushed below
    the vertex bound raises with its index and a model that replays to
    the same violation."""
    real = oracle_module.bounds_report

    def crossed(prior, likelihoods, masks):
        return [
            replace(r, bound_choquet=r.bound_vertex - Fraction(1, 10**6))
            for r in real(prior, likelihoods, masks)
        ]

    monkeypatch.setattr(oracle_module, "bounds_report", crossed)
    with pytest.raises(ChainViolation) as exc:
        run_campaign(count=3, seed=5, family="contamination", exact=True)
    details = exc.value.details
    assert details["instance"] == 0
    model = parse_model(details["model"])
    with pytest.raises(ChainViolation) as replay:
        verify_theorem(model.prior, model.likelihoods, model.event_masks())
    assert replay.value.details["instance_hash"] == details["instance_hash"]


def _relabelled(prior, band, perm):
    """The same instance with outcome ``perm[j]`` moved to position j."""
    space = OutcomeSpace(tuple(prior.space.labels[i] for i in perm))

    def old_mask(m):
        return sum(1 << perm[j] for j in range(space.n) if m >> j & 1)

    def moved(f):
        return Functional(space, tuple(f.values[i] for i in perm))

    values = tuple(prior.values[old_mask(m)] for m in range(space.size))
    return Capacity(space, values), LikelihoodSet.band(moved(band.lower), moved(band.upper))


def _by_event(reports):
    return {
        r.space.event_key(r.event): (
            r.bound_vertex, r.bound_choquet, r.lower_vertex, r.lower_choquet,
            r.oracle, r.lower_oracle, r.equality_diagnosis,
        )
        for r in reports
    }


@pytest.mark.parametrize("family", ["contamination", "arbitrary"])
def test_metamorphic_relations(family):
    """On exact instances, over all events: relabelling the outcomes
    changes no report, and halving the band's lower envelope lowers no
    upper bound and no oracle value. They catch defects that move the
    oracle and the bounds together, which the chain alone cannot see."""
    rng = Random(97)
    for _ in range(5):
        space = _space(rng.randint(3, 5))
        prior, band = random_prior(rng, space, family, exact=True), random_band(rng, space, exact=True)
        events = range(space.size)
        base = verify_theorem(prior, band, events)

        perm = list(range(space.n))
        rng.shuffle(perm)
        moved = _relabelled(prior, band, perm)
        assert _by_event(verify_theorem(*moved, events)) == _by_event(base)

        lower = Functional(space, tuple(v / 2 for v in band.lower.values))
        halved = verify_theorem(prior, LikelihoodSet.band(lower, band.upper), events)
        for old, new in zip(base, halved):
            assert new.bound_vertex >= old.bound_vertex
            assert new.bound_choquet >= old.bound_choquet
            assert new.oracle >= old.oracle
