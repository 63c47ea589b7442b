"""Core membership by the core scan, emptiness and vertex enumeration."""

from fractions import Fraction
from random import Random

import pytest

from credal_bayes import (
    Capacity,
    OutcomeSpace,
    ProbabilityVector,
    additive_capacity,
    core_vertices_two_monotone,
    epsilon_contamination,
    is_core_empty,
    uniform_vector,
    vacuous_capacity,
)
from credal_bayes.campaign import (
    random_contamination,
    random_distortion,
    random_probability_vector,
)
from credal_bayes.choquet import Functional
from credal_bayes.errors import NotTwoAlternating, SpaceTooLarge
from credal_bayes.optim import most_violated_event, sup_expectation

SP2 = OutcomeSpace(("a", "b"))
SP3 = OutcomeSpace(("t1", "t2", "t3"))


def _space(n):
    return OutcomeSpace(tuple(f"x{i}" for i in range(n)))


class TestMembership:
    def test_base_vector_in_contamination_core(self):
        p = uniform_vector(SP3)
        assert most_violated_event(epsilon_contamination(p, 0.3), p.mass, 1e-9) is None

    def test_point_mass_outside_with_witness(self):
        c = epsilon_contamination(uniform_vector(SP3), 0.1)
        worst = most_violated_event(c, (1.0, 0.0, 0.0), 1e-9)
        assert worst == 0b001  # violated by 1 - 0.4, the largest gap

    def test_everything_inside_vacuous(self):
        rng = Random(2)
        for _ in range(10):
            p = random_probability_vector(rng, SP3)
            assert most_violated_event(vacuous_capacity(SP3), p.mass, 1e-9) is None


class TestEmptiness:
    def test_two_alternating_cores_are_nonempty(self):
        rng = Random(5)
        for _ in range(20):
            space = _space(rng.randint(1, 6))
            c = (
                random_contamination(rng, space)
                if rng.random() < 0.5
                else random_distortion(rng, space)
            )
            assert not is_core_empty(c)

    def test_undominatable_capacity(self):
        assert is_core_empty(Capacity(SP2, (0, 0.2, 0.2, 1)))

    def test_additive_contains_its_measure(self):
        assert not is_core_empty(additive_capacity(ProbabilityVector(SP2, (0.7, 0.3))))

    def test_exact_mode(self):
        c = Capacity(SP2, (0, Fraction(1, 5), Fraction(1, 5), 1))
        assert is_core_empty(c)
        c2 = epsilon_contamination(uniform_vector(SP2, exact=True), Fraction(1, 7))
        assert not is_core_empty(c2)

    def test_near_boundary_verdicts_are_exact(self):
        # inside the 1e-7 ambiguity band the verdict comes from exact
        # arithmetic on the binary float values, so it cannot flap
        barely_empty = Capacity(SP2, (0, 0.5 - 5e-9, 0.5 - 5e-9, 1))
        assert is_core_empty(barely_empty)
        barely_full = Capacity(SP2, (0, 0.5 - 5e-9, 0.5 + 5e-9, 1))
        assert not is_core_empty(barely_full)
        knife_edge = Capacity(SP2, (0, 0.5, 0.5, 1))
        assert not is_core_empty(knife_edge)


class TestVertices:
    def test_additive_single_vertex(self):
        p = ProbabilityVector(SP3, (0.5, 0.3, 0.2))
        verts = core_vertices_two_monotone(additive_capacity(p))
        assert len(verts) == 1
        assert verts[0].mass == pytest.approx(p.mass, abs=1e-12)

    def test_contamination_pair(self):
        c = epsilon_contamination(uniform_vector(SP2), 0.1)
        verts = core_vertices_two_monotone(c)
        masses = sorted(tuple(round(x, 12) for x in v.mass) for v in verts)
        assert masses == [(0.45, 0.55), (0.55, 0.45)]

    def test_vacuous_core_is_simplex(self):
        verts = core_vertices_two_monotone(vacuous_capacity(SP2))
        assert sorted(v.mass for v in verts) == [(0, 1), (1, 0)]

    def test_vertex_count_for_contamination(self):
        # distinct strictly positive coordinates and eps > 0: one vertex
        # per choice of first outcome
        rng = Random(13)
        for n in range(2, 7):
            space = _space(n)
            p = random_probability_vector(rng, space)
            while len(set(p.mass)) != n:
                p = random_probability_vector(rng, space)
            c = epsilon_contamination(p, rng.uniform(0.05, 0.95))
            assert len(core_vertices_two_monotone(c)) == n

    def test_refuses_non_concave(self):
        # the core holds (1/3, 1/3, 1/3), but c(t1) + c(t2) < c(t1, t2)
        bad = Capacity(SP3, (0, 0.4, 0.4, 0.9, 0.4, 0.9, 0.9, 1))
        with pytest.raises(NotTwoAlternating, match="needs a 2-alternating") as exc:
            core_vertices_two_monotone(bad)
        assert exc.value.witness == (0b001, 0b010)

    def test_space_cap(self):
        with pytest.raises(SpaceTooLarge):
            core_vertices_two_monotone(vacuous_capacity(_space(11)))

    def test_space_cap_is_inclusive(self, monkeypatch):
        from credal_bayes import credal

        monkeypatch.setattr(credal, "MAX_VERTEX_OUTCOMES", 3)
        assert len(core_vertices_two_monotone(vacuous_capacity(_space(3)))) == 3
        with pytest.raises(SpaceTooLarge, match="needs n <= 3, got 4"):
            core_vertices_two_monotone(vacuous_capacity(_space(4)))

    def test_every_vertex_in_core(self):
        rng = Random(17)
        for _ in range(25):
            space = _space(rng.randint(2, 6))
            c = (
                random_contamination(rng, space)
                if rng.random() < 0.5
                else random_distortion(rng, space)
            )
            for v in core_vertices_two_monotone(c):
                assert most_violated_event(c, v.mass, 1e-9) is None

    def test_envelope_exactness(self):
        # the vertex family reproduces the capacity event-wise
        rng = Random(19)
        for _ in range(25):
            space = _space(rng.randint(2, 6))
            c = (
                random_contamination(rng, space)
                if rng.random() < 0.5
                else random_distortion(rng, space)
            )
            verts = core_vertices_two_monotone(c)
            tables = [v.mass_table() for v in verts]
            for m in range(space.size):
                assert max(t[m] for t in tables) == pytest.approx(
                    float(c[m]), abs=1e-9
                )

    def test_agreement_with_lp_on_indicators(self):
        rng = Random(23)
        for _ in range(10):
            space = _space(rng.randint(2, 5))
            c = random_distortion(rng, space)
            verts = core_vertices_two_monotone(c)
            tables = [v.mass_table() for v in verts]
            for m in range(1, space.size - 1):
                by_vertices = max(t[m] for t in tables)
                by_lp = sup_expectation(c, Functional(space, (1,) * space.n).restricted(m)).value
                assert by_vertices == pytest.approx(by_lp, abs=1e-9)


def test_vertices_serialize_lexicographically():
    c = epsilon_contamination(uniform_vector(SP2), 0.1)
    rows = [v.mass for v in core_vertices_two_monotone(c)]
    assert rows == sorted(rows)
    assert rows[0][0] == pytest.approx(0.45, abs=1e-12)
    exact = epsilon_contamination(uniform_vector(SP2, exact=True), Fraction(1, 10))
    rows = [v.mass for v in core_vertices_two_monotone(exact)]
    assert rows == [
        (Fraction(9, 20), Fraction(11, 20)),
        (Fraction(11, 20), Fraction(9, 20)),
    ]
