"""LP expectation bounds over cores, cross-checked against independent routes."""

from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from credal_bayes import (
    Capacity,
    Functional,
    OutcomeSpace,
    ProbabilityVector,
    additive_capacity,
    choquet_lower,
    choquet_upper,
    core_vertices_two_monotone,
    epsilon_contamination,
    inf_expectation,
    sup_expectation,
    uniform_vector,
    vacuous_capacity,
)
from credal_bayes.campaign import (
    random_contamination,
    random_distortion,
    random_monotone_capacity,
)
from credal_bayes import optim
from credal_bayes.errors import InfeasibleCore, SolverError
from credal_bayes._simplex import _pivot, solve
from credal_bayes.capacity import is_two_alternating
from credal_bayes.credal import is_core_empty
from credal_bayes.optim import core_lp, most_violated_event
from credal_bayes.oracle import _fractional_lp

SP2 = OutcomeSpace(("a", "b"))
SP3 = OutcomeSpace(("t1", "t2", "t3"))


def _space(n):
    return OutcomeSpace(tuple(f"x{i}" for i in range(n)))


def _random_functional(rng, space, lo=0.0, hi=3.0):
    return Functional(space, tuple(rng.uniform(lo, hi) for _ in range(space.n)))


class TestExamples:
    def test_additive_core_is_the_measure(self):
        p = ProbabilityVector(SP3, (0.5, 0.3, 0.2))
        c = additive_capacity(p)
        f = Functional(SP3, (1.0, 2.0, 4.0))
        got = sup_expectation(c, f)
        want = sum(a * b for a, b in zip(f.values, p.mass))
        assert got.value == pytest.approx(want, abs=1e-12)
        assert got.argmax.mass == pytest.approx(p.mass, abs=1e-9)
        assert inf_expectation(c, f).value == pytest.approx(want, abs=1e-12)

    def test_vacuous_peak_and_trough(self):
        f = Functional(SP2, (3.0, 1.0))
        v = vacuous_capacity(SP2)
        top = sup_expectation(v, f)
        assert top.value == pytest.approx(3.0, abs=1e-12)
        assert top.argmax.mass == pytest.approx((1.0, 0.0), abs=1e-9)
        assert inf_expectation(v, f).value == pytest.approx(1.0, abs=1e-12)

    def test_contamination_matches_choquet(self):
        c = epsilon_contamination(uniform_vector(SP3), 0.1)
        f = Functional(SP3, (0.5, 0.0, 0.0))
        assert sup_expectation(c, f).value == pytest.approx(0.2, abs=1e-12)
        g = Functional(SP3, (0.0, 0.3, 0.2))
        assert inf_expectation(c, g).value == pytest.approx(0.15, abs=1e-12)

    def test_infeasible_core(self):
        bad = Capacity(SP2, (0, 0.2, 0.2, 1))
        with pytest.raises(InfeasibleCore):
            sup_expectation(bad, Functional(SP2, (1.0, 0.0)))

    def test_space_cap(self):
        with pytest.raises(ValueError, match="between 1 and 12"):
            _space(13)

    def test_cap_boundary_runs(self):
        # n = 12 is the one size cap: every layer below it accepts the space
        space = _space(12)
        c = epsilon_contamination(uniform_vector(space), 0.1)
        f = Functional(space, tuple(range(12)))
        assert not is_core_empty(c)
        assert is_two_alternating(c)
        assert sup_expectation(c, f).value == pytest.approx(choquet_upper(c, f), abs=1e-9)


class TestAgainstChoquet:
    def test_exactness_for_concave_capacities(self):
        rng = Random(41)
        for _ in range(60):
            space = _space(rng.randint(1, 6))
            c = (
                random_contamination(rng, space)
                if rng.random() < 0.5
                else random_distortion(rng, space)
            )
            f = _random_functional(rng, space)
            assert sup_expectation(c, f).value == pytest.approx(
                choquet_upper(c, f), abs=1e-9
            )
            assert inf_expectation(c, f).value == pytest.approx(
                choquet_lower(c, f), abs=1e-9
            )

    def test_upper_bound_direction_for_arbitrary_monotone(self):
        rng = Random(43)
        for _ in range(40):
            space = _space(rng.randint(3, 6))
            c = random_monotone_capacity(rng, space)
            f = _random_functional(rng, space)
            assert sup_expectation(c, f).value <= choquet_upper(c, f) + 1e-9


class TestOptimizer:
    def test_argmax_membership_and_value(self):
        rng = Random(47)
        for _ in range(30):
            space = _space(rng.randint(2, 5))
            c = random_monotone_capacity(rng, space)
            f = _random_functional(rng, space)
            got = sup_expectation(c, f)
            assert most_violated_event(c, got.argmax.mass, 1e-9) is None
            achieved = sum(a * b for a, b in zip(f.values, got.argmax.mass))
            assert achieved == pytest.approx(got.value, abs=1e-9)

    def test_argmax_is_a_core_vertex_when_enumerable(self):
        rng = Random(53)
        for _ in range(20):
            space = _space(rng.randint(2, 5))
            c = random_distortion(rng, space)
            f = _random_functional(rng, space)
            got = sup_expectation(c, f)
            verts = core_vertices_two_monotone(c)
            dists = [
                max(abs(a - b) for a, b in zip(v.mass, got.argmax.mass)) for v in verts
            ]
            assert min(dists) < 1e-7

    def test_inf_is_negated_sup(self):
        rng = Random(59)
        for _ in range(20):
            space = _space(rng.randint(2, 5))
            c = random_contamination(rng, space)
            f = _random_functional(rng, space)
            n = space.n
            neg = core_lp(c, [-v for v in f.values], [[1] * n], [1], True)
            assert inf_expectation(c, f).value == pytest.approx(-neg.value, abs=1e-9)


class TestExactMode:
    def test_exact_equals_choquet_exactly(self):
        rng = Random(61)
        for _ in range(10):
            space = _space(rng.randint(2, 5))
            c = random_contamination(rng, space, exact=True)
            f = Functional(
                space, tuple(Fraction(rng.randint(0, 24), 24) for _ in range(space.n))
            )
            assert sup_expectation(c, f).value == choquet_upper(c, f)
            assert inf_expectation(c, f).value == choquet_lower(c, f)

    def test_exact_and_float_agree(self):
        rng = Random(67)
        for _ in range(10):
            space = _space(rng.randint(2, 5))
            c = random_contamination(rng, space, exact=True)
            f_exact = Functional(
                space, tuple(Fraction(rng.randint(0, 24), 24) for _ in range(space.n))
            )
            c_float = Capacity(space, tuple(float(v) for v in c.values))
            f_float = Functional(space, tuple(float(v) for v in f_exact.values))
            assert float(sup_expectation(c, f_exact).value) == pytest.approx(
                sup_expectation(c_float, f_float).value, abs=1e-9
            )

    def test_exact_and_float_agree_on_arbitrary_monotone(self):
        rng = Random(73)
        for _ in range(15):
            space = _space(rng.randint(2, 5))
            c = random_monotone_capacity(rng, space, exact=True)
            c_float = Capacity(space, tuple(float(v) for v in c.values))
            f = Functional(
                space, tuple(Fraction(rng.randint(1, 24), 24) for _ in range(space.n))
            )
            f_float = Functional(space, tuple(float(v) for v in f.values))
            for opt in (sup_expectation, inf_expectation):
                assert float(opt(c, f).value) == pytest.approx(
                    opt(c_float, f_float).value, abs=1e-9
                )
            event = rng.randint(1, space.full_mask)
            exact_ratio, _ = _fractional_lp(c, f, event)
            float_ratio, _ = _fractional_lp(c_float, f_float, event)
            assert float(exact_ratio) == pytest.approx(float_ratio, abs=1e-9)

    def test_pivot_clamp_keeps_the_field(self):
        # Pivoting on a row that is not the ratio-test minimum drives the
        # other row's right-hand side negative; the clamp that zeroes it
        # must not put a float into a rational tableau.
        T = [[Fraction(1), Fraction(1), Fraction(1)], [Fraction(1), Fraction(0), Fraction(2)]]
        _pivot(T, [1, 2], None, 1, 0)
        assert T[0][-1] == 0
        assert all(type(v) is Fraction for row in T for v in row)


# Equality systems that end phase 1 with an artificial basic at zero,
# as (objective, a_eq, b_eq, optimizer, maximum): a redundant row keeps
# its artificial, a degenerate row has it pivoted out. Left in the basis,
# the last one's artificial would grow in phase 2 to the point (0, 1).
EVICTIONS = {
    "redundant-row": ([0, -2], [[2, 1], [0, 0]], [2, 0], (1, 0), 0),
    "degenerate-row": ([-2, -2, -2], [[-1, 0, 0], [0, -1, 1]], [0, 2], (0, 0, 2), -4),
    "degenerate-row-moves-optimum": ([-2, 2], [[0, -1], [1, 2]], [0, 2], (2, 0), -4),
}


@pytest.mark.parametrize("num", [Fraction, float])
@pytest.mark.parametrize("name", EVICTIONS)
def test_basic_artificials_leave_before_phase_two(name, num):
    objective, a_eq, b_eq, x, value = EVICTIONS[name]
    objective, b_eq = [num(v) for v in objective], [num(v) for v in b_eq]
    sol = solve(objective, [], [], [[num(v) for v in row] for row in a_eq], b_eq)
    assert (sol.status, sol.x, sol.value) == ("optimal", x, value)
    assert all(type(v) is num for v in sol.x)
    assert [sum(a * v for a, v in zip(row, x)) for row in a_eq] == b_eq


@pytest.mark.parametrize(
    "program, error, match",
    [
        (([1, 1], [], [], [[1, -1]], [0]), SolverError, "no leaving row: the objective is unbounded"),
        (([1.0, 0.0], [[1, 1]], [-1], [], []), ValueError, "right-hand side"),
        (([1, 2], [], [], [[-1, -1]], [-1]), ValueError, "right-hand side"),
    ],
    ids=["unbounded", "negative-le-rhs", "negative-eq-rhs"],
)
def test_kernel_refuses_programs_outside_its_preconditions(program, error, match):
    with pytest.raises(error, match=match):
        solve(*program)


def test_optimizer_off_the_simplex_is_a_solver_defect(monkeypatch):
    real = optim.solve

    def halved(*args, **kwargs):
        sol = real(*args, **kwargs)
        return replace(sol, x=tuple(v / 2 for v in sol.x))

    monkeypatch.setattr(optim, "solve", halved)
    with pytest.raises(SolverError, match="LP optimizer sums to 0.5; solver defect"):
        sup_expectation(vacuous_capacity(SP3), Functional(SP3, (0.5, 0.25, 1.0)))


def test_kernel_edge_cases_against_scipy():
    """The eviction systems agree with HiGHS, and so does the sign flip
    that a caller of the kernel makes on an equality row whose
    right-hand side is negative."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    programs = [(obj, a_eq, b_eq) for obj, a_eq, b_eq, _, _ in EVICTIONS.values()]
    programs.append(([1, 2, 0], [[-1, -1, -1]], [-1]))
    for objective, a_eq, b_eq in programs:
        res = scipy_opt.linprog(
            [-v for v in objective],
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=[(0, None)] * len(objective),
            method="highs",
        )
        assert res.status == 0
        flipped = [(row, b) if b >= 0 else ([-v for v in row], -b) for row, b in zip(a_eq, b_eq)]
        sol = solve(objective, [], [], [row for row, _ in flipped], [b for _, b in flipped])
        assert float(sol.value) == pytest.approx(-res.fun, abs=1e-12)


def _dense_core_rows(c):
    """All 2**n - 2 domination rows, built independently of the solver."""
    n = c.space.n
    rows = [[float(m >> i & 1) for i in range(n)] for m in range(1, c.space.size - 1)]
    return rows, [float(c.values[m]) for m in range(1, c.space.size - 1)]


def test_cross_check_against_scipy():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = Random(71)
    for _ in range(40):
        space = _space(rng.randint(2, 9))
        c = random_monotone_capacity(rng, space)
        f = _random_functional(rng, space)
        a_ub, b_ub = _dense_core_rows(c)
        for sign, opt in ((-1, sup_expectation), (1, inf_expectation)):
            res = scipy_opt.linprog(
                [sign * v for v in f.values],
                A_ub=a_ub,
                b_ub=b_ub,
                A_eq=[[1.0] * space.n],
                b_eq=[1.0],
                bounds=[(0, None)] * space.n,
                method="highs",
            )
            assert res.status == 0
            assert opt(c, f).value == pytest.approx(sign * res.fun, abs=1e-7)


def test_fractional_lp_against_scipy():
    # Charnes-Cooper form of max E[e 1_A] / E[e] over the core, variables (y, t)
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = Random(79)
    for _ in range(40):
        space = _space(rng.randint(3, 8))
        n = space.n
        c = random_monotone_capacity(rng, space)
        e = _random_functional(rng, space, lo=0.05, hi=1.5)
        event = rng.randint(1, space.full_mask - 1)
        a_ub, b_ub = _dense_core_rows(c)
        res = scipy_opt.linprog(
            [-v if event >> i & 1 else 0.0 for i, v in enumerate(e.values)] + [0.0],
            A_ub=[row + [-cap] for row, cap in zip(a_ub, b_ub)],
            b_ub=[0.0] * len(b_ub),
            A_eq=[[1.0] * n + [-1.0], list(e.values) + [0.0]],
            b_eq=[0.0, 1.0],
            bounds=[(0, None)] * (n + 1),
            method="highs",
        )
        assert res.status == 0
        value, vertex = _fractional_lp(c, e, event)
        assert value == pytest.approx(-res.fun, abs=1e-7)
        assert most_violated_event(c, vertex.mass, 1e-9) is None
