"""Exact sup/inf of linear expectations over the core of a capacity.

The core of a capacity ``c`` is the polytope of probability vectors
dominated by ``c`` on every event. Optimizing a linear objective over it
is a linear program with one domination row per proper nonempty event
plus the simplex row. Those 2**n - 2 rows are never built: the program
is solved by Kelley's cutting planes. Each round solves the simplex row
plus an active set of events from scratch, then scans the solution's
event masses for the most violated event not yet active and adds it.
The loop stops when no event is violated beyond 1e-12 (exactly nothing
in rational mode), which usually takes a handful of rows. The numbers
decide the mode: when the capacity, the objective and the equality rows
are all exact the program is solved in rationals, otherwise in floats.

Emptiness detection never flaps: a float phase 1 that lands within 1e-7
of the feasibility boundary is re-adjudicated with exact rationals on
the exact binary values of the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from ._numeric import OPT_TOL, all_exact, struct_tol, to_fraction
from ._simplex import LPSolution, solve
from .capacity import Capacity, OutcomeSpace, ProbabilityVector, event_mass_table
from .choquet import Functional
from .errors import InfeasibleCore, SolverError

# Float phase-1 residuals above this mean a definitely empty core; at or
# below, the verdict is handed to the exact solver.
AMBIGUOUS_FEAS = 1e-7


@dataclass(frozen=True)
class ExpectationBound:
    """Optimum of a linear expectation over the core, with an optimizer.

    The optimizer is a basic feasible solution of the domination LP, so
    it is a vertex of the core polytope.
    """

    value: object
    argmax: ProbabilityVector


def most_violated_event(c: Capacity, mass, tol, skip=()) -> int | None:
    """The event mask on which ``mass`` exceeds ``c`` the most, by more
    than ``tol``, leaving out the masks in ``skip``; None when there is none."""
    gaps = [t - v for t, v in zip(event_mass_table(mass, c.space.n), c.values)]
    for m in skip:
        gaps[m] = tol
    worst = max(range(len(gaps)), key=gaps.__getitem__)
    return worst if gaps[worst] > tol else None


def core_lp(c: Capacity, objective, a_eq, b_eq, maximize: bool,
            scaled: bool = False) -> LPSolution:
    """Optimize over the core of ``c`` by cutting planes.

    The first ``n`` variables are the prior. With ``scaled`` the next one
    is a scale t and the domination rows read sum_{i in B} y_i <= c(B) t;
    the scan then checks y / t. ``a_eq``/``b_eq`` carry the simplex row
    and anything else the caller needs. The program is exact when ``c``,
    the objective and the equality rows all are, and float otherwise.
    """
    n = c.space.n
    exact = c.exact and all_exact(chain(objective, b_eq, *a_eq))
    tol = struct_tol(exact)
    num = to_fraction if exact else float
    objective = [num(v) for v in objective]
    active: list[int] = []
    a_ub, b_ub = [], []
    while True:
        sol = solve(objective, a_ub, b_ub, a_eq, b_eq, maximize=maximize)
        if sol.status != "optimal":
            return sol
        mass = sol.x[:n]
        if scaled:
            mass = [v / sol.x[n] for v in mass]
        m = most_violated_event(c, mass, tol, active)
        if m is None:
            return sol
        active.append(m)
        row = [m >> i & 1 for i in range(n)]
        if scaled:
            a_ub.append(row + [-c.values[m]])
            b_ub.append(0)
        else:
            a_ub.append(row)
            b_ub.append(c.values[m])


def _solve_core(c: Capacity, objective, maximize: bool):
    """Shared LP path; a float program found infeasible near the boundary
    is re-solved in rationals, so empty-core verdicts are stable."""
    n = c.space.n
    sol = core_lp(c, objective, [[1] * n], [1], maximize)
    res = sol.infeasibility
    if sol.status == "infeasible" and isinstance(res, float) and res <= AMBIGUOUS_FEAS:
        exact_c = Capacity(c.space, tuple(map(to_fraction, c.values)), check=False)
        sol = core_lp(exact_c, list(map(to_fraction, objective)), [[1] * n], [1], maximize)
        if sol.status == "optimal":
            sol = LPSolution(
                sol.status,
                tuple(float(v) for v in sol.x),
                float(sol.value),
                float(sol.infeasibility),
            )
    if sol.status == "infeasible":
        raise InfeasibleCore("the prior core is empty; no posterior exists")
    return sol


def _vector_from_solution(space: OutcomeSpace, x) -> ProbabilityVector:
    """The prior at an LP optimum: float mass is clipped at 0 and renormalised."""
    if all_exact(x):
        return ProbabilityVector(space, tuple(x))
    mass = [v if v > 0 else 0.0 for v in x]
    total = sum(mass)
    if abs(total - 1) > OPT_TOL:
        raise SolverError(f"LP optimizer sums to {total!r}; solver defect")
    return ProbabilityVector(space, tuple(v / total for v in mass))


def _expectation(c: Capacity, f: Functional, maximize: bool) -> ExpectationBound:
    if c.space != f.space:
        raise ValueError("capacity and functional live on different spaces")
    sol = _solve_core(c, f.values, maximize)
    argmax = _vector_from_solution(c.space, sol.x)
    return ExpectationBound(sol.value, argmax)


def sup_expectation(c: Capacity, f: Functional) -> ExpectationBound:
    """Maximize the expectation of ``f`` over the core of ``c``.

    Raises :class:`InfeasibleCore` when the core is empty.
    """
    return _expectation(c, f, maximize=True)


def inf_expectation(c: Capacity, f: Functional) -> ExpectationBound:
    """Minimize the expectation of ``f`` over the core of ``c``.

    Implemented as the negated maximization of ``-f``.
    """
    return _expectation(c, f, maximize=False)

