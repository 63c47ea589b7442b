"""Dense two-phase tableau simplex over floats or exact rationals.

One solver serves both arithmetic modes. The field follows the inputs:
when every coefficient is an int or a Fraction the tableau holds
Fractions and every comparison is exact; otherwise it holds floats and
compares at 1e-9 (ratio ties at 1e-12, relative). The programs it sees
are small: the core LPs in :mod:`.optim` grow their rows one cutting
plane at a time.

The algorithm: slacks for <= rows, one artificial per equality row,
phase 1 minimizing total artificial mass, phase 2 on the real objective
with artificial columns banned. Entering and leaving variables follow
Bland's rule; the core polytopes this package optimizes over are highly
degenerate and Bland's rule is the simple way to rule out cycling.

Preconditions: all variables are nonnegative, every right-hand side is
nonnegative (``ValueError`` otherwise) and the objective is bounded. An
improving column with no leaving row raises :class:`SolverError`, as the
iteration limit does. Every program this package builds meets them: a
core LP lies in the probability simplex, and the fractional LP's
objective is at most its evidence row e . y = 1. The two statuses are
"optimal" and "infeasible".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from ._numeric import all_exact, opt_tol, struct_tol
from .errors import SolverError

_MAX_ITER = 100_000


@dataclass(frozen=True)
class LPSolution:
    status: str               # "optimal" | "infeasible"
    x: tuple | None
    value: object | None
    infeasibility: object     # phase-1 artificial residual


def solve(objective, a_ub, b_ub, a_eq, b_eq, maximize=True) -> LPSolution:
    exact = all_exact(chain(objective, b_ub, b_eq, *a_ub, *a_eq))
    num = Fraction if exact else float
    tol, tie = opt_tol(exact), struct_tol(exact)
    zero, one = num(0), num(1)
    obj = [num(v) for v in objective]
    n = len(obj)
    mu, me = len(b_ub), len(b_eq)
    cols = n + mu + me
    # One slack per <= row, then one artificial per equality row: row i
    # starts with column n + i basic.
    T: list[list] = []
    for i, (row, rhs) in enumerate(zip(chain(a_ub, a_eq), chain(b_ub, b_eq))):
        rhs = num(rhs)
        if rhs < 0:
            raise ValueError("every right-hand side must be nonnegative")
        row = [num(v) for v in row] + [zero] * (mu + me) + [rhs]
        row[n + i] = one
        T.append(row)
    basis = list(range(n, cols))

    # Cost rows carry a trailing rhs slot so they line up with tableau
    # rows; that slot is never read.
    cost = [zero] * (n + mu) + [-one] * me + [zero]
    r = _reduced(cost, T, basis)
    _iterate(T, basis, r, cols, tol, tie)
    infeas = sum((T[i][-1] for i in range(len(T)) if basis[i] >= n + mu), zero)
    if infeas > tol:
        return LPSolution("infeasible", None, None, infeas)
    _evict_artificials(T, basis, n + mu, tol)

    cost = [v if maximize else -v for v in obj] + [zero] * (mu + me + 1)
    r = _reduced(cost, T, basis)
    _iterate(T, basis, r, n + mu, tol, tie)
    x = [zero] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = T[i][-1]
    value = sum((o * v for o, v in zip(obj, x)), zero)
    return LPSolution("optimal", tuple(x), value, infeas)


def _reduced(cost, T, basis):
    r = list(cost)
    for row, b in zip(T, basis):
        cb = cost[b]
        if cb:
            r = [a - cb * v for a, v in zip(r, row)]
    return r


def _iterate(T, basis, r, eligible, tol, tie):
    """Pivot until no column below ``eligible`` has reduced cost above ``tol``."""
    for _ in range(_MAX_ITER):
        for j in range(eligible):
            if r[j] > tol:
                break
        else:
            return
        best = -1
        for i, row in enumerate(T):
            if row[j] > tol:
                ratio = row[-1] / row[j]
                if best < 0 or ratio < rmin:
                    best, rmin = i, ratio
        if best < 0:
            raise SolverError(f"column {j} has no leaving row: the objective is unbounded")
        # Bland: among the (near-)minimal ratios the lowest basic index leaves
        near = rmin + tie * (1 + abs(rmin))
        for i, row in enumerate(T):
            if basis[i] < basis[best] and row[j] > tol and row[-1] / row[j] <= near:
                best = i
        _pivot(T, basis, r, best, j)
    raise SolverError("simplex iteration limit exceeded")


def _pivot(T, basis, r, i, j):
    piv = T[i][j]
    if piv != 1:
        T[i] = [v / piv for v in T[i]]
    row = T[i]
    nonzero = [k for k, v in enumerate(row) if v]
    for other in T:
        f = other[j]
        if f and other is not row:
            for k in nonzero:
                other[k] -= f * row[k]
            if other[-1] < 0:  # float degeneracy noise; exact rhs stay >= 0
                other[-1] = type(other[-1])(0)
    if r is not None and r[j]:
        f = r[j]
        for k in nonzero:
            r[k] -= f * row[k]
    basis[i] = j


def _evict_artificials(T, basis, first_art, tol):
    for i, row in enumerate(T):
        if basis[i] >= first_art:
            j = next((k for k in range(first_art) if abs(row[k]) > tol), -1)
            if j >= 0:
                _pivot(T, basis, None, i, j)
            # else: redundant row, harmless to keep
