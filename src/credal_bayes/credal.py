"""The core of a capacity as a concrete polytope.

Emptiness detection works for any capacity; vertex enumeration is
provided only for 2-alternating (concave) capacities, where the extreme
points are the marginal vectors of outcome orderings. General polytope
vertex enumeration is deliberately absent: optimization over arbitrary
cores goes through the LP path in :mod:`.optim`.
"""

from __future__ import annotations

from itertools import permutations

from .capacity import Capacity, ProbabilityVector
from .capacity import is_two_alternating
from .errors import InfeasibleCore, NotTwoAlternating, SpaceTooLarge
from .optim import _solve_core

MAX_VERTEX_OUTCOMES = 10  # n! orderings before deduplication


def is_core_empty(c: Capacity) -> bool:
    """True when no probability vector is dominated by ``c``.

    Feasibility reuses the cutting-plane LP with a zero objective;
    verdicts near the boundary are settled in exact arithmetic.
    """
    try:
        _solve_core(c, [0] * c.space.n, True)
    except InfeasibleCore:
        return True
    return False


def core_vertices_two_monotone(c: Capacity) -> tuple[ProbabilityVector, ...]:
    """Extreme points of the core of a 2-alternating capacity.

    Each ordering of the outcomes yields the marginal vector that assigns
    every outcome the increment of ``c`` along the ordering's prefixes.
    Duplicates collapse (componentwise 1e-12, exact in rational mode) and
    the result is sorted lexicographically so serialized output is stable.
    Float mass below 0, from a decrease within 1e-12, is clipped to 0.0.
    """
    n = c.space.n
    if n > MAX_VERTEX_OUTCOMES:
        raise SpaceTooLarge(
            f"vertex enumeration needs n <= {MAX_VERTEX_OUTCOMES}, got {n}"
        )
    verdict = is_two_alternating(c)
    if not verdict:
        raise NotTwoAlternating(
            "vertex enumeration needs a 2-alternating capacity",
            witness=verdict.witness,
        )
    exact = c.exact
    seen: dict[tuple, tuple] = {}
    for order in permutations(range(n)):
        mass = [0] * n
        mask = 0
        prev = c.values[0]
        for i in order:
            mask |= 1 << i
            cur = c.values[mask]
            mass[i] = cur - prev
            prev = cur
        key = tuple(mass) if exact else tuple(round(float(x), 12) for x in mass)
        if key not in seen:
            seen[key] = tuple(mass) if min(mass) >= 0 else tuple(max(x, 0.0) for x in mass)
    return tuple(
        ProbabilityVector(c.space, mass) for mass in sorted(seen.values())
    )
