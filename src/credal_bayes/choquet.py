"""Upper and lower Choquet integrals of nonnegative functionals.

On a finite space the layer-cake integral of a step function reduces to a
finite sum over the distinct values of the integrand: sorting the values
descending and accumulating level sets gives
``sum_i (v_i - v_{i+1}) * c({f >= v_i})`` with ``v_{k+1} = 0``. Level sets
use >= because between consecutive distinct values the strict and weak
sets coincide; ties merge into a single layer, so the result never
depends on tie-break order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numeric import all_exact, exact_number
from .capacity import Capacity, OutcomeSpace
from .capacity import conjugate as _conjugate


@dataclass(frozen=True)
class Functional:
    """A bounded nonnegative function on the outcome space, one value per outcome."""

    space: OutcomeSpace
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.space.n:
            raise ValueError(f"expected {self.space.n} values, got {len(self.values)}")
        for v in self.values:
            if not exact_number(v) and not math.isfinite(v):
                raise ValueError(f"values must be finite, got {v!r}")
            if v < 0:
                raise ValueError(f"values must be nonnegative, got {v!r}")
        object.__setattr__(self, "_exact", all_exact(self.values))

    @property
    def exact(self) -> bool:
        return self._exact

    def restricted(self, mask: int) -> "Functional":
        """The pointwise product with the indicator of an event."""
        self.space.check_mask(mask)
        vals = tuple(v if mask >> i & 1 else 0 for i, v in enumerate(self.values))
        return Functional(self.space, vals)


def choquet_upper(c: Capacity, f: Functional):
    """Layer-cake integral of ``f`` against the capacity itself."""
    if c.space != f.space:
        raise ValueError("capacity and functional live on different spaces")
    # Stable descending order with index tie-break keeps intermediate
    # traces deterministic; the sum is tie-order independent regardless.
    order = sorted(range(f.space.n), key=lambda i: (-f.values[i], i))
    total = 0
    mask = 0
    idx = 0
    n = f.space.n
    while idx < n:
        level = f.values[order[idx]]
        if level == 0:
            break
        while idx < n and f.values[order[idx]] == level:
            mask |= 1 << order[idx]
            idx += 1
        nxt = f.values[order[idx]] if idx < n else 0
        total += (level - nxt) * c.values[mask]
    return total


def choquet_lower(c: Capacity, f: Functional):
    """Layer-cake integral against the conjugate capacity."""
    return choquet_upper(_conjugate(c), f)
