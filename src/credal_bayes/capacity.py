"""Set functions on a finite outcome space.

Events are subsets of the outcome space encoded as int bitmasks: bit i is
set when outcome i belongs to the event. A :class:`Capacity` stores one
value per event in a dense tuple of length ``2**n`` indexed by mask, which
keeps every lookup O(1) and every sweep a plain range loop.

Values are either binary floats (default) or exact rationals
(:class:`fractions.Fraction`); all operations preserve whichever mode the
inputs carry. Structural comparisons use a tolerance of 1e-12 in float
mode and are exact in rational mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, InitVar
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ._numeric import STRUCT_TOL, all_exact, exact_number, struct_tol
from .errors import EmptyFamily, NotMonotone, NotNormalized

# The one size cap on dense 2**n storage. A float ``update --sweep`` took
# 11.9 s at n=10 and 441.8 s at n=12 (2-core VM, Python 3.11).
MAX_OUTCOMES = 12


@dataclass(frozen=True)
class OutcomeSpace:
    """An ordered finite set of outcome labels.

    Labels double as JSON keys (comma-joined), so they must be nonempty,
    unique and comma-free.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not 1 <= len(self.labels) <= MAX_OUTCOMES:
            raise ValueError(f"need between 1 and {MAX_OUTCOMES} outcomes, got {len(self.labels)}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("outcome labels must be unique")
        for lab in self.labels:
            if not isinstance(lab, str) or not lab or "," in lab:
                raise ValueError(f"bad outcome label {lab!r}: labels are nonempty comma-free strings")
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(self.labels)})

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def size(self) -> int:
        """Number of events, ``2**n``."""
        return 1 << len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown outcome label {label!r}") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        m = 0
        for lab in labels:
            m |= 1 << self.index(lab)
        return m

    def labels_of(self, mask: int) -> tuple[str, ...]:
        self.check_mask(mask)
        return tuple(lab for i, lab in enumerate(self.labels) if mask >> i & 1)

    def complement(self, mask: int) -> int:
        self.check_mask(mask)
        return self.full_mask ^ mask

    def check_mask(self, mask: int) -> None:
        if not isinstance(mask, int) or not 0 <= mask <= self.full_mask:
            raise ValueError(f"event mask {mask!r} out of range for {self.n} outcomes")

    def event_key(self, mask: int) -> str:
        """Serialization key: comma-joined sorted labels, "" for the empty event."""
        return ",".join(sorted(self.labels_of(mask)))

    def mask_from_key(self, key: str) -> int:
        if key == "":
            return 0
        return self.mask_of(key.split(","))

    def events_by_size(self) -> list[int]:
        """All event masks ordered by cardinality, ties by mask value."""
        return sorted(range(self.size), key=lambda m: (m.bit_count(), m))


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus an optional witness of failure.

    Truthiness follows ``ok`` so results drop into plain conditionals.
    """

    ok: bool
    witness: tuple | int | None = None

    def __bool__(self) -> bool:
        return self.ok


def event_mass_table(mass: Sequence, n: int) -> list:
    """Per-event sums of a per-outcome vector, indexed by mask.

    Additions run in ascending outcome order so the float result is
    bit-identical to a direct ascending-index sum.
    """
    table = [0]
    for i in range(n):
        # masks with highest bit i: the lower masks plus outcome i, added last
        table += [t + mass[i] for t in table]
    return table


@dataclass(frozen=True)
class ProbabilityVector:
    """A point of the probability simplex over an outcome space."""

    space: OutcomeSpace
    mass: tuple

    def __post_init__(self):
        object.__setattr__(self, "mass", tuple(self.mass))
        if len(self.mass) != self.space.n:
            raise ValueError(f"expected {self.space.n} weights, got {len(self.mass)}")
        exact = all_exact(self.mass)
        total = 0
        for w in self.mass:
            if not exact_number(w) and not math.isfinite(w):
                raise ValueError("weights must be finite")
            if w < 0:
                raise ValueError(f"negative weight {w!r}")
            total += w
        if exact:
            if total != 1:
                raise ValueError(f"weights sum to {total}, expected exactly 1")
        elif abs(total - 1) > STRUCT_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1 within {STRUCT_TOL}")

    def mass_table(self) -> list:
        return event_mass_table(self.mass, self.space.n)


def uniform_vector(space: OutcomeSpace, exact: bool = False) -> ProbabilityVector:
    if exact:
        return ProbabilityVector(space, (Fraction(1, space.n),) * space.n)
    return ProbabilityVector(space, (1.0 / space.n,) * space.n)


@dataclass(frozen=True)
class Capacity:
    """A normalized monotone set function: 0 at the empty event, 1 at the
    full event, and nondecreasing along inclusion.

    Construction validates the invariants (pass ``check=False`` only for
    values that are monotone by construction). Conjugation partners are
    cached so that double conjugation returns the original object.
    """

    space: OutcomeSpace
    values: tuple
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.space.size:
            raise ValueError(
                f"expected {self.space.size} event values, got {len(self.values)}"
            )
        object.__setattr__(self, "_exact", all_exact(self.values))
        object.__setattr__(self, "_conjugate", None)
        object.__setattr__(self, "_two_alternating", None)
        if check:
            self._validate()

    @property
    def exact(self) -> bool:
        return self._exact

    def __getitem__(self, mask: int):
        return self.values[mask]

    def _validate(self) -> None:
        tol = struct_tol(self.exact)
        v = self.values
        if not self.exact:
            for x in v:
                if not exact_number(x) and not math.isfinite(x):
                    raise NotNormalized("event values must be finite numbers")
        if abs(v[0]) > tol:
            raise NotNormalized(f"value at the empty event is {v[0]!r}, expected 0")
        # Covers imply the full inclusion order, so checking A vs A+{x}
        # suffices and costs O(n 2^n) instead of O(4^n). Monotonicity is
        # checked before top normalization so a decreasing pair wins the
        # rejection even when the full event is also off.
        witness = _monotone_witness(v, self.space.n, tol)
        if witness is not None:
            a, b = witness
            raise NotMonotone(
                f"value decreases from {self.space.event_key(a)!r} ({v[a]!r}) "
                f"to {self.space.event_key(b)!r} ({v[b]!r})",
                witness=witness,
            )
        full = self.space.full_mask
        if abs(v[full] - 1) > tol:
            raise NotNormalized(f"value at the full event is {v[full]!r}, expected 1")


def _monotone_witness(values: tuple, n: int, tol) -> tuple[int, int] | None:
    for m in range(1 << n):
        vm = values[m]
        for i in range(n):
            bit = 1 << i
            if not m & bit and vm > values[m | bit] + tol:
                return (m, m | bit)
    return None


def validate(values: Mapping, space: OutcomeSpace) -> Capacity:
    """Build a validated capacity from a mapping of every event mask to its value.

    Raises :class:`NotNormalized` or :class:`NotMonotone` (with a witness
    pair) on the first violated constraint.
    """
    if set(values) != set(range(space.size)):
        raise ValueError(f"expected one value per event mask 0..{space.size - 1}")
    return Capacity(space, tuple(values[m] for m in range(space.size)))


def conjugate(c: Capacity) -> Capacity:
    """The conjugate set function, ``A -> 1 - c(complement of A)``.

    Monotone and normalized whenever ``c`` is, so no re-validation.
    Partners are cached: ``conjugate(conjugate(c)) is c``, which makes the
    involution exact even in float mode.
    """
    if c._conjugate is not None:
        return c._conjugate
    full = c.space.full_mask
    vals = tuple(1 - c.values[full ^ m] for m in range(c.space.size))
    k = Capacity(c.space, vals, check=False)
    object.__setattr__(k, "_conjugate", c)
    object.__setattr__(c, "_conjugate", k)
    return k


def is_two_alternating(c: Capacity) -> CheckResult:
    """Test concavity: c(A|B) + c(A&B) <= c(A) + c(B) for all events A, B.

    The local form c(A+i) + c(A+j) >= c(A+i+j) + c(A), for outcomes
    i != j outside A, implies the general one, so only those
    O(n^2 2^n) quadruples are compared. Returns the witness pair
    (A+i, A+j) on failure. The verdict is memoised on the capacity.
    """
    if c._two_alternating is not None:
        return c._two_alternating
    result = _two_alternating_result(c, struct_tol(c.exact))
    object.__setattr__(c, "_two_alternating", result)
    return result


def _two_alternating_result(c: Capacity, tol) -> CheckResult:
    n, v = c.space.n, c.values
    for a in range(c.space.size):
        va = v[a]
        free = [1 << i for i in range(n) if not a >> i & 1]
        for k, bi in enumerate(free):
            ai = a | bi
            vi = v[ai]
            for bj in free[k + 1:]:
                if v[ai | bj] + va > vi + v[a | bj] + tol:
                    return CheckResult(False, (ai, a | bj))
    return CheckResult(True)


def epsilon_contamination(p: ProbabilityVector, eps) -> Capacity:
    """Upper envelope of the contamination class around ``p``: every mixture
    ``(1-eps) p + eps r`` over arbitrary ``r``.

    Closed form ``(1-eps) p(A) + eps`` on nonempty events; always concave.
    ``eps=0`` gives the additive capacity of ``p``, ``eps=1`` the vacuous one.
    """
    if not 0 <= eps <= 1:
        raise ValueError(f"contamination weight must lie in [0, 1], got {eps!r}")
    table = p.mass_table()
    one_minus = 1 - eps
    vals = [0] * len(table)
    for m in range(1, len(table)):
        vals[m] = min(one_minus * table[m] + eps, 1)
    vals[-1] = 1
    return Capacity(p.space, vals, check=False)


def distortion_capacity(p: ProbabilityVector, alpha: float) -> Capacity:
    """Concave power distortion ``A -> p(A) ** alpha`` for alpha in (0, 1].

    Exact inputs stay exact only at alpha=1 (the identity); fractional
    exponents force float values.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"distortion exponent must lie in (0, 1], got {alpha!r}")
    if alpha == 1:
        return additive_capacity(p)
    vals = [min(float(x) ** alpha, 1) for x in p.mass_table()]
    vals[0] = 0
    vals[-1] = 1
    return Capacity(p.space, vals, check=False)


def additive_capacity(p: ProbabilityVector) -> Capacity:
    """The additive capacity ``A -> p(A)`` of a single probability vector."""
    return upper_envelope((p,))


def vacuous_capacity(space: OutcomeSpace) -> Capacity:
    """Total ambiguity: 1 on every nonempty event; its core is the whole simplex."""
    vals = [1] * space.size
    vals[0] = 0
    return Capacity(space, vals, check=False)


def upper_envelope(ps: Sequence[ProbabilityVector]) -> Capacity:
    """Event-wise maximum over a family of probability vectors."""
    ps = list(ps)
    if not ps:
        raise EmptyFamily("upper envelope needs at least one probability vector")
    space = ps[0].space
    for p in ps[1:]:
        if p.space != space:
            raise ValueError("all vectors must share one outcome space")
    tables = [p.mass_table() for p in ps]
    vals = [min(max(t[m] for t in tables), 1) for m in range(space.size)]
    vals[0] = 0
    vals[-1] = 1
    return Capacity(space, vals, check=False)
