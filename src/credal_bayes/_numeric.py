"""Helpers shared by the two arithmetic modes (binary floats and exact rationals)."""

from __future__ import annotations

from fractions import Fraction

# Structural checks: normalization, monotonicity, vertex deduplication,
# and the floor at or below which a posterior denominator is undefined.
STRUCT_TOL = 1e-12
# Optimization comparisons: LP vs Choquet agreement, chain slack and LP
# optimizer sums.
OPT_TOL = 1e-9


def exact_number(x) -> bool:
    """True when x carries no rounding (int or Fraction; bool excluded)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def all_exact(xs) -> bool:
    return all(exact_number(x) for x in xs)


def struct_tol(exact: bool):
    return 0 if exact else STRUCT_TOL


def opt_tol(exact: bool):
    return 0 if exact else OPT_TOL


def quotient(a, b):
    """``a / b``, but a Fraction when both are ints, whose ``/`` is a float.
    Floats pay one type test; the oracle divides per (vertex, likelihood)."""
    return Fraction(a, b) if type(a) is int and type(b) is int else a / b


def to_fraction(x) -> Fraction:
    """Exact conversion; floats map to their binary rational value."""
    return x if isinstance(x, Fraction) else Fraction(x)


def encode_number(x):
    """Encode a value for JSON: exact rationals as "p/q" strings, floats as-is."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x
