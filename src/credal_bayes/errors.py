"""Exception types raised across the package."""

from __future__ import annotations


class CredalBayesError(Exception):
    """Base class for all library errors."""


class NotNormalized(CredalBayesError):
    """A set function does not assign 0 to the empty event or 1 to the full event."""


class NotMonotone(CredalBayesError):
    """A set function decreases along some inclusion; carries a witness pair."""

    def __init__(self, message: str, witness: tuple[int, int] | None = None):
        super().__init__(message)
        self.witness = witness


class NotTwoAlternating(CredalBayesError):
    """A capacity fails the concavity inequality; carries a witness pair."""

    def __init__(self, message: str, witness: tuple[int, int] | None = None):
        super().__init__(message)
        self.witness = witness


class SpaceTooLarge(CredalBayesError):
    """The outcome space exceeds the cap for the requested operation."""


class EmptyFamily(CredalBayesError):
    """An operation over a family of vectors received no members."""


class InfeasibleCore(CredalBayesError):
    """The capacity dominates no probability vector at all."""


class UndefinedRatio(CredalBayesError):
    """A posterior denominator vanished, so the bound is not defined."""

    def __init__(self, message: str, event: int | None = None):
        super().__init__(message)
        self.event = event


class SwitchVectorMissing(CredalBayesError):
    """A likelihood family lacks an event's switch vector, so the posterior
    sweep would emit bounds, not posterior values."""


class ZeroEvidence(CredalBayesError):
    """A precise Bayes update was requested with zero total evidence."""


class AllZeroEvidence(CredalBayesError):
    """Every (prior vertex, likelihood) pair in a brute-force sweep had zero evidence."""


class SolverError(CredalBayesError, ArithmeticError):
    """The LP solver failed on a program it should solve; a defect, not bad input."""


class ChainViolation(CredalBayesError):
    """The oracle exceeded a bound, or the two bounds crossed; always a defect to investigate."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


class ModelError(CredalBayesError):
    """A model file failed validation; names the offending JSON path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
