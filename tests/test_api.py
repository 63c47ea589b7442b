"""The public surface: every exported name has a caller outside the
tests, and every argument guard refuses what it guards against."""

import ast
import re
from pathlib import Path
from random import Random

import pytest

import credal_bayes
from credal_bayes import (
    Capacity,
    Functional,
    LikelihoodSet,
    OutcomeSpace,
    PosteriorQuery,
    ProbabilityVector,
    bounds_report,
    brute_force_upper,
    choquet_upper,
    precise_posterior,
    sup_expectation,
    upper_envelope,
    vacuous_capacity,
)
from credal_bayes.campaign import random_prior
from credal_bayes.errors import NotNormalized

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "credal_bayes"


def _uses_in_src() -> set[str]:
    """Names read by the package's modules, outside the top-level
    definition that binds them; ``__init__`` only re-exports."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(node, "name", None)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.ImportFrom) and sub.module:
                    name = sub.module
                else:
                    continue
                if name != own:
                    used.add(name)
    return used


def test_every_export_is_used_or_documented():
    used = _uses_in_src()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    orphans = [
        name
        for name in credal_bayes.__all__
        if name not in used and not re.search(rf"\b{name}\b", readme)
    ]
    assert orphans == []


SP2 = OutcomeSpace(("a", "b"))
SP3 = OutcomeSpace(("a", "b", "c"))
F2, F3 = Functional(SP2, (1, 1)), Functional(SP3, (1, 1, 1))
P2, P3 = ProbabilityVector(SP2, (0.5, 0.5)), ProbabilityVector(SP3, (1, 0, 0))


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: LikelihoodSet.band(F2, F3), ValueError, "band envelopes live on different spaces"),
        (lambda: LikelihoodSet.family([]), ValueError, "needs at least one member"),
        (lambda: LikelihoodSet.family([F2, F3]), ValueError, "members live on different spaces"),
        (
            lambda: PosteriorQuery(vacuous_capacity(SP2), LikelihoodSet.precise(F3), 1),
            ValueError,
            "prior and likelihood set live on different spaces",
        ),
        (
            lambda: bounds_report(vacuous_capacity(SP2), LikelihoodSet.precise(F3), [1]),
            ValueError,
            "prior and likelihood set live on different spaces",
        ),
        (
            lambda: brute_force_upper(vacuous_capacity(SP2), LikelihoodSet.precise(F3), [1]),
            ValueError,
            "prior and likelihood set live on different spaces",
        ),
        (lambda: precise_posterior(P2, F3, 1), ValueError, "prior and likelihood live on different"),
        (lambda: choquet_upper(vacuous_capacity(SP2), F3), ValueError, "live on different spaces"),
        (lambda: sup_expectation(vacuous_capacity(SP2), F3), ValueError, "live on different spaces"),
        (lambda: upper_envelope([P2, P3]), ValueError, "share one outcome space"),
        (lambda: SP2.check_mask(4), ValueError, "event mask 4 out of range for 2 outcomes"),
        (lambda: ProbabilityVector(SP2, (1,)), ValueError, "expected 2 weights, got 1"),
        (lambda: ProbabilityVector(SP2, (float("nan"), 1.0)), ValueError, "weights must be finite"),
        (lambda: Functional(SP2, (1,)), ValueError, "expected 2 values, got 1"),
        (lambda: Capacity(SP2, (0, 1)), ValueError, "expected 4 event values, got 2"),
        (
            lambda: Capacity(SP2, (0, float("inf"), 0.5, 1)),
            NotNormalized,
            "event values must be finite numbers",
        ),
        (lambda: random_prior(Random(0), SP2, "nope"), ValueError, "unknown prior family 'nope'"),
    ],
    ids=[
        "band-spaces", "empty-family", "family-spaces", "query-spaces", "bounds-spaces",
        "oracle-spaces", "posterior-spaces", "choquet-spaces", "optim-spaces", "envelope-spaces",
        "mask-range", "weights-length", "weights-finite", "functional-length", "capacity-length",
        "capacity-finite", "campaign-family",
    ],
)
def test_argument_guards_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()
