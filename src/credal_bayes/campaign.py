"""Randomized verification campaigns.

Generators draw priors from three families (contamination, distortion,
arbitrary monotone with nonempty core), band likelihoods bounded away
from zero so every ratio is defined, and a random nonempty event. All
randomness flows through one seeded ``random.Random``, so a fixed seed
replays byte-identical campaigns.

Exact-rational campaigns draw contamination priors (their closed form is
rational); power distortions of rationals are irrational, so the
distortion family is float-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .bayes import LikelihoodSet, PosteriorQuery
from .capacity import (
    Capacity,
    OutcomeSpace,
    ProbabilityVector,
    epsilon_contamination,
    distortion_capacity,
    upper_envelope,
)
from .choquet import Functional
from .errors import ChainViolation
from .model import query_to_model_json
from .oracle import verify_theorem

FAMILIES = ("contamination", "distortion", "arbitrary")


def _labels(n: int) -> tuple[str, ...]:
    return tuple(f"w{i + 1}" for i in range(n))


def random_probability_vector(rng: Random, space: OutcomeSpace, exact: bool = False) -> ProbabilityVector:
    """Strictly positive random point of the simplex."""
    if exact:
        nums = [rng.randint(1, 40) for _ in range(space.n)]
        total = sum(nums)
        return ProbabilityVector(space, tuple(Fraction(a, total) for a in nums))
    raw = [rng.uniform(0.05, 1.0) for _ in range(space.n)]
    total = sum(raw)
    return ProbabilityVector(space, tuple(v / total for v in raw))


def random_contamination(rng: Random, space: OutcomeSpace, exact: bool = False) -> Capacity:
    p = random_probability_vector(rng, space, exact)
    eps = Fraction(rng.randint(0, 32), 32) if exact else rng.uniform(0.0, 1.0)
    return epsilon_contamination(p, eps)


def random_distortion(rng: Random, space: OutcomeSpace) -> Capacity:
    p = random_probability_vector(rng, space)
    return distortion_capacity(p, rng.uniform(0.2, 1.0))


def random_monotone_capacity(rng: Random, space: OutcomeSpace, exact: bool = False) -> Capacity:
    """Arbitrary monotone capacity with a nonempty core.

    Starts from the envelope of two random vectors (both stay in the
    core), bumps proper events upward by random noise, then restores
    monotonicity by cover closure. Usually not 2-alternating for n >= 3.
    """
    vecs = [random_probability_vector(rng, space, exact) for _ in range(2)]
    base = upper_envelope(vecs)
    vals = list(base.values)
    for m in range(1, space.size - 1):
        bump = Fraction(rng.randint(0, 12), 48) if exact else rng.uniform(0.0, 0.25)
        vals[m] = min(1, vals[m] + bump)
    for m in sorted(range(space.size), key=lambda x: x.bit_count()):
        for i in range(space.n):
            if m >> i & 1:
                below = vals[m ^ (1 << i)]
                if below > vals[m]:
                    vals[m] = below
    return Capacity(space, tuple(vals))


def random_prior(rng: Random, space: OutcomeSpace, family: str, exact: bool = False) -> Capacity:
    if family == "contamination":
        return random_contamination(rng, space, exact)
    if family == "distortion":
        if exact:
            raise ValueError("the distortion family is float-only; use contamination")
        return random_distortion(rng, space)
    if family == "arbitrary":
        return random_monotone_capacity(rng, space, exact)
    raise ValueError(f"unknown prior family {family!r}; pick one of {FAMILIES}")


def random_band(rng: Random, space: OutcomeSpace, exact: bool = False) -> LikelihoodSet:
    """Pointwise likelihood band bounded away from zero."""
    lo, hi = [], []
    for _ in range(space.n):
        if exact:
            a = Fraction(rng.randint(2, 32), 32)
            b = a + Fraction(rng.randint(0, 16), 32)
        else:
            a = rng.uniform(0.05, 1.0)
            b = a + rng.uniform(0.0, 0.5)
        lo.append(a)
        hi.append(b)
    return LikelihoodSet.band(Functional(space, tuple(lo)), Functional(space, tuple(hi)))


def random_event(rng: Random, space: OutcomeSpace) -> int:
    return rng.randint(1, space.full_mask)


def random_query(rng: Random, family: str, exact: bool = False, max_n: int = 6) -> PosteriorQuery:
    low = 3 if family == "arbitrary" else 2  # two-outcome capacities are always concave
    n = rng.randint(low, max_n)
    space = OutcomeSpace(_labels(n))
    prior = random_prior(rng, space, family, exact)
    band = random_band(rng, space, exact)
    return PosteriorQuery(prior, band, random_event(rng, space))


@dataclass
class CampaignSummary:
    """Aggregates of one verification campaign."""

    count: int
    seed: int
    family: str
    exact: bool
    diagnosis_counts: dict = field(default_factory=dict)
    max_abs_gap_oracle_vertex: float = 0.0
    max_abs_gap_oracle_choquet: float = 0.0
    max_gap_oracle_vertex: float = 0.0
    max_gap_vertex_choquet: float = 0.0

    def to_json(self) -> dict:
        # A violation raises, so a summary that exists reports none.
        return {
            "count": self.count,
            "seed": self.seed,
            "family": self.family,
            "exact": self.exact,
            "diagnosis_counts": dict(sorted(self.diagnosis_counts.items())),
            "max_abs_gap_oracle_vertex": self.max_abs_gap_oracle_vertex,
            "max_abs_gap_oracle_choquet": self.max_abs_gap_oracle_choquet,
            "max_gap_oracle_vertex": self.max_gap_oracle_vertex,
            "max_gap_vertex_choquet": self.max_gap_vertex_choquet,
            "violations": 0,
            "violation_detail": None,
        }


def run_campaign(
    count: int,
    seed: int,
    family: str,
    exact: bool = False,
    on_record=None,
) -> CampaignSummary:
    """Draw ``count`` random instances, verify each, aggregate.

    ``on_record`` receives one JSON-ready dict per instance (the
    serialized report plus the instance index). Stops at the first chain
    violation and re-raises it with the instance index and a replayable
    model added to its details.
    """
    rng = Random(seed)
    summary = CampaignSummary(count=count, seed=seed, family=family, exact=exact)
    for idx in range(count):
        q = random_query(rng, family, exact)
        try:
            (report,) = verify_theorem(q.prior, q.likelihoods, [q.event])
        except ChainViolation as ex:
            ex.details["instance"] = idx
            ex.details["model"] = query_to_model_json(q)
            raise
        key = report.equality_diagnosis.value
        summary.diagnosis_counts[key] = summary.diagnosis_counts.get(key, 0) + 1
        gap_v = float(report.bound_vertex - report.oracle)
        gap_c = float(report.bound_choquet - report.oracle)
        gap_vc = float(report.bound_choquet - report.bound_vertex)
        summary.max_abs_gap_oracle_vertex = max(
            summary.max_abs_gap_oracle_vertex, abs(gap_v)
        )
        summary.max_abs_gap_oracle_choquet = max(
            summary.max_abs_gap_oracle_choquet, abs(gap_c)
        )
        summary.max_gap_oracle_vertex = max(summary.max_gap_oracle_vertex, gap_v)
        summary.max_gap_vertex_choquet = max(summary.max_gap_vertex_choquet, gap_vc)
        if on_record is not None:
            on_record({"instance": idx, **report.to_json()})
    return summary

