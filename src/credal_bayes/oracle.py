"""Brute-force ground truth for the posterior upper probability.

The oracle never touches the bound computations: it works from core
vertices, precise Bayes ratios and enumeration only.

:func:`brute_force_upper` takes a list of events, like
:func:`.bayes.bounds_report`. For a 2-alternating prior the core's
extreme points are enumerated once per call and the posterior ratio of
each event is maximized over (vertex, extreme likelihood) pairs; the
ratio is linear-fractional in the prior, so its maximum over the
polytope sits at a vertex. For arbitrary monotone priors the same
maximization runs as one linear program per event and extreme
likelihood: the standard substitution y = p/evidence, t = 1/evidence
turns the ratio into a linear objective over the cutting-plane loop of
:mod:`.optim`, and the optimal basic solution maps back to a core vertex.
:func:`verify_theorem` checks a list of events and their complements
with one bounds call, then one oracle call.

Extreme likelihoods are the members of a family, or for a band the
switch vectors equal to the upper envelope on some event B and the lower
envelope elsewhere. The posterior ratio of A increases in the likelihood
on A and decreases on the complement, so B = A always achieves the
maximum; the tests check that claim by passing every switch vector as a
family.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

from ._numeric import encode_number, opt_tol, quotient
from .bayes import (
    EqualityDiagnosis,
    LikelihoodSet,
    PosteriorReport,
    bang_bang_likelihood,
    bounds_report,
)
from .capacity import Capacity, ProbabilityVector, is_two_alternating
from .choquet import Functional
from .credal import core_vertices_two_monotone
from .errors import AllZeroEvidence, ChainViolation, ZeroEvidence
from .optim import _vector_from_solution, core_lp


@dataclass(frozen=True)
class OracleResult:
    """The brute-force optimum with its achieving pair."""

    value: object
    achieving_prior: ProbabilityVector
    achieving_likelihood: Functional


def precise_posterior(p: ProbabilityVector, L: Functional, event: int):
    """Classical single-prior single-likelihood Bayes posterior of an event."""
    if p.space != L.space:
        raise ValueError("prior and likelihood live on different spaces")
    p.space.check_mask(event)
    num = 0
    den = 0
    for i in range(p.space.n):
        w = L.values[i] * p.mass[i]
        den += w
        if event >> i & 1:
            num += w
    if den <= 0:
        raise ZeroEvidence("total evidence is zero; the update is undefined")
    return quotient(num, den)


def extreme_likelihoods(likelihoods: LikelihoodSet, event: int):
    """The candidate maximizers the oracle sweeps."""
    if likelihoods.form == "family":
        return list(likelihoods.members)
    return [bang_bang_likelihood(likelihoods, event)]


def query_hash(prior: Capacity, likelihoods: LikelihoodSet, event: int) -> str:
    payload = {
        "outcomes": list(prior.space.labels),
        "prior": [encode_number(v) for v in prior.values],
        "form": likelihoods.form,
        "lower": [encode_number(v) for v in likelihoods.lower.values],
        "upper": [encode_number(v) for v in likelihoods.upper.values],
        "members": None
        if likelihoods.members is None
        else [[encode_number(v) for v in m.values] for m in likelihoods.members],
        "event": event,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def brute_force_upper(
    prior: Capacity, likelihoods: LikelihoodSet, masks
) -> list[OracleResult]:
    """For each mask, maximize the precise posterior of the event over core
    points and extreme likelihoods; zero-evidence pairs are skipped.

    A 2-alternating prior's core vertices are enumerated once per call
    and shared by every mask; any other prior runs one fractional LP per
    (mask, extreme likelihood).
    """
    space = prior.space
    if space != likelihoods.space:
        raise ValueError("prior and likelihood set live on different spaces")
    vertices = core_vertices_two_monotone(prior) if is_two_alternating(prior) else None
    results = []
    for event in masks:
        space.check_mask(event)
        extremes = extreme_likelihoods(likelihoods, event)
        best = None
        if vertices is not None:
            for v in vertices:
                for e in extremes:
                    try:
                        val = precise_posterior(v, e, event)
                    except ZeroEvidence:
                        continue
                    if best is None or val > best[0]:
                        best = (val, v, e)
        else:
            for e in extremes:
                got = _fractional_lp(prior, e, event)
                if got is not None and (best is None or got[0] > best[0]):
                    best = (*got, e)
        if best is None:
            raise AllZeroEvidence("every (prior, likelihood) pair had zero evidence")
        results.append(OracleResult(*best))
    return results


def _fractional_lp(prior: Capacity, e: Functional, event: int):
    """Maximize E[e 1_A] / E[e] over the core, skipping zero-evidence points.

    Variables are y (a rescaled prior) and t (the scale): domination rows
    become sum_{i in B} y_i <= c(B) t, the simplex row sum y = t, and the
    evidence normalizes to e . y = 1, which with y >= 0 forces
    t >= 1 / max e > 0. Infeasible means no core point has positive
    evidence for this likelihood.
    """
    n = prior.space.n
    a_eq = [[1] * n + [-1], list(e.values) + [0]]
    obj = [e.values[i] if event >> i & 1 else 0 for i in range(n)] + [0]
    sol = core_lp(prior, obj, a_eq, [0, 1], maximize=True, scaled=True)
    if sol.status == "infeasible":
        return None
    t = sol.x[n]
    vertex = _vector_from_solution(prior.space, [v / t for v in sol.x[:n]])
    # Report the ratio recomputed at the extracted vertex, not the raw LP
    # objective, so the achieving pair reproduces the value bit for bit.
    return precise_posterior(vertex, e, event), vertex


def verify_theorem(prior: Capacity, likelihoods: LikelihoodSet, masks) -> list[PosteriorReport]:
    """Full report per mask: oracle values, both bounds on both sides,
    the chain assertion and the equality diagnosis.

    The masks and their complements are checked by one
    :func:`bounds_report` call, whose first LP finds an empty core, and
    then one oracle call. Raises :class:`ChainViolation` at the
    first mask whose oracle exceeds a bound or whose bounds cross; that
    is always treated as a defect first. Every comparison runs at the
    optimization tolerance of the arithmetic mode: 0 in exact mode.
    """
    tol = opt_tol(prior.exact and likelihoods.exact)
    space = prior.space
    masks = list(masks)
    sides = list(dict.fromkeys(s for m in masks for s in (m, space.complement(m))))
    bounds = dict(zip(sides, bounds_report(prior, likelihoods, sides)))
    oracle = dict(zip(sides, brute_force_upper(prior, likelihoods, sides)))

    reports = []
    for event in masks:
        comp = space.complement(event)
        res, res_c = oracle[event], oracle[comp]
        rep, rep_c = bounds[event], bounds[comp]
        uv, uc = rep.bound_vertex, rep.bound_choquet
        uv_c, uc_c = rep_c.bound_vertex, rep_c.bound_choquet
        instance_hash = query_hash(prior, likelihoods, event)

        details = {
            "event": space.event_key(event),
            "oracle": float(res.value),
            "bound_vertex": float(uv),
            "bound_choquet": float(uc),
            "oracle_complement": float(res_c.value),
            "bound_vertex_complement": float(uv_c),
            "bound_choquet_complement": float(uc_c),
            "instance_hash": instance_hash,
        }
        for oracle_val, vertex_val, choquet_val in (
            (res.value, uv, uc),
            (res_c.value, uv_c, uc_c),
        ):
            if oracle_val > vertex_val + tol:
                raise ChainViolation("oracle exceeded the vertex bound", details)
            if vertex_val > choquet_val + tol:
                raise ChainViolation("vertex bound exceeded the Choquet bound", details)

        if rep.equality_diagnosis is EqualityDiagnosis.PROVEN_EQUAL:
            if abs(uv - res.value) > tol or abs(uc - res.value) > tol:
                raise ChainViolation(
                    "equality clause failed for a concave prior whose likelihood "
                    "set holds the switch vectors of the event and its complement",
                    details,
                )
            diagnosis = EqualityDiagnosis.PROVEN_EQUAL
        elif uv - res.value <= tol and uc - uv <= tol:
            diagnosis = EqualityDiagnosis.NUMERICALLY_EQUAL
        else:
            diagnosis = EqualityDiagnosis.STRICT_GAP

        reports.append(
            replace(
                rep,
                equality_diagnosis=diagnosis,
                oracle=res.value,
                lower_oracle=1 - res_c.value,
                achieving_prior=res.achieving_prior.mass,
                achieving_likelihood=res.achieving_likelihood.values,
                instance_hash=instance_hash,
            )
        )
    return reports
