"""Brute-force ground truth for the posterior upper probability.

The oracle never touches the bound computations: it works from core
vertices, precise Bayes ratios and enumeration only.

For a 2-alternating prior the core's extreme points are enumerated
directly and the posterior ratio is maximized over (vertex, extreme
likelihood) pairs; the ratio is linear-fractional in the prior, so its
maximum over the polytope sits at a vertex. For arbitrary monotone
priors the same maximization runs as one linear program per extreme
likelihood: the standard substitution y = p/evidence, t = 1/evidence
turns the ratio into a linear objective over the cutting-plane loop of
:mod:`.optim`, and the optimal basic solution maps back to a core vertex.

Extreme likelihoods are the members of a family, or for a band the
switch vectors equal to the upper envelope on some event B and the lower
envelope elsewhere. The posterior ratio of A increases in the likelihood
on A and decreases on the complement, so B = A always achieves the
maximum; the exhaustive sweep over all B exists to validate exactly that
claim.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

from ._numeric import encode_number, opt_tol
from .bayes import (
    EqualityDiagnosis,
    LikelihoodSet,
    PosteriorQuery,
    PosteriorReport,
    bang_bang_likelihood,
    bounds_report,
)
from .capacity import Capacity, ProbabilityVector, is_two_alternating
from .choquet import Functional
from .credal import core_vertices_two_monotone
from .errors import AllZeroEvidence, ChainViolation, SpaceTooLarge, ZeroEvidence
from .optim import core_lp

MAX_ORACLE_OUTCOMES = 10


@dataclass(frozen=True)
class OracleResult:
    """The brute-force optimum with its achieving pair and a query digest."""

    value: object
    achieving_prior: ProbabilityVector
    achieving_likelihood: Functional
    instance_hash: str


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
    return num / den


def extreme_likelihoods(
    likelihoods: LikelihoodSet, event: int, exhaustive: bool = False
):
    """The candidate maximizers the oracle sweeps."""
    if likelihoods.form == "family":
        return list(likelihoods.members)
    if exhaustive:
        return [
            bang_bang_likelihood(likelihoods, b) for b in range(likelihoods.space.size)
        ]
    return [bang_bang_likelihood(likelihoods, event)]


def query_hash(q: PosteriorQuery) -> str:
    payload = {
        "outcomes": list(q.space.labels),
        "prior": [encode_number(v) for v in q.prior.values],
        "form": q.likelihoods.form,
        "lower": [encode_number(v) for v in q.likelihoods.lower.values],
        "upper": [encode_number(v) for v in q.likelihoods.upper.values],
        "members": None
        if q.likelihoods.members is None
        else [[encode_number(v) for v in m.values] for m in q.likelihoods.members],
        "event": q.event,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def brute_force_upper(q: PosteriorQuery, exhaustive: bool = False) -> OracleResult:
    """Maximize the precise posterior of the event over core points and
    extreme likelihoods; zero-evidence pairs are skipped."""
    if q.space.n > MAX_ORACLE_OUTCOMES:
        raise SpaceTooLarge(
            f"oracle needs n <= {MAX_ORACLE_OUTCOMES}, got {q.space.n}"
        )
    extremes = extreme_likelihoods(q.likelihoods, q.event, exhaustive)
    if is_two_alternating(q.prior):
        best = _max_over_vertices(q, extremes)
    else:
        best = _max_over_lp(q, extremes)
    if best is None:
        raise AllZeroEvidence("every (prior, likelihood) pair had zero evidence")
    value, vertex, extreme = best
    return OracleResult(value, vertex, extreme, query_hash(q))


def _max_over_vertices(q: PosteriorQuery, extremes):
    vertices = core_vertices_two_monotone(q.prior)
    best = None
    for v in vertices:
        for e in extremes:
            try:
                val = precise_posterior(v, e, q.event)
            except ZeroEvidence:
                continue
            if best is None or val > best[0]:
                best = (val, v, e)
    return best


def _max_over_lp(q: PosteriorQuery, extremes):
    best = None
    for e in extremes:
        got = _fractional_lp(q.prior, e, q.event)
        if got is None:
            continue
        val, vertex = got
        if best is None or val > best[0]:
            best = (val, vertex, e)
    return best


def _fractional_lp(prior: Capacity, e: Functional, event: int):
    """Maximize E[e 1_A] / E[e] over the core, skipping zero-evidence points.

    Variables are y (a rescaled prior) and t (the scale): domination rows
    become sum_{i in B} y_i <= c(B) t, the simplex row sum y = t, and the
    evidence normalizes to e . y = 1. Infeasible means no core point has
    positive evidence for this likelihood.
    """
    n = prior.space.n
    exact = prior.exact and e.exact
    a_eq = [[1] * n + [-1], list(e.values) + [0]]
    obj = [e.values[i] if event >> i & 1 else 0 for i in range(n)] + [0]
    sol = core_lp(prior, obj, a_eq, [0, 1], maximize=True, exact=exact, scaled=True)
    if sol.status == "infeasible":
        return None
    if sol.status != "optimal":
        raise ArithmeticError(f"fractional LP reported {sol.status}")
    t = sol.x[n]
    if t <= 0:
        return None
    mass = [v / t if v > 0 else 0 * v for v in sol.x[:n]]
    if not exact:
        total = sum(mass)
        mass = [v / total for v in mass]
    vertex = ProbabilityVector(prior.space, tuple(mass))
    # Report the ratio recomputed at the extracted vertex, not the raw LP
    # objective, so the achieving pair reproduces the value bit for bit.
    return precise_posterior(vertex, e, event), vertex


def verify_theorem(
    q: PosteriorQuery, exhaustive: bool = False, tol=None
) -> PosteriorReport:
    """Full report for one query: oracle values, both bounds on both
    sides, the chain assertion and the equality diagnosis.

    Raises :class:`ChainViolation` when the oracle exceeds a bound or the
    bounds cross; that is always treated as a defect first.
    """
    if tol is None:
        tol = opt_tol(q.exact)
    comp = q.complement()
    res = brute_force_upper(q, exhaustive)
    res_c = brute_force_upper(comp, exhaustive)

    rep, rep_c = bounds_report(q.prior, q.likelihoods, [q.event, comp.event])
    uv, uc = rep.bound_vertex, rep.bound_choquet
    uv_c, uc_c = rep_c.bound_vertex, rep_c.bound_choquet

    details = {
        "event": q.space.event_key(q.event),
        "oracle": float(res.value),
        "bound_vertex": float(uv),
        "bound_choquet": float(uc),
        "oracle_complement": float(res_c.value),
        "bound_vertex_complement": float(uv_c),
        "bound_choquet_complement": float(uc_c),
        "instance_hash": res.instance_hash,
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
                "equality clause failed for a concave prior with member envelopes",
                details,
            )
        diagnosis = EqualityDiagnosis.PROVEN_EQUAL
    elif uv - res.value <= tol and uc - uv <= tol:
        diagnosis = EqualityDiagnosis.NUMERICALLY_EQUAL
    else:
        diagnosis = EqualityDiagnosis.STRICT_GAP

    return replace(
        rep,
        equality_diagnosis=diagnosis,
        oracle=res.value,
        lower_oracle=1 - res_c.value,
        achieving_prior=res.achieving_prior.mass,
        achieving_likelihood=res.achieving_likelihood.values,
        instance_hash=res.instance_hash,
    )
