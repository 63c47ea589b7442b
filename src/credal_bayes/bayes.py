"""Posterior upper/lower probability envelopes under a credal prior and a
set of likelihoods.

For an event A, a prior capacity with nonempty core and a likelihood set
with pointwise envelopes ``hi`` and ``lo``, two upper bounds on the
posterior probability of A are computed:

* the vertex bound  N / (N + D) with
  N = sup over the prior core of E[hi * 1_A] and
  D = inf over the prior core of E[lo * 1_{A^c}]  (both by LP), and
* the Choquet bound C / (C + D') with
  C  = upper Choquet integral of hi * 1_A and
  D' = lower Choquet integral of lo * 1_{A^c}.

The vertex bound never exceeds the Choquet bound, and when the prior is
2-alternating (concave) and the envelopes belong to the likelihood set,
both bounds equal the exact posterior upper probability. Lower bounds
come from conjugacy: lower(A) = 1 - upper(complement of A), computed as
literally that expression so the identity holds bit for bit.
:func:`bounds_report` is the one place the bounds are computed: it
solves the parts of each event and of its complement once per call.

The posterior capacity sweep runs only where the equality clause holds,
a 2-alternating prior with member envelopes. There the upper and lower
Choquet integrals are the sup and inf over the core, so the sweep takes
its values from the Choquet bound and solves no LP.

Likelihood vectors store the density value at the single observed data
point, one entry per outcome; the sample space itself never appears.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

from ._numeric import encode_number, opt_tol, struct_tol
from .capacity import Capacity, OutcomeSpace
from .capacity import is_two_alternating
from .choquet import Functional, choquet_lower, choquet_upper, pointwise_max, pointwise_min
from .errors import NotMonotone, NotTwoAlternating, UndefinedRatio
from .optim import inf_expectation, sup_expectation

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LikelihoodSet:
    """A set of likelihood vectors, as a pointwise band or a finite family.

    Both forms expose pointwise envelopes ``lower`` and ``upper``; the
    bounds depend on the set only through them. ``envelopes_are_members``
    records whether the envelopes themselves belong to the set: true by
    construction for bands, checked coordinate by coordinate for
    families. When false, equality of bound and posterior envelope is
    never claimed, only the bound direction.
    """

    space: OutcomeSpace
    form: str  # "band" | "family"
    lower: Functional
    upper: Functional
    members: tuple[Functional, ...] | None
    envelopes_are_members: bool

    @classmethod
    def band(cls, lower: Functional, upper: Functional) -> "LikelihoodSet":
        if lower.space != upper.space:
            raise ValueError("band envelopes live on different spaces")
        for lo, hi in zip(lower.values, upper.values):
            if lo > hi:
                raise ValueError("band lower envelope exceeds the upper envelope")
        return cls(lower.space, "band", lower, upper, None, True)

    @classmethod
    def family(cls, members) -> "LikelihoodSet":
        members = tuple(members)
        if not members:
            raise ValueError("a likelihood family needs at least one member")
        space = members[0].space
        for m in members[1:]:
            if m.space != space:
                raise ValueError("family members live on different spaces")
        hi = pointwise_max(members)
        lo = pointwise_min(members)
        flag = any(m.values == hi.values for m in members) and any(
            m.values == lo.values for m in members
        )
        return cls(space, "family", lo, hi, members, flag)

    @classmethod
    def precise(cls, L: Functional) -> "LikelihoodSet":
        """A singleton set: no likelihood ambiguity."""
        return cls.band(L, L)

    @property
    def exact(self) -> bool:
        return self.lower.exact and self.upper.exact


@dataclass(frozen=True)
class PosteriorQuery:
    """A (prior, likelihood set, event) triple: one instance of a campaign.

    Construction checks the shared space and the event mask.
    """

    prior: Capacity
    likelihoods: LikelihoodSet
    event: int

    def __post_init__(self):
        if self.prior.space != self.likelihoods.space:
            raise ValueError("prior and likelihood set live on different spaces")
        self.prior.space.check_mask(self.event)

    @property
    def space(self) -> OutcomeSpace:
        return self.prior.space

    @property
    def exact(self) -> bool:
        return self.prior.exact and self.likelihoods.exact


class EqualityDiagnosis(str, enum.Enum):
    """How the reported bound relates to the true posterior envelope."""

    PROVEN_EQUAL = "ProvenEqual"          # concave prior, envelopes in the set
    BOUND_ONLY = "BoundOnly"              # upper bound, no oracle comparison
    NUMERICALLY_EQUAL = "NumericallyEqual"  # oracle matched within tolerance
    STRICT_GAP = "StrictGap"              # oracle strictly below a bound


@dataclass(frozen=True)
class PosteriorReport:
    """Per-event results: bounds, conjugate bounds, denominators, diagnosis,
    and (when available) the oracle values and achieving witnesses."""

    space: OutcomeSpace
    event: int
    bound_vertex: object
    bound_choquet: object
    lower_vertex: object
    lower_choquet: object
    c_value: object
    c_prime_value: object
    equality_diagnosis: EqualityDiagnosis
    oracle: object = None
    lower_oracle: object = None
    achieving_prior: tuple | None = None
    achieving_likelihood: tuple | None = None
    instance_hash: str | None = None

    def to_json(self) -> dict:
        enc = encode_number
        return {
            "event": self.space.event_key(self.event),
            "upper_vertex": enc(self.bound_vertex),
            "upper_choquet": enc(self.bound_choquet),
            "lower_vertex": enc(self.lower_vertex),
            "lower_choquet": enc(self.lower_choquet),
            "c": enc(self.c_value),
            "c_prime": enc(self.c_prime_value),
            "diagnosis": self.equality_diagnosis.value,
            "oracle": None if self.oracle is None else enc(self.oracle),
            "lower_oracle": None
            if self.lower_oracle is None
            else enc(self.lower_oracle),
            "achieving_prior": None
            if self.achieving_prior is None
            else [enc(v) for v in self.achieving_prior],
            "achieving_likelihood": None
            if self.achieving_likelihood is None
            else [enc(v) for v in self.achieving_likelihood],
            "instance_hash": self.instance_hash,
        }


def _vertex_parts(prior: Capacity, likelihoods: LikelihoodSet, event: int):
    """Numerator bound, denominator and the sup-side optimizer, via LP."""
    space = prior.space
    num_f = likelihoods.upper.restricted(event)
    den_f = likelihoods.lower.restricted(space.complement(event))
    sup = sup_expectation(prior, num_f)
    inf = inf_expectation(prior, den_f)
    denom = sup.value + inf.value
    if denom <= struct_tol(prior.exact and likelihoods.exact):
        raise UndefinedRatio(
            f"denominator vanished for event {space.event_key(event)!r}",
            event=event,
        )
    return sup.value / denom, denom, sup.argmax


def _choquet_parts(prior: Capacity, likelihoods: LikelihoodSet, event: int):
    space = prior.space
    num = choquet_upper(prior, likelihoods.upper.restricted(event))
    den = num + choquet_lower(prior, likelihoods.lower.restricted(space.complement(event)))
    if den <= struct_tol(prior.exact and likelihoods.exact):
        raise UndefinedRatio(
            f"denominator vanished for event {space.event_key(event)!r}",
            event=event,
        )
    return num / den, den


def bang_bang_likelihood(likelihoods: LikelihoodSet, mask: int) -> Functional:
    """Upper envelope on ``mask``, lower envelope elsewhere.

    With ``mask`` the event, this is the likelihood the upper bound
    effectively evaluates.
    """
    space = likelihoods.space
    vals = tuple(
        likelihoods.upper.values[i] if mask >> i & 1 else likelihoods.lower.values[i]
        for i in range(space.n)
    )
    return Functional(space, vals)


def bounds_report(
    prior: Capacity, likelihoods: LikelihoodSet, masks
) -> list[PosteriorReport]:
    """One report per mask: both upper bounds, both conjugate lower bounds
    and the diagnosis available without an oracle run.

    The vertex and Choquet parts of each mask and of its complement are
    computed once per call and shared between the reports that need them,
    so a sweep over all 2**n events solves each LP once. An empty prior
    core raises :class:`InfeasibleCore` from the first LP.
    """
    space = prior.space
    if space != likelihoods.space:
        raise ValueError("prior and likelihood set live on different spaces")
    masks = list(masks)
    parts: dict[int, tuple] = {}
    for mask in masks:
        space.check_mask(mask)
        for m in (mask, space.complement(mask)):
            if m not in parts:
                parts[m] = (
                    _vertex_parts(prior, likelihoods, m),
                    _choquet_parts(prior, likelihoods, m),
                )
    proven = bool(is_two_alternating(prior)) and likelihoods.envelopes_are_members
    diagnosis = (
        EqualityDiagnosis.PROVEN_EQUAL if proven else EqualityDiagnosis.BOUND_ONLY
    )
    reports = []
    for mask in masks:
        (uv, c_val, argmax), (uc, c_prime) = parts[mask]
        (uv_c, _, _), (uc_c, _) = parts[space.complement(mask)]
        reports.append(
            PosteriorReport(
                space=space,
                event=mask,
                bound_vertex=uv,
                bound_choquet=uc,
                lower_vertex=1 - uv_c,
                lower_choquet=1 - uc_c,
                c_value=c_val,
                c_prime_value=c_prime,
                equality_diagnosis=diagnosis,
                achieving_prior=argmax.mass,
                achieving_likelihood=bang_bang_likelihood(likelihoods, mask).values,
            )
        )
    return reports


def posterior_capacity(prior: Capacity, likelihoods: LikelihoodSet) -> Capacity:
    """The posterior upper probability as a full capacity over all events.

    Only emitted when the values are exact posteriors rather than mere
    bounds: the prior must be 2-alternating and the likelihood envelopes
    must belong to the set. There the Choquet integrals equal the sup and
    inf over the core, so each value comes from :func:`choquet_upper` and
    :func:`choquet_lower` and no LP runs. A 2-alternating capacity's core
    holds its marginal vectors (Shapley 1971), so it is never empty.
    Events are swept in subset-size order; monotonicity noise up to 1e-9
    is clamped with a logged warning and anything larger aborts.
    """
    verdict = is_two_alternating(prior)
    if not verdict:
        raise NotTwoAlternating(
            "posterior capacity values are exact only for 2-alternating priors",
            witness=verdict.witness,
        )
    if not likelihoods.envelopes_are_members:
        raise ValueError(
            "likelihood envelopes are not members of the set; "
            "the sweep would emit bounds, not posterior values"
        )
    space = prior.space
    full = space.full_mask
    values: list = [None] * space.size
    values[0] = 0
    values[full] = 1
    clamp = opt_tol(prior.exact and likelihoods.exact)
    for mask in space.events_by_size():
        if mask == 0 or mask == full:
            continue
        v, _ = _choquet_parts(prior, likelihoods, mask)
        v = min(v, 1)
        floor = max(
            (values[mask ^ (1 << i)] for i in range(space.n) if mask >> i & 1),
            default=0,
        )
        if v < floor:
            if floor - v > clamp:
                raise NotMonotone(
                    f"posterior sweep lost monotonicity by {float(floor - v):.3e} "
                    f"at event {space.event_key(mask)!r}",
                    witness=(mask ^ (mask & -mask), mask),
                )
            log.warning(
                "clamped posterior value at %r up by %.3e",
                space.event_key(mask),
                float(floor - v),
            )
            v = floor
        values[mask] = v
    return Capacity(space, tuple(values))
