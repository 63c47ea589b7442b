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

The vertex bound never exceeds the Choquet bound. Both evaluate the
switch vector e_A of the event: the upper envelope on A and the lower
envelope on its complement (:func:`bang_bang_likelihood`). When the
prior is 2-alternating (concave) and e_A lies in the likelihood set,
both bounds equal the exact posterior upper probability of A. A band
holds every switch vector; a family holds one only as a member. Lower
bounds come from conjugacy: lower(A) = 1 - upper(complement of A),
computed as literally that expression so the identity holds bit for bit.
:func:`bounds_report` is the one place the bounds are computed: it
solves the parts of each event and of its complement once per call.

The posterior capacity sweep runs only where the equality clause holds
for every event: a 2-alternating prior and a set that holds every
switch vector. There the upper and lower Choquet integrals are the sup
and inf over the core, so the sweep takes its values from the Choquet
bound and solves no LP.

Likelihood vectors store the density value at the single observed data
point, one entry per outcome; the sample space itself never appears.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ._numeric import encode_number, quotient, struct_tol
from .capacity import Capacity, OutcomeSpace
from .capacity import is_two_alternating
from .choquet import Functional, choquet_lower, choquet_upper
from .errors import NotTwoAlternating, SwitchVectorMissing, UndefinedRatio
from .optim import inf_expectation, sup_expectation


@dataclass(frozen=True)
class LikelihoodSet:
    """A set of likelihood vectors, as a pointwise band or a finite family.

    Both forms expose pointwise envelopes ``lower`` and ``upper``; the
    bounds depend on the set only through them. Whether a bound is also
    the posterior value depends on the event, through
    :meth:`holds_switch_vector`.
    """

    space: OutcomeSpace
    form: str  # "band" | "family"
    lower: Functional
    upper: Functional
    members: tuple[Functional, ...] | None

    @classmethod
    def band(cls, lower: Functional, upper: Functional) -> "LikelihoodSet":
        if lower.space != upper.space:
            raise ValueError("band envelopes live on different spaces")
        for lo, hi in zip(lower.values, upper.values):
            if lo > hi:
                raise ValueError("band lower envelope exceeds the upper envelope")
        return cls(lower.space, "band", lower, upper, None)

    @classmethod
    def family(cls, members) -> "LikelihoodSet":
        members = tuple(members)
        if not members:
            raise ValueError("a likelihood family needs at least one member")
        space = members[0].space
        for m in members[1:]:
            if m.space != space:
                raise ValueError("family members live on different spaces")
        columns = list(zip(*(m.values for m in members)))
        lower, upper = (Functional(space, tuple(map(f, columns))) for f in (min, max))
        return cls(space, "family", lower, upper, members)

    @classmethod
    def precise(cls, L: Functional) -> "LikelihoodSet":
        """A singleton set: no likelihood ambiguity."""
        return cls.band(L, L)

    @property
    def exact(self) -> bool:
        return self.lower.exact and self.upper.exact

    def holds_switch_vector(self, mask: int) -> bool:
        """Whether the switch vector of ``mask`` lies in the set: always for
        a band, only as a member for a family. The posterior ratio is
        linear-fractional in the likelihood, so over a family's hull it
        peaks at a member, and e_A is pointwise extreme."""
        if self.form == "band":
            return True
        e = bang_bang_likelihood(self, mask).values
        return any(m.values == e for m in self.members)


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

    PROVEN_EQUAL = "ProvenEqual"          # concave prior, e_A and e_{A^c} in the set
    BOUND_ONLY = "BoundOnly"              # upper bound, no oracle comparison
    NUMERICALLY_EQUAL = "NumericallyEqual"  # oracle matched within tolerance
    STRICT_GAP = "StrictGap"              # oracle strictly below a bound


@dataclass(frozen=True)
class PosteriorReport:
    """Per-event results: bounds, conjugate bounds, denominators, diagnosis,
    the achieving witnesses and (when available) the oracle values."""

    space: OutcomeSpace
    event: int
    bound_vertex: object
    bound_choquet: object
    lower_vertex: object
    lower_choquet: object
    c_value: object
    c_prime_value: object
    equality_diagnosis: EqualityDiagnosis
    achieving_prior: tuple
    achieving_likelihood: tuple
    oracle: object = None
    lower_oracle: object = None
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
            "achieving_prior": [enc(v) for v in self.achieving_prior],
            "achieving_likelihood": [enc(v) for v in self.achieving_likelihood],
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
    return quotient(num, den), den


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
    core raises :class:`InfeasibleCore` from the first LP. An event is
    ``ProvenEqual`` when the prior is 2-alternating and the set holds the
    switch vectors of the event and of its complement, the latter for
    the lower bound.
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
    concave = bool(is_two_alternating(prior))
    reports = []
    for mask in masks:
        comp = space.complement(mask)
        (uv, c_val, argmax), (uc, c_prime) = parts[mask]
        (uv_c, _, _), (uc_c, _) = parts[comp]
        proven = concave and all(map(likelihoods.holds_switch_vector, (mask, comp)))
        diagnosis = (
            EqualityDiagnosis.PROVEN_EQUAL if proven else EqualityDiagnosis.BOUND_ONLY
        )
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
    bounds: the prior must be 2-alternating and the likelihood set must
    hold every switch vector. There the Choquet integrals equal the sup
    and inf over the core, so each value comes from :func:`choquet_upper`
    and :func:`choquet_lower` and no LP runs. A 2-alternating capacity's
    core holds its marginal vectors (Shapley 1971), so it is never empty.
    The capacity's own validation is the one monotonicity check.
    """
    verdict = is_two_alternating(prior)
    if not verdict:
        raise NotTwoAlternating(
            "posterior capacity values are exact only for 2-alternating priors",
            witness=verdict.witness,
        )
    space = prior.space
    for mask in range(space.size):
        if not likelihoods.holds_switch_vector(mask):
            raise SwitchVectorMissing(
                f"the likelihood family lacks the switch vector of event "
                f"{space.event_key(mask)!r}, so the sweep would emit bounds"
            )
    inner = [_choquet_parts(prior, likelihoods, m)[0] for m in range(1, space.full_mask)]
    return Capacity(space, (0, *inner, 1))
