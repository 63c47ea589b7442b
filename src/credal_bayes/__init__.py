"""Robust Bayesian updating on finite outcome spaces.

Priors are credal sets given as the core of an upper probability;
likelihood ambiguity enters as a pointwise band or finite family. The
package computes posterior upper/lower probability envelopes two ways
(LP over the core, Choquet integration), exposes an independent
brute-force oracle, and verifies the bound chain and its equality
condition on randomized campaigns.
"""

from .capacity import (
    Capacity,
    CheckResult,
    OutcomeSpace,
    ProbabilityVector,
    additive_capacity,
    conjugate,
    distortion_capacity,
    epsilon_contamination,
    is_two_alternating,
    uniform_vector,
    upper_envelope,
    vacuous_capacity,
    validate,
)
from .choquet import Functional, choquet_lower, choquet_upper
from .credal import core_vertices_two_monotone, is_core_empty
from .optim import ExpectationBound, inf_expectation, sup_expectation
from .bayes import (
    EqualityDiagnosis,
    LikelihoodSet,
    PosteriorQuery,
    PosteriorReport,
    bang_bang_likelihood,
    bounds_report,
    posterior_capacity,
)
from .oracle import (
    OracleResult,
    brute_force_upper,
    precise_posterior,
    verify_theorem,
)
from .campaign import CampaignSummary, run_campaign
from .model import ModelFile, capacity_to_json, load_model, parse_model
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Capacity",
    "CheckResult",
    "OutcomeSpace",
    "ProbabilityVector",
    "additive_capacity",
    "capacity_to_json",
    "conjugate",
    "distortion_capacity",
    "epsilon_contamination",
    "is_two_alternating",
    "uniform_vector",
    "upper_envelope",
    "vacuous_capacity",
    "validate",
    "Functional",
    "choquet_lower",
    "choquet_upper",
    "core_vertices_two_monotone",
    "is_core_empty",
    "ExpectationBound",
    "inf_expectation",
    "sup_expectation",
    "EqualityDiagnosis",
    "LikelihoodSet",
    "PosteriorQuery",
    "PosteriorReport",
    "bounds_report",
    "posterior_capacity",
    "OracleResult",
    "bang_bang_likelihood",
    "brute_force_upper",
    "precise_posterior",
    "verify_theorem",
    "CampaignSummary",
    "run_campaign",
    "ModelFile",
    "load_model",
    "parse_model",
    "errors",
]
