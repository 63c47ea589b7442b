"""Model files: the JSON input format of the command line front end.

A model carries the outcome space, a prior capacity in any supported
form, a likelihood set (band or family) and the events of interest:

    {
      "version": 1,
      "outcomes": ["a", "b", "c"],
      "prior": {"kind": "eps-contamination", "p": [...], "eps": 0.1},
      "likelihood": {"band": {"lower": [...], "upper": [...]}},
      "events": [["a"], ["a", "b"]],        // or "all"
      "options": {"exact": false, "tol": 1e-9}
    }

Validation failures name the JSON path of the offending field. In exact
mode every number may be a rational literal like "4/7"; plain decimals
are read through their decimal rendering.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field as dataclass_field

from ._numeric import OPT_TOL, encode_number, parse_number
from .bayes import LikelihoodSet
from .capacity import Capacity, OutcomeSpace, capacity_from_json, capacity_to_json
from .choquet import Functional
from .errors import CredalBayesError, ModelError


@dataclass(frozen=True)
class ModelOptions:
    exact: bool = False
    tol: float = OPT_TOL


@dataclass(frozen=True)
class ModelFile:
    space: OutcomeSpace
    prior: Capacity
    likelihoods: LikelihoodSet
    events: list[int] | str  # masks, or "all"
    options: ModelOptions = dataclass_field(default_factory=ModelOptions)

    def event_masks(self, sweep: bool = False) -> list[int]:
        if sweep or self.events == "all":
            return self.space.events_by_size()
        return list(self.events)


def _fail(path: str, message: str):
    raise ModelError(path, message)


def _expect(obj, path: str, typ, what: str):
    if not isinstance(obj, typ):
        _fail(path, f"expected {what}")
    return obj


def parse_model(obj: dict) -> ModelFile:
    _expect(obj, "$", dict, "a JSON object")
    if obj.get("version") != 1:
        _fail("$.version", "missing or unsupported version (expected 1)")

    raw_opts = obj.get("options", {})
    _expect(raw_opts, "$.options", dict, "an object")
    exact = raw_opts.get("exact", False)
    if not isinstance(exact, bool):
        _fail("$.options.exact", "expected true or false")
    tol = raw_opts.get("tol", OPT_TOL)
    if (
        not isinstance(tol, (int, float))
        or isinstance(tol, bool)
        or not 0 <= tol <= sys.float_info.max
    ):
        _fail("$.options.tol", "expected a finite nonnegative number")
    options = ModelOptions(exact=exact, tol=float(tol))

    labels = _expect(obj.get("outcomes"), "$.outcomes", list, "a list of labels")
    try:
        space = OutcomeSpace(tuple(labels))
    except (ValueError, TypeError) as ex:
        _fail("$.outcomes", str(ex))

    raw_prior = _expect(obj.get("prior"), "$.prior", dict, "a capacity object")
    prior_obj = dict(raw_prior)
    prior_obj.setdefault("outcomes", list(space.labels))
    if tuple(prior_obj["outcomes"]) != space.labels:
        _fail("$.prior.outcomes", "must match $.outcomes")
    try:
        prior = capacity_from_json(prior_obj, exact=options.exact)
    except CredalBayesError as ex:
        _fail("$.prior", str(ex))
    except (ValueError, TypeError) as ex:
        _fail("$.prior", str(ex))

    likelihoods = _parse_likelihood(obj.get("likelihood"), space, options.exact)

    events = obj.get("events", "all")
    if events != "all":
        _expect(events, "$.events", list, 'a list of label lists or "all"')
        masks = []
        for i, entry in enumerate(events):
            _expect(entry, f"$.events[{i}]", list, "a list of outcome labels")
            try:
                masks.append(space.mask_of(entry))
            except ValueError as ex:
                _fail(f"$.events[{i}]", str(ex))
        events = masks

    return ModelFile(space, prior, likelihoods, events, options)


def _parse_likelihood(
    obj, space: OutcomeSpace, exact: bool, path: str = "$.likelihood"
) -> LikelihoodSet:
    _expect(obj, path, dict, 'an object with "band" or "family"')
    if ("band" in obj) == ("family" in obj):
        _fail(path, 'needs exactly one of "band" or "family"')
    if "band" in obj:
        band = _expect(obj["band"], f"{path}.band", dict, "an object")
        lo = _parse_vector(band.get("lower"), f"{path}.band.lower", space, exact)
        hi = _parse_vector(band.get("upper"), f"{path}.band.upper", space, exact)
        try:
            return LikelihoodSet.band(lo, hi)
        except ValueError as ex:
            _fail(f"{path}.band", str(ex))
    members = _expect(obj["family"], f"{path}.family", list, "a list of vectors")
    if not members:
        _fail(f"{path}.family", "needs at least one member")
    parsed = [
        _parse_vector(m, f"{path}.family[{i}]", space, exact)
        for i, m in enumerate(members)
    ]
    return LikelihoodSet.family(parsed)


def _parse_vector(raw, path: str, space: OutcomeSpace, exact: bool) -> Functional:
    _expect(raw, path, list, f"a list of {space.n} numbers")
    if len(raw) != space.n:
        _fail(path, f"expected {space.n} values, got {len(raw)}")
    vals = []
    for i, v in enumerate(raw):
        try:
            vals.append(parse_number(v, exact))
        except ValueError as ex:
            _fail(f"{path}[{i}]", str(ex))
    try:
        return Functional(space, tuple(vals))
    except ValueError as ex:
        _fail(path, str(ex))


def load_model(path: str) -> ModelFile:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as ex:
        raise ModelError("$", f"cannot read {path}: {ex}") from ex
    except json.JSONDecodeError as ex:
        raise ModelError("$", f"invalid JSON in {path}: {ex}") from ex
    return parse_model(obj)


def load_observations(path: str, space: OutcomeSpace, exact: bool) -> list[LikelihoodSet]:
    """Read an observations file, ``{"observations": [<likelihood>, ...]}``,
    into one likelihood set per step; failures name the JSON path."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise ModelError("$", f"cannot read observations: {ex}") from ex
    if not isinstance(obj, dict) or not isinstance(obj.get("observations"), list):
        _fail("$.observations", "expected an object with an observations list")
    return [
        _parse_likelihood(entry, space, exact, path=f"$.observations[{i}]")
        for i, entry in enumerate(obj["observations"])
    ]


def likelihood_to_json(likelihoods: LikelihoodSet) -> dict:
    if likelihoods.form == "band":
        return {
            "band": {
                "lower": [encode_number(v) for v in likelihoods.lower.values],
                "upper": [encode_number(v) for v in likelihoods.upper.values],
            }
        }
    return {
        "family": [
            [encode_number(v) for v in m.values] for m in likelihoods.members
        ]
    }


def model_json_from_parts(
    prior: Capacity,
    likelihoods: LikelihoodSet,
    events: list[int],
    exact: bool = False,
) -> dict:
    space = prior.space
    prior_json = capacity_to_json(prior)
    prior_json.pop("outcomes")
    return {
        "version": 1,
        "outcomes": list(space.labels),
        "prior": prior_json,
        "likelihood": likelihood_to_json(likelihoods),
        "events": [list(space.labels_of(m)) for m in events],
        "options": {"exact": exact},
    }
