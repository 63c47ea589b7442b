"""Model files: every JSON form the package reads or writes.

A model carries the outcome space, a prior capacity in any supported
form, a likelihood set (band or family) and the events of interest:

    {
      "version": 1,
      "outcomes": ["a", "b", "c"],
      "prior": {"kind": "eps-contamination", "p": [...], "eps": 0.1},
      "likelihood": {"band": {"lower": [...], "upper": [...]}},
      "events": [["a"], ["a", "b"]],        // or "all"
      "options": {"exact": false}
    }

Prior forms, each with an optional "outcomes" that must repeat the
model's:

    {"kind": "explicit", "values": {"": 0, "a": 0.4, ...}}
    {"kind": "eps-contamination", "p": [...], "eps": x}
    {"kind": "distortion", "p": [...], "alpha": x}
    {"kind": "envelope", "vertices": [[...], ...]}

Keys in "values" are comma-joined sorted outcome labels, "" for the empty
event; a missing "kind" means explicit. The observations file of
``iterate`` is ``{"version": 1, "observations": [<likelihood>, ...]}``.

Validation failures name the JSON path of the offending field.
``exact`` is the one option; any other key of "options" is refused at its
path, since the tolerances follow the arithmetic mode. Numbers
follow ``options.exact``: exact mode reads floats at their decimal face
value and rational literals like "4/7" as fractions; float mode reads
literals as the nearest binary float. Integers are read as integers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from ._numeric import encode_number
from .bayes import LikelihoodSet, PosteriorQuery
from .capacity import (
    Capacity,
    OutcomeSpace,
    ProbabilityVector,
    distortion_capacity,
    epsilon_contamination,
    upper_envelope,
    validate,
)
from .choquet import Functional
from .errors import CredalBayesError, ModelError


@dataclass(frozen=True)
class ModelFile:
    space: OutcomeSpace
    prior: Capacity
    likelihoods: LikelihoodSet
    events: list[int] | str  # masks, or "all"
    exact: bool = False

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


def _check_version(obj) -> None:
    """Both file kinds are a JSON object with ``"version": 1``."""
    _expect(obj, "$", dict, "a JSON object")
    if type(obj.get("version")) is not int or obj["version"] != 1:
        _fail("$.version", "missing or unsupported version (expected 1)")


def parse_model(obj: dict) -> ModelFile:
    _check_version(obj)
    raw_opts = _expect(obj.get("options", {}), "$.options", dict, "an object")
    for key in raw_opts:
        if key != "exact":
            _fail(f"$.options.{key}", 'unknown option (the only one is "exact")')
    exact = raw_opts.get("exact", False)
    if not isinstance(exact, bool):
        _fail("$.options.exact", "expected true or false")

    labels = _expect(obj.get("outcomes"), "$.outcomes", list, "a list of labels")
    try:
        space = OutcomeSpace(tuple(labels))
    except (ValueError, TypeError) as ex:
        _fail("$.outcomes", str(ex))

    prior = _parse_prior(obj.get("prior"), space, exact)
    likelihoods = _parse_likelihood(obj.get("likelihood"), space, exact)

    events = obj.get("events", "all")
    if events != "all":
        _expect(events, "$.events", list, 'a list of label lists or "all"')
        masks = []
        for i, entry in enumerate(events):
            _expect(entry, f"$.events[{i}]", list, "a list of outcome labels")
            try:
                masks.append(space.mask_of(entry))
            except (ValueError, TypeError) as ex:
                _fail(f"$.events[{i}]", str(ex))
        events = masks

    return ModelFile(space, prior, likelihoods, events, exact)


def _parse_prior(obj, space: OutcomeSpace, exact: bool) -> Capacity:
    path = "$.prior"
    _expect(obj, path, dict, "a capacity object")
    if "outcomes" in obj and obj["outcomes"] != list(space.labels):
        _fail(f"{path}.outcomes", "must match $.outcomes")
    kind = obj.get("kind", "explicit")
    if kind == "explicit":
        raw = _expect(obj.get("values"), f"{path}.values", dict, "an object of event values")
        vals: dict[int, object] = {}
        for key, v in raw.items():
            key_path = f"{path}.values[{json.dumps(key)}]"
            try:
                mask = space.mask_from_key(key)
            except ValueError as ex:
                _fail(key_path, str(ex))
            if mask in vals:
                _fail(key_path, "duplicate event")
            vals[mask] = _number(v, key_path, exact)
        try:
            return validate(vals, space)
        except (ValueError, CredalBayesError) as ex:
            _fail(f"{path}.values", str(ex))
    if kind in ("eps-contamination", "distortion"):
        p = _vector(obj.get("p"), f"{path}.p", space, exact, ProbabilityVector)
        name = "eps" if kind == "eps-contamination" else "alpha"
        x = _number(obj.get(name), f"{path}.{name}", exact)
        try:
            if kind == "eps-contamination":
                return epsilon_contamination(p, x)
            return distortion_capacity(p, float(x) if x != 1 else x)
        except ValueError as ex:
            _fail(f"{path}.{name}", str(ex))
    if kind == "envelope":
        raw = _expect(obj.get("vertices"), f"{path}.vertices", list, "a list of vectors")
        if not raw:
            _fail(f"{path}.vertices", "needs at least one vector")
        return upper_envelope([
            _vector(r, f"{path}.vertices[{i}]", space, exact, ProbabilityVector)
            for i, r in enumerate(raw)
        ])
    _fail(f"{path}.kind", f"unknown capacity kind {kind!r}")


def _parse_likelihood(
    obj, space: OutcomeSpace, exact: bool, path: str = "$.likelihood"
) -> LikelihoodSet:
    _expect(obj, path, dict, 'an object with "band" or "family"')
    if ("band" in obj) == ("family" in obj):
        _fail(path, 'needs exactly one of "band" or "family"')
    if "band" in obj:
        band = _expect(obj["band"], f"{path}.band", dict, "an object")
        lo = _vector(band.get("lower"), f"{path}.band.lower", space, exact)
        hi = _vector(band.get("upper"), f"{path}.band.upper", space, exact)
        try:
            return LikelihoodSet.band(lo, hi)
        except ValueError as ex:
            _fail(f"{path}.band", str(ex))
    members = _expect(obj["family"], f"{path}.family", list, "a list of vectors")
    if not members:
        _fail(f"{path}.family", "needs at least one member")
    parsed = [
        _vector(m, f"{path}.family[{i}]", space, exact)
        for i, m in enumerate(members)
    ]
    return LikelihoodSet.family(parsed)


def _vector(raw, path: str, space: OutcomeSpace, exact: bool, cls=Functional):
    """A ``Functional`` or ``ProbabilityVector`` from a list of n numbers."""
    _expect(raw, path, list, f"a list of {space.n} numbers")
    if len(raw) != space.n:
        _fail(path, f"expected {space.n} values, got {len(raw)}")
    vals = tuple(_number(v, f"{path}[{i}]", exact) for i, v in enumerate(raw))
    try:
        return cls(space, vals)
    except ValueError as ex:
        _fail(path, str(ex))


def _number(raw, path: str, exact: bool):
    """A JSON number or rational literal ("4/7", "0.1") in the model's
    arithmetic mode. Exact mode reads a float through its decimal
    rendering, so 0.1 means one tenth, not its binary neighbour; float
    mode reads a literal as the nearest float. Integers stay integers in
    both, so a dumped capacity's exact 0 and 1 replay as they were."""
    if isinstance(raw, str):
        try:
            x = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            _fail(path, f"not a rational literal: {raw!r}")
    elif isinstance(raw, (int, float)) and not isinstance(raw, bool):
        x = raw
    else:
        _fail(path, f"not a number: {raw!r}")
    if isinstance(x, float) and not math.isfinite(x):
        _fail(path, f"not a finite number: {raw!r}")
    if exact:
        return Fraction(Decimal(repr(x))) if isinstance(x, float) else x
    try:
        y = float(x)
    except OverflowError:
        _fail(path, f"not a finite number: {raw!r}")
    return x if isinstance(x, int) else y


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
    """Read an observations file into one likelihood set per step;
    failures name the JSON path."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise ModelError("$", f"cannot read observations: {ex}") from ex
    _check_version(obj)
    _expect(obj.get("observations"), "$.observations", list, "an object with an observations list")
    return [
        _parse_likelihood(entry, space, exact, path=f"$.observations[{i}]")
        for i, entry in enumerate(obj["observations"])
    ]


def capacity_to_json(c: Capacity) -> dict:
    """The explicit prior form of a capacity, with its outcomes."""
    values = {
        c.space.event_key(m): encode_number(c.values[m]) for m in range(c.space.size)
    }
    return {"outcomes": list(c.space.labels), "kind": "explicit", "values": values}


def query_to_model_json(q: PosteriorQuery) -> dict:
    """A model file reproducing one query, for replay of failures."""
    space, lik = q.space, q.likelihoods
    prior = capacity_to_json(q.prior)
    del prior["outcomes"]
    if lik.form == "band":
        likelihood = {"band": {"lower": _encode(lik.lower), "upper": _encode(lik.upper)}}
    else:
        likelihood = {"family": [_encode(m) for m in lik.members]}
    return {
        "version": 1,
        "outcomes": list(space.labels),
        "prior": prior,
        "likelihood": likelihood,
        "events": [list(space.labels_of(q.event))],
        "options": {"exact": q.exact},
    }


def _encode(f: Functional) -> list:
    return [encode_number(v) for v in f.values]
