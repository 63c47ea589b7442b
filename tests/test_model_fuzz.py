"""Malformed model and observations files are rejected with a JSON path.

Each fuzz example takes a valid document, then either replaces one node,
at any depth, with a value of another JSON type, or drops one key.
Parsing the result may succeed (a dropped key can have a default) or
raise ``ModelError`` whose path starts at the root; any other exception
is a hole that would reach the user as a traceback. A fixed corpus pins
the exact path of known rejections, so they run on every pass and not
only on the draws that happen to reach them.
"""

import copy
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from credal_bayes import OutcomeSpace, parse_model
from credal_bayes.errors import ModelError
from credal_bayes.model import load_observations

LABELS = ["a", "b", "c"]
BAND = {"band": {"lower": [0.5, 0.3, 0.2], "upper": [0.6, 0.3, "1/4"]}}
FAMILY = {"family": [[0.5, 0.3, 0.2], [0.1, "1/2", 0.2]]}


def _model(prior, likelihood=BAND, exact=False):
    return {
        "version": 1,
        "outcomes": LABELS,
        "prior": prior,
        "likelihood": likelihood,
        "events": [["a"], ["a", "c"]],
        "options": {"exact": exact},
    }


MODELS = [
    _model({"kind": "eps-contamination", "p": [0.5, 0.3, "1/5"], "eps": 0.1}),
    _model({"kind": "distortion", "p": [0.5, 0.3, 0.2], "alpha": "1/2"}, FAMILY),
    _model({"kind": "envelope", "vertices": [[1, 0, 0], [0.2, 0.3, 0.5]]}),
    _model(
        {
            "outcomes": LABELS,
            "kind": "explicit",
            "values": {"": 0, "a": 0.5, "b": 0.4, "c": 0.3, "a,b": 0.8,
                       "a,c": 0.7, "b,c": 0.6, "a,b,c": 1},
        },
        FAMILY,
    ),
    _model({"kind": "eps-contamination", "p": ["1/2", 0.3, "1/5"], "eps": "1/10"}, exact=True),
]
OBSERVATIONS = {"version": 1, "observations": [BAND, FAMILY]}

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _json_type(v) -> str:
    if isinstance(v, bool):
        return "boolean"
    if isinstance(v, (int, float)):
        return "number"
    return type(v).__name__


def _paths(node, path=()):
    """The key path of every node under ``node``, itself included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def mutants(draw, docs):
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(VALUES.filter(lambda v: _json_type(v) != _json_type(old)))
    return doc


@settings(max_examples=300, deadline=None)
@given(mutants(MODELS))
def test_parse_model_rejects_only_with_a_path(doc):
    try:
        parse_model(doc)
    except ModelError as ex:
        assert ex.path.startswith("$")


def _observations(doc, tmp_path):
    path = os.path.join(tmp_path, "obs.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return load_observations(path, OutcomeSpace(tuple(LABELS)), exact=False)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutants([OBSERVATIONS]))
def test_load_observations_rejects_only_with_a_path(tmp_path, doc):
    try:
        _observations(doc, tmp_path)
    except ModelError as ex:
        assert ex.path.startswith("$")


def test_unmutated_documents_are_valid(tmp_path):
    for doc in MODELS:
        parse_model(doc)
    assert len(_observations(OBSERVATIONS, tmp_path)) == 2


CONTAMINATION = {"kind": "eps-contamination", "p": [0.5, 0.3, 0.2], "eps": 0.1}
REJECTED = {
    "observations-version-7": ("observations", {"version": 7, "observations": [BAND]}, "$.version"),
    "observations-no-version": ("observations", {"observations": [BAND]}, "$.version"),
    "observations-not-an-object": ("observations", [BAND], "$"),
    "observations-version-true": ("observations", {"version": True, "observations": [BAND]}, "$.version"),
    "observations-version-1.0": ("observations", {"version": 1.0, "observations": [BAND]}, "$.version"),
    "model-version-true": ("model", {**_model(CONTAMINATION), "version": True}, "$.version"),
    "model-version-1.0": ("model", {**_model(CONTAMINATION), "version": 1.0}, "$.version"),
    "exact-not-a-boolean": ("model", _model(CONTAMINATION, exact="yes"), "$.options.exact"),
    "band-and-family": ("model", _model(CONTAMINATION, {**BAND, **FAMILY}), "$.likelihood"),
    "not-a-number": ("model", _model({**CONTAMINATION, "eps": None}), "$.prior.eps"),
    "empty-family": ("model", _model(CONTAMINATION, {"family": []}), "$.likelihood.family"),
    "short-vector": ("model", _model({**CONTAMINATION, "p": [0.5, 0.5]}), "$.prior.p"),
    "empty-envelope": ("model", _model({"kind": "envelope", "vertices": []}), "$.prior.vertices"),
    "duplicate-event": (
        "model",
        _model({"values": {"": 0, "a": 1, "b": 1, "c": 1, "a,b": 1, "b,a": 1, "a,c": 1,
                           "b,c": 1, "a,b,c": 1}}),
        '$.prior.values["b,a"]',
    ),
}


@pytest.mark.parametrize("name", REJECTED)
def test_rejection_corpus_names_the_field(tmp_path, name):
    kind, doc, path = REJECTED[name]
    with pytest.raises(ModelError) as exc:
        parse_model(doc) if kind == "model" else _observations(doc, tmp_path)
    assert exc.value.path == path
