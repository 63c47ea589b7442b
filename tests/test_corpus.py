"""Replay of saved campaign instances.

Each ``tests/corpus/<name>.json`` is a model file written by
``model.query_to_model_json``, the function that dumps a failing
campaign instance for replay. ``<name>.expected`` holds the campaign's
record of that instance without its ``instance`` index, so replaying
the file must reproduce the campaign's verdict field for field.

The two ``arbitrary-*`` files are instance 27 of ``verify --random 28
--seed 180517615 --family arbitrary`` and instance 11 of ``verify
--random 12 --seed 2027325178 --family arbitrary``, whose float oracle
once reported false chain violations.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from credal_bayes import cli

CORPUS = Path(__file__).resolve().parent / "corpus"


@pytest.mark.parametrize("model", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem)
def test_replay_matches_the_campaign_record(model):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", str(model), "--json"])
    assert code == 0
    record = json.loads(out.getvalue().splitlines()[0])
    assert record == json.loads(model.with_suffix(".expected").read_text(encoding="utf-8"))
