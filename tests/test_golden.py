"""Byte-for-byte golden outputs of the command line front end.

Each file under ``tests/golden/`` holds the stdout of one CLI run. A
refactor that claims unchanged output must leave every one of them
identical, achieving witnesses and tie-breaks included. The
``distortion`` family is left out because it calls libm ``pow``, whose
last bit may differ between platforms.

To regenerate after an intended output change, run each command below
with ``python -m credal_bayes.cli`` from the repository root, writing
stdout to ``tests/golden/<name>.out``.
"""

import contextlib
import io
import os

import pytest

from credal_bayes import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
MODEL = os.path.join(GOLDEN, "exact_n5.json")

RUNS = {
    "verify_contamination_exact": [
        "verify", "--random", "25", "--seed", "7", "--family", "contamination",
        "--exact", "--json",
    ],
    "verify_contamination": [
        "verify", "--random", "50", "--seed", "7", "--family", "contamination", "--json",
    ],
    "verify_arbitrary": [
        "verify", "--random", "50", "--seed", "7", "--family", "arbitrary", "--json",
    ],
    "update_sweep_exact_n5": ["update", MODEL, "--sweep", "--json"],
    "verify_exact_n5": ["verify", MODEL, "--json"],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_matches_golden(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(RUNS[name])
    assert code == 0
    with open(os.path.join(GOLDEN, f"{name}.out"), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert out.getvalue() == expected
