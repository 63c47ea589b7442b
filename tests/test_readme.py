"""The README's library quickstart runs as written."""

import re
from fractions import Fraction
from pathlib import Path

from credal_bayes import EqualityDiagnosis

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    ns = {}
    exec(block, ns)
    assert ns["rep"].bound_vertex == Fraction(4, 7)
    assert ns["rep"].lower_vertex == Fraction(5, 11)
    assert ns["oracle"].value == Fraction(4, 7)
    assert ns["report"].bound_vertex == Fraction(4, 7)
    assert ns["report"].equality_diagnosis is EqualityDiagnosis.PROVEN_EQUAL
