"""The public surface: every exported name has a caller outside the tests."""

import ast
import re
from pathlib import Path

import credal_bayes

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "credal_bayes"


def _uses_in_src() -> set[str]:
    """Names read by the package's modules, outside the top-level
    definition that binds them; ``__init__`` only re-exports."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(node, "name", None)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.ImportFrom) and sub.module:
                    name = sub.module
                else:
                    continue
                if name != own:
                    used.add(name)
    return used


def test_every_export_is_used_or_documented():
    used = _uses_in_src()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    orphans = [
        name
        for name in credal_bayes.__all__
        if name not in used and not re.search(rf"\b{name}\b", readme)
    ]
    assert orphans == []
