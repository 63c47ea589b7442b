"""List the lines of ``src/credal_bayes`` that no tier-1 test executes.

Standard library only. The tool compiles every module of the package,
collects the line numbers its code objects carry, then runs the tier-1
suite in this process under ``sys.settrace``, recording the lines
executed in package files. Every compiled line never reached is printed
as ``path:line: source``, followed by a count.

Run from the repository root:

    python tools/uncovered.py            # the whole tier-1 suite
    python tools/uncovered.py tests/test_bayes.py   # a subset

On the whole suite the unrun lines are checked against the residue in
``tools/uncovered.txt``, where each is listed as ``path: source`` under
the reason no test reaches it. The tool exits 1 when an unrun line is
not listed, or when a listed line now runs, so the list can only
shrink. It also exits 1 when the suite fails.

Tracing slows the suite four to five times (about 90 s against 20 s on
a 2-core machine), so the tool stays out of tier-1. Lines run only in a
child process (the closed-pipe test) count as uncovered.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "credal_bayes"
RESIDUE = Path(__file__).resolve().with_name("uncovered.txt")


def compiled_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode, over every nested code object,
    minus each code object's own header line (its ``def``/``class``
    line runs in the enclosing code, which reports it) and the line 0
    that a module's set-up instructions carry."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        own = {line for _, _, line in code.co_lines() if line}
        if code.co_name != "<module>":
            own.discard(code.co_firstlineno)
        lines |= own
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def listed_residue() -> Counter:
    """The ``path: source`` entries of the residue list; ``#`` lines hold
    the reasons."""
    lines = RESIDUE.read_text(encoding="utf-8").splitlines()
    return Counter(line for line in lines if line.strip() and not line.startswith("#"))


def main(argv: list[str]) -> int:
    files = {str(p): compiled_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    hit: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        # Only package frames get a line tracer; all others run untraced.
        return local if frame.f_code.co_filename in hit else None

    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # imported before tracing: only package lines matter

    threading.settrace(scope)
    sys.settrace(scope)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or ["tests"])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun = Counter()
    for name, lines in files.items():
        source = Path(name).read_text(encoding="utf-8").splitlines()
        rel = Path(name).relative_to(ROOT)
        for line in sorted(lines - hit[name]):
            print(f"{rel}:{line}: {source[line - 1].strip()}")
            unrun[f"{rel}: {source[line - 1].strip()}"] += 1
    print(f"{sum(unrun.values())} uncovered lines (pytest exit {int(status)})")
    if argv:  # a subset leaves lines unrun that the whole suite reaches
        return 0 if status == 0 else 1
    listed = listed_residue()
    for entry in sorted((unrun - listed).elements()):
        print(f"unrun but not listed in {RESIDUE.name}: {entry}")
    for entry in sorted((listed - unrun).elements()):
        print(f"listed in {RESIDUE.name} but run: {entry}")
    return 0 if status == 0 and unrun == listed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
