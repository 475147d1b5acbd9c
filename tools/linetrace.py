"""Lines of the package that the in-process test suite never executes.

    python3 tools/linetrace.py [--root DIR] [PYTEST_ARG ...]

Runs the test suite of the checkout at DIR (default: this checkout) inside
this process, as `python -m pytest -q --continue-on-collection-errors` run in
DIR would, with a `sys.settrace` hook that records only the lines executed in
DIR/src/gmrf_select. Any further arguments go to pytest in place of the
default `-q --continue-on-collection-errors`. A module's executable lines are
the line numbers of its compiled code objects, nested ones included, as
`co_lines()` reports them. The script prints each module's unexecuted lines
and then the total. Code that the suite runs in a child process (the
process-entry and demo tests) is not traced, so it counts as unexecuted
unless an in-process test runs it too.

Standard library only, apart from the suite's own runner, pytest.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from pathlib import Path

PACKAGE = Path("src") / "gmrf_select"


def executable_lines(path: Path) -> set[int]:
    """Every line number that a code object compiled from ``path`` maps to
    (not the line 0 of a module's own start-up instruction)."""
    code = compile(path.read_text(), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, type(code)))
    return lines


def spans(lines) -> str:
    """Sorted line numbers as comma-separated runs: 3, 7-9, 12."""
    out, run = [], []
    for line in sorted(lines):
        if run and line != run[-1] + 1:
            out.append(run)
            run = []
        run.append(line)
    if run:
        out.append(run)
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in out)


def traced_run(root: Path, pytest_args: list[str]) -> dict[str, set[int]]:
    """Run pytest in ``root`` under the trace hook; the executed lines per file."""
    prefix = str(root / PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        return local

    os.chdir(root)
    sys.path.insert(0, str(root / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    import pytest

    threading.settrace(start)
    sys.settrace(start)
    try:
        pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose suite and package are traced")
    args, pytest_args = parser.parse_known_args(argv)
    root = args.root.resolve()
    hits = traced_run(root, pytest_args or ["-q", "--continue-on-collection-errors"])
    total = executable = 0
    print()
    for path in sorted((root / PACKAGE).glob("*.py")):
        lines = executable_lines(path)
        missed = lines - hits.get(str(path), set())
        total += len(missed)
        executable += len(lines)
        if missed:
            print(f"{path.name}: {len(missed)} unexecuted: {spans(missed)}")
    print(f"total: {total} of {executable} executable lines in {PACKAGE} unexecuted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
