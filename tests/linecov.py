"""Line coverage of ``src/eqpoincare`` under the test suite, standard
library only.

    PYTHONPATH=src python tests/linecov.py [pytest arguments]

runs pytest in this process with a ``sys.settrace`` hook that records
every line the package runs, then prints, module by module, the
executable lines that never ran, and returns pytest's exit code.  With no
arguments pytest runs the configured test paths, as tier-1 does.  A
line is executable when the compiler gives it bytecode in any code
object of the module.  Lines run only in a child process (a test that
spawns the command line) are not seen.  Tracing makes the suite about
three times slower.  pytest does not collect this file.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eqpoincare"


def executable_lines(path: Path) -> set:
    """The lines that carry bytecode in the module's code objects."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def run_traced(call) -> tuple:
    """``call()``'s result, and the lines run per package file while it ran."""
    files = {str(p): set() for p in PACKAGE.glob("*.py")}

    def trace(frame, event, arg):
        seen = files.get(frame.f_code.co_filename)
        if seen is None:
            return None
        seen.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line
        return line

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        result = call()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, files


def report(files: dict) -> int:
    """Print the never-run lines by module; their total."""
    total = 0
    for name in sorted(files):
        path = Path(name)
        source = path.read_text().splitlines()
        missed = sorted(executable_lines(path) - files[name])
        total += len(missed)
        if missed:
            print(f"{path.name}: {len(missed)} never run")
            for n in missed:
                print(f"  {n:4d}  {source[n - 1].strip()}")
    print(f"total: {total} executable lines of {PACKAGE.name} never run")
    return total


if __name__ == "__main__":
    import pytest  # before tracing: the package must be imported under the hook

    exit_code, runs = run_traced(lambda: pytest.main(sys.argv[1:]))
    report(runs)
    sys.exit(exit_code)
