"""The lines of ``src/eqpoincare`` that the command line never runs,
standard library only.

    PYTHONPATH=src python tests/clireach.py

imports the package under the ``sys.settrace`` hook of :mod:`linecov` and
calls ``eqpoincare.cli.main`` in this process: every command on every
shipped job at degrees 0, 3, 8 and 20 (``compute`` in both modes, at the
trivial character and, like ``extract``, in both formats), then one pass
of each benchmark workload's op list, seed 1, read from
``bench/workloads.py``.  It prints, module by module, the executable lines
that never ran, and how many of them are not ``raise`` or ``except``
lines.  What remains is what only the tests and library callers reach.
pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from linecov import PACKAGE, executable_lines, report, run_traced

ROOT = PACKAGE.parent.parent
DEGREES = (0, 3, 8, 20)


def shipped_argvs() -> list:
    argvs = []
    for path in sorted((ROOT / "jobs").glob("*.json")):
        job = str(path)
        trivial = ",".join("0" for _ in json.loads(path.read_text())["ring"]["orders"])
        argvs += [["validate", job], ["explain", job]]
        for degree in map(str, DEGREES):
            for fmt in ("text", "machine"):
                argvs += [["compute", job, "--degree", degree, "--format", fmt],
                          ["compute", job, "--degree", degree, "--mode", "curve",
                           "--format", fmt],
                          ["compute", job, "--degree", degree, "--character", trivial,
                           "--format", fmt],
                          ["extract", job, "--degree", degree, "--format", fmt]]
            argvs.append(["check", job, "--degree", degree])
    return argvs


def bench_argvs(workdir: Path) -> list:
    """One timed pass of each workload's op list; fresh-graphs writes its
    jobs under ``workdir``."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    argvs = []
    for name in workloads.WORKLOADS:
        (workdir / name).mkdir()
        load = workloads.Workload(name, 1, ROOT, workdir / name)
        argvs += [list(op.argv) for op in load.ops(1)]
    return argvs


def run_all(argvs: list) -> int:
    """Run each argv through ``cli.main``, output discarded; the number run."""
    from eqpoincare import cli  # under the hook, so its definitions count as run

    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
    return len(argvs)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="clireach-") as tmp:
        argvs = shipped_argvs() + bench_argvs(Path(tmp))
        count, files = run_traced(lambda: run_all(argvs))
    print(f"{count} cli.main calls")
    report(files)
    error_path = 0
    for name, seen in files.items():
        source = Path(name).read_text().splitlines()
        error_path += sum(source[n - 1].strip().startswith(("raise", "except"))
                          for n in executable_lines(Path(name)) - seen)
    print(f"of them on raise or except lines: {error_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
