"""The eqpoincare benchmark: one workload, one seed, one run.

Run from the root of a checkout:

    python3 bench/run.py --workload dense-series --seed 1 --seconds 20 --trace 0

The workload runs in a child process (``worker.py``), so its peak RSS is
its own.  After it ends, ``setup_s`` is measured: fresh interpreters,
one after another, each running ``eqpoincare validate`` on the
workload's first job; the median is reported.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  Exits non-zero, printing no result, when the checkout
has no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SETUP_SPAWNS = 9
WORKER_LIMIT_S = 150
SETUP_LIMIT_S = 20
ENTRY = "import sys; from eqpoincare.cli import main; sys.exit(main())"


def child_env(root: Path) -> dict:
    """The package of this checkout first on the path, and one fixed
    string-hash seed: op times move by several percent between hash
    seeds, which would otherwise differ from run to run."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def setup_seconds(root: Path, job: str) -> tuple[float, int]:
    """Wall time of a fresh interpreter validating ``job``, and its exit
    code.  The wait blocks instead of polling, which would round the time
    up to the poll interval; a timer kills a child that hangs."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", ENTRY, "validate", job], cwd=root,
                            env=child_env(root), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(SETUP_LIMIT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    return time.perf_counter() - start, code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="eqpoincare benchmark, one run")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "eqpoincare" / "cli.py").is_file() or not (root / "jobs").is_dir():
        print("error: no src/eqpoincare and jobs/ here; run from the root of an "
              "eqpoincare checkout", file=sys.stderr)
        return 2
    work = root / ".bench_work"
    workdir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        worker = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", str(workdir)],
            cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True,
            timeout=WORKER_LIMIT_S)
        if worker.returncode != 0:
            print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
            return 1
        result = json.loads(worker.stdout.strip().splitlines()[-1])
        for line in result.pop("info"):
            print(line)
        setup_job = result.pop("setup_job")
        for key in ("op_mix", "passes", "failures"):
            del result[key]
        if not args.trace:
            runs = [setup_seconds(root, setup_job) for _ in range(SETUP_SPAWNS)]
            bad = [code for _, code in runs if code != 0]
            if bad:
                result["correct"] = False
                print(f"failed: set-up validate exited {bad}")
            print(f"setup_s: median of {SETUP_SPAWNS} sequential interpreters "
                  f"validating {Path(setup_job).name}")
            result["metrics"]["setup_s"] = {
                "value": statistics.median(t for t, _ in runs), "unit": "s"}
        spec = json.loads((root / "BENCHMARK.json").read_text())
        declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        if set(result["metrics"]) != declared:
            print(f"error: metrics {sorted(result['metrics'])} are not the declared "
                  f"{sorted(declared)}", file=sys.stderr)
            return 1
        print(json.dumps(result))
        return 0
    except subprocess.TimeoutExpired as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if work.is_dir() and not any(work.iterdir()):
            work.rmdir()


if __name__ == "__main__":
    sys.exit(main())
