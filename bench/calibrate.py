"""Writes ``bench/baseline.json``: where and on what the benchmark was
measured, and two calibration rows that rerun ROADMAP Baseline rows
with the benchmark's own op timer.

Run from the root of the checkout:

    python3 bench/calibrate.py

Records the commit, Python version and CPU count; the calibration
rows: the one-index star at degree 400 and ``check example2_oracle
--degree 8``; and for each workload the layer it is predicted to load,
with the op mix and the failures per pass of one worker run (seed 0,
warm-up and one timed pass).
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
import workloads  # noqa: E402

PREDICTED = {
    "dense-series": "powerseries (factor expansion, products, rendering), then charring",
    "oracle-check": "oracle tables plus engine.poincare_from_dimensions",
    "fresh-graphs": "resolution (multiplicity matrix), then jobs, strata and cli",
}
CALIBRATION = [
    # (label, argv, ROADMAP Baseline row and its ms, repeats)
    ("star E0, degree 400", ["compute", "{star}", "--degree", "400"],
     "engine star, one index (E0), degree 400: 437 ms", 5),
    ("check example2_oracle --degree 8", ["check", "jobs/example2_oracle.json", "--degree", "8"],
     "CLI check example2_oracle --degree 8: 2859 ms, with interpreter start", 3),
]


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    root = Path.cwd()
    workdir = root / ".bench_work" / "calibrate"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = {
            "commit": _commit(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "calibration": [],
            "workloads": {},
        }
        star = workdir / "star_E0.json"
        star.write_text(json.dumps(workloads.star_job(
            json.loads((root / "jobs" / "example3.json").read_text()))))
        for label, argv, roadmap, repeats in CALIBRATION:
            argv = [a.replace("{star}", str(star)) for a in argv]
            worker.run_op(argv)
            times = [worker.run_op(argv)[0] for _ in range(repeats)]
            record["calibration"].append({
                "op": label, "median_ms": round(1000 * statistics.median(times), 1),
                "repeats": repeats, "roadmap": roadmap})
        for name in workloads.WORKLOADS:
            (workdir / name).mkdir()
            result = worker.run(Namespace(
                workload=name, seed=0, seconds=worker.NOMINAL_PASS_S[name], trace=0,
                workdir=workdir / name))
            record["workloads"][name] = {
                "ops_per_pass": sum(result["op_mix"].values()),
                "op_mix": result["op_mix"],
                "predicted_layer": PREDICTED[name],
                "failed_per_pass": {c: n / result["passes"]
                                    for c, n in result["failures"].items()},
                "failures_all_known_defects": result["correct"],
            }
        (BENCH / "baseline.json").write_text(json.dumps(record, indent=2) + "\n")
        print(json.dumps(record["calibration"], indent=2))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
