"""Runs one workload in its own process and prints its figures.

Usage (from the root of a checkout; ``run.py`` starts this):

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR

Each op is an in-process ``eqpoincare.cli.main(argv)`` call with stdout
captured, timed from the call to its return; one client, closed loop.
Pass 0 is an untimed warm-up.  ``--seconds`` fixes the number of timed
passes through the workload's nominal pass time (:func:`timed_passes`),
so every run of one workload and one ``--seconds`` times the same
passes, whatever the speed of the host and of the package.  The
end-to-end times come from each op's best time over those passes (see
:func:`per_op_best`).  Outputs are verified after each pass,
outside the timed region, once per distinct input; a repeat of that
input must give the same exit code and the same bytes.  With
``--trace 1`` untraced and traced passes alternate, and the traced ones
give the per-layer figures, as medians over the traced passes.

The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import reference
import spans
import workloads

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import eqpoincare  # noqa: E402
from eqpoincare import cli, engine, jobs, oracle  # noqa: E402
from eqpoincare.powerseries import Series, parse_machine, series_eq_upto  # noqa: E402
from eqpoincare.charring import CharacterRing  # noqa: E402
from eqpoincare.resolution import ResolutionGraph  # noqa: E402

if Path(eqpoincare.__file__).resolve().parent != (ROOT / "src" / "eqpoincare").resolve():
    raise SystemExit(f"eqpoincare imported from {eqpoincare.__file__}, not this checkout")

LAYERS = ("cli", "jobs", "resolution", "strata", "engine", "powerseries", "oracle")


def run_op(argv, tracer=None, op_index=None):
    """``(seconds, exit code, stdout)`` of one ``cli.main`` call.  An
    exception escaping ``main`` is reported as the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if tracer is not None:
            tracer.op = op_index
            root = tracer.open("cli.main")
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as e:  # a traceback is a failed op, not a crash
            code = f"raised {type(e).__name__}: {e}"
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.close(root)
    return seconds, code, out.getvalue()


class Verifier:
    """Checks each distinct input once against its reference, and counts
    attempted and failed ops, failures grouped by op category."""

    def __init__(self):
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.failures = {}  # category -> [count, all known defects, first reason]

    def record(self, op, code, output) -> None:
        self.attempted += 1
        why = self.verify(op, code, output)
        if why is not None:
            self.failed += 1
            entry = self.failures.setdefault(op.category, [0, True, why])
            entry[0] += 1
            entry[1] = entry[1] and op.known_defect

    @property
    def correct(self) -> bool:
        """No op failed other than on a known defect."""
        return all(known for _, known, _ in self.failures.values())

    def verify(self, op, code, output) -> str | None:
        """None if the op is right, else the reason it failed."""
        digest = hashlib.sha256(output.encode()).hexdigest()
        if op.key in self.seen:
            code0, digest0, why = self.seen[op.key]
            if (code, digest) != (code0, digest0):
                return "output differs from the verified run of the same input"
            return why
        why = self._verify(op, code, output)
        self.seen[op.key] = (code, digest, why)
        return why

    def _verify(self, op, code, output):
        if code != 0:
            return f"exit code {code}"
        if op.reference is None:
            return None
        ref = op.reference
        want = to_series(reference.expand(ref), ref.num_vars, ref.degree,
                         None if ref.integer else ref.orders)
        try:
            if "--format" in op.argv:
                got = parse_machine(json.loads(output))
            else:
                got = to_series(reference.parse_text(output), ref.num_vars, ref.degree,
                                None if ref.integer else ref.orders)
            same, diff = series_eq_upto(got, want, ref.degree)
        except (ValueError, TypeError, KeyError) as e:
            return f"unreadable or incomparable output: {e}"
        if not same:
            exps, a, b = diff
            return f"t^{exps}: got {a}, reference {b}"
        return None


def to_series(terms, num_vars, degree, orders):
    """A package Series from ``{(t-exponent, character): int}``; an
    integer series when ``orders`` is None."""
    if orders is None:
        coeffs = {}
        for (exps, _), c in terms.items():
            coeffs[exps] = coeffs.get(exps, 0) + c
        return Series(num_vars, degree, None, coeffs)
    ring = CharacterRing(tuple(orders))
    parts = {}
    for (exps, char), c in terms.items():
        parts.setdefault(exps, {})[char] = c
    return Series(num_vars, degree, ring,
                  {e: ring.element(p) for e, p in parts.items()})


def _mul_sizes(t, args, result):
    if result is NotImplemented:
        return
    other = args[1]
    t.add("powerseries.mul_pairs",
          len(args[0].terms) * (len(other.terms) if isinstance(other, Series) else 1))
    t.add("powerseries.terms_out", len(result.terms))


def _tables_sizes(t, args, result):
    t.add("oracle.monomials", (args[2] + 3) ** 2)
    t.add("oracle.table_entries", sum(len(tab.values) for tab in result.values()))


def _dimension_sizes(t, args, result):
    t.add("engine.dimension_points",
          sum((tab.box + 2) ** tab.num_vars for tab in args[0].values()))


def trace_targets():
    """Where each layer's public callables are looked up by their callers."""
    return [
        (cli, "load_job", "jobs.load", None),
        (jobs.Job, "expected_series", "jobs.expected", None),
        (ResolutionGraph, "multiplicity_matrix", "resolution.matrix",
         lambda t, a, r: t.add("resolution.components", len(a[0].components))),
        (cli, "validate_strata", "strata.validate", None),
        (cli, "curve_strata", "strata.curve", None),
        (engine, "stratum_multiplicities", "strata.factor_table", None),
        (engine, "resolve_character", "strata.factor_table", None),
        (cli, "divisorial_poincare", "engine.series", lambda t, a, r: t.results.append(r)),
        (cli, "curve_poincare", "engine.series", lambda t, a, r: t.results.append(r)),
        (cli, "quotient_extract", "engine.extract", None),
        (cli, "restrict_to_character", "engine.restrict", None),
        (oracle, "poincare_from_dimensions", "engine.dimensions", _dimension_sizes),
        (engine, "factor_power", "powerseries.factor_power", None),
        (jobs, "factor_power", "powerseries.factor_power", None),
        (Series, "__mul__", "powerseries.mul", _mul_sizes),
        (cli, "render_text", "powerseries.render", None),
        (cli, "render_machine", "powerseries.render", None),
        (cli, "series_eq_upto", "powerseries.compare", None),
        (cli, "oracle_poincare", "oracle.poincare", None),
        (oracle, "oracle_tables", "oracle.tables", _tables_sizes),
    ]


def charring_counts(tracer):
    """Coefficient parts and the largest coefficient's bit length of the
    engine's output series, read after the op; charring itself is not
    wrapped, its operators run too often."""
    for series in tracer.results:
        for c in series.terms.values():
            values = list(c.terms.values()) if hasattr(c, "terms") else [c]
            tracer.add("charring.coeff_parts", len(values))
            bits = max((abs(v).bit_length() for v in values), default=0)
            if bits > tracer.counts.get("charring.max_coeff_bits", 0):
                tracer.counts["charring.max_coeff_bits"] = bits
    tracer.results.clear()


def layer_metrics(tracer, output_bytes) -> dict:
    """Per-layer figures of one traced pass; every ``_s`` value is self time."""
    selfs = spans.self_times(tracer.spans)
    time_of, calls, layer_self = {}, {}, {}
    factors = 0
    for span, s in zip(tracer.spans, selfs):
        time_of[span.name] = time_of.get(span.name, 0.0) + s
        calls[span.name] = calls.get(span.name, 0) + 1
        layer_self[span.layer] = layer_self.get(span.layer, 0.0) + s
        if (span.name == "powerseries.factor_power" and span.parent is not None
                and tracer.spans[span.parent].name == "engine.series"):
            factors += 1
    op_s = sum(s.end - s.start for s in tracer.spans if s.name == "cli.main")
    c = tracer.counts
    m = {
        "resolution.matrix_s": time_of.get("resolution.matrix", 0.0),
        "resolution.matrix_builds": calls.get("resolution.matrix", 0),
        "resolution.build_ratio": (calls.get("resolution.matrix", 0)
                                   / max(1, calls.get("jobs.load", 0))),
        "resolution.components": c.get("resolution.components", 0),
        "jobs.load_s": time_of.get("jobs.load", 0.0),
        "jobs.load_calls": calls.get("jobs.load", 0),
        "strata.validate_s": time_of.get("strata.validate", 0.0),
        "strata.factor_table_s": time_of.get("strata.factor_table", 0.0),
        "cli.self_s": time_of.get("cli.main", 0.0),
        "cli.output_bytes": output_bytes,
        "engine.series_s": time_of.get("engine.series", 0.0),
        "engine.factors": factors,
        "engine.extract_s": time_of.get("engine.extract", 0.0),
        "engine.dimensions_s": time_of.get("engine.dimensions", 0.0),
        "engine.dimension_points": c.get("engine.dimension_points", 0),
        "powerseries.factor_power_s": time_of.get("powerseries.factor_power", 0.0),
        "powerseries.factor_power_calls": calls.get("powerseries.factor_power", 0),
        "powerseries.mul_s": time_of.get("powerseries.mul", 0.0),
        "powerseries.mul_calls": calls.get("powerseries.mul", 0),
        "powerseries.mul_pairs": c.get("powerseries.mul_pairs", 0),
        "powerseries.terms_out": c.get("powerseries.terms_out", 0),
        "powerseries.render_s": time_of.get("powerseries.render", 0.0),
        "powerseries.compare_s": time_of.get("powerseries.compare", 0.0),
        "charring.coeff_parts": c.get("charring.coeff_parts", 0),
        "charring.max_coeff_bits": c.get("charring.max_coeff_bits", 0),
        "oracle.tables_s": time_of.get("oracle.tables", 0.0),
        "oracle.tables_calls": calls.get("oracle.tables", 0),
        "oracle.monomials": c.get("oracle.monomials", 0),
        "oracle.table_entries": c.get("oracle.table_entries", 0),
        "trace.op_s": op_s,
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = layer_self.get(layer, 0.0) / op_s if op_s else 0.0
    return m


# About the seconds one timed pass of each workload takes on a 2-core VM
# (Python 3.11.7) at the parent commit.  ``--seconds`` buys this many
# passes at that rate; the count stays fixed when the package or the
# host gets faster or slower.
NOMINAL_PASS_S = {"dense-series": 3.5, "oracle-check": 7.0, "fresh-graphs": 5.5}


def timed_passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind
    of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def per_op_best(passes) -> list[float]:
    """Each op's shortest time over the passes.  Every pass runs the same
    op list on the same work, so this is the time each op takes when the
    host does not get in the way.  A shared host slows down in bursts of
    seconds to minutes; a median over the passes moves with the bursts
    a run happens to meet, and host noise only ever adds time."""
    return [min(times) for times in zip(*(p["times"] for p in passes))]


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile (Biometrika 69, 1982):
    the mean of all order statistics, the i-th weighted by the mass that
    the Beta((n+1)p, (n+1)(1-p)) law puts on [(i-1)/n, i/n].  A single
    order statistic jumps with one op's time where neighbouring ops'
    times are far apart, as between the cheap and the dear ops of a
    list; this estimate averages the ops around the quantile."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule on each interval
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        points = (i / n + (k + 0.5) * h for k in range(steps))
        weights.append(h * sum(math.exp(log_norm + (a - 1) * math.log(x)
                                        + (b - 1) * math.log1p(-x)) for x in points))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run(args) -> dict:
    workdir = Path(args.workdir)
    load = workloads.Workload(args.workload, args.seed, ROOT, workdir)
    verifier = Verifier()
    units = declared_units(args.trace)

    def run_pass(index, traced):
        ops = load.ops(index)
        tracer = spans.Tracer() if traced else None
        # Collections during the pass then skip the objects alive now,
        # such as the package's caches and this harness's own state; with
        # them, one full collection took up to 28 ms and landed on the
        # same op in every pass.
        gc.collect()
        gc.freeze()
        results = []
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.installed(trace_targets()))
            start = time.perf_counter()
            for i, op in enumerate(ops):
                results.append(run_op(op.argv, tracer, i))
                if traced:
                    charring_counts(tracer)
            wall = time.perf_counter() - start
        for op, (_, code, output) in zip(ops, results):
            verifier.record(op, code, output)
        record = {"wall": wall, "times": [r[0] for r in results]}
        if traced:
            record["layers"] = layer_metrics(tracer, sum(len(r[2]) for r in results))
        load.done(index)
        return record

    setup_job = load.setup_job()
    op_mix = {}
    for op in load.ops(0):
        op_mix[op.category] = op_mix.get(op.category, 0) + 1
    # With --trace 1 the same number of passes is split between untraced
    # and traced ones, which alternate.
    count = timed_passes(args.workload, args.seconds)
    kinds = [False] * count if not args.trace else [False, True] * max(1, count // 2)
    passes, plain, traced = [run_pass(0, False)], [], []
    for index, trace_this in enumerate(kinds, start=1):
        passes.append(run_pass(index, trace_this))
        (traced if trace_this else plain).append(passes[-1])
        if index == 1:
            # After a fixed amount of work: fresh-graphs grows the package's
            # matrix cache by one pass of graphs per pass.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops_per_pass = len(plain[0]["times"])
    best = per_op_best(plain)
    info = [
        f"{args.workload} seed {args.seed}: warm-up pass, then {len(plain)} timed "
        f"passes of {ops_per_pass} ops; wall_s and op_s from each op's best of "
        f"{len(plain)} times ({ops_per_pass} op samples, Harrell-Davis quantiles); "
        f"{len(traced)} traced passes",
        "untimed and timed passes took " + " ".join(f"{p['wall']:.2f}" for p in passes) + " s",
    ]
    for category, (n, known, why) in sorted(verifier.failures.items()):
        info.append(f"failed: {n} x {category} ({'known defect' if known else 'NEW'}): {why}")
    if args.trace:
        names = traced[0]["layers"].keys()
        metrics = {n: statistics.median(p["layers"][n] for p in traced) for n in names}
        metrics["trace.overhead_ratio"] = sum(per_op_best(traced)) / sum(best)
    else:
        metrics = {
            "wall_s": sum(best),
            "op_s.p50": harrell_davis(best, 0.5),
            "op_s.p90": harrell_davis(best, 0.9),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (verifier.attempted - verifier.failed) / verifier.attempted,
        }
    return {
        "correct": verifier.correct,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "setup_job": setup_job,
        "op_mix": op_mix,
        "passes": 1 + len(kinds),
        "failures": {c: n for c, (n, _, _) in verifier.failures.items()},
        "info": info,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
