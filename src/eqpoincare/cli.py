"""Command line front end.

Subcommands operate on a job file (see the jobs module for the schema):

    eqpoincare validate JOB
    eqpoincare compute JOB --degree N [--mode divisorial|curve]
                           [--character a,b,...] [--format text|machine]
    eqpoincare extract JOB --degree N [--format text|machine]
    eqpoincare check JOB --degree N
    eqpoincare explain JOB

Exit codes: 0 success, 1 input or validation failure (running out of
memory included), 2 a comparison in ``check`` found a difference.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .engine import (
    curve_poincare,
    divisorial_poincare,
    factor_rows,
    plan_poincare,
    quotient_extract,
    restrict_to_character,
)
from .jobs import Job, JobError, load_job
from .oracle import oracle_poincare
from .powerseries import DivisibilityError, dump_machine, render_text, series_eq_upto
# the benchmark's tracer wraps cli.render_machine by name
from .powerseries import render_machine  # noqa: F401
from .strata import (
    OrbitDecl,
    StrataError,
    StratumModel,
    curve_strata,
    resolve_character,
    validate_strata,
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: ``parse_args`` keeps
    no state between calls and prints help and usage to the ``sys.stdout``
    of the moment.  Only in-process callers of :func:`main` (library users,
    the tests, the benchmark) gain; a one-shot ``eqpoincare`` process builds
    the parser once either way."""
    parser = argparse.ArgumentParser(
        prog="eqpoincare",
        description=(
            "Equivariant Poincare series of divisorial and curve filtrations "
            "on plane curve germs, from a resolution description."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, degree=True):
        p.add_argument("job", help="path to a JSON job file")
        if degree:
            p.add_argument("--degree", type=int, required=True,
                           help="total degree to compute through")

    p = sub.add_parser("validate", help="run structural and bookkeeping checks")
    add_common(p, degree=False)

    p = sub.add_parser("compute", help="compute a Poincare series")
    add_common(p)
    p.add_argument("--mode", choices=("divisorial", "curve"),
                   default="divisorial")
    p.add_argument("--character", default=None, metavar="a,b,...",
                   help="restrict to one character (comma separated exponents)")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.add_argument("--output", default=None, help="write to a file instead of stdout")

    p = sub.add_parser("extract", help="series of the quotient curve via the "
                                       "substitution plan of the job")
    add_common(p)
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.add_argument("--output", default=None, help="write to a file instead of stdout")

    p = sub.add_parser("check", help="compare every route the job provides")
    add_common(p)

    p = sub.add_parser("explain", help="list the factors (1 - u^l t^m)^(-chi) "
                                       "the product route expands")
    add_common(p, degree=False)
    return parser


def _emit(series, fmt: str, output):
    try:
        text = dump_machine(series) if fmt == "machine" else render_text(series)
    except ValueError as e:  # the writers' one error: an int past the digit limit
        raise JobError(f"--degree: a coefficient has over {sys.get_int_max_str_digits()} "
                       "digits, the interpreter's limit for writing an integer") from e
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_character(raw: str, ring):
    raw = raw.strip()
    parts = [] if raw == "" else raw.split(",")
    try:
        alpha = tuple(int(p) for p in parts)
    except ValueError:
        raise JobError(f"--character {raw!r} is not a comma separated integer list")
    if len(alpha) != ring.num_generators:
        raise JobError(
            f"--character has {len(alpha)} entries, the ring has "
            f"{ring.num_generators} generators"
        )
    return ring.reduce(alpha)


def _curve_series(job: Job, degree: int):
    if job.curve is None:
        raise JobError(f"job {job.name!r} has no curve section")
    adjusted, _ = curve_strata(job.model, job.curve.removed_points)
    return curve_poincare(job.model, job.curve.branches, adjusted, degree)


def _extract_series(job: Job, degree: int):
    if job.extract is None:
        raise JobError(f"job {job.name!r} has no extract section")
    try:
        return quotient_extract(*plan_poincare(job.model, job.extract, degree))
    except DivisibilityError as e:
        raise JobError(f"extract.plan: {e}") from e


def _validation_lines(job: Job):
    """Structural checks beyond what loading already enforced.

    Returns (lines, ok).  Loading has already checked the graph's shape
    and built its multiplicity matrix, which blows it down to its first
    component.  Then the character of every stratum with chi != 0 is
    resolved, as the product formula needs it, and the chi-weighted
    bookkeeping per component orbit is checked, for the divisor and, when
    a curve section is present, for the divisor with strict-transform
    points removed.  Unfaithful oracle weights get a line but do not fail.
    """
    lines = []
    ok = True
    graph = job.model.graph
    lines.append(
        f"graph: {len(graph.components)} components, blows down to "
        f"{graph.first_blown_up!r}"
    )
    for st in job.model.strata:
        if st.chi != 0:
            try:
                resolve_character(job.model, st)
            except StrataError as e:
                ok = False
                lines.append(f"strata: {e}")
    if ok:
        lines.append(f"strata: {len(job.model.strata)} strata, characters resolve")
    if job.oracle is not None and job.oracle.unfaithful:
        lines.append(f"oracle.weights: {job.oracle.unfaithful}")
    if job.orbits is None:
        lines.append("orbits: none declared, bookkeeping not checked")
        return lines, ok

    def report(tag, model, orbits):
        nonlocal ok
        rep = validate_strata(model, orbits)
        for f in rep.findings:
            ok = False
            lines.append(f"{tag}: {f}")
        for c in rep.checks:
            status = "ok" if c.ok else "MISMATCH"
            lines.append(
                f"{tag} orbit {list(c.components)}: chi sum {c.euler_sum}, "
                f"expected {c.expected} [{status}]"
            )
            if not c.ok:
                ok = False

    report("divisor", job.model, job.orbits)
    if job.curve is not None:
        adjusted, removed_per_component = curve_strata(
            job.model, job.curve.removed_points
        )
        curve_model = StratumModel(
            job.model.graph, job.model.ring, job.model.chosen, adjusted
        )
        curve_orbits = [
            OrbitDecl(
                o.components,
                tuple(r + removed_per_component.get(c, 0)
                      for c, r in zip(o.components, o.removed)),
            )
            for o in job.orbits
        ]
        report("curve", curve_model, curve_orbits)
    return lines, ok


def cmd_validate(args) -> int:
    job = load_job(args.job)
    lines, ok = _validation_lines(job)
    for line in lines:
        print(line)
    if not ok:
        print("validation failed", file=sys.stderr)
        return 1
    print("validation ok")
    return 0


def cmd_compute(args) -> int:
    job = load_job(args.job)
    if args.degree < 0:
        raise JobError("--degree must be >= 0")
    if args.mode == "curve":
        series = _curve_series(job, args.degree)
    else:
        series = divisorial_poincare(job.model, args.degree)
    if args.character is not None:
        alpha = _parse_character(args.character, job.model.ring)
        series = restrict_to_character(series, alpha)
    _emit(series, args.format, args.output)
    return 0


def cmd_extract(args) -> int:
    job = load_job(args.job)
    if args.degree < 0:
        raise JobError("--degree must be >= 0")
    series = _extract_series(job, args.degree)
    _emit(series, args.format, args.output)
    return 0


def cmd_check(args) -> int:
    job = load_job(args.job)
    degree = args.degree
    if degree < 0:
        raise JobError("--degree must be >= 0")
    lines, ok = _validation_lines(job)
    for line in lines:
        print(line)
    if not ok:
        print("check stopped: validation failed", file=sys.stderr)
        return 1

    # each engine series is expanded on first use and shared by the
    # comparisons that read it
    divisorial = functools.cache(lambda: divisorial_poincare(job.model, degree))
    curve = functools.cache(lambda: _curve_series(job, degree))
    comparisons = []
    if "divisorial" in job.expected:
        comparisons.append(
            ("divisorial engine vs expected factors",
             divisorial,
             lambda: job.expected_series("divisorial", degree))
        )
    if "curve" in job.expected:
        comparisons.append(
            ("curve engine vs expected factors",
             curve,
             lambda: job.expected_series("curve", degree))
        )
    if "extract" in job.expected:
        comparisons.append(
            ("quotient extraction vs expected factors",
             lambda: _extract_series(job, degree),
             lambda: job.expected_series("extract", degree))
        )
    if job.oracle is not None:
        if job.oracle.sigma_x is not None:
            comparisons.append(
                ("divisorial engine vs monomial count",
                 divisorial,
                 lambda: oracle_poincare(job.oracle, job.model, degree))
            )
        if job.oracle.curve_axes is not None:
            comparisons.append(
                ("curve engine vs monomial count",
                 curve,
                 lambda: oracle_poincare(job.oracle, job.model, degree,
                                         mode="curve"))
            )
    if not comparisons:
        raise JobError(f"job {job.name!r} provides nothing to check against")

    failed = False
    for label, make_got, make_want in comparisons:
        got = make_got()
        want = make_want()
        same, diff = series_eq_upto(got, want, degree)
        if same:
            print(f"check {label}: agree through degree {degree}")
        else:
            failed = True
            exponents, a, b = diff
            print(
                f"check {label}: FIRST DIFFERENCE at t^{tuple(exponents)}: "
                f"{a} vs {b}",
            )
    if failed:
        print("check failed", file=sys.stderr)
        return 2
    return 0


def cmd_explain(args) -> int:
    job = load_job(args.job)
    tables = [("divisorial", job.model.strata, job.model.chosen)]
    if job.curve is not None and job.curve.branches:
        adjusted, _ = curve_strata(job.model, job.curve.removed_points)
        tables.append(("curve", adjusted, [b.attach for b in job.curve.branches]))
    for kind, strata, targets in tables:
        print(f"{kind} factors (1 - u^l t^m)^(-chi), t indexed by {list(targets)}:")
        for st, (m, l, _) in factor_rows(job.model, strata, targets):
            print(f"  label={st.label!r} carrier={list(st.carrier)} chi={st.chi} "
                  f"m={m} l={l}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits itself on usage errors and --help; fold the error
        # case into the documented input-error code
        return 0 if e.code == 0 else 1
    handlers = {
        "validate": cmd_validate,
        "compute": cmd_compute,
        "extract": cmd_extract,
        "check": cmd_check,
        "explain": cmd_explain,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:  # validate and explain take no --degree
        where = f"--degree {args.degree}: " if "degree" in args else ""
        print(f"error: {where}out of memory", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
