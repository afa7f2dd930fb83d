"""Command line front end.

Subcommands operate on a job file (see the jobs module for the schema):

    eqpoincare validate JOB
    eqpoincare compute JOB --degree N [--mode divisorial|curve]
                           [--character a,b,...] [--format text|machine]
    eqpoincare extract JOB --degree N [--format text|machine]
    eqpoincare check JOB --degree N
    eqpoincare explain JOB

The parser names each subcommand's handler (``extract`` runs ``compute``'s,
as the ``extract`` kind), which gets the job and the strata and targets
of its product kinds, built once per command by :func:`_factor_tables`.

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
    factor_powers,
    factor_rows,
    factors,
    quotient_extract,
)
# the benchmark's tracer wraps cli.restrict_to_character by name
from .engine import restrict_to_character  # noqa: F401
from .jobs import Job, JobError, load_job
from .oracle import oracle_poincare
from .powerseries import DivisibilityError, dump_machine, render_text, series_eq_upto
# the benchmark's tracer wraps cli.render_machine by name
from .powerseries import render_machine  # noqa: F401
from .strata import StrataError, curve_strata, resolve_character, validate_strata


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

    def add_command(name, handler, summary, degree=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("job", help="path to a JSON job file")
        if degree:
            p.add_argument("--degree", type=int, required=True,
                           help="total degree to compute through")
        return p

    add_command("validate", cmd_validate, "run structural and bookkeeping checks", degree=False)
    compute = add_command("compute", cmd_compute, "compute a Poincare series")
    compute.add_argument("--mode", choices=("divisorial", "curve"), default="divisorial")
    compute.add_argument("--character", default=None, metavar="a,b,...",
                         help="restrict to one character (comma separated exponents)")
    extract = add_command("extract", cmd_compute, "series of the quotient curve via the "
                                                  "substitution plan of the job")
    extract.set_defaults(mode="extract", character=None)  # compute's extract kind
    for p in (compute, extract):
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.add_argument("--output", default=None, help="write to a file instead of stdout")
    add_command("check", cmd_check, "compare every route the job provides")
    add_command("explain", cmd_explain, "list the factors (1 - u^l t^m)^(-chi) "
                                        "the product route expands", degree=False)
    return parser


def _emit(series, fmt: str, output):
    try:
        text = dump_machine(series) if fmt == "machine" else render_text(series)
    except ValueError as e:  # the writers' one error: an int past the digit limit
        raise JobError(f"--degree: a coefficient has over {sys.get_int_max_str_digits()} "
                       "digits, the interpreter's limit for writing an integer") from e
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise JobError(f"--output {output}: {e.strerror}") from e
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


# what check calls each series kind's engine route
_ENGINE = {"divisorial": "divisorial engine", "curve": "curve engine",
           "extract": "quotient extraction"}


def _factor_tables(job: Job) -> dict:
    """The strata and targets whose factors the divisorial and the curve
    route expand, by series kind: the one place a command builds them."""
    tables = {"divisorial": (job.model.strata, job.model.chosen)}
    if job.curve is not None:
        tables["curve"] = (curve_strata(job.model, job.curve.removed_points),
                           [b.attach for b in job.curve.branches])
    return tables


def _routes(job: Job, tables: dict, degree: int, *alpha) -> dict:
    """Each series kind's engine route through ``degree``, as a call that
    expands the series, or a product route's part at a character ``alpha``;
    the curve route reads its strata from ``tables``."""
    def curve():
        if job.curve is None:
            raise JobError(f"job {job.name!r} has no curve section")
        return curve_poincare(job.model, job.curve.branches, tables["curve"][0], degree, *alpha)

    def extract():
        if job.extract is None:
            raise JobError(f"job {job.name!r} has no extract section")
        try:
            return quotient_extract(job.model, job.extract, degree)
        except DivisibilityError as e:
            raise JobError(f"extract.plan: {e}") from e

    return {"divisorial": lambda: divisorial_poincare(job.model, degree, *alpha),
            "curve": curve, "extract": extract}


def _validation_lines(job: Job, tables: dict):
    """Structural checks beyond what loading already enforced.

    Returns (lines, ok).  Loading has already checked the graph's shape
    and built its multiplicity matrix, which blows it down to its first
    component.  Then the character of every stratum that a table of
    ``tables`` gives chi != 0 is resolved, as the product formula needs it
    (a removed point gives a stratum with chi 0 on the divisor a factor of
    the curve series), and the chi-weighted bookkeeping per component orbit
    is checked for each table's strata: the divisor's and, when a curve
    section is present, the divisor's with strict-transform points removed,
    whose orbits lose one point per branch attached.  A curve check that
    fails where the divisor's holds names ``curve.removed_points``.
    Unfaithful oracle weights get a line but do not fail.
    """
    lines = []
    ok = True
    graph = job.model.graph
    lines.append(
        f"graph: {len(graph.components)} components, blows down to "
        f"{graph.first_blown_up!r}"
    )
    divisor, curve = tables["divisorial"][0], tables.get("curve", tables["divisorial"])[0]
    for st, on_curve in zip(divisor, curve):  # a stratum and its curve version
        if st.chi or on_curve.chi:
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

    def report(tag, rep):
        lines.extend(f"{tag}: {f}" for f in rep.findings)
        ok = not rep.findings  # rep.ok, walking the checks once
        for components, euler_sum, expected in rep.checks:
            same = euler_sum == expected
            ok = ok and same
            lines.append(
                f"{tag} orbit {list(components)}: chi sum {euler_sum}, "
                f"expected {expected} [{'ok' if same else 'MISMATCH'}]"
            )
        return ok

    divisor_ok = curve_ok = report("divisor", validate_strata(job.model, job.orbits))
    if job.curve is not None:
        model = job.model._replace(strata=curve)
        curve_ok = report("curve", validate_strata(model, job.orbits, job.curve.branches))
        if divisor_ok and not curve_ok:
            lines.append("curve.removed_points: the points removed do not match "
                         "the branches; each orbit loses one per branch attached")
    return lines, ok and divisor_ok and curve_ok


def _validated(job: Job, tables: dict, failure: str) -> bool:
    """Print the validation lines, and ``failure`` to stderr if they fail."""
    lines, ok = _validation_lines(job, tables)
    print("\n".join(lines))
    if not ok:
        print(failure, file=sys.stderr)
    return ok


def cmd_validate(args, job: Job, tables: dict) -> int:
    if not _validated(job, tables, "validation failed"):
        return 1
    print("validation ok")
    return 0


def cmd_compute(args, job: Job, tables: dict) -> int:
    """``compute``, and ``extract`` as its ``extract`` kind."""
    alpha = () if args.character is None else (_parse_character(args.character, job.model.ring),)
    _emit(_routes(job, tables, args.degree, *alpha)[args.mode](), args.format, args.output)
    return 0


def cmd_check(args, job: Job, tables: dict) -> int:
    degree = args.degree
    if not _validated(job, tables, "check stopped: validation failed"):
        return 1

    # each series is expanded on first use and shared by the comparisons that read it
    routes = {kind: functools.cache(call) for kind, call in _routes(job, tables, degree).items()}
    comparisons = [(f"{_ENGINE[kind]} vs expected factors", routes[kind],
                    lambda kind=kind: job.expected_series(kind, degree), kind)
                   for kind in routes if kind in job.expected]
    mm = job.oracle
    axes = {} if mm is None else {"divisorial": mm.sigma_x, "curve": mm.curve_axes}
    comparisons += [(f"{_ENGINE[mode]} vs monomial count", routes[mode],
                     lambda mode=mode: oracle_poincare(mm, job.model, degree, mode=mode), None)
                    for mode, given in axes.items() if given is not None]
    if not comparisons:
        raise JobError(f"job {job.name!r} provides nothing to check against")

    ring = job.model.ring

    def same_factors(kind):
        """Whether a product route's factors are the expected ones, which
        makes the two series agree at every degree."""
        return kind in tables and (factor_powers(factors(job.model, *tables[kind]), ring)
                                   == factor_powers(job.expected[kind], ring))

    failed = False
    for label, make_got, make_want, kind in comparisons:
        same, diff = same_factors(kind), None
        if not same:
            same, diff = series_eq_upto(make_got(), make_want(), degree)
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


def cmd_explain(args, job: Job, tables: dict) -> int:
    for kind, (strata, targets) in tables.items():
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
    try:
        job = load_job(args.job)
        if "degree" in args and args.degree < 0:
            raise JobError("--degree must be >= 0")
        code = args.handler(args, job, _factor_tables(job))
        sys.stdout.flush()
        return code
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (MemoryError, OverflowError):  # too big to allocate; validate, explain: no --degree
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
