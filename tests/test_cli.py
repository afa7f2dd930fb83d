import argparse
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from eqpoincare import cli
from eqpoincare.engine import (
    curve_poincare,
    divisorial_poincare,
    plan_poincare,
    quotient_extract,
    restrict_to_character,
)
from eqpoincare.jobs import load_job
from eqpoincare.powerseries import Series, parse_machine, render_machine, series_eq_upto

JOBS = Path(__file__).resolve().parent.parent / "jobs"
SRC = JOBS.parent / "src"


def run(*args):
    return cli.main([str(a) for a in args])


def write_variant(tmp_path, mutate):
    with open(JOBS / "example1.json") as fh:
        doc = json.load(fh)
    mutate(doc)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(doc))
    return path


def test_validate_ok(capsys):
    assert run("validate", JOBS / "example1.json") == 0
    out = capsys.readouterr().out
    assert "validation ok" in out
    assert "curve orbit" in out  # strict-transform bookkeeping also ran


def test_validate_without_orbits(capsys, tmp_path):
    path = write_variant(tmp_path, lambda d: d.pop("orbits"))
    assert run("validate", path) == 0
    assert "bookkeeping not checked" in capsys.readouterr().out


def test_compute_machine_roundtrip(capsys):
    assert run("compute", JOBS / "example1.json", "--degree", 6,
               "--format", "machine") == 0
    data = json.loads(capsys.readouterr().out)
    series = parse_machine(data)
    direct = divisorial_poincare(load_job(JOBS / "example1.json").model, 6)
    ok, diff = series_eq_upto(series, direct, 6)
    assert ok, diff


def test_compute_curve_with_character(capsys):
    assert run("compute", JOBS / "example1.json", "--degree", 7,
               "--mode", "curve", "--character", "1",
               "--format", "machine") == 0
    series = parse_machine(json.loads(capsys.readouterr().out))
    assert set(series.terms) == {(1,), (4,), (7,)}


def test_compute_character_arity_error(capsys):
    assert run("compute", JOBS / "example1.json", "--degree", 5,
               "--character", "1,0") == 1
    assert "error:" in capsys.readouterr().err


def test_compute_curve_needs_curve_section(capsys):
    assert run("compute", JOBS / "single_blowup.json", "--degree", 5,
               "--mode", "curve") == 1
    assert "no curve section" in capsys.readouterr().err


def test_extract_to_file(tmp_path, capsys):
    out = tmp_path / "series.json"
    assert run("extract", JOBS / "example1.json", "--degree", 12,
               "--format", "machine", "--output", out) == 0
    series = parse_machine(json.loads(out.read_text()))
    job = load_job(JOBS / "example1.json")
    ok, diff = series_eq_upto(series, job.expected_series("extract", 12), 12)
    assert ok, diff


@pytest.mark.parametrize("name,degree", [
    ("example1", 80),
    ("example2", 80),
    ("example3", 50),
])
def test_extract_beyond_the_shipped_compute_degree(name, degree, capsys):
    # extract.compute_degree in the job file is not read
    assert run("extract", JOBS / f"{name}.json", "--degree", degree,
               "--format", "machine") == 0
    series = parse_machine(json.loads(capsys.readouterr().out))
    assert series.bound == degree
    job = load_job(JOBS / f"{name}.json")
    ok, diff = series_eq_upto(series, job.expected_series("extract", degree), degree)
    assert ok, diff


def test_extract_checks_divisibility(tmp_path, capsys):
    def halve(doc):
        for entry in doc["extract"]["plan"]:
            if not entry.get("drop"):
                entry["denominator"] = 2

    assert run("extract", write_variant(tmp_path, halve), "--degree", 6) == 1
    assert "not divisible" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "extract"])
def test_a_plan_that_does_not_divide_names_the_plan(command, tmp_path, capsys):
    def point_at_zero(doc):
        doc["strata"][0]["character"]["from_point"]["exponents"][0] = 0

    path = write_variant(tmp_path, point_at_zero)
    assert run(command, path, "--degree", 2) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: extract.plan: exponent 2 of variable 1 in term (2, 1) "
                          "is not divisible by 3"), err


@pytest.mark.parametrize("command", ["validate", "compute", "check", "extract"])
def test_a_graph_that_does_not_blow_down_names_the_graph(command, tmp_path, capsys):
    def raise_one(doc):
        doc["graph"]["components"][1]["self_intersection"] = -1

    argv = [] if command == "validate" else ["--degree", 2]
    assert run(command, write_variant(tmp_path, raise_one), *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: graph: intersection matrix determinant is 1, "
                          "expected -1"), err
    assert "not a blow-up composition" in err


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_a_coefficient_past_the_digit_limit_is_a_degree_error(fmt, tmp_path, capsys):
    doc = copy.deepcopy(SHIPPED["single_blowup"])
    doc["strata"][0]["chi"] = 10**12
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    # C(k + 10^12 - 1, k) has about 12 k digits: past the limit by k = 600
    assert run("compute", path, "--degree", 600, "--format", fmt) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: --degree: a coefficient has over {sys.get_int_max_str_digits()} "
                   "digits, the interpreter's limit for writing an integer\n")


def test_running_out_of_memory_is_a_degree_error(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "divisorial_poincare", exhausted)
    assert run("compute", JOBS / "single_blowup.json", "--degree", 10**8) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --degree {10**8}: out of memory\n"


@pytest.mark.parametrize("command,code,err", [
    ("validate", 0, ""),
    # every monomial has the trivial character, so the count disagrees
    ("check", 2, "check failed\n"),
])
def test_unfaithful_oracle_weights_are_a_line_not_a_warning(command, code, err,
                                                            tmp_path, capsys):
    path = write_variant(tmp_path, lambda d: d["oracle"].update(weights=[3, 3]))
    argv = [] if command == "validate" else ["--degree", 4]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command, path, *argv) == code
    out = capsys.readouterr()
    lines = [line for line in out.out.splitlines() if line.startswith("oracle.weights:")]
    assert lines == ["oracle.weights: (3, 3) share the factor 3 with the order 3; "
                     "the action is not faithful on monomials"]
    assert out.err == err


@pytest.mark.parametrize("name,degree", [
    ("example1", 8),
    ("example2", 8),
    ("example3", 8),
    ("example1", 16),
    ("example2", 14),
    ("example3", 12),
    ("single_blowup", 12),
    ("node_curve", 10),
])
def test_check_fixtures_agree(name, degree, capsys):
    assert run("check", JOBS / f"{name}.json", "--degree", degree) == 0
    out = capsys.readouterr().out
    assert "FIRST DIFFERENCE" not in out
    assert "agree through degree" in out


def test_check_oracle_fixture_agrees(capsys):
    # restricted chain small enough for the 4-variable monomial count
    assert run("check", JOBS / "example2_oracle.json", "--degree", 6) == 0
    assert "monomial count" in capsys.readouterr().out


def test_check_expands_each_engine_series_once(monkeypatch, capsys):
    calls = []

    def counted(model, bound):
        calls.append(bound)
        return divisorial_poincare(model, bound)

    monkeypatch.setattr(cli, "divisorial_poincare", counted)
    # compared against the expected factors and the monomial count
    assert run("check", JOBS / "example2_oracle.json", "--degree", 6) == 0
    assert calls == [6]
    assert capsys.readouterr().out.count("divisorial engine vs") == 2
    # quotient extraction expands the factors in its own output variables
    for name, degree in (("example1", 8), ("example2", 14), ("example3", 12)):
        calls.clear()
        assert run("check", JOBS / f"{name}.json", "--degree", degree) == 0
        assert calls == [degree]
        out = capsys.readouterr().out
        assert "check quotient extraction vs expected factors: agree" in out

    curves = []

    def counted_curve(model, branches, adjusted, bound):
        curves.append(bound)
        return curve_poincare(model, branches, adjusted, bound)

    monkeypatch.setattr(cli, "curve_poincare", counted_curve)
    assert run("check", JOBS / "example1.json", "--degree", 8) == 0
    assert curves == [8]
    assert capsys.readouterr().out.count("curve engine vs") == 2


def star_job(tmp_path):
    """example3 with the first chosen component only: the one-index star."""
    with open(JOBS / "example3.json") as fh:
        doc = json.load(fh)
    doc["chosen"] = ["E0"]
    del doc["extract"], doc["expected"]
    path = tmp_path / "star.json"
    path.write_text(json.dumps(doc))
    return path


def test_product_route_multiplies_no_series(monkeypatch, tmp_path, capsys):
    calls = []
    mul = Series.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Series, "__mul__", counted)
    monkeypatch.setattr(Series, "__rmul__", counted)
    assert run("compute", star_job(tmp_path), "--degree", 600) == 0
    assert run("check", JOBS / "example1.json", "--degree", 16) == 0
    assert calls == []
    Series.one(1, 3) * Series.one(1, 3)  # the counter sees a product
    assert len(calls) == 1


def test_engine_series_are_adopted_without_a_per_term_check(monkeypatch, tmp_path, capsys):
    # expand and the character projections hand their tables to the
    # series as built; Series.__init__ would check every coefficient again
    calls = []
    accept = Series._accept_coeff

    def counted(self, c):
        calls.append(c)
        return accept(self, c)

    monkeypatch.setattr(Series, "_accept_coeff", counted)
    example1 = JOBS / "example1.json"
    for args in [
        ("compute", example1, "--degree", 128),
        ("compute", example1, "--degree", 128, "--format", "machine"),
        ("compute", example1, "--degree", 128, "--character", 1),
        ("compute", example1, "--mode", "curve", "--degree", 1000),
        ("compute", star_job(tmp_path), "--degree", 600),
    ]:
        assert run(*args) == 0
    assert calls == []
    Series(1, 3, None, {(0,): 1})  # the counter sees a checked coefficient
    assert calls == [1]


JOB_NAMES = sorted(p.stem for p in JOBS.glob("*.json"))


@pytest.mark.parametrize("name", JOB_NAMES)
def test_check_passes_at_every_degree_through_40(name, capsys):
    failed = [d for d in range(41) if run("check", JOBS / f"{name}.json", "--degree", d)]
    assert failed == []


@pytest.mark.parametrize("component", [1, 2, 3])
def test_repeated_chosen_component_is_the_same_valuation(component, tmp_path, capsys):
    # P(t1, t2) with E chosen twice is the one-index series at t1 * t2
    def chosen(ids):
        def mutate(doc):
            doc["chosen"] = ids
            del doc["extract"], doc["expected"]
        return mutate

    degree = 12
    one = divisorial_poincare(
        load_job(write_variant(tmp_path, chosen([component]))).model, degree)
    path = write_variant(tmp_path, chosen([component, component]))
    two = divisorial_poincare(load_job(path).model, 2 * degree)
    assert len(one.terms) > 1
    assert two.terms == {(k, k): c for (k,), c in one.terms.items()}
    assert run("check", path, "--degree", 2 * degree) == 0
    out = capsys.readouterr().out
    assert "check divisorial engine vs monomial count: agree" in out


def test_explain_lists_the_factors(capsys):
    assert run("explain", JOBS / "example1.json") == 0
    assert capsys.readouterr().out.splitlines() == [
        "divisorial factors (1 - u^l t^m)^(-chi), t indexed by [1, 2, 3]:",
        "  label='y-axis point' carrier=[3] chi=1 m=(1, 1, 2) l=(2,)",
        "  label='x-axis point' carrier=[1] chi=1 m=(2, 1, 1) l=(1,)",
        "curve factors (1 - u^l t^m)^(-chi), t indexed by [3]:",
        "  label='x-axis point' carrier=[1] chi=1 m=(1,) l=(1,)",
    ]


def test_check_requires_some_comparison(tmp_path, capsys):
    def strip(doc):
        del doc["expected"]
        del doc["oracle"]
    path = write_variant(tmp_path, strip)
    assert run("check", path, "--degree", 5) == 1
    assert "nothing to check" in capsys.readouterr().err


def test_usage_error_maps_to_input_error(capsys):
    assert run("check", JOBS / "example1.json") == 1  # --degree missing
    assert "degree" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "subcommand" in capsys.readouterr().out.lower() or True


def test_negative_control_self_intersection(tmp_path, capsys):
    def perturb(doc):
        doc["graph"]["components"][1]["self_intersection"] = -2
    path = write_variant(tmp_path, perturb)
    assert run("validate", path) == 1
    assert "determinant" in capsys.readouterr().err


def test_negative_control_chi(tmp_path, capsys):
    def perturb(doc):
        doc["strata"][0]["chi"] = 2
    path = write_variant(tmp_path, perturb)
    assert run("validate", path) == 1
    out = capsys.readouterr()
    assert "MISMATCH" in out.out
    # check refuses to compare on top of a failed validation
    assert run("check", path, "--degree", 6) == 1


def test_validate_resolves_characters(tmp_path, capsys):
    def perturb(doc):
        doc["strata"][0]["character"]["exponents"] = [2]
    path = write_variant(tmp_path, perturb)
    assert run("validate", path) == 1
    out = capsys.readouterr()
    assert "declared character (2,) but derivation gives (1,)" in out.out
    assert "characters resolve" not in out.out
    assert "validation failed" in out.err


def test_closed_stdout_is_not_a_traceback():
    # 130 kB of text, more than a pipe holds, so the writer meets the
    # closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "eqpoincare.cli", "compute",
         str(JOBS / "example1.json"), "--degree", "400"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err, err


def test_negative_control_expected_factor(tmp_path, capsys):
    def perturb(doc):
        doc["expected"]["divisorial"][0]["exponent"] = [2, 1, 2]
    path = write_variant(tmp_path, perturb)
    assert run("check", path, "--degree", 6) == 2
    assert "FIRST DIFFERENCE" in capsys.readouterr().out


def write_graph_job(tmp_path, components, edges, first):
    """A trivial-group job on the given graph, one stratum per component."""
    doc = {
        "ring": {"orders": []},
        "graph": {
            "components": [{"id": c, "self_intersection": k} for c, k in components],
            "edges": [list(e) for e in edges],
            "first_blown_up": first,
        },
        "chosen": [first],
        "strata": [{"carrier": [c], "chi": 0} for c, _ in components],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    return path


def test_validate_rejects_e8(tmp_path, capsys):
    # negative definite with determinant 1, but no (-1)-curve to blow down
    path = write_graph_job(
        tmp_path,
        [(c, -2) for c in "ABCDEFGH"],
        list(zip("ABCDEF", "BCDEFG")) + [("C", "H")],
        "A",
    )
    assert run("validate", path) == 1
    assert "does not blow down" in capsys.readouterr().err


def test_validate_rejects_a_cycle(tmp_path, capsys):
    path = write_graph_job(
        tmp_path,
        [(0, -2), (1, -3), (2, -2), (3, -2)],
        [(0, 1), (1, 2), (2, 0), (2, 3)],
        0,
    )
    assert run("validate", path) == 1
    assert "cycle" in capsys.readouterr().err


def test_validate_rejects_wrong_first_blown_up(tmp_path, capsys):
    path = write_variant(tmp_path, lambda d: d["graph"].update(first_blown_up=1))
    assert run("validate", path) == 1
    assert "first_blown_up is 1 but the graph blows down to 2" in capsys.readouterr().err


@pytest.mark.parametrize("mutate,field", [
    (lambda d: d["strata"].__setitem__(0, 5), "strata[0]"),
    (lambda d: d["graph"]["components"][0].update(id=[1]), "graph.components[0].id"),
    (lambda d: d.update(expected=[]), "expected"),
    (lambda d: d["strata"][0].update(chi=True), "strata[0].chi"),
    (lambda d: d["oracle"].update(sigma_x=[3]), "oracle.sigma_x"),
    (lambda d: d["oracle"].update(sigma_x=99), "oracle.sigma_x: component 99 unknown"),
    (lambda d: d["oracle"].pop("sigma_y"), "oracle.sigma_y: missing"),
    (lambda d: [d["oracle"].pop(k) for k in ("sigma_x", "sigma_y", "curve_axes")],
     "oracle: needs sigma_x and sigma_y, or curve_axes"),
    (lambda d: (d["curve"].update(branches=[]), d["oracle"].update(curve_axes=[])),
     "oracle.curve_axes: lists no axes"),
    (lambda d: d["expected"]["divisorial"][1].update(exponent=[1, -1, 2]),
     "expected.divisorial[1]: exponent (1, -1, 2) has a negative entry"),
    (lambda d: d["expected"]["extract"][0].update(exponent=[0, 0]),
     "expected.extract[0]: exponent (0, 0) is zero with power 1"),
    (lambda d: d["extract"]["plan"][0].update(output=10 ** 12), "extract.plan"),
    (lambda d: d["extract"]["plan"][0].update(output=10 ** 8), "extract.plan"),
], ids=["non-object stratum", "list id", "expected not an object", "bool chi",
        "list oracle id", "unknown oracle id", "sigma without its pair",
        "oracle with no axes", "empty curve axes", "negative expected exponent",
        "zero expected exponent", "plan output 10^12", "plan output 10^8"])
def test_malformed_job_is_an_input_error(tmp_path, capsys, mutate, field):
    path = write_variant(tmp_path, mutate)
    assert run("validate", path) == 1
    assert field in capsys.readouterr().err


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    cli.build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = JOBS / "example1.json"
    per_call = []
    for argv in (("validate", path), ("compute", path, "--degree", 4),
                 ("check", path, "--degree", 4), ("validate", path)):
        before = len(built)
        assert run(*argv) == 0
        per_call.append(len(built) - before)
    # the main parser and its five subcommand parsers, on the first call only
    assert per_call == [6, 0, 0, 0]


def compute_alone(*argv):
    """stdout of one call through a parser that has served no other."""
    cli.build_parser.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(*argv) == 0
    return out.getvalue()


def test_consecutive_calls_share_no_options(capsys):
    path = JOBS / "example1.json"
    plain = ("compute", path, "--degree", 3)
    alone = compute_alone(*plain)
    assert run(*plain, "--format", "machine", "--character", "1") == 0
    restricted = parse_machine(json.loads(capsys.readouterr().out))
    assert run(*plain) == 0
    assert capsys.readouterr().out == alone
    assert not alone.lstrip().startswith("{")  # text, not the machine format
    full = divisorial_poincare(load_job(path).model, 3)
    assert restricted.terms.keys() < full.terms.keys()


def test_usage_error_and_help_leave_the_next_call_alone(capsys):
    path = JOBS / "example1.json"
    plain = ("compute", path, "--degree", 3)
    alone = compute_alone(*plain)
    assert run("compute", path, "--degree", 3, "--format", "yaml") == 1
    assert "invalid choice" in capsys.readouterr().err
    assert run(*plain) == 0
    assert capsys.readouterr().out == alone
    # help goes to the stdout of the moment, not the one the parser met
    helped = io.StringIO()
    with contextlib.redirect_stdout(helped):
        assert run("compute", "--help") == 0
    assert "--character" in helped.getvalue()
    assert run(*plain) == 0
    assert capsys.readouterr().out == alone


def series_of(command, name, degree, character=None):
    """The series ``command`` writes, computed without the CLI."""
    job = load_job(JOBS / f"{name}.json")
    if command == "extract":
        return quotient_extract(*plan_poincare(job.model, job.extract, degree))
    series = divisorial_poincare(job.model, degree)
    if character is not None:
        series = restrict_to_character(series, job.model.ring.reduce(character))
    return series


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("command,name,degree,character", [
    ("compute", "example1", 40, None),
    ("compute", "example1", 40, (1,)),
    ("extract", "example3", 12, None),
])
def test_output_file_holds_the_bytes_of_stdout(command, name, degree, character, fmt,
                                               tmp_path, capsys):
    argv = [command, JOBS / f"{name}.json", "--degree", degree, "--format", fmt]
    if character is not None:
        argv += ["--character", ",".join(map(str, character))]
    assert run(*argv) == 0
    out = capsys.readouterr().out
    path = tmp_path / "series.out"
    assert run(*argv, "--output", path) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()
    if fmt == "machine":
        series = series_of(command, name, degree, character)
        assert out == json.dumps(render_machine(series), sort_keys=True) + "\n"


SHIPPED = {path.stem: json.loads(path.read_text()) for path in sorted(JOBS.glob("*.json"))}


def fields(node, at=()):
    """The path of every key and list item below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield at + (key,)
        if isinstance(value, (dict, list)):
            yield from fields(value, at + (key,))


def value_at(doc, at):
    for key in at:
        doc = doc[key]
    return doc


@st.composite
def mutated_runs(draw):
    """One field of one shipped job deleted, retyped or made huge, and the
    argv of a command at a small degree."""
    doc = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    kind = draw(st.sampled_from(["delete", "retype", "huge"]))
    at = draw(st.sampled_from([at for at in fields(doc)
                               if kind != "huge" or type(value_at(doc, at)) is int]))
    parent = value_at(doc, at[:-1])
    if kind == "delete":
        del parent[at[-1]]
    elif kind == "retype":
        parent[at[-1]] = draw(st.sampled_from(["x", None, True, 1.5, [], {}, [1], -1, 0]))
    else:
        parent[at[-1]] = draw(st.sampled_from([10**12, -10**12]))
    command = draw(st.sampled_from(["validate", "compute", "curve", "check", "extract",
                                    "explain"]))
    degree = ["--degree", str(draw(st.integers(0, 4)))]
    argv = {
        "validate": ["validate"],
        "explain": ["explain"],
        "compute": ["compute", *degree],
        "curve": ["compute", *degree, "--mode", "curve"],
        "check": ["check", *degree],
        "extract": ["extract", *degree],
    }[command]
    return doc, argv


@seed(22)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_runs())
def test_mutated_shipped_jobs_exit_with_a_documented_code(tmp_path, run_args):
    doc, argv = run_args
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([argv[0], str(path), *argv[1:]])
    assert code in (0, 1, 2)


@pytest.mark.parametrize("name,mutate,command,code", [
    ("single_blowup", lambda d: d["strata"][0].update(chi=10**12), "compute", 0),
    ("single_blowup", lambda d: d["strata"][0].update(chi=10**12), "check", 1),
    ("example1", lambda d: d["expected"]["divisorial"][0].update(power=10**12), "check", 2),
    ("example2", lambda d: d["expected"]["extract"][0].update(power=10**12), "check", 0),
], ids=["chi compute", "chi check", "divisorial power", "extract power"])
def test_a_huge_power_takes_no_longer_than_the_degree(name, mutate, command, code,
                                                       tmp_path, capsys):
    doc = copy.deepcopy(SHIPPED[name])
    mutate(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert run(command, path, "--degree", 4) == code
    assert time.perf_counter() - start < 10  # one pass per unit of power would never end
    out = capsys.readouterr().out
    if command == "compute":
        p = 10**12
        assert out.splitlines() == [f"{math.comb(k + p - 1, k)} * u^() * t^({k})"
                                    for k in range(5)]
    elif code == 1:
        assert "chi sum 1000000000000, expected 2 [MISMATCH]" in out
    elif code == 2:
        assert "vs -1000000000000*u^(1,)" in out


def test_validate_output_does_not_depend_on_the_string_hash_seed(tmp_path):
    with open(JOBS / "example3.json") as fh:
        doc = json.load(fh)
    doc["orbits"] = []
    path = tmp_path / "no_orbits.json"
    path.write_text(json.dumps(doc))
    outs = []
    for hash_seed in ("0", "5"):
        proc = subprocess.run(
            [sys.executable, "-m", "eqpoincare.cli", "validate", str(path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 1, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    # the components in carrier order
    assert "stratum 'tau points': carrier components ['B2', 'B5'] in no orbit" in outs[0]
    assert "stratum 'tip 2 open': carrier components ['B2', 'B5'] in no orbit" in outs[0]


# The stdout of each shipped job's series commands, as sha256 digests of the
# bytes written before the writers were rewritten to format a whole series at
# once.  A case is "job kind degree format": kind is the divisorial or curve
# series of `compute`, one `--character` of it, or `extract`.
CHARACTER = {"example1": "1", "example2": "2", "example2_oracle": "3",
             "example3": "1,0", "node_curve": "", "single_blowup": ""}
OUTPUT_SHA256 = {
    "example1 divisorial 25 text":
        "17459d86d34f526f78d559752d714ea7851d97e3ffea90d252358308f52bcb4a",
    "example1 divisorial 25 machine":
        "76dce505c9733cb7819a718629e33edfe73f0144243004834fa359192233b13b",
    "example1 divisorial 120 text":
        "2ebde384713f56c95bc756a028020925ef4c97bee086e9d2281ec1bf6982ae2f",
    "example1 divisorial 120 machine":
        "735b0426151e2e476f5a6ac86ef56be3b075728bd811fb9251a477077f2bdadb",
    "example1 curve 25 text":
        "3bba9a007a1b2b1991210b21e974f460d61b1affcd030ce0f9bf501481728bb3",
    "example1 curve 25 machine":
        "738446be71a522da71cf0c0447657583d4faac0b31feae951d6829dfe6cfd774",
    "example1 curve 120 text":
        "9b16318558dac18ab07f6e5901e4ee9211bce0632c9f7461685b0ed66e4887ba",
    "example1 curve 120 machine":
        "22c4a0c255ab73b3883fdd40f77765d5972cf4228f086971412770ada77583db",
    "example1 character 25 text":
        "e5c6fc6235e5148005934689c98ed3c3c21c061ed64359a245f5eb87d9566d99",
    "example1 character 25 machine":
        "5425c10e2c9e0eb63bda923bb9c602a05c68789d98ed56c8ddd90b969eada475",
    "example1 character 120 text":
        "39f8964caae51521874fae32e9fdbcdcd4d074d3eeb5abd905614a33fc27217d",
    "example1 character 120 machine":
        "6cb3104b0b02fb26e3f177516b5581bd98b2dd35ee75efdbd989a671b4987332",
    "example1 extract 25 text":
        "044418c976f5c3e3c762f8d3f14d25c0625ac25c5c288f9e124a4923f1c779a7",
    "example1 extract 25 machine":
        "74d0b84493cf793d4e009499e0a81e289fe9f5874735976efca2d8b0e904419b",
    "example1 extract 120 text":
        "247ca90e88af485399bb79cefba69870176fd2a1551303069d40ab091ee890c2",
    "example1 extract 120 machine":
        "47186b8a889fdbdea93653a83c3f339153f3f40ea4227b40eb47d8b561ad8004",
    "example2 divisorial 25 text":
        "dc1432c117456e659b3c4f636ecffc9b2708a5f1386db556177452ff0d0a4f99",
    "example2 divisorial 25 machine":
        "8d9c080667de99fe7da37a76ad17ee23ba50e807275166be458abddb46154f9f",
    "example2 divisorial 120 text":
        "4c9124e4540a542c3246a8dcb92dcf7d876890e0902539caed8413aba34aaf67",
    "example2 divisorial 120 machine":
        "c6581486cf247244c251677f52d7153a58530bcb0e63e954effb77b330754334",
    "example2 character 25 text":
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "example2 character 25 machine":
        "9773d795411552b7ef1d5d88604f0028667850ffc01836d03885399820fefb74",
    "example2 character 120 text":
        "fbd7bb8a209bb4354281826a23c27dcac38a8bc722ee48587d53576248ef1938",
    "example2 character 120 machine":
        "7eafffccf0d88a5a62d700df5001a0017e4811530054d69b1bd059b6cd4a38b8",
    "example2 extract 25 text":
        "bc953995a6b70a6942831ca88d9f25a8a5eed13a2e5e042cd1bdd11ba9191be3",
    "example2 extract 25 machine":
        "1336146ba271b4b3595faa8fa39d69513e00bbed3ed26966404aa6f2cc95e7cb",
    "example2 extract 120 text":
        "ee3a3c4b2e2249ee8cb397c6601f985e97adb15fd85dec57b44ac3b6d6b57926",
    "example2 extract 120 machine":
        "a0d21b8d7c195ad626cd34cc46e989ca1ac62d72ed1ad8492511dfe3e1c031c4",
    "example2_oracle divisorial 25 text":
        "2367b6a1da6b2522d0c332e024270b87bfed2ba7b27a097f3807ce44428e562c",
    "example2_oracle divisorial 25 machine":
        "e0f062f258874c9278f19b2cafde4a0523b744fa22dac4c50c5956fbcdf7ad83",
    "example2_oracle divisorial 120 text":
        "9036ffb435b4843b5a1f27626a19124dfe987b6311416f37d24347c8a362db23",
    "example2_oracle divisorial 120 machine":
        "1c336a33b129a28dd21ea066fcc9a92a18b56c12555feed2b7dab7a9899db740",
    "example2_oracle character 25 text":
        "a4b891ddde3eafd5768e31c561fad03047e8e0143e607031d597ff6991f71c4b",
    "example2_oracle character 25 machine":
        "28a554b0a774b8e809ec7a40c054640949afe819558fc20211eedea6825b3bab",
    "example2_oracle character 120 text":
        "e58d483c0a2072d32043b548aea4c05ae8ddcb9f72f028751eb28f0dcb0761af",
    "example2_oracle character 120 machine":
        "970f6af38d871ab4e7bed4c7ef12123dd694c2b1597b79603294b8d1b0ec473e",
    "example3 divisorial 25 text":
        "c16e70ca5cfac24093875fe6f40d2baee1e786c872adda5864e8a5c44ae839dc",
    "example3 divisorial 25 machine":
        "be2e918a2be149df06443ddbc4169ea11b2a504f5fcd2a5f4ed5a7b67be0aa01",
    "example3 divisorial 120 text":
        "f8d536d127e8667534e03380555da51a1b2c8ca3497fecba8d9c24685f4cbc31",
    "example3 divisorial 120 machine":
        "e6f34184b2d2f4718ab400465b4741e81b2aea778cfc7d5ac5f0fc8df808f0ac",
    "example3 character 25 text":
        "64481ca98514d0f81c8c610b64044d9afff05f806dc0d82735010d0bf4cf86c1",
    "example3 character 25 machine":
        "44a4cb779dc0a02a79e11ff19cb228a0b0c4a2b4ef12971f27afc4bd99bf7f91",
    "example3 character 120 text":
        "76a8cbd313e43c9428cb3690eb55a79a2a8ffd135ca35e7d97b28f546aa4bff5",
    "example3 character 120 machine":
        "88a14390aef15bc5abee02be00a629168a3ac81c69f60c74d19a350c4450fb0b",
    "example3 extract 25 text":
        "959a12566acbb2978007e7118f5d441b532a211f3826b320c2d7ba7558d1cbba",
    "example3 extract 25 machine":
        "23cc3b13b80a99710a3c7fca1da9927246fc73959132b48a2dd601845d576a06",
    "example3 extract 120 text":
        "f00d62afb6770e19fd37d30717ec91866d05150c56cf6644b0250f9654d83684",
    "example3 extract 120 machine":
        "9d5bb3ca55c375add394abdaf0d0855a263d41afdf08316e1c8d992e47e062da",
    "node_curve divisorial 25 text":
        "c99e3830f0d1f36e1a9c8989ec3ca375752850090afed36e57baddcfc7313bc8",
    "node_curve divisorial 25 machine":
        "a19a1a0e81f06e8435e789dd7b8792729bac5b059704a696a7c007f2a83658fd",
    "node_curve divisorial 120 text":
        "ed2c304e1da1127d54419a30b5968a6b803d843aa1f2eab76dbb7d55f2f6aa83",
    "node_curve divisorial 120 machine":
        "a8d4c881472db923533d4ef15b1ee8dc603039fd22b77687d53d3de8cbc6470a",
    "node_curve curve 25 text":
        "f1673182b78bf2b26279b5c2799aace92801698aeafe4e95cefc33fbeb1caef2",
    "node_curve curve 25 machine":
        "dc8fee280ee84621ee9bdab556c1c19a0ae8603b87e6cb282be9a129a3416107",
    "node_curve curve 120 text":
        "f1673182b78bf2b26279b5c2799aace92801698aeafe4e95cefc33fbeb1caef2",
    "node_curve curve 120 machine":
        "5ccf5260f3221a0da6b23c9aaefacc9495338ec6d69e24791aba221e7d0ccd7d",
    "node_curve character 25 text":
        "1feae7835729a1ec49f3aea648cc423bf2c074e7e6af7b06543801da4ad17b78",
    "node_curve character 25 machine":
        "58deb90a3e0c31f2bb673be68382311622990a5dc50cd2c3230ad3e221c5be51",
    "node_curve character 120 text":
        "13435d92beffda4134485f6ea3131d720c1093af5c05b9dc74b07327c4b6fb01",
    "node_curve character 120 machine":
        "dfbbcf87e68ea7799fbb2f8412774e3dcc3a5c9ae8e1b5dcefb82579a9dd143f",
    "single_blowup divisorial 25 text":
        "c99e3830f0d1f36e1a9c8989ec3ca375752850090afed36e57baddcfc7313bc8",
    "single_blowup divisorial 25 machine":
        "a19a1a0e81f06e8435e789dd7b8792729bac5b059704a696a7c007f2a83658fd",
    "single_blowup divisorial 120 text":
        "ed2c304e1da1127d54419a30b5968a6b803d843aa1f2eab76dbb7d55f2f6aa83",
    "single_blowup divisorial 120 machine":
        "a8d4c881472db923533d4ef15b1ee8dc603039fd22b77687d53d3de8cbc6470a",
    "single_blowup character 25 text":
        "1feae7835729a1ec49f3aea648cc423bf2c074e7e6af7b06543801da4ad17b78",
    "single_blowup character 25 machine":
        "58deb90a3e0c31f2bb673be68382311622990a5dc50cd2c3230ad3e221c5be51",
    "single_blowup character 120 text":
        "13435d92beffda4134485f6ea3131d720c1093af5c05b9dc74b07327c4b6fb01",
    "single_blowup character 120 machine":
        "dfbbcf87e68ea7799fbb2f8412774e3dcc3a5c9ae8e1b5dcefb82579a9dd143f",
}


@pytest.mark.parametrize("case", sorted(OUTPUT_SHA256))
def test_shipped_output_bytes_are_frozen(case, capsys):
    name, kind, degree, fmt = case.split()
    argv = ["extract" if kind == "extract" else "compute", JOBS / f"{name}.json",
            "--degree", degree, "--format", fmt]
    if kind == "curve":
        argv += ["--mode", "curve"]
    elif kind == "character":
        argv += ["--character", CHARACTER[name]]
    assert run(*argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == OUTPUT_SHA256[case]
