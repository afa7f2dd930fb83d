import argparse
import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import time
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
