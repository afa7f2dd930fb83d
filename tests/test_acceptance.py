"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Closed-form expectations are hard-coded here on purpose, independent of
the ``expected`` blocks inside the job files, so editing a fixture cannot
silently weaken this gate.
"""

import json
import random
import time
from pathlib import Path

import pytest

from blowup import random_blowup_graph
from eqpoincare import cli
from eqpoincare.engine import (
    augmented_series,
    curve_poincare,
    divisorial_poincare,
    quotient_extract,
    restrict_to_character,
)
from eqpoincare.jobs import load_job
from eqpoincare.oracle import oracle_poincare
from eqpoincare.powerseries import Series, SubstitutionPlan, factor_power, series_eq_upto
from eqpoincare.resolution import integer_determinant
from eqpoincare.strata import Stratum, StratumModel, curve_strata, stratum_multiplicities
from substitution import extract_by_substitution, substitute_and_rescale

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def report(capsys, num, name, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")


def expand(factors, num_vars, bound, ring=None):
    """Product of (1 - c * t^m)^p factors given as (c, m, p) triples."""
    out = Series.one(num_vars, bound, ring)
    for coeff, exponent, power in factors:
        out = out * factor_power(coeff, exponent, power,
                                 num_vars=num_vars, bound=bound, ring=ring)
    return out


def eq(a, b, degree):
    same, diff = series_eq_upto(a, b, degree)
    return same, diff


def test_criterion_1_divisorial_closed_form(capsys):
    job = load_job(JOBS / "example1.json")
    ring = job.model.ring
    start = time.monotonic()
    got = divisorial_poincare(job.model, 12)
    elapsed = time.monotonic() - start
    want = expand(
        [(ring.monomial((1,)), (2, 1, 1), -1),
         (ring.monomial((2,)), (1, 1, 2), -1)],
        3, 12, ring,
    )
    same, diff = eq(got, want, 12)
    ok = same and elapsed < 1.0
    report(capsys, 1, "three-chain divisorial series", ok)
    assert same, diff
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_a2_extraction(capsys):
    job = load_job(JOBS / "example1.json")
    full = divisorial_poincare(job.model, 48)
    plan = SubstitutionPlan(((0, 3), None, (1, 3)))
    got = extract_by_substitution(full, plan)
    got = got.truncate(12)
    want = expand(
        [(1, (3, 3), 1), (1, (2, 1), -1), (1, (1, 2), -1), (1, (1, 1), -1)],
        2, 12,
    )
    same, diff = eq(got, want, 12)
    # the route extract runs: the plan applied to the factors
    direct_same, direct_diff = eq(quotient_extract(job.model, plan, 12), want, 12)
    report(capsys, 2, "A2 quotient extraction", same and direct_same)
    assert same, diff
    assert direct_same, direct_diff


def test_criterion_3_nine_chain(capsys):
    start = time.monotonic()
    job = load_job(JOBS / "example2.json")
    model = job.model
    m = model.multiplicities()
    row1 = m.row(1, model.chosen)
    row9 = m.row(9, model.chosen)
    rows_ok = row1 == (4, 3, 2, 3, 1, 2, 1, 1, 1) and row9 == tuple(reversed(row1))

    ring = model.ring
    got = divisorial_poincare(model, 8)
    want = expand(
        [(ring.monomial((1,)), row1, -1), (ring.monomial((4,)), row9, -1)],
        9, 8, ring,
    )
    series_ok, diff = eq(got, want, 8)

    full = divisorial_poincare(model, 72)
    plan = SubstitutionPlan(
        ((0, 5), None, None, (1, 5), None, (2, 5), None, None, (3, 5))
    )
    extracted = extract_by_substitution(full, plan).truncate(8)
    want_a4 = expand(
        [(1, (5, 5, 5, 5), 1), (1, (1, 1, 1, 1), -1),
         (1, (1, 2, 3, 4), -1), (1, (4, 3, 2, 1), -1)],
        4, 8,
    )
    a4_ok, a4_diff = eq(extracted, want_a4, 8)
    direct_ok, direct_diff = eq(quotient_extract(model, plan, 8), want_a4, 8)
    elapsed = time.monotonic() - start

    ok = rows_ok and series_ok and a4_ok and direct_ok and elapsed < 10.0
    report(capsys, 3, "nine-chain rows, series and A4 extraction", ok)
    assert rows_ok, (row1, row9)
    assert series_ok, diff
    assert a4_ok, a4_diff
    assert direct_ok, direct_diff
    assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_4_star(capsys):
    job = load_job(JOBS / "example3.json")
    model = job.model
    ring = model.ring
    by_label = {s.label: s for s in model.strata}
    v_sigma = stratum_multiplicities(model, by_label["sigma points"], model.chosen)
    v_tau = stratum_multiplicities(model, by_label["tau points"], model.chosen)
    v_ts = stratum_multiplicities(model, by_label["tausigma points"], model.chosen)
    v_central = stratum_multiplicities(model, by_label["central open"], model.chosen)
    vectors_ok = (
        v_central == (4,) * 7
        and v_sigma == (2, 3, 4, 2, 2, 2, 2)
        and v_tau == (2, 2, 2, 3, 4, 2, 2)
        and v_ts == (2, 2, 2, 2, 2, 3, 4)
    )

    got = divisorial_poincare(model, 8)
    want = expand(
        [(ring.one(), v_central, 1),
         (ring.monomial((0, 1)), v_sigma, -1),
         (ring.monomial((1, 0)), v_tau, -1),
         (ring.monomial((1, 1)), v_ts, -1)],
        7, 8, ring,
    )
    series_ok, diff = eq(got, want, 8)

    full = divisorial_poincare(model, 48)
    plan = SubstitutionPlan(((0, 2), None, (1, 4), None, (2, 4), None, (3, 4)))
    extracted = extract_by_substitution(full, plan).truncate(8)
    want_d4 = expand(
        [(1, (2, 1, 1, 1), 1), (-1, (3, 2, 2, 2), 1),
         (1, (2, 2, 1, 1), -1), (1, (2, 1, 2, 1), -1), (1, (2, 1, 1, 2), -1)],
        4, 8,
    )
    d4_ok, d4_diff = eq(extracted, want_d4, 8)
    direct_ok, direct_diff = eq(quotient_extract(model, plan, 8), want_d4, 8)

    ok = vectors_ok and series_ok and d4_ok and direct_ok
    report(capsys, 4, "thirteen-component star and D4 extraction", ok)
    assert vectors_ok, (v_central, v_sigma, v_tau, v_ts)
    assert series_ok, diff
    assert d4_ok, d4_diff
    assert direct_ok, direct_diff


def test_criterion_5_oracle_equivalence(capsys):
    start = time.monotonic()
    results = []
    for name, degree in (("example1", 10), ("example2_oracle", 8)):
        job = load_job(JOBS / f"{name}.json")
        engine = divisorial_poincare(job.model, degree)
        oracle = oracle_poincare(job.oracle, job.model, degree)
        whole_same, diff = eq(engine, oracle, degree)
        per_char = all(
            eq(restrict_to_character(engine, alpha),
               restrict_to_character(oracle, alpha), degree)[0]
            for alpha in job.model.ring.characters()
        )
        results.append((name, whole_same and per_char, diff))
    elapsed = time.monotonic() - start
    ok = all(r[1] for r in results) and elapsed < 30.0
    report(capsys, 5, "brute-force count equals engine per character", ok)
    for name, same, diff in results:
        assert same, (name, diff)
    assert elapsed < 30.0, f"took {elapsed:.3f}s"


def test_criterion_6_single_blowup(capsys):
    job = load_job(JOBS / "single_blowup.json")
    engine = divisorial_poincare(job.model, 20)
    oracle = oracle_poincare(job.oracle, job.model, 20)
    engine_ok = all(engine.coefficient((v,)) == v + 1 for v in range(21))
    oracle_ok = all(oracle.coefficient((v,)) == v + 1 for v in range(21))
    ok = engine_ok and oracle_ok
    report(capsys, 6, "single blow-up coefficients v+1", ok)
    assert engine_ok
    assert oracle_ok


def test_criterion_7_curve_fixtures(capsys):
    job = load_job(JOBS / "example1.json")
    ring = job.model.ring
    adjusted = curve_strata(job.model, job.curve.removed_points)
    engine = curve_poincare(job.model, job.curve.branches, adjusted, 10)
    oracle = oracle_poincare(job.oracle, job.model, 10, mode="curve")
    want = expand([(ring.monomial((1,)), (1,), -1)], 1, 10, ring)
    axis_engine, d1 = eq(engine, want, 10)
    axis_oracle, d2 = eq(oracle, want, 10)

    node = load_job(JOBS / "node_curve.json")
    node_adjusted = curve_strata(node.model, node.curve.removed_points)
    node_engine = curve_poincare(node.model, node.curve.branches, node_adjusted, 10)
    node_oracle = oracle_poincare(node.oracle, node.model, 10, mode="curve")
    one = Series.one(2, 10, node.model.ring)
    node_ok = eq(node_engine, one, 10)[0] and eq(node_oracle, one, 10)[0]

    ok = axis_engine and axis_oracle and node_ok
    report(capsys, 7, "curve fixtures, both routes", ok)
    assert axis_engine, d1
    assert axis_oracle, d2
    assert node_ok


def test_criterion_8_property_suites(capsys):
    checks = {}

    # refinement invariance
    job = load_job(JOBS / "example1.json")
    model = job.model
    strata = list(model.strata)
    first = strata[0]
    strata[0] = Stratum(first.carrier, 3, derivation=first.derivation)
    strata.append(Stratum(first.carrier, -2, derivation=first.derivation))
    refined = StratumModel(model.graph, model.ring, model.chosen, tuple(strata))
    checks["refinement"] = eq(
        divisorial_poincare(refined, 8), divisorial_poincare(model, 8), 8
    )[0]

    # specialization: set middle variable to 1 vs recomputing with it dropped
    full = divisorial_poincare(model, 12)
    specialized = substitute_and_rescale(
        full, SubstitutionPlan(((0, 1), None, (1, 1)))
    )
    small = StratumModel(model.graph, model.ring, (1, 3), model.strata)
    checks["specialization"] = eq(
        specialized, divisorial_poincare(small, 12), (12 * 3) // 4
    )[0]

    # augmentation: character parts add up to the augmented series
    for name in ("example1", "example3"):
        j = load_job(JOBS / f"{name}.json")
        p = divisorial_poincare(j.model, 8)
        total = augmented_series(p)
        summed = None
        for alpha in j.model.ring.characters():
            part = restrict_to_character(p, alpha)
            summed = part if summed is None else summed + part
        checks[f"augmentation {name}"] = eq(summed, total, 8)[0]

    # intersection-matrix inverse on simulator graphs
    rng = random.Random(991)
    matrix_ok = True
    for i in range(200):
        g = random_blowup_graph(rng, i % 12)
        e = g.intersection_matrix()
        n = len(e)
        if integer_determinant([row[:] for row in e]) != (-1) ** n:
            matrix_ok = False
            break
        m = g.multiplicity_matrix()
        ids = g.ids
        for a in range(n):
            for b in range(n):
                s = sum(e[a][k] * m.entry(ids[k], ids[b]) for k in range(n))
                if s != (-1 if a == b else 0):
                    matrix_ok = False
    checks["200 simulator graphs"] = matrix_ok

    # pipeline support stays in v >= 0
    oracle = oracle_poincare(job.oracle, job.model, 8)
    checks["support"] = all(
        all(x >= 0 for x in v) for v in oracle.terms
    ) and all(all(x >= 0 for x in v) for v in full.terms)

    # truncation coherence
    job3 = load_job(JOBS / "example3.json")
    checks["truncation"] = (
        divisorial_poincare(model, 12).truncate(5) == divisorial_poincare(model, 5)
        and divisorial_poincare(job3.model, 30).truncate(17)
        == divisorial_poincare(job3.model, 17)
    )

    # factor times its inverse is 1
    ring = model.ring
    cases = [
        (1, (2, 1), 2, None),
        (ring.monomial((1,)), (1, 2), 2, ring),
        (-3, (1,), 1, None),
    ]
    factor_ok = True
    for coeff, exponent, nv, r in cases:
        prod = factor_power(coeff, exponent, 1, num_vars=nv, bound=9, ring=r) \
            * factor_power(coeff, exponent, -1, num_vars=nv, bound=9, ring=r)
        if not eq(prod, Series.one(nv, 9, r), 9)[0]:
            factor_ok = False
    checks["factor inverse"] = factor_ok

    ok = all(checks.values())
    report(capsys, 8, "property suites", ok)
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_9_negative_controls(capsys, tmp_path):
    with open(JOBS / "example1.json") as fh:
        base = json.load(fh)

    def variant(mutate, filename):
        doc = json.loads(json.dumps(base))
        mutate(doc)
        path = tmp_path / filename
        path.write_text(json.dumps(doc))
        return str(path)

    def bad_self_intersection(doc):
        doc["graph"]["components"][1]["self_intersection"] = -2

    def bad_chi(doc):
        doc["strata"][0]["chi"] = 2

    code_graph = cli.main(["validate", variant(bad_self_intersection, "a.json")])
    code_chi = cli.main(["validate", variant(bad_chi, "b.json")])
    ok = code_graph != 0 and code_chi != 0
    report(capsys, 9, "negative controls rejected", ok)
    assert code_graph == 1
    assert code_chi == 1
