"""An outside check of quotient extraction for cyclic diagonal actions.

Under a cyclic diagonal action the invariant ring is spanned by the
monomials x^a y^b of trivial character, and the divisorial filtration is
spanned by monomials, so the Poincare series of the quotient is the sum
of T^(plan(w(a, b))) over the invariant monomials, where w(a, b) =
a * v(x) + b * v(y) are their valuations at the chosen components and the
plan divides each kept valuation by its denominator.  Every multiplicity
entry is >= 1, so |w(a, b)| >= a + b and a term of output degree D needs
only a + b <= D * max denominator.  Nothing here reads the strata, so
the stratum product formula is checked from outside.
"""

import json
from pathlib import Path

from eqpoincare import cli
from eqpoincare.jobs import load_job
from eqpoincare.oracle import MonomialModel
from eqpoincare.powerseries import Series, parse_machine, series_eq_upto

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def invariant_monomial_series(job, action: MonomialModel, degree: int) -> Series:
    plan = job.extract
    multiplicities = job.model.multiplicities()
    row_x = multiplicities.row(action.sigma_x, job.model.chosen)
    row_y = multiplicities.row(action.sigma_y, job.model.chosen)
    k, l = action.weights
    reach = degree * plan.max_denominator
    terms = {}
    for a in range(reach + 1):
        for b in range(reach + 1 - a):
            if (k * a + l * b) % action.order:
                continue
            out = [0] * plan.num_outputs
            for x, y, entry in zip(row_x, row_y, plan.entries, strict=True):
                if entry is not None:
                    target, den = entry
                    q, r = divmod(a * x + b * y, den)
                    assert r == 0, f"x^{a} y^{b} is invariant but not divisible"
                    out[target] += q
            key = tuple(out)
            if sum(key) <= degree:
                terms[key] = terms.get(key, 0) + 1
    return Series(plan.num_outputs, degree, None, terms)


def extracted(path, degree: int, capsys) -> Series:
    assert cli.main(["extract", str(path), "--degree", str(degree),
                     "--format", "machine"]) == 0
    return parse_machine(json.loads(capsys.readouterr().out))


def test_example1_quotient_is_the_invariant_count(capsys):
    job = load_job(JOBS / "example1.json")
    want = invariant_monomial_series(job, job.oracle, 40)
    got = extracted(JOBS / "example1.json", 40, capsys)
    assert got.bound == 40
    assert len(want.terms) == 287
    ok, diff = series_eq_upto(got, want, 40)
    assert ok, diff


def test_example2_quotient_is_the_invariant_count(capsys):
    # the action of example2_oracle, on the full chain of nine components
    job = load_job(JOBS / "example2.json")
    action = MonomialModel(5, (1, -1), sigma_x=9, sigma_y=1)
    want = invariant_monomial_series(job, action, 30)
    got = extracted(JOBS / "example2.json", 30, capsys)
    assert got.bound == 30
    assert len(want.terms) == 28
    ok, diff = series_eq_upto(got, want, 30)
    assert ok, diff


def test_wrong_chi_breaks_the_invariant_count(tmp_path, capsys):
    job = load_job(JOBS / "example1.json")
    doc = json.loads((JOBS / "example1.json").read_text())
    doc["strata"][0]["chi"] += 1
    path = tmp_path / "wrong_chi.json"
    path.write_text(json.dumps(doc))
    got = extracted(path, 8, capsys)
    ok, diff = series_eq_upto(got, invariant_monomial_series(job, job.oracle, 8), 8)
    assert not ok
    assert diff == ((1, 1), 2, 1)
