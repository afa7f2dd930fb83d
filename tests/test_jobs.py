import copy
import json
from pathlib import Path

import pytest

from eqpoincare import cli
from eqpoincare.engine import curve_poincare, divisorial_poincare
from eqpoincare.jobs import JobError, load_job, parse_job
from eqpoincare.oracle import oracle_poincare
from eqpoincare.powerseries import parse_machine, series_eq_upto
from eqpoincare.strata import curve_strata

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def example1_doc():
    with open(JOBS / "example1.json") as fh:
        return json.load(fh)


def test_load_example1():
    job = load_job(JOBS / "example1.json")
    assert job.name == "cyclic3-chain"
    assert job.model.ring.orders == (3,)
    assert job.model.chosen == (1, 2, 3)
    assert len(job.model.strata) == 5
    assert job.curve is not None and len(job.curve.branches) == 1
    assert job.extract.max_denominator == 3
    assert job.extract.num_outputs == 2
    assert job.oracle is not None and job.oracle.order == 3
    assert set(job.expected) == {"divisorial", "curve", "extract"}
    assert job.orbits is not None and len(job.orbits) == 3


def test_every_shipped_job_loads():
    for path in sorted(JOBS.glob("*.json")):
        job = load_job(path)
        assert job.model.strata, path.name


def test_job_name_defaults_to_file_stem(tmp_path):
    doc = example1_doc()
    del doc["name"]
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(doc))
    assert load_job(path).name == "renamed"


def test_expected_series_matches_engine():
    job = load_job(JOBS / "example1.json")
    got = divisorial_poincare(job.model, 10)
    want = job.expected_series("divisorial", 10)
    ok, diff = series_eq_upto(got, want, 10)
    assert ok, diff


def test_expected_series_unknown_kind():
    job = load_job(JOBS / "single_blowup.json")
    with pytest.raises(JobError, match="no expected"):
        job.expected_series("curve", 5)


def test_expected_series_needs_its_section():
    job = load_job(JOBS / "example1.json")
    for kind, message in (("extract", "expected extract without a plan"),
                          ("curve", "expected curve series without a curve")):
        bare = job._replace(**{kind: None})
        with pytest.raises(JobError, match=f"^job 'cyclic3-chain': {message}$"):
            bare.expected_series(kind, 3)


def test_a_document_that_is_not_an_object_is_rejected():
    with pytest.raises(JobError, match="^job: expected an object, got list$"):
        parse_job([])


def test_ring_errors_are_wrapped():
    doc = example1_doc()
    doc["ring"]["orders"] = [1]
    with pytest.raises(JobError, match=r"^ring: cyclic orders must be integers >= 2, got 1"):
        parse_job(doc)


def test_expected_curve_needs_a_curve():
    doc = json.loads((JOBS / "single_blowup.json").read_text())
    doc["expected"]["curve"] = [{"exponent": [1], "power": 1}]
    with pytest.raises(JobError, match="^expected.curve needs a curve section$"):
        parse_job(doc)


def test_missing_section_is_located():
    doc = example1_doc()
    del doc["ring"]
    with pytest.raises(JobError, match="missing required field 'ring'"):
        parse_job(doc)


def test_stratum_degree_must_match_carrier():
    doc = example1_doc()
    doc["strata"][2]["degree"] = 4
    with pytest.raises(JobError, match=r"strata\[2\].*degree 4"):
        parse_job(doc)


def test_empty_character_spec_rejected():
    doc = example1_doc()
    doc["strata"][0]["character"] = {}
    with pytest.raises(JobError, match="exponents or from_point"):
        parse_job(doc)


def test_plan_variable_mapped_twice():
    doc = example1_doc()
    doc["extract"]["plan"][1] = {"variable": 1, "drop": True}
    with pytest.raises(JobError, match="mapped twice"):
        parse_job(doc)


def test_plan_variable_missing():
    doc = example1_doc()
    del doc["extract"]["plan"][1]
    with pytest.raises(JobError, match=r"variables \[2\] not mapped"):
        parse_job(doc)


def test_plan_outputs_must_be_dense():
    doc = example1_doc()
    doc["extract"]["plan"][2]["output"] = 3
    with pytest.raises(JobError, match="extract.plan"):
        parse_job(doc)


def test_job_without_compute_degree_extracts(tmp_path, capsys):
    doc = example1_doc()
    del doc["extract"]["compute_degree"]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["extract", str(path), "--degree", "16", "--format", "machine"]) == 0
    got = parse_machine(json.loads(capsys.readouterr().out))
    ok, diff = series_eq_upto(got, parse_job(doc).expected_series("extract", 16), 16)
    assert ok, diff


def test_plan_must_keep_a_variable():
    doc = example1_doc()
    doc["extract"]["plan"] = [{"variable": v, "drop": True} for v in (1, 2, 3)]
    del doc["expected"]["extract"]
    with pytest.raises(JobError, match="extract.plan: drops every variable"):
        parse_job(doc)


def test_expected_character_arity_checked():
    doc = example1_doc()
    doc["expected"]["divisorial"][0]["character"] = [1, 0]
    with pytest.raises(JobError, match="does not match"):
        parse_job(doc)


def test_expected_exponent_arity_checked():
    doc = example1_doc()
    doc["expected"]["divisorial"][0]["exponent"] = [2, 1]
    with pytest.raises(JobError, match=r"expected.divisorial\[0\].*needs 3"):
        parse_job(doc)


def test_expected_unknown_kind_rejected():
    doc = example1_doc()
    doc["expected"]["bogus"] = []
    with pytest.raises(JobError, match=r"^expected\.bogus: unknown field$"):
        parse_job(doc)


def test_extract_factors_stay_integer():
    doc = example1_doc()
    doc["expected"]["extract"][0]["character"] = [1]
    with pytest.raises(JobError, match="integer series factors"):
        parse_job(doc)


def test_expected_extract_needs_plan():
    doc = example1_doc()
    del doc["extract"]
    with pytest.raises(JobError, match="needs an extract section"):
        parse_job(doc)


def test_oracle_axes_need_curve():
    doc = example1_doc()
    del doc["curve"]
    with pytest.raises(JobError, match="no curve"):
        parse_job(doc)


def test_oracle_axes_count_checked():
    doc = example1_doc()
    doc["oracle"]["curve_axes"] = ["x=0", "y=0"]
    with pytest.raises(JobError, match="lists 2 axes"):
        parse_job(doc)


def test_oracle_order_must_match_ring():
    doc = example1_doc()
    doc["oracle"]["order"] = 4
    with pytest.raises(JobError, match="does not give ring orders"):
        parse_job(doc)


def test_branch_attach_must_exist():
    doc = example1_doc()
    doc["curve"]["branches"][0]["attach"] = 7
    with pytest.raises(JobError, match="unknown"):
        parse_job(doc)


def test_graph_errors_are_wrapped():
    doc = example1_doc()
    doc["graph"]["components"][0]["self_intersection"] = 1
    with pytest.raises(JobError, match="graph:"):
        parse_job(doc)


def test_load_job_missing_file(tmp_path):
    with pytest.raises(JobError, match="cannot read"):
        load_job(tmp_path / "nope.json")


def test_load_job_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(JobError, match="not valid JSON"):
        load_job(path)


def test_deep_copy_of_doc_still_parses():
    # guards against parse_job mutating its input
    doc = example1_doc()
    snapshot = copy.deepcopy(doc)
    parse_job(doc)
    assert doc == snapshot


# The nine-chain and star fixtures have their first nonconstant terms at
# total degrees 18 and 17, so comparisons at degree 8 only pin the
# constant term; these push past that point.

def test_example2_divisorial_beyond_constant_term():
    job = load_job(JOBS / "example2.json")
    got = divisorial_poincare(job.model, 40)
    assert len(got.terms) == 6  # 1, two generators, three degree-36 products
    ok, diff = series_eq_upto(got, job.expected_series("divisorial", 40), 40)
    assert ok, diff


def test_example3_divisorial_beyond_constant_term():
    job = load_job(JOBS / "example3.json")
    got = divisorial_poincare(job.model, 34)
    assert any(sum(v) == 17 for v in got.terms)
    assert any(sum(v) == 28 for v in got.terms)
    ok, diff = series_eq_upto(got, job.expected_series("divisorial", 34), 34)
    assert ok, diff


def test_example2_oracle_beyond_constant_term():
    # the 4-variable monomial count at degree 10, where the restricted
    # weight vectors first contribute
    job = load_job(JOBS / "example2_oracle.json")
    engine = divisorial_poincare(job.model, 10)
    counted = oracle_poincare(job.oracle, job.model, 10)
    ok, diff = series_eq_upto(engine, counted, 10)
    assert ok, diff


@pytest.mark.parametrize("name,degree,terms", [
    ("example2_oracle", 60, 28),
    ("example1", 48, None),
    ("single_blowup", 200, 201),
])
def test_oracle_at_high_degree(name, degree, terms):
    job = load_job(JOBS / f"{name}.json")
    engine = divisorial_poincare(job.model, degree)
    counted = oracle_poincare(job.oracle, job.model, degree)
    if terms is not None:
        assert len(counted.terms) == terms
    for other in (counted, job.expected_series("divisorial", degree)):
        ok, diff = series_eq_upto(engine, other, degree)
        assert ok, diff


DELETE = object()


@pytest.mark.parametrize("path,value,message", [
    (("strata", 2, "carrier"), "x",
     "strata[2].carrier: expected a list of component ids, got 'x'"),
    (("graph", "components", 1, "id"), True,
     "graph.components[1].id: component ids are strings or integers, got True"),
    (("orbits", 0, "removed"), None,
     "orbits[0]: expected a list of integers, got None"),
    (("expected", "divisorial", 1, "exponent"), [1, -1, 0],
     "expected.divisorial[1]: exponent (1, -1, 0) has a negative entry"),
    (("strata", 0, "character", "from_point", "orbit_size"), "2",
     "strata[0].character.from_point.orbit_size: unexpected type str"),
    (("strata", 0, "character", "from_point", "exponents"), [1.0],
     "strata[0].character.from_point: expected a list of integers, got [1.0]"),
    (("strata", 3, "character"), {"exponents": [True]},
     "strata[3].character: expected a list of integers, got [True]"),
    (("strata", 1), 5, "strata[1]: expected an object, got int"),
    (("graph", "edges", 1), [1, None],
     "graph.edges[1]: component ids are strings or integers, got None"),
    (("orbits", 1, "components"), [None],
     "orbits[1].components: component ids are strings or integers, got None"),
    (("curve", "branches", 0, "attach"), DELETE,
     "curve.branches[0]: missing required field 'attach'"),
    (("curve", "removed_points", 0, "count"), 1.5,
     "curve.removed_points[0].count: unexpected type float"),
    (("extract", "plan", 1, "variable"), 9,
     "extract.plan[1]: variable 9 out of range 1..3"),
    (("expected", "divisorial", 0, "coefficient"), "1",
     "expected.divisorial[0]: coefficient must be an integer"),
    (("curve", "removed_points", 0, "stratum"), 9,
     "curve.removed_points[0]: no stratum 9"),
    (("curve", "removed_points", 0, "stratum"), "nowhere",
     "curve.removed_points[0]: 0 strata labelled 'nowhere'"),
    (("curve", "removed_points", 0, "count"), -1,
     "curve.removed_points[0]: count -1 must be >= 0"),
    (("curve", "removed_points", 0, "degree"), 2,
     "curve.removed_points[0]: degree 2 does not match the covering degree 1 "
     "of stratum 'y-axis point'"),
    (("orbits", 1, "removed"), [1],
     "orbits[1].removed: [1], but the graph gives valences [2] for [2]"),
    (("orbits", 2, "components"), [3, 9],
     "orbits[2]: orbit: removed counts do not align with components"),
    (("orbits", 2, "components"), [9],
     "orbits[2].components: [9] names a component not in the graph"),
    (("oracle", "order"), "3", "oracle.order: unexpected type str"),
])
def test_error_messages_name_the_whole_field_path(path, value, message):
    doc = example1_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    with pytest.raises(JobError) as err:
        parse_job(doc)
    assert str(err.value) == message


def test_a_removed_point_named_by_index_is_the_one_named_by_label():
    by_label = parse_job(example1_doc())
    doc = example1_doc()
    labels = [st.get("label") for st in doc["strata"]]
    point = doc["curve"]["removed_points"][0]
    point["stratum"] = labels.index(point["stratum"])
    by_index = parse_job(doc)
    assert by_index.curve.removed_points != by_label.curve.removed_points
    series = [curve_poincare(job.model, job.curve.branches,
                             curve_strata(job.model, job.curve.removed_points), 30)
              for job in (by_label, by_index)]
    assert series[0] == series[1]
    assert series[0] != curve_poincare(by_label.model, by_label.curve.branches,
                                       by_label.model.strata, 30)


@pytest.mark.parametrize("exponent, message", [
    ([-3, 3], "expected.extract[0]: exponent (-3, 3) has a negative entry"),
    ([0, 0], "expected.extract[0]: exponent (0, 0) is zero with power 1; the factor "
             "would not be a power series"),
])
def test_expected_exponent_values_checked(exponent, message):
    doc = example1_doc()
    doc["expected"]["extract"][0]["exponent"] = exponent
    with pytest.raises(JobError) as err:
        parse_job(doc)
    assert str(err.value) == message


@pytest.mark.parametrize("name, index, orbit, message", [
    # example3: the arms A1..A6 are (-2)-curves of valence 2, the tips B1..B6
    # (-1)-curves of valence 1
    ("example3", 1, {"components": ["A1", "B4"], "removed": [2, 1]},
     "orbits[1].components: ['A1', 'B4'] have self-intersections [-2, -1] and "
     "valences [2, 1]; one orbit's members share both"),
    # example2: components 1 and 4 are both (-1)-curves, of valence 1 and 2
    ("example2", 0, {"components": [1, 4], "removed": [1, 2]},
     "orbits[0].components: [1, 4] have self-intersections [-1, -1] and "
     "valences [1, 2]; one orbit's members share both"),
])
def test_orbit_members_share_self_intersection_and_valence(name, index, orbit, message):
    doc = json.loads((JOBS / f"{name}.json").read_text())
    doc["orbits"][index] = orbit
    with pytest.raises(JobError) as err:
        parse_job(doc)
    assert str(err.value) == message
    assert len(parse_job(json.loads((JOBS / "example3.json").read_text())).orbits[1].components) == 2
