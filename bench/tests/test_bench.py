"""Self-test of the benchmark.  Run from the root of the checkout:

    python3 -m pytest -q bench/tests
"""

import json
import random
from dataclasses import replace
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from eqpoincare import load_job, parse_job, render_text  # noqa: E402
from eqpoincare.resolution import ResolutionGraph  # noqa: E402


@pytest.fixture(scope="module")
def worker():
    if Path.cwd() != ROOT:
        pytest.skip("worker.py measures the checkout it is started in; run from the root")
    import worker as module
    return module


def _op_list(name, seed, workdir, pass_index):
    ops = workloads.Workload(name, seed, ROOT, workdir).ops(pass_index)
    files = {p.name: p.read_bytes() for p in sorted(workdir.rglob("*.json"))}
    return ops, files


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_op_list(tmp_path, name):
    runs = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        folder = tmp_path / label
        folder.mkdir()
        ops, files = _op_list(name, seed, folder, 1)
        runs[label] = ([(op.key.replace(str(folder), ""), op.reference) for op in ops],
                       files)
    assert runs["a"] == runs["b"]
    assert len(runs["a"][0]) >= 100
    assert runs["a"] != runs["c"]


def test_fresh_graphs_repeat_under_new_names(tmp_path):
    load = workloads.Workload("fresh-graphs", 3, ROOT, tmp_path)
    first, second = load.ops(1), load.ops(2)
    keys = {op.key for op in first} | {op.key for op in second}
    assert len(keys) == 2 * len(first)
    for a, b in zip(first, second):
        doc_a = Path(a.argv[1]).read_text().replace("p1o", "P")
        doc_b = Path(b.argv[1]).read_text().replace("p2o", "P")
        assert doc_a == doc_b
        assert a.argv[2:] == b.argv[2:] and a.reference == b.reference


@pytest.mark.parametrize("n", [1, 2, 5, 13, 40])
def test_replayed_multiplicities_match_the_package(n):
    rng = random.Random(n)
    prox = workloads.blowup_proximities(rng, n)
    self_int, edges = workloads.dual_graph(prox)
    graph = ResolutionGraph(tuple(enumerate(self_int)), tuple(edges), 0)
    assert graph.multiplicity_matrix().rows == workloads.multiplicity_rows(prox)


def test_fresh_job_loads_and_balances():
    prox = workloads.blowup_proximities(random.Random(1), 12)
    chosen = (3, 7)
    job = parse_job(workloads.fresh_job(prox, chosen, "t"))
    assert len(job.model.chosen) == len(chosen)
    assert sum(s.chi for s in job.model.strata) == 2  # Euler characteristic of a tree of P^1s


def test_reference_expansion_matches_frozen_factors():
    doc = json.loads((ROOT / "jobs" / "example1.json").read_text())
    factors = workloads.expected_factors(doc, "divisorial", (3,))
    ref = workloads.Reference(factors, 3, (3,), 10)
    got = reference.expand(ref)
    want = load_job(ROOT / "jobs" / "example1.json").expected_series("divisorial", 10)
    as_dict = {(e, ch): v for e, c in want.terms.items() for ch, v in c.terms.items()}
    assert got == as_dict


def test_parse_text_reads_rendered_series():
    series = load_job(ROOT / "jobs" / "example3.json").expected_series("divisorial", 12)
    parsed = reference.parse_text(render_text(series))
    assert parsed == {(e, ch): v for e, c in series.terms.items() for ch, v in c.terms.items()}
    assert reference.parse_text("0") == {}


def _example1_op(tmp_path, fmt):
    ops = workloads.Workload("dense-series", 1, ROOT, tmp_path).ops(0)
    return next(op for op in ops if op.category == "compute example1"
                and ("--format" in op.argv) == (fmt == "machine")
                and "--character" not in op.argv)


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_corrupted_reference_coefficient_fails_the_op(tmp_path, worker, fmt):
    op = _example1_op(tmp_path, fmt)
    _, code, output = worker.run_op(op.argv)
    good = worker.Verifier()
    good.record(op, code, output)
    assert (good.attempted, good.failed, good.correct) == (1, 0, True)

    char, exponent, power, _ = op.reference.factors[0]
    factors = ((char, exponent, power, 2),) + op.reference.factors[1:]
    corrupted = replace(op, reference=replace(op.reference, factors=factors))
    bad = worker.Verifier()
    bad.record(corrupted, code, output)
    assert (bad.attempted, bad.failed, bad.correct) == (1, 1, False)
    bad.record(corrupted, code, output)  # the repeat of a failed input fails again
    assert bad.failed == 2


def test_changed_output_of_a_verified_input_fails(tmp_path, worker):
    op = _example1_op(tmp_path, "text")
    _, code, output = worker.run_op(op.argv)
    v = worker.Verifier()
    v.record(op, code, output)
    v.record(op, code, output.replace("\n", "\n\n", 1))
    assert (v.attempted, v.failed) == (2, 1)


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, op=0)


def test_self_time_arithmetic():
    tree = [
        _span("cli.main", 0.0, 10.0, None),        # 0
        _span("jobs.load", 1.0, 4.0, 0),           # 1
        _span("engine.series", 3.0, 6.0, 0),       # 2, overlaps 1
        _span("powerseries.mul", 2.0, 3.0, 1),     # 3
        _span("oracle.tables", 8.0, 12.0, 0),      # 4, clipped to the parent
        _span("powerseries.mul", 4.0, 5.0, 2),     # 5
        _span("powerseries.mul", 4.5, 5.5, 2),     # 6, overlaps 5
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx([10 - 5 - 2, 3 - 1, 3 - 1.5, 1, 4, 1, 1])
    assert spans.covered_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3)
    assert tree[2].layer == "engine"


def test_tracer_wraps_and_restores():
    class Box:
        def twice(self, x):
            return 2 * x

    original = Box.__dict__["twice"]
    tracer = spans.Tracer()
    sizes = []
    with tracer.installed([(Box, "twice", "engine.twice", lambda t, a, r: sizes.append(r))]):
        root = tracer.open("cli.main")
        assert Box().twice(4) == 8
        tracer.close(root)
    assert Box.__dict__["twice"] is original
    assert [s.name for s in tracer.spans] == ["cli.main", "engine.twice"]
    assert tracer.spans[1].parent == 0 and sizes == [8]


def test_tracer_refuses_a_missing_target():
    class Box:
        def twice(self, x):
            return 2 * x

    original = Box.__dict__["twice"]
    tracer = spans.Tracer()
    with pytest.raises(AttributeError, match="Box.absent"):
        with tracer.installed([(Box, "twice", "engine.twice", None),
                               (Box, "absent", "engine.absent", None)]):
            pass
    assert Box.__dict__["twice"] is original



def test_harrell_davis_quantiles(worker):
    assert worker.harrell_davis(range(1, 102), 0.5) == pytest.approx(51)
    assert worker.harrell_davis([0.25] * 100, 0.9) == pytest.approx(0.25)
    # a gap at the median moves the estimate smoothly, not by the gap
    low, high = [1.0] * 50 + [10.0] * 51, [1.0] * 51 + [10.0] * 50
    assert 1 < worker.harrell_davis(high, 0.5) < worker.harrell_davis(low, 0.5) < 10
