import math
import random
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eqpoincare import engine, powerseries
from eqpoincare.charring import cyclic_character_ring

from eqpoincare.charring import CharacterRing
from eqpoincare.engine import (
    augmented_series,
    curve_poincare,
    divisorial_poincare,
    restrict_to_character,
)
from eqpoincare.jobs import load_job
from eqpoincare.oracle import (
    DimensionTable,
    MonomialModel,
    OracleError,
    _weights,
    monomial_character,
    oracle_poincare,
    oracle_tables,
    oracle_whole_series,
    poincare_from_dimensions,
)
from eqpoincare.powerseries import Series
from eqpoincare.resolution import ResolutionGraph
from eqpoincare.strata import (
    Branch,
    RemovedPointOrbit,
    Stratum,
    StratumModel,
    curve_strata,
)

from blowup import random_blowup_graph
from test_strata import three_chain_model

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def z3_monomials():
    return MonomialModel(order=3, weights=(1, -1), sigma_x=3, sigma_y=1)


def test_monomial_characters():
    mm = z3_monomials()
    assert monomial_character(mm, 0, 1) == (1,)  # the function y
    assert monomial_character(mm, 1, 0) == (2,)  # the function x
    assert monomial_character(mm, 1, 1) == (0,)
    trivial = MonomialModel(order=1, weights=(0, 0))
    assert monomial_character(trivial, 5, 7) == ()


def test_divisorial_tables_hand_counts():
    mm = z3_monomials()
    model = three_chain_model()
    tables = oracle_tables(mm, model, degree=4)
    # only the constant monomial sits at exactly (0,0,0)
    assert tables[(0,)].value((0, 0, 0)) == 1
    assert tables[(1,)].value((0, 0, 0)) == 0
    # character u: y has weight (2,1,1); x^2 has weight (2,2,4) which is
    # >= (2,1,1) but not >= (3,2,2), so both count there
    assert tables[(1,)].value((2, 1, 1)) == 2
    assert tables[(0,)].value((-1, -1, -1)) == 0


def test_oracle_matches_engine_on_three_chain():
    mm = z3_monomials()
    model = three_chain_model()
    engine = divisorial_poincare(model, 6)
    oracle = oracle_poincare(mm, model, 6)
    assert oracle == engine
    for alpha in model.ring.characters():
        assert restrict_to_character(oracle, alpha) == restrict_to_character(
            engine, alpha
        )


@pytest.mark.parametrize("name,mode,degree", [
    ("example1", "divisorial", 6),
    ("example1", "curve", 12),
    ("example2_oracle", "divisorial", 4),
    ("example2_oracle", "divisorial", 8),
    ("node_curve", "curve", 12),
    ("single_blowup", "divisorial", 20),
])
def test_monomial_sum_matches_dimension_route(name, mode, degree):
    job = load_job(JOBS / f"{name}.json")
    summed = oracle_poincare(job.oracle, job.model, degree, mode=mode)
    tables = oracle_tables(job.oracle, job.model, degree, mode=mode)
    assembled = poincare_from_dimensions(tables, job.model.ring, degree)
    assert summed.bound == assembled.bound == degree
    assert summed == assembled
    whole = oracle_whole_series(job.oracle, job.model, degree, mode=mode)
    assert whole == augmented_series(summed)


def test_oracle_uses_nothing_from_the_product_route():
    import eqpoincare.oracle
    borrowed = [name for name, obj in vars(eqpoincare.oracle).items()
                if getattr(obj, "__module__", None) == "eqpoincare.engine"]
    assert borrowed == []


@pytest.mark.parametrize("tables,ring,message", [
    ({(0,): DimensionTable(1, 3, {(0,): 1})}, None, "exactly one table keyed None"),
    ({}, CharacterRing((2,)), "no tables given"),
    ({(0,): DimensionTable(1, 3, {(0,): 1}), (2,): DimensionTable(1, 3, {})},
     CharacterRing((2,)), "reduce to the same character"),
    ({(0,): DimensionTable(1, 3, {(0,): 1}), (1,): DimensionTable(2, 3, {})},
     CharacterRing((2,)), "number of variables"),
])
def test_dimension_assembly_rejects_bad_arguments(tables, ring, message):
    with pytest.raises(ValueError, match=message):
        poincare_from_dimensions(tables, ring, 2)


def test_whole_ring_is_augmentation():
    mm = z3_monomials()
    model = three_chain_model()
    total = oracle_whole_series(mm, model, 6)
    assert total == augmented_series(divisorial_poincare(model, 6))


def test_enlarging_the_box_changes_nothing():
    mm = z3_monomials()
    model = three_chain_model()
    small = oracle_poincare(mm, model, 5)
    large = oracle_poincare(mm, model, 10)
    assert small == large.truncate(5)


def test_curve_oracle_y_axis():
    mm = MonomialModel(order=3, weights=(1, -1), curve_axes=("x=0",))
    model = three_chain_model()
    p = oracle_poincare(mm, model, 8, mode="curve")
    u = model.ring.monomial((1,))
    for k in range(9):
        assert p.coefficient((k,)) == u**k
    adjusted = curve_strata(model, [RemovedPointOrbit("y-axis point", 1)])
    assert p == curve_poincare(model, (Branch(3),), adjusted, 8)


def test_curve_oracle_node():
    g = ResolutionGraph(((1, -1),), (), 1)
    ring = CharacterRing(())
    strata = (
        Stratum((1,), 1, label="x-axis point"),
        Stratum((1,), 1, label="y-axis point"),
        Stratum((1,), 0, label="open"),
    )
    model = StratumModel(g, ring, (1,), strata)
    mm = MonomialModel(order=1, weights=(0, 0), curve_axes=("y=0", "x=0"))
    p = oracle_poincare(mm, model, 8, mode="curve")
    assert p.num_vars == 2
    assert p.coefficient((0, 0)) == ring.one()
    assert all(c.is_zero() for v, c in p.terms.items() if v != (0, 0))
    adjusted = curve_strata(
        model,
        [RemovedPointOrbit("x-axis point", 1), RemovedPointOrbit("y-axis point", 1)],
    )
    branches = (Branch(1, "x-axis"), Branch(1, "y-axis"))
    assert p == curve_poincare(model, branches, adjusted, 8)


def test_single_blowup_dimension_counts():
    g = ResolutionGraph(((1, -1),), (), 1)
    model = StratumModel(g, CharacterRing(()), (1,), (Stratum((1,), 2),))
    mm = MonomialModel(order=1, weights=(0, 0), sigma_x=1, sigma_y=1)
    tables = oracle_tables(mm, model, degree=6)
    # x^a y^b sits at exactly a + b: v + 1 monomials at level v
    for v in range(7):
        assert tables[()].value((v,)) == v + 1
    p = oracle_poincare(mm, model, 6)
    assert [p.coefficient((v,)).trivial_part() for v in range(7)] == list(range(1, 8))


def test_oracle_validation():
    model = three_chain_model()
    with pytest.raises(OracleError, match="sigma"):
        oracle_poincare(MonomialModel(3, (1, -1)), model, 3)
    with pytest.raises(OracleError, match="unknown component"):
        oracle_poincare(MonomialModel(3, (1, -1), sigma_x=9, sigma_y=1), model, 3)
    with pytest.raises(OracleError, match="orders"):
        oracle_poincare(MonomialModel(5, (1, -1), sigma_x=3, sigma_y=1), model, 3)
    with pytest.raises(OracleError, match="axis"):
        MonomialModel(3, (1, -1), curve_axes=("diagonal",))
    with pytest.raises(OracleError, match="at least one branch axis"):
        oracle_poincare(MonomialModel(3, (1, -1), sigma_x=1, sigma_y=3), model, 3, mode="curve")
    with pytest.raises(OracleError, match="mode"):
        oracle_tables(z3_monomials(), model, 3, mode="nonsense")


def test_unfaithful_weights_are_reported():
    assert MonomialModel(order=4, weights=(2, 2), sigma_x=1, sigma_y=1).unfaithful == (
        "(2, 2) share the factor 2 with the order 4; the action is not faithful on monomials")
    assert MonomialModel(order=4, weights=(1, 2), sigma_x=1, sigma_y=1).unfaithful is None
    # the trivial group is faithful whatever the weights
    assert MonomialModel(order=1, weights=(0, 0)).unfaithful is None


def triangle_monomials(mm, model, degree, mode="divisorial"):
    """The weight and character of every monomial with a + b <= degree
    whose valuations are all finite with total <= degree: an infinite
    one reads degree + 1, above the total."""
    row_x, row_y, _, _ = _weights(mm, model, mode, degree + 1)
    for a in range(degree + 1):
        for b in range(degree - a + 1):
            w = tuple(a * x + b * y for x, y in zip(row_x, row_y))
            if sum(w) <= degree:
                yield w, monomial_character(mm, a, b)


def full_triangle_sum(mm, model, degree, mode="divisorial"):
    """The monomial sum over every a + b <= degree, kept where all
    valuations are finite and their total is <= degree: the walk the
    bounded one replaced, as its reference."""
    _, _, s, ring = _weights(mm, model, mode, degree + 1)
    counts = {}
    for w, alpha in triangle_monomials(mm, model, degree, mode):
        counts.setdefault(w, Counter())[alpha] += 1
    return Series(s, degree, ring, {w: ring.element(per) for w, per in counts.items()})


@st.composite
def oracle_cases(draw, max_order=12, max_degree=40):
    graph = random_blowup_graph(random.Random(draw(st.integers(0, 2**32))),
                                draw(st.integers(0, 6)))
    component = st.sampled_from(graph.ids)
    chosen = draw(st.lists(component, min_size=1, max_size=3))
    order = draw(st.integers(1, max_order))  # a row can be shorter than the period
    weights = (draw(st.integers(-20, 20)), draw(st.integers(-20, 20)))
    model = StratumModel(graph, cyclic_character_ring(order), chosen, ())
    if draw(st.booleans()):
        axes = tuple(draw(st.lists(st.sampled_from(("x=0", "y=0")),
                                   min_size=1, max_size=3)))
        fields, mode = {"curve_axes": axes}, "curve"
    else:
        fields = {"sigma_x": draw(component), "sigma_y": draw(component)}
        mode = "divisorial"
    mm = MonomialModel(order, weights, **fields)
    return mm, model, draw(st.integers(0, max_degree)), mode


@settings(max_examples=200, deadline=None)
@given(oracle_cases())
def test_bounded_walk_equals_the_full_triangle(case):
    mm, model, degree, mode = case
    got = oracle_poincare(mm, model, degree, mode=mode)
    want = full_triangle_sum(mm, model, degree, mode)
    assert got.terms.keys() == want.terms.keys()
    assert got == want
    # each monomial is counted once
    counted = sum(x for c in got.terms.values() for x in c.terms.values())
    assert counted == sum(1 for _ in triangle_monomials(mm, model, degree, mode))


@settings(max_examples=100, deadline=None)
@given(oracle_cases(max_order=6, max_degree=6))
def test_dimension_route_equals_the_monomial_sum(case):
    mm, model, degree, mode = case
    summed = oracle_poincare(mm, model, degree, mode=mode)
    tables = oracle_tables(mm, model, degree, mode=mode)
    assert poincare_from_dimensions(tables, model.ring, degree) == summed
    whole = oracle_whole_series(mm, model, degree, mode=mode)
    assert whole == augmented_series(summed)


def test_bounded_walk_on_single_blowup_at_100():
    job = load_job(JOBS / "single_blowup.json")
    got = oracle_poincare(job.oracle, job.model, 100)
    assert got == full_triangle_sum(job.oracle, job.model, 100)
    assert len(got.terms) == 101


def test_single_blowup_counts_w_plus_one_at_every_weight():
    # x^a y^b has weight a + b: the w + 1 monomials with a + b = w
    job = load_job(JOBS / "single_blowup.json")
    got = oracle_poincare(job.oracle, job.model, 3000)
    assert len(got.terms) == 3001
    for w in range(3001):
        assert got.coefficient((w,)).trivial_part() == w + 1


@pytest.mark.parametrize("chosen", [[2], [1, 1]])
def test_dependent_equivariant_valuations_equal_the_full_triangle(chosen):
    # one coordinate, or two equal ones: every weight lies on one line
    job = load_job(JOBS / "example1.json")
    model = StratumModel(job.model.graph, job.model.ring, chosen, ())
    got = oracle_poincare(job.oracle, model, 200)
    assert got == full_triangle_sum(job.oracle, model, 200)


def test_single_blowup_at_6000_is_linear_in_the_degree():
    job = load_job(JOBS / "single_blowup.json")
    start = time.perf_counter()
    got = oracle_poincare(job.oracle, job.model, 6000)
    assert time.perf_counter() - start < 0.5  # one count per monomial takes seconds
    assert len(got.terms) == 6001


ORACLE_ROUTES = [
    ("example1", "divisorial"),
    ("example1", "curve"),
    ("example2_oracle", "divisorial"),
    ("node_curve", "curve"),
    ("single_blowup", "divisorial"),
]


def test_oracle_never_expands_the_product_formula(monkeypatch):
    jobs = {name: load_job(JOBS / f"{name}.json") for name, _ in ORACLE_ROUTES}
    engine_series = {}
    for name, mode in ORACLE_ROUTES:
        job = jobs[name]
        if mode == "curve":
            adjusted = curve_strata(job.model, job.curve.removed_points)
            engine_series[name, mode] = curve_poincare(
                job.model, job.curve.branches, adjusted, 20)
        else:
            engine_series[name, mode] = divisorial_poincare(job.model, 20)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached the product formula")

    monkeypatch.setattr(powerseries, "expand", refuse)
    monkeypatch.setattr(engine, "expand", refuse)
    monkeypatch.setattr(engine, "factors", refuse)
    # control: the patch is live, the product route now fails
    with pytest.raises(AssertionError, match="product formula"):
        divisorial_poincare(jobs["single_blowup"].model, 20)
    for name, mode in ORACLE_ROUTES:
        job = jobs[name]
        got = oracle_poincare(job.oracle, job.model, 20, mode=mode)
        assert got == engine_series[name, mode], (name, mode)
