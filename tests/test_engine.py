import pytest
from hypothesis import given, settings, strategies as st

from eqpoincare.charring import CharacterRing
from eqpoincare.engine import (
    EngineError,
    augmented_series,
    curve_poincare,
    divisorial_poincare,
    factors,
    quotient_extract,
    restrict_to_character,
)
from eqpoincare.oracle import ConsistencyError, DimensionTable, poincare_from_dimensions
from eqpoincare.powerseries import Series, SubstitutionPlan, series_eq_upto
from eqpoincare.resolution import ResolutionGraph
from eqpoincare.strata import (
    Branch,
    CharDerivation,
    RemovedPointOrbit,
    Stratum,
    StratumModel,
    curve_strata,
)

from substitution import extract_by_substitution, substitute_and_rescale
from test_strata import three_chain_model


def test_divisorial_three_chain_coefficients():
    # the two point strata give (1 - u t^(2,1,1))^-1 (1 - u^2 t^(1,1,2))^-1;
    # every monomial i*(2,1,1) + j*(1,1,2) appears once with character i + 2j
    model = three_chain_model()
    ring = model.ring
    p = divisorial_poincare(model, 8)
    assert p.coefficient((0, 0, 0)) == ring.one()
    assert p.coefficient((2, 1, 1)) == ring.monomial((1,))
    assert p.coefficient((1, 1, 2)) == ring.monomial((2,))
    assert p.coefficient((3, 2, 3)) == ring.one()
    assert p.coefficient((4, 2, 2)) == ring.monomial((2,))
    assert p.coefficient((2, 2, 2)) == ring.zero()
    assert p.coefficient((1, 0, 0)) == ring.zero()
    # support through degree 8 is the six points with i + j <= 2
    assert len(p.terms) == 6


def test_divisorial_single_blowup_trivial_group():
    g = ResolutionGraph(((1, -1),), (), 1)
    model = StratumModel(g, CharacterRing(()), (1,), (Stratum((1,), 2),))
    p = divisorial_poincare(model, 20)
    assert [p.coefficient((v,)).trivial_part() for v in range(21)] == [
        v + 1 for v in range(21)
    ]


def test_chi_zero_strata_never_need_characters():
    # the middle stratum has no character data at all; chi = 0 skips it
    model = three_chain_model()
    assert divisorial_poincare(model, 4) is not None


def test_refinement_invariance():
    # splitting a stratum into chi = 3 and chi = -2 pieces with the same
    # carrier and character leaves the series unchanged
    model = three_chain_model()
    strata = list(model.strata)
    first = strata[0]
    strata[0] = Stratum(first.carrier, 3, derivation=first.derivation)
    strata.append(Stratum(first.carrier, -2, derivation=first.derivation))
    refined = StratumModel(model.graph, model.ring, model.chosen, tuple(strata))
    assert divisorial_poincare(refined, 8) == divisorial_poincare(model, 8)


def test_factor_order_is_irrelevant_and_deterministic():
    model = three_chain_model()
    reordered = StratumModel(
        model.graph, model.ring, model.chosen, tuple(reversed(model.strata))
    )
    a = divisorial_poincare(model, 6)
    b = divisorial_poincare(reordered, 6)
    assert a == b
    assert list(a.items()) == list(b.items())


def test_variable_specialization_matches_smaller_chosen_list():
    # dropping the middle variable equals computing with chosen = (1, 3);
    # safe comparison degree: input degree scaled by the worst ratio of
    # restricted to full weight sums (3/4 for both strata here)
    model = three_chain_model()
    n = 12
    full = divisorial_poincare(model, n)
    # set-to-1 means merging with denominator 1, staying equivariant
    specialized = substitute_and_rescale(full, SubstitutionPlan(((0, 1), None, (1, 1))))
    small = StratumModel(model.graph, model.ring, (1, 3), model.strata)
    recomputed = divisorial_poincare(small, n)
    safe = (n * 3) // 4
    equal, diff = series_eq_upto(specialized, recomputed, safe)
    assert equal, diff


def test_curve_three_chain_is_geometric_series():
    model = three_chain_model()
    adjusted = curve_strata(model, [RemovedPointOrbit("y-axis point", 1)])
    p = curve_poincare(model, (Branch(3),), adjusted, 10)
    u = model.ring.monomial((1,))
    for k in range(11):
        assert p.coefficient((k,)) == u**k


def test_curve_branch_on_an_unknown_component_is_an_error():
    model = three_chain_model()
    with pytest.raises(EngineError, match="unknown component 9"):
        curve_poincare(model, (Branch(9),), model.strata, 5)


def test_curve_zero_branches_degenerates_to_one():
    model = three_chain_model()
    p = curve_poincare(model, (), model.strata, 5)
    assert p.num_vars == 0
    assert p.coefficient(()) == model.ring.one()


def test_dimension_pipeline_sign_anchor():
    # one class at every level v >= 0, none below: the all-ones series
    table = DimensionTable(1, 6, {(v,): 1 for v in range(0, 7)})
    p = poincare_from_dimensions({None: table}, None, 5)
    assert p == Series(1, 5, None, {(v,): 1 for v in range(6)})


def test_dimension_pipeline_node_tables():
    # two transversal branches through a single blow-up: the classes sit
    # at (0,0), along (a, infinity) and along (infinity, b); the series
    # collapses to 1
    box = 6
    values = {}
    for v1 in range(-1, box + 1):
        for v2 in range(-1, box + 1):
            d = 0
            if (v1, v2) in ((0, 0), (0, -1), (-1, 0)):
                d += 1
            if v1 >= 1:
                d += 1
            if v2 >= 1:
                d += 1
            if d:
                values[(v1, v2)] = d
    p = poincare_from_dimensions({None: DimensionTable(2, box, values)}, None, 5)
    assert p == Series.one(2, 5)


def test_dimension_pipeline_constant_term_check():
    table = DimensionTable(1, 4, {(2,): 1})
    with pytest.raises(ConsistencyError, match="constant term"):
        poincare_from_dimensions({None: table}, None, 3)


@st.composite
def dimension_tables(draw):
    """Random tables: 1 to 3 variables, box 1 to 4, up to 12 entries
    anywhere in the box, the -1 planes included."""
    num_vars, box = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(-1, box)] * num_vars)
    return DimensionTable(num_vars, box, draw(
        st.dictionaries(point, st.integers(0, 3), max_size=12)))


@settings(max_examples=200)
@given(dimension_tables())
def test_random_tables_assemble_or_fail_on_the_constant_term(table):
    # n is 0 on every -1 plane by construction, so the constant term is the
    # one check a malformed table can fail
    try:
        p = poincare_from_dimensions({None: table}, None, table.box - 1)
    except ConsistencyError as e:
        assert "constant term" in str(e)
    else:
        assert p.coefficient((0,) * table.num_vars) == 1


def test_dimension_pipeline_box_too_small():
    table = DimensionTable(1, 4, {(v,): 1 for v in range(-1, 5)})
    with pytest.raises(ValueError, match="box"):
        poincare_from_dimensions({None: table}, None, 4)


def test_dimension_pipeline_character_assembly():
    # cyclic order 2, one variable: even levels trivial, odd levels sign
    ring = CharacterRing((2,))
    box = 5
    even = {(v,): 1 for v in range(0, box + 1) if v % 2 == 0}
    odd = {(v,): 1 for v in range(0, box + 1) if v % 2 == 1}
    p = poincare_from_dimensions(
        {(0,): DimensionTable(1, box, even), (1,): DimensionTable(1, box, odd)},
        ring,
        4,
    )
    u = ring.monomial((1,))
    for v in range(5):
        assert p.coefficient((v,)) == (ring.one() if v % 2 == 0 else u)


def test_dimension_table_validation():
    with pytest.raises(ValueError, match="not a count"):
        DimensionTable(1, 3, {(0,): -1})
    with pytest.raises(ValueError, match="outside"):
        DimensionTable(1, 3, {(4,): 1})
    with pytest.raises(ValueError, match="arity"):
        DimensionTable(2, 3, {(0,): 1})
    with pytest.raises(ValueError, match="at least one variable"):
        DimensionTable(0, 3, {})
    with pytest.raises(ValueError, match="box bound"):
        DimensionTable(1, -1, {})


def test_restrict_and_augment():
    model = three_chain_model()
    p = divisorial_poincare(model, 8)
    ring = model.ring
    p1 = restrict_to_character(p, (1,))
    assert p1.ring is None
    assert p1.coefficient((2, 1, 1)) == 1
    assert p1.coefficient((1, 1, 2)) == 0
    total = augmented_series(p)
    assert total.coefficient((2, 1, 1)) == 1
    assert total.coefficient((0, 0, 0)) == 1
    summed = None
    for alpha in ring.characters():
        part = restrict_to_character(p, alpha)
        summed = part if summed is None else summed + part
    assert summed == total
    with pytest.raises(ValueError, match="already an integer series"):
        restrict_to_character(total, ())
    with pytest.raises(ValueError, match="already an integer series"):
        augmented_series(total)


def test_quotient_extract_takes_trivial_part_first():
    model = three_chain_model()
    p = divisorial_poincare(model, 24)
    plan = SubstitutionPlan(((0, 3), None, (1, 3)))
    q = extract_by_substitution(p, plan)
    assert q.ring is None
    assert q.bound == 8
    # trivial-character support i = j mod 3: (i,j)=(1,1) -> T(1,1),
    # (0,3) -> T(1,2); nothing can land on T(1,0)
    assert q.coefficient((1, 1)) == 1
    assert q.coefficient((2, 2)) == 1
    assert q.coefficient((1, 2)) == 1
    assert q.coefficient((1, 0)) == 0


def test_factors_skip_strata_with_zero_chi():
    model = three_chain_model()
    # the two point strata with chi = 1, in graded-lex order on m; the
    # three chi = 0 component strata drop out
    assert factors(model, model.strata, model.chosen) == [
        ((1, 1, 2), (2,), -1),
        ((2, 1, 1), (1,), -1),
    ]


def test_plan_poincare_reaches_the_dropped_direction():
    model = three_chain_model()
    plan = SubstitutionPlan(((0, 3), None, (1, 3)))
    degree = 16
    got = quotient_extract(model, plan, degree)
    assert got.bound == degree
    deeper = extract_by_substitution(divisorial_poincare(model, 128), plan).truncate(degree)
    assert got == deeper
    # the largest denominator alone misses terms that pass through the
    # dropped variable, although the extraction claims bound 16 for it
    short = degree * plan.max_denominator
    assert extract_by_substitution(divisorial_poincare(model, short), plan) != deeper


def test_plan_poincare_merges_variables():
    model = three_chain_model()
    plan = SubstitutionPlan(((0, 1), None, (0, 1)))
    got = quotient_extract(model, plan, 12)
    assert got == extract_by_substitution(divisorial_poincare(model, 48), plan).truncate(12)
    # trivial characters i = j mod 3 of i*(2,1,1) + j*(1,1,2): i = j = 1 gives T^6
    assert got.coefficient((6,)) == 1
    assert got.coefficient((3,)) == 0


def test_plan_poincare_scales_coprime_denominators_by_their_lcm():
    # denominators 2 and 3 divide neither each other: L = 6, and the
    # weight (6, 6) becomes (18, 12) / 6 = T^(3, 2); their max, 3, would
    # read it as T^(2, 2)
    g = ResolutionGraph(((1, -1),), (), 1)
    model = StratumModel(g, CharacterRing(()), (1, 1),
                         (Stratum((1,) * 6, 1), Stratum((1,) * 12, 1)))
    plan = SubstitutionPlan(((0, 2), (1, 3)))
    degree = 6
    got = quotient_extract(model, plan, degree)
    assert got == extract_by_substitution(divisorial_poincare(model, 3 * degree), plan)
    assert got.coefficient((3, 2)) == 1


def test_plan_poincare_needs_an_entry_per_chosen_component():
    with pytest.raises(ValueError):
        quotient_extract(three_chain_model(), SubstitutionPlan(((0, 3), (1, 3))), 4)
