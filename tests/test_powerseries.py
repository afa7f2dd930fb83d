import pytest
from hypothesis import given, settings, strategies as st

from eqpoincare.charring import CharacterRing, CharElement
from eqpoincare.engine import augmented_series, quotient_extract, restrict_to_character
from eqpoincare.powerseries import (
    DivisibilityError,
    PlanError,
    Series,
    SubstitutionPlan,
    expand,
    factor_power,
    parse_machine,
    render_machine,
    render_text,
    series_eq_upto,
    substitute_and_rescale,
)


def test_geometric_series():
    s = factor_power(1, (1,), -1, num_vars=1, bound=5)
    assert s == Series(1, 5, None, {(k,): 1 for k in range(6)})


def test_positive_power_binomial():
    s = factor_power(1, (1,), 2, num_vars=1, bound=5)
    assert s == Series(1, 5, None, {(0,): 1, (1,): -2, (2,): 1})


def test_squared_inverse_counts_multiplicity():
    # (1 - t)^(-2) = sum (k+1) t^k
    s = factor_power(1, (1,), -2, num_vars=1, bound=6)
    assert [s.coefficient((k,)) for k in range(7)] == [1, 2, 3, 4, 5, 6, 7]


def test_factor_power_multi_index():
    s = factor_power(1, (2, 1), -1, num_vars=2, bound=7)
    assert s.coefficient((4, 2)) == 1
    assert s.coefficient((2, 2)) == 0
    assert sum(1 for _ in s.items()) == 3  # k = 0, 1, 2


def test_factor_power_with_character_coefficient():
    ring = CharacterRing((3,))
    u = ring.monomial((1,))
    s = factor_power(u, (1,), -1, num_vars=1, bound=4, ring=ring)
    assert s.coefficient((2,)) == ring.monomial((2,))
    assert s.coefficient((3,)) == ring.one()


def test_factor_power_zero_exponent():
    assert factor_power(1, (0, 0), 0, num_vars=2, bound=3) == Series.one(2, 3)
    with pytest.raises(ValueError):
        factor_power(1, (0, 0), -1, num_vars=2, bound=3)


def test_zero_coefficients_dropped():
    s = Series(1, 3, None, {(1,): 0, (2,): 5})
    assert list(s.terms) == [(2,)]
    ring = CharacterRing((2,))
    z = Series(1, 3, ring, {(1,): ring.zero()})
    assert not z.terms


def test_bound_respected():
    with pytest.raises(ValueError):
        Series(1, 3, None, {(4,): 1})
    with pytest.raises(ValueError):
        Series(2, 3, None, {(1, -1): 1})


def test_product_truncates_to_smaller_bound():
    a = factor_power(1, (1,), -1, num_vars=1, bound=10)
    b = factor_power(1, (1,), -1, num_vars=1, bound=4)
    assert (a * b).bound == 4


def test_coefficient_beyond_bound_is_an_error():
    s = Series.one(1, 3)
    with pytest.raises(ValueError):
        s.coefficient((4,))


def test_eq_upto_reports_first_difference():
    a = Series(1, 5, None, {(0,): 1, (2,): 3})
    b = Series(1, 5, None, {(0,): 1, (2,): 4, (1,): 0})
    equal, diff = series_eq_upto(a, b, 5)
    assert not equal
    assert diff == ((2,), 3, 4)
    equal, diff = series_eq_upto(a, b, 1)
    assert equal and diff is None
    with pytest.raises(ValueError):
        series_eq_upto(a, b, 6)


def test_substitute_merge_and_divide():
    # t1 -> T1^3's inverse scaling: T1 = t1^(1/3), t2 dropped, t3 -> T2^(1/3)
    plan = SubstitutionPlan(((0, 3), None, (1, 3)))
    s = Series(3, 16, None, {(0, 0, 0): 1, (3, 2, 3): 1, (6, 4, 6): 2})
    out = substitute_and_rescale(s, plan)
    assert out.num_vars == 2
    assert out.bound == 5
    assert out.coefficient((1, 1)) == 1
    assert out.coefficient((2, 2)) == 2


def test_substitute_merges_two_inputs_into_one_output():
    plan = SubstitutionPlan(((0, 1), (0, 1)))
    s = Series(2, 4, None, {(1, 2): 1, (3, 0): 5})
    out = substitute_and_rescale(s, plan)
    assert out.coefficient((3,)) == 6


def test_substitute_drop_everything():
    plan = SubstitutionPlan((None, None))
    s = Series(2, 2, None, {(0, 0): 1, (1, 1): 1})
    out = substitute_and_rescale(s, plan)
    assert out.num_vars == 0
    assert out.coefficient(()) == 2


def test_substitute_divisibility_error():
    plan = SubstitutionPlan(((0, 2),))
    with pytest.raises(DivisibilityError):
        substitute_and_rescale(Series(1, 3, None, {(3,): 1}), plan)


def test_substitute_character_coefficients_merge():
    ring = CharacterRing((2,))
    u = ring.monomial((1,))
    s = Series(2, 3, ring, {(1, 0): u, (0, 1): u})
    out = substitute_and_rescale(s, SubstitutionPlan(((0, 1), (0, 1))))
    assert out.coefficient((1,)) == 2 * u


def test_plan_validation():
    with pytest.raises(PlanError):
        SubstitutionPlan(((1, 1),))  # output 0 never targeted
    with pytest.raises(PlanError):
        SubstitutionPlan(((0, 0),))
    with pytest.raises(PlanError):
        substitute_and_rescale(Series.one(2, 3), SubstitutionPlan(((0, 1),)))


def test_render_text_integer():
    s = Series(2, 3, None, {(0, 0): 1, (2, 1): -2})
    assert render_text(s) == "1 * t^(0,0)\n-2 * t^(2,1)"
    assert render_text(Series.zero(1, 2)) == "0"


def test_render_text_flattens_characters():
    ring = CharacterRing((3,))
    s = Series(1, 2, ring, {(1,): ring.element({(0,): 2, (2,): -1})})
    assert render_text(s) == "2 * u^(0) * t^(1)\n-1 * u^(2) * t^(1)"


def test_machine_round_trip_integer():
    s = Series(2, 5, None, {(0, 0): 1, (3, 1): -4})
    assert parse_machine(render_machine(s)) == s


def test_machine_round_trip_equivariant():
    ring = CharacterRing((2, 2))
    s = Series(1, 3, ring, {(2,): ring.element({(1, 0): 3, (0, 1): -1})})
    back = parse_machine(render_machine(s))
    assert back == s
    assert back.ring == ring


small_exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))


def int_series(bound=6):
    return st.dictionaries(
        small_exponents.filter(lambda e: sum(e) <= bound),
        st.integers(-4, 4),
        max_size=5,
    ).map(lambda d: Series(2, bound, None, d))


@given(int_series(), int_series(), int_series())
def test_series_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(int_series(), int_series(), st.integers(0, 6))
def test_truncation_coherence(a, b, n):
    assert (a * b).truncate(n) == a.truncate(n) * b.truncate(n)
    assert (a + b).truncate(n) == a.truncate(n) + b.truncate(n)


@settings(max_examples=60)
@given(st.data())
def test_factor_times_inverse_is_one(data):
    ring = data.draw(st.sampled_from([None, CharacterRing((3,)), CharacterRing((2, 2))]))
    if ring is None:
        c = data.draw(st.integers(-3, 3))
    else:
        chars = list(ring.characters())
        c = ring.element(
            {e: data.draw(st.integers(-2, 2)) for e in data.draw(
                st.lists(st.sampled_from(chars), max_size=2, unique=True))}
        )
    m = data.draw(st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda e: sum(e) > 0))
    e = data.draw(st.integers(1, 3))
    bound = 8
    plus = factor_power(c, m, e, num_vars=2, bound=bound, ring=ring)
    minus = factor_power(c, m, -e, num_vars=2, bound=bound, ring=ring)
    assert plus * minus == Series.one(2, bound, ring)


def fold(records, num_vars, bound, ring):
    """The product of the records through factor_power and Series.__mul__."""
    out = Series.one(num_vars, bound, ring)
    for m, l, power, c in records:
        if ring is not None:
            c = ring.monomial(l or (0,) * ring.num_generators, c)
        out = out * factor_power(c, m, power, num_vars=num_vars, bound=bound, ring=ring)
    return out


@st.composite
def expansions(draw):
    """Arguments (records, num_vars, bound, ring) of :func:`expand`."""
    num_vars = draw(st.integers(1, 3))
    ring = draw(st.sampled_from(
        [None, CharacterRing(()), CharacterRing((2,)), CharacterRing((3,)),
         CharacterRing((2, 2))]))
    bound = draw(st.integers(0, 8))
    # entries up to bound + 3, so some steps exceed the bound
    exponent = st.tuples(*[st.integers(0, bound + 3)] * num_vars).filter(any)
    character = (st.just(None) if ring is None
                 else st.tuples(*[st.integers(0, m - 1) for m in ring.orders]))
    records = draw(st.lists(
        st.tuples(exponent, character, st.integers(-3, 3), st.sampled_from([1, -1])),
        max_size=4))
    return records, num_vars, bound, ring


@settings(max_examples=150)
@given(expansions())
def test_expand_equals_the_fold(args):
    records, num_vars, bound, ring = args
    got = expand(records, num_vars, bound, ring)
    want = fold(records, num_vars, bound, ring)
    assert got.bound == want.bound == bound
    assert got.terms.keys() == want.terms.keys()
    assert got == want


def checked(series, ring, coeff):
    """``coeff`` of every coefficient of ``series``, through the
    validating constructor."""
    return Series(series.num_vars, series.bound, ring,
                  {e: coeff(c) for e, c in series.terms.items()})


@settings(max_examples=150)
@given(expansions())
def test_adopted_series_pass_the_checks_they_skip(args):
    records, num_vars, bound, ring = args
    # a factor and its inverse cancel, leaving zeros in the kernel's table
    records = records + [(m, l, -power, c) for m, l, power, c in records[:1]]
    s = expand(records, num_vars, bound, ring)
    assert s.terms == Series(s.num_vars, s.bound, s.ring, dict(s.terms)).terms
    for c in s.terms.values():
        if s.ring is None:
            assert isinstance(c, int) and c != 0
        else:
            assert isinstance(c, CharElement) and c.ring == s.ring
            assert c.terms and all(c.terms.values())
    # merging every variable into one adds coefficients, which may cancel
    merged = quotient_extract(s, SubstitutionPlan(((0, 1),) * s.num_vars))
    assert merged.terms == Series(1, s.bound, None, dict(merged.terms)).terms
    assert all(merged.terms.values())
    if s.ring is None:
        return
    for alpha in s.ring.characters():
        got = restrict_to_character(s, alpha)
        assert got.terms == checked(s, None, lambda c: c.coefficient(alpha)).terms
    assert augmented_series(s).terms == checked(s, None, CharElement.augment).terms
    identity = SubstitutionPlan(tuple((i, 1) for i in range(s.num_vars)))
    trivial = checked(s, None, CharElement.trivial_part)
    assert quotient_extract(s, identity).terms == trivial.terms


@pytest.mark.parametrize("ring", [None, CharacterRing((2,))])
def test_substitute_drops_sums_that_cancel(ring):
    c = 1 if ring is None else ring.monomial((1,))
    s = Series(2, 4, ring, {(1, 0): c, (0, 1): -c, (1, 1): 2})
    merged = substitute_and_rescale(s, SubstitutionPlan(((0, 1), (0, 1))))
    assert list(merged.terms) == [(2,)]


def test_expand_defaults_to_coefficient_one_and_trivial_character():
    ring = CharacterRing((3,))
    assert expand([((1,), None, -1)], 1, 4, ring) == fold([((1,), None, -1, 1)], 1, 4, ring)
    assert expand([], 2, 5, ring) == Series.one(2, 5, ring)


@pytest.mark.parametrize("record,message", [
    (((1, -1), None, -1), "negative entry"),
    (((0, 0), None, 2), "zero exponent vector"),
    (((1,), None, -1), "wrong arity"),
])
def test_expand_rejects_factors_that_are_not_power_series(record, message):
    with pytest.raises(ValueError, match=message):
        expand([record], 2, 6)


def test_expand_allows_a_constant_factor_to_the_power_zero():
    assert expand([((0, 0), None, 0)], 2, 6) == Series.one(2, 6)
