import heapq
import json
import math
import time
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from eqpoincare import powerseries
from eqpoincare.charring import CharacterRing, CharElement
from eqpoincare.engine import (
    augmented_series,
    curve_poincare,
    divisorial_poincare,
    quotient_extract,
    restrict_to_character,
)
from eqpoincare.jobs import load_job, parse_job
from eqpoincare.powerseries import (
    DivisibilityError,
    PlanError,
    Series,
    SubstitutionPlan,
    dump_machine,
    expand,
    factor_power,
    graded_lex_key,
    parse_machine,
    render_machine,
    render_text,
    series_eq_upto,
)
from eqpoincare.strata import curve_strata
from substitution import extract_by_substitution, substitute_and_rescale

JOBS = Path(__file__).resolve().parent.parent / "jobs"


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


def test_substitute_drops_terms_beyond_the_output_bound():
    # bound 5 // max denominator 2 = 2: (2, 2) lands on T^3 and is cut
    plan = SubstitutionPlan(((0, 1), (0, 2)))
    out = substitute_and_rescale(Series(2, 5, None, {(1, 2): 1, (2, 2): 4}), plan)
    assert out.bound == 2
    assert out.terms == {(2,): 1}


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


@pytest.mark.parametrize("term,orders,message", [
    ({"exponent": [1], "coefficient": [1]}, None, r"term \(1,\): coefficient \[1\]"),
    ({"exponent": [1], "coefficient": 1.5}, None, r"term \(1,\): coefficient 1\.5"),
    ({"exponent": [1], "coefficient": "1"}, None, r"term \(1,\): coefficient '1'"),
    ({"exponent": [1], "coefficient": None}, None, r"term \(1,\): coefficient None"),
    ({"exponent": [1], "coefficient": True}, None, r"term \(1,\): coefficient True"),
    ({"exponent": [1, 0], "coefficient": 1}, None, r"exponent \(1, 0\) has wrong arity"),
    ({"exponent": [0.5], "coefficient": 1}, None, r"exponent \(0\.5,\) has an entry"),
    ({"exponent": [True], "coefficient": 1}, None, r"exponent \(True,\) has an entry"),
    ({"exponent": [-1], "coefficient": 1}, None, r"exponent \(-1,\) has an entry"),
    ({"exponent": [1], "coefficient": [{"exponents": [1], "coeff": 1.5}]}, [3],
     r"term \(1,\): coefficient 1\.5\*u\^\(1,\) has a part"),
    ({"exponent": [1], "coefficient": [{"exponents": [0.5], "coeff": 1}]}, [3],
     r"term \(1,\): coefficient .* has a part or character"),
    ({"exponent": [1], "coefficient": 2}, [3], r"term \(1,\) must list character parts"),
    ({"exponent": [1], "coefficient": [{"exponents": [1], "coeff": "x"}]}, [3],
     r"term \(1,\): coefficient .* is not a list of character parts"),
    ({"exponent": [1], "coefficient": [{"exponents": [1], "coeff": None}]}, [3],
     r"term \(1,\): coefficient .* is not a list of character parts"),
    ({"exponent": [1], "coefficient": [{"exponents": [1]}]}, [3],
     r"term \(1,\): coefficient .* is not a list of character parts"),
    ({"exponent": [1], "coefficient": [1]}, [3],
     r"term \(1,\): coefficient \[1\] is not a list of character parts"),
    ({"exponent": [1]}, None, r"term \{'exponent': \[1\]\} is not an object"),
    ({"exponent": 1, "coefficient": 1}, None, r"term .* is not an object with an exponent list"),
    (5, None, r"term 5 is not an object"),
])
def test_parse_machine_rejects_what_is_not_an_exact_series(term, orders, message):
    data = {"num_vars": 1, "bound": 2, "ring_orders": orders, "terms": [term]}
    with pytest.raises((ValueError, TypeError), match=message):
        parse_machine(data)


@pytest.mark.parametrize("data,message", [
    ({"num_vars": 1, "bound": 2}, "an object with num_vars, bound and a terms list"),
    ({"num_vars": 1, "bound": 2, "terms": 5}, "an object with num_vars, bound and a terms list"),
    ({"bound": 2, "terms": []}, "an object with num_vars, bound and a terms list"),
    ([], "an object with num_vars, bound and a terms list"),
    ({"num_vars": 1.5, "bound": 2, "terms": []}, "num_vars must be an integer >= 0, got 1.5"),
    ({"num_vars": True, "bound": 2, "terms": []}, "num_vars must be an integer >= 0, got True"),
    ({"num_vars": 1, "bound": 2.5, "terms": []}, "bound must be an integer >= 0, got 2.5"),
    ({"num_vars": 1, "bound": -1, "terms": []}, "bound must be an integer >= 0, got -1"),
])
def test_parse_machine_names_the_field_a_document_gets_wrong(data, message):
    with pytest.raises(ValueError, match=message):
        parse_machine(data)


def test_series_rejects_a_coefficient_from_another_ring():
    ring = CharacterRing((3,))
    with pytest.raises(TypeError, match=r"term \(1,\): .* integer series is not an integer"):
        Series(1, 2, None, {(1,): ring.one()})
    with pytest.raises(TypeError, match=r"term \(1,\): .* does not belong to the series ring"):
        Series(1, 2, ring, {(1,): CharacterRing((2,)).one()})


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
         CharacterRing((2, 2)), CharacterRing((2, 4)), CharacterRing((4, 3))]))
    bound = draw(st.integers(0, 8))
    # entries up to bound + 3, so some steps exceed the bound
    exponent = st.tuples(*[st.integers(0, bound + 3)] * num_vars).filter(any)
    character = (st.just(None) if ring is None
                 else st.tuples(*[st.integers(0, m - 1) for m in ring.orders]))
    records = draw(st.lists(
        st.tuples(exponent, character, st.integers(-3, 3), st.sampled_from([1, -1, 0, 2])),
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
    merged = extract_by_substitution(s, SubstitutionPlan(((0, 1),) * s.num_vars))
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
    assert extract_by_substitution(s, identity).terms == trivial.terms


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


@pytest.mark.parametrize("power", [10**12, -10**12])
def test_expand_takes_a_huge_power_in_one_pass(power):
    start = time.perf_counter()
    s = expand([((1,), None, power)], 1, 4)
    assert time.perf_counter() - start < 10  # one pass per unit of power would never end
    p = abs(power)
    want = [math.comb(k + p - 1, k) if power < 0 else (-1) ** k * math.comb(p, k)
            for k in range(5)]
    assert [s.coefficient((k,)) for k in range(5)] == want
    assert expand([((5,), None, power)], 1, 4) == Series.one(1, 4)


@st.composite
def steep_expansions(draw):
    """Like :func:`expansions`, with powers up to 12 and steps 1..3, so
    that a pass pushes each source several steps, up or down the degrees,
    and stops at |p| or at the bound."""
    records, num_vars, _, ring = draw(expansions())
    bound = draw(st.integers(0, 10))
    exponent = st.tuples(*[st.integers(0, 3)] * num_vars).filter(lambda m: 1 <= sum(m) <= 3)
    records = [(draw(exponent), l, draw(st.integers(-12, 12)), c)
               for _, l, _, c in records]
    return records, num_vars, bound, ring


@settings(max_examples=150)
@given(steep_expansions())
def test_expand_equals_the_fold_for_steep_powers(args):
    records, num_vars, bound, ring = args
    assert expand(records, num_vars, bound, ring) == fold(records, num_vars, bound, ring)


def reference_text(series):
    """The text format as written before the templates, term by term."""
    lines = []
    for exps, c in series.items():
        tpart = "t^(" + ",".join(map(str, exps)) + ")"
        if series.ring is None:
            lines.append(f"{c} * {tpart}")
        else:
            for ce, x in sorted(c.terms.items()):
                lines.append(f"{x} * u^(" + ",".join(map(str, ce)) + f") * {tpart}")
    return "\n".join(lines) if lines else "0"


def reference_dict(series):
    """The machine format as the dicts that ``json.dumps`` used to encode."""
    terms = []
    for exps, c in series.items():
        if series.ring is not None:
            c = [{"exponents": list(e), "coeff": x} for e, x in sorted(c.terms.items())]
        terms.append({"exponent": list(exps), "coefficient": c})
    return {
        "num_vars": series.num_vars,
        "bound": series.bound,
        "ring_orders": None if series.ring is None else list(series.ring.orders),
        "terms": terms,
    }


@st.composite
def written_series(draw):
    """Series over every kind of ring, in 0 to 3 variables, with
    multi-part, negative and beyond-64-bit coefficients, and empty ones."""
    ring = draw(st.sampled_from(
        [None, CharacterRing(()), CharacterRing((3,)), CharacterRing((2, 2))]))
    num_vars = draw(st.integers(0, 3))
    bound = draw(st.integers(0, 6))
    exponent = st.tuples(*[st.integers(0, bound)] * num_vars).filter(
        lambda e: sum(e) <= bound)
    value = st.one_of(st.integers(-5, 5), st.integers(-2**70, 2**70))
    if ring is None:
        coeff = value
    else:
        chars = list(ring.characters())
        coeff = st.dictionaries(st.sampled_from(chars), value, max_size=len(chars)).map(
            ring.element)
    return Series(num_vars, bound, ring, draw(st.dictionaries(exponent, coeff, max_size=8)))


@settings(max_examples=200)
@given(written_series())
def test_writers_match_the_dict_and_line_references(s):
    text = dump_machine(s)
    assert text == json.dumps(reference_dict(s), sort_keys=True)
    assert render_machine(s) == reference_dict(s)
    assert render_text(s) == reference_text(s)
    assert parse_machine(json.loads(text)) == s


@settings(max_examples=150)
@given(expansions())
def test_expanded_series_are_written_from_their_degree_buckets(args):
    records, num_vars, bound, ring = args
    # a factor and its inverse cancel, so some tables drop terms
    records = records + [(m, l, -power, c) for m, l, power, c in records[:1]]
    s = expand(records, num_vars, bound, ring)
    if s._degrees is not None:
        listed = [e for d, es in s._degrees.items() for e in es if sum(e) == d]
        assert sorted(listed) == sorted(s.terms)
    assert render_text(s) == reference_text(s)
    assert dump_machine(s) == json.dumps(reference_dict(s), sort_keys=True)


def star_model():
    """example3 restricted to the one index E0."""
    doc = json.loads((JOBS / "example3.json").read_text())
    doc["chosen"] = ["E0"]
    del doc["extract"], doc["expected"]
    return parse_job(doc).model


def shipped_series(case):
    """The series the dense benchmark writes, from the shipped jobs."""
    job = load_job(JOBS / "example1.json")
    if case == "example1 divisorial 512":
        return divisorial_poincare(job.model, 512)
    if case == "example1 divisorial 512 at (1,)":
        return restrict_to_character(divisorial_poincare(job.model, 512), (1,))
    if case == "example1 curve 3000":
        adjusted = curve_strata(job.model, job.curve.removed_points)
        return curve_poincare(job.model, job.curve.branches, adjusted, 3000)
    return divisorial_poincare(star_model(), 600)


@pytest.mark.parametrize("case,size,multipart", [
    ("example1 divisorial 512", 8385, 0),
    ("example1 divisorial 512 at (1,)", None, 0),
    ("example1 curve 3000", 3001, 0),
    ("example3 star E0 600", 301, 300),
])
def test_writers_match_the_references_at_shipped_scale(case, size, multipart):
    s = shipped_series(case)
    assert size is None or len(s.terms) == size
    if s.ring is not None:
        assert sum(len(c.terms) > 1 for c in s.terms.values()) == multipart
    assert render_text(s) == reference_text(s)
    text = dump_machine(s)
    assert text == json.dumps(reference_dict(s), sort_keys=True)
    assert parse_machine(json.loads(text)) == s


@pytest.mark.parametrize("ring,orders", [(None, "null"), (CharacterRing(()), "[]")])
def test_machine_ring_orders_of_the_trivial_group(ring, orders):
    s = Series.zero(2, 3, ring)
    assert dump_machine(s) == (
        '{"bound": 3, "num_vars": 2, "ring_orders": %s, "terms": []}' % orders)
    assert render_text(s) == "0"


def walked_eq_upto(a, b, degree):
    """series_eq_upto as it was before equal tables returned early: every
    pair is walked in graded-lex order."""
    zero = 0 if a.ring is None else a.ring.zero()
    keys = {e for e in a.terms if sum(e) <= degree}
    keys |= {e for e in b.terms if sum(e) <= degree}
    for e in sorted(keys, key=graded_lex_key):
        ca = a.terms.get(e, zero)
        cb = b.terms.get(e, zero)
        if ca != cb:
            return False, (e, ca, cb)
    return True, None


def count_sort_keys(monkeypatch):
    calls = []

    def counted(exponents):
        calls.append(exponents)
        return graded_lex_key(exponents)

    monkeypatch.setattr(powerseries, "graded_lex_key", counted)
    return calls


def test_equal_tables_are_equal_without_ordering(monkeypatch):
    a = expand([((1, 2), None, -3), ((2, 1), None, 2)], 2, 12)
    b = Series(2, 12, None, dict(a.terms))
    calls = count_sort_keys(monkeypatch)
    assert series_eq_upto(a, b, 12) == (True, None)
    assert calls == []
    # a bound above the degree takes the walk, on either side
    assert series_eq_upto(a, b, 11) == (True, None)
    assert calls
    calls.clear()
    longer = expand([((1, 2), None, -3), ((2, 1), None, 2)], 2, 13)
    assert series_eq_upto(a, longer, 12) == (True, None)
    assert calls


@st.composite
def compared_pairs(draw):
    """A written series, the same series with up to three terms changed,
    and a degree through which to compare them."""
    a = draw(written_series())
    exponent = st.tuples(*[st.integers(0, a.bound)] * a.num_vars).filter(
        lambda e: sum(e) <= a.bound)
    edits = draw(st.dictionaries(exponent, st.integers(-2, 2), max_size=3))
    b = a + Series(a.num_vars, a.bound, a.ring, edits)
    return a, b, draw(st.integers(0, a.bound))


@settings(max_examples=200)
@given(compared_pairs())
def test_comparison_reports_the_walked_first_difference(pair):
    a, b, degree = pair
    assert series_eq_upto(a, b, degree) == walked_eq_upto(a, b, degree)
    assert series_eq_upto(b, a, degree) == walked_eq_upto(b, a, degree)


@pytest.mark.parametrize("power", range(-6, 7))
def test_expand_a_lone_first_factor_equals_the_fold(power):
    # on the one-term table the first factor is one binomial pass, also
    # for a positive power below bound // step, where k stops at power
    ring = CharacterRing((3,))
    for bound in range(13):
        for m in ((1, 0), (1, 2)):
            records = [(m, (1,), power, -1), ((1, 1), (2,), -1, 1)]
            got = expand(records, 2, bound, ring)
            want = fold(records, 2, bound, ring)
            assert got.terms.keys() == want.terms.keys(), (bound, m)
            assert got == want, (bound, m)


def count_pass_calls(monkeypatch):
    """The passes ``expand`` runs, in order, one ``(power, direction)`` per
    call.  A pass up the degrees pops them from a heap, as it queues the
    degrees it makes; a pass down takes them off the end of a sorted list."""
    calls, pops = [], []
    monkeypatch.setattr(powerseries, "heapq", SimpleNamespace(
        heappush=heapq.heappush, heappop=lambda heap: pops.append(1) or heapq.heappop(heap)))

    def counted(*args, apply=powerseries._apply_factor):
        pops.clear()
        apply(*args)
        calls.append((args[5], "up" if pops else "down"))

    monkeypatch.setattr(powerseries, "_apply_factor", counted)
    return calls


def test_a_lone_first_factor_takes_one_pass(monkeypatch):
    calls = count_pass_calls(monkeypatch)
    records = [((1,), None, -2, 1), ((2,), None, -2, 1)]
    assert expand(records, 1, 100) == fold(records, 1, 100, None)
    # the first factor writes its run down; the second meets a full table
    # and takes one pass up, whatever its power
    assert calls == [(-2, "down"), (-2, "up")]


def parallel(a, b):
    """Whether the vectors a and b are parallel: every 2 x 2 minor is 0."""
    return all(a[i] * b[j] == a[j] * b[i] for i, j in combinations(range(len(a)), 2))


@st.composite
def run_expansions(draw):
    """Arguments of :func:`expand` aimed at the whole-run pass, in 2 or 3
    variables: a direction m1; a multiple of m1 with another character, so
    the table's sources hold several character parts; a direction m2
    outside the span of m1; the inverse of the first factor, which leaves
    zeros in the table; and a steep factor with |p| > bound // |m|."""
    num_vars = draw(st.integers(2, 3))
    ring = draw(st.sampled_from([None, CharacterRing((3,)), CharacterRing((2, 2))]))
    bound = draw(st.integers(2, 12))
    exponent = st.tuples(*[st.integers(0, 3)] * num_vars).filter(any)
    character = (st.just(None) if ring is None
                 else st.tuples(*[st.integers(0, m - 1) for m in ring.orders]))
    power = st.integers(-3, 3).filter(bool)
    sign = st.sampled_from([1, -1])
    m1 = draw(exponent)
    m2 = draw(exponent.filter(lambda m: not parallel(m, m1)))
    l1 = draw(character)
    l2 = draw(character.filter(lambda l: ring is None or l != l1))
    first = (m1, l1, draw(power), draw(sign))
    records = [first, (tuple(2 * x for x in m1), l2, draw(power), draw(sign)),
               (m2, draw(character), draw(power), draw(sign)),
               (m1, l1, -first[2], first[3])]
    steep = draw(exponent.filter(lambda m: sum(m) <= bound))
    records.insert(draw(st.integers(0, len(records))), (
        steep, draw(character), draw(st.sampled_from([-1, 1])) * (bound // sum(steep) + 1),
        draw(sign)))
    return records, num_vars, bound, ring


@settings(max_examples=150)
@given(run_expansions())
def test_whole_runs_equal_the_fold(args):
    records, num_vars, bound, ring = args
    got = expand(records, num_vars, bound, ring)
    want = fold(records, num_vars, bound, ring)
    assert got.terms.keys() == want.terms.keys()
    assert got == want


def test_expand_walks_a_huge_ring_only_as_far_as_its_runs():
    ring = CharacterRing((10**9,))
    start = time.perf_counter()
    s = expand([((1,), (1,), -1)], 1, 200, ring)
    assert time.perf_counter() - start < 0.5
    assert len(s.terms) == 201
    assert all(c.terms == {(k,): 1} for (k,), c in s.terms.items())
    start = time.perf_counter()
    pair = expand([((1, 0), (1,), -1), ((0, 1), (2,), -1)], 2, 300, ring)
    assert time.perf_counter() - start < 0.5
    assert len(pair.terms) == 301 * 302 // 2
    assert all(c.terms == {(a + 2 * b,): 1} for (a, b), c in pair.terms.items())


def test_independent_factors_each_take_one_pass_down(monkeypatch):
    # example1's two weights span a plane: each factor writes its runs whole
    calls = count_pass_calls(monkeypatch)
    divisorial_poincare(load_job(JOBS / "example1.json").model, 64)
    assert calls == [(-1, "down"), (-1, "down")]


def test_the_star_takes_one_pass_per_factor(monkeypatch):
    # one variable: the first factor spans it, every later one is dependent,
    # its two quotients going up the degrees and its product down
    calls = count_pass_calls(monkeypatch)
    divisorial_poincare(star_model(), 64)
    assert calls == [(-1, "down"), (-1, "up"), (-1, "up"), (1, "down")]


def test_adjacent_equal_factors_take_their_summed_power(monkeypatch):
    # the first pair cancels and takes no pass; the second is one factor of
    # power 1, the first applied, so one pass
    calls = count_pass_calls(monkeypatch)
    records = [((1, 2), None, -3, 1), ((1, 2), None, 3, 1),
               ((2, 1), None, 2, -1), ((2, 1), None, -1, -1)]
    assert expand(records, 2, 12) == fold(records, 2, 12, None)
    assert calls == [(1, "down")]


def test_a_sparse_quotient_walks_only_the_degrees_that_occur():
    # 1001 multiples of 10^5 below 10^8: a walk over every degree up to the
    # bound would take seconds
    start = time.perf_counter()
    s = expand([((10**5,), None, -1), ((3 * 10**5,), None, -1)], 1, 10**8)
    assert time.perf_counter() - start < 0.5
    # the same series in units of 10^5
    small = fold([((1,), None, -1, 1), ((3,), None, -1, 1)], 1, 1000, None)
    assert s.terms == {(k * 10**5,): c for (k,), c in small.terms.items()}
    assert len(s.terms) == 1001


def test_a_cancelled_term_writes_nothing_up_to_the_bound():
    # (1 - t^2) / (1 - t) = 1 + t: the recurrence cancels t^2, and nothing
    # past it may be walked, empty or not
    start = time.perf_counter()
    s = expand([((2,), None, 1), ((1,), None, -1)], 1, 10**6)
    assert time.perf_counter() - start < 0.5
    assert s.terms == {(0,): 1, (1,): 1}
    ring = CharacterRing((2,))  # (1 - u^2 t^2) / (1 - u t) = 1 + u t
    start = time.perf_counter()
    s = expand([((2,), (2,), 1), ((1,), (1,), -1)], 1, 10**6, ring)
    assert time.perf_counter() - start < 0.5
    assert s.terms == {(0,): ring.one(), (1,): ring.element({(1,): 1})}


def adopted_series(case):
    job = load_job(JOBS / "example1.json")
    if case == "example1 divisorial 200":
        return divisorial_poincare(job.model, 200)
    if case == "star divisorial 300":
        return divisorial_poincare(star_model(), 300)
    if case == "example1 curve 1000":
        adjusted = curve_strata(job.model, job.curve.removed_points)
        return curve_poincare(job.model, job.curve.branches, adjusted, 1000)
    return quotient_extract(job.model, job.extract, 40)


@pytest.mark.parametrize("case", ["example1 divisorial 200", "star divisorial 300",
                                  "example1 curve 1000", "example1 plan 40"])
def test_expand_hands_the_writers_every_term_once_under_its_degree(case):
    s = adopted_series(case)
    assert s._degrees is not None
    listed = [e for es in s._degrees.values() for e in es]
    assert len(listed) == len(set(listed)) == len(s.terms)
    assert set(listed) == set(s.terms)
    assert all(sum(e) == d for d, es in s._degrees.items() for e in es)
    assert render_text(s) == reference_text(s)
    assert dump_machine(s) == json.dumps(reference_dict(s), sort_keys=True)
