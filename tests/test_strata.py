import pytest

from eqpoincare.charring import CharacterRing
from eqpoincare.resolution import ResolutionGraph
from eqpoincare.strata import (
    Branch,
    CharDerivation,
    OrbitDecl,
    RemovedPointOrbit,
    StrataError,
    Stratum,
    StratumModel,
    curve_strata,
    derive_stratum_character,
    resolve_character,
    stratum_multiplicities,
    validate_strata,
)


def three_chain_model():
    # chain of self-intersections -1, -3, -1 with the middle blown up first;
    # cyclic group of order 3 fixing one point on each outer component
    g = ResolutionGraph(((1, -1), (2, -3), (3, -1)), ((1, 2), (2, 3)), 2)
    ring = CharacterRing((3,))
    strata = (
        Stratum((1,), 1, derivation=CharDerivation((1,), 1), label="x-axis point"),
        Stratum((3,), 1, derivation=CharDerivation((2,), 1), label="y-axis point"),
        Stratum((2, 2, 2), 0, label="middle open"),
        Stratum((1,), 0, label="first open"),
        Stratum((3,), 0, label="last open"),
    )
    return StratumModel(g, ring, (1, 2, 3), strata)


def test_stratum_multiplicities():
    model = three_chain_model()
    x_pt, y_pt, middle = model.strata[0], model.strata[1], model.strata[2]
    assert stratum_multiplicities(model, x_pt, model.chosen) == (2, 1, 1)
    assert stratum_multiplicities(model, y_pt, model.chosen) == (1, 1, 2)
    # carrier entries add up, with multiplicity
    assert stratum_multiplicities(model, middle, model.chosen) == (3, 3, 3)
    assert stratum_multiplicities(model, x_pt, (3,)) == (1,)


def test_character_derivation():
    model = three_chain_model()
    assert derive_stratum_character(model, model.strata[0]) == (1,)
    assert derive_stratum_character(model, model.strata[1]) == (2,)
    with pytest.raises(StrataError, match="no character derivation data"):
        derive_stratum_character(model, model.strata[2])


def test_resolve_character_cross_check():
    model = three_chain_model()
    ok = Stratum((1,), 1, char_exponents=(4,), derivation=CharDerivation((1,), 1))
    assert resolve_character(model, ok) == (1,)
    bad = Stratum((1,), 1, char_exponents=(2,), derivation=CharDerivation((1,), 1))
    with pytest.raises(StrataError, match="derivation gives"):
        resolve_character(model, bad)
    nothing = Stratum((1,), 1)
    with pytest.raises(StrataError, match="no character"):
        resolve_character(model, nothing)


def test_resolve_character_trivial_ring_defaults():
    g = ResolutionGraph(((1, -1),), (), 1)
    model = StratumModel(g, CharacterRing(()), (1,), (Stratum((1,), 2),))
    assert resolve_character(model, model.strata[0]) == ()


def test_degree_must_be_multiple_of_reference_orbit():
    model = three_chain_model()
    st = Stratum((1,), 1, derivation=CharDerivation((1,), 2))
    with pytest.raises(StrataError, match="multiple"):
        derive_stratum_character(model, st)


def test_carrier_entries_must_agree_on_character():
    # cusp chain 1 -> 2 -> 3 where the multiplicities to the marked
    # component differ between the carrier entries (M[1][1] = 1, M[3][1] = 2)
    g = ResolutionGraph(((1, -3), (2, -2), (3, -1)), ((1, 3), (3, 2)), 1)
    ring = CharacterRing((3,))
    st = Stratum((1, 3), 1, derivation=CharDerivation((1,), 1))
    model = StratumModel(g, ring, (1,), (st,))
    with pytest.raises(StrataError, match="disagree"):
        derive_stratum_character(model, st)


def test_carrier_entries_that_disagree_are_listed_in_carrier_order():
    # the same cusp chain with string ids, which a set would order by
    # the string hash seed
    g = ResolutionGraph((("P", -3), ("Q", -2), ("R", -1)), (("P", "R"), ("R", "Q")), "P")
    ring = CharacterRing((3,))
    st = Stratum(("R", "P", "R"), 1, derivation=CharDerivation((1,), 3))
    model = StratumModel(g, ring, ("P",), (st,))
    with pytest.raises(StrataError) as err:
        derive_stratum_character(model, st)
    assert str(err.value) == (
        "stratum ('R', 'P', 'R'): carrier entries disagree on the derived "
        "character: {'R': (2,), 'P': (1,)}"
    )


def test_model_validation():
    g = ResolutionGraph(((1, -1),), (), 1)
    ring = CharacterRing((3,))
    with pytest.raises(StrataError, match="carrier component"):
        StratumModel(g, ring, (1,), (Stratum((7,), 1),))
    with pytest.raises(StrataError, match="chosen"):
        StratumModel(g, ring, (9,), ())
    with pytest.raises(StrataError, match="ring generators"):
        StratumModel(g, ring, (1,), (Stratum((1,), 1, char_exponents=(0, 0)),))
    with pytest.raises(StrataError, match="orbit size must be positive"):
        StratumModel(g, ring, (1,), (Stratum((1,), 1, derivation=CharDerivation((1,), 0)),))
    with pytest.raises(StrataError, match="empty carrier"):
        Stratum((), 1)


def test_bookkeeping_validation_passes():
    model = three_chain_model()
    orbits = [
        OrbitDecl((1,), (1,)),
        OrbitDecl((2,), (2,)),
        OrbitDecl((3,), (1,)),
    ]
    report = validate_strata(model, orbits)
    assert report.ok
    assert [c.euler_sum for c in report.checks] == [1, 0, 1]
    assert [c.expected for c in report.checks] == [1, 0, 1]


def test_bookkeeping_detects_wrong_chi():
    model = three_chain_model()
    strata = list(model.strata)
    strata[0] = Stratum((1,), 2, derivation=CharDerivation((1,), 1))
    broken = StratumModel(model.graph, model.ring, model.chosen, tuple(strata))
    report = validate_strata(
        broken,
        [OrbitDecl((1,), (1,)), OrbitDecl((2,), (2,)), OrbitDecl((3,), (1,))],
    )
    assert not report.ok
    bad = [c for c in report.checks if not c.ok]
    assert len(bad) == 1 and bad[0].components == (1,)


def test_bookkeeping_findings():
    model = three_chain_model()
    report = validate_strata(model, [OrbitDecl((1, 2), (1, 2))])
    assert any("no orbit" in f for f in report.findings)
    assert not report.ok
    spanning = StratumModel(
        model.graph, model.ring, model.chosen, (Stratum((1, 3), 1),)
    )
    report = validate_strata(
        spanning, [OrbitDecl((1,), (1,)), OrbitDecl((2,), (2,)), OrbitDecl((3,), (1,))]
    )
    assert any("spans" in f for f in report.findings)
    report = validate_strata(model, [OrbitDecl((1, 1), (1, 1))])
    assert any("two orbits" in f for f in report.findings)
    report = validate_strata(model, [OrbitDecl((9,), (0,))])
    assert "orbit 0: unknown component 9" in report.findings


def test_bookkeeping_names_each_unassigned_carrier_component_once():
    model = three_chain_model()
    strata = (Stratum((1, 3, 1), 1), Stratum((2, 2), 1), Stratum((3, 3), 1))
    report = validate_strata(model._replace(strata=strata), [OrbitDecl((1, 2), (1, 2))])
    assert report.findings == [
        "stratum (1, 3, 1): carrier components [3] in no orbit",
        "stratum (3, 3): carrier components [3] in no orbit",
    ]
    assert report.checks[0].euler_sum == 2  # chi 1 times covering degree 2


def test_curve_strata_adjustment():
    model = three_chain_model()
    adjusted = curve_strata(model, [RemovedPointOrbit("y-axis point", 1, degree=1)])
    assert adjusted[1].chi == 0
    assert adjusted[0].chi == 1
    # characters and carriers survive untouched
    assert adjusted[1].derivation == model.strata[1].derivation


def test_curve_bookkeeping_counts_the_branches():
    # the branch meets component 3, so its orbit loses one point more than
    # its valence; the removed strict-transform point must lie there too
    model = three_chain_model()
    orbits = [OrbitDecl((1,), (1,)), OrbitDecl((2,), (2,)), OrbitDecl((3,), (1,))]
    branches = [Branch(3)]

    def checks(stratum):
        removed = [RemovedPointOrbit(stratum, 1)] if stratum else []
        curve = model._replace(strata=curve_strata(model, removed))
        report = validate_strata(curve, orbits, branches)
        return [(c.euler_sum, c.expected) for c in report.checks]

    assert checks("y-axis point") == [(1, 1), (0, 0), (0, 0)]
    assert checks("x-axis point") == [(0, 1), (0, 0), (1, 0)]
    assert checks(None) == [(1, 1), (0, 0), (1, 0)]


def test_curve_strata_errors():
    model = three_chain_model()
    with pytest.raises(StrataError, match="degree"):
        curve_strata(model, [RemovedPointOrbit("y-axis point", 1, degree=3)])
    with pytest.raises(StrataError, match="0 strata"):
        curve_strata(model, [RemovedPointOrbit("nowhere", 1)])
    with pytest.raises(StrataError, match="no stratum"):
        curve_strata(model, [RemovedPointOrbit(99, 1)])
    with pytest.raises(StrataError, match=">= 0"):
        curve_strata(model, [RemovedPointOrbit("y-axis point", -1)])


def test_curve_strata_multiset_removal():
    model = three_chain_model()
    adjusted = curve_strata(model, [RemovedPointOrbit("middle open", 2, degree=3)])
    assert adjusted[2].chi == -2


def test_branch_is_plain_data():
    b = Branch(attach=3, label="y-axis")
    assert b.attach == 3
