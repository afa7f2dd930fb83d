"""The package's records: immutable values with keyword construction,
field defaults, value equality and hashing, and a ``Name(field=value)``
repr.  Importing the command line front end loads no module that only
record generation would need."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from eqpoincare.charring import CharacterRing
from eqpoincare.jobs import Job, load_job
from eqpoincare.oracle import MonomialModel
from eqpoincare.resolution import ResolutionGraph
from eqpoincare.strata import (
    Branch,
    CharDerivation,
    RemovedPointOrbit,
    Stratum,
    StratumModel,
    curve_strata,
)

ROOT = Path(__file__).resolve().parent.parent


def chain_model():
    graph = ResolutionGraph(((1, -1), (2, -3), (3, -1)), ((1, 2), (2, 3)), 2)
    strata = (
        Stratum((1,), 1, derivation=CharDerivation((1,), 1), label="x-axis point"),
        Stratum((3,), 1, char_exponents=(2,), label="y-axis point"),
        Stratum((2, 2, 2), 0, label="middle open"),
    )
    return StratumModel(graph, CharacterRing((3,)), (1, 3), strata)


@pytest.mark.parametrize("record,field", [
    (CharacterRing((3,)), "orders"),
    (Stratum((1,), 1), "chi"),
    (Branch(attach=3), "label"),
    (RemovedPointOrbit("s", 1), "count"),
    (MonomialModel(3, (1, -1)), "weights"),
    (chain_model(), "strata"),
    (chain_model().graph, "components"),
    (Job("job", chain_model()), "expected"),
], ids=lambda x: type(x).__name__ if not isinstance(x, str) else x)
def test_a_field_cannot_be_assigned(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


def test_keyword_construction_and_defaults():
    assert Branch(attach=3) == Branch(3, None)
    assert Branch(attach=3).label is None
    orbit = RemovedPointOrbit("s", 1)
    assert (orbit.stratum, orbit.count, orbit.degree) == ("s", 1, None)
    assert RemovedPointOrbit(stratum="s", count=1, degree=2).degree == 2
    stratum = Stratum(carrier=[2, 2], chi=-1, char_exponents=[1])
    assert (stratum.carrier, stratum.char_exponents) == ((2, 2), (1,))
    assert (stratum.derivation, stratum.label) == (None, None)
    model = chain_model()
    first, second = Job("a", model), Job("b", model)
    assert first.expected == {} and first.expected is not second.expected
    assert (first.orbits, first.curve, first.extract, first.oracle) == (None,) * 4


def test_separately_built_records_are_equal_and_hash_equal():
    a, b = CharacterRing((3,)), CharacterRing((3,))
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != CharacterRing((3, 2))
    assert chain_model() == chain_model()
    assert hash(chain_model()) == hash(chain_model())
    assert load_job(ROOT / "jobs" / "example1.json").curve == \
        load_job(ROOT / "jobs" / "example1.json").curve


def test_repr_names_the_record_and_its_fields():
    assert repr(CharacterRing((3,))) == "CharacterRing(orders=(3,))"
    assert repr(Branch(3)) == "Branch(attach=3, label=None)"
    assert repr(RemovedPointOrbit("s", 1)) == \
        "RemovedPointOrbit(stratum='s', count=1, degree=None)"
    assert repr(Stratum((1,), 1, derivation=CharDerivation((1,), 1))) == (
        "Stratum(carrier=(1,), chi=1, char_exponents=None, "
        "derivation=CharDerivation(p0_char_exponents=(1,), p0_orbit_size=1), "
        "label=None)")


def test_curve_strata_changes_only_chi():
    model = chain_model()
    adjusted = curve_strata(model, [RemovedPointOrbit("y-axis point", 1),
                                    RemovedPointOrbit("middle open", 2)])
    for before, after in zip(model.strata, adjusted, strict=True):
        assert type(after) is Stratum
        for field in ("carrier", "char_exponents", "derivation", "label"):
            assert getattr(after, field) == getattr(before, field)
    assert [st.chi for st in adjusted] == [1, 0, -2]


def test_importing_the_front_end_skips_dataclasses_and_inspect():
    # each CLI command is a fresh process: what the import pulls in is
    # start-up every command pays
    probe = ("import sys, eqpoincare.cli; "
             "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
