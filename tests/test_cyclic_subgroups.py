"""An outside check of the non-abelian job through its cyclic subgroups.

``example3`` is the quotient by Q8, whose abelianisation Z/2 x Z/2 is the
series' character ring.  Each subgroup H = <I>, <J>, <IJ> is cyclic of
order 4 and acts diagonally in its own eigen-coordinates, x -> i x and
y -> -i y, so a monomial x^a y^b has H-character i^(a - b).  Restricting
from G to H is valid here because the valuation of E0 is the order of a
function, which is the same in every linear coordinate system: every
ideal J(v) is G-invariant and spanned by monomials in H's coordinates.
The 2-dimensional irreducible of Q8 restricts to the characters +-i of
each H, so the parts on which H acts by (-1)^g come from the four
1-dimensional characters alone:

    sum over (alpha, beta) with s . (alpha, beta) = g (mod 2) of P_(alpha, beta)(d)
        = #{x^a y^b : a + b = d, a - b = 2 g (mod 4)}

where s = (1, 0), (0, 1), (1, 1) gives the restriction to <I>, <J>, <IJ>
under the job's labelling.  Nothing on the right reads the strata.  The
identity does not hold for the arm components A_c and B_c, which Q8
permutes, so only ``chosen = ["E0"]`` is checked.
"""

import json
from pathlib import Path

import pytest

from eqpoincare.engine import divisorial_poincare, restrict_to_character
from eqpoincare.jobs import parse_job

JOBS = Path(__file__).resolve().parent.parent / "jobs"
DEGREE = 60
RESTRICTIONS = [(1, 0), (0, 1), (1, 1)]  # to <I>, <J> and <IJ>


def star_doc():
    doc = json.loads((JOBS / "example3.json").read_text())
    doc["chosen"] = ["E0"]
    del doc["extract"], doc["expected"]
    return doc


def count(d: int, g: int, order: int) -> int:
    """Monomials x^a y^b of degree d on which a generator of a cyclic H of
    ``order``, acting by (z, 1 / z), acts by (-1)^g."""
    return sum((a - (d - a) - g * order // 2) % order == 0 for a in range(d + 1))


def mismatches(doc, order: int = 4) -> list:
    """The (restriction, g, degree) at which the identity fails."""
    model = parse_job(doc).model
    series = divisorial_poincare(model, DEGREE)
    parts = {chi: restrict_to_character(series, chi) for chi in model.ring.characters()}
    failed = []
    for s in RESTRICTIONS:
        for g in (0, 1):
            chars = [chi for chi in parts if (s[0] * chi[0] + s[1] * chi[1]) % 2 == g]
            for d in range(DEGREE + 1):
                got = sum(parts[chi].coefficient((d,)) for chi in chars)
                if got != count(d, g, order):
                    failed.append((s, g, d))
    return failed


def test_each_cyclic_subgroup_sees_its_monomial_count():
    assert mismatches(star_doc()) == []


def set_stratum(label, **changes):
    def mutate(doc):
        (stratum,) = [st for st in doc["strata"] if st.get("label") == label]
        stratum.update(changes)
    return mutate


@pytest.mark.parametrize("mutate", [
    set_stratum("sigma points", character={"exponents": [1, 0]}),
    set_stratum("sigma points", character={"exponents": [1, 1]}),
    set_stratum("central open", chi=0),
    set_stratum("central open", character={"exponents": [1, 0]}),
    set_stratum("tau points", chi=2),
], ids=["sigma character (1,0)", "sigma character (1,1)", "central chi 0",
        "central character (1,0)", "tau chi 2"])
def test_a_wrong_stratum_breaks_the_identity(mutate):
    doc = star_doc()
    mutate(doc)
    assert mismatches(doc)


@pytest.mark.parametrize("order", [2, 8])
def test_a_wrong_subgroup_order_breaks_the_identity(order):
    assert mismatches(star_doc(), order)
