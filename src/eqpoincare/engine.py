"""Equivariant Poincare series from strata, and from dimension tables.

Two independent routes produce the same series and keep each other
honest.

The product route multiplies, over the strata with nonzero Euler
characteristic, the factors

    (1 - u^l * t^m) ** (-chi)

where l is the stratum character and m its multi-index weight vector at
the chosen components (divisorial case) or at the branch attachment
components (curve case).  Strata with chi = 0 drop out, so their
characters are never needed.  :func:`factors` lists them as records
(m, l, -chi), sorted graded-lex on m, then on l, and
:func:`eqpoincare.powerseries.expand` applies them one at a time to a
table of plain ints keyed by exponent and character: dividing by
(1 - u^l t^m) is one ascending pass ``out[v + m] += u^l out[v]`` in order
of total degree, multiplying by it one descending pass, and u^l permutes
the characters.  No two series are ever multiplied.

The dimension route starts from tables d^a(v) counting, for each
character a, the function classes sitting at filtration position
exactly v, and assembles the series by the inclusion-exclusion in the
coordinate directions

    n(v) = sum over e in {0,1}^s of (-1)^(s - |e|) d(v - e)
    P(v) = - sum over k >= 0 of n(v - k * 1)

with d read as stabilized below the -1 plane in every coordinate.  The
assembled constant term must be 1 times the trivial character, which is
the check that actually catches malformed tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .charring import CharacterRing
from .powerseries import Series, SubstitutionPlan, expand, graded_lex_key, substitute_and_rescale
# the benchmark's tracer wraps engine.factor_power by name
from .powerseries import factor_power  # noqa: F401
from .strata import Branch, StratumModel, resolve_character, stratum_multiplicities


class ConsistencyError(ValueError):
    """The dimension tables cannot come from a genuine filtration."""


class EngineError(ValueError):
    pass


def factor_rows(model: StratumModel, strata, targets) -> list:
    """Pairs (stratum, (m, l, power)) of the factors (1 - u^l t^m) ** power,
    one per stratum with chi != 0, sorted graded-lex on m, then on l."""
    rows = []
    for st in strata:
        if st.chi == 0:
            continue
        m = stratum_multiplicities(model, st, targets)
        if sum(m) == 0:
            where = f"stratum {st.label!r}" if st.label else f"stratum {st.carrier}"
            raise EngineError(
                f"{where}: zero weight vector with chi = {st.chi}; the factor "
                "would not be a power series"
            )
        rows.append((st, (m, resolve_character(model, st), -st.chi)))
    return sorted(rows, key=lambda row: (graded_lex_key(row[1][0]), row[1][1]))


def factors(model: StratumModel, strata, targets) -> list:
    """The factor records (m, l, power) of :func:`factor_rows`."""
    return [record for _, record in factor_rows(model, strata, targets)]


def divisorial_poincare(model: StratumModel, bound: int) -> Series:
    """Equivariant Poincare series of the multi-index divisorial
    filtration at the model's chosen components, through total degree
    ``bound``."""
    records = factors(model, model.strata, model.chosen)
    return expand(records, len(model.chosen), bound, model.ring)


def plan_poincare(model: StratumModel, plan: SubstitutionPlan, degree: int):
    """The divisorial series with ``plan`` applied to every factor, and the
    plan that rescales it: :func:`quotient_extract` of the pair is exact
    through output ``degree``.  With L the lcm of the kept denominators, a
    weight m becomes w_j = sum of m_i * L / den_i over the inputs sent to
    output j.  Entries of m are >= 1 and a variable is kept, so |w| >= 1 and
    total degree ``degree * L`` holds every term of output degree <= ``degree``.
    """
    lcm = math.lcm(*(e[1] for e in plan.entries if e is not None))
    k = plan.num_outputs
    records = []
    for m, l, power in factors(model, model.strata, model.chosen):
        w = [0] * k
        for mi, entry in zip(m, plan.entries, strict=True):
            if entry is not None:
                w[entry[0]] += mi * (lcm // entry[1])
        records.append((tuple(w), l, power))
    rescale = SubstitutionPlan(tuple((j, lcm) for j in range(k)))
    return expand(records, k, degree * lcm, model.ring), rescale


def curve_poincare(model: StratumModel, branches, adjusted_strata, bound: int) -> Series:
    """Equivariant Poincare series of the curve-valuation filtration.

    ``adjusted_strata`` are the divisor strata with the strict-transform
    points already removed (see :func:`eqpoincare.strata.curve_strata`);
    the weight vector of a stratum is indexed by the branch attachment
    components, repeats allowed.  A curve with no branches has the empty
    product: the constant series 1 in zero variables.
    """
    branches = tuple(branches)
    if not branches:
        return Series.one(0, bound, model.ring)
    known = set(model.graph.ids)
    for b in branches:
        if b.attach not in known:
            raise EngineError(f"branch attaches to unknown component {b.attach!r}")
    records = factors(model, adjusted_strata, [b.attach for b in branches])
    return expand(records, len(branches), bound, model.ring)


@dataclass(frozen=True)
class DimensionTable:
    """Values d(v) >= 0 on the box {-1, ..., box}^num_vars, stored
    sparsely with default 0.  Entries with a coordinate at -1 hold the
    stabilized value of d in that direction."""

    num_vars: int
    box: int
    values: dict

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("dimension tables need at least one variable")
        if self.box < 0:
            raise ValueError("box bound must be >= 0")
        clean = {}
        for v, d in self.values.items():
            v = tuple(v)
            if len(v) != self.num_vars:
                raise ValueError(f"entry {v} has wrong arity")
            if any(x < -1 or x > self.box for x in v):
                raise ValueError(f"entry {v} outside the box -1..{self.box}")
            if not isinstance(d, int) or d < 0:
                raise ValueError(f"dimension at {v} is {d!r}, not a count")
            if d:
                clean[v] = d
        object.__setattr__(self, "values", clean)

    def value(self, v) -> int:
        """d at v, with coordinates below -1 clamped to the stabilized plane."""
        key = tuple(max(x, -1) for x in v)
        return self.values.get(key, 0)


def _single_character_series(table: DimensionTable, bound: int) -> dict:
    s = table.num_vars
    box = table.box
    eps = list(itertools.product((0, 1), repeat=s))
    grid = list(itertools.product(range(-1, box + 1), repeat=s))
    numerator = {}
    for v in grid:
        acc = 0
        for e in eps:
            sign = (-1) ** (s - sum(e))
            acc += sign * table.value(tuple(x - y for x, y in zip(v, e)))
        if acc:
            numerator[v] = acc
    coeffs = {}
    partial = {}
    for v in grid:  # itertools.product yields in lex order, so v - 1 comes first
        below = tuple(x - 1 for x in v)
        prev = partial.get(below, 0) if min(below) >= -1 else 0
        p = prev - numerator.get(v, 0)
        partial[v] = p
        if min(v) < 0:
            if p != 0:
                raise ConsistencyError(
                    f"series support leaks to {v}; the tables are not a filtration"
                )
            continue
        if p and sum(v) <= bound:
            coeffs[v] = p
    return coeffs


def poincare_from_dimensions(tables, ring: CharacterRing | None, bound: int) -> Series:
    """Assemble the Poincare series from per-character dimension tables.

    ``tables`` maps character exponent tuples to
    :class:`DimensionTable` (characters without a table contribute 0);
    for an integer series pass ``ring=None`` and a single table keyed by
    ``None``.  Every table box must reach at least bound + 1, otherwise
    the inclusion-exclusion at the boundary would read unknown values.
    """
    items = []
    if ring is None:
        if set(tables) != {None}:
            raise ValueError("integer assembly expects exactly one table keyed None")
        items.append((None, tables[None]))
    else:
        for alpha, table in tables.items():
            items.append((ring.reduce(alpha), table))
        if len({a for a, _ in items}) != len(items):
            raise ValueError("two tables reduce to the same character")
    num_vars = None
    for alpha, table in items:
        if num_vars is None:
            num_vars = table.num_vars
        elif table.num_vars != num_vars:
            raise ValueError("tables disagree on the number of variables")
        if table.box < bound + 1:
            raise ValueError(
                f"table box {table.box} too small for degree {bound}; "
                f"need at least {bound + 1}"
            )
    if num_vars is None:
        raise ValueError("no tables given")
    terms: dict = {}
    for alpha, table in items:
        coeffs = _single_character_series(table, bound)
        for v, c in coeffs.items():
            if ring is None:
                terms[v] = terms.get(v, 0) + c
            else:
                terms[v] = terms.get(v, ring.zero()) + ring.monomial(alpha, c)
    series = Series(num_vars, bound, ring, terms)
    origin = (0,) * num_vars
    expected = 1 if ring is None else ring.one()
    if series.coefficient(origin) != expected:
        raise ConsistencyError(
            f"constant term is {series.coefficient(origin)!r}, expected 1 times "
            "the trivial character; the dimension tables are inconsistent"
        )
    return series


def restrict_to_character(series: Series, alpha) -> Series:
    """Integer series of the coefficients at one character."""
    if series.ring is None:
        raise ValueError("series is already an integer series")
    key = series.ring.reduce(alpha)
    return series.map_coefficients(lambda c: c.coefficient(key), ring=None)


def augmented_series(series: Series) -> Series:
    """Send every character to 1; the whole-ring (non-equivariant) series."""
    if series.ring is None:
        raise ValueError("series is already an integer series")
    return series.map_coefficients(lambda c: c.augment(), ring=None)


def quotient_extract(series: Series, plan: SubstitutionPlan) -> Series:
    """Poincare series of the quotient data: take the trivial-character
    part coefficientwise, then drop and rescale variables by the plan."""
    if series.ring is not None:
        series = series.map_coefficients(lambda c: c.trivial_part(), ring=None)
    return substitute_and_rescale(series, plan)
