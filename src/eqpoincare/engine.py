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
:func:`eqpoincare.powerseries.expand` multiplies them out, one pass per
factor (its docstring has the passes).  No two series are ever multiplied.

The dimension route starts from tables d^a(v) counting, for each
character a, the function classes sitting at filtration position
exactly v, and assembles the series as

    n = prod over j of (S_j - 1) d,     P(v) = P(v - 1) - n(v)

with S_j d(v) = d(v - e_j) and d read as stabilized below the -1 plane
in every coordinate: s passes x(v) <- x(v - e_j) - x(v), one per axis,
then a running sum along the diagonals.  The assembled constant term
must be 1 times the trivial character, which is the check that actually
catches malformed tables.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple

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
    known = model.graph.id_index
    for b in branches:
        if b.attach not in known:
            raise EngineError(f"branch attaches to unknown component {b.attach!r}")
    records = factors(model, adjusted_strata, [b.attach for b in branches])
    return expand(records, len(branches), bound, model.ring)


class DimensionTable(namedtuple("DimensionTable", "num_vars box values")):
    """Values d(v) >= 0 on the box {-1, ..., box}^num_vars, stored
    sparsely with default 0.  Entries with a coordinate at -1 hold the
    stabilized value of d in that direction."""

    __slots__ = ()

    def __new__(cls, num_vars: int, box: int, values: dict):
        if num_vars < 1:
            raise ValueError("dimension tables need at least one variable")
        if box < 0:
            raise ValueError("box bound must be >= 0")
        clean = {}
        for v, d in values.items():
            v = tuple(v)
            if len(v) != num_vars:
                raise ValueError(f"entry {v} has wrong arity")
            if any(x < -1 or x > box for x in v):
                raise ValueError(f"entry {v} outside the box -1..{box}")
            if not isinstance(d, int) or d < 0:
                raise ValueError(f"dimension at {v} is {d!r}, not a count")
            if d:
                clean[v] = d
        return super().__new__(cls, num_vars, box, clean)

    def value(self, v) -> int:
        """d at v, with coordinates below -1 clamped to the stabilized plane."""
        key = tuple(max(x, -1) for x in v)
        return self.values.get(key, 0)


def _single_character_series(table: DimensionTable, bound: int) -> dict:
    s = table.num_vars
    size = table.box + 2  # coordinates -1..box
    grid = list(itertools.product(range(-1, table.box + 1), repeat=s))  # lex order
    x = [table.values.get(v, 0) for v in grid]
    for _ in range(s):  # x <- (S_j - 1) x for each axis j
        # x[k::size] holds the points with last coordinate k; writing them out
        # in order of k moves that axis to the front, so s passes treat every
        # axis once and end in the original order
        cols = [x[k::size] for k in range(size)]
        x = [0] * len(cols[0])  # the -1 plane: d is stabilized below it
        for lower, col in zip(cols, cols[1:]):
            x += map(operator.sub, lower, col)
    diagonal = sum(size ** j for j in range(s))  # flat offset from v - 1 to v
    coeffs = {}
    for i, v in enumerate(grid):  # v - 1 comes first; x becomes P in place
        if min(v) < 0:
            continue  # the first pass wrote n = 0 on every -1 plane
        x[i] = p = x[i - diagonal] - x[i]
        if p and sum(v) <= bound:
            coeffs[v] = p
    return coeffs


def poincare_from_dimensions(tables, ring: CharacterRing | None, bound: int) -> Series:
    """Assemble the Poincare series from per-character dimension tables.

    ``tables`` maps character exponent tuples to
    :class:`DimensionTable` (characters without a table contribute 0);
    for an integer series pass ``ring=None`` and a single table keyed by
    ``None``.  Every table box must reach at least bound + 1, otherwise
    the differences at the boundary would read unknown values.
    """
    if ring is None and set(tables) != {None}:
        raise ValueError("integer assembly expects exactly one table keyed None")
    items = [(alpha if ring is None else ring.reduce(alpha), table)
             for alpha, table in tables.items()]
    if not items:
        raise ValueError("no tables given")
    if len({alpha for alpha, _ in items}) != len(items):
        raise ValueError("two tables reduce to the same character")
    num_vars = items[0][1].num_vars
    for _, table in items:
        if table.num_vars != num_vars:
            raise ValueError("tables disagree on the number of variables")
        if table.box < bound + 1:
            raise ValueError(
                f"table box {table.box} too small for degree {bound}; "
                f"need at least {bound + 1}"
            )
    terms: dict = {}
    for alpha, table in items:
        for v, c in _single_character_series(table, bound).items():
            c = c if ring is None else ring.monomial(alpha, c)
            terms[v] = terms[v] + c if v in terms else c
    series = Series(num_vars, bound, ring, terms)
    origin = (0,) * num_vars
    expected = 1 if ring is None else ring.one()
    if series.coefficient(origin) != expected:
        raise ConsistencyError(
            f"constant term is {series.coefficient(origin)!r}, expected 1 times "
            "the trivial character; the dimension tables are inconsistent"
        )
    return series


def _integer_part(series: Series, part) -> Series:
    """The integer series of ``part(parts)`` over the ``{character: int}``
    parts of an equivariant series' table; the nonzero ints are adopted as
    they come."""
    if series.ring is None:
        raise ValueError("series is already an integer series")
    table = {e: x for e, parts in series._table.items() if (x := part(parts))}
    return Series._adopt(series.num_vars, series.bound, None, table)


def restrict_to_character(series: Series, alpha) -> Series:
    """Integer series of the coefficients at one character."""
    if series.ring is None:
        raise ValueError("series is already an integer series")
    key = series.ring.reduce(alpha)
    return _integer_part(series, lambda parts: parts.get(key, 0))


def augmented_series(series: Series) -> Series:
    """Send every character to 1; the whole-ring (non-equivariant) series."""
    return _integer_part(series, lambda parts: sum(parts.values()))


def quotient_extract(series: Series, plan: SubstitutionPlan) -> Series:
    """Poincare series of the quotient data: take the trivial-character
    part coefficientwise, then drop and rescale variables by the plan."""
    if series.ring is not None:
        trivial = (0,) * series.ring.num_generators
        series = _integer_part(series, lambda parts: parts.get(trivial, 0))
    return substitute_and_rescale(series, plan)
