"""Equivariant Poincare series from strata, by the product formula.

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

The monomial oracle, :mod:`eqpoincare.oracle`, computes the same series
without this module, and keeps it honest.
"""

from __future__ import annotations

import math

from .powerseries import Series, SubstitutionPlan, expand, graded_lex_key, substitute_and_rescale
# the benchmark's tracer wraps engine.factor_power by name
from .powerseries import factor_power  # noqa: F401
from .strata import StratumModel, resolve_character, stratum_multiplicities


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


def factor_powers(records, ring) -> dict:
    """The ``expand`` records as ``{(m, l, c): total power}``, l reduced in
    ``ring`` (None the trivial character) and c 1 when left out; records
    with c = 0 and keys whose powers add to 0 are the factor 1 and left
    out.  Records with equal maps expand to equal series at every degree."""
    trivial = (0,) * ring.num_generators
    total = {}
    for m, l, power, *c in records:
        c = c[0] if c else 1
        if c:
            key = (tuple(m), trivial if l is None else ring.reduce(l), c)
            total[key] = total.get(key, 0) + power
    return {key: power for key, power in total.items() if power}


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
