"""Equivariant Poincare series from strata, by the product formula.

The product route multiplies, over the strata with nonzero Euler
characteristic, the factors

    (1 - u^l * t^m) ** (-chi)

where l is the stratum character and m its multi-index weight vector at the
chosen components (divisorial case) or at the branch attachment components
(curve case).  Strata with chi = 0 drop out, so their characters are never
needed.  :func:`factors` lists them as records (m, l, -chi), sorted graded-lex
on m, then on l, and :func:`eqpoincare.powerseries.expand` multiplies them
out, one pass per factor (its docstring has the passes).  The one part that
``compute --character`` and ``extract`` print is :func:`character_part`, N / D.
:func:`quotient_extract`, the one extraction route, applies a substitution plan
to the factors, takes their trivial-character part and divides its exponents by
the plan's lcm in one pass.

The monomial oracle, :mod:`eqpoincare.oracle`, computes the same series
without this module, and keeps it honest.
"""

from __future__ import annotations

import math
from itertools import islice

from .powerseries import (DivisibilityError, Series, SubstitutionPlan, _binomials, _factors,
                          expand, graded_lex_key)
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


def character_part(records, num_vars: int, bound: int, ring, alpha) -> Series:
    """The integer series of ``expand(records, num_vars, bound, ring)`` at ``alpha``, as
    N_alpha / D: with u^l of order n > 1, a factor (1 - c u^l t^m) ** p is N's (sum over j < n
    of c^j u^(jl) t^(jm)) ** -p over D's (1 - c^n t^(nm)) ** p if p < 0, all N's if p > 0, and
    all D's if n = 1.  Each of N's few terms at ``alpha`` adds a copy of D, expanded over Z."""
    numerator, denominator = {((0,) * num_vars, (0,) * ring.num_generators): 1}, []
    for m, l, c, power in _factors(records, num_vars):
        step, l = sum(m), ring.reduce([0] * ring.num_generators if l is None else l)
        n = math.lcm(*(k // math.gcd(x, k) for x, k in zip(l, ring.orders)))
        if n == 1 or not power or not c or step > bound:
            denominator.append((m, None, power, c))
            continue
        top = bound // step if power > 0 else min(bound // step, (n - 1) * -power)
        coeffs = _binomials(power, top)  # of (1 - x) ** p, x = c u^l t^m, each without its c^k
        if power < 0:  # N's sum ** |p| is (1 - x^n) ** |p| (1 - x) ** p, of degree (n - 1) |p|
            denominator.append((tuple(n * x for x in m), None, power, c ** n))
            coeffs = [sum(b * coeffs[k - n * i] for i, b in enumerate(_binomials(-power, k // n)))
                      for k in range(top + 1)]
        product = {}
        for (e, ch), x in numerator.items():
            for k in range(min(len(coeffs), (bound - sum(e)) // step + 1)):
                key = (tuple(a + k * b for a, b in zip(e, m)),
                       ring.reduce([a + k * b for a, b in zip(ch, l)]))
                product[key] = product.get(key, 0) + coeffs[k] * c ** k * x
        numerator = product
    shifts = {e: x for (e, ch), x in numerator.items() if ch == ring.reduce(alpha) and x}
    d = expand(sorted(denominator, key=lambda r: graded_lex_key(r[0])), num_vars, bound)
    table, degrees, buckets = {}, {}, d._degrees or {}
    for s, a in shifts.items():  # a copy is a few whole-list passes, in degree order
        fit = [deg for deg in sorted(buckets) if deg + sum(s) <= bound]
        vs = [v for deg in fit for v in buckets[deg]]
        ws = list(zip(*[map(x.__add__, col) for col, x in zip(zip(*vs), s)]))
        if d._degrees is None or not table.keys().isdisjoint(ws):  # terms may add or cancel
            return d * Series(num_vars, bound, None, shifts)
        table.update(zip(ws, [a * d._table[v] for v in vs]))
        run = iter(ws)
        for deg in fit:
            degrees.setdefault(deg + sum(s), []).extend(islice(run, len(buckets[deg])))
    return Series._adopt(num_vars, bound, None, table, degrees)


def divisorial_poincare(model: StratumModel, bound: int, alpha=None) -> Series:
    """Equivariant Poincare series of the multi-index divisorial filtration
    at the model's chosen components, through total degree ``bound``; with
    ``alpha``, the integer series of its part at that character."""
    records, k = factors(model, model.strata, model.chosen), len(model.chosen)
    return (expand(records, k, bound, model.ring) if alpha is None
            else character_part(records, k, bound, model.ring, alpha))


def curve_poincare(model: StratumModel, branches, adjusted_strata, bound: int,
                   alpha=None) -> Series:
    """Equivariant Poincare series of the curve-valuation filtration, or its part at ``alpha``.

    ``adjusted_strata`` are the divisor strata with the strict-transform
    points already removed (see :func:`eqpoincare.strata.curve_strata`);
    the weight vector of a stratum is indexed by the branch attachment
    components, repeats allowed.  A curve with no branches has the empty
    product: the constant series 1 in zero variables.
    """
    branches = tuple(branches)
    known = model.graph.id_index
    for b in branches:
        if b.attach not in known:
            raise EngineError(f"branch attaches to unknown component {b.attach!r}")
    records = factors(model, adjusted_strata, [b.attach for b in branches]) if branches else []
    return (expand(records, len(branches), bound, model.ring) if alpha is None
            else character_part(records, len(branches), bound, model.ring, alpha))


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


def quotient_extract(model: StratumModel, plan: SubstitutionPlan, degree: int) -> Series:
    """Poincare series of the quotient data through output total degree ``degree``: the
    trivial-character part of the divisorial series with ``plan`` applied to every factor.
    With L the lcm of the kept denominators, a weight m becomes w_j = sum of m_i * L / den_i
    over the inputs sent to output j.  Entries of m are >= 1 and a variable is kept, so
    |w| >= 1 and total degree ``degree * L`` holds every term of output degree <= ``degree``.
    The part, N / D, is expanded through there and every exponent divided by L, term by
    term in the part's table order; the first that L does not divide raises
    :class:`DivisibilityError`."""
    lcm = math.lcm(*(e[1] for e in plan.entries if e is not None))
    k = plan.num_outputs
    records = []
    for m, l, power in factors(model, model.strata, model.chosen):
        w = [0] * k
        for mi, entry in zip(m, plan.entries, strict=True):
            if entry is not None:
                w[entry[0]] += mi * (lcm // entry[1])
        records.append((tuple(w), l, power))
    part = character_part(records, k, degree * lcm, model.ring, (0,) * len(model.ring.orders))
    table, degrees = {}, {}
    for e, x in part._table.items():
        q, d = tuple([a // lcm for a in e]), sum(e)
        if sum(q) * lcm != d:  # a remainder, each in [0, L), is left
            i = next(i for i, a in enumerate(e) if a % lcm)
            raise DivisibilityError(
                f"exponent {e[i]} of variable {i + 1} in term {e} is not divisible by {lcm}")
        table[q] = x
        degrees.setdefault(d // lcm, []).append(q)
    return Series._adopt(k, degree, None, table, degrees)
