"""Brute-force monomial oracle for cyclic diagonal actions.

For a cyclic group of order m acting diagonally on coordinates, the
monomials x^a y^b are simultaneous eigenfunctions: the character of
x^a y^b has exponent -(k*a + l*b) mod m when the generator scales x by
the k-th and y by the l-th power of the root of unity, and its
valuations w(a, b) are linear in (a, b).  The filtration is spanned by
monomials, so the Poincare series is the sum

    P(t) = sum of u^chi(a,b) * t^w(a,b)

over the monomials whose valuations are all finite (torus localisation,
chi(X) = chi(X^T); Campillo, Delgado and Gusein-Zade, Duke Math. J. 117,
2003).  :func:`oracle_poincare` computes that sum.  It never calls
``expand`` or the product formula, which is the point: the two routes
are independent.

One walk counts exactly the monomials of the sum, each once, in both
modes.  The valuations are linear, w(a, b) = a*r_x + b*r_y with
r_x = w(1, 0) and r_y = w(0, 1).  A curve branch "x=0" has valuation b
at a = 0 and infinity elsewhere ("y=0" likewise with a and b swapped);
the walk writes infinity, and any entry above D, as D + 1.  Every entry
is then >= 1; writing |v| for the sum of the entries, the walk runs a
through D // |r_x| and b through (D - a*|r_x|) // |r_y|, so an entry
D + 1 in r_x leaves only a = 0, in r_y only b = 0, and no counted weight
holds one.  Row a is counted by runs: its monomials with b = r mod m
share one character, and their weights step by q = m*r_y along one
line, named by its point whose first entry lies in [0, q_1).  Each
(line, character) keeps one difference list over the steps, +1 where a
run starts and -1 where it ends; accumulated once, its nonzero counts
are the series' table as it is: characters reduced, counts >= 1,
weights summing to <= D.  The work follows the rows times m and the
lengths of the lines, not the monomials, so it is linear in D wherever
the valuations are dependent (one chosen component, or a repeated or
parallel chosen set).

The dimension route is kept as the reference the sum is tested
against: :func:`oracle_tables` builds, per character, the table
d(v) = dim J(v)/J(v+1) = C(v) - C(v + 1), with C(v) the number of
monomials of weight componentwise >= v (the paper's definition read
literally), and the engine's
:func:`~eqpoincare.engine.poincare_from_dimensions` assembles the
series from it.  On the box {-1..degree + 1}^s, w_j >= v_j reads only
min(w_j, top) with top = degree + 2, so the weights are clamped to top,
counted per character on {-1..top}^s and summed from above, one axis at
a time.  Enumerating a, b <= top suffices: every monomial beyond has all
clamped coordinates at top (divisorial weights are at least a + b in
every coordinate; in the curve case every finite coordinate is a or b),
so it lies in both C(v) and C(v + 1) and cancels.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter, namedtuple

from .charring import cyclic_character_ring
from .engine import DimensionTable, poincare_from_dimensions
from .powerseries import Series
from .strata import StratumModel

INF = math.inf


class OracleError(ValueError):
    pass


class MonomialModel(namedtuple("MonomialModel",
                               "order weights sigma_x sigma_y curve_axes")):
    """A cyclic diagonal action plus the attachment data of the axes.

    ``weights`` = (k, l): the generator multiplies x by the k-th and y
    by the l-th power of a primitive m-th root of unity.  For the
    divisorial oracle, ``sigma_x`` / ``sigma_y`` are the components met
    by the strict transforms of {x = 0} and {y = 0}.  For the curve
    oracle, ``curve_axes`` lists which coordinate axis each branch is,
    as the literal strings "x=0" and "y=0", in branch order.
    """

    __slots__ = ()

    def __new__(cls, order: int, weights: tuple, sigma_x: object = None,
                sigma_y: object = None, curve_axes: tuple | None = None):
        if not isinstance(order, int) or order < 1:
            raise OracleError(f"group order must be a positive integer, got {order!r}")
        k, l = weights
        if curve_axes is not None:
            curve_axes = tuple(curve_axes)
            for ax in curve_axes:
                if ax not in ("x=0", "y=0"):
                    raise OracleError(f"curve axis must be 'x=0' or 'y=0', got {ax!r}")
        return super().__new__(cls, order, (int(k), int(l)), sigma_x, sigma_y, curve_axes)

    @property
    def unfaithful(self) -> str | None:
        """Why the action is not faithful on monomials, or None if it is."""
        shared = math.gcd(*self.weights, self.order)
        return None if shared == 1 else (
            f"{self.weights} share the factor {shared} with the order "
            f"{self.order}; the action is not faithful on monomials")

    def ring(self):
        return cyclic_character_ring(self.order)


def monomial_character(mm: MonomialModel, a: int, b: int) -> tuple:
    if mm.order == 1:
        return ()
    k, l = mm.weights
    return (-(k * a + l * b) % mm.order,)


def _divisorial_valuation(mm: MonomialModel, model: StratumModel):
    if mm.sigma_x is None or mm.sigma_y is None:
        raise OracleError("divisorial oracle needs sigma_x and sigma_y")
    known = model.graph.id_index
    for sigma in (mm.sigma_x, mm.sigma_y):
        if sigma not in known:
            raise OracleError(f"axis attaches to unknown component {sigma!r}")
    m = model.multiplicities()
    row_x = m.row(mm.sigma_x, model.chosen)
    row_y = m.row(mm.sigma_y, model.chosen)

    def valuation(a, b):
        return tuple(a * x + b * y for x, y in zip(row_x, row_y))

    return valuation, len(model.chosen)


def _curve_valuation(mm: MonomialModel):
    if not mm.curve_axes:
        raise OracleError("curve oracle needs at least one branch axis")

    def valuation(a, b):
        out = []
        for ax in mm.curve_axes:
            if ax == "x=0":
                out.append(b if a == 0 else INF)
            else:
                out.append(a if b == 0 else INF)
        return tuple(out)

    return valuation, len(mm.curve_axes)


def _valuation(mm: MonomialModel, model: StratumModel, mode: str):
    """The valuation map of ``mode``, its number of coordinates and the
    character ring, once the oracle is known to fit the model."""
    if mode == "divisorial":
        valuation, s = _divisorial_valuation(mm, model)
    elif mode == "curve":
        valuation, s = _curve_valuation(mm)
    else:
        raise OracleError(f"unknown oracle mode {mode!r}")
    ring = mm.ring()
    if model.ring != ring:
        raise OracleError(
            f"model ring orders {model.ring.orders} do not match the cyclic "
            f"order {mm.order}"
        )
    return valuation, s, ring


def oracle_tables(mm: MonomialModel, model: StratumModel, degree: int,
                  mode: str = "divisorial") -> dict:
    """Dimension tables d(v) = C(v) - C(v + 1) on the box {-1..degree+1}^s,
    keyed by character exponent tuple."""
    valuation, s, ring = _valuation(mm, model, mode)
    box = degree + 1
    top = box + 1  # w >= v on the box reads only min(w, top)
    size = top + 2  # C lives on the flat lex grid {-1..top}^s
    strides = [size ** (s - 1 - j) for j in range(s)]
    counts = {alpha: [0] * size ** s for alpha in ring.characters()}
    for a in range(top + 1):
        for b in range(top + 1):
            i = sum((min(x, top) + 1) * st for x, st in zip(valuation(a, b), strides))
            counts[monomial_character(mm, a, b)][i] += 1
    grid = itertools.product(range(-1, top + 1), repeat=s)
    inner = [(i, v) for i, v in enumerate(grid) if top not in v]  # the box
    step = sum(strides)  # flat offset from v to v + 1
    tables = {}
    for alpha, c in counts.items():
        for _ in range(s):  # c(v) <- sum over u >= v, one axis per pass
            # as in the engine's assembly, writing out the slices c[k::size]
            # in order of k moves the last axis to the front
            cols = [c[k::size] for k in range(size)]
            for k in range(size - 2, -1, -1):
                cols[k] = list(map(operator.add, cols[k], cols[k + 1]))
            c = list(itertools.chain.from_iterable(cols))
        tables[alpha] = DimensionTable(
            s, box, {v: d for i, v in inner if (d := c[i] - c[i + step])})
    return tables


def oracle_poincare(mm: MonomialModel, model: StratumModel, degree: int,
                    mode: str = "divisorial") -> Series:
    """Equivariant series through ``degree`` as the sum of
    u^chi(a,b) t^w(a,b) over the monomials with all valuations finite."""
    valuation, s, ring = _valuation(mm, model, mode)
    cap = degree + 1  # infinity, and any entry above the degree
    row_x = [min(x, cap) for x in valuation(1, 0)]
    row_y = [min(y, cap) for y in valuation(0, 1)]
    sx, sy, order = sum(row_x), sum(row_y), mm.order
    q = [order * y for y in row_y]  # b -> b + order keeps the character; entries >= 1
    steps, sq = list(zip(row_x, row_y, q)), sum(q)
    runs: dict = {}  # (line, character) -> difference list over the steps t
    for a in range(degree // sx + 1):
        # row a: the n monomials x^a y^b with |w(a, b)| <= degree; those
        # with b = r mod order are one run along q from w(a, r)
        n = (degree - a * sx) // sy + 1
        for r in range(min(n, order)):
            t = (a * row_x[0] + r * row_y[0]) // q[0]  # w(a, r) = line + t q
            line = tuple([a * x + r * y - t * z for x, y, z in steps])
            key = (line, monomial_character(mm, a, r))
            diff = runs.get(key)
            if diff is None:  # room for every t with |line + t q| <= degree, and one end
                diff = runs[key] = [0] * ((degree - sum(line)) // sq + 2)
            diff[t] += 1
            diff[t + (n - r + order - 1) // order] -= 1
    table: dict = {}
    for (line, alpha), diff in runs.items():
        weights = zip(*[range(x, x + len(diff) * y, y) for x, y in zip(line, q)])
        for w, c in zip(weights, itertools.accumulate(diff)):
            if c:
                table.setdefault(w, {})[alpha] = c
    return Series._adopt(s, degree, ring, table)


def oracle_whole_series(mm: MonomialModel, model: StratumModel, degree: int,
                        mode: str = "divisorial") -> Series:
    """Non-equivariant series: all monomials counted together."""
    tables = list(oracle_tables(mm, model, degree, mode=mode).values())
    total = sum((Counter(table.values) for table in tables), Counter())
    whole = DimensionTable(tables[0].num_vars, tables[0].box, dict(total))
    return poincare_from_dimensions({None: whole}, None, degree)
