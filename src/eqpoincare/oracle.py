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

The walk visits exactly the monomials it counts, each once.  Divisorial
mode: w(a, b) = a*r_x + b*r_y with r_x = w(1, 0) and r_y = w(0, 1),
every entry >= 1; writing |v| for the sum of the entries, the walk runs
a through D // |r_x| and then b through (D - a*|r_x|) // |r_y|, stepping
w by r_y.  Each row a is counted at once: its weights are one range per
coordinate with step r_y (no step is 0), its characters repeat with
period m, and one ``Counter.update`` over their flat ``w + character``
keys counts every monomial of the row once, in C iterators instead of a
Python loop per monomial.  Curve mode: a branch "x=0" has valuation b
at a = 0 and infinity elsewhere, a branch "y=0" has a at b = 0, so only
monomials on an axis can have all valuations finite; a = 0 is forced
when some branch is "x=0", b = 0 when some branch is "y=0", and the
walk is O(D), one monomial at a time.

The dimension route is kept as the reference the sum is tested
against: :func:`oracle_tables` builds, per character, the table
d(v) = number of monomials sitting at filtration position exactly v
(weight componentwise >= v but not >= v + 1), which is the paper's
definition through dim J(v)/J(v+1), and the engine's
:func:`~eqpoincare.engine.poincare_from_dimensions` assembles the
series from it.  Counting is organised per monomial: each monomial
contributes 1 to exactly the box entries v <= w having v_j = w_j at
some finite coordinate, so the tables walk that shell instead of
rescanning the whole box for every entry.  Monomials with a + b beyond
the box never intersect it (divisorial weights grow at least like
a + b), and in the curve case every finite weight coordinate equals a
or b, so enumerating a, b up to the box bound is exhaustive.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from collections import Counter
from dataclasses import dataclass

from .charring import cyclic_character_ring
from .engine import DimensionTable, poincare_from_dimensions
from .powerseries import Series
from .strata import StratumModel

INF = math.inf


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class MonomialModel:
    """A cyclic diagonal action plus the attachment data of the axes.

    ``weights`` = (k, l): the generator multiplies x by the k-th and y
    by the l-th power of a primitive m-th root of unity.  For the
    divisorial oracle, ``sigma_x`` / ``sigma_y`` are the components met
    by the strict transforms of {x = 0} and {y = 0}.  For the curve
    oracle, ``curve_axes`` lists which coordinate axis each branch is,
    as the literal strings "x=0" and "y=0", in branch order.
    """

    order: int
    weights: tuple
    sigma_x: object = None
    sigma_y: object = None
    curve_axes: tuple | None = None

    def __post_init__(self):
        if not isinstance(self.order, int) or self.order < 1:
            raise OracleError(f"group order must be a positive integer, got {self.order!r}")
        k, l = self.weights
        object.__setattr__(self, "weights", (int(k), int(l)))
        if self.curve_axes is not None:
            axes = tuple(self.curve_axes)
            for ax in axes:
                if ax not in ("x=0", "y=0"):
                    raise OracleError(f"curve axis must be 'x=0' or 'y=0', got {ax!r}")
            object.__setattr__(self, "curve_axes", axes)
        shared = math.gcd(math.gcd(k, l), self.order)
        if shared != 1:
            warnings.warn(
                f"weights {self.weights} share the factor {shared} with the "
                f"order {self.order}; the action is not faithful on monomials",
                RuntimeWarning,
                stacklevel=2,
            )

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
    known = set(model.graph.ids)
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


def _shell(w, box):
    """Box points v <= w with v_j = w_j at some finite coordinate,
    each yielded exactly once (dedup by the first such coordinate)."""
    s = len(w)
    finite = [j for j in range(s) if w[j] is not INF]
    pins = [j for j in finite if w[j] <= box]
    finite_set = set(finite)
    for idx, pin in enumerate(pins):
        earlier = set(pins[:idx])
        ranges = []
        for i in range(s):
            if i == pin:
                ranges.append((w[i],))
                continue
            top = min(w[i], box) if i in finite_set else box
            r = range(-1, top + 1)
            if i in earlier:
                ranges.append(tuple(x for x in r if x != w[i]))
            else:
                ranges.append(tuple(r))
        yield from itertools.product(*ranges)


def oracle_tables(mm: MonomialModel, model: StratumModel, degree: int,
                  mode: str = "divisorial", per_character: bool = True) -> dict:
    """Dimension tables on the box {-1..degree+1}^s.

    Keyed by character exponent tuple, or by ``None`` for the single
    whole-ring table when ``per_character`` is false.
    """
    valuation, s, ring = _valuation(mm, model, mode)
    box = degree + 1
    counts: dict = {}
    for a in range(box + 2):
        for b in range(box + 2):
            w = valuation(a, b)
            key = monomial_character(mm, a, b) if per_character else None
            bucket = counts.setdefault(key, {})
            for v in _shell(w, box):
                bucket[v] = bucket.get(v, 0) + 1
    if per_character:
        return {
            alpha: DimensionTable(s, box, counts.get(alpha, {}))
            for alpha in ring.characters()
        }
    return {None: DimensionTable(s, box, counts.get(None, {}))}


def oracle_poincare(mm: MonomialModel, model: StratumModel, degree: int,
                    mode: str = "divisorial") -> Series:
    """Equivariant series through ``degree`` as the sum of
    u^chi(a,b) t^w(a,b) over the monomials with all valuations finite."""
    valuation, s, ring = _valuation(mm, model, mode)
    counts = Counter()  # w + character, flat -> number of monomials
    if mode == "curve":
        a_top = 0 if "x=0" in mm.curve_axes else degree
        b_top = 0 if "y=0" in mm.curve_axes else degree
        for a in range(a_top + 1):
            for b in range(min(b_top, degree - a) + 1):
                w = valuation(a, b)
                if INF not in w and sum(w) <= degree:
                    counts[w + monomial_character(mm, a, b)] += 1
    else:
        row_x, row_y = valuation(1, 0), valuation(0, 1)
        sx, sy = sum(row_x), sum(row_y)
        for a in range(degree // sx + 1):
            # row a: the n monomials x^a y^b with |w(a, b)| <= degree.
            # Every entry of row_y is a multiplicity, so at least 1, and
            # no range has step 0; the characters repeat with period m.
            n = (degree - a * sx) // sy + 1
            weights = zip(*[range(x, x + n * y, y)
                            for x, y in zip(valuation(a, 0), row_y)])
            period = [monomial_character(mm, a, b) for b in range(min(n, mm.order))]
            chars = itertools.islice(itertools.cycle(period), n)
            counts.update(map(operator.add, weights, chars))
    per_weight: dict = {}
    for key, n in counts.items():
        per_weight.setdefault(key[:s], {})[key[s:]] = n
    return Series(s, degree, ring, {w: ring.element(per) for w, per in per_weight.items()})


def oracle_whole_series(mm: MonomialModel, model: StratumModel, degree: int,
                        mode: str = "divisorial") -> Series:
    """Non-equivariant series: all monomials counted together."""
    tables = oracle_tables(mm, model, degree, mode=mode, per_character=False)
    return poincare_from_dimensions(tables, None, degree)
