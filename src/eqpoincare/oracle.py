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
modes.  Both routes read the valuations as two rows, w(a, b) =
a*r_x + b*r_y with r_x = w(1, 0) and r_y = w(0, 1).  A divisorial entry
is a multiplicity, >= 1.  A curve branch "x=0" has valuation b at a = 0
and infinity elsewhere, the entries (inf, 1) ("y=0": (1, inf)); each
route writes inf as a finite stand-in that any weight using it with a
coefficient >= 1 reaches, D + 1 for the walk.  Every entry is >= 1;
writing |v| for the sum of the entries, the walk runs a through
D // |r_x| and b through (D - a*|r_x|) // |r_y|, so an entry above D in
r_x leaves only a = 0, in r_y only b = 0, and no counted weight holds
one.  Row a is counted by runs: its monomials with b = r mod m
share one character, and their weights step by q = m*r_y along one
line, named by its point whose first entry lies in [0, q_1).  Each
(line, character) keeps one difference list over the steps, +1 where a
run starts and -1 where it ends; accumulated once, its nonzero counts
are the series' table as it is: characters reduced, counts >= 1,
weights summing to <= D.  The work follows the rows times m and the
lengths of the lines, not the monomials, so it is linear in D wherever
the valuations are dependent (one chosen component, or a repeated or
parallel chosen set).

The dimension route reads the paper's definition literally and is kept
as the reference the sum is tested against.  :func:`oracle_tables`
builds, per character, the table d(v) = dim J(v)/J(v+1) = C(v) - C(v+1),
with C(v) the number of monomials of weight componentwise >= v.  On the
box {-1..degree + 1}^s, w_j >= v_j reads only min(w_j, top) with
top = degree + 2, also the stand-in, so the weights are clamped to top,
counted per character on {-1..top}^s and summed from above, one axis at
a time.
Enumerating a, b <= top suffices: every monomial beyond has all clamped
coordinates at top (divisorial weights are at least a + b in every
coordinate; in the curve case every finite coordinate is a or b), so it
lies in both C(v) and C(v + 1) and cancels.  Then
:func:`poincare_from_dimensions` assembles the series from the tables
d^a(v), one per character a, as

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
from collections import Counter, namedtuple

from .charring import CharacterRing, cyclic_character_ring
from .powerseries import Series
from .strata import StratumModel

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


def _weights(mm: MonomialModel, model: StratumModel, mode: str, infinite: int):
    """The rows w(1, 0) and w(0, 1) of ``mode``, with ``infinite`` standing
    in for an infinite valuation, their length and the character ring, once
    the oracle is known to fit the model."""
    if mode == "divisorial":
        if mm.sigma_x is None or mm.sigma_y is None:
            raise OracleError("divisorial oracle needs sigma_x and sigma_y")
        for sigma in (mm.sigma_x, mm.sigma_y):
            if sigma not in model.graph.id_index:
                raise OracleError(f"axis attaches to unknown component {sigma!r}")
        m = model.multiplicities()
        row_x, row_y = m.row(mm.sigma_x, model.chosen), m.row(mm.sigma_y, model.chosen)
    elif mode == "curve":
        if not mm.curve_axes:
            raise OracleError("curve oracle needs at least one branch axis")
        # "x=0" has valuation b at a = 0 and infinity elsewhere
        row_x, row_y = zip(*[(infinite, 1) if ax == "x=0" else (1, infinite)
                             for ax in mm.curve_axes])
    else:
        raise OracleError(f"unknown oracle mode {mode!r}")
    ring = mm.ring()
    if model.ring != ring:
        raise OracleError(
            f"model ring orders {model.ring.orders} do not match the cyclic "
            f"order {mm.order}"
        )
    return row_x, row_y, len(row_x), ring


def oracle_poincare(mm: MonomialModel, model: StratumModel, degree: int,
                    mode: str = "divisorial") -> Series:
    """Equivariant series through ``degree`` as the sum of
    u^chi(a,b) t^w(a,b) over the monomials with all valuations finite."""
    row_x, row_y, s, ring = _weights(mm, model, mode, degree + 1)
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


class ConsistencyError(ValueError):
    """The dimension tables cannot come from a genuine filtration."""


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


def oracle_tables(mm: MonomialModel, model: StratumModel, degree: int,
                  mode: str = "divisorial") -> dict:
    """Dimension tables d(v) = C(v) - C(v + 1) on the box {-1..degree+1}^s,
    keyed by character exponent tuple."""
    box = degree + 1
    top = box + 1  # w >= v on the box reads only min(w, top)
    row_x, row_y, s, ring = _weights(mm, model, mode, top)
    size = top + 2  # C lives on the flat lex grid {-1..top}^s
    strides = [size ** (s - 1 - j) for j in range(s)]
    steps = list(zip(row_x, row_y, strides))
    counts = {alpha: [0] * size ** s for alpha in ring.characters()}
    for a in range(top + 1):
        for b in range(top + 1):
            i = sum((min(a * x + b * y, top) + 1) * st for x, y, st in steps)
            counts[monomial_character(mm, a, b)][i] += 1
    grid = itertools.product(range(-1, top + 1), repeat=s)
    inner = [(i, v) for i, v in enumerate(grid) if top not in v]  # the box
    step = sum(strides)  # flat offset from v to v + 1
    tables = {}
    for alpha, c in counts.items():
        for _ in range(s):  # c(v) <- sum over u >= v, one axis per pass
            # as in _single_character_series, writing out the slices c[k::size]
            # in order of k moves the last axis to the front
            cols = [c[k::size] for k in range(size)]
            for k in range(size - 2, -1, -1):
                cols[k] = list(map(operator.add, cols[k], cols[k + 1]))
            c = list(itertools.chain.from_iterable(cols))
        tables[alpha] = DimensionTable(
            s, box, {v: d for i, v in inner if (d := c[i] - c[i + step])})
    return tables


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


def oracle_whole_series(mm: MonomialModel, model: StratumModel, degree: int,
                        mode: str = "divisorial") -> Series:
    """Non-equivariant series: all monomials counted together."""
    tables = list(oracle_tables(mm, model, degree, mode=mode).values())
    total = sum((Counter(table.values) for table in tables), Counter())
    whole = DimensionTable(tables[0].num_vars, tables[0].box, dict(total))
    return poincare_from_dimensions({None: whole}, None, degree)
