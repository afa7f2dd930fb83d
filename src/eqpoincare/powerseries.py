"""Truncated multivariate power series with exact coefficients.

A :class:`Series` stores the coefficients of a power series in variables
t_1, ..., t_s up to a fixed total degree bound.  Coefficients are either
plain integers (``ring is None``) or elements of a
:class:`~eqpoincare.charring.CharacterRing`.  Storage is a sparse table
from exponent tuples to an int, or to an element's ``{character: int}``
parts, and every table keeps one invariant: each key has ``num_vars``
nonnegative entries summing to at most ``bound``, and no coefficient is
zero (an int is nonzero, parts are nonempty, reduced and all nonzero).
``Series(...)`` checks this term by term, as it must for input from
outside, and keeps each element's parts.  The package's own producers,
:func:`expand` here and the character part, the quotient extraction and
the character projections in :mod:`eqpoincare.engine`, build tables that
hold it by construction and hand them over with :meth:`Series._adopt`,
which neither copies nor checks them.  The writers, the comparison and
the projections read the table; ``Series.terms``, exponents to ints or
:class:`~eqpoincare.charring.CharElement` objects, is a view built on first read.

Two series are considered equal when they agree on every exponent of
total degree up to the smaller of the two bounds.  Binary operations
likewise produce a series truncated at the smaller bound, so a product
never claims coefficients that the inputs cannot justify.

A series is written out by :func:`render_text` and by
:func:`dump_machine`, the one writer of the machine format (the JSON
text that ``json.dumps(..., sort_keys=True)`` would give);
:func:`render_machine` is its parsed dict and :func:`parse_machine`
reads either back.  Each writer formats a whole series with one ``%`` over
one flat argument tuple, its templates built once per character (set).

A :class:`SubstitutionPlan` is a job's map from series variables to the
quotient's; :func:`eqpoincare.engine.quotient_extract` applies it to the
factors of a product, before anything is expanded.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import namedtuple
from functools import cached_property
from itertools import cycle, repeat
from operator import add

from .charring import CharacterRing, CharElement

Exponents = tuple[int, ...]


class PlanError(ValueError):
    """A malformed substitution plan."""


class DivisibilityError(ValueError):
    """An exponent was not divisible by its plan denominator."""


def _zero_coeff(ring):
    return 0 if ring is None else ring.zero()

def _is_zero_coeff(c):
    return c == 0 if isinstance(c, int) else c.is_zero()


def graded_lex_key(exponents: Exponents):
    """Sort key: by total degree first, then lexicographically."""
    return (sum(exponents), exponents)


def _check_size(num_vars: int, bound: int):
    if num_vars < 0:
        raise ValueError("num_vars must be >= 0")
    if bound < 0:
        raise ValueError("bound must be >= 0")


class Series:
    _degrees = None  # the exponents by total degree, when the producer handed them over

    def __init__(self, num_vars: int, bound: int, ring: CharacterRing | None = None,
                 terms: dict | None = None):
        _check_size(num_vars, bound)
        self.num_vars = num_vars
        self.bound = bound
        self.ring = ring
        self._table: dict[Exponents, object] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise ValueError(f"exponent {exps} has wrong arity, expected {num_vars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if sum(exps) > bound:
                raise ValueError(f"exponent {exps} beyond degree bound {bound}")
            c = self._accept_coeff(c)
            if not _is_zero_coeff(c):
                self._table[exps] = c if ring is None else c.terms

    @classmethod
    def _adopt(cls, num_vars: int, bound: int, ring: CharacterRing | None,
               table: dict, degrees: dict | None = None) -> "Series":
        """A series that takes ``table`` (and ``degrees``, each exponent once
        under its total degree) as it is, neither copied nor checked.  The
        caller guarantees the invariant of the module docstring (right arity,
        exponents >= 0 with sum <= ``bound``, no zero coefficient: a nonzero
        int, or with ``ring`` set a nonempty ``{character: int}`` dict of
        reduced characters and nonzero values) and changes no entry after."""
        series = cls.__new__(cls)
        series.num_vars, series.bound, series.ring = num_vars, bound, ring
        series._table, series._degrees = table, degrees
        return series

    @cached_property
    def terms(self) -> dict:
        """Exponents to coefficients: the table itself for an integer series,
        else one ``CharElement`` per parts dict, built on first read."""
        if self.ring is None:
            return self._table
        return {e: CharElement._of(self.ring, p) for e, p in self._table.items()}

    def _accept_coeff(self, c):
        if self.ring is None:
            if isinstance(c, CharElement):
                raise TypeError("integer series got a character-ring coefficient")
            return c
        if isinstance(c, int):
            return self.ring.one() * c
        if not isinstance(c, CharElement) or c.ring != self.ring:
            raise TypeError("coefficient does not belong to the series ring")
        return c

    @classmethod
    def one(cls, num_vars: int, bound: int, ring: CharacterRing | None = None):
        return cls(num_vars, bound, ring, {(0,) * num_vars: 1})

    @classmethod
    def zero(cls, num_vars: int, bound: int, ring: CharacterRing | None = None):
        return cls(num_vars, bound, ring)

    def coefficient(self, exponents):
        exps = tuple(exponents)
        if len(exps) != self.num_vars:
            raise ValueError(f"exponent {exps} has wrong arity")
        if sum(exps) > self.bound:
            raise ValueError(f"coefficient at {exps} is beyond the bound {self.bound}")
        if self.ring is None:
            return self._table.get(exps, 0)
        return CharElement(self.ring, self._table.get(exps, {}))

    def items(self):
        """Terms in graded lexicographic order."""
        terms = self.terms
        for exps in _graded_lex_order(self):
            yield exps, terms[exps]

    def truncate(self, bound: int) -> "Series":
        if bound > self.bound:
            raise ValueError(
                f"cannot extend a series truncated at {self.bound} to bound {bound}"
            )
        kept = {e: c for e, c in self.terms.items() if sum(e) <= bound}
        return Series(self.num_vars, bound, self.ring, kept)

    def _check_compatible(self, other: "Series"):
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"series in {self.num_vars} and {other.num_vars} variables"
            )
        if self.ring != other.ring:
            raise ValueError("series over different coefficient rings")

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        bound = min(self.bound, other.bound)
        out = {e: c for e, c in self.terms.items() if sum(e) <= bound}
        zero = _zero_coeff(self.ring)
        for e, c in other.terms.items():
            if sum(e) <= bound:
                out[e] = out.get(e, zero) + c
        return Series(self.num_vars, bound, self.ring, out)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        bound = min(self.bound, other.bound)
        zero = _zero_coeff(self.ring)
        out: dict[Exponents, object] = {}
        for ea, ca in self.terms.items():
            da = sum(ea)
            if da > bound:
                continue
            for eb, cb in other.terms.items():
                if da + sum(eb) > bound:
                    continue
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, zero) + ca * cb
        return Series(self.num_vars, bound, self.ring, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if self.num_vars != other.num_vars or self.ring != other.ring:
            return False
        equal, _ = series_eq_upto(self, other, min(self.bound, other.bound))
        return equal

    __hash__ = None

    def __repr__(self):
        return f"Series({self.num_vars} vars, bound {self.bound}, {len(self._table)} terms)"


def series_eq_upto(a: Series, b: Series, degree: int):
    """Compare two series through total degree ``degree``.

    Returns ``(equal, first_difference)`` where the difference, if any,
    is ``(exponents, coeff_a, coeff_b)`` at the graded-lex-first exponent
    on which they disagree.  Asking for a degree beyond either bound is
    an error: the data does not support the comparison.  When both
    series stop at ``degree`` and their tables are equal, they agree with
    no walk at all: no table holds a zero or a term beyond its bound, so
    equal dicts are equal series.  Any other pair is walked in graded-lex
    order up to its first difference.
    """
    if a.num_vars != b.num_vars:
        raise ValueError("cannot compare series in different numbers of variables")
    if a.ring != b.ring:
        raise ValueError("cannot compare series over different coefficient rings")
    if degree > a.bound or degree > b.bound:
        raise ValueError(
            f"comparison to degree {degree} exceeds a bound "
            f"({a.bound} and {b.bound}); result would be unverified"
        )
    ta, tb = a._table, b._table
    if a.bound == b.bound == degree and ta == tb:
        return True, None
    zero = 0 if a.ring is None else {}
    keys = {e for e in ta if sum(e) <= degree}
    keys |= {e for e in tb if sum(e) <= degree}
    for e in sorted(keys, key=graded_lex_key):
        ca = ta.get(e, zero)
        cb = tb.get(e, zero)
        if ca != cb:
            if a.ring is not None:
                ca, cb = CharElement._of(a.ring, ca), CharElement._of(a.ring, cb)
            return False, (e, ca, cb)
    return True, None


def factor_power(coefficient, exponent, power: int, *, num_vars: int,
                 bound: int, ring: CharacterRing | None = None) -> Series:
    """Expand (1 - coefficient * t^exponent) ** power, truncated.

    Nonnegative powers use the binomial theorem with alternating signs;
    negative powers use the negative binomial series

        (1 - x)^(-n) = sum_k C(k + n - 1, k) x^k,

    which multiplies back to 1 against the positive power even when the
    coefficient ring has zero divisors.  A zero exponent vector is only
    allowed for power 0 (the factor is constant and the expansion would
    otherwise not be a power series in t).
    """
    m = _factors([(exponent, None, power)], num_vars)[0][0]  # checked as expand checks
    step = sum(m)
    if step == 0:
        return Series.one(num_vars, bound, ring)
    probe = Series.zero(num_vars, bound, ring)
    c = probe._accept_coeff(coefficient)
    terms: dict[Exponents, object] = {}
    ck = 1 if ring is None else ring.one()
    for k, binom in enumerate(_binomials(power, bound // step)):
        terms[tuple(k * x for x in m)] = ck * binom
        ck = ck * c
    return Series(num_vars, bound, ring, terms)


def _binomials(power: int, kmax: int) -> list[int]:
    """The coefficients b_k of (1 - x) ** power for k <= kmax (and, for
    a nonnegative power, k <= power): (-1)^k C(p, k) for power p and
    C(k + p - 1, k) for power -p."""
    if power >= 0:
        return [(-1) ** k * math.comb(power, k) for k in range(min(kmax, power) + 1)]
    if power == -1:
        return [1] * (kmax + 1)
    return [math.comb(k - power - 1, k) for k in range(kmax + 1)]


class _CharShift(dict):
    """Multiplication by u^(k l) as a map on characters, filled in as they
    occur, so a large ring costs only the characters a series meets."""

    def __init__(self, ring, l, k=1):
        super().__init__()
        self.ring, self.l, self.k = ring, l, k

    def __missing__(self, ch):
        if self.ring is None or self.l is None:
            to = ch
        else:
            to = self.ring.reduce([a + self.k * b for a, b in zip(ch, self.l)])
        self[ch] = to
        return to


def _apply_factor(out, buckets, m, l, c, power, apart, bound, ring):
    """Multiply the table by (1 - c u^l t^m) ** power in one pass over the
    degrees that occur.  A product (power >= 0), or a factor whose m
    leaves the span (``apart``), goes down the degrees,
    ``out[v + k m] += b_k c^k u^(k l) out[v]`` with b_k from
    :func:`_binomials`: every ``out[v]`` is read before anything is added
    to it.  A quotient inside the span goes up them, the recurrence
    ``out[v + k m] -= a_k c^k u^(k l) out[v]`` with a_k the coefficients of
    (1 - x) ** |power|: every ``out[v]`` is whole before it is read, and a
    degree the pass makes is queued.  In both, ``1 <= k <= (bound - deg v)
    // |m|``, and k <= n for the coefficients of (1 - x) ** n, n >= 0.
    When ``apart``, no run v + k m meets another or the table: a source
    with one character part writes its run whole, with no read-add, the
    run's characters cycling along the orbit of u^l, walked at most the
    run's length."""
    step = sum(m)
    up = power < 0 and not apart
    coeffs = _binomials(-power if up else power, bound // step)
    if up or c != 1:  # -b_k when up, times c ** k as a running product
        ck = -1 if up else 1
        for k, b in enumerate(coeffs):
            coeffs[k] = b * ck
            ck *= c
    kmax = len(coeffs) - 1
    shift = _CharShift(ring, l)
    moves = [(m, step, coeffs[1], shift)]  # (k m, k |m|, coefficient, u^(k l)) for k = 1, 2, ...
    heap = sorted([d for d in buckets if d + step <= bound])  # a sorted list is a heap
    while heap:
        d = heapq.heappop(heap) if up else heap.pop()  # up the degrees, or down them
        top = (bound - d) // step
        if top > kmax:
            top = kmax
        sources = buckets[d]
        if apart:
            sources, runs, bs = [], [], coeffs[1:top + 1]
            for v in buckets[d]:
                vec = out[v]
                if len(vec) != 1:
                    sources.append(v)
                    continue
                (ch, x), = vec.items()
                if x:
                    orbit = [shift[ch]]
                    while len(orbit) < top and orbit[-1] != ch:
                        orbit.append(shift[orbit[-1]])
                    run = list(zip(*[range(a + s, a + s * (top + 1), s) if s else repeat(a)
                                     for a, s in zip(v, m)]))
                    out.update(zip(run, [{h: y * x} for h, y in zip(cycle(orbit), bs)]))
                    runs.append(run)
            for k, col in enumerate(zip(*runs), 1):
                buckets.setdefault(d + k * step, []).extend(col)
            if not sources:
                continue
        while len(moves) < top:
            k = len(moves) + 1
            moves.append((tuple(k * x for x in m), k * step, coeffs[k], _CharShift(ring, l, k)))
        for mk, dk, b, shift_k in moves if top == kmax else moves[:top]:
            new = []
            for v in sources:
                w = tuple(map(add, v, mk))
                dst = out.get(w)
                if dst is None:
                    dst = out[w] = {}
                    new.append(w)
                for ch, x in out[v].items():
                    if x:
                        to = shift_k[ch]
                        dst[to] = dst.get(to, 0) + b * x
            if new:
                e = d + dk
                if up and e not in buckets and e + step <= bound:
                    heapq.heappush(heap, e)
                buckets.setdefault(e, []).extend(new)


def _extends_span(basis: dict, m) -> bool:
    """Whether ``m`` leaves the span of ``basis``, echelon rows keyed by pivot
    column; if so, m joins them, reduced fraction-free as in ``integer_determinant``."""
    for j in sorted(basis):
        if m[j]:
            r = basis[j]
            m = [r[j] * x - m[j] * y for x, y in zip(m, r)]
    for j, x in enumerate(m):
        if x:
            basis[j] = m
            return True
    return False


def _factors(records, num_vars: int) -> list:
    """The records, checked, as ``[m, l, c, power]``; a run of records with
    equal (m, l, c) is one item, its powers added."""
    factors = []
    for m, l, power, *c in records:
        m, c = tuple(m), c[0] if c else 1
        if len(m) != num_vars:
            raise ValueError(f"factor exponent {m} has wrong arity, expected {num_vars}")
        if min(m, default=0) < 0:
            raise ValueError(f"factor exponent {m} has a negative entry")
        if not any(m) and power != 0:
            raise ValueError(
                "factor with zero exponent vector and nonzero power is not a "
                "power series in t"
            )
        if factors and factors[-1][:3] == [m, l, c]:
            factors[-1][3] += power
        else:
            factors.append([m, l, c, power])
    return factors


def expand(records, num_vars: int, bound: int,
           ring: CharacterRing | None = None) -> Series:
    """Product of the factors (1 - c * u^l * t^m) ** power, truncated.

    ``records`` holds ``(m, l, power)`` or ``(m, l, power, c)`` items, c an
    integer (default 1) and l a character exponent tuple (ignored, and
    may be None, for an integer series; None means the trivial character
    otherwise); adjacent records with equal (m, l, c) add their powers.
    The product is built in place: each exponent holds plain ints keyed by
    character, and multiplying by u^l is a fixed permutation of the
    characters.  Each factor is one pass, :func:`_apply_factor`, over the
    total degrees that occur, pushing each source v to ``v + k m`` with the
    binomial coefficients of the factor.  A product goes down the degrees;
    a quotient goes up them once, as the recurrence of multiplying back by
    (1 - c u^l t^m) ** |p|, so k stops at |p| and at the bound and the work
    follows the terms, never |p| alone.  Every exponent of the table lies
    in the integer span of the directions m applied so far, kept as echelon
    rows.  A factor whose m leaves that span, the first one always, goes
    down the degrees whatever its sign, and each source v writes its run
    ``v + k m`` whole: two runs that met, or a run that met the table,
    would put a multiple of m in the span.  Nothing divides by a
    coefficient, so zero divisors in the ring are harmless.  The support is
    bucketed by the total degrees that occur, so the work and memory follow
    the terms, not the bound.

    Every record's arity and sign are checked here and no pass writes
    beyond ``bound``, so with its zeros dropped the table meets the
    series invariant and becomes the series' table, each character dict
    uncopied, with the degree buckets for the writers when no zero was
    dropped.  A record with c = 0 is the factor 1 and is skipped, so a pass
    whose m leaves the span writes only fresh, nonzero parts b_k c^k x;
    zeros are looked for only when another pass added into a written part."""
    _check_size(num_vars, bound)
    origin = (0,) * num_vars
    trivial = () if ring is None else (0,) * ring.num_generators
    out = {origin: {trivial: 1}}
    buckets = {0: [origin]}
    basis = {}  # echelon rows (pivot column -> row) spanning the table
    added = False  # whether a pass added into a written part, which may cancel it
    for m, l, c, power in _factors(records, num_vars):
        step = sum(m)
        if not power or not c or step > bound:
            continue  # the factor is 1 through the bound
        apart = len(basis) < num_vars and _extends_span(basis, m)
        added = added or not apart
        _apply_factor(out, buckets, m, l, c, power, apart, bound, ring)
    if ring is None:
        table = {v: x for v, vec in out.items() if (x := vec.get((), 0))}
    elif added:
        table = {}
        for v, vec in out.items():
            if 0 in vec.values():
                vec = {ch: x for ch, x in vec.items() if x}
            if vec:
                table[v] = vec
    else:
        table = out
    return Series._adopt(num_vars, bound, ring, table,
                         buckets if len(table) == len(out) else None)


class SubstitutionPlan(namedtuple("SubstitutionPlan", "entries")):
    """How each input variable maps into the output variables.

    ``entries`` has one item per input variable: either ``None`` (the
    variable is dropped, i.e. set to 1) or a pair ``(output_index,
    denominator)`` meaning t_i = T_(output_index) ** (1/denominator).
    Output indices are 0-based and must cover 0..num_outputs-1; several
    inputs may feed the same output, in which case the divided exponents
    add up.
    """

    __slots__ = ()

    def __new__(cls, entries: tuple):
        entries = tuple(entries)
        targets = []
        for i, entry in enumerate(entries):
            if entry is None:
                continue
            out, den = entry
            if not isinstance(out, int) or out < 0:
                raise PlanError(f"entry {i}: output index must be an integer >= 0")
            if not isinstance(den, int) or den < 1:
                raise PlanError(f"entry {i}: denominator must be an integer >= 1")
            targets.append(out)
        if targets and len(set(targets)) != max(targets) + 1:
            raise PlanError(
                "output indices must cover 0..k-1 with every output targeted"
            )
        return super().__new__(cls, entries)

    @property
    def num_outputs(self) -> int:
        kept = [e[0] for e in self.entries if e is not None]
        return max(kept) + 1 if kept else 0

    @property
    def max_denominator(self) -> int:
        dens = [e[1] for e in self.entries if e is not None]
        return max(dens) if dens else 1


def _graded_lex_order(series: Series) -> list:
    """The exponents in graded-lex order: each total degree's bucket sorted,
    the buckets the series' producer handed over or else made here."""
    degrees = series._degrees
    if degrees is None:
        degrees = {}
        for e in series._table:
            degrees.setdefault(sum(e), []).append(e)
    order = []
    for d in sorted(degrees):
        order += sorted(degrees[d])
    return order


def _integer_args(terms, order, args: list) -> tuple:
    """``args`` followed by each integer term's coefficient and exponents."""
    for e in order:
        args.append(terms[e])
        args += e
    return tuple(args)


def render_text(series: Series) -> str:
    """One term per line, graded-lex order, character parts flattened.

    Integer series print ``c * t^(v)``; equivariant series print one
    line ``c * u^(e) * t^(v)`` per character-basis component.  The text
    is one ``%``: the lines' templates, one built per character, over one
    flat list of each line's coefficient and exponents."""
    terms = series._table
    tpart = "t^(" + ",".join(["%d"] * series.num_vars) + ")"
    order = _graded_lex_order(series)
    if series.ring is None:
        return "\n".join(["%d * " + tpart] * len(order)) % _integer_args(terms, order, []) or "0"
    line_of, lines, args = {}, [], []
    for e in order:
        parts = terms[e]
        for ch in parts if len(parts) == 1 else sorted(parts):
            line = line_of.get(ch)
            if line is None:
                line = line_of[ch] = "%d * u^(" + ",".join(map(str, ch)) + ") * " + tpart
            lines.append(line)
            args.append(parts[ch])
            args += e
    return "\n".join(lines) % tuple(args) or "0"


def dump_machine(series: Series) -> str:
    """The machine format, the one writer of it: exactly
    ``json.dumps(render_machine(series), sort_keys=True)``, written from
    the table without building the dicts or running the JSON encoder.
    The whole document is one ``%`` of the header and the terms'
    templates, one per set of characters of a coefficient, over one flat
    list of the header's values and each term's parts, then exponents."""
    terms = series._table
    exponent = '"exponent": [' + ", ".join(["%d"] * series.num_vars) + "]}"
    order = _graded_lex_order(series)
    head = '{"bound": %d, "num_vars": %d, "ring_orders": %s, "terms": ['
    if series.ring is None:
        line = '{"coefficient": %d, ' + exponent
        args = _integer_args(terms, order, [series.bound, series.num_vars, "null"])
        return (head + ", ".join([line] * len(order)) + "]}") % args
    args = [series.bound, series.num_vars, "[" + ", ".join(map(str, series.ring.orders)) + "]"]
    item_of, items = {}, []
    for e in order:
        parts = terms[e]
        if len(parts) > 1:
            parts = dict(sorted(parts.items()))
        chars = (*parts,)
        item = item_of.get(chars)
        if item is None:
            item = item_of[chars] = '{"coefficient": [' + ", ".join(
                ['{"coeff": %d, "exponents": [' + ", ".join(map(str, ch)) + "]}"
                 for ch in chars]) + "], " + exponent
        items.append(item)
        args += parts.values()
        args += e
    return (head + ", ".join(items) + "]}") % tuple(args)


def render_machine(series: Series) -> dict:
    """The parsed :func:`dump_machine` output: a JSON-ready dict that
    :func:`parse_machine` inverts exactly."""
    return json.loads(dump_machine(series))


def parse_machine(data: dict) -> Series:
    orders = data.get("ring_orders")
    ring = None if orders is None else CharacterRing(tuple(orders))
    terms = {}
    for item in data["terms"]:
        exps = tuple(item["exponent"])
        coeff = item["coefficient"]
        if ring is not None:
            if not isinstance(coeff, list):
                raise ValueError("equivariant series term must list character parts")
            coeff = ring.element(
                {tuple(part["exponents"]): part["coeff"] for part in coeff}
            )
        terms[exps] = coeff
    return Series(data["num_vars"], data["bound"], ring, terms)
