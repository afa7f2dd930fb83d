"""Truncated multivariate power series with exact coefficients.

A :class:`Series` stores the coefficients of a power series in variables
t_1, ..., t_s up to a fixed total degree bound.  Coefficients are either
plain integers (``ring is None``) or elements of a
:class:`~eqpoincare.charring.CharacterRing`.  Storage is a sparse dict
``terms`` from exponent tuples to coefficients, and every series keeps
one invariant: each key has ``num_vars`` nonnegative entries summing to
at most ``bound``, and no coefficient is zero (an int is nonzero, a
:class:`~eqpoincare.charring.CharElement` has nonempty, all-nonzero
parts).  ``Series(...)`` checks this term by term, as it must for input
from outside.  The package's own producers, :func:`expand` and
:func:`substitute_and_rescale` here and the character projections in
:mod:`eqpoincare.engine`, build tables that hold it by construction, so
they drop their zeros and hand the dict over with :meth:`Series._adopt`,
which neither copies nor checks it.

Two series are considered equal when they agree on every exponent of
total degree up to the smaller of the two bounds.  Binary operations
likewise produce a series truncated at the smaller bound, so a product
never claims coefficients that the inputs cannot justify.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
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
    def __init__(self, num_vars: int, bound: int, ring: CharacterRing | None = None,
                 terms: dict | None = None):
        _check_size(num_vars, bound)
        self.num_vars = num_vars
        self.bound = bound
        self.ring = ring
        self.terms: dict[Exponents, object] = {}
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
                self.terms[exps] = c

    @classmethod
    def _adopt(cls, num_vars: int, bound: int, ring: CharacterRing | None,
               terms: dict) -> "Series":
        """A series that takes ``terms`` as it is, neither copied nor
        checked.  The caller guarantees the invariant of the module
        docstring (right arity, exponents >= 0 with sum <= ``bound``, no
        zero coefficient, a ``CharElement`` of ``ring`` with nonempty,
        all-nonzero parts when ``ring`` is set) and changes no term after."""
        series = cls.__new__(cls)
        series.num_vars, series.bound, series.ring = num_vars, bound, ring
        series.terms = terms
        return series

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
        return self.terms.get(exps, _zero_coeff(self.ring))

    def items(self):
        """Terms in graded lexicographic order."""
        for exps in sorted(self.terms, key=graded_lex_key):
            yield exps, self.terms[exps]

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

    def __neg__(self):
        return Series(self.num_vars, self.bound, self.ring,
                      {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, CharElement)):
            c0 = self._accept_coeff(other)
            return Series(self.num_vars, self.bound, self.ring,
                          {e: c * c0 for e, c in self.terms.items()})
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
        return f"Series({self.num_vars} vars, bound {self.bound}, {len(self.terms)} terms)"


def series_eq_upto(a: Series, b: Series, degree: int):
    """Compare two series through total degree ``degree``.

    Returns ``(equal, first_difference)`` where the difference, if any,
    is ``(exponents, coeff_a, coeff_b)`` at the graded-lex-first exponent
    on which they disagree.  Asking for a degree beyond either bound is
    an error: the data does not support the comparison.
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
    zero = _zero_coeff(a.ring)
    keys = {e for e in a.terms if sum(e) <= degree}
    keys |= {e for e in b.terms if sum(e) <= degree}
    for e in sorted(keys, key=graded_lex_key):
        ca = a.terms.get(e, zero)
        cb = b.terms.get(e, zero)
        if ca != cb:
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
    m = tuple(exponent)
    if len(m) != num_vars:
        raise ValueError(f"factor exponent {m} has wrong arity, expected {num_vars}")
    if any(x < 0 for x in m):
        raise ValueError(f"factor exponent {m} has a negative entry")
    step = sum(m)
    if step == 0:
        if power == 0:
            return Series.one(num_vars, bound, ring)
        raise ValueError(
            "factor with zero exponent vector and nonzero power is not a "
            "power series in t"
        )
    probe = Series.zero(num_vars, bound, ring)
    c = probe._accept_coeff(coefficient)
    kmax = bound // step
    terms: dict[Exponents, object] = {}
    ck = 1 if ring is None else ring.one()
    for k in range(kmax + 1):
        if power >= 0:
            if k > power:
                break
            binom = math.comb(power, k) * (-1) ** k
        else:
            binom = math.comb(k - power - 1, k)
        terms[tuple(k * x for x in m)] = ck * binom
        ck = ck * c
    return Series(num_vars, bound, ring, terms)


class _CharShift(dict):
    """Multiplication by u^l as a map on characters, filled in as they
    occur, so a large ring costs only the characters a series meets."""

    def __init__(self, ring, l):
        super().__init__()
        self.ring, self.l = ring, l

    def __missing__(self, ch):
        if self.ring is None or self.l is None:
            to = ch
        else:
            to = self.ring.reduce(tuple(map(add, ch, self.l)))
        self[ch] = to
        return to


def _push(out, buckets, d, m, step, shift, c) -> bool:
    """Add c * u^l * t^m times the terms of total degree d into degree
    d + step, u^l being ``shift``.  Returns whether that degree got its
    first term."""
    new = []
    for v in buckets[d]:
        w = tuple(map(add, v, m))
        dst = out.get(w)
        if dst is None:
            dst = out[w] = {}
            new.append(w)
        for ch, x in out[v].items():
            if x:
                to = shift[ch]
                dst[to] = dst.get(to, 0) + c * x
    if not new:
        return False
    if d + step in buckets:
        buckets[d + step].extend(new)
        return False
    buckets[d + step] = new
    return True


def expand(records, num_vars: int, bound: int,
           ring: CharacterRing | None = None) -> Series:
    """Product of the factors (1 - c * u^l * t^m) ** power, truncated.

    ``records`` holds ``(m, l, power)`` or ``(m, l, power, c)`` items, c an
    integer (default 1) and l a character exponent tuple (ignored, and
    may be None, for an integer series; None means the trivial character
    otherwise).  The product is built in place: each exponent holds plain
    ints keyed by character, and multiplying by u^l is a fixed
    permutation of the characters.  Dividing by (1 - c u^l t^m) is one
    ascending pass ``out[v + m] += c u^l out[v]`` over the support in
    order of total degree, multiplying by it one descending pass
    ``out[v + m] -= c u^l out[v]``; a factor with power p takes |p|
    passes.  Neither divides by a coefficient, so zero divisors in the
    ring are harmless.  The support is bucketed by the total degrees that
    occur, so the work and memory follow the terms, not the bound.

    Every record's arity and sign are checked here and no pass writes
    beyond ``bound``, so with its zeros dropped the table meets the
    ``terms`` invariant and is adopted, each character table uncopied.
    """
    _check_size(num_vars, bound)
    origin = (0,) * num_vars
    trivial = () if ring is None else (0,) * ring.num_generators
    out = {origin: {trivial: 1}}
    buckets = {0: [origin]}
    for m, l, power, *c in records:
        m = tuple(m)
        c = c[0] if c else 1
        if len(m) != num_vars:
            raise ValueError(f"factor exponent {m} has wrong arity, expected {num_vars}")
        if any(x < 0 for x in m):
            raise ValueError(f"factor exponent {m} has a negative entry")
        step = sum(m)
        if step == 0 and power != 0:
            raise ValueError(
                "factor with zero exponent vector and nonzero power is not a "
                "power series in t"
            )
        shift = _CharShift(ring, l)
        for _ in range(abs(power)):
            if power > 0:
                for d in sorted(buckets, reverse=True):
                    if d + step <= bound:
                        _push(out, buckets, d, m, step, shift, -c)
            else:
                heap = list(buckets)
                heapq.heapify(heap)
                while heap:
                    d = heapq.heappop(heap)
                    if d + step > bound:
                        break  # every degree still queued is larger
                    if _push(out, buckets, d, m, step, shift, c):
                        heapq.heappush(heap, d + step)
    if ring is None:
        terms = {v: x for v, vec in out.items() if (x := vec.get((), 0))}
    else:
        terms = {}
        for v, vec in out.items():
            if 0 in vec.values():
                vec = {ch: x for ch, x in vec.items() if x}
            if vec:
                terms[v] = CharElement._of(ring, vec)
    return Series._adopt(num_vars, bound, ring, terms)


@dataclass(frozen=True)
class SubstitutionPlan:
    """How each input variable maps into the output variables.

    ``entries`` has one item per input variable: either ``None`` (the
    variable is dropped, i.e. set to 1) or a pair ``(output_index,
    denominator)`` meaning t_i = T_(output_index) ** (1/denominator).
    Output indices are 0-based and must cover 0..num_outputs-1; several
    inputs may feed the same output, in which case the divided exponents
    add up.
    """

    entries: tuple

    def __post_init__(self):
        targets = []
        for i, entry in enumerate(self.entries):
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
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def num_inputs(self) -> int:
        return len(self.entries)

    @property
    def num_outputs(self) -> int:
        kept = [e[0] for e in self.entries if e is not None]
        return max(kept) + 1 if kept else 0

    @property
    def max_denominator(self) -> int:
        dens = [e[1] for e in self.entries if e is not None]
        return max(dens) if dens else 1


def substitute_and_rescale(series: Series, plan: SubstitutionPlan) -> Series:
    """Drop and merge variables, dividing exponents by plan denominators.

    The output is truncated at floor(bound / max denominator): a term of
    output total degree D pulls back from kept-variable degree at most
    D * max_denominator.  A plan that drops variables backs that bound only
    for input expanded deep enough in the dropped directions too; the
    package's own extraction passes none (it substitutes into the factors
    first, :func:`eqpoincare.engine.plan_poincare`).  Exponents of kept
    variables must divide exactly; anything else would silently corrupt
    the result, so it raises :class:`DivisibilityError`.
    """
    if plan.num_inputs != series.num_vars:
        raise PlanError(
            f"plan covers {plan.num_inputs} variables, series has {series.num_vars}"
        )
    out_bound = series.bound // plan.max_denominator
    t = plan.num_outputs
    zero = _zero_coeff(series.ring)
    out: dict[Exponents, object] = {}
    for exps, c in series.terms.items():
        key = [0] * t
        for i, entry in enumerate(plan.entries):
            if entry is None:
                continue
            target, den = entry
            if exps[i] % den != 0:
                raise DivisibilityError(
                    f"exponent {exps[i]} of variable {i + 1} in term {exps} "
                    f"is not divisible by {den}"
                )
            key[target] += exps[i] // den
        if sum(key) > out_bound:
            continue
        key = tuple(key)
        out[key] = out.get(key, zero) + c
    terms = {k: c for k, c in out.items() if not _is_zero_coeff(c)}
    return Series._adopt(t, out_bound, series.ring, terms)


def render_text(series: Series) -> str:
    """One term per line, graded-lex order, character parts flattened.

    Integer series print ``c * t^(v)``; equivariant series print one
    line ``c * u^(e) * t^(v)`` per character-basis component.
    """
    lines = []
    uparts: dict = {}
    for exps, c in series.items():
        tpart = "t^(" + ",".join(map(str, exps)) + ")"
        if series.ring is None:
            lines.append(f"{c} * {tpart}")
        else:
            for ce, x in sorted(c.terms.items()):
                upart = uparts.get(ce)
                if upart is None:
                    upart = uparts[ce] = "u^(" + ",".join(map(str, ce)) + ")"
                lines.append(f"{x} * {upart} * {tpart}")
    return "\n".join(lines) if lines else "0"


def render_machine(series: Series) -> dict:
    """JSON-ready dict that :func:`parse_machine` inverts exactly."""
    terms = []
    for exps, c in series.items():
        if series.ring is not None:
            c = [{"exponents": list(e), "coeff": x} for e, x in sorted(c.terms.items())]
        terms.append({"exponent": list(exps), "coefficient": c})
    return {
        "num_vars": series.num_vars,
        "bound": series.bound,
        "ring_orders": None if series.ring is None else list(series.ring.orders),
        "terms": terms,
    }


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
