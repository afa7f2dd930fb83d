"""Characters of one-dimensional representations of a finite group.

The one-dimensional complex characters of a finite group that factor
through a product of cyclic groups Z/m_1 x ... x Z/m_q form a ring

    R = Z[u_1, ..., u_q] / (u_1^m_1 - 1, ..., u_q^m_q - 1).

Elements are integer combinations of the m_1 * ... * m_q basis monomials
u^(e_1, ..., e_q) with 0 <= e_j < m_j.  The cyclic orders are taken as
input data; nothing here derives them from a group presentation.  The
ring has zero divisors as soon as some m_j > 1 (for instance
(1 - u)(1 + u + u^2) = 0 when u^3 = 1), so no division is ever
attempted: all downstream arithmetic uses sums and products only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

CharExponents = tuple[int, ...]


class RingMismatchError(ValueError):
    """Raised when elements of two different character rings are combined."""


@dataclass(frozen=True)
class CharacterRing:
    """The ring Z[u_1..u_q]/(u_j^m_j - 1) for fixed cyclic orders m_j.

    ``orders`` may be empty, which gives the character ring of the
    trivial group: one basis monomial with exponent tuple ().
    """

    orders: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.orders, tuple):
            object.__setattr__(self, "orders", tuple(self.orders))
        for m in self.orders:
            if not isinstance(m, int) or m < 2:
                raise ValueError(
                    f"cyclic orders must be integers >= 2, got {m!r}; "
                    "use orders=() for the trivial group"
                )

    @property
    def num_generators(self) -> int:
        return len(self.orders)

    @property
    def size(self) -> int:
        """Number of basis monomials."""
        n = 1
        for m in self.orders:
            n *= m
        return n

    def reduce(self, exponents) -> CharExponents:
        """Reduce an exponent tuple modulo the cyclic orders."""
        exponents = tuple(exponents)
        if len(exponents) != len(self.orders):
            raise ValueError(
                f"exponent tuple {exponents} has length {len(exponents)}, "
                f"ring has {len(self.orders)} generators"
            )
        return tuple(e % m for e, m in zip(exponents, self.orders))

    def characters(self):
        """Iterate over all basis exponent tuples in lexicographic order."""
        return itertools.product(*(range(m) for m in self.orders))

    def zero(self) -> "CharElement":
        return CharElement(self, {})

    def one(self) -> "CharElement":
        return self.monomial((0,) * len(self.orders))

    def monomial(self, exponents, coefficient: int = 1) -> "CharElement":
        return CharElement(self, {self.reduce(exponents): coefficient})

    def element(self, terms) -> "CharElement":
        """Build an element from a mapping exponent tuple -> coefficient."""
        out: dict[CharExponents, int] = {}
        for exps, c in dict(terms).items():
            key = self.reduce(exps)
            out[key] = out.get(key, 0) + c
        return CharElement(self, out)


class CharElement:
    """An element of a :class:`CharacterRing`, stored sparsely."""

    __slots__ = ("ring", "terms")  # a series holds one per term

    def __init__(self, ring: CharacterRing, terms: dict):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @classmethod
    def _of(cls, ring: CharacterRing, parts: dict) -> "CharElement":
        """An element that takes ``parts`` as it is, neither copied nor
        checked: the caller guarantees reduced keys and nonzero values."""
        element = cls.__new__(cls)
        element.ring, element.terms = ring, parts
        return element

    def coefficient(self, exponents) -> int:
        return self.terms.get(self.ring.reduce(exponents), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def trivial_part(self) -> int:
        """Coefficient of the trivial character u^(0,...,0)."""
        return self.terms.get((0,) * self.ring.num_generators, 0)

    def augment(self) -> int:
        """Image under the ring homomorphism sending every u_j to 1."""
        return sum(self.terms.values())

    def _check_ring(self, other: "CharElement"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"cannot combine elements of rings with orders "
                f"{self.ring.orders} and {other.ring.orders}"
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.monomial((0,) * self.ring.num_generators, other)
        if not isinstance(other, CharElement):
            return NotImplemented
        self._check_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return CharElement(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return CharElement(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.monomial((0,) * self.ring.num_generators, other)
        if not isinstance(other, CharElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CharElement(
                self.ring, {e: c * other for e, c in self.terms.items()}
            )
        if not isinstance(other, CharElement):
            return NotImplemented
        self._check_ring(other)
        out: dict[CharExponents, int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = self.ring.reduce(tuple(x + y for x, y in zip(ea, eb)))
                out[key] = out.get(key, 0) + ca * cb
        return CharElement(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"character elements support powers n >= 0, got {n!r}")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ring.monomial(
                (0,) * self.ring.num_generators, other
            )
        if not isinstance(other, CharElement):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            bits.append(f"{c}*u^{e}" if any(e) else str(c))
        return " + ".join(bits)


def cyclic_character_ring(order: int) -> CharacterRing:
    """Character ring of a cyclic group of the given order.

    Order 1 is the trivial group and gives the ring with no generators.
    """
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"cyclic order must be a positive integer, got {order!r}")
    return CharacterRing(() if order == 1 else (order,))
