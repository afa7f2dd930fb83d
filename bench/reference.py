"""Reference series and output parsing, independent of the package.

:func:`expand` multiplies out ``prod (1 - c u^char t^m)^power`` by
recurrences on a dict keyed by ``(t-exponent, character)``: one pass
per unit of a positive power, one ascending pass per unit of a negative
power.  The package expands factors by convolution, so a bug in its
series arithmetic does not cancel against this one.
"""

from __future__ import annotations


def _shift(key, exponent, char, orders):
    exps, chars = key
    return (tuple(a + b for a, b in zip(exps, exponent)),
            tuple((a + b) % m for a, b, m in zip(chars, char, orders)))


def _times_linear(terms, c, exponent, char, orders, degree):
    """terms * (1 - c u^char t^exponent)"""
    out = dict(terms)
    step = sum(exponent)
    for key, v in terms.items():
        if sum(key[0]) + step <= degree:
            k2 = _shift(key, exponent, char, orders)
            out[k2] = out.get(k2, 0) - c * v
    return out


def _over_linear(terms, c, exponent, char, orders, degree):
    """terms / (1 - c u^char t^exponent): out = terms + c u^char t^m out,
    filled in ascending total degree."""
    step = sum(exponent)
    buckets = [{} for _ in range(degree + 1)]
    for key, v in terms.items():
        buckets[sum(key[0])][key] = v
    for d in range(degree + 1 - step):
        target = buckets[d + step]
        for key, v in buckets[d].items():
            k2 = _shift(key, exponent, char, orders)
            target[k2] = target.get(k2, 0) + c * v
    return {k: v for b in buckets for k, v in b.items()}


def expand(ref) -> dict:
    """``{(t-exponent, character): coefficient}`` of a :class:`Reference`
    through its degree, nonzero entries only.  With ``ref.character``
    set, the result is the integer series of that character, keyed by
    ``(t-exponent, ())``."""
    orders = ref.orders
    terms = {((0,) * ref.num_vars, (0,) * len(orders)): 1}
    for char, exponent, power, coeff in ref.factors:
        if sum(exponent) == 0:
            raise ValueError(f"factor exponent {exponent} is not a power series")
        step = _over_linear if power < 0 else _times_linear
        for _ in range(abs(power)):
            terms = step(terms, coeff, exponent, char, orders, ref.degree)
    if ref.character is not None:
        want = tuple(x % m for x, m in zip(ref.character, orders))
        terms = {(e, ()): v for (e, ch), v in terms.items() if ch == want}
    return {k: v for k, v in terms.items() if v}


def _tuple(part: str, prefix: str) -> tuple:
    if not (part.startswith(prefix + "(") and part.endswith(")")):
        raise ValueError(f"expected {prefix}(...), got {part!r}")
    inner = part[len(prefix) + 1:-1]
    return tuple(int(x) for x in inner.split(",")) if inner else ()


def parse_text(text: str) -> dict:
    """Terms of the text format, ``c * t^(v)`` or ``c * u^(e) * t^(v)``
    per line, as ``{(t-exponent, character): coefficient}``; integer
    lines get the character ``()``."""
    text = text.strip()
    terms = {}
    if text == "0":
        return terms
    for line in text.split("\n"):
        parts = line.split(" * ")
        if len(parts) == 2:
            key = (_tuple(parts[1], "t^"), ())
        elif len(parts) == 3:
            key = (_tuple(parts[2], "t^"), _tuple(parts[1], "u^"))
        else:
            raise ValueError(f"unreadable term line {line!r}")
        if key in terms:
            raise ValueError(f"term {key} printed twice")
        terms[key] = int(parts[0])
    return terms
