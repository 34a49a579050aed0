"""What every command reads: the one factoriser and its totients and
divisors, the one grammar for rationals, _band_order and _isotropy_order,
the one checks of the band order r and of an isotropy order against it,
and _field, the one reader of configuration fields.  They live here so
that a command loads neither exactnum nor graphs just to read them, and
code that reads a private one, such as _prime_powers, imports it from here."""

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")

# The most decimal digits of an integer that gerbecalc reads from text or, in
# cli, writes as a result.  Converting between decimal text and int takes
# time quadratic in the digits once Python's digit limit is lifted, as
# cli.main lifts it: 100,000 digits parse in about 0.08 s and print in about
# 0.16 s, 1,000,000 digits parse in about 9 s (2-vCPU VM, Python 3.11).
# Literals are measured before they are converted, results before they are
# computed.
_DIGIT_BOUND = 100_000


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p": a sign, ASCII digits and an optional "/digits",
    with surrounding whitespace.  No exponent or decimal point, so the value
    is never longer than the text.  A digit group longer than _DIGIT_BOUND
    is rejected before it is converted.

    >>> parse_rational("-3/6")
    Fraction(-1, 2)
    """
    match = _RATIONAL.fullmatch(text)
    if not match:
        raise ValueError(f"not a rational literal: {text!r}")
    numerator, denominator = match[1], match[2] or "1"
    if max(len(numerator.lstrip("+-")), len(denominator)) > _DIGIT_BOUND:
        raise ValueError(f"rational literal past the bound of {_DIGIT_BOUND:,} digits")
    if int(denominator) == 0:
        raise ValueError(f"rational literal {text!r} has a zero denominator")
    return Fraction(int(numerator), int(denominator))


def _band_order(r: int) -> int:
    """r, once it is a valid band order, the order of mu_r: r >= 1."""
    if r < 1:
        raise ValueError(f"band order must be positive, got {r}")
    return r


def _isotropy_order(order: int, r: int) -> int:
    """order, once it divides r >= 1: the order of a subgroup of mu_r."""
    if _band_order(r) % order:
        raise ValueError(f"isotropy order {order} does not divide r={r}")
    return order


def format_rational(value: int | Fraction) -> str:
    """Format a rational as "p" when integral, else "p/q" in lowest terms."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@lru_cache(maxsize=None)
def _prime_powers(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (p, p^a), p^a the full power of the prime p in n, by
    increasing p: the package's one factoriser, trial division to sqrt(n)."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    parts = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            parts.append((p, q))
        p += 1
    if n > 1:
        parts.append((n, n))
    return tuple(parts)


def _totient(d: int, n: int) -> int:
    """phi(d) for a divisor d of n: the product of phi(gcd(d, q)) over the
    cached prime powers q of n, so the divisors of n share one factorisation."""
    return math.prod((g := math.gcd(d, q)) - g // p for p, q in _prime_powers(n))


def euler_totient(n: int) -> int:
    """Count of integers in [1, n] coprime to n; totient(1) = 1."""
    return _totient(n, n)


def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of n in increasing order, built from its prime powers."""
    found = [1]
    for p, q in _prime_powers(n):
        powers = [1]
        while powers[-1] < q:
            powers.append(powers[-1] * p)
        found = [d * e for d in found for e in powers]
    return tuple(sorted(found))


_KINDS = {int: "an integer", str: "a string", dict: "an object", list: "a list"}


def _fit(value, shape, path: str, hint: str = ""):
    """value if it fits shape: int, str, dict or list, or [shape] for a list
    of such values; JSON true/false never fit int.  Else ValueError naming
    the path of the first misfit, ending with hint when one is given."""
    kind = list if isinstance(shape, list) else shape
    if not isinstance(value, kind) or isinstance(value, bool):
        note = f" ({hint})" if hint else ""
        raise ValueError(f"field {path!r} must be {_KINDS[kind]}, got {value!r}{note}")
    if isinstance(shape, list):
        # An item of exactly the item kind fits; any other, a bool or a
        # nested list included (a list shape is never a class), is checked
        # on its own, with its path.
        item_shape = shape[0]
        for i, item in enumerate(value):
            if item.__class__ is not item_shape:
                _fit(item, item_shape, f"{path}[{i}]", hint)
    return value


def _field(section: Mapping, key: str, shape, path: str = "", hint: str = ""):
    """section[key] checked by _fit; path locates section in its document."""
    path = f"{path}.{key}" if path else key
    if key not in section:
        raise ValueError(f"the configuration is missing the field {path!r}")
    return _fit(section[key], shape, path, hint)
