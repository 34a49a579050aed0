"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value lives in one fixed field Q(zeta_N) and is written in the power basis
{1, zeta, ..., zeta^(phi(N)-1)}, where phi(N) is the degree of the N-th
cyclotomic polynomial.  Internally the coefficient vector is a tuple of
integers over a single positive denominator, which keeps multiplication an
integer convolution.  Every reduction into the power basis, of a product, an
embedding or a conjugate, goes through ``_from_powers``, which writes a sum
of c*zeta^k for any integer exponents k.  Results of the module's own
arithmetic, and the rationals of ``from_rational``, already hold phi(N)
coordinates, so they are stored through ``_canonical``, which only
normalizes the fraction; the public constructor keeps every check.  A rational
factor (order 1) scales the other factor's coordinates in that factor's own
field, a row at a time, through ``_scaled``; any other product is the
convolution of both factors in the lcm field.  ``root_of_unity`` values, which
are immutable, are cached.  No descent into subfields is attempted: a number
built at order 12 stays at order 12 even if its value is rational, and
equality across orders goes through the least-common-multiple embedding.

Rationals are stdlib ``fractions.Fraction`` throughout.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Sequence

from ._arith import divisors, format_rational, parse_rational
from ._arith import euler_totient  # noqa: F401  (defined in _arith, importable here)
from ._record import Record, setfield


def _poly_div_exact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    # den is monic; the division is exact for every use in this module.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        out[k] = c
        if c:
            for j in range(dd + 1):
                num[k + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Integer coefficients of the order-th cyclotomic polynomial.

    Constant term first, leading coefficient 1.  Computed by dividing
    x^order - 1 by the cyclotomic polynomials of all proper divisors, so the
    defining product identity holds by construction.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if order < 1:
        raise ValueError(f"order must be a positive integer, got {order}")
    if order == 1:
        return (-1, 1)
    poly = [-1] + [0] * (order - 1) + [1]
    for d in divisors(order):
        if d != order:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def power_basis_size(order: int) -> int:
    """Dimension of Q(zeta_order) over Q, i.e. deg of the cyclotomic polynomial."""
    return len(cyclotomic_polynomial(order)) - 1


@lru_cache(maxsize=None)
def _reduction_rows(order: int) -> tuple[tuple[int, ...], ...]:
    # Row k is the coordinate vector of zeta^k in the power basis, 0 <= k < order.
    phi = power_basis_size(order)
    rows: list[tuple[int, ...]] = []
    for k in range(min(phi, order)):
        rows.append(tuple(1 if i == k else 0 for i in range(phi)))
    top = tuple(-c for c in cyclotomic_polynomial(order)[:phi])
    for _ in range(phi, order):
        prev = rows[-1]
        carry = prev[phi - 1]
        shifted = [0] + list(prev[: phi - 1])
        if carry:
            for i, t in enumerate(top):
                if t:
                    shifted[i] += carry * t
        rows.append(tuple(shifted))
    return tuple(rows)


def _from_powers(
    order: int, terms: Iterable[tuple[int, int]], denominator: int
) -> "CyclotomicNumber":
    # The one reduction into the power basis: sum of c * zeta^k over the
    # (k, c) terms, over denominator.  Any integer k is taken mod order; a k
    # below phi is a coordinate as it stands, any other adds one row.
    rows = _reduction_rows(order)
    phi = power_basis_size(order)
    out = [0] * phi
    for k, c in terms:
        if c:
            k %= order
            if k < phi:
                out[k] += c
            else:
                for i, ri in enumerate(rows[k]):
                    if ri:
                        out[i] += c * ri
    return _canonical(order, tuple(out), denominator)


def _canonical(order: int, numerators: tuple[int, ...], denominator: int) -> "CyclotomicNumber":
    # The constructor of this module's own results, whose numerators already
    # hold phi(order) integers: it skips the checks of CyclotomicNumber(...)
    # and only normalizes the fraction, which a denominator of 1 already is.
    # Fields go through setfield, as the public constructor's do, so on
    # CPython 3.11+ the number holds no __dict__ of its own.
    if denominator != 1:
        numerators, denominator = _normalized(numerators, denominator)
    number = object.__new__(CyclotomicNumber)
    setfield(number, "order", order)
    setfield(number, "numerators", numerators)
    setfield(number, "denominator", denominator)
    return number


def _scaled(number: "CyclotomicNumber", rationals: Iterable[tuple[int, int]]) -> list:
    # number * p/q for each (p, q) with q > 0, stored as _canonical stores it
    # after one gcd over the scaled coordinates, which a denominator of 1 skips.
    order, nums, den = number.order, number.numerators, number.denominator
    new = object.__new__
    products = []
    for p, q in rationals:
        scaled = [c * p for c in nums]
        d = den * q
        if d != 1:
            g = math.gcd(d, *scaled)
            if g > 1:
                scaled = [c // g for c in scaled]
                d //= g
        product = new(CyclotomicNumber)
        setfield(product, "order", order)
        setfield(product, "numerators", tuple(scaled))
        setfield(product, "denominator", d)
        products.append(product)
    return products


def _convolution(a: "CyclotomicNumber", b: "CyclotomicNumber") -> "CyclotomicNumber":
    # The general product of two numbers of one order: the convolution of
    # their coordinates, reduced into the power basis.
    phi = len(a.numerators)
    conv = [0] * (2 * phi - 1)
    bn = b.numerators
    for i, ai in enumerate(a.numerators):
        if ai:
            for j, bj in enumerate(bn):
                if bj:
                    conv[i + j] += ai * bj
    return _from_powers(a.order, enumerate(conv), a.denominator * b.denominator)


def _normalized(numerators: Sequence[int], denominator: int) -> tuple[tuple[int, ...], int]:
    if denominator == 0:
        raise ZeroDivisionError("zero denominator")
    if denominator < 0:
        numerators = [-c for c in numerators]
        denominator = -denominator
    g = math.gcd(denominator, *numerators)
    if g > 1:
        numerators = [c // g for c in numerators]
        denominator //= g
    return tuple(numerators), denominator


class CyclotomicNumber(Record, eq=False):
    """An element of Q(zeta_order) with exact rational coordinates.

    ``numerators[i] / denominator`` is the coefficient of zeta^i.  Stored data
    is canonical: the denominator is positive and coprime to the content of
    the numerator vector, so two values in the same field are equal exactly
    when their stored fields are equal.
    """

    _fields = ("order", "numerators", "denominator")
    order: int
    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, order: int, numerators: tuple[int, ...], denominator: int = 1) -> None:
        setfield(self, "order", order)
        setfield(self, "numerators", numerators)
        setfield(self, "denominator", denominator)
        self.__post_init__()

    def __post_init__(self) -> None:
        # The checks of the public constructor, one method so that a
        # tracer can count the numbers built through it (_canonical's are not).
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        phi = power_basis_size(self.order)
        if len(self.numerators) != phi:
            raise ValueError(
                f"order {self.order} needs {phi} coordinates, got {len(self.numerators)}"
            )
        nums, den = _normalized(self.numerators, self.denominator)
        setfield(self, "numerators", nums)
        setfield(self, "denominator", den)

    # Equality crosses field orders, so hashing is deliberately disabled.
    __hash__ = None  # type: ignore[assignment]

    @classmethod
    def from_rational(cls, value: int | Fraction, order: int = 1) -> "CyclotomicNumber":
        # A Fraction is in lowest terms, so _canonical stores it as it is;
        # power_basis_size rejects an order below 1.
        value = Fraction(value)
        nums = (value.numerator,) + (0,) * (power_basis_size(order) - 1)
        return _canonical(order, nums, value.denominator)

    @classmethod
    def zero(cls, order: int = 1) -> "CyclotomicNumber":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CyclotomicNumber":
        return cls.from_rational(1, order)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """Power-basis coordinates as Fractions."""
        d = self.denominator
        return tuple(Fraction(c, d) for c in self.numerators)

    def is_zero(self) -> bool:
        return not any(self.numerators)

    def is_rational(self) -> bool:
        return not any(self.numerators[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.numerators[0], self.denominator)

    def embedded(self, order: int) -> "CyclotomicNumber":
        """The same value viewed in Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot embed order {self.order} into order {order}")
        step = order // self.order
        terms = ((i * step, c) for i, c in enumerate(self.numerators))
        return _from_powers(order, terms, self.denominator)

    def _aligned(self, other: "CyclotomicNumber") -> tuple["CyclotomicNumber", "CyclotomicNumber"]:
        if self.order == other.order:
            return self, other
        m = math.lcm(self.order, other.order)
        return self.embedded(m), other.embedded(m)

    @staticmethod
    def _coerce(value: object) -> "CyclotomicNumber | None":
        if isinstance(value, CyclotomicNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return CyclotomicNumber.from_rational(value)
        return None

    def __add__(self, other: object) -> "CyclotomicNumber":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self._aligned(rhs)
        den = math.lcm(a.denominator, b.denominator)
        sa, sb = den // a.denominator, den // b.denominator
        nums = tuple(x * sa + y * sb for x, y in zip(a.numerators, b.numerators))
        return _canonical(a.order, nums, den)

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicNumber":
        return _canonical(self.order, tuple(-c for c in self.numerators), self.denominator)

    def __sub__(self, other: object) -> "CyclotomicNumber":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "CyclotomicNumber":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: object) -> "CyclotomicNumber":
        # An int, a Fraction or a factor of order 1 scales the other factor
        # in that factor's own field.
        if isinstance(other, (int, Fraction)):
            number, scale, den = self, other.numerator, other.denominator
        elif not isinstance(other, CyclotomicNumber):
            return NotImplemented
        elif self.order == 1 or other.order == 1:
            number, rational = (other, self) if self.order == 1 else (self, other)
            scale, den = rational.numerators[0], rational.denominator
        else:
            return _convolution(*self._aligned(other))
        return _scaled(number, ((scale, den),))[0]

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "CyclotomicNumber":
        if isinstance(other, CyclotomicNumber):
            if not other.is_rational():
                raise ValueError("division is only supported by rational values")
            other = other.as_rational()
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        q = Fraction(other)
        if q == 0:
            raise ZeroDivisionError("division by zero")
        return self * Fraction(q.denominator, q.numerator)

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation, zeta -> zeta^(order-1)."""
        terms = ((-i, c) for i, c in enumerate(self.numerators))
        return _from_powers(self.order, terms, self.denominator)

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self._aligned(rhs)
        return a.numerators == b.numerators and a.denominator == b.denominator

    def __repr__(self) -> str:
        if self.is_zero():
            body = "0"
        else:
            terms = []
            for i, q in enumerate(self.coefficients):
                if q == 0:
                    continue
                if i == 0:
                    terms.append(format_rational(q))
                else:
                    coeff = "" if q == 1 else ("-" if q == -1 else format_rational(q) + "*")
                    power = "z" if i == 1 else f"z^{i}"
                    terms.append(f"{coeff}{power}")
            body = " + ".join(terms).replace("+ -", "- ")
        return f"CyclotomicNumber({self.order}; {body})"

    def to_dict(self) -> dict:
        """JSON-ready form: {"order": N, "coeffs": ["p/q" or "p", ...]}."""
        d = self.denominator
        coeffs = []
        for c in self.numerators:
            g = math.gcd(c, d)  # c/d in lowest terms, as format_rational writes it
            coeffs.append(str(c // g) if g == d else f"{c // g}/{d // g}")
        return {"order": self.order, "coeffs": coeffs}

    @classmethod
    def from_dict(cls, data: dict) -> "CyclotomicNumber":
        """Read the form to_dict writes: a positive integer order (not a bool)
        and phi(order) coefficient strings, each parsed by parse_rational."""
        if not isinstance(data, dict) or set(data) != {"order", "coeffs"}:
            raise ValueError("expected an object with exactly the keys 'order' and 'coeffs'")
        order = data["order"]
        coeffs = data["coeffs"]
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise ValueError(f"field 'order' must be a positive integer, got {order!r}")
        phi = power_basis_size(order)
        if not isinstance(coeffs, list) or len(coeffs) != phi:
            raise ValueError(f"field 'coeffs' must be a list of {phi} strings for order {order}")
        parsed = []
        for i, c in enumerate(coeffs):
            if not isinstance(c, str):
                raise ValueError(f"field 'coeffs[{i}]' must be a string, got {c!r}")
            try:
                parsed.append(parse_rational(c))
            except ValueError as exc:
                raise ValueError(f"field 'coeffs[{i}]': {exc}") from None
        den = reduce(math.lcm, (q.denominator for q in parsed), 1)
        nums = tuple(q.numerator * (den // q.denominator) for q in parsed)
        return cls(order, nums, den)

    def to_complex(self) -> complex:
        """Floating approximation; a debugging aid only, never used in logic."""
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(float(q) * z**i for i, q in enumerate(self.coefficients))


def root_of_unity(numerator: int, order: int) -> CyclotomicNumber:
    """zeta_order^numerator as an element of Q(zeta_order).

    The exponent is taken modulo order; the result has multiplicative order
    order / gcd(numerator, order).  Values are immutable and cached.

    >>> root_of_unity(1, 2)
    CyclotomicNumber(2; -1)
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    return _root_of_unity(numerator % order, order)


@lru_cache(maxsize=None)
def _root_of_unity(exponent: int, order: int) -> CyclotomicNumber:
    return _canonical(order, _reduction_rows(order)[exponent], 1)
