"""Tests for exact cyclotomic arithmetic."""

import itertools
import json
import math
import re
import sys
import tracemalloc
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from conftest import prime_products
from gerbecalc import exactnum
from gerbecalc.exactnum import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    divisors,
    format_rational,
    parse_rational,
    power_basis_size,
    root_of_unity,
)

ORDERS = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 24])


@st.composite
def cyclo(draw, orders=ORDERS):
    order = draw(orders)
    phi = power_basis_size(order)
    nums = tuple(draw(st.lists(st.integers(-9, 9), min_size=phi, max_size=phi)))
    den = draw(st.integers(1, 9))
    return CyclotomicNumber(order, nums, den)


rationals = st.fractions(min_value=-99, max_value=99, max_denominator=12)


def test_rational_parsing_round_trip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(" -6/4 ") == Fraction(-3, 2)
    assert parse_rational("7") == 7
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-8, 4)) == "-2"
    assert format_rational(5) == "5"


@pytest.mark.parametrize("text", ["", "one", "1/0", "1.5.2", "2/"])
def test_rational_parsing_rejects_junk(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize(
    "text", ["1e3", "1e-100000000", "0.5", ".5", "1_000", "\u0663", "3/-4", "--1", "1 /2"]
)
def test_rational_grammar_is_sign_digits_and_slash_only(text):
    with pytest.raises(ValueError, match="not a rational literal"):
        parse_rational(text)


def test_rational_grammar_edges():
    assert parse_rational(" +4/6\n") == Fraction(2, 3)
    assert parse_rational("-0") == 0
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("-1/00")


def test_rational_digit_groups_past_the_bound_are_rejected():
    bound = exactnum._DIGIT_BOUND
    for text in ("1" * (bound + 1), "-" + "9" * (bound + 1), "1/" + "1" * (bound + 1)):
        with pytest.raises(ValueError, match="past the bound"):
            parse_rational(text)
    # exactly at the bound still parses; the test process keeps Python's
    # default digit limit, so lift it as the command line does
    previous = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if previous is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert parse_rational("-" + "9" * bound) == 1 - 10**bound
        assert parse_rational("1/" + "0" * (bound - 1) + "2") == Fraction(1, 2)
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


def test_cyclotomic_polynomial_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # first order with a coefficient outside {-1, 0, 1}
    assert cyclotomic_polynomial(105)[7] == -2


def test_cyclotomic_polynomial_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


@given(st.integers(1, 10**4) | prime_products(limit=10**5).map(lambda case: case[0]))
def test_divisors_match_brute_force(n):
    assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)


@given(prime_products(max_exponent=10))
def test_factoriser_on_prime_products(case):
    # the drawn factorisation is the reference: the prime powers in
    # increasing order, and every product of powers of them as a divisor
    n, exponents = case
    primes = sorted(exponents)
    assert exactnum._prime_powers(n) == tuple((p, p ** exponents[p]) for p in primes)
    expected = sorted(
        math.prod(p**e for p, e in zip(primes, chosen))
        for chosen in itertools.product(*(range(exponents[p] + 1) for p in primes))
    )
    assert divisors(n) == tuple(expected)


@pytest.mark.parametrize("n", range(1, 31))
def test_power_basis_size_is_totient(n):
    assert power_basis_size(n) == oracles.totient_brute(n)


def test_stored_form_is_canonical():
    a = CyclotomicNumber(6, (2, 4), 6)
    b = CyclotomicNumber(6, (1, 2), 3)
    assert a.numerators == b.numerators == (1, 2)
    assert a.denominator == b.denominator == 3
    c = CyclotomicNumber(6, (1, -2), -3)
    assert c.numerators == (-1, 2) and c.denominator == 3


def test_constructor_validation():
    with pytest.raises(ValueError):
        CyclotomicNumber(0, ())
    with pytest.raises(ValueError):
        CyclotomicNumber(6, (1,))
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber(6, (1, 2), 0)


def test_values_are_unhashable():
    # cross-order equality makes a consistent hash impossible
    with pytest.raises(TypeError):
        hash(CyclotomicNumber.one(4))


def test_root_of_unity_basics():
    assert root_of_unity(1, 1) == 1
    assert root_of_unity(0, 12) == 1
    assert root_of_unity(1, 2) == -1
    assert root_of_unity(5, 4) == root_of_unity(1, 4)
    z6 = root_of_unity(1, 6)
    assert z6 * z6 * z6 == -1
    assert z6 + root_of_unity(5, 6) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 9, 12])
def test_root_of_unity_has_multiplicative_order_n(n):
    z = root_of_unity(1, n)
    acc = CyclotomicNumber.one(n)
    for k in range(1, n):
        acc = acc * z
        assert acc != 1
    assert acc * z == 1


def test_root_product_law_within_small_lcm():
    # zeta_a^i * zeta_b^j = zeta_L^(i L/a + j L/b), checked whenever L <= 24
    for big in range(1, 25):
        divs = [d for d in range(1, big + 1) if big % d == 0]
        for a in divs:
            for b in divs:
                if math.lcm(a, b) != big:
                    continue
                for i in range(a):
                    for j in range(b):
                        lhs = root_of_unity(i, a) * root_of_unity(j, b)
                        rhs = root_of_unity(i * (big // a) + j * (big // b), big)
                        assert lhs == rhs


@given(cyclo(), cyclo())
def test_addition_commutes(x, y):
    assert x + y == y + x


@given(cyclo(), cyclo())
def test_multiplication_commutes(x, y):
    assert x * y == y * x


@given(cyclo(), cyclo(), cyclo())
def test_associativity_and_distributivity(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(cyclo())
def test_additive_and_multiplicative_identities(x):
    assert x + CyclotomicNumber.zero(x.order) == x
    assert x * CyclotomicNumber.one(x.order) == x
    assert x - x == CyclotomicNumber.zero()
    assert x + 0 == x and x * 1 == x


@given(cyclo(), rationals)
def test_rational_scaling_and_division(x, q):
    scaled = x * q
    assert scaled == q * x
    if q != 0:
        assert scaled / q == x
        assert scaled / CyclotomicNumber.from_rational(q, x.order) == x


def test_division_errors():
    z = root_of_unity(1, 4)
    with pytest.raises(ZeroDivisionError):
        z / 0
    with pytest.raises(ValueError, match="rational"):
        z / root_of_unity(1, 4)
    assert (z * 6) / 3 == z * 2


@st.composite
def same_order_pair(draw):
    x = draw(cyclo(st.integers(1, 24)))
    return x, draw(cyclo(st.just(x.order)))


@st.composite
def embedding(draw):
    big = draw(st.integers(1, 24))
    x = draw(cyclo(st.sampled_from([d for d in range(1, big + 1) if big % d == 0])))
    return x, big


def _substituted(x, step):
    # the numerator polynomial of x with zeta replaced by zeta^step
    poly = [0] * (step * (len(x.numerators) - 1) + 1)
    for i, c in enumerate(x.numerators):
        poly[i * step] = c
    return poly


def _reductions(x, y, z, big, reduce_mod):
    """(computed, expected) pairs for x * y, z embedded at big and x's
    conjugate, the expected values reduced by reduce_mod(poly, order)."""
    n = x.order
    product = oracles.poly_mul_int(x.numerators, y.numerators)
    expected = [
        CyclotomicNumber(n, tuple(reduce_mod(product, n)), x.denominator * y.denominator),
        CyclotomicNumber(big, tuple(reduce_mod(_substituted(z, big // z.order), big)),
                         z.denominator),
        CyclotomicNumber(n, tuple(reduce_mod(_substituted(x, n - 1), n)), x.denominator),
    ]
    computed = [x * y, z.embedded(big), x.conjugate()]
    return [((c.order, c.numerators, c.denominator), (e.order, e.numerators, e.denominator))
            for c, e in zip(computed, expected)]


@given(same_order_pair(), embedding())
def test_reductions_agree_with_long_division(pair, case):
    # x * y is the polynomial product mod Phi_N, z.embedded(M) is
    # z(zeta_M^(M/N)) mod Phi_M, and x.conjugate() is x(zeta^(N-1)) mod Phi_N
    for computed, expected in _reductions(*pair, *case, oracles.poly_mod_cyclotomic):
        assert computed == expected


def _sympy_reduce(poly, order):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    dividend = sympy.Poly(list(reversed(poly)), t, domain="ZZ")
    remainder = dividend.rem(sympy.cyclotomic_poly(order, t, polys=True))
    return [int(remainder.coeff_monomial(t**i)) for i in range(power_basis_size(order))]


@given(same_order_pair(), embedding())
def test_reductions_agree_with_sympy(pair, case):
    for computed, expected in _reductions(*pair, *case, _sympy_reduce):
        assert computed == expected


def _data(x):
    return x.order, x.numerators, x.denominator


@st.composite
def one_coordinate_pair(draw):
    """(x, y) with x = c/d * zeta_n^i, at most one nonzero coordinate, and y
    any number; both orders are drawn up to 24, so neither need divide the
    other, and x may be a rational held at an order above 1."""
    order = draw(st.integers(1, 24))
    nums = [0] * power_basis_size(order)
    nums[draw(st.integers(0, len(nums) - 1))] = draw(st.integers(-9, 9))
    x = CyclotomicNumber(order, tuple(nums), draw(st.integers(1, 9)))
    return x, draw(cyclo(st.integers(1, 24)))


ONE_COORDINATE_EXAMPLES = [
    # 3/2 held at order 4, times a number of order 6
    (CyclotomicNumber(4, (3, 0), 2), CyclotomicNumber(6, (1, -2), 5)),
    # -7/3 * zeta_9^4, times a number of order 10
    (CyclotomicNumber(9, (0, 0, 0, 0, -7, 0), 3), CyclotomicNumber(10, (1, 2, 0, -1))),
    # 5 * zeta_8^3, times a number of order 12
    (CyclotomicNumber(8, (0, 0, 0, 5)), CyclotomicNumber(12, (2, 0, -3, 1), 7)),
    # zero held at order 5, times a number of order 7
    (CyclotomicNumber.zero(5), CyclotomicNumber(7, (1, 2, 3, 4, 5, 6), 2)),
]


def _product_data(x, y, reduce_mod):
    """The data of x * y made apart from __mul__: each factor moved into the
    lcm field by substituting zeta_N = zeta_M^(M/N) and reduced by long
    division, and their polynomial product reduced mod Phi_M by reduce_mod."""
    m = math.lcm(x.order, y.order)
    a, b = (oracles.poly_mod_cyclotomic(_substituted(z, m // z.order), m) for z in (x, y))
    nums = reduce_mod(oracles.poly_mul_int(a, b), m)
    return _data(CyclotomicNumber(m, tuple(nums), x.denominator * y.denominator))


def _with_examples(test):
    for pair in ONE_COORDINATE_EXAMPLES:
        test = example(pair)(test)
    return given(one_coordinate_pair())(test)


@_with_examples
def test_one_coordinate_products_agree_with_the_convolution(pair):
    x, y = pair
    m = math.lcm(x.order, y.order)
    general = _data(exactnum._convolution(x.embedded(m), y.embedded(m)))
    assert general == _product_data(x, y, oracles.poly_mod_cyclotomic)
    for product in (x * y, y * x):
        assert _data(product) == general


@_with_examples
def test_one_coordinate_products_agree_with_sympy(pair):
    x, y = pair
    expected = _product_data(x, y, _sympy_reduce)
    assert _data(x * y) == _data(y * x) == expected


RATIONAL_EXAMPLES = [
    # 3/7 times a root of unity of order 8
    (CyclotomicNumber(1, (3,), 7), root_of_unity(5, 8)),
    # a rational whose denominator cancels against the other factor's content
    (CyclotomicNumber(1, (-5,), 3), CyclotomicNumber(12, (3, 6, 0, -9), 5)),
    # zero, and a rational times a rational
    (CyclotomicNumber.zero(), CyclotomicNumber(7, (1, 2, 3, 4, 5, 6), 2)),
    (CyclotomicNumber(1, (4,), 9), CyclotomicNumber(1, (-3,), 2)),
]


@given(cyclo(st.just(1)), cyclo(st.integers(1, 12)))
@example(*RATIONAL_EXAMPLES[0])
@example(*RATIONAL_EXAMPLES[1])
@example(*RATIONAL_EXAMPLES[2])
@example(*RATIONAL_EXAMPLES[3])
def test_rational_products_scale_in_the_other_field(q, y):
    # a factor of order 1 scales the other factor's coordinates in place
    expected = _data(exactnum._convolution(*q._aligned(y)))
    assert expected[0] == y.order
    assert _data(q * y) == _data(y * q) == expected


def _traced_bytes(make, count):
    tracemalloc.start()
    try:
        numbers = [make(i) for i in range(count)]
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(numbers) == count
    return size


def test_canonical_numbers_take_no_more_memory_than_checked_ones():
    # _canonical stores its fields as the public constructor does, so its
    # numbers keep no __dict__ of their own
    def fast(i):
        return exactnum._canonical(6, (i, 2), 1)

    def checked(i):
        return CyclotomicNumber(6, (i, 2), 1)

    count = 20_000
    for make in (fast, checked):  # the first traced run also counts one-off set-up
        _traced_bytes(make, count)
    # up to 4 KiB (0.2 B a number) of blocks the interpreter allocates on the
    # side; a number with a __dict__ of its own takes about 140 B more
    assert _traced_bytes(fast, count) <= _traced_bytes(checked, count) + 4096


@given(
    st.integers(1, 24).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(-30, 30), min_size=power_basis_size(n), max_size=power_basis_size(n)),
            st.integers(-30, 30).filter(bool),
        )
    )
)
def test_canonical_constructor_matches_the_checked_one(data):
    order, nums, den = data
    fast = exactnum._canonical(order, tuple(nums), den)
    checked = CyclotomicNumber(order, tuple(nums), den)
    assert _data(fast) == _data(checked)
    assert fast == checked


@given(cyclo(st.integers(1, 24)), cyclo(st.integers(1, 24)), rationals, st.integers(-30, 30))
def test_results_are_stored_canonically(x, y, q, k):
    # checking a result again changes none of its stored data
    results = [x + y, x * y, y * x, x * q, x - y, x.conjugate(), x.embedded(2 * x.order),
               root_of_unity(k, y.order)]
    for z in results:
        assert _data(CyclotomicNumber(*_data(z))) == _data(z)


def test_roots_of_unity_are_cached():
    assert root_of_unity(5, 12) is root_of_unity(-7, 12)
    with pytest.raises(ValueError):
        root_of_unity(1, 0)


@given(cyclo(), cyclo())
def test_conjugation_is_a_ring_involution(x, y):
    assert x.conjugate().conjugate() == x
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@given(st.integers(0, 23), st.integers(1, 24))
def test_conjugation_inverts_roots_of_unity(i, n):
    z = root_of_unity(i % n, n)
    assert z * z.conjugate() == 1


@given(rationals, ORDERS)
def test_conjugation_fixes_rationals(q, order):
    x = CyclotomicNumber.from_rational(q, order)
    assert x.conjugate() == x
    assert x.is_rational() and x.as_rational() == q


@given(rationals, ORDERS, ORDERS)
def test_equality_crosses_orders(q, a, b):
    assert CyclotomicNumber.from_rational(q, a) == CyclotomicNumber.from_rational(q, b)


@given(cyclo(), st.sampled_from([1, 2, 3, 4]))
def test_embedding_preserves_value(x, factor):
    big = x.order * factor
    y = x.embedded(big)
    assert y.order == big
    assert y == x
    assert y + (-x) == CyclotomicNumber.zero()


def test_embedding_requires_divisibility():
    with pytest.raises(ValueError):
        root_of_unity(1, 4).embedded(6)


def test_mixed_order_arithmetic():
    # zeta_4 * zeta_6 = zeta_12^5, computed through the lcm embedding
    assert root_of_unity(1, 4) * root_of_unity(1, 6) == root_of_unity(5, 12)
    assert root_of_unity(1, 2) + root_of_unity(1, 3) * 0 == -1


def test_non_rational_value_rejects_as_rational():
    with pytest.raises(ValueError):
        root_of_unity(1, 3).as_rational()


def test_coefficients_property():
    x = CyclotomicNumber(4, (1, 3), 2)
    assert x.coefficients == (Fraction(1, 2), Fraction(3, 2))


def test_serialization_shape():
    x = CyclotomicNumber(4, (1, 3), 2)
    assert x.to_dict() == {"order": 4, "coeffs": ["1/2", "3/2"]}
    assert CyclotomicNumber.from_dict(x.to_dict()) == x


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.sampled_from([0, 1, -1]) | st.integers(-10**6, 10**6),
                min_size=power_basis_size(n),
                max_size=power_basis_size(n),
            ),
            st.sampled_from([1, 2, 6]) | st.integers(1, 10**4),
        )
    )
)
def test_serialized_coefficients_are_the_formatted_rationals(data):
    order, nums, den = data
    x = CyclotomicNumber(order, tuple(nums), den)
    coeffs = [format_rational(Fraction(c, x.denominator)) for c in x.numerators]
    assert x.to_dict() == {"order": order, "coeffs": coeffs}


@given(cyclo())
def test_serialization_round_trip(x):
    wire = json.loads(json.dumps(x.to_dict()))
    assert CyclotomicNumber.from_dict(wire) == x


@pytest.mark.parametrize(
    "data",
    [
        {},
        {"order": 4},
        {"order": 4, "coeffs": ["1"], "extra": 1},
        {"order": 4, "coeffs": ["1"]},
        {"order": 0, "coeffs": []},
        {"order": "4", "coeffs": ["1", "2"]},
        {"order": 4, "coeffs": ["1", "x"]},
        {"order": True, "coeffs": ["1"]},
        {"order": 1, "coeffs": [1.5]},
        {"order": 1, "coeffs": [1]},
    ],
)
def test_deserialization_rejects_malformed(data):
    with pytest.raises(ValueError):
        CyclotomicNumber.from_dict(data)


@pytest.mark.parametrize(
    "data, field",
    [
        ({"order": True, "coeffs": ["1"]}, "'order'"),
        ({"order": 4, "coeffs": ["1"]}, "'coeffs'"),
        ({"order": 4, "coeffs": ["1", 2]}, "'coeffs[1]'"),
        ({"order": 4, "coeffs": ["1", "1e3"]}, "'coeffs[1]'"),
    ],
)
def test_deserialization_errors_name_the_field(data, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        CyclotomicNumber.from_dict(data)


def test_repr_is_readable():
    assert repr(root_of_unity(1, 6)) == "CyclotomicNumber(6; z)"
    assert repr(CyclotomicNumber.zero(4)) == "CyclotomicNumber(4; 0)"
    assert "1/2" in repr(CyclotomicNumber(4, (1, 2), 2))


def test_to_complex_is_numerically_sane():
    import cmath

    z = root_of_unity(1, 8).to_complex()
    assert abs(z - cmath.exp(2j * cmath.pi / 8)) < 1e-9


@given(cyclo())
def test_reconstruction_from_coefficients(x):
    den = reduce(math.lcm, (q.denominator for q in x.coefficients), 1)
    nums = tuple(q.numerator * (den // q.denominator) for q in x.coefficients)
    assert CyclotomicNumber(x.order, nums, den) == x
