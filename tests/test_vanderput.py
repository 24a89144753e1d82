from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, strategies as st

from padiczoo.core import DEFAULT_PRECISION, DomainError, \
    InsufficientPrecision, PadicNumber
from padiczoo.quotients import PadicFunction
from padiczoo.vanderput import criterion_products, schedule_exponent
from conftest import ball_exponent, decompose, drop_leading_digit, power_str


def basis_eval(n: int, x: PadicNumber) -> int:
    """Reference: e_n(x) for x in Z_p; 0/1 indicator values."""
    if n < 0:
        raise DomainError("basis index must be nonnegative")
    if n == 0:
        return 1
    p = x.prime
    k = ball_exponent(n, p)
    if not x.is_zero_like and x.valuation < 0:
        raise DomainError("basis functions live on Z_p")
    if x.is_exact_zero:
        return 0  # n >= 1 never matches 0 on its leading digit
    if x.is_bounded_zero:
        if x.abs_precision >= k:
            return 0
        raise InsufficientPrecision(
            f"membership in the ball of e_{n} needs {k} digits")
    return 1 if x.residue(k) == n % p ** k else 0


def test_ball_exponent():
    assert ball_exponent(1, 2) == 1
    assert ball_exponent(3, 2) == 2
    assert ball_exponent(8, 2) == 4
    assert ball_exponent(9, 3) == 3


def test_drop_leading_digit():
    assert drop_leading_digit(13, 2) == 5      # 1101 -> 101
    assert drop_leading_digit(9, 3) == 0       # 100 -> 00
    assert drop_leading_digit(7, 5) == 2       # 12 -> 2
    with pytest.raises(DomainError):
        drop_leading_digit(0, 2)


def test_basis_e3_brute_force():
    # at p = 2: e_3(x) = 1 iff x = 3 (mod 4)
    for x in range(8):
        want = 1 if x % 4 == 3 else 0
        assert basis_eval(3, PadicNumber.from_int(x, 2)) == want


def test_basis_contracts():
    assert basis_eval(0, PadicNumber.zero(3)) == 1
    assert basis_eval(5, PadicNumber.zero(3)) == 0
    with pytest.raises(DomainError):
        basis_eval(2, PadicNumber.from_rational(1, 3, 3))
    with pytest.raises(InsufficientPrecision):
        basis_eval(9, PadicNumber.bounded_zero(3, 1))
    # a resolved bounded zero decides membership
    assert basis_eval(9, PadicNumber.bounded_zero(3, 5)) == 0


def test_decompose_identity():
    # for f(x) = x: a_0 = 0 and a_n = (leading digit of n) * p^s
    p = 3
    ident = PadicFunction(lambda x: x, p, DEFAULT_PRECISION)
    coeff = decompose(ident, p)
    assert coeff(0).is_exact_zero
    for n in range(1, 101):
        s, q = 0, n
        while q >= p:
            q //= p
            s += 1
        want = PadicNumber.from_int(q * p ** s, p)
        assert coeff(n).agrees_with(want)


def partial_sum(coeff, n_max: int, x: PadicNumber) -> PadicNumber:
    """Reference: the sum of a_n e_n(x) over n <= n_max."""
    total = PadicNumber.zero(x.prime, DEFAULT_PRECISION)
    for n in range(n_max + 1):
        if basis_eval(n, x):
            total = total + coeff(n)
    return total


def test_partial_sum_reconstructs_identity():
    p = 3
    coeff = decompose(PadicFunction(lambda x: x, p, DEFAULT_PRECISION), p)
    for k in (0, 1, 5, 13, 26):
        got = partial_sum(coeff, 30, PadicNumber.from_int(k, p))
        assert got.agrees_with(PadicNumber.from_int(k, p))


def test_schedule_exponent():
    assert schedule_exponent(1, 2) == 1
    assert schedule_exponent(8, 2) == 4
    assert schedule_exponent(2, 2) == 1
    with pytest.raises(DomainError):
        schedule_exponent(0, 2)
    assert all(schedule_exponent(k, 3) >= 1 for k in range(1, 200))


@given(st.sampled_from([2, 3, 5, 7, 101]), st.integers(0, 100_000))
def test_schedule_exponent_never_decreases_along_sigma(p, n):
    # lip_fN reads m_sigma(n) as schedule_exponent(sigma(n)) with no
    # cumulative max: sigma(n + 1) >= p/(p-1) sigma(n), a step in
    # ln(k ln k) far above the rounding of math.log
    q = max(p - 1, 1)

    def sigma(i):
        return (i % q + 1) * p ** (i // q)
    assert schedule_exponent(sigma(n), p) <= schedule_exponent(sigma(n + 1), p)


def test_criterion_products_are_exact():
    p = 2
    rows = [(n, n) for n in range(1, 65)]  # |a_n| = 2^-n
    products = list(criterion_products(rows, 1, p))
    assert products == [(n, 2 ** n) for n in range(1, 65)]
    # |a_n| n = n / 2^n peaks at n = 1, 2
    assert max(Fraction(a, q) for a, q in products) == Fraction(1, 2)
    # n^2/2^n first exceeds 1 at n = 3; the stream stops there
    first = next(n for n, (a, q) in zip(count(1), criterion_products(
        ((n, n) for n in count(1)), Fraction(2), p)) if a > q)
    assert first == 3
    # far beyond float range, and a norm above 1
    assert list(criterion_products([(2 ** 1100, 1200), (3, -2)], 2, p)) \
        == [(2 ** 2200, 2 ** 1200), (36, 1)]


@pytest.mark.parametrize("alpha", [Fraction(3, 2), -1, 0, 2.0])
def test_criterion_products_refuse_alpha(alpha):
    # the products of a non-integer alpha are not rationals: refused, not
    # approximated in floats (which overflow at k = 2^1100 and read 0 at a
    # norm of 2^-1200)
    for row in ((2 ** 1100, 5), (3, 1200)):
        with pytest.raises(DomainError):
            criterion_products([row], alpha, 2)


def test_power_str():
    assert power_str(2, Fraction(1, 8)) == "2^-3"
    assert power_str(3, Fraction(9)) == "3^2"
    assert power_str(5, Fraction(0)) == "0"
    assert power_str(7, Fraction(1)) == "7^0"


def test_power_str_large_exponents():
    assert power_str(2, Fraction(1, 2 ** 10_000)) == "2^-10000"
    assert power_str(3, Fraction(3 ** 4_001)) == "3^4001"
    for p in (2, 3, 5, 7):
        for k in range(1, 200):
            assert ball_exponent(p ** k - 1, p) == k
            assert ball_exponent(p ** k, p) == k + 1
