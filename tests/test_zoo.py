import functools
import inspect
import json
from collections import Counter
from fractions import Fraction
from itertools import count, product, takewhile
from math import gcd, isqrt
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ball_exponent, decompose, depth_pairs, \
    reference_lip_rows
import padiczoo.zoo as zoo
from padiczoo.cli import _decimal, main
from padiczoo.core import DEFAULT_PRECISION, DomainError, \
    InsufficientPrecision, PadicNumber, ord_int, pow_one_plus
from padiczoo.families import IndexSet, cell, generate_family
from padiczoo.haar import Stream
from padiczoo.quotients import PadicFunction, phi_r
from padiczoo.vanderput import criterion_products
from padiczoo.zoo import (
    ENTRY_NAMES,
    ClaimResult,
    Monomial,
    ZooEntry,
    build_entry,
    cor15_Fbeta,
    cor15_gbeta,
    derivative_at_zero,
    linear_combination,
    lip_coefficient_rows,
    lip_fN,
    order2_witness,
    poly_combine,
    prop26_fN,
    quotient_norm_one,
    strict_fail,
    thm16_fbeta,
    thm2_f,
    thm2_g,
    thm34i_fN,
    thm34ii_gN,
    _head_and_offset,
)


def _expand(x: PadicNumber, precision: int) -> PadicNumber:
    """An exact x known below ``precision``, re-read at ``precision``: what
    a gallery function's call does before its evaluator runs."""
    if x.exact is not None and x.abs_precision < precision:
        return x.at_precision(precision)
    return x


# --- disjoint ball system ---------------------------------------------------

def greedy_disjoint_balls(p: int, scan_limit: int) -> list[int]:
    """Reference construction: scan 1..scan_limit, keeping each n whose van
    der Put ball avoids every ball kept so far."""
    chosen: list[tuple[int, int]] = []  # (center, modulus exponent)
    out: list[int] = []
    for n in range(1, scan_limit + 1):
        t = ball_exponent(n, p)
        if all(n % p ** tj != cj % p ** tj for cj, tj in chosen):
            chosen.append((n, t))
            out.append(n)
    return out


def _centers(p: int, n_limit: int) -> Iterator[int]:
    """The sigma column of ``lip_coefficient_rows``."""
    return (k for _, k, _, _ in lip_coefficient_rows(IndexSet(3, 0), p,
                                                     n_limit))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_sigma_matches_greedy_scan(p):
    expected = list(takewhile(lambda k: k <= 3000, _centers(p, 3000)))
    assert greedy_disjoint_balls(p, 3000) == expected
    assert len(expected) >= 10


@pytest.mark.parametrize("p", [2, 3, 5])
def test_balls_pairwise_disjoint(p):
    centers = [(k, ball_exponent(k, p)) for k in _centers(p, 49)]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            (ci, ti), (cj, tj) = centers[i], centers[j]
            t = min(ti, tj)
            assert ci % p ** t != cj % p ** t


def test_sigma_increasing_and_inverse():
    # sigma(n) has valuation n div q and leading digit n mod q + 1, the two
    # numbers lip_fN's evaluate reads its ball from
    p, q = 3, 2
    vals = list(_centers(p, 99))
    assert vals == sorted(vals) and len(set(vals)) == 100
    for n, k in enumerate(vals[:30]):
        x = PadicNumber.from_int(k, p, 64)
        assert (x.valuation, x.digit(x.valuation)) == (n // q, n % q + 1)


# --- step function on disjoint balls ----------------------------------------

def test_thm34i_values():
    p = 5
    N = IndexSet(3, 1)  # contains 2, 3, 6, 7, 10, ...
    e = thm34i_fN(N, p)
    f = e.function
    x = PadicNumber.from_int(p ** 2, p, 64)
    assert f(x).agrees_with(PadicNumber.from_int(p ** 4, p))
    # inside the same ball
    y = PadicNumber.from_int(p ** 2 + p ** 6, p, 64)
    assert f(y).agrees_with(PadicNumber.from_int(p ** 4, p))
    # outside the ball (perturbed below radius)
    z = PadicNumber.from_int(p ** 2 - p ** 4, p, 64)
    assert f(z).is_exact_zero
    # index not in N
    w = PadicNumber.from_int(p ** 1, p, 64)
    assert f(w).is_exact_zero
    # zero-like inputs
    assert f(PadicNumber.zero(p)).is_exact_zero
    assert f(PadicNumber.bounded_zero(p, 10)).is_bounded_zero
    # f is constant on ball n = p**n + p**(2n+1) Z_p: a step of valuation
    # 2n + 1 leaves the quotient 0 on every ball below the precision
    for q in (2, 3, 5, 7):
        g = thm34i_fN(N, q).function
        for n in takewhile(lambda n: 2 * n + 1 < DEFAULT_PRECISION, count(1)):
            x = PadicNumber.from_int(q ** n + 2 * q ** (2 * n + 1), q)
            h = PadicNumber.from_int(q ** (2 * n + 1), q)
            assert phi_r(g, (x + h, x)).is_zero_like, (q, n)


def test_thm34i_reads_the_ball_from_the_known_digits():
    # x = p**n u is on the ball iff u = 1 mod p**(n+1); with fewer digits
    # of u known, f is p**2n or 0 and known mod p**2n, unless a known
    # digit already leaves the ball
    p = 5
    f = build_entry("thm34i", p).function
    assert f(PadicNumber.bounded_zero(p, 1)).render() == "0 (mod 5^2)"
    for unit, digits, want in ((1, 1, "0 (mod 5^2)"), (1, 2, "1 * 5^2"),
                               (1 + 2 * p, 2, "0"), (2, 1, "0"),
                               (1 + p ** 2, 3, "1 * 5^2")):
        y = f(PadicNumber.from_unit(p, 1, unit, 1 + digits))
        assert y.render().startswith(want), (unit, digits, y.render())
    # an exact point decides with all its digits
    assert f(PadicNumber.from_rational(p, 1 - p ** 2, p, 2)).render() \
        .startswith("1 * 5^2")
    # also where its ball needs 2n + 1 digits, past the entry's precision
    for q, n in product((2, 3, 5), (5, 7)):
        g = build_entry("thm34i", q, 8).function
        assert g(PadicNumber.from_int(q ** n, q, 8)).exact == q ** (2 * n)
        off = PadicNumber.from_int(q ** n + q ** (2 * n), q, 8)
        assert g(off).is_exact_zero, (q, n)


def test_thm34i_claims():
    e = build_entry("thm34i", 5)
    assert e.run_claim("strict-fail", limit=24).passed
    assert e.run_claim("derivative-at-zero", limit=24).passed


def test_thm34ii_digit_spreading():
    p = 3
    N = IndexSet(1, 0)  # odd indices
    e = thm34ii_gN(N, p)
    x = PadicNumber.from_int(1 + p + p ** 3, p, 32)
    got = e.function(x)
    want = PadicNumber.from_int(p ** 2 + p ** 6, p)
    assert got.agrees_with(want)
    # doubling of precision for a digit-limited input
    t = e.function(x.truncated(32))
    assert t.abs_precision == 64


def test_thm34ii_claims():
    e = build_entry("thm34ii", 5)
    assert e.run_claim("order2-witness", limit=24).passed
    assert e.run_claim("contraction", per_depth=5).passed


# --- sparse van der Put construction ----------------------------------------

def test_lip_eval_matches_rows():
    p = 3
    N = IndexSet(3, 0)
    e = lip_fN(N, p, 48)
    for n, k, m, member in list(lip_coefficient_rows(N, p, 25)):
        x = PadicNumber.from_int(k, p, 48)
        v = e.function(x)
        got = Fraction(0) if v.is_exact_zero else v.abs_value()
        assert got == (Fraction(p) ** -m if member else 0), (n, k)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_lip_rows_match_the_closed_form(p):
    # sigma is a running power of p, multiplied at each wrap
    # n = 0 mod (p - 1); the closed forms recompute it on every row
    n_limit = 3000
    for N in (IndexSet(3, 0), IndexSet(2, 1)):
        got = list(lip_coefficient_rows(N, p, n_limit))
        assert got == [(n, k, m, norm != 0) for n, k, m, norm
                       in reference_lip_rows(N, p, n_limit)]
    q = max(p - 1, 1)
    wraps = [(n, k) for n, k, m, member in got if n % q == 0]
    assert wraps == [(j * q, p ** j) for j in range(n_limit // q + 1)]
    for n_max in (0, 1, p - 2, p - 1, p):
        assert list(lip_coefficient_rows(N, p, n_max)) == got[:n_max + 1]


def test_lip_eval_reads_the_rows():
    # evaluate reads m from the point's ball, the rows from sigma(n): the
    # value at sigma(n) is p**m_sigma(n) of the rows for the odd members n
    # of N, and 0 at the even n
    p = 2
    N = IndexSet(1, 0)
    e = lip_fN(N, p, 32)
    for n, k, m, member in lip_coefficient_rows(N, p, 1001):
        if n in (0, 1, 7, 1000, 1001):
            v = e.function(PadicNumber.from_int(k, p, n + 32))
            assert member == (n % 2 == 1)
            want = Fraction(p) ** -m if member else 0
            assert (0 if v.is_exact_zero else v.abs_value()) == want, n


@pytest.mark.parametrize("p", [2, 3, 101])
def test_lip_eval_deep_ball_matches_reference_rows(p):
    # the reference keeps the cumulative max of the schedule, so an m that
    # evaluate reads at a deep ball matches it only if no row before
    # decreased
    N = IndexSet(1, 0)
    e = lip_fN(N, p, 32)
    for n, k, m, norm in list(reference_lip_rows(N, p, 2001))[1998:]:
        v = e.function(PadicNumber.from_int(k, p, n + 32))
        assert norm == (Fraction(p) ** -m if n % 2 else 0)
        assert (0 if v.is_exact_zero else v.abs_value()) == norm, n


def test_lip_zero_and_off_ball():
    p = 3
    N = IndexSet(3, 0)
    e = lip_fN(N, p, 48)
    assert e.function(PadicNumber.zero(p)).is_exact_zero
    with pytest.raises(InsufficientPrecision):
        e.function(PadicNumber.bounded_zero(p, 8))
    # 1 + 3 shares the lowest digit with center 1 but sits outside its ball?
    # ball of 1 has radius p^-1, so 1 + 3 is inside; 2 is a different center
    inside = e.function(PadicNumber.from_int(4, p, 48))
    same = e.function(PadicNumber.from_int(1, p, 48))
    assert inside.agrees_with(same) or (inside.is_exact_zero
                                        and same.is_exact_zero)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lip_derivative_refuses_where_lip_fN_refuses_off_z_p(p):
    # the zero derivative lives on Z_p with its function: a point of
    # valuation < 0 lies off it, and a bounded zero mod p**k with k < 0 may
    e = build_entry("lip_fN", p)
    for x, error in ((PadicNumber.from_rational(1, p, p), DomainError),
                     (PadicNumber.from_unit(p, -2, 1, 4), DomainError),
                     (PadicNumber.bounded_zero(p, -2), InsufficientPrecision),
                     (PadicNumber.bounded_zero(p, -1), InsufficientPrecision)):
        for fn in (e.function, e.derivative):
            with pytest.raises(error):
                fn(x)
    for x in (PadicNumber.zero(p, -2), PadicNumber.bounded_zero(p, 0),
              PadicNumber.from_int(p, p), PadicNumber.from_unit(p, 0, 1, 1)):
        assert e.derivative(x) == PadicNumber.zero(p)


def _lip_fN_by_ball(N, p, precision):
    """lip_fN's evaluate before it read the ball from the leading digit:
    sigma and its inverse in closed form, then the precision and residue
    checks of the ball around sigma(n).  Off Z_p it raises what the
    function call's Z_p check raises."""
    q = max(p - 1, 1)

    def evaluate(x: PadicNumber) -> PadicNumber:
        x = _expand(x, precision)
        if x.is_exact_zero:
            return PadicNumber.zero(p, precision)
        if x.is_bounded_zero and x.valuation < 0:
            raise InsufficientPrecision("membership in Z_p unknown")
        if x.is_bounded_zero:
            raise InsufficientPrecision(
                "ball membership needs a resolved leading digit")
        if x.valuation < 0:
            raise DomainError("defined on Z_p only")
        j, u = x.valuation, x.digit(x.valuation)
        n = j * (p - 1) + (u - 1) if p > 2 else j
        k = (n % q + 1) * p ** (n // q)
        t = ball_exponent(k, p)
        if x.abs_precision < t:
            raise InsufficientPrecision(
                f"ball membership at index {n} needs {t} digits")
        if x.residue(t) != k % p ** t or n not in N:
            return PadicNumber.zero(p, precision)
        for _, _, m, _ in lip_coefficient_rows(N, p, n):
            pass  # m_sigma(n) is the exponent of the last row
        return PadicNumber.from_rational(p ** m, 1, p, precision + m)

    return evaluate


def _full_outcome(f, x):
    """All fields of f(x), or the class and message of the error it
    raises."""
    try:
        y = f(x)
    except (DomainError, InsufficientPrecision) as exc:
        return type(exc), str(exc)
    return (y.valuation, y.unit, y.abs_precision, y.exact)


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 101]),
       N=st.sampled_from([IndexSet(3, 0), IndexSet(3, 1),
                          IndexSet(2, 1)]),
       precision=st.integers(1, 64),
       v=st.integers(-2, 40),
       kind=st.sampled_from(["exact", "truncated", "bounded zero"]),
       data=st.data())
def test_lip_eval_matches_ball_reference(p, N, precision, v, kind, data):
    if kind == "bounded zero":
        x = PadicNumber.bounded_zero(p, v)
    elif kind == "exact":
        num = data.draw(st.integers(-10 ** 6, 10 ** 6).filter(
            lambda a: a % p), label="num")
        den = data.draw(st.integers(1, 10 ** 4).filter(lambda b: b % p),
                        label="den")
        num, den = (num * p ** v, den) if v >= 0 else (num, den * p ** -v)
        x = PadicNumber.from_rational(num, den, p, data.draw(
            st.integers(-2, 48), label="exact precision"))
    else:
        digits = data.draw(st.integers(1, 24), label="digits")
        unit = data.draw(st.integers(1, p ** digits - 1).filter(
            lambda u: u % p), label="unit")
        x = PadicNumber.from_unit(p, v, unit, v + digits)
    assert _full_outcome(lip_fN(N, p, precision).function, x) \
        == _full_outcome(_lip_fN_by_ball(N, p, precision), x)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("name", ["lip_fN", "thm2_f", "thm2_g", "thm2_fN"])
def test_zp_entries_refuse_a_bounded_zero_below_p0(name, p):
    # a bounded zero mod p**k with k < 0 has refinements outside Z_p, so
    # its membership in the domain is unknown; a point of valuation < 0
    # lies outside it.  The entry's derivative, where it has one, and a
    # product with another Z_p entry refuse the same points
    e = build_entry(name, p)
    f = e.function
    for k in (-2, -1, 0, 1):
        x = PadicNumber.bounded_zero(p, k)
        if k >= 0 and name in ("thm2_g", "thm2_fN"):
            y = f(x)
            assert y.is_bounded_zero and y.abs_precision == k
        else:
            with pytest.raises(InsufficientPrecision):
                f(x)
    other = build_entry("lip_fN" if name == "thm2_f" else "thm2_f", p)
    poly = poly_combine([e, other], [Monomial(PadicNumber.one(p), (1, 1))])
    assert poly.function.domain_tag == "Zp"
    fns = [g for g in (f, e.derivative, poly.function) if g is not None]
    for g in fns:
        for k in (-2, -1):
            with pytest.raises(InsufficientPrecision,
                               match="^membership in Z_p unknown$"):
                g(PadicNumber.bounded_zero(p, k))
        for x in (PadicNumber.from_rational(1, p, p),
                  PadicNumber.from_rational(p + 1, p ** 3, p, 2),
                  PadicNumber.from_unit(p, -2, 1, 4)):
            with pytest.raises(DomainError, match="^defined on Z_p only$"):
                g(x)
    # an exact zero lies in Z_p at every precision, negative ones included
    assert build_entry(name, p, -4).function(PadicNumber.zero(p, -3)) \
        == PadicNumber.zero(p, -4)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("bit", [0, 1, 2])
def test_lip_function_has_the_claimed_coefficients(p, bit):
    # n1-decay and lip2-unbounded read the schedule, not the function: the
    # van der Put coefficients of the function must be the schedule's
    N = IndexSet(3, bit)
    coeff = decompose(lip_fN(N, p).function, p)
    centres = {}
    for n, k, m, member in lip_coefficient_rows(N, p, 300):
        if k > 300:
            break
        centres[k] = Fraction(p) ** -m if member else 0
    for k in range(301):
        a = coeff(k)
        if centres.get(k, 0) == 0:
            assert a.is_exact_zero, k
        else:
            assert a.abs_value() == centres[k], k
    assert any(centres.values()) and 0 in centres.values()


def test_lip_claims_reduced():
    e = build_entry("lip_fN", 2)
    assert e.run_claim("n1-decay", n_limit=500).passed
    r = e.run_claim("lip2-unbounded", n_limit=500)
    assert r.passed and r.details["first_crossing"] <= 20


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lip_claims_match_fraction_reference(p):
    # the claims compare integer cross-products; the reference runs the
    # same criteria in Fraction arithmetic on the closed-form rows
    import math
    N = IndexSet(3, 0)
    e = lip_fN(N, p)
    rows = [r for r in reference_lip_rows(N, p, 400) if r[3] != 0]
    products = [norm * k for n, k, m, norm in rows if n >= 2]
    assert all(norm * k <= Fraction(p) / Fraction(math.log(n))
               for n, k, m, norm in rows if n >= 2)
    assert e.run_claim("n1-decay", n_limit=400).details == {
        "n_limit": 400, "max_product": float(max(products))}
    with pytest.raises(DomainError):
        e.run_claim("lip2-unbounded", n_limit=400, threshold=0)
    for alpha in (1, 2):
        got = criterion_products([(k, m) for n, k, m, norm in rows], alpha, p)
        assert [Fraction(a, q) for a, q in got] \
            == [norm * Fraction(k) ** alpha for n, k, m, norm in rows]
    for threshold in (1, 100, 10 ** 6, 10 ** 40):
        crossing = next((n for n, k, m, norm in rows
                         if norm * Fraction(k) ** 2 > threshold), None)
        r = e.run_claim("lip2-unbounded", n_limit=400, threshold=threshold)
        assert r.passed == (crossing is not None)
        assert r.details["first_crossing"] == crossing


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lip_products_are_criterion_products_in_lowest_terms(p):
    # the claims' pairs equal criterion_products on the rows (sigma(n), m)
    # as fractions (cross-multiplied, the claims' pair coprime), with the
    # same correctly rounded a / q
    N = IndexSet(3, 0)
    rows = [(n, k, m) for n, k, m, member
            in lip_coefficient_rows(N, p, 10_000) if member]
    for alpha in (1, 2):
        got = list(zoo._lip_products(N, p, 10_000, alpha))
        want = criterion_products([(k, m) for _, k, m in rows], alpha, p)
        assert [n for n, _ in got] == [n for n, _, _ in rows]
        for (n, (a, q)), (b, r) in zip(got, want):
            assert gcd(a, q) == 1 and a * r == b * q, (alpha, n)
            assert _decimal(a, q) == _decimal(b, r), (alpha, n)


# --- analytic shell functions ------------------------------------------------

def test_thm16_shell_values():
    p = 3
    beta = PadicNumber.from_int(4, p)
    e = thm16_fbeta(beta, p)
    # x = p^-n with no offset: value p^-n exactly (norm p^n)
    for n in (1, 2, 5):
        x = PadicNumber.from_rational(1, p ** n, p)
        assert e.function(x).abs_value() == Fraction(p) ** n
        assert e.derivative(x).abs_value() == Fraction(p) ** n
    # pZ_p maps to exact zero
    assert e.function(PadicNumber.from_int(p, p)).is_exact_zero
    assert e.function(PadicNumber.zero(p)).is_exact_zero
    # unit shell: n = 0
    u = PadicNumber.from_int(1 + p, p)
    v = e.function(u)
    assert v.abs_value() == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_head_and_offset_matches_digit_reads(p, rng):
    for v in range(-1, -7, -1):
        num = rng.below(10 ** 6) * p + 1
        points = [PadicNumber.from_rational(num, p ** -v, p, 24)]
        for width in (1 - v, 2 - v, 20):
            unit = rng.below(p ** width) * p + 1
            points.append(PadicNumber.from_unit(p, v, unit, v + width))
        for x in points:
            head = sum(x.digit(i) * Fraction(p) ** i for i in range(v, 1))
            y = x - PadicNumber.from_rational(
                head.numerator, head.denominator, p, x.abs_precision)
            assert _head_and_offset(x, p) == (-v, y), x.render()
        # digit 0 unknown: the head is not determined
        x = PadicNumber.from_unit(p, v, 1, 0)
        with pytest.raises(InsufficientPrecision):
            _head_and_offset(x, p)


def test_thm16_rejects_bad_exponent():
    p = 3
    with pytest.raises(DomainError):
        thm16_fbeta(PadicNumber.zero(p), p)
    with pytest.raises(DomainError):
        thm16_fbeta(PadicNumber.from_rational(1, p, p), p)


def test_thm16_claims():
    e = build_entry("thm16", 3)
    assert e.run_claim("unbounded-derivative", limit=12).passed
    assert e.run_claim("zero-on-pzp", samples=50).passed


def _pzp_patterns_by_digits(p: int, depth: int, precision: int):
    """_pzp_patterns's former digit-list build, its reference."""
    for total in range(1, p ** depth):
        digits, t = [], total
        for _ in range(depth):
            t, d = divmod(t, p)
            digits.append(d)
        yield PadicNumber.from_digits(p, 1, digits, precision)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pzp_patterns_match_digit_list_build(p):
    # the same points, field by field, in the same order: the witness
    # search of the derivative-norm-growth claim returns the same first
    # witness
    for depth in (1, 2, 3):
        for precision in (1, 8, 64):
            got = list(zoo._pzp_patterns(p, depth, precision))
            assert got == list(_pzp_patterns_by_digits(p, depth, precision))


def test_poly_combine_validation():
    p = 3
    betas = [PadicNumber.from_int(b, p) for b in (1, 4)]
    entries = [thm16_fbeta(b, p) for b in betas]
    one = PadicNumber.one(p)
    with pytest.raises(DomainError):
        poly_combine(entries, [Monomial(one, (0, 0))])  # free term
    with pytest.raises(DomainError):
        poly_combine(entries, [Monomial(one, (1, 0)),
                               Monomial(one, (1, 0))])  # duplicate
    with pytest.raises(DomainError):
        poly_combine(entries, [Monomial(PadicNumber.zero(p), (1, 0))])
    with pytest.raises(DomainError, match="at least one monomial"):
        poly_combine(entries, [])
    # shells whose exponents cancel in a monomial
    shells = [thm16_fbeta(PadicNumber.from_int(b, p), p) for b in (2, -1)]
    for e in ((1, 2), (2, 4)):
        with pytest.raises(DomainError,
                           match="aggregate exponents must be nonzero"):
            poly_combine(shells, [Monomial(one, e)])
    with pytest.raises(DomainError, match="one prime"):  # no common point
        poly_combine([build_entry("thm34i", p), build_entry("thm2_f", 5)],
                     [Monomial(one, (1, 1))])
    # a single monomial is validated before it can stand for one entry
    steps = [build_entry("thm34i", p, member_bit=b) for b in range(3)]
    for m in (Monomial(one, (1, 1, -1)), Monomial(one, (1,)),
              Monomial(one, (2, -1, 0)), Monomial(2, (2, -1, 0))):
        with pytest.raises(DomainError):
            poly_combine(steps, [m])
    # so is a coefficient of another prime, with or without the shortcut
    for c in (PadicNumber.from_int(2, 5), PadicNumber.one(5)):
        for e in ((1, 1, 0), (1, 0, 0)):
            with pytest.raises(DomainError, match="prime mismatch: 5 vs 3"):
                poly_combine(steps, [Monomial(c, e)])


def test_poly_combine_refuses_coefficients_that_are_not_padic():
    p = 3
    steps = [build_entry("thm34i", p, member_bit=b) for b in range(3)]
    one = PadicNumber.one(p)
    # an int 1 would otherwise reach the single-entry shortcut
    for monomials in ([Monomial(2, (1, 0, 0))], [Monomial(1, (1, 0, 0))],
                      [Monomial(one, (1, 0, 0)), Monomial(2, (0, 1, 0))]):
        with pytest.raises(DomainError, match="PadicNumber"):
            poly_combine(steps, monomials)


def test_poly_combine_growth_claim():
    p = 3
    betas = [PadicNumber.from_int(b, p, 64) for b in (1, 4, 7)]
    entries = [thm16_fbeta(b, p, 64) for b in betas]
    one = PadicNumber.one(p, 64)
    mono = [Monomial(one, (2, 0, 0)),
            Monomial(PadicNumber.from_int(2, p, 64), (0, 1, 1)),
            Monomial(one, (1, 0, 0))]
    comb = poly_combine(entries, mono, 64)
    r = comb.run_claim("derivative-norm-growth", n_max=12)
    assert r.passed and r.details["leading_degree"] == 2
    assert not comb.run_claim("derivative-norm-growth", n_max=0).passed


# --- pinched branch ----------------------------------------------------------

def test_cor15_center_values_and_quotients():
    p = 3
    beta = PadicNumber.from_int(4, p)
    a = PadicNumber.zero(p)
    g = cor15_gbeta(beta, a, p)
    assert g.run_claim("center-values", limit=5).passed
    F = cor15_Fbeta(beta, a, p)
    assert F.run_claim("quotient-growth", limit=5).passed
    assert F.run_claim("continuity-at-center", limit=4).passed


def test_cor15_refuses_parameters_of_another_prime():
    # a 5-adic exponent or centre is refused when the entry is built, not
    # only at a point on a branch (cor15_Fbeta's shell refuses its exponent)
    p, q = 3, 5
    beta, a = PadicNumber.from_int(4, p), PadicNumber.zero(p)
    for builder, b, c in ((cor15_gbeta, PadicNumber.from_int(4, q), a),
                          (cor15_gbeta, beta, PadicNumber.one(q)),
                          (cor15_Fbeta, beta, PadicNumber.one(q))):
        with pytest.raises(DomainError, match=f"prime mismatch: {q} vs {p}"):
            builder(b, c, p)


def test_cor15_zero_off_branch():
    p = 3
    g = cor15_gbeta(PadicNumber.from_int(4, p), PadicNumber.zero(p), p)
    # valuation 2 is not a positive perfect square of the right digit shape
    assert g.function(PadicNumber.from_int(p ** 2, p)).is_exact_zero
    # valuation 4 = 2^2 with leading digit 2 is off the branch
    assert g.function(PadicNumber.from_int(2 * p ** 4, p)).is_exact_zero
    # leading digit 1 at valuation 4 is on it
    assert g.function(PadicNumber.from_int(p ** 4, p)).abs_value() \
        == Fraction(1, p ** 2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cor15_g_derivative_at_the_pinch_and_off_the_branches(p):
    for a in (PadicNumber.zero(p), PadicNumber.from_rational(1, 1 + p, p)):
        dg = cor15_gbeta(PadicNumber.from_int(1 + p, p), a, p).derivative
        with pytest.raises(DomainError):
            dg(a)
        # a point known only to lie within p**-5 of a may be on branch 2
        with pytest.raises(InsufficientPrecision):
            dg(a + PadicNumber.bounded_zero(p, 5))
        # valuations -1, 0, 2 and 3 are no positive squares; on the sphere
        # of 4 = 2**2 the branch needs leading digit 1, which p = 2 has
        off = [PadicNumber.from_rational(1, p, p)] + [
            PadicNumber.from_int(d, p) for d in (1, p ** 2, p ** 3 + p ** 5)]
        if p > 2:
            off.append(PadicNumber.from_int((p - 1) * p ** 4 + p ** 6, p))
        for d in off:
            assert dg(a + d).is_exact_zero, d.render()


@pytest.mark.parametrize("beta", [None, (1, 7)])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_cor15_g_difference_quotients_tend_to_the_derivative(p, beta):
    # on branch n, g(a + p**(n^2) t) = p**n t**beta with t in 1 + pZ_p, so
    # (g(x + h) - g(x)) / h - g'(x) has norm at most p**(n^2 - n) |h|
    # p**(n^2) for every step h = p**(n^2 + k), k >= 1, that stays on it
    precision = 80
    b = None if beta is None else PadicNumber.from_rational(*beta, p,
                                                            precision)
    e = build_entry("cor15_g", p, precision, beta=b)
    draw = Stream(p)
    for n in (1, 2, 3):
        for _ in range(3):
            y = draw.zp(p, precision, min_valuation=1)
            x = PadicNumber.from_int(p ** (n * n), p, precision) \
                * (PadicNumber.one(p, precision) + y)
            fx, dfx = e.function(x), e.derivative(x)
            gaps = []
            for k in range(1, 7):
                h = PadicNumber.from_int(p ** (n * n + k), p, precision)
                gap = (e.function(x + h) - fx) / h - dfx
                assert gap.norm_upper() <= Fraction(p) ** (n * n - n - k), \
                    (n, k, x.render())
                gaps.append(gap.norm_upper())
            assert gaps[-1] < gaps[0], (n, x.render())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cor15_values_on_the_branches_around_a_nonzero_centre(p):
    # on branch n, g(a + p**(n^2) t) = p**n t**beta for t in 1 + pZ_p, and
    # F adds the shell value there
    beta = PadicNumber.from_int(1 + p, p)
    shell = thm16_fbeta(beta, p).function
    centres = [PadicNumber.from_rational(1, 1 + p, p),
               PadicNumber.from_int(p, p), PadicNumber.from_rational(2, p, p)]
    for a in centres:
        g = cor15_gbeta(beta, a, p).function
        F = cor15_Fbeta(beta, a, p).function
        assert g(a).is_exact_zero
        for n in (1, 2, 3):
            for t in (1, 1 + p, 1 + 2 * p ** 3):
                x = a + PadicNumber.from_int(p ** (n * n) * t, p)
                want = PadicNumber.from_int(p ** n, p) * pow_one_plus(
                    PadicNumber.from_int(t - 1, p), beta, DEFAULT_PRECISION)
                assert g(x).agrees_with(want), (a, n, t)
                assert F(x).agrees_with(shell(x) + want), (a, n, t)


# --- sphere step functions ---------------------------------------------------

def test_prop26_values():
    p = 3
    e = build_entry("prop26_g", p)
    f = e.function
    assert f(PadicNumber.from_int(p ** 4, p)).abs_value() == Fraction(1, p ** 2)
    assert f(PadicNumber.from_int(p ** 3, p)).is_exact_zero
    assert f(PadicNumber.from_int(2 * p ** 9, p)).abs_value() \
        == Fraction(1, p ** 3)
    assert f(PadicNumber.zero(p)).is_exact_zero
    with pytest.raises(DomainError):
        e.derivative(PadicNumber.zero(p))
    # exactly p**n, not only of norm p**-n, at u p**(n^2) on every branch
    # sphere below the precision; prop26's N holds the odd n
    for q, (name, N) in product((2, 3, 5, 7), (("prop26", IndexSet(3, 0)),
                                               ("prop26_g", None))):
        f = build_entry(name, q).function
        for n, u in product(range(1, isqrt(DEFAULT_PRECISION - 1) + 1),
                            (1, q - 1, 1 + q * (q + 1))):
            want = q ** n if N is None or n in N else 0
            assert f(PadicNumber.from_int(u * q ** (n * n), q)).exact == want


def test_prop26_claims(monkeypatch, capsys):
    drawn = []
    nonzero = Stream.nonzero

    def spy(self, p, precision, valuation_range=(-4, 5)):
        x = nonzero(self, p, precision, valuation_range)
        drawn.append(x.valuation)
        return x

    monkeypatch.setattr(Stream, "nonzero", spy)
    for name in ("prop26", "prop26_g"):
        e = build_entry(name, 3)
        assert e.run_claim("ratio-growth", limit=8).passed
        assert e.run_claim("derivative-zero", samples=150).passed
        # the default size draws four points at every valuation from -4 to
        # below the precision: the spheres n >= 3 (v = 9, 25, 49) among them
        drawn.clear()
        got = e.run_claim("derivative-zero")
        assert got.passed and got.details == {"samples": 272}
        assert Counter(drawn) == {v: 4 for v in range(-4, DEFAULT_PRECISION)}
        # and at the CLI's least precision, where a step p**(v + 1) stays
        # inside the known digits of a point of valuation v
        for p in (2, 3, 101):
            assert main(["--prime", str(p), "--precision", "8", "verify",
                         name, "derivative-zero"]) == 0
            assert json.loads(capsys.readouterr().out)["passed"]


@pytest.mark.parametrize("name", ["prop26", "prop26_g"])
def test_prop26_derivative_off_zero(name):
    # locally constant off 0: the derivative and the difference quotients
    # on the sphere of x are 0, on a branch sphere and off one
    p = 3
    e = build_entry(name, p)
    points = [PadicNumber.from_rational(1, p, p)] + [
        PadicNumber.from_int(x, p) for x in (p ** 4, 2 * p ** 4 + p ** 7,
                                             p ** 3, 1, 7)]
    for x in points:
        assert e.derivative(x).is_exact_zero
        v = abs(x.valuation)
        h = PadicNumber.from_int(p ** (v * v + v + 2), p)
        assert ((e.function(x + h) - e.function(x)) / h).is_zero_like
    with pytest.raises(InsufficientPrecision):
        e.derivative(PadicNumber.bounded_zero(p, 9))
    # f reads only v(x), so a step of valuation v + 1 leaves the quotient 0
    # at every valuation v below the precision, on each branch sphere too
    for q in (2, 3, 5, 7):
        f = build_entry(name, q).function
        for v in range(-3, DEFAULT_PRECISION):
            x = PadicNumber.from_unit(q, v, 1 + q * (q - 1),
                                      DEFAULT_PRECISION + 1)
            h = PadicNumber.from_rational(q ** max(v + 1, 0),
                                          q ** max(-v - 1, 0), q)
            assert phi_r(f, (x + h, x)).is_zero_like, (q, v)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("name", ["prop26", "prop26_g"])
def test_prop26_derivative_at_a_bounded_zero_is_unknown(name, p):
    # a bounded zero may be 0, where there is no derivative, or a point
    # like p**(k+2) that refines it, where the derivative is 0
    e = build_entry(name, p)
    with pytest.raises(DomainError, match="not differentiable at 0"):
        e.derivative(PadicNumber.zero(p, 5))
    for k in (-2, 0, 5, 70):
        with pytest.raises(InsufficientPrecision, match="may be 0"):
            e.derivative(PadicNumber.bounded_zero(p, k))
        refinement = PadicNumber.from_unit(p, k + 2, 1, k + 4)
        assert refinement.agrees_with(PadicNumber.bounded_zero(p, k))
        assert e.derivative(refinement).is_exact_zero


def test_prop26_respects_index_set():
    p = 3
    N = IndexSet(2, 0)  # contains 1, 3, 5, ...
    e = prop26_fN(N, p)
    assert e.function(PadicNumber.from_int(p ** 9, p)).abs_value() \
        == Fraction(1, p ** 3)  # n = 3 in N
    assert e.function(PadicNumber.from_int(p ** 4, p)).is_exact_zero  # n = 2


# --- digit-pair truncation ---------------------------------------------------

def test_thm2_f_cases():
    p = 3
    e = thm2_f(p)
    f = e.function
    assert f(PadicNumber.zero(p)).is_exact_zero
    # first pair already zero: x = 9 has digits (0, 0, 1)
    assert f(PadicNumber.from_int(9, p, 32)).is_exact_zero
    # zero pair at pair 1: digits 1,1,0,0,...
    x = PadicNumber.from_int(1 + 3, p, 32)
    assert f(x).agrees_with(PadicNumber.from_int(4, p))
    # all-ones never hits a zero pair: f agrees with the identity
    g = PadicNumber.from_rational(1, 1 - p, p, 32)
    assert f(g).agrees_with(g.truncated(32))
    with pytest.raises(DomainError):
        f(PadicNumber.from_rational(1, p, p))


def test_thm2_f_claims():
    e = build_entry("thm2_f", 3)
    assert e.run_claim("continuity-modulus", per_depth=8).passed
    assert e.run_claim("deviation", steps=8).passed


def test_thm2_f_claims_refuse_short_precision():
    # the first deviation step reads 13 digits of a point with
    # 2*(precision//2)
    with pytest.raises(InsufficientPrecision, match="needs 14 digits"):
        build_entry("thm2_f", 3, 13).run_claim("deviation")
    r = build_entry("thm2_f", 3, 14).run_claim("deviation")
    assert r.passed and r.details["steps"] == 1


def test_thm2_g_values_and_claim():
    p = 3
    e = thm2_g(p)
    g = e.function
    assert g(PadicNumber.zero(p)).is_exact_zero
    # not on any ball: leading digit 2
    assert g(PadicNumber.from_int(2 * p, p, 48)).is_exact_zero
    # on ball n = 2 with x' = 1: g = p^2 * f(1) = p^2
    x = PadicNumber.from_int(p ** 2 + p ** 3, p, 48)
    assert g(x).agrees_with(PadicNumber.from_int(p ** 2, p))
    assert e.run_claim("quotient-norm-one", limit=24).passed
    # x = p^2 mod p^3 or p^4 is on ball n = 2, but x' lacks its first
    # digit pair: g is known mod p^2 only
    for k in (3, 4):
        y = g(PadicNumber.from_unit(p, 2, 1, k))
        assert y.is_bounded_zero and y.abs_precision == 2
    assert g(PadicNumber.from_unit(p, 2, 1, 5)).is_exact_zero


def test_thm2_fN_restricts():
    p = 3
    N = IndexSet(2, 0)  # 1, 3, 5, ...
    e = build_entry("thm2_fN", p, family_size=2, member_bit=0)
    x2 = PadicNumber.from_int(p ** 2 + p ** 3, p, 48)  # n = 2 not in N
    assert e.function(x2).is_exact_zero
    x1 = PadicNumber.from_int(p + p ** 2, p, 48)       # n = 1 in N
    assert not e.function(x1).is_zero_like


# --- combinations and registry ----------------------------------------------

def test_linear_combination():
    p = 5
    e1 = build_entry("thm34i", p, member_bit=0)
    e2 = build_entry("thm34i", p, member_bit=1)
    c1 = PadicNumber.from_int(2, p)
    c2 = PadicNumber.from_int(3, p)
    comb = linear_combination([e1, e2], [c1, c2])
    # index 2 is in set bit-1 only (2 mod 8 = 010)
    x = PadicNumber.from_int(p ** 2, p, 64)
    assert comb.function(x).agrees_with(
        c2 * PadicNumber.from_int(p ** 4, p))


def test_linear_combination_is_the_degree_one_polynomial():
    p = 3
    one = PadicNumber.one(p, 64)
    two = PadicNumber.from_int(2, p)
    steps = [build_entry("thm34i", p, member_bit=b) for b in (0, 1)]
    comb = linear_combination(steps, [two, one])
    poly = poly_combine(steps, [Monomial(two, (1, 0)), Monomial(one, (0, 1))])
    for k in range(1, 8):
        x = PadicNumber.from_int(p ** k, p, 64)
        assert comb.function(x) == poly.function(x)
    with pytest.raises(DomainError):  # a zero-like coefficient is refused
        linear_combination(steps, [two, PadicNumber.bounded_zero(p, 8)])
    shells = [build_entry("thm16", p, beta=PadicNumber.from_int(b, p))
              for b in (1, 4)]
    comb = linear_combination(shells, [two, one])
    x = PadicNumber.from_rational(1, p ** 3, p, 64)
    want = two * shells[0].derivative(x) + shells[1].derivative(x)
    assert comb.derivative(x) == want
    with pytest.raises(DomainError):  # repeated shell exponents
        linear_combination([shells[0], shells[0]], [two, one])
    with pytest.raises(DomainError, match="one coefficient per entry"):
        linear_combination(steps, [two])


def test_linear_combination_keeps_the_digits_of_exact_one_terms():
    # a product with one(p, n) would cut the term to n relative digits
    p, n = 3, 16
    steps = [thm34i_fN(IndexSet(3, b), p, n) for b in (0, 1)]
    one = PadicNumber.one(p, n)
    comb = linear_combination(steps, [one, one], n)
    x = PadicNumber.from_int(p, p, n)  # index 1 is in the bit-0 set only
    want = steps[0].function(x)
    assert want.abs_precision == 2 * n and not want.is_zero_like
    assert comb.function(x) == want


def test_poly_combine_skips_exponent_zero_factors():
    # a factor v**0 taken as a product with one(p, abs_precision + 4)
    # would cut the term to the few digits of v
    p = 3
    coarse = ZooEntry("coarse", p, PadicFunction(
        lambda x: PadicNumber.from_unit(p, 0, 1, 2), p, 64))
    fine = ZooEntry("fine", p, PadicFunction(
        lambda x: PadicNumber.from_unit(p, 0, 2, 40), p, 64))
    two = PadicNumber.from_int(2, p)
    poly = poly_combine([coarse, fine], [Monomial(two, (0, 1))])
    x = PadicNumber.one(p)
    assert poly.function(x) == two * fine.function(x)
    assert poly.function(x).abs_precision == 40


def test_poly_combine_calls_only_the_entries_it_uses():
    # thm2_g is defined on Z_p only, but no monomial raises it to a power,
    # in either place: the combination lives on Q_p
    p = 3
    thm34i, thm2_g = build_entry("thm34i", p), build_entry("thm2_g", p)
    two = PadicNumber.from_int(2, p)
    x = PadicNumber.from_rational(1, 3, p)
    for entries, exponents in (([thm34i, thm2_g], (1, 0)),
                               ([thm2_g, thm34i], (0, 1))):
        poly = poly_combine(entries, [Monomial(two, exponents)])
        assert poly.function(x) == two * thm34i.function(x)


def test_registry_complete():
    for name in ENTRY_NAMES:
        e = build_entry(name, 3)
        assert e.name == name
        assert e.prime == 3
        assert (e.beta is not None) == (name == "thm16")
        assert callable(e.function.evaluator)
    beta = PadicNumber.from_rational(1, 7, 3)
    assert build_entry("thm16", 3, beta=beta).beta is beta
    with pytest.raises(DomainError):
        build_entry("nope", 3)


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_entries_refuse_a_point_of_another_prime(name):
    # a gallery function knows its prime: a point of another prime is
    # refused before any of its digits is read
    p, q = 5, 3
    e = build_entry(name, p)
    poly = poly_combine([e, build_entry("thm34i", p)],
                        [Monomial(PadicNumber.one(p), (1, 1))])
    fns = [f for f in (e.function, e.derivative, poly.function) if f]
    assert all(f.prime == e.prime == p for f in fns)
    for x in (PadicNumber.from_int(9, q), PadicNumber.from_rational(1, 3, q),
              PadicNumber.from_unit(q, 1, 2, 6), PadicNumber.zero(q),
              PadicNumber.bounded_zero(q, 4)):
        for f in fns:
            with pytest.raises(DomainError,
                               match=f"prime mismatch: {q} vs {p}"):
                f(x)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_exact_points_are_read_at_the_entry_precision(name, p):
    # a rational known mod p**k, k below the entry's precision, gets the
    # answer of the same rational known mod p**precision
    n = 24
    e = build_entry(name, p, n)
    for num, den in ((p, 1), (p + p ** 3, 1), (p ** 4, 1 - p), (1, 1 - p),
                     (1 + p * p, p), (7, 3 * p + 1), (p ** 9 + p ** 12, 1)):
        want = PadicNumber.from_rational(num, den, p, n)
        for k in (1, 2, 7, n - 1):
            x = PadicNumber.from_rational(num, den, p, k)
            for f in filter(None, (e.function, e.derivative)):
                assert _outcome(f, x) == _outcome(f, want), (x.render(), k)


def test_poly_combine_composes_only_shells():
    p = 3
    one = PadicNumber.one(p, 64)
    mono = [Monomial(one, (1, 1))]
    shells = [build_entry("thm16", p, 64, beta=PadicNumber.from_int(b, p))
              for b in (1, 4)]
    poly = poly_combine(shells, mono, 64)
    assert sorted(poly.claims) == ["derivative-norm-growth"]
    assert poly.derivative is not None and poly.prime == p
    steps = [build_entry("thm34i", p, member_bit=b) for b in (0, 1)]
    poly = poly_combine(steps, mono, 64)
    assert poly.claims == {} and poly.derivative is None


@pytest.mark.parametrize("name", ["cor15", "cor15_g"])
def test_poly_combine_gives_pinched_entries_no_shell_derivative(name):
    # on the pinched ball around 3^4 the shell derivative would read 0,
    # but E^2 + E has difference quotients of norm 9 there
    p = 3
    one = PadicNumber.one(p, 64)
    poly = poly_combine([build_entry(name, p)],
                        [Monomial(one, (2,)), Monomial(one, (1,))], 64)
    x = PadicNumber.from_int(p ** 4 + p ** 5, p, 64)
    h = PadicNumber.from_int(p ** 40, p, 64)
    q = (poly.function(x + h) - poly.function(x)) / h
    assert q.abs_value() == 9
    assert poly.derivative is None and poly.claims == {}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_poly_combine_values_are_products_of_entry_values(p):
    # a monomial of degree 2 or 3 is its coefficient times its entries'
    # values, each multiplied in as often as its exponent says
    one, two = PadicNumber.one(p), PadicNumber.from_int(2, p)
    steps = [thm34i_fN(IndexSet(3, b), p) for b in (0, 1)]
    shells = [thm16_fbeta(PadicNumber.from_int(b, p), p) for b in (1, 4)]
    cases = [
        # indices 3 and 7 lie in both sets, 1 and 5 in the first, 2 and 6 in
        # the second
        (steps, [PadicNumber.from_int(p ** n, p) for n in range(1, 8)]),
        # shells n = 0..3, with offsets y = 0 and y = p
        (shells, [PadicNumber.from_rational(1 + t, p ** n, p)
                  for n in range(4) for t in (0, p ** (n + 1))]),
    ]
    polys = [[Monomial(c, e)] for c in (one, two)
             for e in [(2, 0), (0, 3), (1, 1), (2, 1), (1, 2), (3, 0)]]
    polys.append([Monomial(two, (2, 0)), Monomial(one, (1, 2)),
                  Monomial(two, (0, 3))])
    nonzero = 0
    for entries, points in cases:
        for monomials in polys:
            poly = poly_combine(entries, monomials)
            for x in points:
                want = PadicNumber.zero(p)
                for m in monomials:
                    term = m.coefficient
                    for e, k in zip(entries, m.exponents):
                        for _ in range(k):
                            term = term * e.function(x)
                    want = want + term
                nonzero += not want.is_zero_like
                assert poly.function(x).agrees_with(want), (monomials, x)
    assert nonzero > 100


SCALED_CLAIMS = [("thm34i", strict_fail), ("thm34i", derivative_at_zero),
                 ("thm34ii", order2_witness), ("thm2_fN", quotient_norm_one)]


@pytest.mark.parametrize("entry,claim", SCALED_CLAIMS,
                         ids=[c.__name__ for _, c in SCALED_CLAIMS])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_witness_claims_hold_on_combinations_along_a_cell(k, p, entry,
                                                          claim):
    # on the cell where only member 1 holds, c_1 f_1 + ... + c_k f_k is
    # c_1 f_1 at every witness, so the claim passes at scale c_1; unscaled
    # it fails whenever |c_1| < 1
    draw = Stream(10 * k + p)
    units = [PadicNumber.from_int(1 + draw.below(p - 1)
                                  + p * draw.below(p ** 4), p)
             for _ in range(k)]
    entries = [build_entry(entry, p, family_size=k, member_bit=i)
               for i in range(k)]
    members = cell(generate_family(k), [1] + [0] * (k - 1)).members
    for c1 in (units[0], PadicNumber.from_int(p, p) * units[0],
               PadicNumber.from_int(p ** 2, p)):
        comb = linear_combination(entries, [c1] + units[1:]).function
        passed, details = claim(comb, members, c1, DEFAULT_PRECISION)
        assert passed and details["steps"] >= 1, c1
        if c1.abs_value() < 1:
            assert not claim(comb, members, PadicNumber.one(p),
                             DEFAULT_PRECISION)[0], c1


def test_unknown_claim_rejected():
    e = build_entry("thm34i", 5)
    with pytest.raises(DomainError):
        e.run_claim("no-such-claim")


# --- kernels against per-digit references -------------------------------------

def _thm34ii_by_digit(N, p, precision, x):
    """thm34ii's value read one digit(n) at a time."""
    if x.exact is not None and x.abs_precision < precision:
        x = x.at_precision(precision)
    if x.is_exact_zero:
        return PadicNumber.zero(p, 2 * precision)
    hi = x.abs_precision
    if hi <= 0:
        raise InsufficientPrecision("no nonnegative digits known")
    if x.is_bounded_zero:
        return PadicNumber.bounded_zero(p, 2 * hi)
    total = sum(x.digit(n) * p ** (2 * n)
                for n in range(max(0, x.valuation), hi) if n in N)
    if total == 0:
        return PadicNumber.bounded_zero(p, 2 * hi)
    return PadicNumber.from_int(total, p, 2 * hi).truncated(2 * hi)


def _thm34ii_digit_sum(N, p, precision):
    """thm34ii's evaluate before the limb kernel: it splits x into all its
    digits and sums the member digits."""

    @functools.lru_cache(maxsize=64)
    def terms(v: int, hi: int) -> tuple:
        """(index into the digits of a value with valuation v, p**2n) for
        each n in N within [max(0, v), hi)."""
        return tuple((n - v, p ** (2 * n))
                     for n in range(max(0, v), hi) if n in N)

    def evaluate(x: PadicNumber) -> PadicNumber:
        x = _expand(x, precision)
        if x.is_exact_zero:
            return PadicNumber.zero(p, 2 * precision)
        if x.is_bounded_zero:
            if x.abs_precision < 1:
                raise InsufficientPrecision("no nonnegative digits known")
            return PadicNumber.bounded_zero(p, 2 * x.abs_precision)
        hi = x.abs_precision
        if hi <= 0:
            raise InsufficientPrecision("no nonnegative digits known")
        digits = x.digits
        total = sum(digits[i] * w for i, w in terms(x.valuation, hi))
        if total == 0:
            return PadicNumber.bounded_zero(p, 2 * hi)
        return PadicNumber.from_unit(p, 0, total, 2 * hi)

    return evaluate


def _thm2_f_by_digit(p, precision, x):
    """thm2_f's value read one digit(n) at a time."""
    if x.exact is not None and x.abs_precision < precision:
        x = x.at_precision(precision)
    if x.is_exact_zero:
        return PadicNumber.zero(p, precision)
    if not x.is_zero_like and x.valuation < 0:
        raise DomainError("defined on Z_p only")
    if x.is_bounded_zero:
        if x.abs_precision >= 2:
            return PadicNumber.zero(p, precision)
        raise InsufficientPrecision("first digit pair unknown")
    pairs = x.abs_precision // 2
    if pairs < 1:
        raise InsufficientPrecision("first digit pair unknown")
    for i in range(pairs):
        if x.digit(2 * i) == 0 and x.digit(2 * i + 1) == 0:
            total = sum(x.digit(j) * p ** j for j in range(2 * i))
            return PadicNumber.from_int(total, p, precision)
    return x.truncated(2 * pairs)


def _outcome(f, x):
    """All fields of f(x), or the class of the error it raises."""
    try:
        y = f(x)
    except (DomainError, InsufficientPrecision) as exc:
        return type(exc)
    return (y.valuation, y.unit, y.abs_precision, y.exact)


def _kernel_inputs(rng, p, n):
    """Truncated points with valuations -2..3 (some with zero digit pairs),
    bounded zeros and exact rationals, at precision about n."""
    xs = [PadicNumber.bounded_zero(p, m) for m in (1, 2, 5, n)]
    xs += [PadicNumber.from_rational(a, b, p, n) for a, b in
           ((1, 1 - p), (p ** 3, 1 - p), (1 + p * p, 1), (7, 3 * p + 1),
            (0, 1), (1, p))]
    for v in (-2, 0, 0, 1, 3):
        for _ in range(4):
            digits = list(rng.nonzero(p, n, (v, v + 1)).digits)
            z = rng.below(n // 2)  # plant a zero pair half of the time
            if rng.below(2):
                digits[2 * z: 2 * z + 2] = [0, 0]
                digits[0] = digits[0] or 1
            xs.append(PadicNumber.from_digits(p, v, digits, v + n))
    return xs


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernels_match_per_digit_reference(p, n):
    rng = Stream(1000 * p + n)
    N = IndexSet(3, 0)
    g = thm34ii_gN(N, p, n).function
    f = thm2_f(p, n).function
    for x in _kernel_inputs(rng, p, n):
        assert _outcome(g, x) == _outcome(
            lambda x: _thm34ii_by_digit(N, p, n, x), x), x.render()
        assert _outcome(f, x) == _outcome(
            lambda x: _thm2_f_by_digit(p, n, x), x), x.render()
    # an exact zero reads no digit: thm34i's value is the exact zero known
    # mod p**2n, thm2_g's the one known mod p**n, below and above n
    for zero in (PadicNumber.zero(p, 1), PadicNumber.zero(p, 3 * n)):
        assert _outcome(thm34i_fN(N, p, n).function, zero) \
            == (2 * n, 0, 2 * n, 0)
        assert _outcome(thm2_g(p, n).function, zero) == (n, 0, n, 0)


def _chunk_digits(p: int) -> int:
    """The digits per chunk that ``zoo._spread_table`` uses."""
    _, chunk, _ = zoo._spread_table(IndexSet(3, 0), p, 0, 1)
    return ord_int(chunk, p)


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 17, 101, 257, 2 ** 61 - 1]),
       N=st.sampled_from([IndexSet(3, 0), IndexSet(3, 1),
                          IndexSet(2, 1)]),
       data=st.data())
def test_spread_matches_digit_sum(p, N, data):
    # the kernel on its own, against a digit-by-digit sum of a_n p**2n over
    # a window [low, hi) that may start past 0 and whose width may end
    # next to a chunk edge; past p = 256 core keeps no digit tables
    low = data.draw(st.integers(0, 40), label="low")
    edge = _chunk_digits(p)
    top = 1100 - low
    width = data.draw(st.one_of(
        st.integers(1, top),
        st.builds(lambda j, d: min(top, max(1, edge * j + d)),
                  st.integers(1, top // edge), st.sampled_from([-1, 0, 1]))),
        label="width")
    u = data.draw(st.one_of(st.integers(0, p ** width - 1),
                            st.just(p ** width - 1)), label="u")
    want, r = 0, u
    for n in range(low, low + width):
        r, d = divmod(r, p)
        if n in N:
            want += d * p ** (2 * n)
    assert zoo._spread(u, zoo._spread_table(N, p, low, low + width)) == want


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 101]),
       N=st.sampled_from([IndexSet(3, 0), IndexSet(2, 1)]),
       data=st.data())
def test_thm34ii_kernel_matches_digit_sum(p, N, data):
    k = _chunk_digits(p)

    def width(label):
        # 1..1100 digits, or one next to a chunk edge k*j
        return data.draw(st.one_of(
            st.integers(1, 1100),
            st.builds(lambda j, d: min(1100, max(1, k * j + d)),
                      st.integers(1, 1100 // k),
                      st.sampled_from([-1, 0, 1]))), label=label)

    precision = width("precision")
    v = data.draw(st.integers(-3, 3), label="valuation")
    kind = data.draw(st.sampled_from(["truncated", "exact", "bounded zero"]),
                     label="kind")
    if kind == "bounded zero":
        x = PadicNumber.bounded_zero(p, data.draw(st.integers(0, 40),
                                                  label="zeros"))
    elif kind == "exact":
        num = data.draw(st.integers(1, 10 ** 9).filter(lambda a: a % p),
                        label="num")
        den = data.draw(st.integers(1, 10 ** 4).filter(lambda b: b % p),
                        label="den")
        num, den = (num * p ** v, den) if v >= 0 else (num, den * p ** -v)
        x = PadicNumber.from_rational(num, den, p, data.draw(
            st.integers(1, 40), label="exact precision"))
    else:
        # the digits from max(0, v) upward end at or next to a chunk edge
        hi = max(0, v) + width("digits")
        unit = data.draw(st.integers(0, p ** (hi - v) - 1), label="unit")
        x = PadicNumber.from_unit(p, v, unit, hi)
    got = thm34ii_gN(N, p, precision).function
    assert _outcome(got, x) == _outcome(_thm34ii_digit_sum(N, p, precision),
                                        x)


# --- every seeded claim, over seeds -------------------------------------------

@settings(max_examples=10, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("precision", [1, 2, 22, 23, 64, 130])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_depth_pairs_keep_their_depths(p, precision, data):
    # every depth once, then a drawn schedule
    schedule = list(range(precision + 1)) + data.draw(
        st.lists(st.integers(0, precision), max_size=20), label="depths")
    seed = data.draw(st.integers(0, 2 ** 64), label="seed")
    got = list(depth_pairs(Stream(seed), p, precision, iter(schedule)))
    assert got == list(depth_pairs(Stream(seed), p, precision, schedule))
    assert [k for k, _, _ in got] == schedule
    for k, x, y in got:
        assert 0 <= x < p ** precision and 0 <= y < p ** precision
        if k < precision:
            assert ord_int(y - x, p) == k, (k, x, y)
        else:
            assert y == x

SAMPLED_CLAIMS = [
    ("thm34ii", "contraction", {"per_depth": 2}),
    ("thm16", "zero-on-pzp", {"samples": 40}),
    ("prop26", "derivative-zero", {"samples": 100}),
    ("prop26_g", "derivative-zero", {"samples": 100}),
    ("thm2_f", "continuity-modulus", {"per_depth": 2}),
    ("thm2_f", "deviation", {"steps": 6}),
]


def test_sampled_claims_list_is_complete():
    seeded = set()
    for name in ENTRY_NAMES:
        for claim, fn in build_entry(name, 3).claims.items():
            if "seed" in inspect.signature(fn).parameters:
                seeded.add((name, claim))
    assert seeded == {(e, c) for e, c, _ in SAMPLED_CLAIMS}


# seeds as large as the benchmark's, whose verify ops draw theirs with
# randrange(2 ** 31): the first draws of random.Random(1), (2) and (3)
BENCH_SEEDS = (577090037, 242886303, 1022050301)


@pytest.mark.parametrize("entry,claim,size", SAMPLED_CLAIMS + [
    pytest.param(e, c, None, id=f"{e}-{c}-cli") for e, c, _ in SAMPLED_CLAIMS])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_sampled_claims_pass_for_seeds(p, entry, claim, size, capsys):
    if size is None:
        # the default sizes through cli.main, which the benchmark counts as
        # a failed op on "passed": false
        for seed in BENCH_SEEDS:
            assert main(["--prime", str(p), "--seed", str(seed), "verify",
                         entry, claim]) == 0, seed
            assert json.loads(capsys.readouterr().out)["passed"] is True, seed
        return
    e = build_entry(entry, p)
    for seed in range(1, 6):
        assert e.run_claim(claim, seed=seed, **size).passed, seed


@pytest.mark.parametrize("entry,claim,size", SAMPLED_CLAIMS)
def test_sampled_claims_fail_on_no_draws(entry, claim, size):
    e = build_entry(entry, 3)
    assert not e.run_claim(claim, **{k: 0 for k in size}).passed


def _modulus_fraction(claim, evaluate, p, precision, omega, first,
                      per_depth, seed):
    """A modulus claim in Fraction norms: |f(x) - f(y)| <= p**-omega(k) for
    y = x mod p**k, with f(y) known to omega(k) digits, over per_depth
    draws x and the depths first..precision - 1."""
    draw, depths = Stream(seed), range(first, precision)
    for _ in range(per_depth):
        x = draw.zp(p, precision)
        fx = evaluate(x)
        for k in depths:
            fy = evaluate(x.truncated(k))
            if fy.abs_precision < omega(k) \
                    or (fx - fy).norm_upper() > Fraction(p) ** -omega(k):
                return ClaimResult(claim, False, {"k": k, "x": x.render()})
    return ClaimResult(claim, per_depth * len(depths) > 0, {
        "per_depth": per_depth, "depths": len(depths)})


def _contraction_fraction(evaluate, p, precision, per_depth, seed):
    """thm34ii's contraction |g(x) - g(y)| <= |x - y|**2 at depths 1 up."""
    return _modulus_fraction("contraction", evaluate, p, precision,
                             lambda k: 2 * k, 1, per_depth, seed)


def _continuity_modulus_fraction(evaluate, p, precision, per_depth, seed):
    """thm2_f's modulus |f(x) - f(y)| <= p**-2m for x = y mod p**2m, at
    depths 2 up."""
    return _modulus_fraction("continuity-modulus", evaluate, p, precision,
                             lambda k: k - k % 2, 2, per_depth, seed)


def _assert_claims_match_references(p, precision, per_depth, seeds,
                                    sets=(IndexSet(3, 0),)):
    """Each whole ClaimResult equals the one its Fraction reference gives on
    the per-digit reference functions."""
    for N in sets:
        g = thm34ii_gN(N, p, precision)
        g_ref = _thm34ii_digit_sum(N, p, precision)
        for seed in seeds:
            assert g.run_claim("contraction", per_depth=per_depth,
                               seed=seed) \
                == _contraction_fraction(g_ref, p, precision, per_depth,
                                         seed), (N, seed)
    f = thm2_f(p, precision)
    for seed in seeds:
        assert f.run_claim("continuity-modulus", per_depth=per_depth,
                           seed=seed) \
            == _continuity_modulus_fraction(
                lambda x: _thm2_f_by_digit(p, precision, x), p, precision,
                per_depth, seed), seed


@pytest.mark.parametrize("seed", [1, 150])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_sampled_claims_match_fraction_references(p, seed):
    # odd precisions (2 (precision // 2) < precision), limb edges (k = 31 at
    # p = 2, 3 and k = 20 at p = 5, 7) and draws of more than one sha256
    # block (p**130 at p = 101), with one draw and with none
    for precision in (22, 23, 31, 32, 62, 63, 130):
        for per_depth in (0, 1):
            _assert_claims_match_references(
                p, precision, per_depth, [seed],
                sets=(IndexSet(3, 0), IndexSet(2, 1)))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sampled_claims_match_fraction_references_at_full_size(p):
    _assert_claims_match_references(p, DEFAULT_PRECISION, 32, [100 + p])


def test_sampled_claims_report_the_reference_failure(monkeypatch):
    # neither claim fails on a correct entry: a kernel that perturbs the
    # output must make both fail on the point the reference finds
    p, n = 3, DEFAULT_PRECISION
    spread, first_zero_pair = zoo._spread, zoo._first_zero_pair

    def spread_digit_2_into_1(u, table):
        # digit 1 of a spread is always 0; copy digit 2 there
        s = spread(u, table)
        return s + s // p ** 2 % p * p

    def one_pair_early(r, p, pairs):
        # truncate one pair before the first zero pair
        i = first_zero_pair(r, p, pairs)
        return i - 1 if i else i

    monkeypatch.setattr(zoo, "_spread", spread_digit_2_into_1)
    g = thm34ii_gN(IndexSet(3, 0), p, n)
    got = g.run_claim("contraction", seed=7)
    assert not got.passed and set(got.details) == {"k", "x"}
    assert got == _contraction_fraction(g.function, p, n, 32, 7)
    monkeypatch.setattr(zoo, "_first_zero_pair", one_pair_early)
    f = thm2_f(p, n)
    got = f.run_claim("continuity-modulus", seed=7)
    assert not got.passed and set(got.details) == {"k", "x"}
    assert got == _continuity_modulus_fraction(f.function, p, n, 32, 7)


def _deep_digit_mutant(spread_table, first):
    """``_spread_table`` with the weight p**2b of each chunk that starts at
    digit ``first`` or beyond cut to p**(2b - 1), or to 0 where b = 0."""

    def mutant(N, p, low, hi):
        scale, chunk, chunks = spread_table(N, p, low, hi)
        return scale, chunk, tuple(
            (skip, t, w2 // p if low + ord_int(w2, p) // 2 >= first else w2)
            for skip, t, w2 in chunks)

    return mutant


@pytest.mark.parametrize("first", [16, 48])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_contraction_fails_on_a_kernel_broken_past_a_deep_digit(
        monkeypatch, p, first):
    # at its default size the claim reads 32 points at each depth up to 63;
    # 10 000 uniform pairs reach about depth 11, and passed both mutants
    monkeypatch.setattr(zoo, "_spread_table",
                        _deep_digit_mutant(zoo._spread_table, first))
    got = build_entry("thm34ii", p).run_claim("contraction")
    assert not got.passed and set(got.details) == {"k", "x"}


def _evaluator_mutant(padic_function, builder, change):
    """``PadicFunction`` that wraps the evaluator of ``builder``, as it is
    built, so that its answer y at x becomes change(x, y)."""

    def build(evaluator, *args, **kwargs):
        def mutant(x):
            return change(x, evaluator(x))

        wrap = evaluator.__qualname__ == f"{builder}.<locals>.evaluate"
        return padic_function(mutant if wrap else evaluator, *args, **kwargs)

    return build


def _sphere_mutant(padic_function):
    """``prop26_fN``'s value p**n on each sphere |x| = p**-(n^2) with
    n >= 3 becomes p**n (1 + x): a derivative p**n there, where it is 0."""
    return _evaluator_mutant(
        padic_function, "prop26_fN",
        lambda x, y: y if y.is_zero_like or x.valuation < 9 else y + y * x)


def _deepest_digit_mutant(x, y):
    """thm34ii's answer plus p times the deepest known digit of x."""
    p = x.prime
    return y + PadicNumber.from_int(p * x.digit(x.abs_precision - 1), p,
                                    y.abs_precision)


def _last_digit_mutant(x, y):
    """thm2_f's answer where no digit pair is zero, plus p times its own
    last known digit; the exact answers stay."""
    p = x.prime
    if y.exact is not None:
        return y
    return y + PadicNumber.from_int(p * y.digit(y.abs_precision - 1), p,
                                    y.abs_precision)


@pytest.mark.parametrize("builder,name,claim,change", [
    ("thm34ii_gN", "thm34ii", "contraction", _deepest_digit_mutant),
    ("thm2_f", "thm2_f", "continuity-modulus", _last_digit_mutant)],
    ids=["thm34ii", "thm2_f"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_modulus_claims_fail_on_an_evaluator_mutant(monkeypatch, p, builder,
                                                    name, claim, change):
    # each mutant keeps the answer's precision and moves its digit 1 by a
    # digit that a refinement of x may change
    monkeypatch.setattr(zoo, "PadicFunction",
                        _evaluator_mutant(zoo.PadicFunction, builder, change))
    got = build_entry(name, p).run_claim(claim)
    assert not got.passed and set(got.details) == {"k", "x"}


@pytest.mark.parametrize("name", ["prop26", "prop26_g"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_derivative_zero_fails_on_a_sphere_mutant(monkeypatch, p, name):
    # the mutant keeps every norm at the witness points p**(n^2); draws at
    # valuation -4..4 alone never reach sphere 3, at valuation 9
    monkeypatch.setattr(zoo, "PadicFunction",
                        _sphere_mutant(zoo.PadicFunction))
    e = build_entry(name, p)
    x = PadicNumber.from_unit(p, 9, 1, 80)
    assert e.function(x).exact is None
    got = e.run_claim("derivative-zero")
    assert not got.passed and set(got.details) == {"x"}


def test_claims_refuse_bad_sizes():
    # every integer size at -1 raises DomainError; at 0 the claim fails,
    # except threshold, which must be positive
    p = 3
    one = PadicNumber.one(p, 64)
    shells = [thm16_fbeta(PadicNumber.from_int(b, p, 64), p, 64)
              for b in (1, 4)]
    poly = poly_combine(shells, [Monomial(one, (1, 1))], 64)
    sizes = []
    for e in [build_entry(name, p) for name in ENTRY_NAMES] + [poly]:
        for claim, fn in e.claims.items():
            sizes += [(e, claim, key) for key, param
                      in inspect.signature(fn).parameters.items()
                      if key != "seed" and isinstance(param.default, int)]
    assert len(sizes) == 21
    for e, claim, key in sizes:
        with pytest.raises(DomainError):
            e.run_claim(claim, **{key: -1})
        if key == "threshold":
            with pytest.raises(DomainError):
                e.run_claim(claim, **{key: 0})
        else:
            assert not e.run_claim(claim, **{key: 0}).passed, (e.name, key)


# --- refining the precision never contradicts -----------------------------------

@settings(max_examples=12, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_refinement_agrees_or_refuses(name, p, data):
    n = data.draw(st.integers(8, 24), label="n")
    k = data.draw(st.integers(1, 16), label="k")
    v = data.draw(st.integers(-2, 4), label="valuation")
    if data.draw(st.booleans(), label="rational"):
        num = data.draw(st.integers(-10 ** 6, 10 ** 6).filter(
            lambda a: a % p), label="num")
        den = data.draw(st.integers(1, 10 ** 4).filter(
            lambda b: b % p), label="den")
        num, den = (num * p ** v, den) if v >= 0 else (num, den * p ** -v)
        x = PadicNumber.from_rational(num, den, p, n)
    else:
        m = data.draw(st.integers(1, 40), label="digits")
        unit = data.draw(st.integers(0, p ** m - 1), label="unit")
        x = PadicNumber.from_unit(p, v, unit, v + m)
    # the analytic entries also run the non-terminating binomial series
    beta = data.draw(st.sampled_from([None, (1, 7), (-2, 3 * p + 1)]),
                     label="beta")

    def entry(precision):
        b = None if beta is None else PadicNumber.from_rational(
            *beta, p, precision)
        return build_entry(name, p, precision, beta=b).function

    low, high = _outcome(entry(n), x), _outcome(entry(n + k), x)
    if InsufficientPrecision in (low, high):
        return
    if DomainError in (low, high):
        assert low == high == DomainError
        return
    _assert_same_digits(PadicNumber(p, *low), PadicNumber(p, *high),
                        x.render())


def _assert_same_digits(a: PadicNumber, b: PadicNumber, context) -> None:
    """Every digit both values give, also digits an exact-tagged value
    re-expands beyond its window, is the same digit."""
    lo = min([y.valuation for y in (a, b) if not y.is_zero_like] + [0])
    for i in range(lo, max(a.abs_precision, b.abs_precision)):
        try:
            da, db = a.digit(i), b.digit(i)
        except InsufficientPrecision:
            return
        assert da == db, (i, context, a.render(), b.render())


@functools.lru_cache(maxsize=None)
def _registered(name: str, p: int) -> ZooEntry:
    return build_entry(name, p)


def _unit(draw, p: int, digits: int) -> int:
    """A p-adic unit below p**digits."""
    return draw(st.integers(1, p - 1)) + p * draw(
        st.integers(0, p ** (digits - 1) - 1))


@st.composite
def _refined_pairs(draw, p: int):
    """(x, x') with x' a refinement of x: a truncated point and more of its
    digits, a bounded zero and any point it may stand for, or a truncated
    exact rational and the rational itself."""
    kind = draw(st.sampled_from(["digits", "bounded zero", "exact"]))
    more = draw(st.integers(1, 30))
    if kind == "bounded zero":
        k = draw(st.integers(-2, 8))
        w = draw(st.integers(k, k + more))
        unit = draw(st.integers(0, p ** (k + more - w + 1) - 1))
        return (PadicNumber.bounded_zero(p, k),
                PadicNumber.from_unit(p, w, unit, k + more + 1))
    v, n = draw(st.integers(-2, 6)), draw(st.integers(1, 30))
    if kind == "exact":
        num, den = _unit(draw, p, 12), _unit(draw, p, 8)
        num, den = (num * p ** v, den) if v >= 0 else (num, den * p ** -v)
        x = PadicNumber.from_rational(num, den, p, v + n)
        return x.truncated(v + n), x
    unit = _unit(draw, p, n) + p ** n * draw(st.integers(0, p ** more - 1))
    return (PadicNumber.from_unit(p, v, unit, v + n),
            PadicNumber.from_unit(p, v, unit, v + n + more))


@settings(max_examples=250, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_input_refinement_agrees_or_refuses(p, data):
    # f(x) and f(x') for a refinement x' of x agree on every digit both
    # give, or f(x) is refused for precision, or both lie off the domain;
    # over every entry and over two- and three-entry polynomials of
    # degree <= 2
    f = _registered(data.draw(st.sampled_from(ENTRY_NAMES)), p)
    if data.draw(st.booleans(), label="polynomial"):
        k = data.draw(st.integers(2, 3), label="members")
        members = [f] + [_registered(data.draw(st.sampled_from(ENTRY_NAMES)),
                                     p) for _ in range(k - 1)]
        exps = data.draw(st.sets(st.sampled_from(
            [e for e in product(range(3), repeat=k) if 1 <= sum(e) <= 2]),
            min_size=1, max_size=3), label="monomials")
        try:
            f = poly_combine(members, [
                Monomial(PadicNumber.from_int(_unit(data.draw, p, 3), p), e)
                for e in sorted(exps)])
        except DomainError:
            return  # equal aggregate shell exponents
    x, refined = data.draw(_refined_pairs(p))
    coarse, fine = _outcome(f.function, x), _outcome(f.function, refined)
    if coarse is InsufficientPrecision:
        return
    if DomainError in (coarse, fine):
        assert coarse == fine == DomainError, (x.render(), refined.render())
        return
    assert fine is not InsufficientPrecision, (x.render(), refined.render())
    _assert_same_digits(PadicNumber(p, *coarse), PadicNumber(p, *fine),
                        (x.render(), refined.render()))
