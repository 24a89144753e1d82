from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padiczoo.core import (
    DEFAULT_PRECISION,
    DomainError,
    InsufficientPrecision,
    PadicNumber,
    _from_exact,
    is_prime,
    ord_int,
    parse_padic,
    pow_one_plus,
)


def test_prime_certification():
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 67 - 1)


_PRIME_TAKING = {
    "zero": lambda p: PadicNumber.zero(p, 8),
    "one": lambda p: PadicNumber.one(p, 8),
    "bounded_zero": lambda p: PadicNumber.bounded_zero(p, 8),
    "from_int": lambda p: PadicNumber.from_int(2, p, 8),
    "from_rational": lambda p: PadicNumber.from_rational(1, 2, p, 8),
    "from_digits": lambda p: PadicNumber.from_digits(p, 0, [0], 8),
    "from_unit": lambda p: PadicNumber.from_unit(p, 0, 1, 8),
    "parse_padic": lambda p: parse_padic("1", p, 8),
}


@pytest.mark.parametrize("name", sorted(_PRIME_TAKING))
def test_every_constructor_refuses_a_composite(name):
    make = _PRIME_TAKING[name]
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
    bad = (0, 1, 4, 91, -7, 3215031751)
    is_prime.cache_clear()
    for _ in range(2):  # a cold cache, then one that make(3) filled
        for n in bad:
            with pytest.raises(DomainError):
                make(n)
        assert make(3).prime == 3
    assert is_prime.cache_info().hits > 0


def test_geometric_series_digits():
    # 1/(1-p) = 1 + p + p^2 + ... has every digit equal to 1
    x = PadicNumber.from_rational(1, 1 - 3, 3, 20)
    assert x.valuation == 0
    assert all(x.digit(i) == 1 for i in range(20))


def test_abs_value():
    assert PadicNumber.from_int(125, 5).abs_value() == Fraction(1, 125)
    assert PadicNumber.from_rational(1, 5, 5).abs_value() == 5
    assert PadicNumber.from_int(10, 3).abs_value() == 1
    assert PadicNumber.zero(3).abs_value() == 0
    with pytest.raises(InsufficientPrecision):
        PadicNumber.bounded_zero(3, 8).abs_value()


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), v=st.integers(-12, 12),
       rel=st.integers(1, 40), unit=st.integers(1, 10 ** 30),
       k=st.integers(1, 6), exact=st.booleans())
def test_pow_is_one_modular_power(p, v, rel, unit, k, exact):
    if unit % p == 0:
        unit += 1
    if exact:
        x = PadicNumber.from_rational(unit * p ** max(v, 0), p ** max(-v, 0),
                                      p, v + rel)
    else:
        x = PadicNumber.from_unit(p, v, unit, v + rel)
    product = x
    for _ in range(k - 1):
        product = product * x
    assert x ** k == product  # every field, the exact rational included
    assert x ** 1 == x
    # a loop from one(p, abs_precision + 4) cuts the digits of a value
    # with valuation below -4; the power keeps them
    loop = PadicNumber.one(p, x.abs_precision + 4)
    for _ in range(k):
        loop = loop * x
    if x.valuation >= -4:
        assert x ** k == loop
    else:
        assert (x ** k).agrees_with(loop)
        # one(p, n) keeps one digit when n < 1, so x with one digit ties
        assert (x ** k).abs_precision > loop.abs_precision or rel == 1


def test_pow_keeps_every_digit_and_zero_states():
    x = PadicNumber.from_unit(3, -6, 2, 10)
    y = x ** 2
    assert (y.valuation, y.unit, y.abs_precision) == (-12, 4, 4)
    b = PadicNumber.bounded_zero(5, 7)
    assert b ** 3 == PadicNumber.bounded_zero(5, 21)
    z = PadicNumber.zero(5, 9)
    assert z ** 4 is z
    for w in (x, b, z):
        one = w ** 0
        assert one.exact == 1 and one.unit == 1
    with pytest.raises(DomainError):
        x ** -1


def test_zero_states():
    z = PadicNumber.zero(5)
    b = PadicNumber.bounded_zero(5, 10)
    assert z.is_exact_zero and z.is_zero_like and not z.is_bounded_zero
    assert b.is_bounded_zero and b.is_zero_like and not b.is_exact_zero
    assert b.norm_upper() == Fraction(5) ** -10
    # exact zero absorbs addition exactly
    x = PadicNumber.from_int(7, 5)
    assert (x + z).exact == x.exact


def test_value_below_the_window():
    # 64 = 2^6 has no nonzero digit mod 2^6: an exact value widens the
    # window to its leading digit, a truncation is a bounded zero
    x = PadicNumber.from_int(64, 2, 6)
    assert (x.valuation, x.unit, x.abs_precision, x.exact) == (6, 1, 7, 64)
    assert PadicNumber.from_int(64, 2).at_precision(6) == x
    t = PadicNumber.from_int(64, 2).truncated(6)
    assert t.is_bounded_zero and t.abs_precision == 6
    b = PadicNumber.from_unit(3, 5, 2, 3)
    assert b.is_bounded_zero and b.abs_precision == 3


def test_precision_propagation_add_mul():
    p = 3
    x = PadicNumber.from_int(4, p, 10).truncated(10)
    y = PadicNumber.from_int(2, p, 6).truncated(6)
    assert (x + y).abs_precision == 6
    # mul: vx + vy + min(rel_x, rel_y)
    a = PadicNumber.from_int(9, p, 12).truncated(12)   # v=2, rel=10
    b = PadicNumber.from_int(3, p, 7).truncated(7)     # v=1, rel=6
    assert (a * b).valuation == 3
    assert (a * b).abs_precision == 3 + 6


def test_division_contracts():
    p = 3
    x = PadicNumber.from_int(5, p)
    with pytest.raises(DomainError):
        x / PadicNumber.zero(p)
    with pytest.raises(InsufficientPrecision):
        x / PadicNumber.bounded_zero(p, 8)
    assert (x / x).agrees_with(PadicNumber.one(p))


def test_mul_by_bounded_zero():
    p = 3
    b = PadicNumber.bounded_zero(p, 8)
    y = PadicNumber.from_int(9, p)  # valuation 2
    z = b * y
    assert z.is_bounded_zero and z.abs_precision == 10


def test_parse_render_roundtrip(rng):
    for p in (2, 3, 5):
        for _ in range(50):
            x = rng.nonzero(p, 16, (-3, 5))
            assert parse_padic(x.render(), p).render() == x.render()
    assert parse_padic("0", 5).is_exact_zero
    assert parse_padic("p^3", 2).abs_value() == Fraction(1, 8)
    assert parse_padic("1/3", 5).agrees_with(
        PadicNumber.from_rational(1, 3, 5))
    with pytest.raises(DomainError):
        parse_padic("spam", 5)


@pytest.mark.parametrize("text", [
    "1 2 * 3^0 (mod 5^2)",  # the modulus is not a power of p
    "1 2 * 5^0 (mod 3^2)",  # nor is the digit base
    "1 2 0 1 1 * 3^0 (mod 3^2)",  # digits up to 3^4, known only mod 3^2
    "1 * 3^2 (mod 3^2)",  # its one digit sits at the modulus
])
def test_parse_refuses_a_literal_its_modulus_does_not_cover(text):
    with pytest.raises(DomainError):
        parse_padic(text, 3)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_ultrametric(p, data):
    digs = st.lists(st.integers(0, p - 1), min_size=8, max_size=8)
    v1 = data.draw(st.integers(-3, 3))
    v2 = data.draw(st.integers(-3, 3))
    x = PadicNumber.from_digits(p, v1, [1] + data.draw(digs), v1 + 9)
    y = PadicNumber.from_digits(p, v2, [1] + data.draw(digs), v2 + 9)
    assert (x * y).abs_value() == x.abs_value() * y.abs_value()
    s = x + y
    bound = max(x.abs_value(), y.abs_value())
    assert s.norm_upper() <= bound
    if x.abs_value() != y.abs_value():
        assert s.abs_value() == bound


def test_digit_reexpansion():
    # exact values re-expand on demand beyond the presented window
    x = PadicNumber.from_rational(1, 1 - 5, 5, 8)
    wide = x.at_precision(40)
    assert all(wide.digit(i) == 1 for i in range(40))


def test_truncated_refines():
    x = PadicNumber.from_rational(22, 7, 3, 30)
    t = x.truncated(12)
    assert t.abs_precision == 12 and t.exact is None
    assert t.agrees_with(x)


def test_pow_integer_matches_rational():
    p = 5
    y = PadicNumber.from_int(5, p)
    two = PadicNumber.from_int(2, p)
    got = pow_one_plus(y, two, 20)
    assert got.agrees_with(PadicNumber.from_int(36, p, 20))


def test_pow_round_trip(rng):
    p = 3
    for _ in range(25):
        y = rng.zp(p, 20, min_valuation=1)
        if y.is_zero_like:
            continue
        alpha = rng.nonzero(p, 16, (0, 1))
        prod = pow_one_plus(y, alpha, 16) * pow_one_plus(
            y, PadicNumber.zero(p) - alpha, 16)
        d = prod - PadicNumber.one(p, 16)
        assert d.is_zero_like or d.valuation >= 14


def test_pow_rejects_bad_domain():
    p = 3
    unit = PadicNumber.from_int(2, p)
    with pytest.raises(DomainError):
        pow_one_plus(unit, unit)  # y must lie in pZ_p
    with pytest.raises(DomainError):
        pow_one_plus(PadicNumber.from_int(3, p),
                     PadicNumber.from_rational(1, 3, p))  # alpha not in Z_p
    with pytest.raises(InsufficientPrecision):
        # no digit of y is known, so y may lie outside pZ_p
        pow_one_plus(PadicNumber.bounded_zero(p, 0), unit)


def test_agrees_with_shared_precision():
    p = 3
    x = PadicNumber.from_int(10, p, 4)
    y = PadicNumber.from_int(10 + 81, p, 4)
    assert x.agrees_with(y)
    assert not x.agrees_with(PadicNumber.from_int(11, p, 4))


def test_pow_exact_only_when_series_terminates():
    p = 3
    y = PadicNumber.from_rational(p, 1 - p, p)
    seventh = PadicNumber.from_rational(1, 7, p)
    low = pow_one_plus(y, seventh, 16)
    assert low.exact is None
    with pytest.raises(InsufficientPrecision):
        low.digit(40)
    high = pow_one_plus(y, seventh, 64)
    assert [low.digit(i) for i in range(16)] == \
        [high.digit(i) for i in range(16)]
    # a terminating series is the value itself
    two = PadicNumber.from_int(2, p)
    assert pow_one_plus(y, two, 16).exact == (1 + y.exact) ** 2
    assert pow_one_plus(PadicNumber.zero(p), seventh, 16).exact == 1
    # an integer exponent beyond the precision leaves terms out
    assert pow_one_plus(y, PadicNumber.from_int(16, p), 16).exact is not None
    assert pow_one_plus(y, PadicNumber.from_int(17, p), 16).exact is None
    assert pow_one_plus(y, PadicNumber.from_int(40, p), 16).exact is None


def test_digits_match_digit_reads(rng):
    for p in (2, 3, 5, 101):
        for n in (1, 7, 31, 32, 33, 64, 130):
            x = rng.nonzero(p, n, (-3, 4))
            assert x.digits == tuple(
                x.digit(i) for i in range(x.valuation, x.abs_precision))


# -- pow_one_plus against the binomial series ---------------------------------

# pow_one_plus as it was before it took one modular power, kept verbatim as
# the reference: slow, but built from PadicNumber arithmetic alone
def _series_pow_one_plus(y: PadicNumber, alpha: PadicNumber,
                         abs_precision: int = DEFAULT_PRECISION) -> PadicNumber:
    """(1+y)**alpha for y in pZ_p and alpha in Z_p, via the binomial series.

    Term i has norm at most p**-i, so ``abs_precision`` terms suffice.  The
    running-product binomial coefficients divide by i!, which costs at most
    ord_p(i!) <= i/(p-1) digits; the computation is padded accordingly.

    The result is exact only when the series terminates within those terms:
    y is exact zero, or alpha is an exact integer in [0, abs_precision].
    Otherwise the partial sum is not the value, so the series runs on
    truncated inputs and the result carries ``abs_precision`` digits.
    """
    if y.prime != alpha.prime:
        raise DomainError("prime mismatch between base and exponent")
    p = y.prime
    if not y.is_zero_like and y.valuation < 1:
        raise DomainError("base offset must lie in pZ_p")
    if not alpha.is_zero_like and alpha.valuation < 0:
        raise DomainError("exponent must lie in Z_p")
    n = abs_precision
    pad = n + n // (p - 1) + 4
    y = y.at_precision(pad) if y.exact is not None else y
    alpha = alpha.at_precision(pad) if alpha.exact is not None else alpha
    a = alpha.exact
    terminates = y.is_exact_zero or (
        a is not None and a.denominator == 1 and 0 <= a <= n)
    if not terminates:
        y, alpha = y.truncated(pad), alpha.truncated(pad)

    total = PadicNumber.one(p, pad)
    coeff = PadicNumber.one(p, pad)
    ypow = PadicNumber.one(p, pad)
    for i in range(1, n + 1):
        step = alpha - PadicNumber.from_int(i - 1, p, pad)
        if step.is_exact_zero:
            break  # alpha is the integer i-1: the series terminates
        coeff = coeff * step / PadicNumber.from_int(i, p, pad)
        ypow = ypow * y
        if ypow.is_exact_zero:
            break
        total = total + coeff * ypow
    return total.truncated(n) if total.exact is None else total.at_precision(n)


def _draw_pow_input(data, p: int, v: int, kind: str, label: str) -> PadicNumber:
    """An exact or truncated value of valuation v, or a bounded zero at
    precision v or more."""
    if kind == "bounded zero":
        return PadicNumber.bounded_zero(
            p, data.draw(st.integers(v, v + 70), label=label))

    def prime_to_p(bound: int) -> int:
        return (p * data.draw(st.integers(0, bound), label=label)
                + data.draw(st.integers(1, p - 1), label=label))

    unit = prime_to_p(p ** 80)
    if kind == "truncated":
        prec = data.draw(st.integers(v + 1, v + 70), label=label)
        return PadicNumber.from_unit(p, v, unit, prec)
    den = prime_to_p(10 ** 4)
    sign = data.draw(st.sampled_from([1, -1]), label=label)
    return PadicNumber.from_rational(sign * unit * p ** v, den, p)


def _state(x: PadicNumber) -> tuple:
    return x.valuation, x.unit, x.abs_precision, x.exact


def _exact_refinement(x: PadicNumber, k: int) -> PadicNumber:
    """An exact value that has every known digit of x."""
    if x.exact is not None:
        return x
    a = x.abs_precision
    return PadicNumber.from_int(x.residue(a) + k * x.prime ** a, x.prime,
                                a + 1)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 64), st.data())
def test_pow_one_plus_matches_binomial_series(p, n, data):
    kinds = ["exact", "truncated", "bounded zero"]
    vy = data.draw(st.integers(1, 3), label="v(y)")
    y = _draw_pow_input(data, p, vy, data.draw(st.sampled_from(kinds)), "y")
    akind = data.draw(st.sampled_from(kinds + ["integer"]), label="alpha")
    if akind == "integer":
        alpha = PadicNumber.from_int(
            data.draw(st.sampled_from([n, n + 1]) | st.integers(0, n + 1),
                      label="a"), p)
    else:
        va = data.draw(st.integers(0, 2), label="v(alpha)")
        alpha = _draw_pow_input(data, p, va, akind, "alpha")
    got = pow_one_plus(y, alpha, n)
    if got.exact is None:
        with pytest.raises(InsufficientPrecision):
            got.digit(got.abs_precision)
    try:
        want = _series_pow_one_plus(y, alpha, n)
    except InsufficientPrecision:
        # a step alpha - (i-1) met a bounded zero: every exact refinement
        # of the inputs has the digits the modular power returned; the
        # series runs wide enough to hold a refinement's leading digit
        m = got.abs_precision
        wide = max(n, y.abs_precision, alpha.abs_precision)
        for k in (0, 1, p + 1):
            ref = _series_pow_one_plus(_exact_refinement(y, k),
                                       _exact_refinement(alpha, k), wide)
            assert ref.residue(m) == got.residue(m), k
        return
    assert _state(got) == _state(want)


# --- integer valuations, integer exact values, one subtraction -----------------

def test_valuation_bound_is_the_exponent_of_norm_upper():
    p = 5
    for x, v, norm in (
            (PadicNumber.zero(p), None, 0),
            (PadicNumber.zero(p, 3), None, 0),
            (PadicNumber.bounded_zero(p, 10), 10, Fraction(1, 5 ** 10)),
            (PadicNumber.bounded_zero(p, 0), 0, 1),
            (PadicNumber.from_int(7 * 5 ** 3, p), 3, Fraction(1, 125)),
            (PadicNumber.from_rational(2, 125, p), -3, 125),
            (PadicNumber.from_unit(p, 2, 4, 9), 2, Fraction(1, 25)),
            (PadicNumber.from_unit(p, -1, 3, 1), -1, 5)):
        assert x.valuation_bound() == v, x
        assert x.norm_upper() == norm, x
        if v is not None:
            assert x.norm_upper() == Fraction(p) ** -v


def _from_exact_general(p: int, q: Fraction, abs_precision: int) -> PadicNumber:
    """_from_exact's former path for every rational, its reference."""
    if q == 0:
        return PadicNumber(p, abs_precision, 0, abs_precision, Fraction(0))
    v = ord_int(q.numerator, p) - ord_int(q.denominator, p)
    # a value below the window widens it so the leading digit is visible
    rel = max(abs_precision - v, 1)
    num = q.numerator // p ** max(0, ord_int(q.numerator, p))
    den = q.denominator // p ** max(0, ord_int(q.denominator, p))
    unit = num * pow(den, -1, p ** rel) % p ** rel
    return PadicNumber(p, v, unit, v + rel, q)


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_from_exact_matches_reference(p):
    ints = [0, 1, -1, 10 ** 40 + 7, -(10 ** 40 + 7), 2 ** 300 - 1,
            -(3 ** 200) * 5 ** 7]
    for k in (0, 1, 5, 70):
        for u in (1, p - 1, p + 1, 12345 * p + 1, 7 ** 90):
            ints += [p ** k * u, -p ** k * u]
    # denominators with and without factors of p; each cancels some of the
    # numerators' factors of p, or all of them
    dens = [1, p, p ** 3, p ** 70, p + 1, 7 ** 20 * p ** 2,
            (p + 1) ** 9 * p ** 5]
    for a in ints:
        for b in dens:
            for prec in (-2, 0, 1, 3, 64, 200):
                want = _state(_from_exact_general(p, Fraction(a, b), prec))
                assert _state(_from_exact(p, Fraction(a, b), prec)) == want, \
                    (a, b, prec)
                assert _state(PadicNumber.from_rational(a, b, p, prec)) == want
                if b == 1:
                    assert _state(PadicNumber.from_int(a, p, prec)) == want
    for k in range(-5, 6):
        for prec in (1, 8, 64):
            want = (PadicNumber.from_rational(p ** k, 1, p, prec) if k >= 0
                    else PadicNumber.from_rational(1, p ** -k, p, prec))
            assert _state(parse_padic(f"p^{k}", p, prec)) == _state(want), k


def _draw_operand(data, p: int, label: str) -> PadicNumber:
    kind = data.draw(st.sampled_from(
        ["exact", "truncated", "bounded zero", "exact zero"]), label=label)
    if kind == "exact zero":
        return PadicNumber.zero(p, data.draw(st.integers(1, 40), label=label))
    if kind == "bounded zero":
        return PadicNumber.bounded_zero(
            p, data.draw(st.integers(0, 40), label=label))
    x = _draw_pow_input(data, p, data.draw(st.integers(0, 6), label=label),
                        kind, label)
    # a shift by p**-4..p**0 gives negative valuations too
    shift = PadicNumber.from_rational(
        1, p ** data.draw(st.integers(0, 4), label=label), p)
    return x * shift


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_sub_is_the_sum_with_the_negation(p, data):
    x, y = _draw_operand(data, p, "x"), _draw_operand(data, p, "y")

    def outcome(f):
        try:
            return _state(f())
        except InsufficientPrecision:
            return InsufficientPrecision

    assert outcome(lambda: x - y) == outcome(lambda: x + (-y))
    assert outcome(lambda: y - x) == outcome(lambda: y + (-x))
