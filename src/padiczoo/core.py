"""Exact p-adic arithmetic with digit-level precision tracking.

A value is stored as ``unit * p**valuation`` known modulo ``p**abs_precision``.
Three states are distinguished:

* nonzero with known leading digit (``unit % p != 0``),
* exact zero (constructed from the rational 0),
* precision-bounded zero: every known digit is 0, so the value is congruent
  to 0 modulo ``p**abs_precision`` but may be a tiny nonzero number.

Values built from rationals carry the rational along (``exact``) so they can
be re-expanded to any precision on demand.

Digit I/O (``digits``, ``render``, and ``from_digits``, which
``parse_padic`` calls) runs several digits per step.  A unit is cut into
limbs of k digits below 2**30 by one bigint division each, and the limbs
into chunks of c digits with p**c <= 256, read through tables of at most
256 entries per prime, built on first use; ``from_digits`` checks the
digit range once and folds a limb per step.  So n digits cost n/k bigint
divisions and about n/c table reads (c = 8, 5, 3, 2 at p = 2, 3, 5, 7).
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Callable, NamedTuple, Optional


class PadicError(Exception):
    """Base class for errors raised by this package."""


class DomainError(PadicError, ValueError):
    """An operation was called outside its domain."""


class InsufficientPrecision(PadicError):
    """The known digits cannot decide the requested result."""


DEFAULT_PRECISION = 64

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.lru_cache
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every modulus used here;
    cached, as every constructor that takes a prime certifies it."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _as_prime_int(p) -> int:
    n = int(p)
    if not is_prime(n):
        raise DomainError(f"{n!r} is not a prime number")
    return n


def ord_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise DomainError("ord_p(0) is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class PadicNumber:
    prime: int
    valuation: int
    unit: int
    abs_precision: int
    exact: Optional[Fraction] = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(p, abs_precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        p = _as_prime_int(p)
        return PadicNumber(p, abs_precision, 0, abs_precision, Fraction(0))

    @staticmethod
    def bounded_zero(p, abs_precision: int) -> "PadicNumber":
        """All digits below ``abs_precision`` are known to be zero."""
        p = _as_prime_int(p)
        return PadicNumber(p, abs_precision, 0, abs_precision, None)

    @staticmethod
    def from_rational(num: int, den: int, p,
                      abs_precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        if den == 0:
            raise DomainError("denominator must be nonzero")
        p = _as_prime_int(p)
        return _from_exact(p, Fraction(num, den), abs_precision)

    @staticmethod
    def from_int(n: int, p, abs_precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        return _from_exact(_as_prime_int(p), Fraction(operator.index(n)),
                           abs_precision)

    @staticmethod
    def one(p, abs_precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        return PadicNumber.from_int(1, p, abs_precision)

    @staticmethod
    def from_digits(p, valuation: int, digits, abs_precision: int) -> "PadicNumber":
        """Value with the given base-p digits starting at ``valuation``."""
        p = _as_prime_int(p)
        ds = list(map(int, digits))
        if ds and not 0 <= min(ds) <= max(ds) < p:
            i, d = next((i, d) for i, d in enumerate(ds) if not 0 <= d < p)
            raise DomainError(f"digit {d} at position {i} (p^{valuation + i})"
                              f" is out of range for p={p}")
        io = _digit_io(p)
        k, unit = len(io.powers), 0
        for i in reversed(range(0, len(ds), k)):
            unit = unit * io.limb + sum(map(operator.mul, ds[i:i + k],
                                            io.powers))
        n = max(abs_precision, valuation + len(ds))
        return _make(p, valuation, unit, n)

    @staticmethod
    def from_unit(p, valuation: int, unit: int,
                  abs_precision: int) -> "PadicNumber":
        """``unit * p**valuation`` known modulo ``p**abs_precision``, not
        exact; p factors of ``unit`` move into the valuation."""
        return _make(_as_prime_int(p), valuation, unit, abs_precision)

    # -- state predicates --------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self.unit == 0 and self.exact == 0

    @property
    def is_bounded_zero(self) -> bool:
        return self.unit == 0 and self.exact != 0

    @property
    def is_zero_like(self) -> bool:
        return self.unit == 0

    # -- digit access ------------------------------------------------------

    @property
    def digits(self) -> tuple:
        """Known digits from the valuation upward."""
        rel = self.abs_precision - self.valuation
        io = _digit_io(self.prime)
        ds = _chunks(self.unit, io, rel)
        if io.split is not None:
            ds = list(chain.from_iterable(map(io.split.__getitem__, ds)))
        return (*ds[:rel], *repeat(0, rel - len(ds)))

    def digit(self, i: int) -> int:
        """Base-p digit at position ``i`` (coefficient of p**i)."""
        if i >= self.abs_precision:
            if self.exact is not None:
                return self.at_precision(i + 1).digit(i)
            raise InsufficientPrecision(
                f"digit {i} unknown at precision {self.abs_precision}")
        if i < self.valuation:
            return 0
        return (self.unit // self.prime ** (i - self.valuation)) % self.prime

    def residue(self, k: int) -> int:
        """The value modulo p**k as an integer in [0, p**k); needs valuation >= 0."""
        if k > self.abs_precision:
            if self.exact is not None:
                return self.at_precision(k).residue(k)
            raise InsufficientPrecision(
                f"residue mod p^{k} unknown at precision {self.abs_precision}")
        if self.unit == 0:
            return 0
        if self.valuation < 0:
            raise DomainError("residue defined for p-adic integers only")
        return (self.unit * self.prime ** self.valuation) % self.prime ** k

    # -- precision management ----------------------------------------------

    def at_precision(self, n: int) -> "PadicNumber":
        """The same value presented modulo p**n (re-expands exact values)."""
        if self.exact is not None:
            return _from_exact(self.prime, self.exact, n)
        if n > self.abs_precision:
            raise InsufficientPrecision(
                f"cannot refine precision {self.abs_precision} to {n}")
        return _make(self.prime, self.valuation, self.unit, n)

    def truncated(self, n: int) -> "PadicNumber":
        """Forgetful truncation: drops the exact rational, keeps n digits."""
        n = min(n, self.abs_precision)
        return _make(self.prime, self.valuation, self.unit, n)

    # -- absolute value ------------------------------------------------------

    def abs_value(self) -> Fraction:
        """|x|_p as an exact rational; raises if the valuation is unresolved."""
        if self.unit != 0:
            return Fraction(self.prime) ** (-self.valuation)
        if self.is_exact_zero:
            return Fraction(0)
        raise InsufficientPrecision(
            f"all digits below p^{self.abs_precision} vanish; "
            "the absolute value is unresolved")

    def norm_upper(self) -> Fraction:
        """An upper bound for |x|_p valid in every state: 0 for an exact
        zero, else p**-valuation, which is |x|_p for a value with a nonzero
        digit and p**-abs_precision for a bounded zero."""
        if self.is_exact_zero:
            return Fraction(0)
        return Fraction(self.prime) ** -self.valuation

    # -- arithmetic ----------------------------------------------------------

    def _check_same_prime(self, other: "PadicNumber") -> None:
        if self.prime != other.prime:
            raise DomainError(
                f"prime mismatch: {self.prime} vs {other.prime}")

    def __neg__(self) -> "PadicNumber":
        ex = -self.exact if self.exact is not None else None
        rel = self.abs_precision - self.valuation
        return _make(self.prime, self.valuation,
                     (-self.unit) % self.prime ** rel,
                     self.abs_precision, ex)

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        return self._add(other, 1)

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        return self._add(other, -1)

    def _add(self, other: "PadicNumber", sign: int) -> "PadicNumber":
        """self + sign * other, normalized once."""
        self._check_same_prime(other)
        p = self.prime
        if self.is_exact_zero:
            return other if sign > 0 else -other
        if other.is_exact_zero:
            return self
        n = min(self.abs_precision, other.abs_precision)
        if self.is_bounded_zero or other.is_bounded_zero:
            keep, s = (other, sign) if self.is_bounded_zero else (self, 1)
            return _make(p, keep.valuation, s * keep.unit, n)
        v0 = min(self.valuation, other.valuation)
        if n <= v0:
            raise InsufficientPrecision("no shared digits in sum")
        a = self.unit * p ** (self.valuation - v0)
        b = other.unit * p ** (other.valuation - v0)
        ex = None
        if self.exact is not None and other.exact is not None:
            ex = self.exact + other.exact if sign > 0 \
                else self.exact - other.exact
        return _make(p, v0, a + b if sign > 0 else a - b, n, ex)

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        self._check_same_prime(other)
        p = self.prime
        if self.is_exact_zero or other.is_exact_zero:
            return PadicNumber.zero(p, min(self.abs_precision, other.abs_precision))
        rel = min(self.abs_precision - self.valuation,
                  other.abs_precision - other.valuation)
        v = self.valuation + other.valuation
        u = self.unit * other.unit % p ** rel
        ex = None
        if self.exact is not None and other.exact is not None:
            ex = self.exact * other.exact
        return _make(p, v, u, v + rel, ex)

    def __truediv__(self, other: "PadicNumber") -> "PadicNumber":
        self._check_same_prime(other)
        p = self.prime
        if other.is_exact_zero:
            raise DomainError("division by exact zero")
        if other.is_bounded_zero:
            raise InsufficientPrecision(
                "division by a precision-bounded zero: the divisor may be 0")
        if self.is_exact_zero:
            return PadicNumber.zero(p, self.abs_precision)
        if self.is_bounded_zero:
            n = self.abs_precision - other.valuation
            if n <= 0:
                raise InsufficientPrecision("quotient has no known digits")
            return PadicNumber.bounded_zero(p, n)
        rel = min(self.abs_precision - self.valuation,
                  other.abs_precision - other.valuation)
        v = self.valuation - other.valuation
        u = self.unit * pow(other.unit, -1, p ** rel) % p ** rel
        ex = None
        if self.exact is not None and other.exact is not None:
            ex = self.exact / other.exact
        return _make(p, v, u, v + rel, ex)

    def __pow__(self, k: int) -> "PadicNumber":
        """x**k by one modular power: a unit known mod p**rel fixes its
        k-th power mod p**rel, so x**k keeps every digit x fixes."""
        if not isinstance(k, int) or k < 0:
            raise DomainError("only nonnegative integer powers are supported")
        p = self.prime
        if k == 0:
            return PadicNumber.one(p, self.abs_precision)
        if self.is_exact_zero:
            return self
        rel = self.abs_precision - self.valuation
        ex = self.exact ** k if self.exact is not None else None
        return _make(p, k * self.valuation, pow(self.unit, k, p ** rel),
                     k * self.valuation + rel, ex)

    # -- comparison ----------------------------------------------------------

    def agrees_with(self, other: "PadicNumber") -> bool:
        """Equality modulo the shared precision."""
        d = self - other
        return d.valuation >= min(self.abs_precision, other.abs_precision)

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        p, n = self.prime, self.abs_precision
        if self.is_exact_zero:
            return "0"
        if self.unit == 0:
            return f"0 (mod {p}^{n})"
        io = _digit_io(p)
        ch = _chunks(self.unit, io, n - self.valuation)
        while len(ch) > 1 and ch[-1] == 0:
            ch.pop()
        body = " ".join([*map(io.text, ch[:-1]), io.top(ch[-1])])
        return f"{body} * {p}^{self.valuation} (mod {p}^{n})"

    def __str__(self) -> str:
        return self.render()


# -- digit I/O ---------------------------------------------------------------

class _DigitIO(NamedTuple):
    """How values at one prime are read and written c digits per step."""
    limb: int  # p**k: k digits, a multiple of c, peeled per bigint division
    chunk: int  # p**c: c digits, read per table lookup
    shifts: tuple  # chunk**j for j < k // c: the chunks of one limb
    powers: tuple  # p**i for i < k: the digits of one limb
    split: Optional[tuple]  # chunk -> its c digits, low first; None if c = 1
    text: Callable[[int], str]  # chunk -> its c digits' text
    top: Callable[[int], str]  # chunk -> its text without high zeros


@functools.cache
def _digit_io(p: int) -> _DigitIO:
    """The chunk kernel's constants at p, built on first use.  A chunk is
    c digits, the most with p**c <= 256 (c = 1 and no tables past p = 256);
    a limb is k digits, the most whole chunks with p**k < 2**30, so that a
    limb is one digit of a CPython int (k = c for large p)."""
    c = 1
    while p ** (c + 1) <= 256:
        c += 1
    k = c
    while p ** (k + c) < 2 ** 30:
        k += c
    chunk = p ** c
    shifts = tuple(chunk ** j for j in range(k // c))
    powers = tuple(p ** i for i in range(k))
    if chunk > 256:
        return _DigitIO(p ** k, chunk, shifts, powers, None, str, str)
    split = tuple(tuple(j // q % p for q in powers[:c]) for j in range(chunk))
    text = tuple(" ".join(map(str, ds)) for ds in split)
    top = tuple(re.sub("( 0)+$", "", t) for t in text)
    return _DigitIO(p ** k, chunk, shifts, powers, split if c > 1 else None,
                    text.__getitem__, top.__getitem__)


def _chunks(u: int, io: _DigitIO, rel: int) -> list:
    """The base-``io.chunk`` digits of ``u < p**rel``, low first, up to its
    top nonzero limb: one bigint division per limb, then one C-level pass
    per chunk position over all limbs."""
    limbs = []
    for _ in range(0, rel, len(io.powers)):
        if not u:
            break
        u, w = divmod(u, io.limb)
        limbs.append(w)
    if len(io.shifts) == 1:
        return limbs
    cols = [map(operator.mod, map(operator.floordiv, limbs, repeat(q)),
                repeat(io.chunk)) for q in io.shifts]
    return list(chain.from_iterable(zip(*cols)))


def _make(p: int, v: int, unit: int, abs_precision: int,
          exact: Optional[Fraction] = None) -> PadicNumber:
    """Normalize (strip p factors into the valuation, reduce the unit).
    The one place where a zero unit becomes a zero state: with no nonzero
    digit below ``abs_precision`` the value is a bounded zero, or, when
    exact, ``_from_exact`` re-expands it (an exact zero for the rational 0);
    either way its valuation is ``abs_precision``."""
    rel = abs_precision - v
    unit = unit % p ** rel if rel > 0 else 0
    if unit == 0:
        if exact is not None:
            return _from_exact(p, exact, abs_precision)
        return PadicNumber(p, abs_precision, 0, abs_precision, None)
    e = ord_int(unit, p)
    return PadicNumber(p, v + e, unit // p ** e, abs_precision, exact)


def _from_exact(p: int, q: Fraction, abs_precision: int) -> PadicNumber:
    if q == 0:
        return PadicNumber(p, abs_precision, 0, abs_precision, Fraction(0))
    num, den = q.numerator, q.denominator
    a, b = ord_int(num, p), ord_int(den, p)
    v = a - b
    # a value below the window widens it so the leading digit is visible
    rel = max(abs_precision - v, 1)
    unit = num // p ** a
    if den != 1:
        unit *= pow(den // p ** b, -1, p ** rel)
    return PadicNumber(p, v, unit % p ** rel, v + rel, q)


# -- parsing ---------------------------------------------------------------

_DIGITS_RE = re.compile(
    r"^\s*(?:(?P<digits>\d[\d\s]*)\*\s*(?P<p>\d+)\^(?P<v>-?\d+)|0)"
    r"\s*\(mod\s*(?P<q>\d+)\^(?P<n>-?\d+)\)\s*$")
_POW_RE = re.compile(r"^\s*p\^(?P<k>-?\d+)\s*$")
_RAT_RE = re.compile(r"^\s*(?P<num>-?\d+)\s*(?:/\s*(?P<den>-?\d+)\s*)?$")


def parse_padic(text: str, p, abs_precision: int = DEFAULT_PRECISION) -> PadicNumber:
    """Parse a value from the rendered digit format or a rational shorthand.

    Accepted forms: ``0``, integers, ``a/b``, ``p^k``, and the rendered
    formats ``d0 d1 ... * p^v (mod p^N)`` and ``0 (mod p^N)`` (a bounded
    zero).  A rendered literal whose bases are not p, or whose digits reach
    p^N (v + len(digits) > N), is refused.
    """
    p = _as_prime_int(p)
    m = _POW_RE.match(text)
    if m:
        return _from_exact(p, Fraction(p) ** int(m.group("k")), abs_precision)
    m = _RAT_RE.match(text)
    if m:
        return PadicNumber.from_rational(
            int(m.group("num")), int(m.group("den") or 1), p, abs_precision)
    m = _DIGITS_RE.match(text)
    if m:
        if any(b is not None and int(b) != p for b in m.group("p", "q")):
            raise DomainError(f"prime in literal differs from configured p={p}")
        n = int(m.group("n"))
        if m.group("digits") is None:
            return PadicNumber.bounded_zero(p, n)
        digits, v = m.group("digits").split(), int(m.group("v"))
        if v + len(digits) > n:
            raise DomainError(f"literal has a digit at p^{v + len(digits) - 1}"
                              f" but is known only mod p^{n}")
        return PadicNumber.from_digits(p, v, digits, n)
    raise DomainError(f"cannot parse p-adic literal: {text!r}")


# -- analytic powers (1+y)^alpha -------------------------------------------

def pow_one_plus(y: PadicNumber, alpha: PadicNumber,
                 abs_precision: int = DEFAULT_PRECISION) -> PadicNumber:
    """(1+y)**alpha for y in pZ_p and alpha in Z_p, by one modular power.

    For v(y) >= 1, ``(1+y)**(p**k) = 1 mod p**(k + v(y))`` at every p,
    p = 2 included.  So y known mod p**a_y fixes the value mod
    p**(a_y + v(alpha)), and alpha known mod p**a_alpha fixes it mod
    p**(a_alpha + v(y)).  The result is ``pow(1 + y, alpha, p**m)`` with
    m = min(abs_precision, a_y + v(alpha), a_alpha + v(y)), each bound taken
    over the inexact inputs only; a precision-bounded zero's valuation is
    its precision.

    The result is exact only when (1+y)**alpha is a rational the inputs
    determine: y is exact zero, alpha is exact zero, or y is exact and
    alpha is an exact integer in [0, abs_precision].
    """
    if y.prime != alpha.prime:
        raise DomainError("prime mismatch between base and exponent")
    p, n = y.prime, abs_precision
    for x, low, domain in ((y, 1, "base offset must lie in pZ_p"),
                           (alpha, 0, "exponent must lie in Z_p")):
        if x.is_bounded_zero and x.valuation < low:
            raise InsufficientPrecision(f"{domain}: too few digits known")
        if not x.is_zero_like and x.valuation < low:
            raise DomainError(domain)
    if y.is_exact_zero or alpha.is_exact_zero:
        return PadicNumber.one(p, n)
    a = alpha.exact
    if (y.exact is not None and a is not None and a.denominator == 1
            and 0 <= a <= n):
        return _from_exact(p, (1 + y.exact) ** int(a), n)
    m = n
    if y.exact is None:
        m = min(m, y.abs_precision + alpha.valuation)
    if a is None:
        m = min(m, alpha.abs_precision + y.valuation)
    if m <= 0:
        raise InsufficientPrecision("value has no known digits")
    # exact inputs re-expand to m digits, the others give what they know
    ky = m if y.exact is not None else min(m, y.abs_precision)
    ka = m if a is not None else min(m, alpha.abs_precision)
    return _make(p, 0, pow(1 + y.residue(ky), alpha.residue(ka), p ** m), m)
