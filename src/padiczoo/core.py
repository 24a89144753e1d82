"""Exact p-adic arithmetic with digit-level precision tracking.

A value is stored as ``unit * p**valuation`` known modulo ``p**abs_precision``.
Three states are distinguished:

* nonzero with known leading digit (``unit % p != 0``),
* exact zero (constructed from the rational 0),
* precision-bounded zero: every known digit is 0, so the value is congruent
  to 0 modulo ``p**abs_precision`` but may be a tiny nonzero number.

Values built from rationals carry the rational along (``exact``) so they can
be re-expanded to any precision on demand.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


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
        ds = [int(d) for d in digits]
        if any(not 0 <= d < p for d in ds):
            raise DomainError(f"digit out of range for p={p}: {ds}")
        unit = 0
        for d in reversed(ds):
            unit = unit * p + d
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
        if self.unit == 0:
            return ()
        p, rel = self.prime, self.abs_precision - self.valuation
        # peel machine-word limbs of k digits off the unit, then split each
        # limb with small-integer arithmetic: p**k < 2**62
        k = max(1, 62 // p.bit_length())
        out, u, limb = [], self.unit, p ** k
        for _ in range(0, rel, k):
            u, w = divmod(u, limb)
            for _ in range(k):
                w, d = divmod(w, p)
                out.append(d)
        return tuple(out[:rel])

    def digit(self, i: int) -> int:
        """Base-p digit at position ``i`` (coefficient of p**i)."""
        if self.is_exact_zero:
            return 0
        if i >= self.abs_precision:
            if self.exact is not None:
                return self.at_precision(i + 1).digit(i)
            raise InsufficientPrecision(
                f"digit {i} unknown at precision {self.abs_precision}")
        if self.unit == 0 or i < self.valuation:
            return 0
        return (self.unit // self.prime ** (i - self.valuation)) % self.prime

    def residue(self, k: int) -> int:
        """The value modulo p**k as an integer in [0, p**k); needs valuation >= 0."""
        if self.is_exact_zero:
            return 0
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
        if self.unit == 0:
            return PadicNumber.bounded_zero(self.prime, n)
        return _make(self.prime, self.valuation, self.unit, n)

    def truncated(self, n: int) -> "PadicNumber":
        """Forgetful truncation: drops the exact rational, keeps n digits."""
        n = min(n, self.abs_precision)
        if self.unit == 0:
            return PadicNumber.bounded_zero(self.prime, n)
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

    def valuation_bound(self) -> Optional[int]:
        """The v with ``norm_upper() == p**-v``: the valuation of a value
        with a nonzero digit, the precision of a bounded zero, and None for
        an exact zero."""
        if self.unit != 0:
            return self.valuation
        if self.is_exact_zero:
            return None
        return self.abs_precision

    def norm_upper(self) -> Fraction:
        """An upper bound for |x|_p valid in every state."""
        v = self.valuation_bound()
        return Fraction(0) if v is None else Fraction(self.prime) ** (-v)

    # -- arithmetic ----------------------------------------------------------

    def _check_same_prime(self, other: "PadicNumber") -> None:
        if self.prime != other.prime:
            raise DomainError(
                f"prime mismatch: {self.prime} vs {other.prime}")

    def __neg__(self) -> "PadicNumber":
        if self.unit == 0:
            return self
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
            if keep.unit == 0:
                return PadicNumber.bounded_zero(p, n)
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
        if self.is_bounded_zero or other.is_bounded_zero:
            if self.is_bounded_zero and other.is_bounded_zero:
                return PadicNumber.bounded_zero(p, self.abs_precision + other.abs_precision)
            z, w = (self, other) if self.is_bounded_zero else (other, self)
            return PadicNumber.bounded_zero(p, z.abs_precision + w.valuation)
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
        if self.is_bounded_zero:
            return PadicNumber.bounded_zero(p, k * self.abs_precision)
        rel = self.abs_precision - self.valuation
        ex = self.exact ** k if self.exact is not None else None
        return _make(p, k * self.valuation, pow(self.unit, k, p ** rel),
                     k * self.valuation + rel, ex)

    # -- comparison ----------------------------------------------------------

    def agrees_with(self, other: "PadicNumber") -> bool:
        """Equality modulo the shared precision."""
        d = self - other
        if d.is_zero_like:
            return True
        return d.valuation >= min(self.abs_precision, other.abs_precision)

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        p, n = self.prime, self.abs_precision
        if self.is_exact_zero:
            return "0"
        if self.unit == 0:
            return f"0 (mod {p}^{n})"
        ds = list(self.digits)
        while len(ds) > 1 and ds[-1] == 0:
            ds.pop()
        body = " ".join(str(d) for d in ds)
        return f"{body} * {p}^{self.valuation} (mod {p}^{n})"

    def __str__(self) -> str:
        return self.render()


def _make(p: int, v: int, unit: int, abs_precision: int,
          exact: Optional[Fraction] = None) -> PadicNumber:
    """Normalize (strip p factors into the valuation, reduce the unit).  A
    value with no nonzero digit below ``abs_precision`` is a bounded zero,
    or, when exact, widened by ``_from_exact``."""
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
    r"^\s*(?P<digits>\d+(?:\s+\d+)*)\s*\*\s*(?P<p>\d+)\^(?P<v>-?\d+)"
    r"\s*\(mod\s*(?P<q>\d+)\^(?P<n>-?\d+)\)\s*$")
_POW_RE = re.compile(r"^\s*p\^(?P<k>-?\d+)\s*$")
_RAT_RE = re.compile(r"^\s*(?P<num>-?\d+)\s*/\s*(?P<den>-?\d+)\s*$")
_INT_RE = re.compile(r"^\s*(?P<num>-?\d+)\s*$")


def parse_padic(text: str, p, abs_precision: int = DEFAULT_PRECISION) -> PadicNumber:
    """Parse a value from the rendered digit format or a rational shorthand.

    Accepted forms: ``0``, integers, ``a/b``, ``p^k``, and the rendered
    format ``d0 d1 ... * p^v (mod p^N)``.  A rendered literal whose bases
    are not p, or whose digits reach p^N (v + len(digits) > N), is refused.
    """
    p = _as_prime_int(p)
    m = _POW_RE.match(text)
    if m:
        return _from_exact(p, Fraction(p) ** int(m.group("k")), abs_precision)
    m = _RAT_RE.match(text)
    if m:
        return PadicNumber.from_rational(
            int(m.group("num")), int(m.group("den")), p, abs_precision)
    m = _INT_RE.match(text)
    if m:
        return PadicNumber.from_int(int(m.group("num")), p, abs_precision)
    m = _DIGITS_RE.match(text)
    if m:
        if int(m.group("p")) != p or int(m.group("q")) != p:
            raise DomainError(f"prime in literal differs from configured p={p}")
        digits = [int(d) for d in m.group("digits").split()]
        v, n = int(m.group("v")), int(m.group("n"))
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
