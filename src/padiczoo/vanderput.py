"""van der Put basis, coefficient extraction, and coefficient criteria.

``e_0`` is identically 1; for n >= 1, ``e_n`` is the indicator of the ball
of all x agreeing with n on every base-p digit of n, i.e.
|x - n|_p <= p**-(s+1) with s = floor(log_p n).  Coefficients are read off
as a_0 = f(0) and a_n = f(n) - f(n_) where n_ drops the most significant
base-p digit of n.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .core import DEFAULT_PRECISION, DomainError, InsufficientPrecision, \
    PadicNumber
from .quotients import PadicFunction


def _ilog(n: int, p: int) -> int:
    """floor(log_p n) for n >= 1: a floating-point estimate, corrected with
    exact integer comparisons."""
    s = int(math.log(n, p))
    power = p ** s
    while s > 0 and power > n:
        s, power = s - 1, power // p
    while power * p <= n:
        s, power = s + 1, power * p
    return s


def ball_exponent(n: int, p: int) -> int:
    """|x - n|_p < 1/n is decided as |x - n|_p <= p**-ball_exponent(n, p)."""
    return _ilog(n, p) + 1


def drop_leading_digit(n: int, p: int) -> int:
    """n with its most significant base-p digit removed (n >= 1)."""
    if n < 1:
        raise DomainError("defined for n >= 1 only")
    s = _ilog(n, p)
    return n - (n // p ** s) * p ** s


def basis_eval(n: int, x: PadicNumber) -> int:
    """e_n(x) for x in Z_p; 0/1 indicator values."""
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


@dataclass
class VdPSeries:
    """Lazily computed van der Put coefficients of a function on Z_p."""

    prime: int
    coefficient_fn: Callable[[int], PadicNumber]
    _cache: dict = field(default_factory=dict)

    def coeff(self, n: int) -> PadicNumber:
        if n not in self._cache:
            self._cache[n] = self.coefficient_fn(n)
        return self._cache[n]


def decompose(f: PadicFunction, p: int,
              precision: int = DEFAULT_PRECISION) -> VdPSeries:
    """Coefficient stream of f with respect to the van der Put basis."""

    def coefficient(n: int) -> PadicNumber:
        if n == 0:
            return f(PadicNumber.zero(p, precision))
        m = drop_leading_digit(n, p)
        fn = f(PadicNumber.from_int(n, p, precision))
        fm = f(PadicNumber.from_int(m, p, precision))
        return fn - fm

    return VdPSeries(p, coefficient)


def power_str(p: int, norm: Fraction) -> str:
    """Render an exact power of p (or 0) as e.g. "2^-5"."""
    if norm == 0:
        return "0"
    if norm >= 1:
        k = _ilog(norm.numerator, p)
    else:
        k = -_ilog(norm.denominator, p)
    return f"{p}^{k}"


def criterion_products(rows: Iterable[tuple[int, int]], alpha: int,
                       p: int) -> Iterator[tuple[int, int]]:
    """The products |a_k| * k**alpha of rows (k, m) with |a_k| = p**-m, in
    order and exactly, as integer pairs (k**alpha, p**m) (for m < 0, as
    (k**alpha * p**-m, 1)).

    |a_k| * k tending to 0 supports strict differentiability with zero
    derivative; a bounded sup of |a_k| * k**alpha characterizes the
    Lipschitz class of order alpha.  The pairs stream, so a caller can stop
    at the row that settles its question.  alpha must be an integer >= 1.
    """
    if not isinstance(alpha, numbers.Rational) or alpha.denominator != 1 \
            or alpha < 1:
        raise DomainError("alpha must be an integer >= 1")
    a = int(alpha)
    return ((k ** a * p ** max(0, -m), p ** max(0, m)) for k, m in rows)


def series_rows(series: VdPSeries, n_max: int) -> Iterator[tuple[int, int]]:
    """Rows (n, m) with |a_n| <= p**-m for n <= n_max, for
    ``criterion_products``: m is the valuation of a_n, or the precision of a
    bounded zero.  Exact zeros have product 0 and are left out."""
    for n in range(n_max + 1):
        c = series.coeff(n)
        if not c.is_exact_zero:
            yield n, c.valuation


def schedule_exponent(k: int, p: int) -> int:
    """The coefficient-decay schedule m_k = floor(ln(k ln k)/ln p).

    Undefined at k = 1; m_1 = 1 by convention, and the sequence is made
    nondecreasing by a cumulative max (k may be huge, so logs are taken of
    the integer directly).
    """
    if k < 1:
        raise DomainError("schedule index must be >= 1")
    if k == 1:
        return 1
    lk = math.log(k)
    raw = math.floor((lk + math.log(lk)) / math.log(p))
    return max(1, raw)
