"""van der Put coefficient criteria and the coefficient-decay schedule.

``e_0`` is identically 1; for n >= 1, ``e_n`` is the indicator of the ball
of all x agreeing with n on every base-p digit of n.  A continuous function
on Z_p is the sum of a_n e_n, and its regularity is read from the decay of
|a_n|: ``criterion_products`` streams the products |a_n| n**alpha of rows
(n, m) with |a_n| = p**-m, and ``schedule_exponent`` is the decay that the
gallery's sparse series ``zoo.lip_fN`` puts on its rows.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable, Iterator

from .core import DomainError


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


def schedule_exponent(k: int, p: int) -> int:
    """The coefficient-decay schedule m_k = floor(ln(k ln k)/ln p).

    Undefined at k = 1; m_1 = 1 by convention (k may be huge, so logs are
    taken of the integer directly).  Nondecreasing along the centers of
    ``zoo.lip_fN``: each is at least p/(p-1) times the last, so ln(k ln k)
    gains more than ln(p/(p-1)), far above the rounding of ``math.log``.
    """
    if k < 1:
        raise DomainError("schedule index must be >= 1")
    if k == 1:
        return 1
    lk = math.log(k)
    raw = math.floor((lk + math.log(lk)) / math.log(p))
    return max(1, raw)
