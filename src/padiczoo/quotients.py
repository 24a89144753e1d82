"""Divided differences and witness-sequence probe runners.

``phi_r`` is the r-th difference quotient on tuples of pairwise distinct
points.  The probe runners drive a function along a witness sequence and
record a trace of quotient values with an overall verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Optional, Sequence

from .core import DomainError, InsufficientPrecision, PadicNumber

# number of tail quotients that must agree before a limit is declared
CONVERGENCE_WINDOW = 8
# norms beyond p**DIVERGENCE_EXPONENT count as unbounded growth
DIVERGENCE_EXPONENT = 64


@dataclass(frozen=True)
class PadicFunction:
    """An evaluable function on Q_p or Z_p for one prime.

    Evaluators must be deterministic in the digits they consume and must
    refine (never contradict) lower-precision outputs.  The call refuses a
    point of another prime, and on Z_p one of valuation < 0 or a bounded
    zero mod p**k, k < 0; it reads an exact point at least to ``precision``.
    """

    evaluator: Callable[[PadicNumber], PadicNumber]
    prime: int
    precision: int
    domain_tag: str = "Qp"

    def __call__(self, x: PadicNumber) -> PadicNumber:
        if x.prime != self.prime:
            raise DomainError(f"prime mismatch: {x.prime} vs {self.prime}")
        if self.domain_tag == "Zp" and x.valuation < 0 and not x.is_exact_zero:
            if x.is_bounded_zero:  # some refinements lie off Z_p
                raise InsufficientPrecision("membership in Z_p unknown")
            raise DomainError("defined on Z_p only")
        if x.exact is not None and x.abs_precision < self.precision:
            x = x.at_precision(self.precision)
        return self.evaluator(x)


@dataclass(frozen=True)
class TraceRow:
    index: int
    quotient: PadicNumber
    norm: Fraction


@dataclass(frozen=True)
class Verdict:
    kind: str  # converges_to | stays_at | diverges | inconclusive
    value: Optional[PadicNumber] = None


@dataclass
class WitnessTrace:
    rows: list[TraceRow] = field(default_factory=list)
    verdict: Verdict = Verdict("inconclusive")


def _distinct(a: PadicNumber, b: PadicNumber) -> PadicNumber:
    """a - b, certified nonzero; errors per the distinctness contract."""
    d = a - b
    if d.is_exact_zero:
        raise DomainError("difference-quotient points must be distinct")
    if d.is_bounded_zero:
        raise InsufficientPrecision(
            "points are indistinguishable at the known precision")
    return d


def phi_r(f: PadicFunction, points: Sequence[PadicNumber]) -> PadicNumber:
    """r-th difference quotient at r+1 pairwise distinct points, from r + 1
    evaluations of f by the recurrence
    Phi(x_i, x_k, ..., x_r) = (Phi(x_i, x_k+1, ...) - Phi(x_k, x_k+1, ...))
    / (x_i - x_k), run from k = r down to 1."""
    pts = tuple(points)
    gap = {(i, j): _distinct(pts[i], pts[j])
           for i in range(len(pts)) for j in range(i + 1, len(pts))}
    vals = [f(x) for x in pts]
    for k in range(len(pts) - 1, 0, -1):
        vals = [(vals[i] - vals[k]) / gap[i, k] for i in range(k)]
    return vals[0]


def _row(index: int, q: PadicNumber) -> TraceRow:
    return TraceRow(index, q, q.norm_upper())


def _verdict(rows: list[TraceRow], constant_is_limit: bool) -> Verdict:
    if not rows:
        return Verdict("inconclusive")
    p = rows[0].quotient.prime
    bound = Fraction(p) ** DIVERGENCE_EXPONENT
    if any(r.norm > bound for r in rows):
        return Verdict("diverges")
    qs = [r.quotient for r in rows]
    if all(q.agrees_with(qs[0]) for q in qs[1:]):
        kind = "converges_to" if constant_is_limit else "stays_at"
        return Verdict(kind, value=qs[-1])
    tail = qs[-CONVERGENCE_WINDOW:]
    if len(tail) >= 2:
        diffs = [(tail[i + 1] - tail[i]).norm_upper()
                 for i in range(len(tail) - 1)]
        cauchy = all(diffs[i + 1] <= diffs[i] for i in range(len(diffs) - 1))
        if cauchy and (diffs[-1] < diffs[0] or diffs[-1] == 0):
            return Verdict("converges_to", value=tail[-1])
    return Verdict("inconclusive")


def probe_derivative(f: PadicFunction, a: PadicNumber,
                     seq: Iterable, steps: int) -> WitnessTrace:
    """Trace of first difference quotients phi_r(f, (x_n, a)).

    ``seq`` yields ``(index, x)`` pairs with x distinct from a and
    converging to it; each row evaluates f(a) again.
    """
    rows = [_row(n, phi_r(f, (x, a))) for n, x in islice(seq, steps)]
    return WitnessTrace(rows, _verdict(rows, constant_is_limit=True))


def probe_strict(f: PadicFunction, seq: Iterable, steps: int) -> WitnessTrace:
    """Trace of Phi_r f over a sequence ``(index, points)``, each ``points``
    a tuple of r + 1 pairwise distinct points: pairs give Phi_1, triples
    Phi_2."""
    rows = [_row(n, phi_r(f, pts)) for n, pts in islice(seq, steps)]
    return WitnessTrace(rows, _verdict(rows, constant_is_limit=False))
