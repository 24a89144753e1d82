from fractions import Fraction
from itertools import permutations

import pytest

from padiczoo.core import DomainError, InsufficientPrecision, PadicNumber
from padiczoo.quotients import (
    PadicFunction,
    phi_r,
    probe_derivative,
    probe_strict,
)


def _square(p, precision=32):
    return PadicFunction(lambda x: x * x, p, precision, domain_tag="Qp")


def test_phi1_of_square_is_sum(rng):
    p = 3
    f = _square(p)
    for _ in range(20):
        x, y = rng.nonzero(p, 16, (-3, 5)), rng.nonzero(p, 16, (-3, 5))
        if (x - y).is_zero_like:
            continue
        q = phi_r(f, (x, y))
        assert q.agrees_with(x + y)


def test_phi2_of_square_is_one():
    p = 5
    f = _square(p)
    pts = tuple(PadicNumber.from_int(v, p) for v in (1, 7, 12))
    q = phi_r(f, pts)
    assert q.agrees_with(PadicNumber.one(p))


def test_phi_symmetric_under_permutation():
    p = 3
    f = PadicFunction(lambda x: x * x * x, p, 40)
    pts = tuple(PadicNumber.from_int(v, p, 40) for v in (2, 5, 10))
    values = [phi_r(f, perm) for perm in permutations(pts)]
    assert all(v.agrees_with(values[0]) for v in values[1:])


def test_distinctness_contract():
    p = 3
    f = _square(p)
    x = PadicNumber.from_int(4, p)
    with pytest.raises(DomainError):
        phi_r(f, (x, x))
    y = x + PadicNumber.bounded_zero(p, 10)
    with pytest.raises(InsufficientPrecision):
        phi_r(f, (x, y))


def test_derivative_probe_converges():
    p = 3
    f = _square(p)
    a = PadicNumber.from_int(2, p)
    seq = ((n, a + PadicNumber.from_int(p ** n, p, 40)) for n in range(1, 12))
    trace = probe_derivative(f, a, seq, steps=11)
    assert trace.verdict.kind == "converges_to"
    # the reported value is the last quotient: near the limit 4 to the
    # witness resolution
    d = trace.verdict.value - PadicNumber.from_int(4, p)
    assert d.norm_upper() <= Fraction(p) ** -11


def test_strict_probe_constant_stays():
    p = 3
    ident = PadicFunction(lambda x: x, p, 40)
    pairs = ((n, (PadicNumber.from_int(p ** n, p, 40),
                  PadicNumber.from_int(2 * p ** n, p, 40)))
             for n in range(1, 10))
    trace = probe_strict(ident, pairs, steps=9)
    assert trace.verdict.kind == "stays_at"
    assert all(r.norm == 1 for r in trace.rows)


def test_diverging_trace_flagged():
    p = 2
    f = PadicFunction(
        lambda x: PadicNumber.from_rational(1, p ** 200, p, 16)
        if not x.is_zero_like else PadicNumber.zero(p), p, 16)
    a = PadicNumber.zero(p)
    seq = ((n, PadicNumber.from_int(p ** n, p, 250)) for n in range(1, 4))
    trace = probe_derivative(f, a, seq, steps=3)
    assert trace.verdict.kind == "diverges"


def test_order2_probe_runs():
    p = 5
    f = _square(p)
    triples = ((n, (PadicNumber.from_int(n, p),
                    PadicNumber.from_int(n + 1, p),
                    PadicNumber.from_int(n + 2, p)))
               for n in range(1, 8))
    trace = probe_strict(f, triples, steps=7)
    assert all(r.norm == 1 for r in trace.rows)
    assert trace.verdict.kind in ("stays_at", "converges_to")


@pytest.mark.parametrize("order", [1, 2, 3])
def test_strict_probe_matches_phi_r_at_every_order(order):
    p = 3
    f = PadicFunction(lambda x: x * x * x * x, p, 40)
    seq = [(n, tuple(PadicNumber.from_int(p ** n * (k + 1) + k, p, 40)
                     for k in range(order + 1)))
           for n in range(1, 7)]
    trace = probe_strict(f, seq, steps=len(seq))
    assert [r.index for r in trace.rows] == [n for n, _ in seq]
    for row, (_, pts) in zip(trace.rows, seq):
        q = phi_r(f, pts)
        assert row.quotient == q and row.norm == q.norm_upper()
    pts = tuple(PadicNumber.from_int(k, p) for k in range(order))
    with pytest.raises(DomainError):
        probe_strict(f, [(1, pts + (pts[0],))], steps=1)
    blurred = pts[0] + PadicNumber.bounded_zero(p, 10)
    with pytest.raises(InsufficientPrecision):
        probe_strict(f, [(1, pts + (blurred,))], steps=1)


def _phi_recursive(f, pts):
    """Reference: the Newton recursion, 2**r evaluations of f."""
    if len(pts) == 1:
        return f(pts[0])
    a = _phi_recursive(f, (pts[0],) + pts[2:])
    b = _phi_recursive(f, pts[1:])
    return (a - b) / (pts[0] - pts[1])


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_phi_r_evaluates_f_once_per_point(p, r, rng):
    calls = []

    def cube_plus(x):
        calls.append(x)
        return x * x * x + x

    f = PadicFunction(cube_plus, p, 24)
    for _ in range(5):
        pts = tuple(rng.nonzero(p, 24, (-2, 4)) for _ in range(r + 1))
        if any((a - b).is_zero_like for i, a in enumerate(pts)
               for b in pts[i + 1:]):
            continue
        calls.clear()
        got = phi_r(f, pts)
        assert len(calls) == r + 1
        assert got == _phi_recursive(f, pts)
