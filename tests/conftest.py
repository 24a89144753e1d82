import hashlib
import math
from fractions import Fraction
from typing import Iterable, Iterator

import pytest

from padiczoo.cli import main
from padiczoo.core import (DEFAULT_PRECISION, DomainError, PadicNumber,
                           _as_prime_int, _make)
from padiczoo.haar import Stream
from padiczoo.vanderput import schedule_exponent


# The entry options each entry reads, written out from the constructions
# rather than read from the registry: the members of the independent family
# (sets (i), (ii), (iii), (v) and prop26) take an index set, the shells and
# the pinched shells an exponent, and the rest neither.  The Haar claims
# read none of them.
ENTRY_OPTIONS = {
    "thm34i": {"--set"}, "thm34ii": {"--set"}, "lip_fN": {"--set"},
    "thm16": {"--beta"}, "cor15": {"--beta"}, "cor15_g": {"--beta"},
    "prop26": {"--set"}, "prop26_g": set(), "thm2_f": set(),
    "thm2_g": set(), "thm2_fN": {"--set"}, "haar": set(),
}


@pytest.fixture
def rng():
    return Stream(20260823)


def assert_cli_golden(capsys, argvs, digest: str, exits: str) -> None:
    """Run each argv through ``padiczoo``'s ``main``.  The exit codes, one
    digit per command, must read ``exits`` and the sha256 of the joined
    stdout must equal ``digest``; a mismatch names the command."""
    h = hashlib.sha256()
    for argv, want in zip(argvs, exits, strict=True):
        code = main(list(argv))
        h.update(capsys.readouterr().out.encode())
        assert str(code) == want, f"padiczoo {' '.join(argv)}: exit {code}"
    names = "; ".join(" ".join(argv) for argv in argvs[:3])
    more = f" and {len(argvs) - 3} more" if len(argvs) > 3 else ""
    assert h.hexdigest() == digest, f"stdout changed: padiczoo {names}{more}"


def depth_pairs(draw: Stream, p: int, precision: int,
                depths: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """Pairs (k, x, y) at depths 0 <= k <= precision: x is uniform mod
    p**precision and y = x + p**k z mod p**precision for a uniform unit z,
    so v(y - x) = k below precision, and y = x at precision."""
    below, top = draw.below, p ** precision
    # p**k and the number of units mod p**(precision - k), 1 at k = precision
    steps = [(p ** k, p ** (precision - k) * (p - 1) // p or 1)
             for k in range(precision + 1)]
    for k in depths:
        x, (step, units) = below(top), steps[k]
        rest, lead = divmod(below(units), p - 1)  # z = lead + 1 + p rest
        yield k, x, (x + step * (lead + 1 + p * rest)) % top


def reference_lip_rows(N, p: int, n_limit: int):
    """Rows (n, sigma(n), m_sigma(n), |a_sigma(n)|) of the sparse van der Put
    series from the closed forms: sigma(n) = (n mod q + 1) * p**(n div q)
    with q = max(p - 1, 1) afresh on every row, the cumulative max of
    ``schedule_exponent`` and a ``Fraction`` norm."""
    q = max(p - 1, 1)
    m_running = 0
    for n in range(n_limit + 1):
        k = (n % q + 1) * p ** (n // q)
        m_running = max(m_running, schedule_exponent(k, p))
        yield n, k, m_running, Fraction(p) ** (-m_running) if n in N \
            else Fraction(0)


# --- digit I/O references ----------------------------------------------------
# ``PadicNumber.digits``, ``render`` and ``from_digits`` as they were before
# the chunk kernel, one digit per step, kept verbatim as references

def reference_digits(self) -> tuple:
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


def reference_render(self) -> str:
    p, n = self.prime, self.abs_precision
    if self.is_exact_zero:
        return "0"
    if self.unit == 0:
        return f"0 (mod {p}^{n})"
    ds = list(reference_digits(self))
    while len(ds) > 1 and ds[-1] == 0:
        ds.pop()
    body = " ".join(str(d) for d in ds)
    return f"{body} * {p}^{self.valuation} (mod {p}^{n})"


def reference_from_digits(p, valuation: int, digits,
                          abs_precision: int) -> PadicNumber:
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


# --- van der Put references ------------------------------------------------

def ilog(n: int, p: int) -> int:
    """floor(log_p n) for n >= 1: a floating-point estimate, corrected with
    exact integer comparisons."""
    s = int(math.log(n, p))
    power = p ** s
    while s > 0 and power > n:
        s, power = s - 1, power // p
    while power * p <= n:
        s, power = s + 1, power * p
    return s


def power_str(p: int, norm: Fraction) -> str:
    """Render an exact power of p (or 0) as e.g. "2^-5"."""
    if norm == 0:
        return "0"
    if norm >= 1:
        k = ilog(norm.numerator, p)
    else:
        k = -ilog(norm.denominator, p)
    return f"{p}^{k}"


def ball_exponent(n: int, p: int) -> int:
    """|x - n|_p < 1/n is decided as |x - n|_p <= p**-ball_exponent(n, p)."""
    return ilog(n, p) + 1


def drop_leading_digit(n: int, p: int) -> int:
    """n with its most significant base-p digit removed (n >= 1)."""
    if n < 1:
        raise DomainError("defined for n >= 1 only")
    return n % p ** ilog(n, p)


def decompose(f, p: int, precision: int = DEFAULT_PRECISION):
    """The van der Put coefficients n -> a_n of f: a_0 = f(0) and
    a_n = f(n) - f(n_), where n_ drops the leading base-p digit of n."""

    def coefficient(n: int) -> PadicNumber:
        if n == 0:
            return f(PadicNumber.zero(p, precision))
        m = drop_leading_digit(n, p)
        return f(PadicNumber.from_int(n, p, precision)) \
            - f(PadicNumber.from_int(m, p, precision))

    return coefficient
