"""Monte Carlo estimation of digit-pair statistics under Haar measure on Z_p.

Sampling is counter-based and fully reproducible: digit block j of sample i
under seed s is a pure function of (s, i, j), so estimates are bit-identical
across runs and platforms for a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import DomainError, PadicNumber

DIGITS_PER_BLOCK = 8


def _check_prime_fits(p: int) -> None:
    if p >= 2 ** 32:
        raise DomainError(f"p={p} is not below 2**32: digits are drawn as "
                          "32-bit words reduced mod p")


def _block_digits(seed: int, sample: int, block: int, p: int) -> list[int]:
    """Eight uniform digits from one hash invocation.

    Each digit is a 32-bit word reduced mod p, so p must be below 2**32;
    the bias is below p / 2**32, far under Monte Carlo noise for small p.
    """
    msg = struct.pack(">QQQQ", seed & (2 ** 64 - 1), sample, block, p)
    h = hashlib.sha256(msg).digest()
    return [w % p for w in struct.unpack(">8I", h)]


def digit_stream(seed: int, sample: int, p: int) -> Iterator[int]:
    """Digits d_0, d_1, ... of one Haar-uniform draw from Z_p."""
    _check_prime_fits(p)
    block = 0
    while True:
        yield from _block_digits(seed, sample, block, p)
        block += 1


def sample_zp(seed: int, sample: int, p: int, precision: int) -> PadicNumber:
    """One Haar-uniform element of Z_p, known modulo p**precision."""
    stream = digit_stream(seed, sample, p)
    digits = [next(stream) for _ in range(precision)]
    x = PadicNumber.from_digits(p, 0, digits, precision)
    if x.is_zero_like:
        return PadicNumber.bounded_zero(p, precision)
    return x.truncated(precision)


def pair_indicator(digits: list[int], i: int) -> int:
    """Y_i = 1 iff digit pair i of the draw is (0, 0)."""
    return 1 if digits[2 * i] == 0 and digits[2 * i + 1] == 0 else 0


def zero_pair_fraction(digits: list[int], n: int) -> float:
    """(Y_0 + ... + Y_{n-1}) / n, the strong-law statistic."""
    if n < 1:
        raise DomainError("need at least one pair")
    return sum(pair_indicator(digits, i) for i in range(n)) / n


@dataclass(frozen=True)
class MCReport:
    """One Monte Carlo estimate with its binomial standard error."""

    prime: int
    samples: int
    seed: int
    statistic: str
    estimate: float
    stderr: float
    target: float
    extras: dict

    @property
    def z_score(self) -> float:
        # the null-hypothesis error bar is 0 only where the target rounds
        # to 0 or 1 in floating point; no deviation is measurable there
        if self.stderr == 0:
            return 0.0
        return (self.estimate - self.target) / self.stderr

    def within(self, sigmas: float = 3.0) -> bool:
        return abs(self.estimate - self.target) <= sigmas * self.stderr

    def to_json(self) -> str:
        return json.dumps({
            "schema": 1,
            "prime": self.prime,
            "samples": self.samples,
            "seed": self.seed,
            "statistic": self.statistic,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "target": self.target,
            "z_score": self.z_score,
            **self.extras,
        }, indent=2)


def _binomial_report(p: int, samples: int, seed: int, statistic: str,
                     hits: int, target: float, trials: Optional[int] = None,
                     **extras) -> MCReport:
    """Estimate hits / trials with the error bar of the null hypothesis
    "the rate is target", which stays positive when no trial hits."""
    trials = trials or samples
    est = hits / trials
    se = math.sqrt(target * (1 - target) / trials)
    return MCReport(p, samples, seed, statistic, est, se, target,
                    dict(extras))


def estimate_Y0(p: int, samples: int, seed: int) -> MCReport:
    """P[first digit pair is (0,0)]; target 1/p**2."""
    _check_prime_fits(p)
    if samples < 1:
        raise DomainError("need at least one sample")
    hits = 0
    for i in range(samples):
        d = _block_digits(seed, i, 0, p)
        hits += pair_indicator(d, 0)
    return _binomial_report(p, samples, seed, "Y0", hits, 1 / p ** 2)


def E_prefix_target(p: int, k: int) -> float:
    """P[no zero pair among the first k pairs] = (1 - 1/p**2)**k."""
    return (1 - 1 / p ** 2) ** k


def estimate_E_prefix(p: int, k: int, samples: int, seed: int) -> MCReport:
    """P[none of the first k digit pairs is (0,0)]."""
    return estimate_E_prefix_series(p, k, samples, seed)[k - 1]


def estimate_E_prefix_series(p: int, k_max: int, samples: int,
                             seed: int) -> list[MCReport]:
    """Reports for k = 1..k_max from a single pass over the samples.

    A draw surviving k pairs has survived every prefix, so the counters
    are computed together and the estimates are monotone by construction.
    """
    _check_prime_fits(p)
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    if samples < 1:
        raise DomainError("need at least one sample")
    survivors = [0] * k_max
    n_digits = 2 * k_max
    n_blocks = -(-n_digits // DIGITS_PER_BLOCK)
    for i in range(samples):
        digits: list[int] = []
        for b in range(n_blocks):
            digits.extend(_block_digits(seed, i, b, p))
        for j in range(k_max):
            if digits[2 * j] == 0 and digits[2 * j + 1] == 0:
                break
            survivors[j] += 1
    return [
        _binomial_report(p, samples, seed, "E_prefix", survivors[j],
                         E_prefix_target(p, j + 1), k=j + 1)
        for j in range(k_max)
    ]


def slln_report(p: int, n_pairs: int, samples: int, seed: int) -> MCReport:
    """Mean zero-pair fraction over the first n_pairs pairs; target 1/p**2."""
    _check_prime_fits(p)
    if n_pairs < 1:
        raise DomainError("need at least one pair")
    n_digits = 2 * n_pairs
    n_blocks = -(-n_digits // DIGITS_PER_BLOCK)
    total = 0
    for i in range(samples):
        digits: list[int] = []
        for b in range(n_blocks):
            digits.extend(_block_digits(seed, i, b, p))
        total += sum(pair_indicator(digits, j) for j in range(n_pairs))
    # pairs within a draw are independent under Haar measure, so the
    # aggregate count is binomial over samples * n_pairs trials
    return _binomial_report(p, samples, seed, "slln", total, 1 / p ** 2,
                            trials=samples * n_pairs, n_pairs=n_pairs)
