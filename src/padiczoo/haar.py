"""Monte Carlo estimation of digit-pair statistics under Haar measure on Z_p.

Sampling is counter-based and fully reproducible: digit block j of sample i
under seed s is the sha256 of (s mod 2**64, i, j, p), so estimates are
bit-identical across runs and platforms for a fixed seed.  The estimators
read the draws in chunks of ``CHUNK``: block j of every draw in a chunk is
hashed and read as one big-endian int, whose 64-bit slots each hold one
digit pair, and every pair is tested at once by the divisibility test of
Granlund & Montgomery (PLDI 1994) and Lemire, Kaser & Kurz (2019): for odd
p, x = 0 mod p iff x * (p**-1 mod 2**32) mod 2**32 <= (2**32 - 1) // p.
That costs one ``from_bytes``, two multiplies by a 32-bit constant and one
``to_bytes`` per chunk and block, and each digit pair is then a column of
flag bytes.  They hash blocks on demand: the E-prefix scan hashes block
j + 1 only for the draws whose pairs in blocks 0..j held no zero pair, and
Y0 reads only block 0.  The tests check them against a reader that
expands each draw digit by digit.
``Stream`` draws whole residues from the same counter for every other
random point in the package.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from typing import Optional

from .core import DomainError, PadicNumber, is_prime

DIGITS_PER_BLOCK = 8
PAIRS_PER_BLOCK = DIGITS_PER_BLOCK // 2

# one block is the digest of the message (seed mod 2**64, sample, block, p)
# read as eight big-endian 32-bit words; word t reduced mod p is digit t,
# so p must be below 2**32, and the bias, below p / 2**32, is far under
# Monte Carlo noise for small p
_pack_message = struct.Struct(">QQQQ").pack
_SEED_MASK = 2 ** 64 - 1
# draws per test of a block: 64 KiB of digests, few enough tests that their
# overhead is lost in the hashing
CHUNK = 2048


# CPython's built-in sha256 (``_sha2`` from 3.12, ``_sha256`` before) does
# not load OpenSSL (3.5 MiB resident).  Callers look up ``hashlib.sha256``
# at call time, so a stand-in set as ``haar.hashlib`` sees every hash.
try:
    import _sha2 as hashlib
except ImportError:
    try:
        import _sha256 as hashlib
    except ImportError:
        import hashlib


def _check_prime_fits(p: int) -> None:
    if not (is_prime(p) and p < 2 ** 32):
        raise DomainError(f"p={p} is not a prime below 2**32: digits are "
                          "drawn as 32-bit words reduced mod p")


class Stream:
    """Haar-random p-adic points from one seeded sha256 counter stream.

    Draw i of the stream under seed s reads the blocks (s mod 2**64, i, j, 0)
    for j = 0, 1, ...: the estimators' message with p = 0, which no
    estimator hashes.  Each draw ``below(n)`` reduces enough blocks for
    bits(n) + 64 bits mod n, so it is within statistical distance 2**-64 of
    uniform on [0, n).  A point takes all its digits from one such draw,
    and a zero residue gives a bounded zero.
    """

    def __init__(self, seed: int):
        self._seed = seed & _SEED_MASK
        self._draws = 0

    def below(self, n: int) -> int:
        """A uniform integer in [0, n); an empty range raises DomainError."""
        if n < 1:
            raise DomainError(f"empty range: no integer below {n}")
        sha256, seed, i = hashlib.sha256, self._seed, self._draws
        self._draws = i + 1
        r = 0
        for j in range(-(-(n.bit_length() + 64) // 256)):
            r = r << 256 | int.from_bytes(
                sha256(_pack_message(seed, i, j, 0)).digest(), "big")
        return r % n

    def zp(self, p: int, precision: int,
           min_valuation: int = 0) -> PadicNumber:
        """A point of p**min_valuation Z_p known mod p**precision."""
        unit = self.below(p ** (precision - min_valuation))
        return PadicNumber.from_unit(p, min_valuation, unit, precision)

    def nonzero(self, p: int, precision: int,
                valuation_range: tuple[int, int] = (-4, 5)) -> PadicNumber:
        """A point with valuation uniform in ``range(*valuation_range)`` and
        ``precision`` known digits from there, the leading one nonzero."""
        low, high = valuation_range
        v = low + self.below(high - low)
        # (leading digit - 1) + (p - 1) * (the other precision - 1 digits)
        rest, lead = divmod(self.below((p - 1) * p ** (precision - 1)),
                            p - 1)
        return PadicNumber.from_unit(p, v, lead + 1 + p * rest, v + precision)

    def no_zero_pair(self, p: int, precision: int) -> PadicNumber:
        """A point of Z_p with precision // 2 digit pairs, none of them 0 0."""
        # base p**2 - 1 digits of one draw, each shifted to a nonzero pair
        pairs, base = precision // 2, p * p - 1
        r = self.below(base ** pairs)
        unit, scale = 0, 1
        for _ in range(pairs):
            r, d = divmod(r, base)
            unit += (d + 1) * scale
            scale *= p * p
        return PadicNumber.from_unit(p, 0, unit, 2 * pairs)


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

    def to_json_dict(self) -> dict:
        return {
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
        }


def _binomial_report(p: int, samples: int, seed: int, statistic: str,
                     hits: int, target: float, trials: Optional[int] = None,
                     **extras) -> MCReport:
    """Estimate hits / trials with the error bar of the null hypothesis
    "the rate is target", which stays positive when no trial hits."""
    if samples < 1:
        raise DomainError("need at least one sample")
    trials = trials or samples
    est = hits / trials
    q = 1 - target
    if q == 0:
        # an E-prefix target (1 - 1/p**2)**k rounds to 1 for p beyond ~10**8
        q = -math.expm1(extras["k"] * math.log1p(-1 / p ** 2))
    se = math.sqrt(target * q / trials)
    return MCReport(p, samples, seed, statistic, est, se, target,
                    dict(extras))


def _pair_flags(p: int, s: int):
    """The digit-pair test at p under s = seed mod 2**64: a function of a
    block b and a sequence of at most CHUNK draws whose result holds, at
    byte 32 * n + 8 * j + 7, 0 iff pair j of block b of the n-th draw is
    (0, 0)."""
    _check_prime_fits(p)
    # word x = 0 mod p iff x * c mod 2**32 <= limit; p = 2 has no inverse
    # mod 2**32, but c = 2**31 moves its parity bit to the top
    c, limit = ((2 ** 31, 0) if p == 2 else
                (pow(p, -1, 2 ** 32), (2 ** 32 - 1) // p))
    # per 64-bit slot: the low word, and the add whose carry into bit 32
    # flags x * c mod 2**32 > limit
    low = int.from_bytes(struct.pack(">Q", 2 ** 32 - 1) * (4 * CHUNK), "big")
    carry = int.from_bytes(struct.pack(">Q", 2 ** 32 - 1 - limit)
                           * (4 * CHUNK), "big")

    def flags(b: int, draws) -> bytes:
        sha256, n = hashlib.sha256, len(draws)
        x = int.from_bytes(b"".join([sha256(_pack_message(s, i, b, p)).digest()
                                     for i in draws]), "big")
        add = carry >> 256 * (CHUNK - n)
        odd = (x & low) * c & low
        even = (x >> 32 & low) * c & low
        return ((odd + add | even + add) >> 32).to_bytes(32 * n, "big")
    return flags


def _spans(n_pairs: int) -> list[range]:
    """Per block, the indices in it of its pairs among the first n_pairs."""
    return [range(min(PAIRS_PER_BLOCK, n_pairs - first))
            for first in range(0, n_pairs, PAIRS_PER_BLOCK)]


def _zero_pair_count(p: int, n_pairs: int, samples: int, s: int) -> int:
    """Zero pairs among the first n_pairs pairs of draws 0..samples - 1."""
    flags, spans, total = _pair_flags(p, s), _spans(n_pairs), 0
    for first in range(0, samples, CHUNK):
        draws = range(first, min(first + CHUNK, samples))
        for b, span in enumerate(spans):
            f = flags(b, draws)
            for j in span:
                total += f[7 + 8 * j::32].count(0)
    return total


def estimate_Y0(p: int, samples: int, seed: int) -> MCReport:
    """P[first digit pair is (0,0)]; target 1/p**2."""
    hits = _zero_pair_count(p, 1, samples, seed & _SEED_MASK)
    return _binomial_report(p, samples, seed, "Y0", hits, 1 / p ** 2)


def E_prefix_target(p: int, k: int) -> float:
    """P[no zero pair among the first k pairs] = (1 - 1/p**2)**k."""
    return (1 - 1 / p ** 2) ** k


def estimate_E_prefix_series(p: int, k_max: int, samples: int,
                             seed: int) -> list[MCReport]:
    """Reports for k = 1..k_max from a single pass over the samples.

    Each draw is scanned up to its first zero pair, hashing a block only
    when the pairs before it held none; stops[j] counts the draws whose
    first zero pair is pair j (stops[k_max]: none among the k_max).  A draw
    survives k pairs iff it stops at k or later, so the survivor counts are
    suffix sums of stops and the estimates are monotone by construction.
    """
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    flags, spans = _pair_flags(p, seed & _SEED_MASK), _spans(k_max)
    stops = [0] * (k_max + 1)
    for first in range(0, samples, CHUNK):
        live = range(first, min(first + CHUNK, samples))
        for b, span in enumerate(spans):
            f, left = flags(b, live), len(live)
            # one byte per live draw, 1 while it has met no zero pair
            alive = int.from_bytes(b"\1" * left, "big")
            for j in span:
                alive &= int.from_bytes(f[7 + 8 * j::32], "big")
                was, left = left, alive.bit_count()
                stops[b * PAIRS_PER_BLOCK + j] += was - left
            live = list(itertools.compress(live, alive.to_bytes(len(live),
                                                                "big")))
        stops[k_max] += len(live)
    survivors = list(itertools.accumulate(reversed(stops[1:])))[::-1]
    return [
        _binomial_report(p, samples, seed, "E_prefix", survivors[j],
                         E_prefix_target(p, j + 1), k=j + 1)
        for j in range(k_max)
    ]


def slln_report(p: int, n_pairs: int, samples: int, seed: int) -> MCReport:
    """Mean zero-pair fraction over the first n_pairs pairs; target 1/p**2."""
    if n_pairs < 1:
        raise DomainError("need at least one pair")
    total = _zero_pair_count(p, n_pairs, samples, seed & _SEED_MASK)
    # pairs within a draw are independent under Haar measure, so the
    # aggregate count is binomial over samples * n_pairs trials
    return _binomial_report(p, samples, seed, "slln", total, 1 / p ** 2,
                            trials=samples * n_pairs, n_pairs=n_pairs)
