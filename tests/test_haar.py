import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import depth_pairs
import padiczoo
import padiczoo.haar as haar
from padiczoo.core import DomainError
from padiczoo.haar import (
    CHUNK,
    E_prefix_target,
    Stream,
    _binomial_report,
    _check_prime_fits,
    _pack_message,
    _SEED_MASK,
    _pair_flags,
    estimate_E_prefix_series,
    estimate_Y0,
    slln_report,
)


# --- the reference reader: each draw expanded digit by digit -----------------

# decodes a block with struct, apart from the estimators' bigint kernel
_unpack_words = struct.Struct(">8I").unpack


def _block_digits(seed: int, sample: int, block: int, p: int) -> list[int]:
    """Eight uniform digits from one hash invocation."""
    h = haar.hashlib.sha256(_pack_message(seed & _SEED_MASK, sample, block,
                                          p)).digest()
    return [w % p for w in _unpack_words(h)]


def digit_stream(seed: int, sample: int, p: int):
    """Digits d_0, d_1, ... of one Haar-uniform draw from Z_p."""
    _check_prime_fits(p)
    block = 0
    while True:
        yield from _block_digits(seed, sample, block, p)
        block += 1


def has_no_zero_pair(x, pairs: int) -> bool:
    """Whether none of the first ``pairs`` digit pairs of x is (0, 0)."""
    return all(x.digit(2 * i) or x.digit(2 * i + 1) for i in range(pairs))


def pair_indicator(digits: list[int], i: int) -> int:
    """Y_i = 1 iff digit pair i of the draw is (0, 0)."""
    return 1 if digits[2 * i] == 0 and digits[2 * i + 1] == 0 else 0


def test_targets():
    assert E_prefix_target(3, 1) == pytest.approx(8 / 9)
    assert E_prefix_target(3, 10) == pytest.approx((8 / 9) ** 10)
    assert abs(E_prefix_target(3, 10) - 0.3079) < 1e-3
    assert E_prefix_target(2, 1) == pytest.approx(3 / 4)


def test_digit_stream_deterministic_and_in_range():
    p = 5
    a = [d for d, _ in zip(digit_stream(7, 3, p), range(40))]
    b = [d for d, _ in zip(digit_stream(7, 3, p), range(40))]
    assert a == b
    assert all(0 <= d < p for d in a)
    c = [d for d, _ in zip(digit_stream(8, 3, p), range(40))]
    assert a != c  # different seed, different draw


def _draws(seed):
    s = Stream(seed)
    return [s.zp(5, 32), s.nonzero(3, 20), s.no_zero_pair(2, 16),
            s.below(10 ** 100)]


def test_stream_deterministic_per_seed_mod_2_64():
    for seed in (0, 11, -1, -5, 2 ** 64, 2 ** 64 + 11, 3 * 2 ** 64 - 5):
        assert _draws(seed) == _draws(seed)
        assert _draws(seed) == _draws(seed % 2 ** 64)
    assert _draws(11) != _draws(12)
    assert _draws(-1) == _draws(2 ** 64 - 1) != _draws(1)


def _stream_draws():
    for seed in (0, 1, 2 ** 31 - 1, 2 ** 64 - 1):
        s = Stream(seed)
        yield [s.below(n) for n in (2, 6, 3 ** 64, 101 ** 20, 5 ** 200,
                                    2 ** 300) for _ in range(3)]
        for p in (2, 3, 5, 101):
            yield [(x.valuation, x.unit, x.abs_precision) for x in (
                s.zp(p, 24), s.zp(p, 24, 3), s.zp(p, 8, 8),
                s.nonzero(p, 20), s.nonzero(p, 1, (0, 1)),
                s.no_zero_pair(p, 16), s.no_zero_pair(p, 1))]
            yield list(depth_pairs(s, p, 12, range(13)))


def test_stream_draws_match_their_digest():
    # pins every value the seeded claims and the test helpers draw: a
    # passing claim reports only its sizes, so no golden output would see
    # a changed sampler
    h = hashlib.sha256()
    for row in _stream_draws():
        h.update(repr(row).encode())
    assert h.hexdigest() == \
        "5b0580228c867b8e7dbdbd57132a3bca061c105467a8e8e2e2a22b02c9332cb3"


def test_stream_refuses_an_empty_range():
    # p ** (negative) is a float below 1, which reaches below() unchecked
    s = Stream(0)
    for draw in (lambda: s.below(0), lambda: s.below(-2),
                 lambda: s.zp(3, 4, min_valuation=5),
                 lambda: s.nonzero(3, 0), lambda: s.no_zero_pair(3, -2)):
        with pytest.raises(DomainError, match="empty range"):
            draw()
    assert s.below(1) == 0 and s.zp(3, 5, min_valuation=5).is_bounded_zero


def test_stream_draw_hashes_bits_plus_64(monkeypatch):
    counter = _CountingHashlib(haar.hashlib)
    monkeypatch.setattr(haar, "hashlib", counter)
    s = Stream(0)
    for n, blocks in ((2, 1), (2 ** 191, 1), (2 ** 192, 2), (2 ** 448, 3)):
        before = counter.calls
        assert 0 <= s.below(n) < n
        assert counter.calls - before == blocks, n


def test_stream_draws_are_near_uniform():
    s = Stream(4)
    counts = [0] * 6
    for _ in range(6000):
        counts[s.below(6)] += 1
    # 1000 expected per face; 5 sigma is about 150
    assert all(850 <= c <= 1150 for c in counts), counts


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_stream_points_keep_their_contracts(p, monkeypatch):
    n = 1024
    s = Stream(p)
    for _ in range(3):
        x = s.zp(p, n, min_valuation=3)
        assert x.exact is None and x.abs_precision == n
        assert x.is_zero_like or x.valuation >= 3
        y = s.nonzero(p, n, (-2, 3))
        assert -2 <= y.valuation < 3 and y.exact is None
        assert y.abs_precision - y.valuation == n
        assert y.digit(y.valuation) != 0
        z = s.no_zero_pair(p, n)
        assert z.abs_precision == n and has_no_zero_pair(z, n // 2)
    # a point of p**n Z_p is always a zero draw
    zero = s.zp(p, n, min_valuation=n)
    assert zero.is_bounded_zero and zero.abs_precision == n
    # the extreme draws: every residue 0, then every residue at its largest
    for top in (False, True):
        monkeypatch.setattr(Stream, "below",
                            lambda self, m: m - 1 if top else 0)
        assert s.zp(p, n).is_bounded_zero != top
        y = s.nonzero(p, n)
        assert y.digit(y.valuation) != 0 and y.abs_precision - y.valuation == n
        assert has_no_zero_pair(s.no_zero_pair(p, n), n // 2)


def test_pair_statistics_helpers():
    digits = [0, 0, 1, 2, 0, 0]
    assert pair_indicator(digits, 0) == 1
    assert pair_indicator(digits, 1) == 0


def test_estimates_reproducible_bit_identical():
    a = estimate_E_prefix_series(3, 10, 4000, seed=42)
    b = estimate_E_prefix_series(3, 10, 4000, seed=42)
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]
    assert estimate_Y0(2, 4000, 9).to_json_dict() \
        == estimate_Y0(2, 4000, 9).to_json_dict()


def test_estimates_close_to_targets():
    for p in (2, 3):
        r = estimate_Y0(p, 20_000, seed=1)
        assert r.within(4.0)
        series = estimate_E_prefix_series(p, 10, 20_000, seed=1)
        assert all(s.within(4.0) for s in series)
        # one-pass estimates are monotone nonincreasing in k
        ests = [s.estimate for s in series]
        assert all(a >= b for a, b in zip(ests, ests[1:]))


def test_slln_report():
    r = slln_report(3, 50, 2000, seed=2)
    assert r.statistic == "slln"
    assert abs(r.estimate - 1 / 9) <= 4 * r.stderr
    assert math.isfinite(r.z_score)


def test_report_json_schema():
    doc = estimate_Y0(3, 500, 0).to_json_dict()
    assert doc["schema"] == 1
    assert {"prime", "samples", "seed", "estimate", "stderr",
            "target", "z_score"} <= set(doc)


def test_input_validation():
    for samples in (0, -1, -CHUNK - 1):
        with pytest.raises(DomainError, match="at least one sample"):
            estimate_Y0(3, samples, 0)
        with pytest.raises(DomainError, match="at least one sample"):
            estimate_E_prefix_series(3, 2, samples, 0)
        with pytest.raises(DomainError, match="at least one sample"):
            slln_report(3, 2, samples, 0)
    with pytest.raises(DomainError, match="k_max"):
        estimate_E_prefix_series(3, 0, 10, 0)
    with pytest.raises(DomainError, match="at least one pair"):
        slln_report(3, 0, 10, 0)
    # digits are 32-bit words reduced mod p: larger primes are refused, and
    # so is a non-prime, whose residues are no statistic of Z_p
    big = 4294967311  # the least prime above 2**32
    for p in (big, 0, 1, 4, 6, 9, 2 ** 32 - 1):
        for estimate in (lambda: estimate_Y0(p, 10, 0),
                         lambda: estimate_E_prefix_series(p, 2, 10, 0),
                         lambda: slln_report(p, 2, 10, 0),
                         lambda: _pair_flags(p, 0)):
            with pytest.raises(DomainError, match="not a prime below 2"):
                estimate()
    assert estimate_Y0(4294967291, 10, 0).within(3.0)  # below 2**32


def test_null_hypothesis_error_bar():
    # at p=101 no draw of 2000 hits a zero pair in the first two pairs, so
    # the plug-in error bar would be 0; the null-hypothesis one is not
    for r in estimate_E_prefix_series(101, 2, 2000, seed=0):
        assert r.estimate == 1.0
        assert r.stderr == pytest.approx(
            math.sqrt(r.target * (1 - r.target) / 2000))
        assert r.within(3.0) and math.isfinite(r.z_score)
        json.dumps(r.to_json_dict(), allow_nan=False)
    s = slln_report(3, 50, 2000, seed=2)
    assert s.stderr == pytest.approx(math.sqrt(1 / 9 * 8 / 9 / (2000 * 50)))


def test_error_bar_where_target_rounds_to_one():
    # for p near 10**9 the E-prefix target (1 - 1/p**2)**k is 1.0 in floats
    p = 1000000007
    r = estimate_E_prefix_series(p, 1, 10, 0)[0]
    assert r.target == 1.0 and r.stderr > 0
    assert r.within(3.0) == (abs(r.z_score) <= 3.0)
    # a single zero pair among ten draws is a measurable deviation there
    hit = _binomial_report(p, 10, 0, "E_prefix", 9, r.target, k=1)
    assert hit.stderr > 0 and not hit.within(3.0)
    assert hit.within(3.0) == (abs(hit.z_score) <= 3.0)


# --- sampling kernels against a per-digit reference -------------------------

KERNEL_SEEDS = (0, -5, 2 ** 64 + 3)
KERNEL_SAMPLES = 300


def _reference_draws(p, seed, samples, n_pairs):
    draws = []
    for i in range(samples):
        stream = digit_stream(seed, i, p)
        draws.append([next(stream) for _ in range(2 * n_pairs)])
    return draws


@pytest.mark.parametrize("p", [2, 3, 5, 101])
@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_kernels_match_digit_stream(p, seed):
    n = KERNEL_SAMPLES
    draws = _reference_draws(p, seed, n, 13)
    for k in range(1, 14):  # k = 1..13 ends both on and between blocks
        series = estimate_E_prefix_series(p, k, n, seed)
        for j, r in enumerate(series):
            survivors = sum(
                1 for d in draws
                if not any(pair_indicator(d, t) for t in range(j + 1)))
            assert r.estimate == survivors / n, (k, j)
        total = sum(pair_indicator(d, t) for d in draws for t in range(k))
        assert slln_report(p, k, n, seed).estimate == total / (n * k), k
    hits = sum(pair_indicator(d, 0) for d in draws)
    assert estimate_Y0(p, n, seed).estimate == hits / n


@pytest.mark.parametrize("p", [2, 3, 101])
def test_kernels_match_digit_stream_across_chunks(p):
    # sample counts on both sides of one and two chunk boundaries
    seed, most = 11, 2 * CHUNK + 3
    draws = _reference_draws(p, seed, most, 10)
    for n in (CHUNK - 1, CHUNK, CHUNK + 1, most):
        for k in (1, 2, 4, 5, 10):
            _assert_estimators_match(p, seed, k, draws[:n])


def _assert_estimators_match(p, seed, k, draws):
    """E-prefix and slln over k pairs, and Y0, on draws 0..n - 1 against
    their n reference draws."""
    n = len(draws)
    stops = [_first_zero_pair(d, k) for d in draws]
    series = estimate_E_prefix_series(p, k, n, seed)
    assert [r.estimate for r in series] == [
        sum(1 for j in stops if j > t) / n for t in range(k)], (n, k)
    total = sum(pair_indicator(d, t) for d in draws for t in range(k))
    assert slln_report(p, k, n, seed).estimate == total / (n * k), (n, k)
    hits = sum(pair_indicator(d, 0) for d in draws)
    assert estimate_Y0(p, n, seed).estimate == hits / n, n


def _first_zero_pair(digits: list[int], k: int) -> int:
    """The index of the first zero pair among the first k, else k."""
    return next((t for t in range(k) if pair_indicator(digits, t)), k)


def _reference_flags(digest: bytes, p: int) -> list[int]:
    """Per digit pair of a block, 1 iff it is not (0, 0)."""
    w = _unpack_words(digest)
    return [int(bool(w[2 * j] % p or w[2 * j + 1] % p)) for j in range(4)]


def _assert_flags_match(p, s, b, draws):
    f = _pair_flags(p, s)(b, draws)
    assert len(f) == 32 * len(draws)
    for n, i in enumerate(draws):
        block = haar.hashlib.sha256(_pack_message(s, i, b, p)).digest()
        assert [f[32 * n + 8 * j + 7] for j in range(4)] \
            == _reference_flags(block, p), (p, b, i)


@pytest.mark.parametrize("p", [2, 3, 5, 101, 65537, 2 ** 31 - 1,
                               4294967291])
@pytest.mark.parametrize("seed", [0, 2 ** 64 + 3])
def test_pair_flags_match_struct_decoding(p, seed):
    for b in range(3):
        for draws in (range(5), [9, 2, CHUNK + 7]):
            _assert_flags_match(p, seed & _SEED_MASK, b, draws)


def _edge_words(p: int) -> list[int]:
    """Words next to where x * p**-1 mod 2**32 <= (2**32 - 1) // p turns:
    k * p and (k + 1) * p mod 2**32 for k = (2**32 - 1) // p map to the
    limit and one above it."""
    k = (2 ** 32 - 1) // p
    return sorted({w % 2 ** 32 for w in (0, 1, p - 1, p, p + 1, k * p,
                                         k * p + 1, (k + 1) * p,
                                         2 ** 32 - p, 2 ** 32 - 1)})


class _PoolHashlib:
    """A sha256 whose digests hold only words of ``pool``: word t is
    ``pool[w % len(pool)]`` for word t w of the real digest."""

    def __init__(self, real, pool):
        self.real, self.pool = real, pool

    def sha256(self, message):
        words = _unpack_words(self.real.sha256(message).digest())
        return _Digest(struct.pack(
            ">8I", *[self.pool[w % len(self.pool)] for w in words]))


class _Digest:
    def __init__(self, digest: bytes):
        self._digest = digest

    def digest(self) -> bytes:
        return self._digest


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101, 257, 65537,
                               2 ** 31 - 1, 4294967291])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_pair_test_at_edge_words(p, data):
    # sha256 words almost never sit where the divisibility test turns, so
    # the digests here are built from those words and a few uniform ones
    edges = _edge_words(p)
    pool = data.draw(st.lists(st.sampled_from(edges), min_size=1,
                              max_size=2 * len(edges)), label="edges") \
        + data.draw(st.lists(st.integers(0, 2 ** 32 - 1), max_size=3),
                    label="uniform")
    n = data.draw(st.sampled_from([1, 2, CHUNK - 1, CHUNK]), label="draws")
    k = data.draw(st.integers(1, 10), label="k")
    seed = data.draw(st.integers(0, 2 ** 64 - 1), label="seed")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(haar, "hashlib", _PoolHashlib(haar.hashlib, pool))
        for b in range(-(-k // 4)):
            _assert_flags_match(p, seed, b, range(n))
        # E-prefix's live draws shrink at every block where a pool word is
        # divisible
        _assert_estimators_match(p, seed, k, _reference_draws(p, seed, n, k))


class _CountingHashlib:
    def __init__(self, real):
        self.real, self.calls = real, 0

    def sha256(self, *args):
        self.calls += 1
        return self.real.sha256(*args)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_estimators_hash_exactly_the_blocks_they_read(p, monkeypatch):
    seed, n = 5, CHUNK + 5
    counter = _CountingHashlib(haar.hashlib)
    monkeypatch.setattr(haar, "hashlib", counter)

    def hashes(estimator, *args):
        before = counter.calls
        estimator(*args)
        return counter.calls - before

    assert hashes(estimate_Y0, p, n, seed) == n
    for k in (1, 4, 5, 10):
        assert hashes(slln_report, p, k, n, seed) == n * -(-k // 4), k
        # the reference reader, which hashes a block when its first digit
        # is read, scanning each draw up to its first zero pair
        need = hashes(_scan_to_first_zero_pair, p, k, n, seed)
        assert hashes(estimate_E_prefix_series, p, k, n, seed) == need, k


def _scan_to_first_zero_pair(p, k, samples, seed):
    for i in range(samples):
        digits = digit_stream(seed, i, p)
        for _ in range(k):
            if (next(digits), next(digits)) == (0, 0):
                break


def _E_prefix_hashes_per_draw(monkeypatch, p, samples=4000):
    counter = _CountingHashlib(haar.hashlib)
    monkeypatch.setattr(haar, "hashlib", counter)
    estimate_E_prefix_series(p, 10, samples, seed=3)
    return counter.calls / samples


def test_E_prefix_hashes_blocks_on_demand(monkeypatch):
    # a draw needs 1 + q**4 + q**8 blocks on average, q = 1 - 1/p**2:
    # 1.42 at p=2, and nearly all 3 of the k=10 window at p=101
    assert _E_prefix_hashes_per_draw(monkeypatch, 2) < 1.6
    assert _E_prefix_hashes_per_draw(monkeypatch, 101) <= 3.0


def test_slln_refuses_no_samples():
    with pytest.raises(DomainError):
        slln_report(3, 4, 0, 0)


def test_sampling_never_loads_openssl():
    # streams and estimators hash with CPython's built-in sha256; hashlib
    # would load OpenSSL (_hashlib), about 3.5 MiB resident
    code = ("import sys, padiczoo.cli as c\n"
            "c.main(['--prime', '3', 'verify', 'thm34ii', 'contraction'])\n"
            "c.main(['--prime', '3', 'haar', '--samples', '10', '--k', '2'])\n"
            "print('openssl', '_hashlib' in sys.modules)\n")
    src = str(Path(padiczoo.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines()[-1] == "openssl False"
