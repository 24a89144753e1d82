"""Acceptance suite: one test per headline criterion, with one printed
pass/fail line each.  Tolerances are exact (ultrametric identities) except
for the Monte Carlo criteria, which use 3-sigma bands, and the stated wall
clock budgets."""

import time
from itertools import product

from padiczoo.core import PadicNumber, pow_one_plus
from padiczoo.families import CellEnumerator, IndexSet, cell, generate_family
from padiczoo.zoo import (
    Monomial,
    build_entry,
    depth_pairs,
    derivative_at_zero,
    linear_combination,
    order2_witness,
    poly_combine,
    strict_fail,
    thm16_fbeta,
    thm34i_fN,
    thm34ii_gN,
)
from padiczoo.haar import Stream, estimate_E_prefix_series, estimate_Y0


def _report(num: int, label: str, ok: bool, note: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({note})" if note else ""
    print(f"criterion {num:2d} [{status}] {label}{extra}")
    assert ok, f"criterion {num}: {label}{extra}"


def test_criterion_01_ultrametric_fuzz():
    t0 = time.monotonic()
    rng = Stream(1)
    ok = True
    for p in (2, 3, 5):
        for _ in range(10_000):
            x = rng.nonzero(p, 10, (-3, 5))
            y = rng.nonzero(p, 10, (-3, 5))
            if (x * y).abs_value() != x.abs_value() * y.abs_value():
                ok = False
                break
            s = x + y
            bound = max(x.abs_value(), y.abs_value())
            if s.norm_upper() > bound:
                ok = False
                break
            if x.abs_value() != y.abs_value() and s.abs_value() != bound:
                ok = False
                break
    elapsed = time.monotonic() - t0
    _report(1, "ultrametric fuzz, 3x10^4 pairs", ok and elapsed < 5.0,
            f"{elapsed:.2f}s")


def test_criterion_02_ball_step_probes():
    p, k = 5, 3
    rng = Stream(2)
    sets = [IndexSet(k, i) for i in range(k)]
    entries = [thm34i_fN(N, p) for N in sets]
    members = CellEnumerator(sets, [1, 0, 0]).members
    ok = True
    for trial in range(100):
        alphas = [PadicNumber.from_int(
            rng.below(p ** 4) * p + 1 + rng.below(p - 1), p)
            for _ in range(k)]  # random units
        comb = linear_combination(entries, alphas).function
        derivative, _ = derivative_at_zero(comb, members, alphas[0], 64)
        strict, details = strict_fail(comb, members, alphas[0], 64)
        if not (derivative and strict):
            ok = False
            break
    _report(2, "ball-step probes: derivative norms p^-n, strict value a1",
            ok, f"{details['steps']} cell indices x 100 vectors")


def test_criterion_03_digit_spreading():
    p, k = 5, 3
    rng = Stream(3)
    sets = [IndexSet(k, i) for i in range(k)]
    entries = [thm34ii_gN(N, p, 32) for N in sets]
    betas = [PadicNumber.from_int((1 + rng.below(p ** 4 - 1)) * p + 1, p)
             for _ in range(k)]
    g = linear_combination(entries, betas, 32).function
    ok = True
    # 500 pairs at each depth v(x - y) = 0..19 of the 20 digits drawn
    for _, a, b in depth_pairs(rng, p, 20, (i % 20 for i in range(10_000))):
        x, y = (PadicNumber.from_unit(p, 0, r, 20) for r in (a, b))
        d = x - y
        if d.is_zero_like:
            continue
        if (g(x) - g(y)).norm_upper() > d.abs_value() ** 2:
            ok = False
            break
    members = CellEnumerator(sets, [1, 0, 0]).members
    witness, _ = order2_witness(g, members, betas[0], 64)
    _report(3, "digit-spreading contraction + order-2 witness |b1|",
            ok and witness)


def test_criterion_04_lip_scale():
    t0 = time.monotonic()
    e = build_entry("lip_fN", 2)
    r1 = e.run_claim("n1-decay", n_limit=10_000)
    r2 = e.run_claim("lip2-unbounded", n_limit=10_000, threshold=100)
    elapsed = time.monotonic() - t0
    ok = r1.passed and r2.passed and elapsed < 1.0
    _report(4, "sparse series: |a|s <= p/ln n, sup |a|s^2 > 100",
            ok, f"{elapsed:.1f}s, crossing at n={r2.details['first_crossing']}")


def test_criterion_05_binomial_powers():
    t0 = time.monotonic()
    rng = Stream(5)
    ok = True
    for p in (2, 3, 5):
        for _ in range(334):
            x = rng.zp(p, 34, min_valuation=1)
            if x.is_zero_like:
                continue
            alpha = rng.nonzero(p, 34, (0, 1))
            prod = pow_one_plus(x, alpha, 34) * pow_one_plus(
                x, PadicNumber.zero(p) - alpha, 34)
            d = prod - PadicNumber.one(p, 34)
            if not (d.is_zero_like or d.valuation >= 30):
                ok = False
                break
    # finite differences against the analytic derivative
    for p in (2, 3, 5):
        for _ in range(40):
            x = rng.zp(p, 40, min_valuation=1)
            alpha = rng.nonzero(p, 40, (0, 1))
            h = PadicNumber.from_int(
                p ** (2 + rng.below(6)) * (1 + rng.below(p - 1)), p, 40)
            fd = (pow_one_plus(x + h, alpha, 40)
                  - pow_one_plus(x, alpha, 40)) / h
            an = alpha * pow_one_plus(x, alpha - PadicNumber.one(p, 40), 40)
            if (fd - an).norm_upper() > h.abs_value():
                ok = False
                break
    elapsed = time.monotonic() - t0
    _report(5, "binomial round trip to 30 digits, finite diff within |h|",
            ok and elapsed < 2.0, f"{elapsed:.2f}s")


def test_criterion_06_composed_derivative_growth():
    p = 3
    betas = [PadicNumber.from_int(b, p, 64) for b in (1, 4, 7)]
    entries = [thm16_fbeta(b, p, 64) for b in betas]
    one = PadicNumber.one(p, 64)
    cases = [
        [Monomial(one, (2, 0, 0)),
         Monomial(PadicNumber.from_int(2, p, 64), (0, 1, 1)),
         Monomial(one, (1, 0, 0))],
        [Monomial(one, (1, 1, 1))],
        # leading coefficients cancel at y = 0: search must find an offset
        [Monomial(betas[1], (1, 0, 0)),
         Monomial(PadicNumber.zero(p, 64) - betas[0], (0, 1, 0))],
    ]
    ok = True
    for monomials in cases:
        comb = poly_combine(entries, monomials, 64)
        r = comb.run_claim("derivative-norm-growth", n_max=20)
        if not r.passed:
            ok = False
            break
    F = build_entry("cor15", p)
    q = F.run_claim("quotient-growth", limit=6)
    ok = ok and q.passed
    _report(6, "composed derivative norm p^{n k1} C; pinched quotients "
               "p^{n^2-n}", ok)


def test_criterion_07_sphere_ratios():
    e = build_entry("prop26_g", 3)
    r1 = e.run_claim("ratio-growth", limit=10)
    r2 = e.run_claim("derivative-zero", samples=1000)
    ok = r1.passed and r1.details["points"] == 10 and r2.passed
    _report(7, "sphere steps: |f|/|x|^a = p^{(-1+an)n}; derivative 0", ok)


def test_criterion_08_truncation_function():
    t0 = time.monotonic()
    f = build_entry("thm2_f", 3)
    r1 = f.run_claim("continuity-modulus", pairs=10_000, m_max=10)
    r2 = f.run_claim("deviation", steps=10)
    g = build_entry("thm2_g", 3)
    r3 = g.run_claim("quotient-norm-one", limit=40)
    elapsed = time.monotonic() - t0
    ok = r1.passed and r2.passed and r3.passed \
        and r3.details["steps"] == 40
    _report(8, "pair truncation: modulus, deviation >= p^-2, "
               "quotient norms 1", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_09_haar_mc():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3):
        y0 = estimate_Y0(p, 100_000, seed=42)
        if not y0.within(3.0):
            ok = False
        series = estimate_E_prefix_series(p, 10, 100_000, seed=42)
        if not all(r.within(3.0) for r in series):
            ok = False
        rerun = estimate_E_prefix_series(p, 10, 100_000, seed=42)
        if [r.to_json_dict() for r in series] \
                != [r.to_json_dict() for r in rerun]:
            ok = False
    elapsed = time.monotonic() - t0
    _report(9, "Haar MC within 3 sigma, bit-identical reruns",
            ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_10_independent_families():
    t0 = time.monotonic()
    ok = True
    for k in range(1, 11):
        fam = generate_family(k)
        seen = {tuple(int(m in s) for s in fam) for m in range(2 ** k)}
        if len(seen) != 2 ** k:
            ok = False
            break
        # spot-check via the cell API for a few signatures
        for sig in list(product((0, 1), repeat=k))[:4]:
            member = next(iter(cell(fam, sig)))
            if member >= 2 ** k:
                ok = False
    elapsed = time.monotonic() - t0
    _report(10, "all 2^k Boolean cells nonempty in one period, k <= 10",
            ok and elapsed < 1.0, f"{elapsed:.2f}s")
