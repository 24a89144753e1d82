"""Operations, seeded inputs and output checks of the three benchmark workloads.

Every operation is either a command line run through ``padiczoo.cli.main``
(standard output captured, nothing written to disk) or a direct library
call.  Inputs come from the benchmark's own ``random.Random(seed)``, never
from ``padiczoo.haar``, so a change to the program's samplers cannot change
what is measured.

Workloads (each a closed loop with one client):

* ``verify_all`` -- ``verify <entry> <claim>`` for every non-Haar claim that
  ``padiczoo list`` prints, at p in {2, 3, 5}, in seeded order, plus one
  ``list`` per pass.  The paper's acceptance job: zoo claims, core
  add/sub/digit at precision 64, ``random.randrange`` draws and the
  van der Put schedule; it never touches ``haar``.
* ``haar_mc`` -- ``haar`` and ``verify haar slln`` at p in {2, 3, 101}, plus
  the p=101 small-sample ``verify haar E-prefix`` repro.  Nearly all time
  is sha256 and digit reduction.  At p=2 and p=3 most draws stop at an
  early zero pair (so on-demand hashing would do less work); at p=101 they
  almost never do (so it bypasses that mechanism).
* ``eval_deep`` -- ``eval`` of every entry at precisions 256 and 1024 on
  seeded points, ``thm16``/``cor15`` also with ``--beta 1/7`` on truncated
  and on rational points, one ``table lip_fN`` and one refine-or-refuse
  probe.  Bigints, O(n^2) digit access, the non-terminating binomial
  series, ``power_str`` and the CLI parse/render path; almost no sampling.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

PRIMES = (2, 3, 5)
HAAR_PRIMES = (2, 3, 101)
HAAR_K = 10
EVAL_PRECISIONS = (256, 1024)
REFERENCE_PRECISION = 64
TABLE_N_MAX = 5000
TABLE_REFERENCE_N_MAX = 200
# The MC verdict of the program is a 3-sigma test; the benchmark's own check
# uses the null-hypothesis error bar at 5 sigma, so a run only flags a
# sampler as wrong when the estimate is far off, not on an unlucky seed.
NULL_SIGMAS = 5.0

KNOWN_EXACT_TAG = (
    "pow_one_plus tags the truncated binomial partial sum as exact, so "
    "digits beyond the requested precision are made up")
KNOWN_ERROR_BAR_COLLAPSE = (
    "the plug-in standard error is 0 when the estimate is 0 or 1, so the "
    "verdict fails and z_score is written as Infinity")


@dataclass(frozen=True)
class Failure:
    reason: str
    # a 3-sigma Monte Carlo verdict the benchmark's own 5-sigma check accepts
    statistical: bool = False


@dataclass
class Op:
    """One operation of a pass.

    ``argv`` is run through ``padiczoo.cli.main``; ``call`` is a library
    call returning ``(exit_code, output)``.  ``check`` maps the exit code
    and captured output to ``None`` or a ``Failure``.
    """

    kind: str  # list | verify | eval | table | haar | probe
    label: str
    check: Callable[[int, str], Optional[Failure]]
    argv: Optional[list] = None
    call: Optional[Callable[[], tuple]] = None
    samples: int = 0  # Haar samples the operation draws
    known_defect: str = ""


@dataclass
class Workload:
    ops: list
    # (entry, prime, precision, beta literal or None) built by set-up
    builds: list = field(default_factory=list)
    min_passes: int = 1


def run_cli(argv: list) -> tuple:
    """Run the public entry point with standard output and error captured."""
    import padiczoo.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = padiczoo.cli.main([str(a) for a in argv])
    return rc, out.getvalue()


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def _load(rc: int, out: str):
    """(parsed JSON, None) or (None, Failure)."""
    try:
        return strict_json(out), None
    except ValueError as exc:
        return None, Failure(f"exit {rc}, output is not strict JSON: {exc}")


# -- digit windows -----------------------------------------------------------

@dataclass(frozen=True)
class Digits:
    """unit * p**valuation known modulo p**precision (None: exact zero)."""

    prime: int
    valuation: int
    unit: int
    precision: Optional[int]

    @staticmethod
    def of(x) -> "Digits":
        """From a padiczoo PadicNumber."""
        if x.unit == 0 and x.exact == 0:
            return Digits(x.prime, 0, 0, None)
        return Digits(x.prime, x.valuation, x.unit, x.abs_precision)

    def window(self, lo: int, hi: int) -> int:
        """The digits at positions lo..hi-1 as one integer."""
        if self.unit == 0 or self.valuation >= hi:
            return 0
        p = self.prime
        return self.unit * p ** (self.valuation - lo) % p ** (hi - lo)


def digit_mismatches(a: Digits, b: Digits) -> tuple:
    """(number of shared digit positions, positions where a and b differ)."""
    if a.prime != b.prime:
        return 0, 1
    tops = [d.precision for d in (a, b) if d.precision is not None]
    if not tops:
        return 0, 0
    hi = min(tops)
    lo = min([d.valuation for d in (a, b) if d.unit != 0] + [hi])
    if lo >= hi:
        return 0, 0
    wa, wb = a.window(lo, hi), b.window(lo, hi)
    if wa == wb:
        return hi - lo, 0
    p, wrong = a.prime, 0
    for _ in range(hi - lo):
        wa, da = divmod(wa, p)
        wb, db = divmod(wb, p)
        wrong += da != db
    return hi - lo, wrong


def digit_literal(rng, p: int, valuation: int, n_digits: int) -> tuple:
    """(rendered literal, Digits) of a seeded point with a nonzero leading
    digit, in the format ``d0 d1 ... * p^v (mod p^N)``."""
    ds = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n_digits - 1)]
    unit = 0
    for d in reversed(ds):
        unit = unit * p + d
    n = valuation + n_digits
    text = f"{' '.join(map(str, ds))} * {p}^{valuation} (mod {p}^{n})"
    return text, Digits(p, valuation, unit, n)


# -- checks --------------------------------------------------------------------

def check_list(expected: str):
    def check(rc, out):
        if rc != 0:
            return Failure(f"exit code {rc}")
        if out != expected:
            return Failure("list output differs from the set-up listing")
        return None
    return check


def check_verify(p: int, entry: str, claim: str):
    def check(rc, out):
        obj, bad = _load(rc, out)
        if bad:
            return bad
        if (obj.get("prime"), obj.get("entry"), obj.get("claim")) != \
                (p, entry, claim):
            return Failure("report echoes another prime, entry or claim")
        if obj.get("passed") is not True:
            return Failure(f"passed: false ({obj.get('details')})")
        if rc != 0:
            return Failure(f"exit code {rc} with passed: true")
        return None
    return check


def _mc_targets(report: dict, p: int) -> tuple:
    """(exact target, Bernoulli trials) of one MCReport."""
    stat, n = report["statistic"], report["samples"]
    if stat == "Y0":
        return 1 / p ** 2, n
    if stat == "E_prefix":
        return (1 - 1 / p ** 2) ** report["k"], n
    if stat == "slln":
        return 1 / p ** 2, n * report["n_pairs"]
    raise ValueError(f"unknown statistic {stat!r}")


def check_mc(p: int, samples: int, n_reports: int, key: Optional[str]):
    """Check a Monte Carlo report: strict JSON, exact targets, estimates
    within NULL_SIGMAS null-hypothesis error bars, and an exit code that
    matches the report's own 3-sigma verdicts.  ``key`` selects the reports
    of a ``verify haar`` run; ``None`` reads a ``haar`` run."""
    def check(rc, out):
        obj, bad = _load(rc, out)
        if bad:
            return bad
        if obj.get("prime") != p:
            return Failure("report echoes another prime")
        reports = obj[key] if key else [obj["Y0"], *obj["E_prefix"]]
        if len(reports) != n_reports:
            return Failure(f"{len(reports)} reports, expected {n_reports}")
        verdict = True
        for r in reports:
            target, trials = _mc_targets(r, p)
            if r["samples"] != samples or \
                    not math.isclose(r["target"], target, rel_tol=1e-12):
                return Failure(f"{r['statistic']}: wrong samples or target")
            null_se = math.sqrt(target * (1 - target) / trials)
            if abs(r["estimate"] - target) > NULL_SIGMAS * null_se:
                return Failure(f"{r['statistic']}: estimate {r['estimate']} "
                               f"is off target {target}")
            verdict &= abs(r["estimate"] - target) <= 3.0 * r["stderr"]
        if key and obj.get("passed") is not verdict:
            return Failure("passed contradicts the reports")
        if rc != (0 if verdict else 1):
            return Failure(f"exit code {rc} contradicts the reports")
        if not verdict:
            return Failure("3-sigma verdict failed", statistical=True)
        return None
    return check


def check_eval(x: Optional[Digits], reference):
    """The value parses with parse_padic, the echoed point is the input,
    and the value agrees with the precision-64 reference on shared digits."""
    from padiczoo.core import DomainError, parse_padic

    want = Digits.of(reference)

    def check(rc, out):
        obj, bad = _load(rc, out)
        if bad:
            return bad
        if rc != 0:
            return Failure(f"exit code {rc}")
        p = want.prime
        try:
            value = Digits.of(parse_padic(obj["value"], p))
            echoed = Digits.of(parse_padic(obj["x"], p))
        except DomainError as exc:
            return Failure(f"output does not parse: {exc}")
        if x is not None and digit_mismatches(echoed, x)[1]:
            return Failure("echoed point differs from the input")
        shared, wrong = digit_mismatches(value, want)
        if wrong:
            return Failure(f"{wrong} of {shared} shared digits contradict "
                           f"the precision-{REFERENCE_PRECISION} value")
        return None
    return check


def check_table(n_max: int, reference: str):
    ref_rows = list(csv.reader(io.StringIO(reference)))

    def check(rc, out):
        if rc != 0:
            return Failure(f"exit code {rc}")
        rows = list(csv.reader(io.StringIO(out)))
        if len(rows) != n_max + 2 or rows[0] != ref_rows[0]:
            return Failure(f"{len(rows)} rows or a wrong header")
        if rows[:len(ref_rows)] != ref_rows:
            return Failure("table contradicts its prefix at a smaller --n-max")
        for i, (n, norm, decimal, *products) in enumerate(rows[1:]):
            base, _, k = norm.partition("^")
            exact = 0.0 if norm == "0" else float(Fraction(int(base)) ** int(k))
            if int(n) != i or float(decimal) != exact or \
                    any(float(v) < 0 for v in products):
                return Failure(f"row {i} is inconsistent: {norm}, {decimal}")
        return None
    return check


def check_probe(rc, out):
    obj = strict_json(out)
    if obj["wrong"]:
        return Failure(f"{obj['wrong']} of {obj['digits']} refined digits "
                       f"contradict precision {obj['reference']}; first "
                       f"at position {obj['first']}")
    return None


def refine_or_refuse_probe() -> tuple:
    """At p=3 read digits 16..63 of (1 + 3/(1-3))**(1/7) computed at
    precision 16: each must equal the precision-64 digit or raise
    InsufficientPrecision."""
    import padiczoo.core as core
    p, lo_n, hi_n = 3, 16, 64
    y = core.PadicNumber.from_rational(p, 1 - p, p)
    alpha = core.PadicNumber.from_rational(1, 7, p)
    lo = core.pow_one_plus(y, alpha, lo_n)
    hi = core.pow_one_plus(y, alpha, hi_n)
    wrong, first = 0, None
    for i in range(lo_n, hi_n):
        try:
            d = lo.digit(i)
        except core.InsufficientPrecision:
            continue
        if d != hi.digit(i):
            wrong += 1
            first = i if first is None else first
    out = json.dumps({"wrong": wrong, "digits": hi_n - lo_n,
                      "reference": hi_n, "first": first})
    return (1 if wrong else 0), out


# -- workloads -------------------------------------------------------------------

def _listing(p: int) -> dict:
    """entry -> claims, as ``padiczoo list`` prints them (Haar excluded)."""
    rc, out = run_cli(["--prime", p, "list"])
    if rc != 0:
        raise RuntimeError(f"padiczoo list exited {rc}")
    claims = {}
    for line in out.splitlines():
        name, _, rest = line.partition(": claims = ")
        if name != "haar":
            claims[name] = json.loads(rest.replace("'", '"'))
    return claims


def verify_all(rng, short: bool = False) -> Workload:
    # cli verify does not pass --seed on to the claims (cmd_verify in
    # src/padiczoo/cli.py), so the claims draw from seed 0 whatever the
    # workload seed; the seed still sets the order and is echoed back.
    primes = (2,) if short else PRIMES
    ops, builds = [], []
    for p in primes:
        for entry, claims in _listing(p).items():
            builds.append((entry, p, 64, None))
            for claim in claims:
                if short and claim not in ("strict-fail", "center-values"):
                    continue
                ops.append(Op("verify", f"verify {entry} {claim} p={p}",
                              check_verify(p, entry, claim),
                              argv=["--prime", p, "--seed",
                                    rng.randrange(2 ** 31), "verify",
                                    entry, claim]))
    rng.shuffle(ops)
    listing = run_cli(["list"])[1]
    ops.insert(0, Op("list", "list", check_list(listing), argv=["list"]))
    return Workload(ops, builds, min_passes=1 if short else 2)


def haar_mc(rng, short: bool = False) -> Workload:
    # at p=101 a first-pair zero has probability 1/10201, so fewer samples
    # than 100000 often see none and hit the error-bar collapse below
    samples = 2000 if short else 100_000
    ops = []
    for p in HAAR_PRIMES[:2] if short else HAAR_PRIMES:
        seed = rng.randrange(2 ** 31)
        ops.append(Op("haar", f"haar p={p}",
                      check_mc(p, samples, 1 + HAAR_K, None),
                      argv=["--prime", p, "--seed", seed, "haar",
                            "--samples", samples, "--k", HAAR_K],
                      samples=2 * samples))
        seed = rng.randrange(2 ** 31)
        ops.append(Op("verify", f"verify haar slln p={p}",
                      check_mc(p, samples, 1, "reports"),
                      argv=["--prime", p, "--seed", seed, "verify", "haar",
                            "slln", "--samples", samples, "--k", HAAR_K],
                      samples=samples))
    # a fixed regression repro, not a sampled input: at seed 0 every draw
    # survives both pairs, the estimate is 1.0 and the error bar collapses
    ops.append(Op("verify", "verify haar E-prefix p=101 n=2000 k=2",
                  check_mc(101, 2000, 2, "reports"),
                  argv=["--prime", 101, "--seed", 0, "verify", "haar",
                        "E-prefix", "--samples", 2000, "--k", 2],
                  samples=2000, known_defect=KNOWN_ERROR_BAR_COLLAPSE))
    return Workload(ops, [], min_passes=1 if short else 3)


def _reference(entry: str, p: int, beta: Optional[str], x) -> object:
    """The entry at REFERENCE_PRECISION evaluated at x."""
    from padiczoo.core import parse_padic
    from padiczoo.zoo import build_entry
    n = REFERENCE_PRECISION
    b = None if beta is None else parse_padic(beta, p, n)
    return build_entry(entry, p, n, beta=b).function(x)


def eval_deep(rng, short: bool = False) -> Workload:
    from padiczoo.core import parse_padic
    from padiczoo.zoo import build_entry

    primes = (3,) if short else PRIMES
    precisions = (32,) if short else EVAL_PRECISIONS
    ops, builds = [], []

    def add(entry, p, n, beta, text, x):
        """``x`` is the Digits of a digit literal, None for a rational."""
        point = parse_padic(text, p, REFERENCE_PRECISION)
        if x is not None:  # a literal keeps its own precision: cut it
            point = point.truncated(REFERENCE_PRECISION)
        ref = _reference(entry, p, beta, point)
        opts = [] if beta is None else ["--beta", beta]
        label = " ".join([f"eval {entry} p={p} n={n}", *opts,
                          "rational" if x is None else "digits"])
        ops.append(Op("eval", label, check_eval(x, ref),
                      argv=["--prime", p, "--precision", n, "--format",
                            "json", "eval", entry, *opts, text]))
        builds.append((entry, p, n, beta))

    for p in primes:
        for entry in _listing(p):
            # units of Z_p for Z_p entries; valuation -1 for Q_p entries, so
            # the shell entries leave pZ_p and run their analytic branch
            domain = build_entry(entry, p, 16).function.domain_tag
            v = 0 if domain == "Zp" else -1
            for n in precisions:
                add(entry, p, n, None, *digit_literal(rng, p, v, n))
        for entry in ("thm16", "cor15"):
            for n in precisions:
                add(entry, p, n, "1/7", *digit_literal(rng, p, -1, n))
                # fixed, not seeded: the exact path's cost grows with the
                # size of the rational, so a seeded one would make the
                # workload's cost depend on the seed
                add(entry, p, n, "1/7", f"11/{7 * p}", None)
    n_max = 50 if short else TABLE_N_MAX
    table = ["--prime", 2, "table", "lip_fN", "--alpha", 2, "--n-max"]
    ref_rc, ref = run_cli(table + [min(n_max, TABLE_REFERENCE_N_MAX)])
    if ref_rc != 0:
        raise RuntimeError(f"reference table exited {ref_rc}")
    ops.append(Op("table", f"table lip_fN p=2 n-max={n_max}",
                  check_table(n_max, ref), argv=table + [n_max]))
    builds.append(("lip_fN", 2, 64, None))
    ops.append(Op("probe", "refine-or-refuse pow_one_plus p=3 16->64",
                  check_probe, call=refine_or_refuse_probe,
                  known_defect=KNOWN_EXACT_TAG))
    rng.shuffle(ops)
    return Workload(ops, builds, min_passes=1 if short else 3)


WORKLOADS = {"verify_all": verify_all, "haar_mc": haar_mc,
             "eval_deep": eval_deep}
