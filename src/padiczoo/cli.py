"""Command-line front end: evaluate gallery functions, run witness claims,
emit criterion tables and Monte Carlo reports.

Exit codes: 0 pass, 1 claim failure, 2 usage, parse or output error, 3
insufficient precision.

``main`` may be called any number of times in one process.  It builds the
argparse parser on its first call and reuses it for every later one, so an
in-process caller (a test suite, a benchmark harness, library code) pays
for the build once; a shell run builds one parser either way.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import io
import json
import math
import sys
from typing import Optional

from .core import DEFAULT_PRECISION, DomainError, InsufficientPrecision, \
    is_prime, parse_padic
from .haar import estimate_E_prefix_series, estimate_Y0, slln_report
from .zoo import ENTRY_NAMES, build_entry, entry_parameters, \
    lip_coefficient_rows
from .families import IndexSet

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3

# Each Monte Carlo claim by name: its reports at prime p and seed over
# ``samples`` draws.  Each looks its estimator up by name when it runs.
HAAR_CLAIMS = {
    "Y0": lambda p, seed, samples=100_000: [estimate_Y0(p, samples, seed)],
    "E-prefix": lambda p, seed, samples=100_000, k=10:
        estimate_E_prefix_series(p, k, samples, seed),
    "slln": lambda p, seed, samples=100_000, k=10:
        [slln_report(p, k, samples, seed)],
}
# The parameters each option may fill; the first one the callee names wins
_OPTION_PARAMETERS = {"--set": ("N",), "--beta": ("beta",), "--k": ("k",),
                      "--limit": ("limit", "n_limit"),
                      "--samples": ("samples",)}


def _emit_json(args, **fields) -> None:
    """The one JSON report envelope: schema, the run settings, then fields."""
    _emit(args, json.dumps({"schema": 1, "prime": args.prime,
                            "precision": args.precision, "seed": args.seed,
                            **fields}, indent=2))


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _keywords(callee: str, params, args, *options: str) -> dict:
    """A callee's keyword arguments from ``args``: the seed if ``params``
    names it, and each given option under the first of its parameters that
    ``params`` names.  An option with none there, or a negative size, raises
    DomainError."""
    kwargs = {"seed": args.seed} if "seed" in params else {}
    for opt in options:
        value = getattr(args, opt[2:])
        if value is None:
            continue
        key = next((k for k in _OPTION_PARAMETERS[opt] if k in params), None)
        if key is None:
            raise DomainError(f"{callee} takes no {opt}")
        if isinstance(value, int) and value < 0:
            raise DomainError(f"{opt} must be nonnegative")
        kwargs[key] = value
    return kwargs


def _entry_from_args(args):
    _keywords(f"entry {args.entry}", entry_parameters(args.entry), args,
              "--set", "--beta")
    beta = (None if args.beta is None
            else parse_padic(args.beta, args.prime, args.precision))
    return build_entry(args.entry, args.prime, args.precision,
                       *(args.set or (None, None)), beta)


def cmd_eval(args) -> int:
    entry = _entry_from_args(args)
    x = parse_padic(args.x, args.prime, args.precision)
    value = entry.function(x)
    if args.fmt == "json":
        _emit_json(args, entry=entry.name, x=x.render(),
                   value=value.render())
    else:
        _emit(args, value.render())
    return EXIT_PASS


def cmd_verify(args) -> int:
    if args.entry == "haar":
        _keywords("entry haar", (), args, "--set", "--beta")
        entry, claims = None, HAAR_CLAIMS
    else:
        entry = _entry_from_args(args)
        claims = entry.claims
    if args.claim not in claims:
        raise DomainError(
            f"unknown claim {args.claim!r}; have {sorted(claims)}")
    kwargs = _keywords(f"claim {args.claim!r} of {args.entry}",
                       inspect.signature(claims[args.claim]).parameters,
                       args, "--limit", "--samples", "--k")
    if entry is None:
        reports = claims[args.claim](args.prime, **kwargs)
        passed = all(r.within(3.0) for r in reports)
        fields = {"claim": args.claim, "passed": passed,
                  "reports": [r.to_json_dict() for r in reports]}
    else:
        result = entry.run_claim(args.claim, **kwargs)
        passed, fields = result.passed, result.to_json_dict()
    _emit_json(args, entry=args.entry, **fields)
    return EXIT_PASS if passed else EXIT_FAIL


def _decimal(a: int, q: int) -> float:
    """a / q, correctly rounded (int true division), or inf past the float
    range."""
    try:
        return a / q
    except OverflowError:
        return math.inf


def cmd_table(args) -> int:
    if args.entry != "lip_fN":
        raise DomainError("criterion tables are provided for lip_fN")
    if args.n_max < 0:
        raise DomainError("--n-max must be nonnegative")
    p = args.prime
    alpha = args.alpha
    N = IndexSet(*(args.set or (3, 0)))
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["n", "coeff_norm", "coeff_norm_decimal",
                "product_n1", f"product_alpha_{alpha}"])
    # q = p**m gives the norm p**-m and the products |a_k| * k as the pair
    # (k, q) and |a_k| * k**alpha as (k**alpha, q), or (1, k**-alpha * q) for
    # alpha < 0; m never decreases along sigma, so q is a running power
    q, m_q = 1, 0
    for n, k, m, member in lip_coefficient_rows(N, p, args.n_max):
        if member:
            q, m_q = q * p ** (m - m_q), m
            a, b = (k ** alpha, q) if alpha >= 0 else (1, k ** -alpha * q)
            w.writerow([n, f"{p}^{-m}", 1 / q, _decimal(k, q),
                        _decimal(a, b)])
        else:
            w.writerow([n, "0", 0.0, 0.0, 0.0])
    _emit(args, buf.getvalue().rstrip("\n"))
    return EXIT_PASS


def cmd_haar(args) -> int:
    samples = {} if args.samples is None else {"samples": args.samples}
    k = {} if args.k is None else {"k": args.k}
    reports = HAAR_CLAIMS["E-prefix"](args.prime, args.seed, **samples, **k)
    [y0] = HAAR_CLAIMS["Y0"](args.prime, args.seed, **samples)
    _emit_json(args, samples=y0.samples, Y0=y0.to_json_dict(),
               E_prefix=[r.to_json_dict() for r in reports])
    ok = y0.within(3.0) and all(r.within(3.0) for r in reports)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_list(args) -> int:
    lines = []
    for name in ENTRY_NAMES:
        entry = build_entry(name, args.prime, args.precision)
        lines.append(f"{name}: claims = {sorted(entry.claims)}")
    lines.append(f"haar: claims = {sorted(HAAR_CLAIMS)}")
    _emit(args, "\n".join(lines))
    return EXIT_PASS


def _parse_set(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError('expected "k,bit"')
    return int(parts[0]), int(parts[1])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it:
    parsing leaves it as it was, and every default is immutable."""
    parser = argparse.ArgumentParser(
        prog="padiczoo",
        description="Evaluate and verify pathological p-adic functions.")
    parser.add_argument("--prime", type=int, default=2)
    parser.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    parser.add_argument("--seed", type=int, default=0)
    # unset by default: each command names the formats it prints, and
    # main refuses an explicit other one
    parser.add_argument("--format", dest="fmt", default=None,
                        choices=("text", "json"))
    parser.add_argument("--out", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_entry_opts(sp):
        sp.add_argument("entry")
        sp.add_argument("--set", type=_parse_set,
                        help='index set as "k,bit" in the periodic family')

    sp = sub.add_parser("eval", help="evaluate an entry at a point")
    add_entry_opts(sp)
    sp.add_argument("--beta", help="exponent for the analytic entries")
    sp.add_argument("x", help='point, e.g. "7", "1/3", "p^2"')
    sp.set_defaults(fn=cmd_eval, formats=("text", "json"))

    sp = sub.add_parser("verify", help="run a registered claim")
    add_entry_opts(sp)
    sp.add_argument("--beta", help="exponent for the analytic entries")
    sp.add_argument("claim")
    sp.add_argument("--limit", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.set_defaults(fn=cmd_verify, formats=("json",))

    sp = sub.add_parser("table", help="emit a coefficient criterion table")
    add_entry_opts(sp)
    sp.add_argument("--alpha", type=int, default=2)
    sp.add_argument("--n-max", type=int, default=100)
    sp.set_defaults(fn=cmd_table, formats=("text",))

    sp = sub.add_parser("haar", help="Monte Carlo digit-pair statistics")
    sp.add_argument("--samples", type=int)
    sp.add_argument("--k", type=int)
    sp.set_defaults(fn=cmd_haar, formats=("json",))

    sp = sub.add_parser("list", help="list entries and their claims")
    sp.set_defaults(fn=cmd_list, formats=("text",))
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        if not is_prime(args.prime):
            raise DomainError(f"{args.prime!r} is not a prime number")
        if args.precision < 8:
            raise DomainError("precision must be at least 8 digits")
        if args.fmt not in (None, *args.formats):
            name = "JSON" if args.fmt == "json" else args.fmt
            raise DomainError(f"{args.command} has no {name} output")
        return args.fn(args)
    except InsufficientPrecision as exc:
        print(f"insufficient precision: {exc} "
              f"(retry with a larger --precision)", file=sys.stderr)
        return EXIT_PRECISION
    except (DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
