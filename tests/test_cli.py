import contextlib
import csv
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import padiczoo
from conftest import power_str, reference_lip_rows
from padiczoo.cli import HAAR_CLAIMS, main
from padiczoo.families import IndexSet
from padiczoo.zoo import ENTRY_NAMES, build_entry


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_ball_step(capsys):
    code, out, _ = run(capsys, "--prime", "5", "eval", "thm34i", "p^2",
                       "--set", "3,1")
    assert code == 0
    assert "5^4" in out


def test_eval_zero(capsys):
    code, out, _ = run(capsys, "--prime", "3", "eval", "thm2_f", "0")
    assert code == 0
    assert out.strip() == "0"


def test_eval_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "--prime", "3", "eval", "thm2_f", "1.5x")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("p, literal, want", [
    ("3", "0 (mod 3^8)", 0),  # a rendered bounded zero reads back
    ("3", "0 (mod 5^8)", 2),
    ("3", "1 3 * 3^0 (mod 3^2)", 2),  # a digit >= p
    ("11", "11 * 11^0 (mod 11^1)", 2),
    ("11", "10 * 11^0 (mod 11^1)", 0),
])
def test_eval_reads_rendered_literals(capsys, p, literal, want):
    code, out, err = run(capsys, "--prime", p, "eval", "thm34i", literal)
    assert code == want
    assert ("error" in err) == (want == 2)


def test_usage_error_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["--prime", "9", "list"]) == 2  # not a prime
    assert main(["eval", "thm34i", "--set", "1,2,3", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and 'expected "k,bit"' in err


@pytest.mark.parametrize("argv, err", [
    (["--prime", "4", "haar"], "error: 4 is not a prime number\n"),
    (["--prime", "4", "verify", "haar", "Y0"],
     "error: 4 is not a prime number\n"),
    (["--precision", "7", "haar"],
     "error: precision must be at least 8 digits\n"),
    (["--precision", "7", "table", "lip_fN"],
     "error: precision must be at least 8 digits\n"),
    (["--precision", "8", "list"], None),
])
def test_settings_checked_before_any_command(capsys, argv, err):
    # haar builds no PadicNumber: only main's check refuses its settings;
    # at the least precision, list prints what it prints by default
    want = run(capsys, "list") if err is None else (2, "", err)
    assert run(capsys, *argv) == want


def test_format_has_no_csv_choice(capsys):
    # `table` always writes CSV, so --format offers only text and json
    code, out, err = run(capsys, "--format", "csv", "eval", "thm2_f", "0")
    assert code == 2 and out == "" and "invalid choice" in err


@pytest.mark.parametrize("fmt, name, command", [
    ("json", "JSON", ["list"]), ("json", "JSON", ["table", "lip_fN"]),
    ("text", "text", ["verify", "thm34i", "strict-fail"]),
    ("text", "text", ["haar", "--samples", "10"])],
    ids=["list-json", "table-json", "verify-text", "haar-text"])
def test_format_is_refused_where_the_command_cannot_print_it(
        tmp_path, capsys, fmt, name, command):
    # list prints text and table prints CSV, verify and haar print JSON:
    # none passes its output off as the other format
    target = tmp_path / "out"
    assert run(capsys, "--format", fmt, "--out", str(target),
               *command) == (2, "", f"error: {command[0]} has no {name} "
                                    "output\n")
    assert not target.exists()


def test_insufficient_precision_exit_3(capsys):
    # an all-zero digit window is a precision-bounded zero: ball membership
    # for the sparse series cannot be decided
    code, _, err = run(capsys, "--prime", "2", "eval", "lip_fN",
                       "0 0 0 * 2^0 (mod 2^3)")
    assert code == 3
    assert "precision" in err


def test_verify_pass_and_fail(capsys):
    code, out, _ = run(capsys, "--prime", "5", "verify", "thm34i",
                       "strict-fail", "--limit", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["passed"]
    assert doc["prime"] == 5 and "seed" in doc
    # an empty trace cannot certify the claim: exit 1
    code, out, _ = run(capsys, "--prime", "5", "verify", "thm34i",
                       "strict-fail", "--limit", "0")
    assert code == 1


def test_verify_unknown_claim_exit_2(capsys):
    # both entry kinds name their claims as a sorted list
    for entry, have in (("thm34i", "['derivative-at-zero', 'strict-fail']"),
                        ("haar", "['E-prefix', 'Y0', 'slln']")):
        code, out, err = run(capsys, "--prime", "5", "verify", entry, "nope")
        assert code == 2 and out == ""
        assert err.endswith(f"claim 'nope'; have {have}\n")


def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    # one parser serves every call in the process; the settings, output
    # target and errors of one call must not leak into the next
    import padiczoo.cli as cli
    argv = ["--prime", "3", "eval", "cor15", "1/3"]
    target = tmp_path / "o.json"
    cli.build_parser.cache_clear()
    code, out, _ = run(capsys, "--prime", "3", "--precision", "32",
                       "--seed", "7", "--format", "json", "--out",
                       str(target), "eval", "cor15", "--beta", "1/7",
                       "--set", "3,1", "1/3")
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["seed"] == 7
    code, out, err = run(capsys, "eval", "cor15")
    assert code == 2 and out == "" and "required" in err
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: padiczoo")
    last = run(capsys, *argv)
    assert cli.build_parser.cache_info().misses == 1
    cli.build_parser.cache_clear()
    assert last[0] == 0
    assert last == run(capsys, *argv)  # the first call of a fresh parser


def test_import_builds_no_parser():
    # the parser is built on the first main call, not when cli is imported
    code = ("import padiczoo.cli as c\n"
            "print('built', c.build_parser.cache_info().currsize)\n")
    src = str(Path(padiczoo.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines()[-1] == "built 0"


def test_table(capsys):
    code, out, _ = run(capsys, "--prime", "2", "table", "lip_fN",
                       "--alpha", "2", "--n-max", "30")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,coeff_norm,coeff_norm_decimal,")
    assert len(lines) == 32
    # norms rendered as p^k strings alongside decimals
    assert any(",2^-" in line for line in lines[1:])


def _as_float(q: Fraction) -> float:
    try:
        return float(q)
    except OverflowError:
        return math.inf


def reference_table(p: int, alpha: int, family: tuple[int, int],
                    n_max: int) -> str:
    """``table lip_fN`` computed in Fraction arithmetic on the closed-form
    rows, as the CLI computed it before its integer kernel."""
    N = IndexSet(family[0], family[1])
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["n", "coeff_norm", "coeff_norm_decimal",
                "product_n1", f"product_alpha_{alpha}"])
    for n, k, m, norm in reference_lip_rows(N, p, n_max):
        p1 = norm * k
        pa = norm * Fraction(k) ** alpha
        w.writerow([n, power_str(p, norm), _as_float(norm), _as_float(p1),
                    _as_float(pa)])
    return buf.getvalue().rstrip("\n")


@pytest.mark.parametrize("alpha", [-3, -1, 0, 1, 2, 5])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_table_matches_fraction_reference(capsys, p, alpha):
    # integer pairs and int true division give the Fraction table byte for
    # byte, at every row count around the first wrap of sigma
    for family in ((3, 0), (2, 1), (1, 0)):
        for n_max in sorted({0, 1, p - 2, p - 1, p, 300}):
            code, out, _ = run(capsys, "--prime", str(p), "table", "lip_fN",
                               "--set", "%d,%d" % family, "--alpha",
                               str(alpha), "--n-max", str(n_max))
            assert code == 0
            assert out == reference_table(p, alpha, family, n_max) + "\n", \
                (family, n_max)


def test_table_overflow_matches_fraction_reference(capsys):
    # |a_k| k**2 passes the float range near n = 1100 at p = 2
    code, out, _ = run(capsys, "--prime", "2", "table", "lip_fN",
                       "--alpha", "2", "--n-max", "1100")
    assert code == 0
    assert out == reference_table(2, 2, (3, 0), 1100) + "\n"
    assert ",inf" in out and ",inf" not in out[:out.index("\n1000,")]


@pytest.mark.parametrize("n_max", ["-1", "-100"])
def test_table_negative_n_max_is_refused(capsys, n_max):
    # a negative row bound is a usage error, as a negative --limit is, not
    # a table of the header alone; 0 still gives the row n = 0
    assert run(capsys, "--prime", "3", "table", "lip_fN", "--n-max",
               n_max) == (2, "", "error: --n-max must be nonnegative\n")
    code, out, _ = run(capsys, "--prime", "3", "table", "lip_fN",
                       "--n-max", "0")
    assert code == 0 and len(out.splitlines()) == 2


def test_haar_command_reproducible(capsys):
    code1, out1, _ = run(capsys, "--prime", "3", "--seed", "11", "haar",
                         "--samples", "1500", "--k", "4")
    code2, out2, _ = run(capsys, "--prime", "3", "--seed", "11", "haar",
                         "--samples", "1500", "--k", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == 1
    assert len(doc["E_prefix"]) == 4


def test_verify_haar(capsys):
    code, out, _ = run(capsys, "--prime", "2", "verify", "haar", "Y0",
                       "--samples", "3000")
    assert code == 0
    doc = json.loads(out)
    assert doc["entry"] == "haar" and doc["passed"]


def test_list(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    for name in ("thm34i", "lip_fN", "thm16", "thm2_g", "haar"):
        assert name in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["--prime", "3", "--format", "json", "--out", str(target),
                 "eval", "thm2_f", "4"])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["schema"] == 1 and doc["value"].startswith("1 1")


def test_out_file_in_missing_directory_is_a_usage_error(tmp_path, capsys):
    # exit 1 is kept for a failed claim
    target = tmp_path / "missing" / "o.txt"
    code, out, err = run(capsys, "--prime", "5", "--out", str(target),
                         "list")
    assert code == 2 and out == "" and not target.parent.exists()
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_haar_large_prime_strict_json(capsys):
    # every one of 2000 draws survives both pairs: the estimate is 1.0
    code, out, _ = run(capsys, "--prime", "101", "verify", "haar",
                       "E-prefix", "--samples", "2000", "--k", "2")
    assert code == 0

    def refuse(name):
        raise ValueError(name)
    doc = json.loads(out, parse_constant=refuse)
    assert doc["passed"] and len(doc["reports"]) == 2


def test_verify_forwards_seed(capsys, monkeypatch):
    import padiczoo.cli as cli
    seeds, build = [], cli.build_entry

    def spying_build(*args, **kwargs):
        entry = build(*args, **kwargs)
        claim = entry.claims["zero-on-pzp"]

        def spy(seed=0, **kw):
            seeds.append(seed)
            return claim(seed=seed, **kw)
        entry.claims["zero-on-pzp"] = spy
        return entry
    monkeypatch.setattr(cli, "build_entry", spying_build)
    for argv in (["--seed", "7"], []):
        code, out, _ = run(capsys, "--prime", "3", *argv, "verify", "thm16",
                           "zero-on-pzp")
        assert code == 0 and json.loads(out)["seed"] == (7 if argv else 0)
    assert seeds == [7, 0]


def test_verify_limit_refused_where_claim_has_none(capsys):
    for entry, claim in (("thm2_f", "deviation"), ("thm34ii", "contraction"),
                         ("thm16", "zero-on-pzp"),
                         ("prop26", "derivative-zero"), ("haar", "Y0")):
        code, out, err = run(capsys, "--prime", "3", "verify", entry, claim,
                             "--limit", "3")
        assert code == 2 and out == ""
        assert "--limit" in err and "Traceback" not in err


GALLERY_CLAIMS = [(name, claim, set(inspect.signature(fn).parameters))
                  for name in ENTRY_NAMES
                  for claim, fn in sorted(build_entry(name, 3).claims.items())]


def test_verify_samples_forwarded_where_claim_takes_it(capsys):
    # and refused when negative, as a negative --limit is
    sampled = [(e, c) for e, c, params in GALLERY_CLAIMS if "samples" in params]
    assert {("thm16", "zero-on-pzp"), ("prop26", "derivative-zero")} \
        <= set(sampled)
    for entry, claim in sampled:
        code, out, _ = run(capsys, "--prime", "3", "verify", entry, claim,
                           "--samples", "7")
        assert code == 0
        assert json.loads(out)["details"]["samples"] == 7
        code, out, err = run(capsys, "--prime", "3", "verify", entry, claim,
                             "--samples", "-1")
        assert (code, out) == (2, "") and err.startswith("error: --samples")


@pytest.mark.parametrize("entry,claim,opt", [
    (entry, claim, opt) for entry, claim, params in GALLERY_CLAIMS
    for opt in ("--samples", "--k") if opt[2:] not in params])
def test_verify_refuses_option_the_claim_takes_no_value_for(capsys, entry,
                                                            claim, opt):
    code, out, err = run(capsys, "--prime", "3", "verify", entry, claim,
                         opt, "3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and opt in err


def test_verify_haar_keeps_its_defaults(capsys, monkeypatch):
    # without --samples and --k, verify haar draws 100000 samples, k = 10
    import padiczoo.cli as cli
    calls, real = [], cli.estimate_E_prefix_series

    def spy(p, k, n, seed):
        calls.append((k, n))
        return real(p, k, 300, seed)
    monkeypatch.setattr(cli, "estimate_E_prefix_series", spy)
    code, _, _ = run(capsys, "--prime", "3", "verify", "haar", "E-prefix")
    assert code in (0, 1) and calls == [(10, 100_000)]


def test_table_takes_no_beta(capsys):
    # table reads only the index set; --beta is a usage error, not ignored
    code, out, err = run(capsys, "table", "lip_fN", "--beta", "1/0")
    assert code == 2 and out == "" and "--beta" in err


def test_verify_limit_forwarded_under_claim_parameter(capsys):
    # lip_fN claims bound their scan by n_limit, the others by limit
    code, out, _ = run(capsys, "--prime", "3", "verify", "lip_fN",
                       "n1-decay", "--limit", "30")
    assert code == 0
    assert json.loads(out)["details"]["n_limit"] == 30
    code, out, _ = run(capsys, "--prime", "3", "verify", "cor15",
                       "quotient-growth", "--limit", "2")
    assert code == 0
    assert json.loads(out)["details"]["limit"] == 2


LIMITED_CLAIMS = [(name, claim) for name, claim, params in GALLERY_CLAIMS
                  if {"limit", "n_limit"} & params]


@pytest.mark.parametrize("entry,claim", LIMITED_CLAIMS)
def test_verify_limit_zero_fails_and_negative_is_refused(capsys, entry,
                                                         claim):
    # a claim that checked no point, step or row cannot pass
    code, out, _ = run(capsys, "--prime", "3", "verify", entry, claim,
                       "--limit", "0")
    assert code == 1 and not json.loads(out)["passed"]
    code, out, err = run(capsys, "--prime", "3", "verify", entry, claim,
                         "--limit", "-1")
    assert code == 2 and out == ""
    assert "--limit" in err and "Traceback" not in err


def test_verify_n1_decay_needs_a_row_from_n_two(capsys):
    code, out, _ = run(capsys, "--prime", "3", "verify", "lip_fN",
                       "n1-decay", "--limit", "1")
    assert code == 1 and not json.loads(out)["passed"]


def test_thm16_refuses_literal_without_digit_zero(capsys):
    # the head of x = p^-3 + ... needs digit 0, which is not known
    for literal in ("1 * 3^-3 (mod 3^0)", "1 2 * 3^-3 (mod 3^-1)"):
        code, out, err = run(capsys, "--prime", "3", "eval", "thm16",
                             literal)
        assert code == 3 and out == "" and "precision" in err


@pytest.mark.parametrize("precision, claim, need", [
    ("13", "deviation", 14)])
def test_thm2_f_claims_refuse_short_precision(capsys, precision, claim,
                                               need):
    code, out, err = run(capsys, "--precision", precision, "verify",
                         "thm2_f", claim)
    assert code == 3 and out == ""
    assert f"needs {need} digits" in err


@pytest.mark.parametrize("entry", ["lip_fN", "thm2_f", "thm2_g", "thm2_fN"])
def test_eval_refuses_points_off_z_p_on_z_p_entries(capsys, entry):
    # one membership check in the function call answers for all four
    assert run(capsys, "--prime", "3", "eval", entry, "1/3") \
        == (2, "", "error: defined on Z_p only\n")
    assert run(capsys, "--prime", "3", "eval", entry, "0 (mod 3^-2)") \
        == (3, "", "insufficient precision: membership in Z_p unknown "
                   "(retry with a larger --precision)\n")


# --- the CLI contract over drawn argv ----------------------------------------

CLAIM_NAMES = {**{name: sorted(build_entry(name, 3).claims)
                  for name in ENTRY_NAMES}, "haar": sorted(HAAR_CLAIMS)}
# the last line of a usage refusal: main's own, or argparse's
USAGE_LINE = re.compile(r"(padiczoo( \w+)?: )?error: \S.*")


def _strict_json(text: str):
    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


@st.composite
def _options(draw, table, rare=()):
    """Each option of ``table`` (option -> values) or none, in drawn
    order; a ``rare`` one, which most runs refuse, a quarter of the time."""
    argv = []
    for opt, values in draw(st.permutations(sorted(table.items()))):
        if draw(st.integers(0, 3)) >= (3 if opt in rare else 2):
            argv += [opt, str(draw(st.sampled_from(values)))]
    return argv


@st.composite
def _argv(draw):
    # a fifth of the primes and of the precisions are bad ones; the sizes
    # (--precision, --limit, --samples, --n-max, --k) are capped
    p = draw(st.sampled_from([2, 3, 5, 7] * 3 + [1, 4, -3]))
    argv = ["--prime", str(p), "--precision",
            str(draw(st.sampled_from([8, 12, 16, 24] * 2 + [-1, 7]))),
            *draw(_options({"--seed": [0, 1, -2, 2 ** 64],
                            "--format": ["text", "json", "json"]}))]
    entry_opts = {"--set": ["3,0", "3,1", "2,1", "3,2", "a,b"],
                  "--beta": ["1/7", "4", "6", "0", "p^-1"]}
    command = draw(st.sampled_from(["eval", "eval", "verify", "verify",
                                    "verify", "table", "haar", "list"]))
    argv.append(command)
    if command == "eval":
        # the Z_p entries are drawn at points off Z_p too
        argv += [draw(st.sampled_from([*ENTRY_NAMES, "nope"])),
                 draw(st.sampled_from([
                     "0", "1", "7", "-5", "1/3", "2/9", "p^2", "p^-2",
                     f"0 (mod {p}^-2)", f"0 (mod {p}^4)",
                     f"1 1 * {p}^-1 (mod {p}^3)", "1/0", "p^",
                     "99999999999999999999/7"])),
                 *draw(_options(entry_opts))]
    elif command == "verify":
        entry = draw(st.sampled_from(sorted(CLAIM_NAMES)))
        # haar's default is 100 000 samples, so haar always caps them
        claims = [*CLAIM_NAMES[entry] * 2, "nope"]
        argv += [entry, draw(st.sampled_from(claims)),
                 *draw(_options({**entry_opts, "--limit": [-1, 0, 1, 3],
                                 "--k": [-1, 0, 1, 3, 3],
                                 "--samples": [-1, 0, 1, 20, 20]},
                                rare=() if entry == "haar" else (
                                    "--beta", "--k", "--samples")))]
        if entry == "haar" and "--samples" not in argv:
            argv += ["--samples", "20"]
    elif command == "table":
        argv += [draw(st.sampled_from(["lip_fN", "lip_fN", "thm34i"])),
                 *draw(_options({"--set": entry_opts["--set"],
                                 "--alpha": [-2, 0, 1, 5],
                                 "--n-max": [-1, 0, 5, 30]}))]
    elif command == "haar":
        argv += ["--samples", str(draw(st.sampled_from([-1, 0, 1, 20, 20]))),
                 *draw(_options({"--k": [-1, 0, 1, 3, 3]}))]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
def test_cli_contract_over_drawn_argv(argv):
    # every run exits 0-3 without a traceback; a refusal says which kind it
    # is on its last stderr line, and a report that passes or fails prints
    # strict JSON where the command prints JSON
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    lines = err.splitlines()
    if code == 2:
        assert out == "" and USAGE_LINE.fullmatch(lines[-1]), err
    elif code == 3:
        assert out == "" and len(lines) == 1, err
        assert lines[0].startswith("insufficient precision: ")
    else:
        assert err == ""
        command = next(a for a in argv if a in (
            "eval", "verify", "table", "haar", "list"))
        if "json" in argv or command in ("verify", "haar"):
            _strict_json(out)
