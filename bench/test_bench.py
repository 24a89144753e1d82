"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import run  # noqa: E402

run.import_padiczoo()
import workloads  # noqa: E402


def short_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "3", "--seconds", "0.2", "--trace", str(trace), "--short"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_mode_prints_every_declared_metric(workload, trace):
    lines = short_run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [d["name"] for d in declared]
    for d in declared:
        metric = result["metrics"][d["name"]]
        assert metric["unit"] == d["unit"]
        assert isinstance(metric["value"], (int, float))
    for name, unit in run.UNITS.items():
        assert any(re.match(rf"{workload}\s+{name}\s+(n/a|\S+ {re.escape(unit)})",
                            line) for line in lines), name


def corrupting(label_prefix, corrupt):
    """An invoke that corrupts the output of the operations whose argv
    starts like ``label_prefix``."""
    def invoke(argv):
        rc, out = workloads.run_cli(argv)
        if [str(a) for a in argv[:len(label_prefix)]] == label_prefix:
            rc, out = corrupt(rc, out)
        return rc, out
    return invoke


def flip_last_value_digit(rc, out):
    obj = json.loads(out)
    head, sep, tail = obj["value"].partition(" *")
    digits = head.split()
    digits[-1] = "0" if digits[-1] != "0" else "1"
    obj["value"] = " ".join(digits) + sep + tail
    return rc, json.dumps(obj)


@pytest.mark.parametrize("workload, prefix, corrupt, reason", [
    ("eval_deep", ["--prime", "3", "--precision", "32"],
     flip_last_value_digit, "contradict"),
    ("verify_all", ["--prime", "2"],
     lambda rc, out: (rc, out.replace('"passed": true', '"passed": NaN')),
     "not strict JSON"),
    ("haar_mc", ["--prime", "2"], lambda rc, out: (1, out),
     "exit code 1 contradicts"),
])
def test_corrupted_output_is_counted(workload, prefix, corrupt, reason,
                                     capsys):
    clean = run.run_workload(workload, 3, 0, 0, True, SPEC)
    bad = run.run_workload(workload, 3, 0, 0, True, SPEC,
                           invoke=corrupting(prefix, corrupt))
    printed = capsys.readouterr().out
    assert bad["attempted"] == clean["attempted"]
    assert bad["failed"] > clean["failed"]
    assert bad["correct"] is False and clean["correct"] is True
    assert reason in printed and "UNEXPECTED" in printed
    ratio = bad["failed"] / bad["attempted"]
    assert re.search(rf"{workload}\s+fail_ratio\s+{ratio:.6g} ratio", printed)


def test_digit_mismatches_counts_shared_positions():
    D = workloads.Digits
    a = D(3, 0, 1 + 2 * 3 + 1 * 9, 3)        # digits 1 2 1
    b = D(3, 0, 1 + 2 * 3 + 2 * 9 + 27, 5)   # digits 1 2 2 1 0
    assert workloads.digit_mismatches(a, b) == (3, 1)
    assert workloads.digit_mismatches(a, D(3, 0, 0, None)) == (3, 3)
    assert workloads.digit_mismatches(D(3, 1, 1, 4), D(3, 1, 1, 2)) == (1, 0)


def test_tracer_restores_every_patched_name():
    import padiczoo.cli as cli
    import padiczoo.core as core
    import padiczoo.haar as haar
    import tracing

    before = (cli.main, core.PadicNumber.__dict__["from_rational"],
              haar.hashlib, core.InsufficientPrecision.__init__)
    with tracing.Tracer(workloads.HAAR_K) as tr:
        assert cli.main is not before[0]
        rc, _ = workloads.run_cli(["--prime", 3, "haar", "--samples", 50,
                                   "--k", workloads.HAAR_K])
    after = (cli.main, core.PadicNumber.__dict__["from_rational"],
             haar.hashlib, core.InsufficientPrecision.__init__)
    assert before == after
    m = tr.metrics(workloads.HAAR_PRIMES)
    assert m["cli.main.calls"] == 1 and m["haar.samples"] == 100
    assert m["haar.sha256_per_sample.p3"] > 0
