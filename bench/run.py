"""padiczoo benchmark: one workload per run, measured end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload verify_all --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--workload`` is ``verify_all``, ``haar_mc``, ``eval_deep`` or ``all``.
The run imports ``padiczoo`` from ``src/`` of the tree it sits in, times
passes over the workload's operations (see ``workloads.py``) until
``--seconds`` have passed and the workload's minimum pass count is met,
checks every output, and prints the metrics with their units.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json
with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.

Times are in reference seconds.  The shared machines this runs on change
speed by up to 2x in phases of 10-30 s, which no median over a run of
under a minute removes.  So a fixed pure-Python loop is timed before and
after every operation (and around set-up), and each time is scaled by
``CAL_SECONDS / loop time``: a reference second is a second on a machine
that runs the loop in ``CAL_SECONDS``.  Raw pass times and the loop time
are printed alongside.

``failed`` counts every operation whose output failed a check.  ``correct``
is false when any failure is neither a named known defect of the program
(``Op.known_defect``) nor a 3-sigma Monte Carlo verdict whose estimates pass
the benchmark's own 5-sigma check.

``--trace 1`` first runs untraced passes for half the time, then traced
passes (see ``tracing.py``); per-layer figures are medians over the traced
passes, workload figures come from the untraced ones, and
``trace.overhead`` is the ratio of traced to untraced pass time.
``--short`` runs a few small operations per workload, for the tests.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 9
CAL_LOOPS = 50_000
CAL_SECONDS = 0.004


def calibrate() -> float:
    """Seconds the machine takes right now for a fixed pure-Python loop."""
    t0 = perf_counter()
    s = 0
    for i in range(CAL_LOOPS):
        s += i * i
    return perf_counter() - t0


# Set-up in a fresh interpreter: import padiczoo and build the entries.
SETUP_CODE = f"""
import json, sys
from time import perf_counter
CAL_LOOPS = {CAL_LOOPS}
{inspect.getsource(calibrate)}
before = calibrate()
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import padiczoo, padiczoo.cli
from padiczoo.core import parse_padic
from padiczoo.zoo import build_entry
for name, p, n, beta in json.loads(sys.argv[2]):
    build_entry(name, p, n, beta=None if beta is None
                else parse_padic(beta, p, n))
raw = perf_counter() - t0
scale = 2 * {CAL_SECONDS} / (before + calibrate())
print(json.dumps({{"seconds": raw * scale, "module": padiczoo.__file__}}))
"""


class BenchError(Exception):
    """The benchmark cannot run here."""


class Timed(NamedTuple):
    op: object
    rc: int
    out: str
    raw_s: float
    s: float  # reference seconds


def import_padiczoo():
    if not (SRC / "padiczoo" / "__init__.py").is_file():
        raise BenchError(f"no padiczoo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import padiczoo
    module = Path(padiczoo.__file__).resolve()
    if SRC.resolve() not in module.parents:
        raise BenchError(f"padiczoo was imported from {module}, not {SRC}")
    return module


def commit() -> str:
    """HEAD of the tree's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(builds) -> float:
    """Median reference seconds to import padiczoo and build ``builds``,
    each time in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC),
             json.dumps(builds)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        out = json.loads(proc.stdout)
        if SRC.resolve() not in Path(out["module"]).resolve().parents:
            raise BenchError(f"set-up imported {out['module']}")
        times.append(out["seconds"])
    return statistics.median(times)


# -- passes -------------------------------------------------------------------

def run_pass(ops, invoke) -> list:
    """Run every operation once; outputs are checked later, outside the
    timed region.  Each time is scaled by the median of the calibration
    loops nearest to it: the one before and the one after the operation,
    and one more on each side."""
    raw, cal = [], []
    gc.collect()
    cal.append(calibrate())
    for op in ops:
        t0 = perf_counter()
        rc, out = op.call() if op.call else invoke(op.argv)
        raw.append((op, rc, out, perf_counter() - t0))
        cal.append(calibrate())
    return [Timed(*r, r[3] * CAL_SECONDS
                  / statistics.median(cal[max(0, i - 1):i + 3]))
            for i, r in enumerate(raw)]


def tolerated(op, failure) -> bool:
    """A failure that leaves ``correct`` true (it still counts as failed)."""
    return failure.statistical or bool(op.known_defect)


def check_pass(results, failures: dict) -> int:
    """Check each output; record one failure per label, an untolerated one
    if there is any.  Returns the number of failed operations."""
    n = 0
    for r in results:
        failure = r.op.check(r.rc, r.out)
        if failure is not None:
            n += 1
            if r.op.label not in failures or not tolerated(r.op, failure):
                failures[r.op.label] = (r.op, failure)
    return n


def tail_level(n: int) -> int:
    """Highest whole percentile with at least ten of n values beyond it;
    the median when n is too small for one above it."""
    return max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile: the mean of the order
    statistics weighted by a Beta(q(n+1), (1-q)(n+1)) density.  Unlike a
    single order statistic it does not jump when two operations of
    different cost swap places around the percentile's rank."""
    xs = sorted(values)
    n, f = len(xs), q / 100
    if n == 1:
        return xs[0]
    a, b = f * (n + 1), (1 - f) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 16 * n  # midpoint rule; each order statistic gets 16 points
    weights = [0.0] * n
    for k in range(steps):
        t = (k + 0.5) / steps
        weights[k // 16] += math.exp((a - 1) * math.log(t)
                                     + (b - 1) * math.log1p(-t) - log_beta)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def workload_figures(wl, passes) -> dict:
    """End-to-end figures of a list of passes over ``wl.ops``.

    Each operation's time is its median over the passes; wall, verify,
    eval, table and sampling times are sums of those.  Latency percentiles
    pool every operation of every pass.  The tail level is set by the
    workload's minimum pass count, so it does not move when a faster
    program fits more passes in a run.
    """
    ops = wl.ops
    per_op = [statistics.median(res[i].s for res in passes)
              for i in range(len(ops))]
    pooled = [r.s for res in passes for r in res]

    def total(keep):
        ts = [t for op, t in zip(ops, per_op) if keep(op)]
        return sum(ts) if ts else None

    level = tail_level(len(ops) * wl.min_passes)
    eval_s = total(lambda op: op.kind == "eval")
    sampling_s = total(lambda op: op.samples)
    return {
        "wall_s": sum(per_op),
        "op_p50_ms": percentile(pooled, 50) * 1000,
        "op_tail_ms": percentile(pooled, level) * 1000,
        "tail_level": level,
        "op_samples": len(pooled),
        "verify_s": total(lambda op: op.kind == "verify"),
        "evals_per_s": eval_s and sum(op.kind == "eval" for op in ops)
        / eval_s,
        "table_s": total(lambda op: op.kind == "table"),
        "samples_per_s": sampling_s and sum(op.samples for op in ops)
        / sampling_s,
    }


UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "verify_s": "s", "evals_per_s": "1/s", "table_s": "s",
         "samples_per_s": "1/s", "fail_ratio": "ratio", "peak_rss_mib": "MiB"}
WORKLOAD_FIGURES = ("verify_s", "evals_per_s", "table_s", "samples_per_s",
                    "fail_ratio")


def traced_layer_metrics(tr, results, haar_primes) -> dict:
    """Per-layer metrics of one traced pass, times in reference seconds."""
    m = tr.metrics(haar_primes)
    scale = sum(r.s for r in results) / sum(r.raw_s for r in results)
    for key in m:
        if key.endswith((".self_s", ".s")):
            m[key] *= scale
    m["cli.output_bytes"] = sum(len(r.out.encode()) for r in results)
    m["trace.spans"] = len(tr.spans)
    return m


def run_workload(name, seed, seconds, trace, short, spec, invoke=None):
    import tracing
    import workloads

    invoke = invoke or workloads.run_cli
    wl = workloads.WORKLOADS[name](random.Random(seed), short)
    setup_s = measure_setup(wl.builds)

    plain, traced, layer = [], [], []
    attempted = failed = 0
    failures = {}
    budget = seconds / 2 if trace else seconds
    start = perf_counter()
    while len(plain) < (1 if trace else wl.min_passes) \
            or perf_counter() - start < budget:
        plain.append(run_pass(wl.ops, invoke))
        attempted += len(wl.ops)
        failed += check_pass(plain[-1], failures)
    while trace and (not traced or perf_counter() - start < seconds):
        with tracing.Tracer(workloads.HAAR_K) as tr:
            traced.append(run_pass(wl.ops, invoke))
        layer.append(traced_layer_metrics(tr, traced[-1],
                                          workloads.HAAR_PRIMES))
        attempted += len(wl.ops)
        failed += check_pass(traced[-1], failures)

    fig = workload_figures(wl, plain)
    fig["setup_s"] = setup_s
    fig["fail_ratio"] = failed / attempted
    fig["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = all(tolerated(op, f) for op, f in failures.values())

    print(f"== {name}: {len(plain)} untraced and {len(traced)} traced passes "
          f"of {len(wl.ops)} operations")
    for key, unit in UNITS.items():
        value = fig[key]
        text = "n/a" if value is None else f"{value:.6g} {unit}"
        if key == "op_tail_ms":
            text += (f"  (p{fig['tail_level']} of {fig['op_samples']} "
                     f"operation latencies)")
        print(f"{name:<11} {key:<16} {text}")
    loop_s = statistics.median(r.raw_s / r.s * CAL_SECONDS
                               for res in plain for r in res)
    print(f"{name:<11} raw pass times   "
          + " ".join(f"{sum(r.raw_s for r in res):.4g}"
                     for res in plain + traced)
          + f" s; calibration loop {loop_s * 1000:.3g} ms"
          f" (reference {CAL_SECONDS * 1000:g} ms)")
    for label, (op, f) in sorted(failures.items()):
        kind = ("known defect: " + op.known_defect if op.known_defect else
                "statistical" if f.statistical else "UNEXPECTED")
        print(f"{name:<11} FAIL {label}: {f.reason} [{kind}]")

    if trace:
        # claims a workload does not run have no time of their own
        values = {d["name"]: 0.0 for d in spec["per_layer"]
                  if d["name"].startswith("zoo.claim.")}
        values.update((key, statistics.median(m.get(key, 0) for m in layer))
                      for key in set().union(*layer))
        values["trace.overhead"] = (workload_figures(wl, traced)["wall_s"]
                                    / fig["wall_s"])
        values.update((key, fig[key] or 0.0) for key in WORKLOAD_FIGURES)
        print(f"{name:<11} trace.overhead   {values['trace.overhead']:.4g}x"
              f"  ({values['trace.spans']:.0f} spans per traced pass)")
        metrics = select(spec["per_layer"], values)
    else:
        metrics = select(spec["end_to_end"], fig)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def select(declared, values) -> dict:
    """The declared metrics with their units; one the run did not measure
    is an error."""
    out = {}
    for d in declared:
        if values.get(d["name"]) is None:
            raise BenchError(f"metric {d['name']} was not measured")
        out[d["name"]] = {"value": values[d["name"]], "unit": d["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_all", "haar_mc", "eval_deep", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        module = import_padiczoo()
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        print("env " + json.dumps({
            "commit": commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": args.seed,
            "workload": args.workload, "trace": args.trace,
            "seconds": args.seconds, "padiczoo": str(module)}))
        names = (["verify_all", "haar_mc", "eval_deep"]
                 if args.workload == "all" else [args.workload])
        results = {n: run_workload(n, args.seed, args.seconds, args.trace,
                                   args.short, spec) for n in names}
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
