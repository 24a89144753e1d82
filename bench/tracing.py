"""Per-layer tracing of padiczoo from outside the program.

``Tracer`` replaces public functions of each module with timing wrappers
while it is installed, and puts the originals back afterwards.  A function
is wrapped under every name its callers look it up by: ``zoo`` imports
``pow_one_plus``, ``probe_*`` and ``schedule_exponent`` by name, and ``cli``
imports ``build_entry``, the Haar estimators, ``power_str``, ``parse_padic``
and ``lip_coefficient_rows`` by name, so patching only the defining module
would miss those calls.  Names a later version no longer has are skipped.

Spans are kept in memory around ``cli.main``, ``ZooEntry.run_claim``, the
probe runners and the Haar estimators.  The hot ``core`` operations keep
only a call count and self time.  Self time is a call's duration minus the
time of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import inspect
import random
from collections import Counter, defaultdict
from time import perf_counter

import padiczoo.cli as cli
import padiczoo.core as core
import padiczoo.families as families
import padiczoo.haar as haar
import padiczoo.quotients as quotients
import padiczoo.vanderput as vanderput
import padiczoo.zoo as zoo

_MISSING = object()
CORE_OPS = {"add": "__add__", "mul": "__mul__", "div": "__truediv__",
            "digit": "digit", "from_digits": "from_digits",
            "from_rational": "from_rational"}


class _CountingHashlib:
    """Stands in for ``hashlib`` inside ``padiczoo.haar``; counts sha256."""

    def __init__(self, real, counts: Counter):
        self._real, self._counts = real, counts

    def sha256(self, *args, **kwargs):
        self._counts["haar.sha256"] += 1
        return self._real.sha256(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Install with ``with Tracer(haar_k) as t:``; read ``t.metrics()``."""

    def __init__(self, haar_k: int):
        self.haar_k = haar_k
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.claim_s = defaultdict(float)
        self.spans = []  # [name, start, end, index of the enclosing span]
        self._frames = []  # child seconds of each open wrapped call
        self._open = []  # indices of open spans
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name, fn, span=False, after=None):
        frames, calls, self_s = self._frames, self.calls, self.self_s
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if span:
                spans.append([name, 0.0, 0.0, open_spans[-1] if open_spans
                              else -1])
                open_spans.append(len(spans) - 1)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dt
                calls[name] += 1
                self_s[name] += dt - frame[0]
                if span:
                    spans[open_spans.pop()][1:3] = [t0, t0 + dt]
            if after is not None:
                after(args, kwargs, result, dt)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _iter_timed(self, name, fn):
        """Times each step of a generator as a call named ``name``."""
        step = self._timed(name, next)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _patch(self, places, make):
        """Wrap ``owner.attr`` for each place with ``make(function)``; one
        wrapper per distinct function, so a call is counted once."""
        made = {}
        for owner, attr in places:
            raw = owner.__dict__.get(attr, _MISSING)
            if raw is _MISSING:
                continue
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            if fn not in made:
                made[fn] = make(fn)
            self._set(owner, attr, staticmethod(made[fn]) if is_static
                      else made[fn])

    # -- hooks ---------------------------------------------------------------

    def _arith_result(self, args, kwargs, result, dt):
        self.counts["core.results"] += 1
        if result.exact is not None:
            self.counts["core.exact_results"] += 1

    def _estimator(self, fn):
        sig = inspect.signature(fn)
        timed = self._timed("haar.estimator", fn, span=True)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            before = counts["haar.sha256"]
            result = timed(*args, **kwargs)
            counts["haar.samples"] += bound["samples"]
            if bound.get("k_max") == self.haar_k:
                p = bound["p"]
                counts[f"sha.{p}"] += counts["haar.sha256"] - before
                counts[f"sha_samples.{p}"] += bound["samples"]
            return result
        return wrapper

    def _claim(self, fn):
        def after(args, kwargs, result, dt):
            entry, claim = args[0], args[1] if len(args) > 1 else kwargs["name"]
            self.claim_s[f"{entry.name}.{claim}"] += dt
        return self._timed("zoo.run_claim", fn, span=True, after=after)

    def _probe(self, fn):
        def after(args, kwargs, result, dt):
            self.counts["quotients.probe.rows"] += len(result.rows)
        return self._timed("quotients.probe", fn, span=True, after=after)

    # -- install ---------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        P = core.PadicNumber
        for op, attr in CORE_OPS.items():
            after = self._arith_result if op in ("add", "mul", "div") else None
            self._patch([(P, attr)], lambda f, n=f"core.{op}", a=after:
                        self._timed(n, f, after=a))
        self._patch([(P, "render")], lambda f: self._timed("core.render", f))
        self._patch([(core, "pow_one_plus"), (zoo, "pow_one_plus")],
                    lambda f: self._timed("core.pow_one_plus", f,
                                          after=self._arith_result))
        self._patch([(core, "parse_padic"), (cli, "parse_padic")],
                    lambda f: self._timed("core.parse", f))

        counts, base_init = self.counts, core.InsufficientPrecision.__init__

        def raised(exc, *args):
            counts["core.insufficient_precision"] += 1
            base_init(exc, *args)
        self._set(core.InsufficientPrecision, "__init__", raised)

        self._patch([(cli, "main")],
                    lambda f: self._timed("cli.main", f, span=True))
        self._patch([(zoo.ZooEntry, "run_claim")], self._claim)
        self._patch([(quotients.PadicFunction, "__call__")],
                    lambda f: self._timed("zoo.evaluate", f))
        self._patch([(zoo, "build_entry"), (cli, "build_entry")],
                    lambda f: self._timed("zoo.build_entry", f))
        self._patch([(zoo, "lip_coefficient_rows"),
                     (cli, "lip_coefficient_rows")],
                    lambda f: self._iter_timed("zoo.lip_rows", f))
        self._patch([(random.Random, "randrange")],
                    lambda f: self._counted("zoo.sampler.draws", f))

        self._patch([(vanderput, "power_str"), (cli, "power_str")],
                    lambda f: self._timed("vanderput.power_str", f))
        self._patch([(vanderput, "schedule_exponent"),
                     (zoo, "schedule_exponent")],
                    lambda f: self._timed("vanderput.schedule_exponent", f))

        for name in ("probe_derivative", "probe_strict",
                     "probe_strict_order2"):
            self._patch([(quotients, name), (zoo, name)], self._probe)
        self._patch([(families.IndexSet, "__contains__"),
                     (families.CellEnumerator, "__contains__")],
                    lambda f: self._counted("families.contains", f))

        for name in ("estimate_E_prefix_series", "estimate_Y0",
                     "slln_report"):
            self._patch([(haar, name), (cli, name)], self._estimator)
        self._set(haar, "hashlib", _CountingHashlib(haar.hashlib,
                                                    self.counts))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # -- results ---------------------------------------------------------------

    def metrics(self, haar_primes) -> dict:
        calls, self_s, counts = self.calls, self.self_s, self.counts
        m = {}
        for op in (*CORE_OPS, "pow_one_plus"):
            m[f"core.{op}.calls"] = calls[f"core.{op}"]
            m[f"core.{op}.self_s"] = self_s[f"core.{op}"]
        results = counts["core.results"]
        m["core.exact_share"] = (counts["core.exact_results"] / results
                                 if results else 0.0)
        m["core.insufficient_precision"] = counts["core.insufficient_precision"]
        m["core.parse.self_s"] = self_s["core.parse"]
        m["core.render.self_s"] = self_s["core.render"]
        m["cli.main.calls"] = calls["cli.main"]
        m["cli.main.self_s"] = self_s["cli.main"]
        m["zoo.evaluate.calls"] = calls["zoo.evaluate"]
        m["zoo.evaluate.self_s"] = self_s["zoo.evaluate"]
        m["zoo.sampler.draws"] = counts["zoo.sampler.draws"]
        m["zoo.build_entry.self_s"] = self_s["zoo.build_entry"]
        m["zoo.lip_rows.self_s"] = self_s["zoo.lip_rows"]
        for key, seconds in self.claim_s.items():
            m[f"zoo.claim.{key}.s"] = seconds
        for name in ("power_str", "schedule_exponent"):
            m[f"vanderput.{name}.calls"] = calls[f"vanderput.{name}"]
            m[f"vanderput.{name}.self_s"] = self_s[f"vanderput.{name}"]
        m["quotients.probe.calls"] = calls["quotients.probe"]
        m["quotients.probe.rows"] = counts["quotients.probe.rows"]
        m["quotients.probe.self_s"] = self_s["quotients.probe"]
        m["families.contains.calls"] = counts["families.contains"]
        for p in haar_primes:
            n = counts[f"sha_samples.{p}"]
            m[f"haar.sha256_per_sample.p{p}"] = (counts[f"sha.{p}"] / n
                                                 if n else 0.0)
        m["haar.samples"] = counts["haar.samples"]
        m["haar.estimator.self_s"] = self_s["haar.estimator"]
        return m
