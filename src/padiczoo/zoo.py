"""The gallery of pathological p-adic functions, one entry per construction.

Each entry packages an evaluable function with its known derivative (when a
closed form exists) and named, machine-checkable claims.  Entries are
registered under short stable names for the CLI.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import count, cycle, islice, takewhile, tee
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .core import DEFAULT_PRECISION, DomainError, InsufficientPrecision, \
    PadicNumber, _digit_io, ord_int, pow_one_plus
from .families import IndexSet
from .haar import Stream
from .quotients import PadicFunction, TraceRow, WitnessTrace, phi_r, \
    probe_derivative, probe_strict
from .vanderput import criterion_products, schedule_exponent


# ---------------------------------------------------------------------------
# entry scaffolding

@dataclass(frozen=True)
class ClaimResult:
    claim: str
    passed: bool
    details: dict

    def to_json_dict(self) -> dict:
        return {"claim": self.claim, "passed": self.passed,
                "details": self.details}


# claim size parameters that must be positive; other integer sizes may be 0
_SIZE_FLOORS = {"threshold": 1}


@dataclass(frozen=True)
class ZooEntry:
    """A gallery function on Q_p or Z_p for one prime, with its closed-form
    derivative when one is known and its named claims.  ``beta`` is set
    only on the shell entries of ``thm16_fbeta``, whose derivative
    ``poly_combine`` composes from it; the pinched entries of ``cor15``
    take an exponent too but leave it unset.  ``build_entry`` names an
    entry by its registry key, a builder called directly after itself, and
    passes it only the index set or exponent its builder's signature names."""

    name: str
    prime: int
    function: PadicFunction
    derivative: Optional[PadicFunction] = None
    beta: Optional[PadicNumber] = None
    claims: dict = field(default_factory=dict)

    def run_claim(self, name: str, **kwargs) -> ClaimResult:
        """Report claim ``name``'s (passed, details) under its name; an
        integer size below its floor (``seed`` has none) raises DomainError."""
        if name not in self.claims:
            raise DomainError(
                f"unknown claim {name!r}; have {sorted(self.claims)}")
        for key, value in kwargs.items():
            low = _SIZE_FLOORS.get(key, 0)
            if key != "seed" and isinstance(value, int) and value < low:
                raise DomainError(f"{key} must be at least {low}")
        return ClaimResult(name, *self.claims[name](**kwargs))


def _zero_derivative(fn: PadicFunction) -> PadicFunction:
    """The derivative 0 of ``fn``, on its domain."""
    zero = PadicNumber.zero(fn.prime, fn.precision)
    return replace(fn, evaluator=lambda x: zero)


def _upto(indices: Iterable[int], limit: int) -> Iterator[int]:
    """The indices of an increasing stream up to ``limit``."""
    return takewhile(lambda n: n <= limit, indices)


def _square_index(abs_precision: int) -> int:
    """The least n >= 1 with n**2 >= abs_precision: a point known only to
    vanish mod p**abs_precision can lie on the branches n**2 from there on."""
    return math.isqrt(max(0, abs_precision - 1)) + 1


def _probe_claim(trace: WitnessTrace, row_ok: Callable[[TraceRow], bool],
                 shown: Optional[dict] = None) -> tuple:
    """Passes when the trace has rows and each satisfies ``row_ok``.  The
    details are the step count, then ``shown`` (the verdict by default)."""
    passed = bool(trace.rows) and all(row_ok(r) for r in trace.rows)
    if shown is None:
        shown = {"verdict": trace.verdict.kind}
    return passed, {"steps": len(trace.rows), **shown}


def modulus(fn, omega, first, per_depth: int = 32, seed: int = 0) -> tuple:
    """At ``per_depth`` drawn x and each depth k from ``first`` below the
    precision, f at x mod p**k is known to omega(k) digits and agrees with
    f(x).  Since an answer agrees with the answer at every refinement of its
    input, this is |f(x) - f(y)| <= p**-omega(k) whenever x = y mod p**k."""
    p, precision = fn.prime, fn.precision
    draw, depths = Stream(seed), range(first, precision)
    for _ in range(per_depth):
        x = draw.zp(p, precision)
        fx = fn(x)
        for k in depths:
            fk = fn(x.truncated(k))
            if fk.abs_precision < omega(k) or not fk.agrees_with(fx):
                return False, {"k": k, "x": x.render()}
    return per_depth * len(depths) > 0, {"per_depth": per_depth,
                                         "depths": len(depths)}


# ---------------------------------------------------------------------------
# locally constant step on the disjoint balls inside spheres |x| = p^-n

# The witness claims run fn at the witnesses of the indices in members(start),
# an IndexSet's or a cell's, with norms scaled by |c|: on the cell where only
# member 1 holds, c_1 f_1 + ... + c_K f_K equals c_1 f_1 at every witness.

def strict_fail(fn, members, c, precision, limit: int = 40) -> tuple:
    """Phi_1 at thm34i's pairs (p**n, p**n - p**2n), on and off ball n,
    agrees with c and has norm |c|."""
    p = c.prime

    def pairs() -> Iterator:
        for n in _upto(members(1), limit):
            w = max(precision, 2 * n + 4)
            x = PadicNumber.from_rational(p ** n, 1, p, w)
            y = PadicNumber.from_rational(p ** n - p ** (2 * n), 1, p, w)
            yield n, (x, y)

    trace = probe_strict(fn, pairs(), steps=limit)
    return _probe_claim(trace, lambda r: r.quotient.agrees_with(c)
                        and r.norm == c.abs_value())


def derivative_at_zero(fn, members, c, precision, limit: int = 40) -> tuple:
    """The quotients f(x) / x at thm34i's ball points x = p**n converge,
    with norms |c| p**-n."""
    p = c.prime
    points = ((n, PadicNumber.from_rational(p ** n, 1, p,
                                            max(precision, 2 * n + 4)))
              for n in _upto(members(1), limit))
    trace = probe_derivative(fn, PadicNumber.zero(p, precision), points,
                             steps=limit)
    converges = trace.verdict.kind == "converges_to"
    return _probe_claim(trace, lambda r: converges
                        and r.norm == c.abs_value() * Fraction(p) ** -r.index)


def thm34i_fN(N: IndexSet, p: int,
              precision: int = DEFAULT_PRECISION) -> ZooEntry:
    """Step function equal to p**2n on the ball p**n + p**(2n+1) Z_p (the
    x = p**n u with u = 1 mod p**(n+1)) for n in N; zero elsewhere.
    Continuously differentiable with zero derivative, but first difference
    quotients stay away from 0 along the canonical pair witness."""

    def evaluate(x: PadicNumber) -> PadicNumber:
        if x.is_bounded_zero:
            # any ball x could lie in has index >= abs_precision
            return PadicNumber.bounded_zero(p, 2 * max(1, x.abs_precision))
        n = x.valuation
        if n < 1 or n not in N:
            return PadicNumber.zero(p, 2 * precision)
        # x = p**n u is on the ball iff u = 1 mod p**(n+1); k digits known
        if x.exact is not None and x.abs_precision < 2 * n + 1:
            x = x.at_precision(2 * n + 1)
        k = min(n + 1, x.abs_precision - n)
        if x.unit % p ** k != 1:
            return PadicNumber.zero(p, 2 * precision)
        if k <= n:
            # undecided: f is p**2n on the ball and 0 off it
            return PadicNumber.bounded_zero(p, 2 * n)
        return PadicNumber.from_rational(p ** (2 * n), 1, p, 2 * precision)

    fn = PadicFunction(evaluate, p, precision)
    bind = (fn, N.members, PadicNumber.one(p, precision), precision)

    # the derivative is 0 at the origin too, via |f(x)/x| = p^-n -> 0
    return ZooEntry(thm34i_fN.__name__, p, fn, _zero_derivative(fn), claims={
                        "strict-fail": functools.partial(strict_fail, *bind),
                        "derivative-at-zero":
                            functools.partial(derivative_at_zero, *bind),
                    })


# ---------------------------------------------------------------------------
# digit-spreading contraction x_n -> x_n p^{2n}

@functools.lru_cache(maxsize=256)
def _chunk_table(p: int, offsets: tuple) -> Sequence[int]:
    """For each w in [0, p**c), c digits as in core's digit I/O at p: the
    sum of digit j of w times p**2j over the member offsets j."""
    return tuple(sum(ds[j] * p ** (2 * j) for j in offsets)
                 for ds in _digit_io(p).split)


@functools.lru_cache(maxsize=256)
def _spread_table(N: IndexSet, p: int, low: int, hi: int) -> tuple:
    """What ``_spread`` needs for the digits low, low+1, ... below hi:
    p**2low, p**c, and the triples (p**(b - b'), chunk table or None for one
    digit, p**2b) of the chunks of c digits (core's digit I/O) at offsets b
    that hold a member, where b' is the offset of the chunk before (0 for
    the first)."""
    io = _digit_io(p)
    c, chunks, last = ord_int(io.chunk, p), [], 0
    for b in range(0, hi - low, c):
        offsets = tuple(j for j in range(min(c, hi - low - b))
                        if low + b + j in N)
        if offsets:
            chunks.append((p ** (b - last), _chunk_table(p, offsets)
                           if io.split else None, p ** (2 * b)))
            last = b
    return p ** (2 * low), io.chunk, tuple(chunks)


def _spread(u: int, table: tuple) -> int:
    """thm34ii's kernel: sum of a_n * p**2n over the members n of the
    table's N in [low, hi), where a_n is digit n - low of the integer u.
    Each chunk is read after dividing u by a small power of p."""
    scale, chunk, chunks = table
    total = 0
    for skip, t, w2 in chunks:
        u //= skip
        d = u % chunk
        total += (t[d] if t else d) * w2
    return total * scale


def order2_witness(fn, members, c, precision, limit: int = 40) -> tuple:
    """Phi_2 along thm34ii's triples (p**n, 0, p**n + p**n'), where n' is
    the member after n, has norm |c|."""
    p = c.prime

    def triples() -> Iterator:
        for n, n_next in zip(_upto(members(0), limit),
                             islice(members(0), 1, None)):
            w = max(precision, 2 * n_next + 4)
            x = PadicNumber.from_rational(p ** n, 1, p, w)
            y = PadicNumber.zero(p, w)
            z = PadicNumber.from_rational(p ** n + p ** n_next, 1, p, w)
            yield n, (x, y, z)

    trace = probe_strict(fn, triples(), steps=limit)
    return _probe_claim(trace, lambda r: r.norm == c.abs_value(),
                        {"norms": [str(r.norm) for r in trace.rows[:5]]})


def thm34ii_gN(N: IndexSet, p: int,
               precision: int = DEFAULT_PRECISION) -> ZooEntry:
    """Digit-spreading map: digit a_n of x (n in N, n >= 0) contributes
    a_n * p**2n.  Satisfies |g(x)-g(y)| <= |x-y|**2, hence is strictly
    differentiable with zero derivative; second difference quotients along
    the canonical triples have constant norm."""

    def evaluate(x: PadicNumber) -> PadicNumber:
        if x.is_exact_zero:
            return PadicNumber.zero(p, 2 * precision)
        hi = x.abs_precision
        if hi <= 0:
            raise InsufficientPrecision("no nonnegative digits known")
        # the digits from position low = max(0, v) upward
        low = max(0, x.valuation)
        total = _spread(x.unit // p ** (low - x.valuation),
                        _spread_table(N, p, low, hi))
        return PadicNumber.from_unit(p, 0, total, 2 * hi)

    fn = PadicFunction(evaluate, p, precision)

    # |g(x) - g(y)| <= |x - y|**2; g refuses a point with no digit known
    return ZooEntry(thm34ii_gN.__name__, p, fn, _zero_derivative(fn), claims={
                        "contraction": functools.partial(
                            modulus, fn, lambda k: 2 * k, 1),
                        "order2-witness": functools.partial(
                            order2_witness, fn, N.members,
                            PadicNumber.one(p, precision), precision),
                    })


# ---------------------------------------------------------------------------
# disjoint van der Put balls and the sparse coefficient schedule

def _sigma_parts(n: int, p: int) -> tuple[int, int]:
    """sigma(n) = u * p**j as (u, j), with 1 <= u < max(p, 2) prime to p."""
    j, r = divmod(n, max(p - 1, 1))
    return r + 1, j


def lip_coefficient_rows(N: IndexSet, p: int,
                         n_limit: int) -> Iterator[tuple[int, int, int, bool]]:
    """Integer rows (n, sigma(n), m_sigma(n), n in N) of the sparse van der
    Put series, for n <= n_limit: |a_sigma(n)| is p**-m_sigma(n) for n in N
    and 0 otherwise.

    sigma(n) = u * p**j (``_sigma_parts``) keeps p**j as a running power of
    p, multiplied by p once per wrap (u = 1), so no row computes a fresh
    power.  m_sigma(n) is ``schedule_exponent(sigma(n), p)``, which never
    decreases along sigma (see there).
    """
    power = 1
    for n in range(n_limit + 1):
        u, _ = _sigma_parts(n, p)
        if u == 1 and n:
            power *= p
        k = u * power
        yield n, k, schedule_exponent(k, p), n in N


def _lip_products(N: IndexSet, p: int, n_limit: int,
                  alpha: int) -> Iterator[tuple[int, tuple]]:
    """(n, |a_sigma(n)| sigma(n)**alpha as an integer pair) for the members
    n of N up to n_limit, in lowest terms: for sigma(n) = u p**j the row
    (u, m - alpha j) gives p**-m (u p**j)**alpha unchanged."""
    rows, keys = tee((n, _sigma_parts(n, p), m) for n, _, m, member
                     in lip_coefficient_rows(N, p, n_limit) if member)
    return zip((n for n, _, _ in keys), criterion_products(
        ((u, m - alpha * j) for _, (u, j), m in rows), alpha, p))


def lip_fN(N: IndexSet, p: int,
           precision: int = DEFAULT_PRECISION) -> ZooEntry:
    """Sparse van der Put series with coefficient p**m_sigma(n) on the ball
    around sigma(n) for n in N: zero-derivative strictly differentiable but
    not Lipschitz of any order above 1.

    The centers sigma(n) = u * p**j with 1 <= u < p have the pairwise
    disjoint balls u * p**j + p**(j+1) Z_p, which cover Z_p minus 0.  So a
    point's ball is the one of its valuation j and leading digit u, at
    n = j * max(p - 1, 1) + u - 1, and no other digit is read."""

    def evaluate(x: PadicNumber) -> PadicNumber:
        if x.is_exact_zero:
            return PadicNumber.zero(p, precision)
        if x.is_bounded_zero:
            raise InsufficientPrecision(
                "ball membership needs a resolved leading digit")
        u = x.unit % p
        if x.valuation * max(p - 1, 1) + u - 1 not in N:
            return PadicNumber.zero(p, precision)
        m = schedule_exponent(u * p ** x.valuation, p)
        return PadicNumber.from_rational(p ** m, 1, p, precision + m)

    fn = PadicFunction(evaluate, p, precision, domain_tag="Zp")

    def claim_n1_decay(n_limit: int = 10_000) -> tuple:
        # the products a / q are compared exactly, as integer
        # cross-products, with the bound p / log n at the float log n
        worst_a, worst_q, checked = 0, 1, 0
        for n, (a, q) in _lip_products(N, p, n_limit, 1):
            if n < 2:
                continue
            checked += 1
            log_num, log_den = math.log(n).as_integer_ratio()
            if a * log_num > p * q * log_den:
                return False, {"n": n}
            if a * worst_q > worst_a * q:
                worst_a, worst_q = a, q
        return checked > 0, {
            "n_limit": n_limit, "max_product": worst_a / worst_q}

    def claim_lip2_unbounded(n_limit: int = 10_000,
                             threshold: int = 100) -> tuple:
        # the running sup of the products first exceeds the threshold
        # where a single one does
        first_cross = next((n for n, (a, q) in _lip_products(N, p, n_limit, 2)
                            if a > threshold * q), None)
        return first_cross is not None, {
            "n_limit": n_limit, "threshold": threshold,
            "first_crossing": first_cross}

    return ZooEntry(lip_fN.__name__, p, fn, _zero_derivative(fn), claims={
                        "n1-decay": claim_n1_decay,
                        "lip2-unbounded": claim_lip2_unbounded,
                    })


# ---------------------------------------------------------------------------
# analytic branch functions with unbounded derivative

def _head_and_offset(x: PadicNumber, p: int) -> Optional[tuple]:
    """Split x with |x| >= 1 as head + y: head collects the digits at
    positions <= 0 and y lies in pZ_p.  None when x is in pZ_p."""
    if x.is_exact_zero or x.is_bounded_zero:
        # all of pZ_p (and any zero-like x in it) maps to the zero branch
        if x.is_bounded_zero and x.abs_precision < 1:
            raise InsufficientPrecision("sign of the valuation is unknown")
        return None
    if x.valuation >= 1:
        return None
    if x.abs_precision < 1:
        raise InsufficientPrecision(
            f"digit {x.abs_precision} unknown at precision {x.abs_precision}")
    n = -x.valuation
    # the digits at positions -n..0 are the lowest n + 1 digits of the unit
    head = PadicNumber.from_rational(x.unit % p ** (n + 1), p ** n, p,
                                     x.abs_precision)
    return n, x - head


def _shell_sum(terms: Sequence[tuple], p: int,
               precision: int) -> PadicFunction:
    """The shell function sum c p**(-n d) (1+y)**alpha over the terms
    (d, c, alpha), at x = head + y with |head| = p**n >= 1 and y in pZ_p;
    zero on pZ_p.  A coefficient c of None stands for 1."""
    alphas = [a for _, _, a in terms]

    def evaluate(x: PadicNumber) -> PadicNumber:
        split = _head_and_offset(x, p)
        if split is None:
            return PadicNumber.zero(p, precision)
        n, y = split
        gammas = []
        for d, c, _ in terms:
            scale = PadicNumber.from_rational(1, p ** (n * d), p, precision)
            gammas.append(scale if c is None else scale * c)
        return _sum_of_powers(gammas, alphas, y, precision)

    return PadicFunction(evaluate, p, precision)


def thm16_fbeta(beta: PadicNumber, p: int,
                precision: int = DEFAULT_PRECISION) -> ZooEntry:
    """On each shell x = head + y with |head| = p**n >= 1 and y in pZ_p the
    value is p**-n (1+y)**beta; zero on pZ_p.  Differentiable everywhere
    with derivative p**-n beta (1+y)**(beta-1), unbounded as n grows."""
    if beta.is_zero_like:
        raise DomainError("exponent must be nonzero")
    if beta.valuation < 0:
        raise DomainError("exponent must lie in Z_p")
    fn = _shell_sum([(1, None, beta)], p, precision)
    dfn = _shell_sum([(1, beta, beta - PadicNumber.one(p, precision))], p,
                     precision)

    def claim_unbounded_derivative(limit: int = 20) -> tuple:
        beta_norm = beta.abs_value()
        for n in range(1, limit + 1):
            x = PadicNumber.from_rational(1, p ** n, p, precision)
            want = beta_norm * Fraction(p) ** n
            got = dfn(x).abs_value()
            if got != want:
                return False, {"n": n, "got": str(got)}
        return limit >= 1, {"limit": limit}

    def claim_zero_on_pzp(samples: int = 100, seed: int = 0) -> tuple:
        draw = Stream(seed)
        for _ in range(samples):
            y = draw.zp(p, precision, min_valuation=1)
            if not fn(y).is_exact_zero:
                return False, {"y": y.render()}
        return samples >= 1, {"samples": samples}

    return ZooEntry(thm16_fbeta.__name__, p, fn, dfn, beta, claims={
        "unbounded-derivative": claim_unbounded_derivative,
        "zero-on-pzp": claim_zero_on_pzp,
    })


def _sum_of_powers(gammas, alphas, y: PadicNumber,
                   precision: int) -> PadicNumber:
    p = y.prime
    total = PadicNumber.zero(p, precision)
    for g, a in zip(gammas, alphas):
        total = total + g * pow_one_plus(y, a, precision)
    return total


def _pzp_patterns(p: int, depth: int, precision: int) -> Iterator[PadicNumber]:
    """Nonzero y = sum c_j p**j, 1 <= j <= depth, in increasing pattern order."""
    for t in range(1, p ** depth):
        yield PadicNumber.from_unit(p, 1, t, max(precision, depth + 1))


@dataclass(frozen=True)
class Monomial:
    coefficient: PadicNumber
    exponents: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.exponents)


def poly_combine(entries: Sequence[ZooEntry], monomials: Sequence[Monomial],
                 precision: int = DEFAULT_PRECISION) -> ZooEntry:
    """Polynomial (no free term) in zoo functions, evaluated pointwise: the
    one evaluator of combinations of entries.

    When every entry is a ``thm16_fbeta`` shell (has a ``beta``) the
    composed derivative is attached in closed form; the aggregate exponents
    must be pairwise distinct and nonzero at working precision, otherwise
    the combination is rejected.
    """
    if not monomials:
        raise DomainError("polynomial must have at least one monomial")
    seen = set()
    for m in monomials:
        if len(m.exponents) != len(entries):
            raise DomainError("exponent tuple length must match entries")
        if any(k < 0 for k in m.exponents):
            raise DomainError("exponents must be nonnegative")
        if m.degree < 1:
            raise DomainError("free term is not allowed")
        if not isinstance(m.coefficient, PadicNumber):
            raise DomainError("monomial coefficients must be PadicNumber "
                              f"values, not {type(m.coefficient).__name__}")
        if m.coefficient.prime != entries[0].prime:
            raise DomainError(f"prime mismatch: {m.coefficient.prime} vs "
                              f"{entries[0].prime}")
        if m.coefficient.is_zero_like:
            raise DomainError("monomial coefficients must be nonzero")
        if m.exponents in seen:
            raise DomainError("exponent tuples must be pairwise distinct")
        seen.add(m.exponents)
    p = entries[0].prime
    if any(e.prime != p for e in entries):
        raise DomainError("entries must share one prime")
    if len(monomials) == 1 and monomials[0].degree == 1 \
            and monomials[0].coefficient.exact == 1:
        return entries[monomials[0].exponents.index(1)]
    # the entries some monomial raises to a power, None for the others
    used = [e if any(m.exponents[i] for m in monomials) else None
            for i, e in enumerate(entries)]

    def evaluate(x: PadicNumber) -> PadicNumber:
        vals = [e.function(x) if e else None for e in used]
        total = PadicNumber.zero(p, precision)
        for m in monomials:
            # an exact-1 coefficient is no factor: its product would cut
            # the term to the coefficient's digits
            term = None if m.coefficient.exact == 1 else m.coefficient
            for v, k in zip(vals, m.exponents):
                if k:
                    f = v if k == 1 else v ** k
                    term = f if term is None else term * f
            total = total + term
        return total

    derivative, claims = None, {}
    betas = [e.beta for e in entries]
    if all(b is not None for b in betas):
        derivative, claims = _shell_derivative(monomials, betas, p, precision)
    zp = any(e and e.function.domain_tag == "Zp" for e in used)
    fn = PadicFunction(evaluate, p, precision, domain_tag="Zp" if zp else "Qp")
    return ZooEntry("poly", p, fn, derivative, claims=claims)


def _shell_derivative(monomials, betas, p,
                      precision) -> tuple[PadicFunction, dict]:
    """The closed-form derivative of a polynomial in shell entries with
    exponents ``betas``, and its derivative-norm-growth claim."""
    one = PadicNumber.one(p, precision)
    agg = []
    for m in monomials:
        beta_r = PadicNumber.zero(p, precision)
        for b, k in zip(betas, m.exponents):
            beta_r = beta_r + PadicNumber.from_int(k, p, precision) * b
        agg.append(beta_r)
    for i, a in enumerate(agg):
        if a.is_zero_like:
            raise DomainError("aggregate exponents must be nonzero")
        for b in agg[i + 1:]:
            if (a - b).is_zero_like:
                raise DomainError(
                    "aggregate exponents must be pairwise distinct")

    # d/dx of c (shell)**beta_r is c beta_r p**(-n d) (1+y)**(beta_r - 1)
    terms = [(m.degree, m.coefficient * b, b - one)
             for m, b in zip(monomials, agg)]
    degrees = sorted({d for d, _, _ in terms}, reverse=True)
    # per degree, the coefficients and exponents of its terms
    groups = {d: ([c for e, c, _ in terms if e == d],
                  [a for e, _, a in terms if e == d]) for d in degrees}
    derivative = _shell_sum(terms, p, precision)

    def claim_derivative_norm_growth(n_max: int = 20) -> tuple:
        k1 = degrees[0]
        gammas, alphas = groups[k1]
        y1 = PadicNumber.zero(p, precision)
        base = _sum_of_powers(gammas, alphas, y1, precision)
        if base.is_zero_like:  # the first y in pZ_p moving the group
            y1 = next((y for y in _pzp_patterns(p, 2, precision)
                       if not (_sum_of_powers(gammas, alphas, y, precision)
                               - base).is_zero_like), None)
        if y1 is None:
            return False, {"reason": "no nonvanishing witness found"}
        c = _sum_of_powers(gammas, alphas, y1, precision).abs_value()
        # first n from which the leading group dominates every other group
        n0 = 1
        for d in degrees[1:]:
            s = _sum_of_powers(*groups[d], y1, precision)
            if s.is_zero_like:
                continue
            sn = s.abs_value()
            while Fraction(p) ** (n0 * d) * sn >= Fraction(p) ** (n0 * k1) * c:
                n0 += 1
        for n in range(n0, n_max + 1):
            x = PadicNumber.from_rational(1, p ** n, p, precision) + y1
            want = Fraction(p) ** (n * k1) * c
            got = derivative(x).abs_value()
            if got != want:
                return False, {"n": n, "got": str(got), "want": str(want)}
        return n_max >= n0, {
            "n0": n0, "n_max": n_max, "leading_degree": k1,
            "constant_norm": float(c), "witness": y1.render()}

    return derivative, {"derivative-norm-growth": claim_derivative_norm_growth}


# ---------------------------------------------------------------------------
# pinched analytic branch: continuous everywhere, wild at one point

def cor15_gbeta(beta: PadicNumber, a: PadicNumber, p: int,
                precision: int = DEFAULT_PRECISION) -> ZooEntry:
    """On the closed ball of radius p**-(n^2+1) around a + p**(n^2) the
    value is p**n [p**-(n^2)(x-a)]**beta; zero elsewhere."""
    for q in (beta.prime, a.prime):
        if q != p:
            raise DomainError(f"prime mismatch: {q} vs {p}")
    if beta.is_zero_like or beta.valuation < 0:
        raise DomainError("exponent must be a nonzero p-adic integer")
    one = PadicNumber.one(p, precision)

    def branch(d: PadicNumber) -> Optional[tuple]:
        """(n, y) for x = a + d on the ball around a + p**(n^2), where
        p**-(n^2) d = 1 + y; None off the balls.  d is nonzero."""
        v = d.valuation
        n = math.isqrt(v) if v >= 1 else 0
        if n < 1 or n * n != v or d.digit(v) != 1:
            return None
        y = PadicNumber.from_rational(p ** v, 1, p, d.abs_precision)
        return n, d / y - one

    def evaluate(x: PadicNumber) -> PadicNumber:
        d = x - a
        if d.is_bounded_zero:
            # x could be in a ball with n^2 >= abs_precision only
            return PadicNumber.bounded_zero(p, _square_index(d.abs_precision))
        b = None if d.is_exact_zero else branch(d)
        if b is None:
            return PadicNumber.zero(p, precision)
        n, y = b
        return PadicNumber.from_int(p ** n, p, precision + n) \
            * pow_one_plus(y, beta, precision)

    def derivative(x: PadicNumber) -> PadicNumber:
        d = x - a
        if d.is_exact_zero:
            raise DomainError("not differentiable at the pinch point")
        if d.is_bounded_zero:
            raise InsufficientPrecision(
                f"value bounded by p^-{_square_index(d.abs_precision)}")
        b = branch(d)
        if b is None:
            return PadicNumber.zero(p, precision)
        n, y = b
        scale = PadicNumber.from_rational(p ** n, p ** (n * n), p, precision)
        return scale * beta * pow_one_plus(y, beta - one, precision)

    fn = PadicFunction(evaluate, p, precision)

    def claim_values_on_centers(limit: int = 6) -> tuple:
        for n in range(1, limit + 1):
            x = a + PadicNumber.from_int(p ** (n * n), p, precision + n * n)
            got = fn(x)
            want = PadicNumber.from_int(p ** n, p, precision)
            if not got.agrees_with(want):
                return False, {"n": n}
        return limit >= 1, {"limit": limit}

    return ZooEntry(cor15_gbeta.__name__, p, fn,
                    PadicFunction(derivative, p, precision),
                    claims={"center-values": claim_values_on_centers})


def cor15_Fbeta(beta: PadicNumber, a: PadicNumber, p: int,
                precision: int = DEFAULT_PRECISION) -> ZooEntry:
    """Sum of the shell function and the pinched branch around ``a``:
    continuous everywhere, differentiable except at a, derivative unbounded
    both near and far from a."""
    one = PadicNumber.one(p, precision)
    fn = linear_combination([thm16_fbeta(beta, p, precision),
                             cor15_gbeta(beta, a, p, precision)],
                            [one, one], precision).function

    def claim_quotient_growth(limit: int = 6) -> tuple:
        for n in range(1, limit + 1):
            w = max(precision, n * n + n + 8)
            x = a + PadicNumber.from_int(p ** (n * n) + p ** (n * n + 1), p, w)
            q = phi_r(fn, (x, a))
            want = Fraction(p) ** (n * n - n)
            if q.abs_value() != want:
                return False, {"n": n, "got": str(q.abs_value())}
        return limit >= 1, {"limit": limit}

    def claim_continuity_at_center(limit: int = 5) -> tuple:
        # |x - a| < p^{1-n^2} must force |F(x)| <= p^-n
        fa = fn(a)
        checked = 0
        for n in range(1, limit + 1):
            for ball_n in range(n, n + 3):
                w = max(precision, ball_n * ball_n + ball_n + 8)
                x = a + PadicNumber.from_int(
                    p ** (ball_n * ball_n) + p ** (ball_n * ball_n + 2), p, w)
                if (x - a).abs_value() >= Fraction(p) ** (1 - n * n):
                    continue
                checked += 1
                val = fn(x) - fa
                if val.norm_upper() > Fraction(p) ** (-n):
                    return False, {"n": n, "ball_n": ball_n}
        return checked > 0, {"limit": limit}

    return ZooEntry(cor15_Fbeta.__name__, p, fn, claims={
                        "quotient-growth": claim_quotient_growth,
                        "continuity-at-center": claim_continuity_at_center,
                    })


# ---------------------------------------------------------------------------
# sphere step functions: bounded derivative off 0, not Lipschitz of any order

def prop26_fN(N: Optional[IndexSet], p: int,
              precision: int = DEFAULT_PRECISION) -> ZooEntry:
    """p**n on the sphere |x| = p**-(n^2) for n in N (all n >= 1 when N is
    None); zero elsewhere.  Locally constant off 0 with zero derivative,
    not Lipschitz of any positive order at 0."""

    def evaluate(x: PadicNumber) -> PadicNumber:
        if x.is_exact_zero:
            return PadicNumber.zero(p, precision)
        if x.is_bounded_zero:
            return PadicNumber.bounded_zero(p, _square_index(x.abs_precision))
        v = x.valuation
        n = math.isqrt(v) if v >= 1 else 0
        if n >= 1 and n * n == v and (N is None or n in N):
            return PadicNumber.from_int(p ** n, p, precision + n)
        return PadicNumber.zero(p, precision)

    def derivative(x: PadicNumber) -> PadicNumber:
        if x.is_exact_zero:
            raise DomainError("not differentiable at 0")
        if x.is_bounded_zero:
            raise InsufficientPrecision("the point may be 0")
        return PadicNumber.zero(p, precision)

    fn = PadicFunction(evaluate, p, precision)
    members = count if N is None else N.members

    def claim_ratio_growth(limit: int = 10) -> tuple:
        checked = 0
        for n in _upto(members(1), limit):
            x = PadicNumber.from_int(p ** (n * n), p,
                                     max(precision, n * n + 8))
            fx = fn(x).abs_value()
            for alpha in (1, 2):
                want = Fraction(p) ** ((-1 + alpha * n) * n)
                if fx / x.abs_value() ** alpha != want:
                    return False, {"n": n, "alpha": alpha}
            checked += 1
        return bool(checked), {"points": checked, "limit": limit}

    def claim_derivative_zero(samples: int = 272, seed: int = 0) -> tuple:
        # f reads only v(x), and a step of valuation v + 1 keeps it: slot i
        # draws at valuation v = -4, ..., precision - 1 in turn
        draw = Stream(seed)
        for v in islice(cycle(range(-4, precision)), samples):
            x = draw.nonzero(p, precision, (v, v + 1))
            h = PadicNumber.from_unit(p, v + 1, 1, x.abs_precision)
            if not phi_r(fn, (x + h, x)).is_zero_like:
                return False, {"x": x.render()}
        return samples >= 1, {"samples": samples}

    return ZooEntry(prop26_fN.__name__, p, fn,
                    PadicFunction(derivative, p, precision), claims={
                        "ratio-growth": claim_ratio_growth,
                        "derivative-zero": claim_derivative_zero,
                    })


# ---------------------------------------------------------------------------
# digit-pair truncation: differentiable off a measure-zero set

def _first_zero_pair(r: int, p: int, pairs: int) -> Optional[int]:
    """thm2_f's kernel: index of the first (0, 0) digit pair among the first
    ``pairs`` digit pairs of the integer r >= 0, or None."""
    base = p * p
    for i in range(pairs):
        r, pair = divmod(r, base)
        if pair == 0:
            return i
    return None


def thm2_f(p: int, precision: int = DEFAULT_PRECISION) -> ZooEntry:
    """Identity until the first zero digit pair, then truncation there; zero
    when the first pair already vanishes.  Continuous; differentiable
    exactly at points with a zero pair, where it is locally constant."""

    def evaluate(x: PadicNumber) -> PadicNumber:
        if x.is_exact_zero:
            return PadicNumber.zero(p, precision)
        pairs = x.abs_precision // 2
        if pairs < 1:
            raise InsufficientPrecision("first digit pair unknown")
        r = x.residue(2 * pairs)
        i = _first_zero_pair(r, p, pairs)
        if i is None:
            # no zero pair among the known pairs: agrees with x so far
            return x.truncated(2 * pairs)
        return PadicNumber.from_int(r % p ** (2 * i), p, precision)

    fn = PadicFunction(evaluate, p, precision, domain_tag="Zp")

    def claim_deviation(steps: int = 10, seed: int = 0) -> tuple:
        # the first step needs 13 digits, and the point has 2*(precision//2)
        if precision < 14:
            raise InsufficientPrecision("deviation needs 14 digits")
        x = Stream(seed).no_zero_pair(p, precision)
        one = PadicNumber.one(p, precision)
        count = 0
        for n in range(steps):
            if 2 * n + 12 >= x.abs_precision:
                break
            # copy pairs 0..n, zero out pair n+1, restart with a 1 digit
            xbar = PadicNumber.from_unit(
                p, 0, x.residue(2 * n + 2) + p ** (2 * n + 4), x.abs_precision)
            dev = phi_r(fn, (x, xbar)) - one
            if dev.is_bounded_zero or dev.norm_upper() < Fraction(p) ** -2:
                return False, {"n": n}
            count += 1
        return count > 0, {"steps": count}

    # f answers the 2 (k // 2) digits of the pairs it reads, and refuses
    # a point with no whole pair known
    return ZooEntry(thm2_f.__name__, p, fn, claims={
                        "continuity-modulus": functools.partial(
                            modulus, fn, lambda k: k - k % 2, 2),
                        "deviation": claim_deviation,
                    })


def quotient_norm_one(fn, members, c, precision, limit: int = 40) -> tuple:
    """The quotients at 0 along p**n / (1 - p) = p**n (1 + p + p**2 + ...),
    on thm2_g's ball n, have norm |c|."""
    p = c.prime
    points = ((n, PadicNumber.from_rational(p ** n, 1 - p, p,
                                            max(precision, n + 16)))
              for n in _upto(members(1), limit))
    trace = probe_derivative(fn, PadicNumber.zero(p, precision), points,
                             steps=limit)
    return _probe_claim(trace, lambda r: r.norm == c.abs_value())


def thm2_g(p: int, precision: int = DEFAULT_PRECISION,
           N: Optional[IndexSet] = None) -> ZooEntry:
    """Rescaled copies p**n f(x') on the disjoint balls p**n + p**(n+1) Z_p
    (restricted to n in N when given); zero elsewhere.  Continuous, with
    quotient norms identically 1 along the canonical sequence at 0."""
    f = thm2_f(p, precision).function

    def evaluate(x: PadicNumber) -> PadicNumber:
        if x.is_bounded_zero:
            return PadicNumber.bounded_zero(p, x.abs_precision)
        n = x.valuation
        if n < 1 or x.digit(n) != 1 or (N is not None and n not in N):
            return PadicNumber.zero(p, precision)
        if x.abs_precision < n + 3:
            # x' below lacks its first digit pair; f(x') lies in Z_p
            return PadicNumber.bounded_zero(p, n)
        shift = PadicNumber.from_int(p ** n, p, x.abs_precision)
        xprime = (x - shift) / PadicNumber.from_int(p ** (n + 1), p,
                                                    x.abs_precision + n + 1)
        return PadicNumber.from_int(p ** n, p, precision + n) * f(xprime)

    fn = PadicFunction(evaluate, p, precision, domain_tag="Zp")

    return ZooEntry(thm2_g.__name__, p, fn, claims={
        "quotient-norm-one": functools.partial(
            quotient_norm_one, fn, count if N is None else N.members,
            PadicNumber.one(p, precision), precision)})


# ---------------------------------------------------------------------------
# combinations

def linear_combination(entries: Sequence[ZooEntry],
                       coeffs: Sequence[PadicNumber],
                       precision: int = DEFAULT_PRECISION) -> ZooEntry:
    """Pointwise sum of coeff_i * entry_i: the ``poly_combine`` of the
    degree-one monomials."""
    if len(entries) != len(coeffs):
        raise DomainError("need one coefficient per entry")
    k = len(entries)
    return poly_combine(entries, [
        Monomial(c, tuple(int(i == j) for j in range(k)))
        for i, c in enumerate(coeffs)], precision)


# ---------------------------------------------------------------------------
# registry

# Each registered entry by name.  Its builder is called by keyword with p,
# precision and what else its signature names: N, beta or neither.
_REGISTRY = {
    "thm34i": thm34i_fN,
    "thm34ii": thm34ii_gN,
    "lip_fN": lip_fN,
    "thm16": thm16_fbeta,
    "cor15": lambda p, precision, beta: cor15_Fbeta(
        beta, PadicNumber.zero(p, precision), p, precision),
    "cor15_g": lambda p, precision, beta: cor15_gbeta(
        beta, PadicNumber.zero(p, precision), p, precision),
    "prop26": prop26_fN,
    "prop26_g": lambda p, precision: prop26_fN(None, p, precision),
    "thm2_f": thm2_f,
    "thm2_g": lambda p, precision: thm2_g(p, precision),
    "thm2_fN": thm2_g,
}

ENTRY_NAMES = tuple(_REGISTRY)
_PARAMETERS = {name: frozenset(inspect.signature(b).parameters)
               - {"p", "precision"} for name, b in _REGISTRY.items()}


def entry_parameters(name: str) -> frozenset:
    """What entry ``name``'s builder reads past the prime and precision."""
    if name not in _PARAMETERS:
        raise DomainError(f"unknown entry {name!r}; have {sorted(_REGISTRY)}")
    return _PARAMETERS[name]


def build_entry(name: str, p: int, precision: int = DEFAULT_PRECISION,
                family_size: Optional[int] = None,
                member_bit: Optional[int] = None,
                beta: Optional[PadicNumber] = None) -> ZooEntry:
    """Build a registered entry.  An unset index set is IndexSet(3, 0), part
    by part, and an unset beta is 1 + p; one set on an entry that does not
    read it raises DomainError."""
    reads = entry_parameters(name)
    kwargs = {}
    if "N" in reads:
        kwargs["N"] = IndexSet(3 if family_size is None else family_size,
                               member_bit or 0)
    elif (family_size, member_bit) != (None, None):
        raise DomainError(f"entry {name} takes no index set")
    if "beta" in reads:
        kwargs["beta"] = (PadicNumber.from_int(1 + p, p, precision)
                          if beta is None else beta)
    elif beta is not None:
        raise DomainError(f"entry {name} takes no beta")
    return replace(_REGISTRY[name](p=p, precision=precision, **kwargs),
                   name=name)
