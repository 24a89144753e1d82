"""A claim reaches its entry through the gated ``PadicFunction``, and takes
its first difference quotients from ``phi_r``.  No nested ``claim_*`` def
in ``zoo.py`` reads a sibling def that its builder wraps in
``PadicFunction``, since calling the raw evaluator skips the gate; and none
divides by hand a difference of the entry's function, the one its builder
passes to ``ZooEntry``, since ``phi_r`` is the one Phi_1 path.  At run
time, every registered claim calls its entry's function, apart from a named
few that read something else."""

import ast
import inspect
from pathlib import Path

import padiczoo
from padiczoo.quotients import PadicFunction
from padiczoo.zoo import ENTRY_NAMES, build_entry


def _claims(src: str):
    """(builder, claim) for each nested ``claim_*`` def of a builder."""
    for builder in ast.parse(src).body:
        if isinstance(builder, ast.FunctionDef):
            yield from ((builder, claim) for claim in builder.body
                        if isinstance(claim, ast.FunctionDef)
                        and claim.name.startswith("claim_"))


def _calls_to(name: str, builder: ast.FunctionDef):
    """The calls of ``name`` in the builder."""
    return (node for node in ast.walk(builder) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == name)


def _gated(builder: ast.FunctionDef) -> set[str]:
    """The builder's nested defs that it passes to ``PadicFunction``."""
    nested = {node.name for node in builder.body
              if isinstance(node, ast.FunctionDef)}
    return {a.id for call in _calls_to("PadicFunction", builder)
            for a in call.args + [k.value for k in call.keywords]
            if isinstance(a, ast.Name) and a.id in nested}


def _entry_function(builder: ast.FunctionDef) -> set[str]:
    """The name the builder passes to ``ZooEntry`` as the entry's function."""
    return {a.id for call in _calls_to("ZooEntry", builder)
            for a in call.args[2:3]
            + [k.value for k in call.keywords if k.arg == "function"]
            if isinstance(a, ast.Name)}


def raw_reads(src: str) -> list[str]:
    """``builder.claim: name`` for each nested claim that reads a raw
    evaluator of its builder."""
    found = []
    for builder, claim in _claims(src):
        gated = _gated(builder)
        found += sorted({f"{builder.name}.{claim.name}: {node.id}"
                         for node in ast.walk(claim)
                         if isinstance(node, ast.Name)
                         and isinstance(node.ctx, ast.Load)
                         and node.id in gated})
    return found


def hand_quotients(src: str) -> list[str]:
    """``builder.claim`` for each nested claim with a division whose left
    operand calls the entry's function."""
    found = []
    for builder, claim in _claims(src):
        fn = _entry_function(builder)
        if any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
               and any(isinstance(call, ast.Call)
                       and isinstance(call.func, ast.Name)
                       and call.func.id in fn for call in ast.walk(node.left))
               for node in ast.walk(claim)):
            found.append(f"{builder.name}.{claim.name}")
    return found


ZOO_SRC = (Path(padiczoo.__file__).parent / "zoo.py").read_text()


def test_claims_call_the_gated_function():
    assert raw_reads(ZOO_SRC) == []


def test_claims_take_first_quotients_from_phi_r():
    assert hand_quotients(ZOO_SRC) == []


def test_raw_reads_flags_a_raw_evaluator_only():
    src = '''
def builder(p):
    def evaluate(x):
        return x

    def derivative(x):
        return x

    def claim_raw():
        return evaluate(1) + fn(1)

    def claim_gated():
        return fn(1) + derivative(1)

    fn = PadicFunction(evaluate, p, 64)
    return ZooEntry("b", p, fn, derivative, claims={})
'''
    assert raw_reads(src) == ["builder.claim_raw: evaluate"]


def test_hand_quotients_flags_a_divided_call_only():
    src = '''
def builder(p):
    def claim_hand(x, h):
        return (fn(x + h) - fn(x)) / h

    def claim_phi(x, h):
        return phi_r(fn, (x + h, x)) / h

    def claim_named(x):
        fx = fn(x)
        return fx / x, h / fn(x), other(x) / x

    fn = PadicFunction(evaluate, p, 64)
    return ZooEntry("b", p, fn, claims={})


def keyword_builder(p):
    def claim_hand(x):
        return fn(x) / x

    return ZooEntry("k", p, function=fn, claims={})
'''
    assert hand_quotients(src) == ["builder.claim_hand",
                                   "keyword_builder.claim_hand"]


# the registered claims that call no function of their entry, and why
READ_NO_FUNCTION = {
    "lip_fN n1-decay": "reads the coefficient schedule the builder puts "
                       "into f, not f",
    "lip_fN lip2-unbounded": "reads the coefficient schedule the builder "
                             "puts into f, not f",
    "thm16 unbounded-derivative": "reads only the closed-form derivative",
}


def test_claims_call_their_entry_function(monkeypatch):
    # every integer size is cut to at most 8, which leaves each claim at
    # least one point to evaluate
    called, call = [], PadicFunction.__call__

    def spy(self, x):
        called.append(self)
        return call(self, x)

    monkeypatch.setattr(PadicFunction, "__call__", spy)
    silent = []
    for name in ENTRY_NAMES:
        entry = build_entry(name, 3)
        for claim, body in entry.claims.items():
            sizes = {key: min(param.default, 8) for key, param
                     in inspect.signature(body).parameters.items()
                     if key != "seed" and isinstance(param.default, int)}
            called.clear()
            entry.run_claim(claim, **sizes)
            if not any(f is entry.function for f in called):
                silent.append(f"{name} {claim}")
    assert silent == list(READ_NO_FUNCTION)
