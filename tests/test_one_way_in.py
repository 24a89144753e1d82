"""A claim reaches its entry through the gated ``PadicFunction``: no nested
``claim_*`` def in ``zoo.py`` reads a sibling def that its builder wraps
in ``PadicFunction``, since calling the raw evaluator skips the gate."""

import ast
from pathlib import Path

import padiczoo


def _gated(builder: ast.FunctionDef) -> set[str]:
    """The builder's nested defs that it passes to ``PadicFunction``."""
    nested = {node.name for node in builder.body
              if isinstance(node, ast.FunctionDef)}
    gated = set()
    for node in ast.walk(builder):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "PadicFunction":
            args = node.args + [k.value for k in node.keywords]
            gated.update(a.id for a in args if isinstance(a, ast.Name)
                         and a.id in nested)
    return gated


def raw_reads(src: str) -> list[str]:
    """``builder.claim: name`` for each nested claim that reads a raw
    evaluator of its builder."""
    found = []
    for builder in ast.parse(src).body:
        if not isinstance(builder, ast.FunctionDef):
            continue
        gated = _gated(builder)
        for claim in builder.body:
            if not isinstance(claim, ast.FunctionDef) \
                    or not claim.name.startswith("claim_"):
                continue
            found += sorted({f"{builder.name}.{claim.name}: {node.id}"
                             for node in ast.walk(claim)
                             if isinstance(node, ast.Name)
                             and isinstance(node.ctx, ast.Load)
                             and node.id in gated})
    return found


def test_claims_call_the_gated_function():
    src = (Path(padiczoo.__file__).parent / "zoo.py").read_text()
    assert raw_reads(src) == []


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
