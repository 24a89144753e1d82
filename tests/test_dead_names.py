"""Every module-level function and class of the package, and every method
and property, has a reader."""

import ast
from pathlib import Path

import padiczoo


def _reads(tree: ast.AST) -> set[str]:
    """The names a tree reads: loaded names, attributes and imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def dead_names(src: Path) -> list[str]:
    """``module:name`` for each module-level def or class under ``src``
    that no other statement of the package reads and ``__all__`` omits, and
    ``module:Class.name`` for each non-dunder def in a class body that no
    other statement of the package reads."""
    statements = [(path.stem, node, _reads(node))
                  for path in sorted(src.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    dead = []
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        others = [reads for _, other, reads in statements if other is not node]
        if node.name not in padiczoo.__all__ \
                and not any(node.name in reads for reads in others):
            dead.append(f"{module}:{node.name}")
        if not isinstance(node, ast.ClassDef):
            continue
        for method in node.body:
            if not isinstance(method, ast.FunctionDef) \
                    or _is_dunder(method.name):
                continue
            siblings = [_reads(other) for other in node.body
                        if other is not method]
            if not any(method.name in reads for reads in others + siblings):
                dead.append(f"{module}:{node.name}.{method.name}")
    return dead


def test_every_module_level_name_has_a_reader():
    assert dead_names(Path(padiczoo.__file__).parent) == []
