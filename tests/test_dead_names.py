"""Every module-level function and class of the package has a reader."""

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


def dead_names(src: Path) -> list[str]:
    """``module:name`` for each module-level def or class under ``src``
    that no other statement of the package reads and ``__all__`` omits."""
    statements = [(path.stem, node, _reads(node))
                  for path in sorted(src.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    dead = []
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name in padiczoo.__all__:
            continue
        if not any(node.name in reads for _, other, reads in statements
                   if other is not node):
            dead.append(f"{module}:{node.name}")
    return dead


def test_every_module_level_name_has_a_reader():
    assert dead_names(Path(padiczoo.__file__).parent) == []
