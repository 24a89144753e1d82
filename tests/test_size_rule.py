"""The size rule: ``zoo.py`` stays at most 1024 lines and the modules of
``src/padiczoo`` at most 2459 lines together, counted as ``wc -l`` does."""

from pathlib import Path

import padiczoo

SRC = Path(padiczoo.__file__).parent
ZOO_MAX, PACKAGE_MAX = 1024, 2459


def _lines(path: Path) -> int:
    return path.read_bytes().count(b"\n")


def test_zoo_within_size_rule():
    assert _lines(SRC / "zoo.py") <= ZOO_MAX


def test_package_within_size_rule():
    sizes = {p.name: _lines(p) for p in sorted(SRC.glob("*.py"))}
    assert sum(sizes.values()) <= PACKAGE_MAX, sizes
