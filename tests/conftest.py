import hashlib
import random

import pytest

from padiczoo.cli import main
from padiczoo.core import PadicNumber


def make_random(rng: random.Random, p: int, precision: int = 16,
                vmin: int = -3, vmax: int = 4) -> PadicNumber:
    """A random nonzero value with unit leading digit."""
    v = rng.randrange(vmin, vmax + 1)
    digits = [rng.randrange(1, p)] + [rng.randrange(p)
                                      for _ in range(precision - 1)]
    return PadicNumber.from_digits(p, v, digits, v + precision)


def make_random_zp(rng: random.Random, p: int, precision: int = 16,
                   min_valuation: int = 0) -> PadicNumber:
    digits = [rng.randrange(p) for _ in range(precision - min_valuation)]
    x = PadicNumber.from_digits(p, min_valuation, digits, precision)
    if x.is_zero_like:
        return PadicNumber.bounded_zero(p, precision)
    return x


@pytest.fixture
def rng():
    return random.Random(20260823)


def assert_cli_golden(capsys, argvs, digest: str, exits: str) -> None:
    """Run each argv through ``padiczoo``'s ``main``.  The exit codes, one
    digit per command, must read ``exits`` and the sha256 of the joined
    stdout must equal ``digest``; a mismatch names the command."""
    h = hashlib.sha256()
    for argv, want in zip(argvs, exits, strict=True):
        code = main(list(argv))
        h.update(capsys.readouterr().out.encode())
        assert str(code) == want, f"padiczoo {' '.join(argv)}: exit {code}"
    names = "; ".join(" ".join(argv) for argv in argvs[:3])
    more = f" and {len(argvs) - 3} more" if len(argvs) > 3 else ""
    assert h.hexdigest() == digest, f"stdout changed: padiczoo {names}{more}"
