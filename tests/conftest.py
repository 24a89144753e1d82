import hashlib
from fractions import Fraction

import pytest

from padiczoo.cli import main
from padiczoo.haar import Stream
from padiczoo.vanderput import schedule_exponent
from padiczoo.zoo import BallSystem


@pytest.fixture
def rng():
    return Stream(20260823)


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


def reference_lip_rows(N, p: int, n_limit: int):
    """Rows (n, sigma(n), m_sigma(n), |a_sigma(n)|) of the sparse van der Put
    series from the closed forms: a fresh ``BallSystem.sigma`` per row, the
    cumulative max of ``schedule_exponent`` and a ``Fraction`` norm."""
    balls = BallSystem(p)
    m_running = 0
    for n in range(n_limit + 1):
        k = balls.sigma(n)
        m_running = max(m_running, schedule_exponent(k, p))
        yield n, k, m_running, Fraction(p) ** (-m_running) if n in N \
            else Fraction(0)
