import hashlib

import pytest

from padiczoo.cli import main
from padiczoo.haar import Stream


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
