"""Golden digests of the CLI output for the gallery commands.

Each digest is the sha256 of the joined stdout of one group of
``padiczoo`` commands, and each group pins the exit code of every command
in it.  The groups are ``list``, ``eval`` of every entry at a fixed set of
points in text and JSON, and ``table lip_fN`` at two exponents, at
p = 2, 3 and 5.  ``eval-wide`` runs the same ``eval`` group at p = 11 and
p = 101, where a digit takes two or three characters, on the same
points plus one 256-digit literal.  There is also ``verify`` of every listed claim at its
default size, at p = 3.  Any change to a value, a verdict, a report or an
error exit changes a digest and fails here.

Three more groups pin how the index set and the exponent reach the
entries: ``verify`` of every claim that takes no seed, at p = 2 and 5 and
at p = 3 with ``--set 2,1``, and ``eval`` of every entry at the same points
with ``--set 2,1 --beta 1/7`` at p = 3.  They hold no seeded claim, so a
change to the samplers leaves them as they are.
"""

import inspect

import pytest

from conftest import assert_cli_golden
from padiczoo.zoo import ENTRY_NAMES, build_entry


def _points(p: int) -> list[str]:
    return ["0", "1", "7", "-3", "1/3", "2/5", "p^1", "p^2", "p^4",
            "p^-1", "p^-3", f"{1 + p}/{p}", f"{p * p + p + 1}/{p ** 3}",
            f"{p + p ** 4}", f"{p ** 4 + p ** 6}",
            f"1 1 0 1 * {p}^-2 (mod {p}^2)",
            f"1 * {p}^-3 (mod {p}^0)",
            f"0 0 0 * {p}^0 (mod {p}^3)"]


def _long_literal(p: int) -> str:
    """A fixed 256-digit literal at valuation 0, known mod p^256."""
    digits = " ".join(str((i * i + 7 * i + 1) % p) for i in range(256))
    return f"{digits} * {p}^0 (mod {p}^256)"


def _unseeded_claims(p: int) -> list[tuple[str, str]]:
    return [(name, claim) for name in ENTRY_NAMES
            for claim, fn in sorted(build_entry(name, p).claims.items())
            if "seed" not in inspect.signature(fn).parameters]


def _commands(p: int, command: str) -> list[list[str]]:
    head = ["--prime", str(p)]
    if command == "eval-set-beta":
        return [head + ["eval", name, "--set", "2,1", "--beta", "1/7", x]
                for name in ENTRY_NAMES for x in _points(p)]
    if command == "verify-unseeded":
        return [head + ["verify", name, claim]
                for name, claim in _unseeded_claims(p)]
    if command == "verify-unseeded-set":
        return [head + ["verify", name, claim, "--set", "2,1"]
                for name, claim in _unseeded_claims(p)]
    if command == "list":
        return [head + ["list"]]
    if command in ("eval", "eval-wide"):
        points = _points(p) + [_long_literal(p)] * (command == "eval-wide")
        return [head + fmt + ["eval", name, x]
                for fmt in ([], ["--format", "json"])
                for name in ENTRY_NAMES for x in points]
    if command == "table":
        return [head + ["table", "lip_fN", "--alpha", alpha,
                        "--n-max", "300"] for alpha in ("-1", "2")]
    return [head + ["verify", name, claim]
            for name in ENTRY_NAMES
            for claim in sorted(build_entry(name, p).claims)]


GOLDEN = {
    (2, "eval"): (
        "0f5b198506cc232f6c952338e5287f105c781cbd82b25bbed90793564fe0ba9f",
        "000000000000000000000000000000000030000000000222200223000000000000"
        "000030000000000000000030000000000000000000000000000000000000000000"
        "000000000000000000000222200220000000000222200220000000000222200220"
        "000000000000000000000000000000000030000000000222200223000000000000"
        "000030000000000000000030000000000000000000000000000000000000000000"
        "000000000000000000000222200220000000000222200220000000000222200220"),
    (2, "list"): (
        "335175317d5b4e31bfe170cde1a60023d5ce09a202c79975a9f2cf6d85cbf4ed",
        "0"),
    (2, "verify-unseeded"): (
        "b0f6e6c4771bf0051c6621052ca7a962c81515384435e519b4027205b6a5e9ee",
        "0000000000000"),
    (2, "table"): (
        "adb6fe9c61bfe9274214d24c1de57459e5948a3d905b7d9e46f7ad03778c8eb0",
        "00"),
    (3, "eval"): (
        "52ee7c578648de3fa70222ba1208d94a252430cfd345e135ceced2d5b7dbb04a",
        "000000000000000000000000000000000030000020000222200223000000000000"
        "000030000000000000000030000000000000000000000000000000000000000000"
        "000000000000000020000222200220000020000222200220000020000222200220"
        "000000000000000000000000000000000030000020000222200223000000000000"
        "000030000000000000000030000000000000000000000000000000000000000000"
        "000000000000000020000222200220000020000222200220000020000222200220"),
    (3, "eval-set-beta"): (
        "45b333ced42833992bd711afa3a2d406efb25c525aef53d8f944ac40a6f1e266",
        "000000000000000000000000000000000030000020000222200223000000000000"
        "000030000000000000000030000000000000000000000000000000000000000000"
        "000000000000000020000222200220000020000222200220000020000222200220"),
    (3, "list"): (
        "335175317d5b4e31bfe170cde1a60023d5ce09a202c79975a9f2cf6d85cbf4ed",
        "0"),
    (3, "table"): (
        "66f3873d23984c5f0fa334982d4642e1140cef74988959f5c71cb5b71b7c6968",
        "00"),
    (3, "verify"): (
        "085c454da273aec2ec52402c892b35bb74a37c1b2ab3f12f404ae42b9881b9c0",
        "0000000000000000000"),
    (3, "verify-unseeded-set"): (
        "af42edda5c68fb9355e0c473535d32482207404544a738bc718a3a0e48f1e749",
        "0000000000000"),
    (5, "eval"): (
        "79fb41cc2a89036d06e16a76006abc9d79ba2e3a0ae57b4a3c1b6300f1d96c38",
        "000000000000000000000000000000000030000002000222200223000000000000"
        "000030000000000000000030000000000000000000000000000000000000000000"
        "000000000000000002000222200220000002000222200220000002000222200220"
        "000000000000000000000000000000000030000002000222200223000000000000"
        "000030000000000000000030000000000000000000000000000000000000000000"
        "000000000000000002000222200220000002000222200220000002000222200220"),
    (5, "list"): (
        "335175317d5b4e31bfe170cde1a60023d5ce09a202c79975a9f2cf6d85cbf4ed",
        "0"),
    (5, "table"): (
        "adf31927d33e1d9dfc05c2d02b2a5a97da5d4accddcf3e79af3b168590bd9126",
        "00"),
    (5, "verify-unseeded"): (
        "029908189e3fcc4d1d98f6ea496e39228f9957967dda7410c4736020d95c94f5",
        "0000000000000"),
    (11, "eval-wide"): (
        "e22c51bb0ac70f588b5d6e98e0f8a7f8267daeac56e59ffd2f0e6f2a57558cb4",
        "000000000000000000000000000000000003000000000002222002230"
        "000000000000000030000000000000000003000000000000000000000"
        "000000000000000000000000000000000000000000000002222002200"
        "000000000222200220000000000022220022000000000000000000000"
        "000000000000000030000000000022220022300000000000000000300"
        "000000000000000030000000000000000000000000000000000000000"
        "000000000000000000000000000022220022000000000002222002200"
        "0000000002222002200"),
    (101, "eval-wide"): (
        "0938f650e6a802ad74eed8027b76c16e0dab78d38b22bf8b2ae15386df812d9d",
        "000000000000000000000000000000000003000000000002222002230"
        "000000000000000030000000000000000003000000000000000000000"
        "000000000000000000000000000000000000000000000002222002200"
        "000000000222200220000000000022220022000000000000000000000"
        "000000000000000030000000000022220022300000000000000000300"
        "000000000000000030000000000000000000000000000000000000000"
        "000000000000000000000000000022220022000000000002222002200"
        "0000000002222002200"),
}


@pytest.mark.parametrize("p, command", sorted(GOLDEN))
def test_cli_output_matches_golden(capsys, p, command):
    digest, exits = GOLDEN[p, command]
    assert_cli_golden(capsys, _commands(p, command), digest, exits)
