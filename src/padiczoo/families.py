"""Finite truncations of an independent family of subsets of the naturals.

The k sets are given by a periodic bit rule: ``m >= 0`` belongs to set
``i`` iff bit ``i`` of ``m`` is 1; as i < k, that is bit ``i`` of
``m mod 2**k``.  Every Boolean combination of the sets and their
complements is a residue class mod 2**k, hence infinite.  Bit i of 0 is
0, so 0 is in no set and the family over N is the family over N_0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterator, Sequence

from .core import DomainError

MAX_FAMILY_SIZE = 20


def _members(s: Container[int], start: int) -> Iterator[int]:
    """The members of a set or a cell from ``start`` upward."""
    m = max(start, 0)
    while True:
        if m in s:
            yield m
        m += 1


@dataclass(frozen=True)
class IndexSet:
    """One member of the periodic independent family."""

    family_size: int
    member_bit: int

    def __post_init__(self) -> None:
        if not 1 <= self.family_size <= MAX_FAMILY_SIZE:
            raise DomainError(
                f"family size must be in [1, {MAX_FAMILY_SIZE}]")
        if not 0 <= self.member_bit < self.family_size:
            raise DomainError("member bit out of range")

    def __contains__(self, m: int) -> bool:
        return m >= 0 and m >> self.member_bit & 1 == 1

    def members(self, start: int = 0) -> Iterator[int]:
        return _members(self, start)


def generate_family(k: int) -> list[IndexSet]:
    """k independent subsets of N_0 (0 is in none of them)."""
    return [IndexSet(k, i) for i in range(k)]


class CellEnumerator:
    """Increasing enumeration of one Boolean cell of the family."""

    def __init__(self, family: Sequence[IndexSet], signature: Sequence[int]):
        if len(signature) != len(family):
            raise DomainError("signature length must match family size")
        if len({s.family_size for s in family}) != 1:
            raise DomainError("sets must come from a single family")
        if len({s.member_bit for s in family}) != len(family):
            # a repeated set with opposite signature bits has an empty cell
            raise DomainError("sets must be distinct members of the family")
        if any(int(b) not in (0, 1) for b in signature):
            raise DomainError("signature must consist of bits")
        # m is in the cell iff its bits at the members' bits read signature
        self.mask = sum(1 << s.member_bit for s in family)
        self.value = sum(int(b) << s.member_bit
                         for s, b in zip(family, signature))

    def __contains__(self, m: int) -> bool:
        return m >= 0 and m & self.mask == self.value

    def members(self, start: int = 0) -> Iterator[int]:
        return _members(self, start)

    def __iter__(self) -> Iterator[int]:
        return _members(self, 0)


def cell(family: Sequence[IndexSet], signature: Sequence[int]) -> CellEnumerator:
    """Enumerator of the cell B_1^{e_1} ∩ ... ∩ B_k^{e_k}."""
    return CellEnumerator(family, signature)
