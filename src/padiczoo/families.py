"""Finite truncations of an independent family of subsets of the naturals.

The k sets are given by a periodic bit rule: ``m`` belongs to set ``i``
iff bit ``i`` of ``m mod 2**k`` is 1.  Every Boolean combination of the
sets and their complements is a residue class mod 2**k, hence infinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import DomainError

MAX_FAMILY_SIZE = 20


@dataclass(frozen=True)
class IndexSet:
    """One member of the periodic independent family."""

    family_size: int
    member_bit: int
    ground_min: int = 0  # 0 for N_0, 1 for N

    def __post_init__(self) -> None:
        if not 1 <= self.family_size <= MAX_FAMILY_SIZE:
            raise DomainError(
                f"family size must be in [1, {MAX_FAMILY_SIZE}]")
        if not 0 <= self.member_bit < self.family_size:
            raise DomainError("member bit out of range")

    @property
    def period(self) -> int:
        return 2 ** self.family_size

    def __contains__(self, m: int) -> bool:
        if m < self.ground_min:
            return False
        return (m % self.period) >> self.member_bit & 1 == 1

    def members(self, start: int = 0) -> Iterator[int]:
        m = max(start, self.ground_min)
        while True:
            if m in self:
                yield m
            m += 1


def generate_family(k: int, ground: str = "N0") -> list[IndexSet]:
    """k independent subsets of N_0 (``ground="N0"``) or N (``ground="N"``)."""
    if ground not in ("N0", "N"):
        raise DomainError('ground must be "N0" or "N"')
    gmin = 0 if ground == "N0" else 1
    return [IndexSet(k, i, gmin) for i in range(k)]


class CellEnumerator:
    """Increasing enumeration of one Boolean cell of the family."""

    def __init__(self, family: Sequence[IndexSet], signature: Sequence[int]):
        if len(signature) != len(family):
            raise DomainError("signature length must match family size")
        sizes = {s.family_size for s in family}
        grounds = {s.ground_min for s in family}
        if len(sizes) != 1 or len(grounds) != 1:
            raise DomainError("sets must come from a single family")
        if len({s.member_bit for s in family}) != len(family):
            # a repeated set with opposite signature bits has an empty cell
            raise DomainError("sets must be distinct members of the family")
        self.family = list(family)
        self.signature = [int(b) for b in signature]
        if any(b not in (0, 1) for b in self.signature):
            raise DomainError("signature must consist of bits")
        self.ground_min = grounds.pop()

    def __contains__(self, m: int) -> bool:
        if m < self.ground_min:
            return False
        return all((m in s) == bool(b)
                   for s, b in zip(self.family, self.signature))

    def __iter__(self) -> Iterator[int]:
        m = self.ground_min
        while True:
            if m in self:
                yield m
            m += 1

    def next_after(self, n: int) -> int:
        """The smallest cell member strictly greater than n."""
        m = n + 1
        while m not in self:
            m += 1
        return m


def cell(family: Sequence[IndexSet], signature: Sequence[int]) -> CellEnumerator:
    """Enumerator of the cell B_1^{e_1} ∩ ... ∩ B_k^{e_k}."""
    return CellEnumerator(family, signature)
