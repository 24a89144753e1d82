from itertools import combinations, islice, product

import pytest

from padiczoo.core import DomainError
from padiczoo.families import CellEnumerator, IndexSet, cell, generate_family


def test_small_family_membership():
    fam = generate_family(2)
    # bit rule: m in set i iff bit i of m mod 4 is set
    assert [m for m in range(8) if m in fam[0]] == [1, 3, 5, 7]
    assert [m for m in range(8) if m in fam[1]] == [2, 3, 6, 7]


def test_all_cells_of_k2_within_first_period():
    fam = generate_family(2)
    reps = {tuple(sig): next(iter(cell(fam, sig)))
            for sig in product((0, 1), repeat=2)}
    assert sorted(reps.values()) == [0, 1, 2, 3]


def test_cells_nonempty_k10():
    fam = generate_family(10)
    seen = {tuple(int(m in s) for s in fam) for m in range(2 ** 10)}
    assert len(seen) == 2 ** 10


def test_zero_and_negatives_lie_in_no_set():
    for k in range(1, 7):
        for s in generate_family(k):
            assert not any(m in s for m in range(-2 ** k, 1))
    # the complement of every set holds 0: the all-zero cell starts there
    c = cell(generate_family(3), [0, 0, 0])
    assert next(iter(c)) == 0
    assert list(islice(c, 3)) == [0, 8, 16]


def test_members_from_start():
    s = IndexSet(3, 1)
    assert list(islice(s.members(), 4)) == [2, 3, 6, 7]
    c = CellEnumerator([s], [1])
    assert next(c.members(4)) == 6
    assert next(c.members(8)) == 10
    assert list(islice(c.members(-5), 2)) == [2, 3]


def _reference_in(m, s):
    """Membership by the bit of m mod 2**k, as the family was first written."""
    return m >= 0 and (m % 2 ** s.family_size) >> s.member_bit & 1 == 1


@pytest.mark.parametrize("k", range(1, 7))
def test_membership_agrees_with_the_reference_rule(k):
    fam = generate_family(k)
    span = range(-2 ** k, 4 * 2 ** k)
    for s in fam:
        assert [m in s for m in span] == [_reference_in(m, s) for m in span]
    for size in range(1, k + 1):
        for sets in combinations(fam, size):
            for sig in product((0, 1), repeat=size):
                c = cell(sets, sig)
                assert [m in c for m in span] == [
                    m >= 0 and all(_reference_in(m, s) == bool(b)
                                   for s, b in zip(sets, sig))
                    for m in span], (sets, sig)


def test_enumerator_validation():
    fam = generate_family(2)
    with pytest.raises(DomainError):
        CellEnumerator(fam, [1])  # wrong signature length
    with pytest.raises(DomainError):
        CellEnumerator([IndexSet(2, 0), IndexSet(3, 0)], [1, 0])
    with pytest.raises(DomainError):
        CellEnumerator(fam, [1, 2])


def test_repeated_member_is_refused():
    # the cell of a set and its own complement is empty: enumerating it
    # would scan forever
    for sig in product((0, 1), repeat=2):
        with pytest.raises(DomainError):
            cell([IndexSet(3, 0), IndexSet(3, 0)], sig)


@pytest.mark.parametrize("k", range(1, 7))
def test_every_cell_starts_within_one_period(k):
    # each cell of distinct members is a union of residue classes mod 2**k
    fam = generate_family(k)
    for size in range(1, k + 1):
        for sets in combinations(fam, size):
            for sig in product((0, 1), repeat=size):
                c = cell(sets, sig)
                first = next(iter(c))
                assert 0 <= first < 2 ** k, (sets, sig)
                assert next(c.members(first)) == first


def test_family_size_limits():
    with pytest.raises(DomainError):
        IndexSet(0, 0)
    with pytest.raises(DomainError):
        IndexSet(21, 0)
    with pytest.raises(DomainError):
        IndexSet(3, 3)
