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


def test_ground_n_excludes_zero():
    s = IndexSet(1, 0, ground_min=1)
    assert 0 not in s
    fam = generate_family(3, ground="N")
    c = cell(fam, [0, 0, 0])
    assert next(iter(c)) == 8  # 0 is excluded by the ground set


def test_members_and_next_after():
    s = IndexSet(3, 1, 0)
    assert list(islice(s.members(), 4)) == [2, 3, 6, 7]
    c = CellEnumerator([s], [1])
    assert c.next_after(3) == 6
    assert c.next_after(7) == 10


def test_enumerator_validation():
    fam = generate_family(2)
    with pytest.raises(DomainError):
        CellEnumerator(fam, [1])  # wrong signature length
    with pytest.raises(DomainError):
        CellEnumerator([IndexSet(2, 0, 0), IndexSet(3, 0, 0)], [1, 0])
    with pytest.raises(DomainError):
        CellEnumerator(fam, [1, 2])


def test_repeated_member_is_refused():
    # the cell of a set and its own complement is empty: enumerating it
    # would scan forever
    for sig in product((0, 1), repeat=2):
        with pytest.raises(DomainError):
            cell([IndexSet(3, 0), IndexSet(3, 0)], sig)


@pytest.mark.parametrize("ground", ["N0", "N"])
@pytest.mark.parametrize("k", range(1, 7))
def test_every_cell_starts_within_one_period(k, ground):
    # each cell of distinct members is a union of residue classes mod 2**k
    fam = generate_family(k, ground)
    low = fam[0].ground_min
    for size in range(1, k + 1):
        for sets in combinations(fam, size):
            for sig in product((0, 1), repeat=size):
                c = cell(sets, sig)
                first = next(iter(c))
                assert low <= first < low + 2 ** k, (sets, sig)
                assert c.next_after(first - 1) == first


def test_family_size_limits():
    with pytest.raises(DomainError):
        IndexSet(0, 0)
    with pytest.raises(DomainError):
        IndexSet(21, 0)
    with pytest.raises(DomainError):
        IndexSet(3, 3)
