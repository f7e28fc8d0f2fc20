import pytest

from finposet import (
    CubeEmbedding,
    OutOfRange,
    antichain,
    chain,
    core,
    hypercube,
    is_contractible,
    is_isomorphic,
    realize,
    structure_stats,
    suspension,
    two_dimension,
    verify_embedding,
)


def test_realize_proves_its_value():
    # the construction's own proof, with no solver: height m gives d >= m,
    # the element names read as masks give d <= m, and "0" is a minimum
    for n in range(2, 65):
        for m in range((n - 1).bit_length(), n + 1):
            P = realize(n, m)
            assert len(P) == n
            if m == n:
                assert structure_stats(P).height == (n - 2) // 2
                assert core(P).removals == ()  # its own core
                continue
            assert structure_stats(P).height == m
            E = CubeEmbedding(P, m, {x: int(x) for x in P})
            assert verify_embedding(E), (n, m)
            assert P.minimum() == "0"


def test_realize_special_cases():
    for m in range(1, 7):
        assert realize(2**m, m) == hypercube(m)
    for n in range(2, 11):
        assert is_isomorphic(realize(n, n - 1), chain(n))


def test_realize_top_values():
    assert is_isomorphic(realize(4, 4), suspension(antichain(2), 1))
    assert is_isomorphic(realize(5, 5), suspension(antichain(3), 1))
    assert two_dimension(realize(2, 2)).value == 2
    assert two_dimension(realize(3, 3)).value == 3


def test_realize_interior_value():
    P = realize(5, 3)
    assert len(P) == 5
    assert two_dimension(P).value == 3
    assert is_contractible(P)


def test_realize_full_range_small():
    # the exact cross-check: every admissible value on up to 12 points
    for n in range(2, 13):
        low = (n - 1).bit_length()
        for m in range(low, n + 1):
            P = realize(n, m)
            assert len(P) == n
            assert two_dimension(P).value == m
            if m < n:
                assert is_contractible(P)


def test_realize_deterministic():
    assert realize(5, 3) == realize(5, 3)


def test_realize_out_of_range():
    with pytest.raises(OutOfRange):
        realize(8, 2)  # below the log bound
    with pytest.raises(OutOfRange):
        realize(4, 5)  # above the size bound
    with pytest.raises(OutOfRange):
        realize(1, 0)
