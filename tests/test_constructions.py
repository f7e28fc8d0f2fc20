import pytest

from finposet import (
    OutOfRange,
    Poset,
    TooLarge,
    antichain,
    build_poset,
    chain,
    cone,
    covers,
    hypercube,
    is_contractible,
    is_isomorphic,
    join,
    structure_stats,
    suspension,
)
from finposet.census import enumerate_posets
from finposet.constructions import HYPERCUBE_GUARD
from finposet.core import disjoint_union, product


def example4_space():
    # a 2-chain next to an isolated point
    return disjoint_union(chain(2), build_poset(["p"], []))


def test_join_of_chains():
    J = join(chain(2), chain(3))
    J.check()
    assert is_isomorphic(J, chain(5))
    assert structure_stats(J).height == 4


def test_join_models_cone_and_suspension():
    one = build_poset(["z"], [])
    for n in range(1, 7):
        for P in enumerate_posets(n, up_to_iso=True):
            assert is_isomorphic(join(P, one), cone(P), guard=n + 2)
            assert is_isomorphic(join(P, antichain(2)), suspension(P, 1), guard=n + 2)


def test_cone_shape():
    C = cone(antichain(2))
    assert len(C) == 3
    assert C.maximum() == "*1"
    assert cone(Poset([], [])).elements == ("*1",)
    CC = cone(cone(antichain(2)))
    assert CC.maximum() == "*2"
    assert CC.leq("*1", "*2")
    X = cone(example4_space())
    assert len(X) == 4
    assert X.maximum() == "*1"
    assert sorted(covers(X)) == [("0", "1"), ("1", "*1"), ("p", "*1")]


def test_cone_contractible():
    for n in range(0, 6):
        for P in enumerate_posets(n, up_to_iso=True):
            assert is_contractible(cone(P))


def test_suspension_shape():
    S = suspension(antichain(2), 1)
    assert len(S) == 4
    assert sorted(S.maximal_elements()) == ["+1", "-1"]
    assert sorted(S.minimal_elements()) == ["0", "1"]
    assert not S.leq("+1", "-1") and not S.leq("-1", "+1")
    SX = suspension(example4_space(), 1)
    expected = build_poset(
        ["0", "1", "p", "+", "-"],
        [("0", "1"), ("1", "+"), ("1", "-"), ("p", "+"), ("p", "-")],
    )
    assert is_isomorphic(SX, expected)


def test_suspension_folds():
    P = example4_space()
    assert suspension(P, 0) == P
    for k in range(4):
        assert len(suspension(P, k)) == len(P) + 2 * k
    S2 = suspension(antichain(2), 2)
    assert sorted(S2.maximal_elements()) == ["+2", "-2"]
    assert S2.leq("+1", "+2") and S2.leq("+1", "-2")
    with pytest.raises(OutOfRange):
        suspension(P, -1)


def test_suspension_fresh_names():
    clash = build_poset(["+1", "x"], [])
    S = suspension(clash, 1)
    assert sorted(S.maximal_elements()) == ["+2", "-2"]
    assert len(S) == 4


def test_chain_antichain():
    assert covers(chain(3)) == [("0", "1"), ("1", "2")]
    assert structure_stats(chain(3)).height == 2
    assert covers(antichain(3)) == []
    assert len(chain(0)) == 0 and len(antichain(0)) == 0
    with pytest.raises(OutOfRange):
        chain(-1)
    with pytest.raises(OutOfRange):
        antichain(-1)


def test_hypercube():
    Q2 = hypercube(2)
    assert Q2.elements == ("0", "1", "2", "3")
    assert sorted(covers(Q2)) == [("0", "1"), ("0", "2"), ("1", "3"), ("2", "3")]
    assert Q2.maximum() == "3" and Q2.minimum() == "0"
    assert structure_stats(hypercube(4)).height == 4
    with pytest.raises(TooLarge):
        hypercube(21)
    with pytest.raises(OutOfRange):
        hypercube(-1)


def test_hypercube_rows_are_subset_masks():
    for n in range(9):
        rows = hypercube(n).down_rows
        assert rows == tuple(
            sum(1 << s for s in range(1 << n) if s & ~m == 0) for m in range(1 << n)
        )


def test_hypercube_guard():
    assert len(hypercube(HYPERCUBE_GUARD)) == 1 << HYPERCUBE_GUARD
    with pytest.raises(TooLarge):
        hypercube(HYPERCUBE_GUARD + 1)


def test_hypercube_is_sierpinski_power():
    for n in range(1, 5):
        power = chain(2)
        for _ in range(n - 1):
            power = product(power, chain(2))
        assert is_isomorphic(power, hypercube(n), guard=16)
