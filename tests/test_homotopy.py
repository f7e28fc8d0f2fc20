import random

import pytest

from finposet import (
    EmptyPoset,
    Poset,
    antichain,
    beat_points,
    build_poset,
    chain,
    cone,
    core,
    covers,
    hypercube,
    is_contractible,
    is_isomorphic,
    suspension,
)
from finposet.census import enumerate_posets
from finposet.core import opposite, remove_element


def fence():
    return build_poset("abcd", [("d", "b"), ("d", "c"), ("c", "a")])


def witness_triples(P):
    return [(w.point, w.kind, w.witness) for w in beat_points(P)]


def test_beat_points_chain():
    C = build_poset("abc", [("a", "b"), ("b", "c")])
    assert witness_triples(C) == [
        ("a", "up", "b"),
        ("b", "up", "c"),
        ("b", "down", "a"),
        ("c", "down", "b"),
    ]


def test_beat_points_antichain_and_cube():
    assert beat_points(antichain(2)) == []
    # only the two middle points of the diamond, each beaten both ways
    assert witness_triples(hypercube(2)) == [
        ("1", "up", "3"),
        ("1", "down", "0"),
        ("2", "up", "3"),
        ("2", "down", "0"),
    ]


def test_beat_points_of_fence():
    P = fence()
    assert [w for w in witness_triples(P) if w[0] == "b"] == [("b", "down", "d")]
    assert all(w[0] != "d" for w in witness_triples(P))


def test_remove_element_keeps_transitivity():
    C = chain(3)
    R = remove_element(C, "1")
    assert R.elements == ("0", "2")
    assert R.leq("0", "2")
    # removing c from the fence keeps d < a
    R = remove_element(fence(), "c")
    assert covers(R) == [("d", "a"), ("d", "b")]
    R = remove_element(build_poset("x", []), "x")
    assert len(R) == 0


def test_core_of_chain():
    t = core(chain(5))
    assert len(t.core) == 1
    assert len(t.removals) == 4
    assert len(t.start) == 5


def test_core_trace_replays():
    # each recorded removal must be a valid beat point at its own step
    for P in [fence(), chain(4), cone(suspension(antichain(2), 1)), hypercube(2)]:
        t = core(P)
        current = P
        for w in t.removals:
            live = beat_points(current)
            assert w in live
            current = remove_element(current, w.point)
        assert current == t.core
        assert beat_points(t.core) == []
        assert len(t.core) == len(t.start) - len(t.removals)


def test_minimal_spaces_are_their_own_core():
    S = suspension(antichain(2), 1)
    t = core(S)
    assert t.removals == ()
    assert t.core == S
    assert not is_contractible(S)


def test_contractibility():
    assert is_contractible(fence())  # has minimum d
    assert is_contractible(chain(1))
    assert not is_contractible(antichain(2))
    for P in enumerate_posets(5, up_to_iso=True):
        assert is_contractible(cone(P))
    with pytest.raises(EmptyPoset):
        core(Poset([], []))
    with pytest.raises(EmptyPoset):
        is_contractible(Poset([], []))


def test_maximum_implies_contractible():
    for n in range(1, 7):
        for P in enumerate_posets(n, up_to_iso=True):
            if P.maximum() is not None or P.minimum() is not None:
                assert is_contractible(P)


def test_opposite_swaps_beat_kinds():
    flip = {"up": "down", "down": "up"}
    for n in range(1, 6):
        for P in enumerate_posets(n, up_to_iso=True):
            ours = {(w.point, flip[w.kind], w.witness) for w in beat_points(P)}
            theirs = {(w.point, w.kind, w.witness) for w in beat_points(opposite(P))}
            assert ours == theirs


def test_core_idempotent():
    for n in range(1, 6):
        for P in enumerate_posets(n, up_to_iso=True):
            assert core(core(P).core).removals == ()


def test_core_invariant_under_beat_removal():
    # removing any one beat point first cannot change the core's type
    for n in range(2, 7):
        for P in enumerate_posets(n, up_to_iso=True):
            c = core(P).core
            for w in beat_points(P):
                c2 = core(remove_element(P, w.point)).core
                assert is_isomorphic(c, c2, guard=n)


def test_randomized_cores_isomorphic():
    for n in range(1, 6):
        for P in enumerate_posets(n, up_to_iso=True):
            base = core(P).core
            for seed in range(3):
                t = core(P, random.Random(seed))
                assert is_isomorphic(base, t.core, guard=n)
                assert len(t.core) == len(P) - len(t.removals)
