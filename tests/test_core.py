import itertools
import math
import random

import pytest

from finposet import (
    CycleError,
    Poset,
    TooLarge,
    UnknownElement,
    antichain,
    build_poset,
    chain,
    covers,
    hypercube,
    is_isomorphic,
    random_poset,
    structure_stats,
    suspension,
    topology_census,
)
from finposet.census import enumerate_posets
from finposet.core import (
    TRANSPOSE_MIN_DEGREE,
    _bits,
    _canonical_rows,
    _dense,
    _down_sets,
    _ranked,
    _relabel,
    _transpose,
    disjoint_union,
    induced_subposet,
    opposite,
    product,
    remove_element,
)
from oracles import (
    MonotoneMap,
    covers_brute,
    declared_shuffled,
    fence,
    is_initial_map,
    is_isomorphic_brute,
    ranked_rows_brute,
    structure_stats_rescan,
    topology_census_brute,
)


def test_build_closure_and_queries():
    P = fence()
    P.check()
    assert len(P) == 4
    assert list(P) == ["a", "b", "c", "d"]
    assert P.leq("d", "a")  # transitivity through c
    assert P.leq("a", "a") and not P.lt("a", "a")
    assert not P.leq("b", "c") and not P.leq("c", "b")
    assert "a" in P and "z" not in P


def test_build_rejects_bad_input():
    with pytest.raises(CycleError):
        build_poset("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(CycleError):
        build_poset("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(UnknownElement):
        build_poset("ab", [("a", "z")])
    with pytest.raises(UnknownElement):
        build_poset("ab", [("z", "a")])
    with pytest.raises(ValueError):
        build_poset("aab", [])
    with pytest.raises(ValueError, match="duplicate"):
        Poset("aab", [0b001, 0b010, 0b100])
    with pytest.raises(ValueError, match="row count"):
        Poset("ab", [0b01])
    with pytest.raises(UnknownElement):
        fence().index("z")


def test_check_raises_value_error_on_bad_rows():
    # the raw constructor trusts its rows; check() must reject them with
    # ValueError, not assert (python -O strips asserts)
    with pytest.raises(ValueError, match="not reflexive"):
        Poset("ab", [0b01, 0b00]).check()
    with pytest.raises(ValueError, match="antisymmetry"):
        Poset("ab", [0b11, 0b11]).check()
    with pytest.raises(ValueError, match="transitivity"):
        # a <= b and b <= c recorded, a <= c missing
        Poset("abc", [0b001, 0b011, 0b110]).check()
    with pytest.raises(ValueError, match="outside the element range"):
        Poset("a", [0b11]).check()


def test_covers_is_transitive_reduction():
    P = fence()
    assert covers(P) == [("c", "a"), ("d", "b"), ("d", "c")]
    # rebuilding from the covers gives back the same order
    assert build_poset(P.elements, covers(P)) == P
    assert covers(chain(4)) == [("0", "1"), ("1", "2"), ("2", "3")]
    assert covers(antichain(3)) == []


def test_covers_match_brute_force_oracle():
    for n in range(8):
        for P in enumerate_posets(n, up_to_iso=True):
            assert covers(P) == covers_brute(P)
    rng = random.Random(2007)
    for seed in range(50):
        P = random_poset(rng.randint(20, 200), rng.choice([0.02, 0.05, 0.2, 0.5]), seed=seed)
        assert covers(P) == covers_brute(P)
    tower = suspension(antichain(2), 99)
    assert covers(tower) == covers_brute(tower)


def test_covers_in_natural_and_shuffled_order():
    # the cube's index order is a linear extension; a shuffled copy's is not
    P = hypercube(5)
    assert covers(P) == covers_brute(P)
    Q = declared_shuffled(P, 5)
    assert covers(Q) == covers_brute(Q)
    assert set(covers(Q)) == set(covers(P))


def test_transpose_matches_bit_by_bit():
    rng = random.Random(17)
    for n in list(range(20)) + [31, 32, 33, 64, 65, 200, 257]:
        rows = [rng.getrandbits(n) for _ in range(n)]
        assert _transpose(rows, n) == [sum((rows[i] >> j & 1) << i for i in range(n)) for j in range(n)]


def test_ranked_matches_pairwise_oracle():
    # the pair walk on small or sparse rows, the two transposes on dense ones
    crossover = 2 * TRANSPOSE_MIN_DEGREE + 1  # the least size with dense rows
    assert _dense(chain(crossover).down_rows) and not _dense(chain(crossover - 1).down_rows)
    rng = random.Random(18)
    paths = set()
    for n in (0, 1, 8, 9, crossover - 1, crossover, 64, 65, 200, 257):
        for P in (chain(n), random_poset(n, 0.5, seed=n), random_poset(n, min(1, 2 / max(n, 1)), seed=n)):
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            for order in (range(n), shuffled):
                assert _ranked(P.down_rows, order) == ranked_rows_brute(P.down_rows, order), n
            paths.add((n >= crossover, _dense(P.down_rows)))
    assert paths == {(False, False), (True, False), (True, True)}


def test_covers_and_up_rows_on_shuffled_tower():
    tower = declared_shuffled(suspension(antichain(2), 99), 18)
    down, n = tower.down_rows, len(tower)
    assert n == 200 and _dense(down)
    assert tower.up_rows == tuple(sum((down[j] >> i & 1) << j for j in range(n)) for i in range(n))
    assert covers(tower) == covers_brute(tower)


def test_minimal_open_sets():
    P = fence()
    assert P.down_set("a") == {"a", "c", "d"}
    assert P.down_set("b") == {"b", "d"}
    assert P.down_set("c") == {"c", "d"}
    assert P.down_set("d") == {"d"}


def test_extremal_elements():
    P = fence()
    assert P.maximal_elements() == ["a", "b"]
    assert P.minimal_elements() == ["d"]
    assert P.maximum() is None
    assert P.minimum() == "d"
    assert chain(3).maximum() == "2"


def test_opposite_involution():
    P = fence()
    assert opposite(opposite(P)) == P
    assert covers(opposite(P)) == [("a", "c"), ("b", "d"), ("c", "d")]
    assert opposite(P).minimum() is None
    assert opposite(P).maximum() == "d"


def test_product_order():
    P = chain(2)
    Q = antichain(2)
    R = product(P, Q)
    R.check()
    assert len(R) == 4
    assert R.leq("(0,0)", "(1,0)")
    assert not R.leq("(0,0)", "(1,1)")  # second coordinates incomparable
    assert R.leq("(0,1)", "(1,1)")
    assert not R.leq("(0,0)", "(0,1)")
    assert not R.leq("(0,1)", "(1,0)")
    # product of chains is a grid: count comparabilities against a direct model
    A, B = chain(3), chain(2)
    G = product(A, B)
    expected = sum(
        1
        for (a, b) in itertools.product(A.elements, B.elements)
        for (c, d) in itertools.product(A.elements, B.elements)
        if A.leq(a, c) and B.leq(b, d)
    )
    got = sum(1 for x in G for y in G if G.leq(x, y))
    assert got == expected


def test_disjoint_union_and_renaming():
    P = chain(2)
    Q = chain(2)
    U = disjoint_union(P, Q)
    U.check()
    assert U.elements == ("0", "1", "0'", "1'")
    assert U.leq("0", "1") and U.leq("0'", "1'")
    assert not U.leq("0", "1'") and not U.leq("0'", "1")
    # union with the empty poset is the identity
    assert disjoint_union(P, Poset([], [])) == P


def test_induced_subposet_keeps_comparabilities():
    P = fence()
    S = induced_subposet(P, ["a", "d", "b"])
    S.check()
    assert S.elements == ("a", "b", "d")
    assert S.leq("d", "a")  # survives even though c is gone
    assert not S.leq("b", "a")
    with pytest.raises(UnknownElement):
        induced_subposet(P, ["a", "z"])


def test_remove_element_matches_induced_subposet():
    # dropping one bit by shifts gives the same elements and rows as the rebuild
    def removals_match(P):
        for x in P.elements:
            assert remove_element(P, x) == induced_subposet(P, [e for e in P.elements if e != x])
        with pytest.raises(UnknownElement):
            remove_element(P, "nowhere")

    for n in range(1, 7):
        for P in enumerate_posets(n, up_to_iso=True):
            removals_match(P)
    for seed in range(20):
        removals_match(declared_shuffled(random_poset(4 + seed % 9, (0.2, 0.4, 0.6)[seed % 3], seed), seed))


def test_topology_census_example_space():
    # opens of the fence: {}, {d}, {c,d}, {b,d}, {a,c,d}, {b,c,d}, X
    assert topology_census(fence()) == (7, 7)


def test_topology_census_known_families():
    # chain(n): opens are the n+1 down segments; antichains are singletons + empty
    for n in range(5):
        assert topology_census(chain(n)) == (n + 1, n + 1)
    # antichain(n): every subset is open and an antichain
    for n in range(5):
        assert topology_census(antichain(n)) == (2**n, 2**n)
    # down-set counts of the Boolean lattices: Dedekind numbers
    for n, dedekind in enumerate([2, 3, 6, 20]):
        assert topology_census(hypercube(n))[0] == dedekind
    with pytest.raises(TooLarge):
        topology_census(antichain(21))


def test_down_set_walk_counts_open_sets():
    small = [P for n in range(6) for P in enumerate_posets(n)]
    rng = random.Random(7)
    larger = [random_poset(rng.randint(8, 14), rng.choice([0.15, 0.3, 0.5]), seed=s) for s in range(30)]
    for P in small + larger:
        order = [P.index(e) for e in structure_stats(P).linear_extension]
        opens = topology_census_brute(P)[0]
        downs = _down_sets(P.down_rows, order)
        assert len(downs) == len(set(downs)) == opens
        assert all(P.down_rows[i] & ~d == 0 for d in downs for i in _bits(d))
        for limit in range(max(opens - 2, 0), opens + 2):
            walked = _down_sets(P.down_rows, order, limit)
            assert (walked is None) == (opens > limit)
            assert walked is None or walked == downs


def test_topology_census_matches_brute_force():
    classes = [P for n in range(8) for P in enumerate_posets(n, up_to_iso=True)]
    labeled = [P for n in range(6) for P in enumerate_posets(n)]
    rng = random.Random(11)
    larger = [random_poset(rng.randint(8, 14), rng.choice([0.1, 0.3, 0.6]), seed=s) for s in range(12)]
    assert len(classes) == 2451
    for P in classes + labeled + larger:
        counts = topology_census(P)
        assert P._up is None  # both walks read only the down rows
        assert counts == topology_census_brute(P)


def test_monotone_map_validation():
    P = chain(2)
    Q = fence()
    f = MonotoneMap(P, Q, {"0": "d", "1": "a"})
    assert f("0") == "d"
    with pytest.raises(ValueError):
        MonotoneMap(P, Q, {"0": "a", "1": "d"})  # order reversed
    with pytest.raises(ValueError):
        MonotoneMap(P, Q, {"0": "d"})  # not total
    with pytest.raises(ValueError):
        MonotoneMap(P, Q, {"0": "d", "1": "z"})  # bad codomain


def test_initial_map_biconditional():
    P = antichain(2)
    Q = chain(2)
    collapse = MonotoneMap(P, Q, {"0": "0", "1": "1"})
    assert not is_initial_map(collapse)  # comparability appears downstream
    embed = MonotoneMap(Q, fence(), {"0": "d", "1": "a"})
    assert is_initial_map(embed)
    ident = MonotoneMap(P, P, {"0": "0", "1": "1"})
    assert is_initial_map(ident)


def test_structure_stats():
    P = fence()
    s = structure_stats(P)
    assert s.height == 2
    assert s.linear_extension == ["d", "b", "c", "a"]
    assert structure_stats(chain(5)).height == 4
    assert structure_stats(antichain(4)).height == 0
    ext = structure_stats(hypercube(3)).linear_extension
    pos = {e: i for i, e in enumerate(ext)}
    Q = hypercube(3)
    for x in Q:
        for y in Q:
            if Q.lt(x, y):
                assert pos[x] < pos[y]


def test_structure_stats_matches_rescan_oracle():
    # the heap pass must give the first-ready extension the rescan gives
    posets = [P for n in range(8) for P in enumerate_posets(n, up_to_iso=True)]
    rng = random.Random(3)
    for seed in range(100):
        n = rng.randint(10, 200)
        posets.append(random_poset(n, rng.choice([0.02, 0.1, 0.3]) * 20 / n, seed=seed))
    posets.append(suspension(antichain(2), 99))
    assert len(posets[-1]) == 200
    # both sides of the crossover: covers on dense rows, all strict pairs on the rest
    assert {_dense(P.down_rows) for P in posets if len(P) > 2 * TRANSPOSE_MIN_DEGREE} == {True, False}
    for P in posets:
        assert structure_stats(P) == structure_stats_rescan(P)


def test_is_isomorphic():
    P = fence()
    relabeled = build_poset("wxyz", [("z", "x"), ("z", "y"), ("y", "w")])
    assert is_isomorphic(P, relabeled)
    assert not is_isomorphic(P, chain(4))
    assert not is_isomorphic(chain(3), chain(4))
    N = build_poset("abcd", [("a", "c"), ("b", "c"), ("b", "d")])
    assert not is_isomorphic(N, fence())
    assert is_isomorphic(opposite(opposite(N)), N)
    with pytest.raises(TooLarge):
        is_isomorphic(chain(11), chain(11))
    # differing sizes decide the answer before the guard applies
    assert not is_isomorphic(chain(11), chain(3))
    assert not is_isomorphic(antichain(2), chain(30))
    assert is_isomorphic(chain(11), chain(11), guard=11)


def relabeled(P, rng):
    """P with its points declared in a random order: new rows, same order."""
    return build_poset(rng.sample(P.elements, len(P)), covers(P))


def one_cover_changed(P):
    """Every poset made from P by removing one cover pair or adding one incomparable pair."""
    pairs = covers(P)
    out = [build_poset(P.elements, [c for c in pairs if c != gone]) for gone in pairs]
    for x, y in itertools.permutations(P.elements, 2):
        if not P.leq(x, y) and not P.leq(y, x):
            out.append(build_poset(P.elements, pairs + [(x, y)]))
    return out


def test_canonical_rows_counts_automorphisms():
    twos = chain(2)
    for _ in range(4):
        twos = disjoint_union(twos, chain(2))
    pinned = [(antichain(n), math.factorial(n)) for n in range(7)]
    pinned += [(chain(n), 1) for n in range(1, 6)]
    pinned += [(hypercube(3), 6), (hypercube(4), 24), (twos, 120)]
    for P, automorphisms in pinned:
        form, order, generators = _canonical_rows(P.down_rows)
        assert order == automorphisms == group_order(generators, len(P))


def group_order(generators, n):
    """The order of the group of permutations of range(n) that the generators generate."""
    identity = tuple(range(n))
    group, todo = {identity}, [identity]
    while todo:
        p = todo.pop()
        for g in generators:
            q = tuple(g[i] for i in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return len(group)


def test_canonical_generators_generate_the_automorphism_group():
    # twin transpositions plus one permutation per further smallest-form leaf
    assert group_order([(1, 0, 2), (0, 2, 1)], 3) == 6 and group_order([(1, 0, 2, 3)], 4) == 2
    for n in range(7):
        for P in enumerate_posets(n, up_to_iso=True):
            form, automorphisms, generators = _canonical_rows(P.down_rows)
            assert form == P.down_rows
            assert all(sorted(g) == list(range(n)) and _relabel(form, g) == form for g in generators)
            assert group_order(generators, n) == automorphisms


def test_is_isomorphic_matches_brute_force_oracle():
    reps = enumerate_posets(4, up_to_iso=True)
    for P in enumerate_posets(4):
        for Q in reps:
            assert is_isomorphic(P, Q) == is_isomorphic_brute(P, Q)
    rng = random.Random(0)
    bases = [
        random_poset(5 + s % 3, (0.2, 0.35, 0.5)[s // 3 % 3], seed=s) for s in range(30)
    ]
    for P in bases + [hypercube(3), antichain(6)]:
        Q = relabeled(P, rng)
        assert is_isomorphic(P, Q) and is_isomorphic_brute(P, Q)
        changed = one_cover_changed(P)
        sample = [P] + rng.sample(changed, min(4, len(changed)))
        for A, B in itertools.combinations(sample, 2):
            B = relabeled(B, rng)
            assert is_isomorphic(A, B) == is_isomorphic_brute(A, B)
    # a hexagon next to a 4-crown: refinement leaves all minimal points in
    # one cell although they lie in two orbits, so the search must branch
    H = build_poset(
        "a0 a1 a2 b0 b1 b2 c0 c1 d0 d1".split(),
        [(f"a{i}", f"b{i}") for i in range(3)]
        + [(f"a{(i + 1) % 3}", f"b{i}") for i in range(3)]
        + [(c, d) for c in ("c0", "c1") for d in ("d0", "d1")],
    )
    for _ in range(20):
        assert is_isomorphic(H, relabeled(H, rng))


def test_equality_and_hash():
    assert fence() == fence()
    assert hash(fence()) == hash(fence())
    assert fence() != opposite(fence())
    assert fence() != "fence" and fence().__eq__("fence") is NotImplemented
    assert repr(chain(2)) == "Poset(['0', '1'], covers=[('0', '1')])"
    d = {fence(): 1}
    assert d[fence()] == 1
