import hashlib
import itertools
import random
from math import comb

import pytest

from finposet import (
    BeatPointWitness,
    CubeEmbedding,
    EmptyPoset,
    InvalidEmbedding,
    InvalidWitness,
    OutOfRange,
    Poset,
    TooLarge,
    TooWide,
    antichain,
    beat_points,
    build_poset,
    canonical_embedding,
    chain,
    cone,
    contractible_embedding,
    core,
    covers,
    exists_embedding,
    hypercube,
    is_contractible,
    lower_bound,
    random_poset,
    structure_stats,
    suspension,
    two_dimension,
    upper_bound,
    verify_embedding,
)
from finposet import dimension, homotopy
from finposet.census import enumerate_posets
from finposet.core import (
    _bits,
    _down_sets,
    _lower_covers,
    _naturally_labeled,
    disjoint_union,
    induced_subposet,
    opposite,
    remove_element,
)
from finposet.dimension import extend_embedding_at_beat_point
from oracles import (
    covers_brute,
    declared_shuffled,
    exists_embedding_naive,
    fence,
    ranked_rows_brute,
    search_masks_lexicographic,
    structure_stats_rescan,
    two_dimension_cover,
)


def test_lower_bound():
    assert lower_bound(chain(5)) == 4
    assert lower_bound(antichain(8)) == 3
    assert lower_bound(hypercube(3)) == 3
    assert lower_bound(chain(1)) == 0
    with pytest.raises(EmptyPoset):
        lower_bound(Poset([], []))


def test_upper_bound():
    assert upper_bound(chain(1)) == 0
    assert upper_bound(chain(4)) == 3  # contractible
    assert upper_bound(antichain(2)) == 2  # not contractible
    assert upper_bound(fence()) == 3
    with pytest.raises(EmptyPoset):
        upper_bound(Poset([], []))


def test_canonical_embedding_values():
    C = build_poset("ab", [("a", "b")])
    E = canonical_embedding(C)
    assert E.width == 2
    assert E.bitstring("a") == "00"
    assert E.bitstring("b") == "10"
    single = build_poset(["x"], [])
    E1 = canonical_embedding(single)
    assert E1.width == 1 and E1.masks["x"] == 0
    E4 = canonical_embedding(fence())
    assert E4.width == 4
    assert verify_embedding(E4)


def test_bitstring_matches_per_bit_reference():
    # one format call must print what the per-bit walk printed, for any int mask
    rng = random.Random(5)
    P = build_poset(["x"], [])
    for width in range(141):
        wide = rng.getrandbits(width + 9)  # bits above the width too
        for m in (0, -1, (1 << width) - 1, 1 << width, -(1 << width), wide, -wide - 1):
            E = CubeEmbedding(P, width, {"x": m})
            assert E.bitstring("x") == "".join("1" if m >> i & 1 else "0" for i in range(width)), (width, m)


def test_canonical_embedding_census():
    for n in range(1, 6):
        for P in enumerate_posets(n, up_to_iso=True):
            assert verify_embedding(canonical_embedding(P))


def test_verify_embedding_rejects():
    C = build_poset("ab", [("a", "b")])
    assert not verify_embedding(CubeEmbedding(C, 1, {"a": 1, "b": 0}))  # reversed
    A = antichain(2)
    assert not verify_embedding(CubeEmbedding(A, 2, {"0": 1, "1": 3}))  # comparable
    assert not verify_embedding(CubeEmbedding(C, 1, {"a": 0, "b": 2}))  # out of range
    assert not verify_embedding(CubeEmbedding(C, 1, {"a": 0}))  # missing element
    assert not verify_embedding(CubeEmbedding(C, 2, {"a": 1, "b": 1}))  # not injective


def test_exists_embedding_on_example_space():
    P = fence()
    assert exists_embedding(P, 2) is None
    E = exists_embedding(P, 3)
    assert E is not None and E.width == 3
    assert verify_embedding(E)


def test_exists_embedding_chain_prefix_masks():
    for n in range(1, 7):
        E = exists_embedding(chain(n), n - 1) if n > 1 else exists_embedding(chain(1), 0)
        assert E is not None
        assert [E.masks[str(i)] for i in range(n)] == [(1 << i) - 1 for i in range(n)]


def test_exists_embedding_antichain_sperner():
    # largest antichain of the w-cube has size C(w, w//2); all points of
    # an antichain are twins, and the twin rule must keep every answer
    for n in range(2, 11):
        for w in range(0, 6):
            found = exists_embedding(antichain(n), w) is not None
            assert found == (comb(w, w // 2) >= n)


def test_exists_embedding_guards():
    with pytest.raises(TooWide):
        exists_embedding(chain(2), 31)
    with pytest.raises(OutOfRange):
        exists_embedding(chain(2), -1)
    with pytest.raises(EmptyPoset):
        exists_embedding(Poset([], []), 3)


def test_width_guard_holds_on_both_paths():
    # the 32-chain needs width 31, past WIDTH_GUARD: two_dimension's search refuses at once
    with pytest.raises(TooWide):
        two_dimension(disjoint_union(chain(32), antichain(9)), max_size=41)
    with pytest.raises(TooWide):
        exists_embedding(antichain(3), dimension.WIDTH_GUARD + 1)


def test_exists_embedding_at_width_guard():
    # the candidate bitsets have 2^WIDTH_GUARD bits; the widest search allowed still answers
    w = dimension.WIDTH_GUARD
    for P in (chain(2), antichain(12), disjoint_union(chain(w - 1), antichain(4))):
        E = exists_embedding(P, w)
        assert E is not None and E.width == w and verify_embedding(E)


def search_matches_lexicographic_oracle(P, widths=None):
    for w in range(len(P) + 1) if widths is None else widths:
        E = exists_embedding(P, w)
        assert (None if E is None else E.masks) == search_masks_lexicographic(P, w), w


def test_search_masks_match_lexicographic_oracle_over_unlabeled_census():
    # the search returns the lexicographically least embedding at every width
    for n in range(1, 7):
        for P in enumerate_posets(n, up_to_iso=True):
            search_matches_lexicographic_oracle(P)


def test_search_masks_match_lexicographic_oracle_on_search_routed_posets():
    # refuting width value - 1 without the twin rule takes the oracle seconds, so widths start at the value
    for n, p, seed in ((10, 0.1, 5), (10, 0.15, 0), (10, 0.2, 0)):
        P = random_poset(n, p, seed)
        assert _down_sets(P.down_rows, dimension._Plan(P).order, dimension.COLOUR_LIMIT) is None
        search_matches_lexicographic_oracle(P, range(backends_agree(P).width, n + 1))


def test_search_finds_least_embedding_that_twin_keys_skipped():
    # two 7-point classes whose least width-5 embedding an earlier twin rule,
    # key(m) = (popcount(m >> u), m & (2^u - 1)), cut off
    for rows, least in (
        ((1, 2, 6, 10, 18, 34, 66), [3, 4, 13, 14, 21, 22, 28]),
        ((1, 2, 6, 10, 18, 34, 67), [3, 4, 13, 14, 21, 22, 7]),
    ):
        P = Poset([str(i) for i in range(7)], rows)
        E = exists_embedding(P, 5)
        assert E is not None and E.masks == search_masks_lexicographic(P, 5)
        assert [E.masks[x] for x in structure_stats(P).linear_extension] == least


def test_search_masks_match_lexicographic_oracle_at_the_value():
    for seed in range(100):
        P = random_poset(7 + seed % 3, (0.2, 0.3, 0.4)[seed % 3], seed=seed)
        w = two_dimension(P).value
        E = exists_embedding(P, w)
        assert E is not None and E.masks == search_masks_lexicographic(P, w)


def test_two_dimension_known_values():
    for n in range(1, 8):
        assert two_dimension(chain(n)).value == n - 1
    assert two_dimension(antichain(3)).value == 3
    assert two_dimension(hypercube(3), max_size=12).value == 3
    assert two_dimension(fence()).value == 3
    for k in range(3):
        assert two_dimension(suspension(antichain(2), k)).value == 2 * k + 2
    for k in range(2):
        assert two_dimension(suspension(antichain(3), k)).value == 2 * k + 3


def test_two_dimension_certificate():
    cert = two_dimension(fence())
    assert cert.exhausted_below
    assert cert.witness.width == cert.value
    assert verify_embedding(cert.witness)
    assert cert.value >= lower_bound(fence())


def test_two_dimension_guards():
    with pytest.raises(EmptyPoset):
        two_dimension(Poset([], []))
    with pytest.raises(TooLarge):
        two_dimension(chain(13))
    assert two_dimension(chain(13), max_size=13).value == 12


def test_two_dimension_deterministic():
    a = two_dimension(fence())
    b = two_dimension(fence())
    assert a.value == b.value and a.witness.masks == b.witness.masks


def test_extend_up_and_down_formulas():
    C = build_poset("abc", [("a", "b"), ("b", "c")])
    rest = remove_element(C, "b")
    E = CubeEmbedding(rest, 1, {"a": 0, "c": 1})
    up = extend_embedding_at_beat_point(C, BeatPointWitness("b", "up", "c"), E)
    assert [up.bitstring(x) for x in "abc"] == ["00", "10", "11"]
    down = extend_embedding_at_beat_point(C, BeatPointWitness("b", "down", "a"), E)
    assert [down.bitstring(x) for x in "abc"] == ["00", "01", "11"]
    assert verify_embedding(up) and verify_embedding(down)


def test_extend_rejects_bad_inputs():
    C = build_poset("abc", [("a", "b"), ("b", "c")])
    rest = remove_element(C, "b")
    E = CubeEmbedding(rest, 1, {"a": 0, "c": 1})
    S = suspension(antichain(2), 1)
    with pytest.raises(InvalidWitness):
        extend_embedding_at_beat_point(S, BeatPointWitness("+1", "up", "-1"), E)
    with pytest.raises(InvalidWitness):
        extend_embedding_at_beat_point(C, BeatPointWitness("b", "up", "a"), E)
    with pytest.raises(InvalidEmbedding):
        bad = CubeEmbedding(rest, 1, {"a": 1, "c": 0})
        extend_embedding_at_beat_point(C, BeatPointWitness("b", "up", "c"), bad)
    with pytest.raises(InvalidEmbedding):
        other = CubeEmbedding(chain(2), 1, {"0": 0, "1": 1})
        extend_embedding_at_beat_point(C, BeatPointWitness("b", "up", "c"), other)


def test_extend_over_census():
    # re-inserting any beat point into the canonical embedding verifies
    for n in range(2, 6):
        for P in enumerate_posets(n, up_to_iso=True):
            for w in beat_points(P):
                E = canonical_embedding(remove_element(P, w.point))
                grown = extend_embedding_at_beat_point(P, w, E)
                assert grown.width == E.width + 1
                assert verify_embedding(grown)


def test_down_beat_matches_opposite_route():
    # the down formula must equal: flip the poset, extend as up, flip back
    for n in range(2, 6):
        for P in enumerate_posets(n, up_to_iso=True):
            for w in beat_points(P):
                if w.kind != "down":
                    continue
                rest = remove_element(P, w.point)
                E = canonical_embedding(rest)
                direct = extend_embedding_at_beat_point(P, w, E)

                full = (1 << E.width) - 1
                op_rest = opposite(rest)
                flipped = CubeEmbedding(
                    op_rest, E.width, {x: full ^ m for x, m in E.masks.items()}
                )
                assert verify_embedding(flipped)
                op_w = BeatPointWitness(w.point, "up", w.witness)
                grown = extend_embedding_at_beat_point(opposite(P), op_w, flipped)
                wide = (1 << grown.width) - 1
                unflipped = {x: wide ^ m for x, m in grown.masks.items()}
                assert unflipped == direct.masks


def test_contractible_embedding_values():
    assert contractible_embedding(chain(4)).width == 3
    E = contractible_embedding(fence())
    assert E.width == 3 and verify_embedding(E)
    # non-contractible input degenerates to the exact solver on the core
    S = suspension(antichain(2), 1)
    E = contractible_embedding(S)
    assert E.width == 4 and verify_embedding(E)
    for P in enumerate_posets(5, up_to_iso=True):
        E = contractible_embedding(cone(P))
        assert E.width == len(P) and verify_embedding(E)


def test_contractible_embedding_takes_trace_and_cap(monkeypatch):
    deflations = []

    class Counted(homotopy._Deflation):
        def __init__(self, P):
            deflations.append(P)
            super().__init__(P)

    monkeypatch.setattr(homotopy, "_Deflation", Counted)
    for P in (chain(4), fence(), cone(suspension(antichain(2))), suspension(antichain(2), 1)):
        trace = core(P)
        deflations.clear()
        assert contractible_embedding(P, trace=trace) == contractible_embedding(P)
        assert len(deflations) == 1  # only the call without a trace deflates
    # suspension(antichain(2), 2) is its own 6-point core, embedded exactly
    S = suspension(antichain(2), 2)
    with pytest.raises(TooLarge):
        contractible_embedding(S, max_size=5)
    assert contractible_embedding(S, max_size=6).width == 6


def test_contractible_embedding_raises_on_invalid_replay(monkeypatch):
    add = dimension._add_beat_point

    def twin(P, alive, w, masks, width):
        add(P, alive, w, masks, width)
        masks[w.point] = masks[w.witness]

    monkeypatch.setattr(dimension, "_add_beat_point", twin)
    with pytest.raises(InvalidEmbedding):
        contractible_embedding(chain(3))


def test_contractible_embedding_census():
    for n in range(1, 7):
        for P in enumerate_posets(n, up_to_iso=True):
            if not is_contractible(P):
                continue
            E = contractible_embedding(P)
            assert E.width == max(n - 1, 0)
            assert verify_embedding(E)


def test_opposite_invariance():
    for n in range(1, 6):
        for P in enumerate_posets(n, up_to_iso=True):
            cert = two_dimension(P)
            Q = opposite(P)
            assert two_dimension(Q).value == cert.value
            full = (1 << cert.witness.width) - 1
            flipped = CubeEmbedding(
                Q, cert.witness.width, {x: full ^ m for x, m in cert.witness.masks.items()}
            )
            assert verify_embedding(flipped)


def test_monotony_on_subsets():
    for n in range(1, 5):
        for P in enumerate_posets(n, up_to_iso=True):
            d = two_dimension(P).value
            elems = list(P.elements)
            for r in range(1, n + 1):
                for S in itertools.combinations(elems, r):
                    sub = induced_subposet(P, S)
                    assert two_dimension(sub).value <= d


def test_beat_point_continuity_census():
    for n in range(2, 6):
        for P in enumerate_posets(n, up_to_iso=True):
            d = two_dimension(P).value
            for w in beat_points(P):
                d2 = two_dimension(remove_element(P, w.point)).value
                assert d - 1 <= d2 <= d


def test_naive_oracle_matches():
    for n in range(1, 5):
        for P in enumerate_posets(n, up_to_iso=True):
            for w in range(0, n + 1):
                fast = exists_embedding(P, w)
                slow = exists_embedding_naive(P, w)
                assert (fast is None) == (slow is None)
                if fast is not None:
                    assert verify_embedding(fast) and verify_embedding(slow)
            naive_value = next(
                w for w in range(0, n + 1) if exists_embedding_naive(P, w) is not None
            )
            assert two_dimension(P).value == naive_value


def with_twin(P, x):
    """P plus a new point with the same strict down-set and up-set as x."""
    twin = f"t{len(P)}"
    below = [(y, twin) for y in P.down_set(x) if y != x]
    above = [(twin, y) for y in P.up_set(x) if y != x]
    return build_poset(list(P.elements) + [twin], covers(P) + below + above)


def random_posets_with_twins():
    """20 seeded random posets of 8-10 points, each with at least one twin class."""
    out = []
    for seed in range(20):
        P = random_poset(6 + seed % 3, (0.2, 0.35, 0.5)[seed % 3], seed=seed)
        for k in range(2):
            P = with_twin(P, P.elements[(seed + 3 * k) % len(P)])
        out.append(P)
    return out


def test_cover_oracle_matches_over_unlabeled_census():
    for n in range(1, 7):
        for P in enumerate_posets(n, up_to_iso=True):
            cert = two_dimension(P)
            assert cert.value == two_dimension_cover(P)
            assert cert.exhausted_below and cert.witness.width == cert.value
            assert verify_embedding(cert.witness)


def test_cover_oracle_matches_on_random_posets_with_twins():
    for P in random_posets_with_twins():
        assert 8 <= len(P) <= 10
        cert = two_dimension(P)
        assert cert.value == two_dimension_cover(P)
        assert verify_embedding(cert.witness)


def backends_agree(P):
    """Run both exact backends through the width loop, whatever the up-set count; return the search's answer."""
    plan = dimension._Plan(P)
    by_colour = dimension._least_embedding(plan, dimension._colour_embedding(plan))
    by_search = dimension._least_embedding(plan, dimension._search_embedding(plan))
    assert by_colour.poset == by_search.poset == P
    assert by_colour.width == by_search.width
    assert verify_embedding(by_colour) and verify_embedding(by_search)
    return by_search


# SHA-256 of the search's width and masks, in element order, on the 2,450
# classes of 1-7 points.  A pruning rule may only cut branches that hold no
# least embedding, so it must leave this digest as it is.
SEARCH_WITNESS_DIGEST = "dc6f1ff44560d329702edcfc66e3a677aadb78e07aec534975ccc39584183b13"


def test_backends_agree_over_unlabeled_census():
    witnesses = []
    for n in range(1, 8):
        for P in enumerate_posets(n, up_to_iso=True):
            E = backends_agree(P)
            witnesses.append((E.width, [E.masks[x] for x in P.elements]))
    assert len(witnesses) == 2450
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == SEARCH_WITNESS_DIGEST


def two_dimension_digest_posets():
    """Every class of 2-6 points, each followed by its one-point deletions,
    then 100 seeded random posets of 9-12 points, none naturally labeled."""
    for n in range(2, 7):
        for P in enumerate_posets(n, up_to_iso=True):
            yield P
            for x in P.elements:
                yield remove_element(P, x)
    for seed in range(100):
        yield random_poset(9 + seed % 4, (0.2, 0.35, 0.5)[seed % 3], seed)


def two_dimension_witnesses(posets):
    witnesses = []
    for P in posets:
        E = two_dimension(P, max_size=len(P)).witness
        witnesses.append((E.width, [E.masks[x] for x in P.elements]))
    return witnesses


# SHA-256 of two_dimension's width and masks, in element order, on
# two_dimension_digest_posets: 2,810 posets, both backends, both branches of
# the plan.  A change to the solver's set-up must leave it as it is.
TWO_DIMENSION_DIGEST = "d8a48107d1842c76e769671d8bc49448aceec0da6872c5f8561434a8aa577aa8"


def test_two_dimension_witnesses_match_digest():
    witnesses = two_dimension_witnesses(two_dimension_digest_posets())
    assert len(witnesses) == 2810
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == TWO_DIMENSION_DIGEST


def test_kept_cube_tables_stay_within_budget(monkeypatch):
    # the width-20 probe passes the budget, which drops the small widths'
    # tables; searches at those widths then rebuild them to the same answers
    tables = dimension._CubeTables()
    monkeypatch.setattr(dimension, "_cube_tables", tables)
    small = [P for n in range(2, 6) for P in enumerate_posets(n, up_to_iso=True)]
    before = two_dimension_witnesses(small)
    assert set(tables.cubes) == {1, 2, 3, 4, 5}
    assert exists_embedding(disjoint_union(chain(19), antichain(4)), 20) is not None
    held = sum((len(c.at_most) + 2 * len(c.cones) + len(c.segments)) << c.width for c in tables.cubes.values())
    assert held <= tables.bits <= dimension.CUBE_BITS
    assert all(width == 20 for width in tables.cubes)
    assert two_dimension_witnesses(small) == before


def test_backends_agree_on_random_posets_with_twins():
    for P in random_posets_with_twins():
        backends_agree(P)
    # the search's slowest suspended 6-point poset (15,218 nodes at width 6)
    assert backends_agree(suspension(disjoint_union(antichain(4), chain(2)))).width == 7


def test_backends_agree_past_twelve_points():
    # 14 points and 586 up-sets: past SIZE_GUARD, and two_dimension with max_size=14 sends it to the search
    assert backends_agree(random_poset(14, 0.3, 0)).width == 7


def test_colouring_answers_past_both_guards():
    # past SIZE_GUARD, and the 48-point values past WIDTH_GUARD, where the search refuses to run
    for (n, p, seed), value in (((48, 0.5, 0), 32), ((48, 0.5, 1), 35), ((24, 0.3, 1), 15)):
        P = random_poset(n, p, seed)
        cert = two_dimension(P, max_size=n)
        assert cert.value == cert.witness.width == value
        assert cert.exhausted_below and verify_embedding(cert.witness)
        if value > dimension.WIDTH_GUARD:
            with pytest.raises(TooWide):
                exists_embedding(P, value)


def test_backend_choice_by_up_set_count(monkeypatch):
    calls = []

    def counted(name):
        original = getattr(dimension, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    monkeypatch.setattr(dimension, "_colour_embedding", counted("_colour_embedding"))
    monkeypatch.setattr(dimension, "_search_embedding", counted("_search_embedding"))
    # antichains on 5, 7, 8 and 9 points have 32, 128, 256 and 512 up-sets
    for P, backend in (
        (antichain(5), "_search_embedding"),
        (antichain(7), "_colour_embedding"),
        (antichain(8), "_search_embedding"),
        (antichain(9), "_search_embedding"),
    ):
        calls.clear()
        cert = two_dimension(P)
        assert set(calls) == {backend}
        assert cert.value == (4 if len(P) == 5 else 5)
        assert cert.exhausted_below and verify_embedding(cert.witness)
    assert 5 < dimension.COLOUR_MIN_SIZE <= 7 and 128 <= dimension.COLOUR_LIMIT < 256


# seeded random posets with 268-318 up-sets, past COLOUR_LIMIT
MOVED_BAND = ((12, 0.3, 0, 318), (11, 0.2, 2, 300), (12, 0.2, 6, 268))
# seeded random posets with 164-244 up-sets, within COLOUR_LIMIT
COLOUR_BAND = ((10, 0.2, 2, 164), (11, 0.3, 0, 204), (12, 0.3, 3, 244))


def test_backends_agree_on_moved_band():
    for n, p, seed, up_sets in MOVED_BAND:
        P = random_poset(n, p, seed)
        assert len(_down_sets(P.down_rows, dimension._Plan(P).order)) == up_sets
        assert backends_agree(P).width == 6


def test_moved_band_routes_to_search(monkeypatch):
    monkeypatch.setattr(dimension, "_colour_embedding", lambda plan: pytest.fail("routed to the colouring"))
    for n, p, seed, _ in MOVED_BAND:
        cert = two_dimension(random_poset(n, p, seed))
        assert cert.value == 6 and cert.exhausted_below and verify_embedding(cert.witness)


def colouring_answers_every_width(P):
    """Ask one colouring for every width from |P| down to 0: it refutes exactly the widths the search refutes."""
    plan = dimension._Plan(P)
    embed_at = dimension._colour_embedding(plan)
    for w in range(len(P), -1, -1):
        E = embed_at(w)
        assert (E is None) == (exists_embedding(P, w) is None), w
        assert E is None or (E.width == w and verify_embedding(E))


def test_colouring_answers_every_width_downwards():
    # the width loop asks widths upwards and stops at the value; the
    # colouring keeps no state between widths, so any order gives the same answers
    for n in range(1, 7):
        for P in enumerate_posets(n, up_to_iso=True):
            colouring_answers_every_width(P)
    for n, p, seed, up_sets in COLOUR_BAND:
        P = random_poset(n, p, seed)
        assert len(_down_sets(P.down_rows, dimension._Plan(P).order)) == up_sets
        colouring_answers_every_width(P)


def test_colouring_raises_on_invalid_witness(monkeypatch):
    monkeypatch.setattr(dimension, "verify_embedding", lambda E: False)
    with pytest.raises(InvalidEmbedding):
        two_dimension(antichain(6))


def test_search_answers_are_verified(monkeypatch):
    # the width loop checks every witness, not only the colouring's
    monkeypatch.setattr(dimension, "_colour_embedding", lambda plan: pytest.fail("routed to the colouring"))
    monkeypatch.setattr(dimension, "verify_embedding", lambda E: False)
    # the last one has 608 up-sets, past COLOUR_LIMIT
    for P in (antichain(5), chain(4), disjoint_union(suspension(antichain(4)), antichain(5))):
        with pytest.raises(InvalidEmbedding):
            two_dimension(P)


def test_colouring_leaves_up_rows_unbuilt(monkeypatch):
    # the colouring reads the plan's ranked rows, never the poset's transpose
    monkeypatch.setattr(dimension, "_search_embedding", lambda plan: pytest.fail("routed to the search"))
    fresh = [antichain(6), suspension(antichain(6))] + [random_poset(n, p, s) for n, p, s, _ in COLOUR_BAND]
    for P in fresh:
        assert P._up is None
        assert verify_embedding(two_dimension(P).witness)
        assert P._up is None


def test_capacity_rule_on_suspended_antichain():
    # each of the six antichain points has two incomparable tops above it,
    # so its mask leaves at least two coordinates free
    P = suspension(antichain(6))
    assert exists_embedding(P, 5) is None
    E = exists_embedding(P, 6)
    assert E is not None and verify_embedding(E)


def test_capacity_rule_bounds_mask_size():
    # seven points above a bottom need bit_length(7) = 3 free coordinates
    P = build_poset("b0123456", [("b", str(k)) for k in range(7)])
    assert dimension._Plan(P).need[0] == 3
    assert two_dimension(P).value == 5  # C(5, 2) >= 7 > C(4, 2)
    for w in range(5, len(P) + 1):
        E = exists_embedding(P, w)
        assert E is not None and verify_embedding(E)
        assert E.masks["b"].bit_count() <= w - 3


def test_plan_covers_match_brute_force_oracle():
    # the lower covers over the plan's positions, mapped back to elements
    for n in range(1, 8):
        for P in enumerate_posets(n, up_to_iso=True):
            plan = dimension._Plan(P)
            names = [P.elements[i] for i in plan.order]
            lower_covers = _lower_covers(plan.below)
            pairs = [(names[s], names[t]) for t, lower in enumerate(lower_covers) for s in _bits(lower)]
            assert sorted(pairs, key=lambda p: (P.index(p[0]), P.index(p[1]))) == covers_brute(P)


def test_plan_matches_rescan_and_pairwise_oracles():
    # both branches of the plan: the index order of naturally labeled rows
    # (every class) and the heap pass (shuffled classes, random posets)
    shuffled = [declared_shuffled(P, n) for n in range(1, 7) for P in enumerate_posets(n, up_to_iso=True)]
    randoms = [random_poset(4 + seed % 9, (0.2, 0.4, 0.6)[seed % 3], seed) for seed in range(30)]
    classes = [P for n in range(1, 8) for P in enumerate_posets(n, up_to_iso=True)]
    assert all(_naturally_labeled(P.down_rows) for P in classes)
    assert sum(not _naturally_labeled(P.down_rows) for P in shuffled + randoms) > 300
    for P in classes + shuffled + randoms:
        plan = dimension._Plan(P)
        order = [P.index(x) for x in structure_stats_rescan(P).linear_extension]
        assert list(plan.order) == order
        assert (plan.below, plan.above) == ranked_rows_brute(P.down_rows, order)[1:]
        assert plan.start == lower_bound(P)


def test_linear_extension_once_per_two_dimension(monkeypatch):
    # one plan per poset, which runs the heap pass only when the rows are not
    # naturally labeled, and one width loop: each width from the plan's start
    # up to the answer is asked once, in order, of the chosen backend
    extensions = []
    asked = []
    linear_extension = dimension._linear_extension

    def counted_extension(rows):
        extensions.append(rows)
        return linear_extension(rows)

    def counted(backend, factory):
        def set_up(*args):
            embed_at = factory(*args)

            def at(width):
                asked.append((backend, width))
                return embed_at(width)

            return at

        return set_up

    monkeypatch.setattr(dimension, "_linear_extension", counted_extension)
    monkeypatch.setattr(dimension, "_search_embedding", counted("search", dimension._search_embedding))
    monkeypatch.setattr(dimension, "_colour_embedding", counted("colour", dimension._colour_embedding))
    # 608 up-sets: the width search, at widths 4, 5 and 6
    searched = disjoint_union(suspension(antichain(4)), antichain(5))
    # 67 up-sets: the colouring, which reads the same plan
    coloured = suspension(antichain(6))
    # a shuffled declaration is not naturally labeled, so its plan runs the heap pass once
    for P, backend, heap_passes in (
        (searched, "search", 0),
        (coloured, "colour", 0),
        (declared_shuffled(searched, 3), "search", 1),
        (declared_shuffled(coloured, 3), "colour", 1),
    ):
        extensions.clear()
        asked.clear()
        assert two_dimension(P, max_size=len(P)).value == 6
        assert len(extensions) == heap_passes
        start = dimension._Plan(P).start
        assert start < 6
        assert asked == [(backend, width) for width in range(start, 7)]
