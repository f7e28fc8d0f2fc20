import hashlib
import itertools
import math
import random

import pytest

from finposet import (
    EmptyPoset,
    OutOfRange,
    Poset,
    TooLarge,
    UnknownCheck,
    antichain,
    census_check,
    chain,
    is_isomorphic,
    random_poset,
    suspension,
)
from finposet import census, homotopy
from finposet.census import CHECKS, enumerate_posets
from finposet.core import _canonical_rows, _relabel
from oracles import automorphisms_brute, census_check_brute, exact_dim, heaviest_top_orbits


def brute_force_labeled_count(n):
    """Count partial orders by filtering every relation matrix directly."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = 0
    for bits in itertools.product([False, True], repeat=len(pairs)):
        rel = {(i, i) for i in range(n)}
        rel.update(p for p, b in zip(pairs, bits) if b)
        antisymmetric = not any((j, i) in rel for (i, j) in rel if i != j)
        transitive = all(
            (i, k) in rel for (i, j) in rel for (j2, k) in rel if j == j2
        )
        count += antisymmetric and transitive
    return count


def test_labeled_counts():
    assert [len(enumerate_posets(n)) for n in range(1, 7)] == [
        1,
        3,
        19,
        219,
        4231,
        130023,
    ]


def test_labeled_counts_against_matrix_filter():
    for n in range(1, 5):
        assert len(enumerate_posets(n)) == brute_force_labeled_count(n)


# SHA-256 of repr([P.down_rows for P in reps]) for each n: pins the
# canonical representatives and their order, not just their number.
UNLABELED_DIGESTS = {
    0: "b18a48f02566e6150fce7a3ece72478f44afc0341489d43f01f25f0351984bab",
    1: "2f89a856b49d78145fad2bef112e0a7279679104ddb8b55e95b949266fe943ac",
    2: "c29f7b44404ae46750dd43eda03f8b36dda994e2ec588103f93ab9e853bb3e85",
    3: "7b88aaac59b8ae1783c7e3c9e6de369d8303aab9614b9e1bbe95535a89cf31ee",
    4: "5abac8e1f7704cc70ab5bd3324f36ec785a40e4db178626d48cf630981c3630c",
    5: "dd2e13095096a755a44d8f2ef9c795471b5eb68c24405c8893fae615939f64f7",
    6: "0f53e858bc4af9ce9d3856388bb20b630c9ca29058c33e560f3e36125a0991d9",
    7: "87f2b88c9cc77b6ea63d92e81ffa97bf0f8aa0c0abd274dff1e11a970119372e",
    8: "6bec985b29966027a69ac77fe1bea79c35593a3dfb5948b5d44136b22278da1d",
}


def digest(reps):
    return rows_digest([P.down_rows for P in reps])


def rows_digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_unlabeled_counts():
    reps = {n: enumerate_posets(n, up_to_iso=True) for n in range(1, 8)}
    assert [len(reps[n]) for n in range(1, 8)] == [
        1,
        2,
        5,
        16,
        63,
        318,
        2045,
    ]
    for n in range(1, 8):
        assert digest(reps[n]) == UNLABELED_DIGESTS[n]


def test_enumerated_posets_are_valid():
    for n in range(0, 5):
        for P in enumerate_posets(n):
            P.check()
            assert P.elements == tuple(str(i) for i in range(n))
    for P in enumerate_posets(5, up_to_iso=True):
        P.check()


def test_enumeration_deterministic():
    assert enumerate_posets(4) == enumerate_posets(4)
    assert enumerate_posets(4, up_to_iso=True) == enumerate_posets(4, up_to_iso=True)


def test_no_isomorphic_pair_up_to_iso():
    for n in range(1, 6):
        reps = enumerate_posets(n, up_to_iso=True)
        for P, Q in itertools.combinations(reps, 2):
            assert not is_isomorphic(P, Q)


def test_every_labeled_poset_appears_once():
    # expanding classes by relabeling hits each labeled poset exactly once
    labeled = enumerate_posets(4)
    assert len({P.down_rows for P in labeled}) == len(labeled)
    reps = enumerate_posets(4, up_to_iso=True)
    for P in labeled:
        assert sum(1 for Q in reps if is_isomorphic(P, Q)) == 1


def test_enumeration_guards():
    with pytest.raises(TooLarge):
        enumerate_posets(7)
    with pytest.raises(TooLarge):
        enumerate_posets(9, up_to_iso=True)
    for up_to_iso in (False, True):
        with pytest.raises(OutOfRange):
            enumerate_posets(-1, up_to_iso)


def test_unlabeled_count_8():
    # OEIS A000112
    reps = enumerate_posets(8, up_to_iso=True)
    assert len(reps) == 16999
    assert digest(reps) == UNLABELED_DIGESTS[8]


def iso_classes(n):
    """The representatives of census._iso_classes(n), with or without a form, mapped to |Aut|."""
    forms, built, _ = census._iso_classes(n)
    return forms | built


def test_orbit_sizes_are_factorial_over_automorphisms():
    for n in range(7):
        classes = iso_classes(n)
        assert [len(census._orbit(rows)) for rows in classes] == [
            math.factorial(n) // a for a in classes.values()
        ]


def test_classes_without_a_form_canonicalise_to_the_census():
    # the last level accepts a class whose new top is its only heaviest maximal
    # point as built; canonicalised, the classes are the census's, each |Aut|
    # from orbit-stabiliser equal to the canonical form's count
    for n in range(8):
        forms, built, _ = census._iso_classes(n)
        assert forms.keys().isdisjoint(built)
        canonical = {}
        for rows, automorphisms in (forms | built).items():
            form, order, _ = _canonical_rows(rows)
            assert order == automorphisms
            canonical[form] = automorphisms
            if n <= 5:
                assert len(automorphisms_brute(Poset(census._names(n), rows))) == automorphisms
        assert len(canonical) == len(forms) + len(built)
        assert rows_digest(sorted(canonical)) == UNLABELED_DIGESTS[n]


def test_automorphisms_and_form_survive_relabeling():
    classes = iso_classes(8)
    reps, automorphisms = list(classes), list(classes.values())
    rng = random.Random(8)
    by_symmetry = sorted(range(len(reps)), key=automorphisms.__getitem__)
    for k in by_symmetry[-20:] + rng.sample(by_symmetry, 200):
        perm = list(range(8))
        rng.shuffle(perm)
        rows = reps[k]
        form, order, generators = _canonical_rows(_relabel(rows, perm))
        assert (form, order) == (_canonical_rows(rows)[0], automorphisms[k])
        # each generator is an automorphism of the form, over its labels
        assert all(_relabel(form, g) == form for g in generators)
        assert (order == 1) == (generators == [])


def counting(monkeypatch, name, fn):
    """Replace census.<name> by fn wrapped in a call counter."""
    calls = []
    monkeypatch.setattr(census, name, lambda *args, **kw: calls.append(args) or fn(*args, **kw))
    return calls


def test_enumeration_skips_tops_that_are_not_heaviest(monkeypatch):
    # without the top filter, the classes of 1-7 points took 6,378 canonical forms,
    # 3,569 with it but without the orbit pruning, and 2,635 before the last level
    # accepted the classes whose new top is the only heaviest without a form
    calls = counting(monkeypatch, "_canonical_rows", _canonical_rows)
    census._iso_classes(7)
    assert len(calls) == 1115
    # unlabeled enumeration canonicalises the 1,520 classes accepted without a form
    calls.clear()
    enumerate_posets(7, up_to_iso=True)
    assert len(calls) == 2635


def test_orbit_pruning_computes_one_form_per_orbit():
    # level j extends each class R on j - 1 points once per Aut(R)-orbit of the
    # down-sets that the heaviest-top filter keeps, counted here by brute force;
    # the last level takes no form for the orbits where the new top is the only heaviest
    lines = []
    census._iso_classes(6, log=lines.append)
    assert [line.split()[:3] for line in lines] == [
        ["STATS", "level", str(j)] for j in range(1, 7)
    ]
    fields = [dict(f.split("=") for f in line.split()[3:]) for line in lines]
    orbits = [
        [sum(counts) for counts in zip(*map(heaviest_top_orbits, enumerate_posets(j, up_to_iso=True)))]
        for j in range(6)
    ]
    unique = [0] * 5 + [orbits[5][1]]
    assert [int(f["unique_tops"]) for f in fields] == unique == [0, 0, 0, 0, 0, 226]
    assert [int(f["canonical_forms"]) for f in fields] == [
        kept - u for (kept, _), u in zip(orbits, unique)
    ]
    assert [int(f["classes"]) for f in fields] == [1, 2, 5, 16, 63, 318]
    for f in fields:
        pruned = int(f["heaviest_tops"]) - int(f["canonical_forms"]) - int(f["unique_tops"])
        assert int(f["orbit_pruned"]) == pruned >= 0


def test_contractible_bound_deflates_each_class_once(monkeypatch):
    built = []

    class Counted(homotopy._Deflation):
        def __init__(self, P):
            built.append(P)
            super().__init__(P)

    monkeypatch.setattr(homotopy, "_Deflation", Counted)
    classes = enumerate_posets(6, up_to_iso=True)
    assert all(CHECKS["contractible-bound"](P, exact_dim) for P in classes)
    assert len(built) == len(classes) == 318


def test_random_poset():
    assert random_poset(5, 0.0, seed=1) == antichain(5)
    assert is_isomorphic(random_poset(5, 1.0, seed=1), chain(5))
    assert random_poset(5, 0.5, seed=42) == random_poset(5, 0.5, seed=42)
    seen = {random_poset(6, 0.5, seed=s).down_rows for s in range(20)}
    assert len(seen) > 1
    for s in range(30):
        random_poset(7, 0.3, seed=s).check()
    for n, p in ((-1, 0.5), (3, 1.5), (3, -0.1)):
        with pytest.raises(OutOfRange):
            random_poset(n, p)


def test_census_check_reports():
    report = census_check(3, ["bounds", "antichain-bijection"])
    assert report.size == 3 and not report.up_to_iso
    assert report.ok()
    assert report.format_lines() == [
        "CHECK bounds posets=19 counterexamples=0",
        "CHECK antichain-bijection posets=19 counterexamples=0",
    ]


def test_census_check_bounds_labeled_4():
    report = census_check(4, ["bounds"])
    assert report.results[0].posets == 219
    assert report.results[0].counterexamples == ()


def test_census_check_all_checks_small():
    report = census_check(3, sorted(CHECKS), up_to_iso=True)
    assert report.ok()
    for r in report.results:
        assert r.posets == 5


def test_census_check_runs_repeated_names_once(monkeypatch):
    runs = []
    monkeypatch.setitem(CHECKS, "counted", lambda P, dim: runs.append(P) or True)
    report = census_check(3, ["counted", "bounds", "counted"], up_to_iso=True)
    assert [r.name for r in report.results] == ["counted", "bounds"]
    assert len(runs) == 5


def test_census_check_unknown_name():
    with pytest.raises(UnknownCheck):
        census_check(3, ["bounds", "mystery"])


def test_census_check_collects_counterexamples(monkeypatch):
    monkeypatch.setitem(CHECKS, "never", lambda P, dim: len(P) != 2)
    report = census_check(2, ["never"])
    assert not report.ok()
    assert report.format_lines() == ["CHECK never posets=3 counterexamples=3"]
    assert all(len(P) == 2 for P in report.results[0].counterexamples)


def test_census_check_matches_brute_labeled_census():
    # a check that depended on the labeling would make these differ
    for n in range(0, 5):
        checks = sorted(CHECKS) if n else ["antichain-bijection"]
        assert census_check(n, checks) == census_check_brute(n, checks)
    checks = ["bounds", "antichain-bijection"]
    assert census_check(5, checks) == census_check_brute(5, checks)


def test_census_check_expands_failing_orbits(monkeypatch):
    def no_maximum(P, dim):
        full = (1 << len(P)) - 1
        return full not in P.down_rows

    monkeypatch.setitem(CHECKS, "no-maximum", no_maximum)
    report = census_check(4, ["no-maximum"])
    brute = census_check_brute(4, ["no-maximum"])
    bad = report.results[0].counterexamples
    assert len(bad) == 4 * 19
    assert bad == brute.results[0].counterexamples
    unlabeled = census_check(4, ["no-maximum"], up_to_iso=True).results[0]
    assert (unlabeled.posets, len(unlabeled.counterexamples)) == (16, 5)


def test_unlabeled_counterexamples_are_canonical_forms(monkeypatch):
    # 3 of the 16 classes on 4 points are checked on a representative other than
    # their canonical form; each class is reported by its form, in sorted order
    monkeypatch.setitem(CHECKS, "never", lambda P, dim: False)
    report = census_check(4, ["never"], up_to_iso=True)
    assert report.results[0].counterexamples == tuple(enumerate_posets(4, up_to_iso=True))


def test_passing_labeled_census_expands_no_orbit(monkeypatch):
    # a passing class counts as n!/|Aut| labeled posets without listing them
    def fail(rows):
        raise AssertionError("a passing class was expanded into its orbit")

    monkeypatch.setattr(census, "_orbit", fail)
    counts = [census_check(n, ["antichain-bijection"]).results[0].posets for n in range(7)]
    assert counts == [1, 1, 3, 19, 219, 4231, 130023]  # OEIS A001035
    assert census_check(5, ["bounds"]).format_lines() == ["CHECK bounds posets=4231 counterexamples=0"]


def test_census_check_edge_and_scale():
    for up_to_iso in (False, True):
        report = census_check(0, ["antichain-bijection"], up_to_iso=up_to_iso)
        assert report.format_lines() == ["CHECK antichain-bijection posets=1 counterexamples=0"]
        with pytest.raises(EmptyPoset):
            census_check(0, ["bounds"], up_to_iso=up_to_iso)
    report = census_check(6, ["antichain-bijection"])
    assert report.format_lines() == ["CHECK antichain-bijection posets=130023 counterexamples=0"]


def test_census_check_computes_each_dimension_once(monkeypatch):
    calls = counting(monkeypatch, "two_dimension", census.two_dimension)
    # the memo is keyed by row tuple, so these counts depend on which representative
    # of each class the enumeration gives
    for name, distinct, asked in (("monotony", 537, 2226), ("beat-continuity", 497, 1766)):
        for _ in range(2):  # nothing computed in the first run is kept for the second
            calls.clear()
            lines = []
            report = census_check(6, [name], up_to_iso=True, log=lines.append)
            assert len(calls) == distinct
            assert report.format_lines() == [f"CHECK {name} posets=318 counterexamples=0"]
            *levels, enum, check = lines
            assert [line.split()[:3] for line in levels] == [["STATS", "level", str(j)] for j in range(1, 7)]
            # 583 canonical forms before the orbit pruning, 424 before the last level
            # accepted its only-heaviest tops without one
            assert enum.startswith("STATS enumerate classes=318 canonical_forms=198 seconds=")
            assert check.startswith(f"STATS check {name} classes=318 seconds=")
            assert check.endswith(f" dims_computed={distinct} dims_asked={asked}")


def test_census_check_shares_dimensions_across_checks(monkeypatch):
    # the second check asks for 2-dimensions the first one already computed
    calls = counting(monkeypatch, "two_dimension", census.two_dimension)
    orders = {
        ("monotony", "beat-continuity"): [(537, 2226), (0, 1766)],
        ("beat-continuity", "monotony"): [(497, 1766), (40, 2226)],
    }
    for names, counts in orders.items():
        calls.clear()
        lines = []
        report = census_check(6, names, up_to_iso=True, log=lines.append)
        assert report.ok() and len(calls) == 537
        assert [line.split()[-2:] for line in lines if line.startswith("STATS check")] == [
            [f"dims_computed={computed}", f"dims_asked={asked}"] for computed, asked in counts
        ]


def test_check_called_directly_keeps_nothing(monkeypatch):
    # a check computes no 2-dimension itself: it asks the dim it is given each time
    def fail(*args, **kw):
        raise AssertionError("a check called two_dimension itself")

    monkeypatch.setattr(census, "two_dimension", fail)
    asked = []

    def dim(P):
        asked.append(P)
        return exact_dim(P)

    P = enumerate_posets(5, up_to_iso=True)[-1]
    assert CHECKS["monotony"](P, dim)
    assert len(asked) == 1 + len(P)
    assert CHECKS["monotony"](P, dim)
    assert len(asked) == 2 * (1 + len(P))


def test_checks_fail_on_a_wrong_dimension_or_core(monkeypatch):
    # chain(3) drops to chain(2), 9 to 4 under this dim: more than one
    assert not CHECKS["beat-continuity"](chain(3), lambda P: len(P) ** 2)
    assert CHECKS["beat-continuity"](chain(3), exact_dim)
    # seeded deflations that reach another 4-point core than the first one
    circle, real = suspension(antichain(2)), homotopy.core
    monkeypatch.setattr(census, "core", lambda P, rng=None: real(P if rng is None else circle))
    assert not CHECKS["core-uniqueness"](antichain(4), exact_dim)
    assert CHECKS["core-uniqueness"](circle, exact_dim)


def test_core_uniqueness_compares_rows_first(monkeypatch):
    # only one of the 954 seeded cores of the 6-point classes has other rows
    classes = enumerate_posets(6, up_to_iso=True)
    calls = counting(monkeypatch, "_canonical_rows", _canonical_rows)
    assert all(CHECKS["core-uniqueness"](P, exact_dim) for P in classes)
    assert len(calls) == 2
