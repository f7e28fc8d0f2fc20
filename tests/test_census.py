import hashlib
import itertools

import pytest

from finposet import (
    EmptyPoset,
    TooLarge,
    UnknownCheck,
    antichain,
    census_check,
    chain,
    is_isomorphic,
    random_poset,
)
from finposet.census import CHECKS, enumerate_posets
from oracles import census_check_brute


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
    1: "2f89a856b49d78145fad2bef112e0a7279679104ddb8b55e95b949266fe943ac",
    2: "c29f7b44404ae46750dd43eda03f8b36dda994e2ec588103f93ab9e853bb3e85",
    3: "7b88aaac59b8ae1783c7e3c9e6de369d8303aab9614b9e1bbe95535a89cf31ee",
    4: "5abac8e1f7704cc70ab5bd3324f36ec785a40e4db178626d48cf630981c3630c",
    5: "dd2e13095096a755a44d8f2ef9c795471b5eb68c24405c8893fae615939f64f7",
    6: "0f53e858bc4af9ce9d3856388bb20b630c9ca29058c33e560f3e36125a0991d9",
    7: "87f2b88c9cc77b6ea63d92e81ffa97bf0f8aa0c0abd274dff1e11a970119372e",
}


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
    for n, digest in UNLABELED_DIGESTS.items():
        rows = repr([P.down_rows for P in reps[n]]).encode()
        assert hashlib.sha256(rows).hexdigest() == digest


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


def test_unlabeled_count_8():
    # OEIS A000112
    assert len(enumerate_posets(8, up_to_iso=True)) == 16999


def test_random_poset():
    assert random_poset(5, 0.0, seed=1) == antichain(5)
    assert is_isomorphic(random_poset(5, 1.0, seed=1), chain(5))
    assert random_poset(5, 0.5, seed=42) == random_poset(5, 0.5, seed=42)
    seen = {random_poset(6, 0.5, seed=s).down_rows for s in range(20)}
    assert len(seen) > 1
    for s in range(30):
        random_poset(7, 0.3, seed=s).check()


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
    monkeypatch.setitem(CHECKS, "counted", lambda P: runs.append(P) or True)
    report = census_check(3, ["counted", "bounds", "counted"], up_to_iso=True)
    assert [r.name for r in report.results] == ["counted", "bounds"]
    assert len(runs) == 5


def test_census_check_unknown_name():
    with pytest.raises(UnknownCheck):
        census_check(3, ["bounds", "mystery"])


def test_census_check_collects_counterexamples(monkeypatch):
    monkeypatch.setitem(CHECKS, "never", lambda P: len(P) != 2)
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
    def no_maximum(P):
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


def test_census_check_edge_and_scale():
    for up_to_iso in (False, True):
        report = census_check(0, ["antichain-bijection"], up_to_iso=up_to_iso)
        assert report.format_lines() == ["CHECK antichain-bijection posets=1 counterexamples=0"]
        with pytest.raises(EmptyPoset):
            census_check(0, ["bounds"], up_to_iso=up_to_iso)
    report = census_check(6, ["antichain-bijection"])
    assert report.format_lines() == ["CHECK antichain-bijection posets=130023 counterexamples=0"]
