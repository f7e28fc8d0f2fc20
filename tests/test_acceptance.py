"""The ten release criteria, one test each, each printing a PASS line.

Every expected number here is either pinned externally (chain, antichain
and suspension values, census sizes) or recomputed by an independent
in-test oracle; the tests never trust the code under test for its own
expected output.
"""

import random

import pytest

from finposet import (
    antichain,
    beat_points,
    build_poset,
    chain,
    contractible_embedding,
    core,
    enumerate_posets,
    is_contractible,
    is_isomorphic,
    realize,
    suspension,
    topology_census,
    two_dimension,
    verify_embedding,
)
from finposet.core import remove_element
from oracles import exists_embedding_naive


@pytest.fixture(scope="module")
def labeled():
    return {n: enumerate_posets(n) for n in range(1, 6)}


@pytest.fixture(scope="module")
def labeled_dims(labeled):
    return {
        n: {P.down_rows: two_dimension(P).value for P in posets}
        for n, posets in labeled.items()
    }


@pytest.fixture(scope="module")
def unlabeled():
    return {n: enumerate_posets(n, up_to_iso=True) for n in range(1, 7)}


def test_criterion_01_bounds_census(labeled, labeled_dims):
    posets = labeled[5]
    assert len(posets) == 4231
    for P in posets:
        d = labeled_dims[5][P.down_rows]
        assert 3 <= d <= 5  # ceil(log2 5) = 3
    print("ACCEPTANCE 01 bounds-census: PASS")


def test_criterion_02_beat_point_continuity(labeled, labeled_dims):
    checked = 0
    for n in range(1, 6):
        for P in labeled[n]:
            d = labeled_dims[n][P.down_rows]
            for w in beat_points(P):
                d2 = two_dimension(remove_element(P, w.point)).value
                assert d - 1 <= d2 <= d
                checked += 1
    assert checked > 0
    print("ACCEPTANCE 02 beat-point-continuity: PASS")


def test_criterion_03_contractible_bound(unlabeled):
    contractibles = 0
    for n in range(1, 7):
        for P in unlabeled[n]:
            if not is_contractible(P):
                continue
            contractibles += 1
            assert two_dimension(P).value <= max(n - 1, 0)
            E = contractible_embedding(P)
            assert E.width <= max(n - 1, 0)
            assert verify_embedding(E)
    assert contractibles > 0
    print("ACCEPTANCE 03 contractible-bound: PASS")


def test_criterion_04_chains():
    for n in range(1, 8):
        assert two_dimension(chain(n)).value == n - 1
    print("ACCEPTANCE 04 chains: PASS")


def test_criterion_05_suspension_families():
    for k in range(3):
        P = suspension(antichain(2), k)
        assert len(P) == 2 * k + 2
        assert two_dimension(P).value == 2 * k + 2
    for k in range(2):
        P = suspension(antichain(3), k)
        assert len(P) == 2 * k + 3
        assert two_dimension(P).value == 2 * k + 3
    print("ACCEPTANCE 05 suspension-families: PASS")


def test_criterion_06_suspension_additivity():
    for n in range(1, 5):
        for P in enumerate_posets(n, up_to_iso=True):
            assert two_dimension(suspension(P, 1)).value == two_dimension(P).value + 2
    print("ACCEPTANCE 06 suspension-additivity: PASS")


def test_criterion_07_main_theorem():
    for n in range(2, 9):
        low = (n - 1).bit_length()
        for m in range(low, n + 1):
            P = realize(n, m)
            assert len(P) == n
            assert two_dimension(P, max_size=max(12, n)).value == m
            if m < n:
                assert is_contractible(P)
    print("ACCEPTANCE 07 main-theorem: PASS")


def test_criterion_08_oracle_equivalence():
    for n in range(1, 5):
        for P in enumerate_posets(n, up_to_iso=True):
            naive_value = next(
                w for w in range(0, n + 1) if exists_embedding_naive(P, w) is not None
            )
            assert two_dimension(P).value == naive_value
    print("ACCEPTANCE 08 oracle-equivalence: PASS")


def test_criterion_09_topology_antichain_bijection(labeled):
    for n in range(1, 6):
        for P in labeled[n]:
            opens, antichains = topology_census(P)
            assert opens == antichains
    example = build_poset("abcd", [("d", "b"), ("d", "c"), ("c", "a")])
    assert topology_census(example) == (7, 7)
    print("ACCEPTANCE 09 topology-antichain-bijection: PASS")


def test_criterion_10_core_uniqueness():
    for n in range(1, 6):
        for P in enumerate_posets(n, up_to_iso=True):
            cores = [core(P, random.Random(seed)).core for seed in range(10)]
            for other in cores[1:]:
                assert is_isomorphic(cores[0], other, guard=n)
    print("ACCEPTANCE 10 core-uniqueness: PASS")
