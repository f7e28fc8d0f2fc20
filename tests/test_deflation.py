"""Differential checks of the incremental deflation against a naive oracle.

The oracle rescans every point for beat witnesses straight from the
definition after each removal and rebuilds the poset with
remove_element at every step.  core must reproduce its removals and its
core exactly, deterministically and under seeded rngs, and
contractible_embedding must equal the stage-by-stage replay through
extend_embedding_at_beat_point.
"""

import random

import pytest

from finposet import (
    BeatPointWitness,
    CubeEmbedding,
    beat_points,
    chain,
    cone,
    contractible_embedding,
    core,
    random_poset,
    verify_embedding,
)
from finposet.census import enumerate_posets
from finposet.core import _bits, remove_element
from finposet.dimension import extend_embedding_at_beat_point

SEEDS = (None, 0, 1, 2)


def naive_beat_points(P):
    """Witnesses by direct search: a member of the strict up-set (down-set)
    lying below (above) every other member, in element order, "up" first."""
    out = []
    down, up = P.down_rows, P.up_rows
    for i, x in enumerate(P.elements):
        for kind, rows in (("up", up), ("down", down)):
            strict = rows[i] ^ (1 << i)
            for j in _bits(strict):
                if strict & ~rows[j] == 0:
                    out.append(BeatPointWitness(x, kind, P.elements[j]))
                    break
    return out


def naive_core(P, rng=None):
    """(removals, stages): stages[k] is P after the first k removals."""
    removals, stages = [], [P]
    while True:
        witnesses = naive_beat_points(stages[-1])
        if not witnesses:
            return removals, stages
        w = witnesses[0] if rng is None else rng.choice(witnesses)
        removals.append(w)
        stages.append(remove_element(stages[-1], w.point))


def staged_embedding(removals, stages):
    """The contractible embedding rebuilt one verified stage at a time."""
    (base,) = stages[-1].elements
    E = CubeEmbedding(stages[-1], 0, {base: 0})
    for stage, w in zip(reversed(stages[:-1]), reversed(removals)):
        E = extend_embedding_at_beat_point(stage, w, E)
    return E


def rng_for(seed):
    return None if seed is None else random.Random(seed)


def assert_matches_oracle(P):
    for seed in SEEDS:
        trace = core(P, rng_for(seed))
        removals, stages = naive_core(P, rng_for(seed))
        assert list(trace.removals) == removals, (P, seed)
        assert trace.core == stages[-1], (P, seed)
        if seed is None:
            deterministic = removals, stages
    if trace.contractible:
        E = contractible_embedding(P)
        assert E.masks == staged_embedding(*deterministic).masks
        assert E.width == len(P) - 1
        assert verify_embedding(E)


def random_cases():
    rnd = random.Random(2)
    cases = []
    for k in range(100):
        n = rnd.randint(10, 60)
        # from forest-like (about 1.5 relations per point) to dense
        p = rnd.choice([1.5 / n, 3 / n, 0.1, 0.3, 0.5])
        cases.append(random_poset(n, p, seed=k))
    return cases


@pytest.mark.parametrize("n", range(1, 6))
def test_labeled_census_matches_oracle(n):
    for P in enumerate_posets(n):
        assert beat_points(P) == naive_beat_points(P)
        assert_matches_oracle(P)


def test_random_posets_match_oracle():
    cases = random_cases()
    contractible = 0
    for P in cases:
        assert beat_points(P) == naive_beat_points(P)
        assert_matches_oracle(P)
        contractible += core(P).contractible
    # the sample must exercise the embedding replay, not only the trace
    assert contractible >= 10


def test_cone_and_chain_match_oracle():
    assert_matches_oracle(chain(40))
    assert_matches_oracle(cone(random_poset(30, 0.1, seed=5)))
