"""Exhaustive and random poset generation, plus whole-census property checks.

Generation works level by level over naturally labeled posets (those
whose identity labeling is a linear extension): a poset on {0..j} is a
poset on {0..j-1} plus a down-closed strict down-set for the new top
label, and that correspondence is a bijection, so no deduplication is
needed.  Every isomorphism class contains a natural labeling, so these
representatives cover everything; unlabeled enumeration dedupes them by
the canonical form of ``core`` and labeled enumeration expands the
classes by all label permutations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterable

from .core import (
    Poset,
    _bits,
    _canonical_rows,
    _relabel,
    remove_element,
    topology_census,
)
from .constructions import suspension
from .dimension import (
    contractible_embedding,
    lower_bound,
    two_dimension,
    upper_bound,
    verify_embedding,
)
from .errors import OutOfRange, TooLarge, UnknownCheck
from .homotopy import beat_points, core, is_contractible

LABELED_GUARD = 6
UNLABELED_GUARD = 7


def _natural_row_tuples(n: int) -> list[tuple[int, ...]]:
    """All naturally labeled posets on {0..n-1}, as down-row tuples."""
    level: list[tuple[int, ...]] = [()]
    for j in range(n):
        grown = []
        for rows in level:
            for dset in range(1 << j):
                ok = True
                rest = dset
                while rest:
                    low = rest & -rest
                    rest ^= low
                    if rows[low.bit_length() - 1] & ~dset:
                        ok = False
                        break
                if ok:
                    grown.append(rows + (dset | 1 << j,))
        level = grown
    return level


def _names(n: int) -> list[str]:
    return [str(i) for i in range(n)]


def _iso_classes(n: int) -> list[Poset]:
    """One canonical representative per isomorphism class, sorted by row tuple."""
    seen = {_canonical_rows(rows) for rows in _natural_row_tuples(n)}
    names = _names(n)
    return [Poset(names, rows) for rows in sorted(seen)]


def enumerate_posets(n: int, up_to_iso: bool = False) -> list[Poset]:
    """Every poset on labels 0..n-1, or one per isomorphism class.

    Labeled enumeration is capped at 6 elements and unlabeled at 7; the
    next sizes up are two orders of magnitude larger.
    """
    if n < 0:
        raise OutOfRange("size must be >= 0")
    if up_to_iso:
        if n > UNLABELED_GUARD:
            raise TooLarge(f"unlabeled enumeration is capped at {UNLABELED_GUARD}")
        return _iso_classes(n)
    if n > LABELED_GUARD:
        raise TooLarge(f"labeled enumeration is capped at {LABELED_GUARD}")
    names = _names(n)
    seen: set[tuple[int, ...]] = set()
    for P in _iso_classes(n):
        for perm in permutations(range(n)):
            seen.add(_relabel(P.down_rows, perm))
    return [Poset(names, rows) for rows in sorted(seen)]


def random_poset(n: int, edge_prob: float = 0.5, seed: int | None = None) -> Poset:
    """A random order on labels 0..n-1 via a shuffled DAG, then closure."""
    if n < 0:
        raise OutOfRange("size must be >= 0")
    if not 0.0 <= edge_prob <= 1.0:
        raise OutOfRange("edge probability must be in [0, 1]")
    rng = random.Random(seed)
    rows = [1 << i for i in range(n)]
    for j in range(n):
        for i in range(j):
            if rng.random() < edge_prob:
                rows[j] |= 1 << i
        acc = rows[j]
        for i in _bits(rows[j] & ((1 << j) - 1)):
            acc |= rows[i]
        rows[j] = acc
    perm = list(range(n))
    rng.shuffle(perm)
    return Poset(_names(n), _relabel(tuple(rows), tuple(perm)))


@dataclass(frozen=True)
class CheckResult:
    name: str
    posets: int
    counterexamples: tuple[Poset, ...]


@dataclass(frozen=True)
class CensusReport:
    size: int
    up_to_iso: bool
    results: tuple[CheckResult, ...]

    def ok(self) -> bool:
        return all(not r.counterexamples for r in self.results)

    def format_lines(self) -> list[str]:
        return [
            f"CHECK {r.name} posets={r.posets} counterexamples={len(r.counterexamples)}"
            for r in self.results
        ]


def _dim(P: Poset) -> int:
    return two_dimension(P, max_size=max(12, len(P))).value


def _check_bounds(P: Poset) -> bool:
    return lower_bound(P) <= _dim(P) <= upper_bound(P)


def _check_beat_continuity(P: Poset) -> bool:
    d = _dim(P)
    for w in beat_points(P):
        d2 = _dim(remove_element(P, w.point))
        if not d - 1 <= d2 <= d:
            return False
    return True


def _check_contractible_bound(P: Poset) -> bool:
    if not is_contractible(P):
        return True
    E = contractible_embedding(P)
    return (
        E.width == max(len(P) - 1, 0)
        and verify_embedding(E)
        and _dim(P) <= max(len(P) - 1, 0)
    )


def _check_suspension(P: Poset) -> bool:
    return _dim(suspension(P)) == _dim(P) + 2


def _check_monotony(P: Poset) -> bool:
    if len(P) == 1:
        return True
    d = _dim(P)
    return all(_dim(remove_element(P, x)) <= d for x in P.elements)


def _check_antichain_bijection(P: Poset) -> bool:
    opens, antichains = topology_census(P)
    return opens == antichains


def _check_core_uniqueness(P: Poset) -> bool:
    base = core(P).core
    form = _canonical_rows(base.down_rows)
    for seed in (0, 1, 2):
        other = core(P, random.Random(seed)).core
        if len(other) != len(base) or _canonical_rows(other.down_rows) != form:
            return False
    return True


CHECKS: dict[str, Callable[[Poset], bool]] = {
    "bounds": _check_bounds,
    "beat-continuity": _check_beat_continuity,
    "contractible-bound": _check_contractible_bound,
    "suspension": _check_suspension,
    "monotony": _check_monotony,
    "antichain-bijection": _check_antichain_bijection,
    "core-uniqueness": _check_core_uniqueness,
}


def census_check(n: int, checks: Iterable[str], up_to_iso: bool = False) -> CensusReport:
    """Run the named property checks over every size-n poset in the census.

    Unknown names raise UnknownCheck before any work starts.  Posets that
    fail a check are collected verbatim as counterexamples.
    """
    wanted = list(checks)
    for name in wanted:
        if name not in CHECKS:
            raise UnknownCheck(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")
    posets = enumerate_posets(n, up_to_iso=up_to_iso)
    results = []
    for name in wanted:
        fn = CHECKS[name]
        bad = tuple(P for P in posets if not fn(P))
        results.append(CheckResult(name, len(posets), bad))
    return CensusReport(n, up_to_iso, tuple(results))
