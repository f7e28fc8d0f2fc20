"""Exhaustive and random poset generation, plus whole-census property checks.

Generation works on isomorphism classes, level by level: the classes on
j+1 points are the canonical forms of every class on j points with a new
maximal point added above one of its down-closed subsets.  Different
extensions often give isomorphic posets, so each level is deduplicated
by canonical form (``core._canonical_rows``); this is not McKay's full
canonical augmentation, which would avoid generating the duplicates.
Labeled enumeration expands each class into its orbit, the distinct
relabelings on 0..n-1, and census checks run once per class, counting
labeled posets by orbit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterable

from .core import (
    Poset,
    _canonical_rows,
    _closure,
    _down_sets,
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
UNLABELED_GUARD = 8


def _names(n: int) -> list[str]:
    return [str(i) for i in range(n)]


def _iso_classes(n: int) -> list[Poset]:
    """One canonical representative per isomorphism class, sorted by row tuple.

    Grown one maximal point at a time: every poset on j+1 points has a
    maximal point x, and P - x is isomorphic to a representative R on j
    points, so the classes on j+1 points are the canonical forms of R
    plus a new top label j above a down-closed subset of R.  Canonical
    forms are naturally labeled, so the down-set walk takes labels in
    order.
    """
    level: list[tuple[int, ...]] = [()]
    for j in range(n):
        level = sorted({
            _canonical_rows(rows + (d | 1 << j,))
            for rows in level
            for d in _down_sets(rows, range(j))
        })
    names = _names(n)
    return [Poset(names, rows) for rows in level]


def _orbit(rows: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Every distinct relabeling of a poset on labels 0..n-1."""
    return {_relabel(rows, perm) for perm in permutations(range(len(rows)))}


def _check_size(n: int, up_to_iso: bool) -> None:
    if n < 0:
        raise OutOfRange("size must be >= 0")
    if up_to_iso and n > UNLABELED_GUARD:
        raise TooLarge(f"unlabeled enumeration is capped at {UNLABELED_GUARD}")
    if not up_to_iso and n > LABELED_GUARD:
        raise TooLarge(f"labeled enumeration is capped at {LABELED_GUARD}")


def enumerate_posets(n: int, up_to_iso: bool = False) -> list[Poset]:
    """Every poset on labels 0..n-1, or one per isomorphism class.

    Labeled enumeration is capped at 6 elements (130,023 posets) and
    unlabeled at 8 (16,999 classes); the next sizes up are one to two
    orders of magnitude larger.
    """
    _check_size(n, up_to_iso)
    classes = _iso_classes(n)
    if up_to_iso:
        return classes
    names = _names(n)
    labeled = set().union(*(_orbit(P.down_rows) for P in classes))
    return [Poset(names, rows) for rows in sorted(labeled)]


def random_poset(n: int, edge_prob: float = 0.5, seed: int | None = None) -> Poset:
    """A random order on labels 0..n-1: a random DAG, closed, then shuffled.

    Each pair i < j gets the edge i <= j with probability edge_prob, drawn
    in the order (j, i) ascending; ``core._closure`` then closes the
    drawn predecessor lists and a shuffle of the labels hides the drawing
    order.
    """
    if n < 0:
        raise OutOfRange("size must be >= 0")
    if not 0.0 <= edge_prob <= 1.0:
        raise OutOfRange("edge probability must be in [0, 1]")
    rng = random.Random(seed)
    preds = [[i for i in range(j) if rng.random() < edge_prob] for j in range(n)]
    names = _names(n)
    rows = _closure(preds, names)
    perm = list(range(n))
    rng.shuffle(perm)
    return Poset(names, _relabel(rows, perm))


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
    return two_dimension(P, max_size=len(P)).value


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

    Unknown names raise UnknownCheck before any work starts, and a name
    given twice runs once, at its first place in the list.  Every check
    must be an isomorphism invariant: it runs once per class, on the
    canonical representative.  Unlabeled, each class counts once and a
    failing representative is a counterexample.  Labeled, a class counts
    as its orbit (its distinct relabelings on 0..n-1), and the
    counterexamples are the orbits of the failing classes in sorted row
    order, as in ``enumerate_posets(n)``.
    """
    wanted = list(dict.fromkeys(checks))
    for name in wanted:
        if name not in CHECKS:
            raise UnknownCheck(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")
    _check_size(n, up_to_iso)
    classes = enumerate_posets(n, up_to_iso=True)
    if up_to_iso:
        orbits = [(P.down_rows,) for P in classes]
    else:
        orbits = [_orbit(P.down_rows) for P in classes]
    posets = sum(len(orbit) for orbit in orbits)
    names = _names(n)
    results = []
    for name in wanted:
        fn = CHECKS[name]
        bad = sorted(rows for P, orbit in zip(classes, orbits) if not fn(P) for rows in orbit)
        results.append(CheckResult(name, posets, tuple(Poset(names, rows) for rows in bad)))
    return CensusReport(n, up_to_iso, tuple(results))
