"""Exhaustive and random poset generation, plus whole-census property checks.

Generation works on isomorphism classes, level by level: the classes on
j+1 points are the canonical forms of the classes on j points with a new
maximal point added above one of their down-closed subsets.  An
extension is skipped before its canonical form when the new top would
not have the largest down-set among the maximal points, or when an
automorphism of the class maps its down-set onto one already extended
(the arguments that both keep every class are in ``_iso_classes``).
The extensions that remain still meet some classes more than once, so
each level is deduplicated by canonical form (``core._canonical_rows``),
which also gives each class's |Aut| and the generators of Aut that the
next level's orbits come from.  The last level needs no generators, and
there an extension whose new top is the only maximal point with the
largest down-set is a class of its own: it is kept as built, with |Aut|
from its down-set's orbit, and no canonical form.  Unlabeled enumeration
canonicalises those classes and sorts all the forms; labeled enumeration
expands each class into its orbit, the distinct relabelings on 0..n-1.
Census checks run once per class, on the representative the enumeration
gives, and count a class's labeled posets as n!/|Aut|, the size of its
orbit; only a failing class is expanded, into its counterexamples.

Every check takes ``(P, dim)`` and asks ``dim`` for the 2-dimensions it
needs.  One ``census_check`` call passes all its checks one ``dim`` whose
memo, the 2-dimension of each row tuple asked for (the value depends only
on the rows), lives in that call and is dropped when it returns.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterable

from .core import (
    Poset,
    _bits,
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
)
from .errors import OutOfRange, TooLarge, UnknownCheck
from .homotopy import beat_points, core

LABELED_GUARD = 6
UNLABELED_GUARD = 8


def _names(n: int) -> list[str]:
    return [str(i) for i in range(n)]


def _iso_classes(
    n: int, log: Callable[[str], None] | None = None
) -> tuple[dict[tuple[int, ...], int], dict[tuple[int, ...], int], int]:
    """One representative per isomorphism class of the n-point posets, mapped
    to the order of its automorphism group, in two dicts: the canonical forms,
    and the classes accepted without one; and the number of canonical forms
    computed on the way.

    Grown one maximal point at a time: the classes on j+1 points are
    the canonical forms of a representative R on j points plus a new top
    label j above a down-closed subset d of R.  Canonical forms are
    naturally labeled, so the down-set walk takes labels in order.

    An extension is skipped, before its canonical form is computed, when
    some maximal point of R outside d has a down-set of more than
    |d| + 1 points.  Every class still appears.  Its poset P has a
    maximal point x whose down-set is largest among the maximal points;
    P - x is isomorphic to some R, and the isomorphism maps x's strict
    down-set to a down-set d of R with |d| + 1 = |down(x)|.  The other
    maximal points of R + d (R with a new top above d) are exactly the
    maximal points of R outside d; they are the images of P's other
    maximal points, with down-sets of the same sizes, so none has a
    larger down-set than x and R + d is kept.

    Of the down-sets left, only one per orbit of Aut(R) is extended
    (McKay, "Isomorph-free exhaustive generation", 1998): an automorphism
    s of R extends to an isomorphism from R + d onto R + s(d), and it
    keeps down-set sizes and maximal points, so the filter above keeps
    all of an orbit or none of it.  The orbits come from the generators
    that ``_canonical_rows`` returned with R's form; the work is skipped
    when |Aut(R)| is 1 or one down-set is left.

    On the last level, the one no later level extends, an extension whose
    new top j is the only maximal point with the largest down-set (no
    maximal point of R outside d has a down-set of |d| + 1 points) is accepted
    as built, with no canonical form.  No other extension kept is
    isomorphic to it.  An isomorphism from R + d onto R' + d' maps the
    only heaviest top j onto the only heaviest top of R' + d', which is
    j, so it restricts to an isomorphism from R onto R' that maps d onto
    d'.  The R of one level are distinct classes, so R = R', d and d' lie
    in one Aut(R)-orbit and only one of them was extended.  An extension
    where the top ties with another maximal point is not isomorphic to
    it either, since the tie is an isomorphism invariant.  Every
    automorphism of R + d fixes j, so Aut(R + d) is the stabiliser of d
    in Aut(R), of order |Aut(R)| / |orbit of d|.  The tied extensions,
    and every extension of an earlier level (whose generators the next
    level's orbits need), are deduplicated by canonical form.

    With a log, one ``STATS level`` line is passed to it as each level
    finishes: its number of points, its classes, the down-sets the
    filter kept, those dropped as not first in their orbit, the canonical
    forms computed, the extensions accepted without one and the seconds.
    """
    forms: dict[tuple[int, ...], int] = {(): 1}  # canonical form -> |Aut|
    generators: dict[tuple[int, ...], list[tuple[int, ...]]] = {(): []}  # of the level to extend
    built: dict[tuple[int, ...], int] = {}  # last level, accepted without a form -> |Aut|
    computed = 0
    for j in range(n):
        start = time.perf_counter()
        last = j + 1 == n
        grown: dict[tuple[int, ...], int] = {}
        grown_generators: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        heaviest = extended = 0
        for rows, automorphisms in forms.items():
            below = 0
            for i, row in enumerate(rows):
                below |= row ^ 1 << i
            # heavier[t]: the maximal points of R whose down-set has more than t points
            heavier = [0] * (j + 2)
            for i in _bits(~below & (1 << j) - 1):
                for t in range(rows[i].bit_count()):
                    heavier[t] |= 1 << i
            tops = [d for d in _down_sets(rows, range(j)) if not heavier[d.bit_count() + 1] & ~d]
            heaviest += len(tops)
            if automorphisms > 1 and len(tops) > 1:
                orbits = _one_per_orbit(tops, generators[rows])
            else:  # every kept down-set is fixed by Aut(R)
                orbits = [(d, 1) for d in tops]
            for d, size in orbits:
                child = rows + (d | 1 << j,)
                if last and not heavier[d.bit_count()] & ~d:  # j is the only heaviest top
                    built[child] = automorphisms // size
                    continue
                form, order, gens = _canonical_rows(child)
                grown[form] = order
                if not last:  # the last level's generators would go unused
                    grown_generators[form] = gens
            extended += len(orbits)
        forms, generators = grown, grown_generators
        computed += extended - len(built)
        if log is not None:
            log(f"STATS level {j + 1} classes={len(forms) + len(built)} heaviest_tops={heaviest}"
                f" orbit_pruned={heaviest - extended} canonical_forms={extended - len(built)}"
                f" unique_tops={len(built)} seconds={time.perf_counter() - start:.3f}")
    return forms, built, computed


def _one_per_orbit(masks: list[int], generators: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """The first mask of each orbit, in the given order, of the group generated
    by the generators (permutations of bit positions), with the orbit's size;
    masks is a union of orbits."""
    images = [[1 << i for i in g] for g in generators]  # images[k][i]: bit i's image under g_k
    kept: list[tuple[int, int]] = []
    seen: set[int] = set()
    for d in masks:
        if d in seen:
            continue
        before = len(seen)
        seen.add(d)
        todo = [d]
        while todo:
            m = todo.pop()
            for image_of in images:
                image, rest = 0, m
                while rest:
                    low = rest & -rest
                    image |= image_of[low.bit_length() - 1]
                    rest ^= low
                if image not in seen:
                    seen.add(image)
                    todo.append(image)
        kept.append((d, len(seen) - before))
    return kept


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
    forms, built, _ = _iso_classes(n)
    if up_to_iso:
        found = [*forms, *(_canonical_rows(rows)[0] for rows in built)]
    else:
        found = set().union(*(_orbit(rows) for rows in forms | built))
    names = _names(n)
    return [Poset(names, rows) for rows in sorted(found)]


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


def _check_bounds(P: Poset, dim: Callable[[Poset], int]) -> bool:
    return lower_bound(P) <= dim(P) <= upper_bound(P)


def _check_beat_continuity(P: Poset, dim: Callable[[Poset], int]) -> bool:
    d = dim(P)
    for w in beat_points(P):
        d2 = dim(remove_element(P, w.point))
        if not d - 1 <= d2 <= d:
            return False
    return True


def _check_contractible_bound(P: Poset, dim: Callable[[Poset], int]) -> bool:
    trace = core(P)
    if not trace.contractible:
        return True
    bound = max(len(P) - 1, 0)
    return contractible_embedding(P, trace=trace).width == bound and dim(P) <= bound


def _check_suspension(P: Poset, dim: Callable[[Poset], int]) -> bool:
    return dim(suspension(P)) == dim(P) + 2


def _check_monotony(P: Poset, dim: Callable[[Poset], int]) -> bool:
    if len(P) == 1:
        return True
    d = dim(P)
    return all(dim(remove_element(P, x)) <= d for x in P.elements)


def _check_antichain_bijection(P: Poset, dim: Callable[[Poset], int]) -> bool:
    opens, antichains = topology_census(P)
    return opens == antichains


def _check_core_uniqueness(P: Poset, dim: Callable[[Poset], int]) -> bool:
    base = core(P).core.down_rows
    form = None
    for seed in (0, 1, 2):
        other = core(P, random.Random(seed)).core.down_rows
        if other == base:
            continue
        if form is None:
            form = _canonical_rows(base)[0]
        if len(other) != len(base) or _canonical_rows(other)[0] != form:
            return False
    return True


CHECKS: dict[str, Callable[[Poset, Callable[[Poset], int]], bool]] = {
    "bounds": _check_bounds,
    "beat-continuity": _check_beat_continuity,
    "contractible-bound": _check_contractible_bound,
    "suspension": _check_suspension,
    "monotony": _check_monotony,
    "antichain-bijection": _check_antichain_bijection,
    "core-uniqueness": _check_core_uniqueness,
}


def census_check(
    n: int,
    checks: Iterable[str],
    up_to_iso: bool = False,
    log: Callable[[str], None] | None = None,
) -> CensusReport:
    """Run the named property checks over every size-n poset in the census.

    Unknown names raise UnknownCheck before any work starts, and a name
    given twice runs once, at its first place in the list.  Every check
    must be an isomorphism invariant: it runs once per class, on one
    representative of it, a canonical form or not (see ``_iso_classes``).
    Unlabeled, each class counts once and the canonical forms of the
    failing classes, in sorted order, are the counterexamples, as in
    ``enumerate_posets(n, up_to_iso=True)``.  Labeled, a class counts
    as its orbit (its n!/|Aut| distinct relabelings on 0..n-1), and the
    counterexamples are the orbits of the failing classes in sorted row
    order, as in ``enumerate_posets(n)``.

    Every check gets the same ``dim``: it computes the 2-dimension of
    each row tuple once and keeps it until the call returns.  With a log,
    ``STATS`` lines are passed to it: one per enumeration level as it
    finishes (see ``_iso_classes``), one after the enumeration (classes,
    canonical forms computed, seconds) and one after each check
    (seconds, classes, 2-dimensions computed and asked for).
    """
    wanted = list(dict.fromkeys(checks))
    for name in wanted:
        if name not in CHECKS:
            raise UnknownCheck(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")
    _check_size(n, up_to_iso)
    dims: dict[tuple[int, ...], int] = {}
    asked = 0

    def dim(P: Poset) -> int:
        nonlocal asked
        asked += 1
        rows = P.down_rows
        d = dims.get(rows)
        if d is None:
            d = dims[rows] = two_dimension(P, max_size=len(P)).value
        return d

    start = time.perf_counter()
    forms, built, computed_forms = _iso_classes(n, log)
    automorphisms = forms | built
    if log is not None:
        log(f"STATS enumerate classes={len(automorphisms)} canonical_forms={computed_forms}"
            f" seconds={time.perf_counter() - start:.3f}")
    posets = len(automorphisms) if up_to_iso else sum(math.factorial(n) // a for a in automorphisms.values())
    names = _names(n)
    classes = [Poset(names, rows) for rows in automorphisms]
    results = []
    for name in wanted:
        fn = CHECKS[name]
        start, computed, asked_before = time.perf_counter(), len(dims), asked
        failing = [P.down_rows for P in classes if not fn(P, dim)]
        if up_to_iso:  # reported by canonical form, in sorted order, whatever the representative
            bad = sorted(_canonical_rows(rows)[0] for rows in failing)
        else:
            bad = sorted(rows for rep in failing for rows in _orbit(rep))
        results.append(CheckResult(name, posets, tuple(Poset(names, rows) for rows in bad)))
        if log is not None:
            log(f"STATS check {name} classes={len(classes)} seconds={time.perf_counter() - start:.3f}"
                f" dims_computed={len(dims) - computed} dims_asked={asked - asked_before}")
    return CensusReport(n, up_to_iso, tuple(results))
