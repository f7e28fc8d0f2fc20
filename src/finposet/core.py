"""Finite posets viewed as finite T0 topological spaces.

Element ids are opaque strings kept in a fixed declared order, and every
operation is deterministic in that order.  The relation is stored as one
down-set bit row per element: bit j of row i is set iff
``elements[j] <= elements[i]``.

Under the specialization correspondence the minimal open set of x is its
down-set, so the open sets of the space are exactly the down-closed
subsets and order queries and topology queries coincide.

Isomorphism has one engine, the canonical form ``_canonical_rows``: an
individualization-refinement search whose cost is about one relabeling
per automorphism left after twin swaps.  ``is_isomorphic`` compares
canonical forms and unlabeled enumeration dedupes by them.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CycleError, TooLarge, UnknownElement

# topology_census keeps every open set and antichain it counts, up to
# 2^n of each, so its size is capped here.
CENSUS_GUARD = 20
# Default size guard for isomorphism tests.  The canonical form visits
# about |Aut| leaves modulo twin swaps; at 10 points the worst family,
# disjoint 2-chains, has five copies and 5! = 120 leaves.
ISO_GUARD = 10


def _bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(preds: Sequence[Sequence[int]], names: Sequence[str]) -> list[int]:
    """Down rows of the reflexive-transitive closure of direct predecessor lists.

    preds[i] lists indices j with j <= i declared (duplicates and i itself
    are allowed); names are used only in the error message.  An iterative
    depth-first search finishes every index after its predecessors, a
    topological order as in Kahn ("Topological sorting of large networks",
    1962).  A finished row is the point's own bit ORed with the finished
    rows of its direct predecessors, so each declared pair costs one OR.
    Meeting an index that is still on the search path closes a cycle
    through it and the index being searched: CycleError names both, in
    index order.
    """
    n = len(preds)
    rows = [0] * n
    state = bytearray(n)  # 0 unseen, 1 on the search path, 2 finished
    for root in range(n):
        if state[root]:
            continue
        state[root] = 1
        path = [root]
        todo = [iter(preds[root])]
        while path:
            for j in todo[-1]:
                if state[j] != 2:
                    if state[j] == 0:
                        state[j] = 1
                        path.append(j)
                        todo.append(iter(preds[j]))
                        break
                    i = path[-1]
                    if j != i:
                        a, b = sorted((i, j))
                        raise CycleError(f"cycle through {names[a]!r} and {names[b]!r}")
            else:
                i = path.pop()
                todo.pop()
                row = 1 << i
                for j in preds[i]:
                    row |= rows[j]
                rows[i] = row
                state[i] = 2
    return rows


class Poset:
    """An immutable finite partial order on named elements.

    Construct validated instances with :func:`build_poset`; the raw
    constructor trusts its rows (they must already be reflexive,
    antisymmetric and transitively closed).  Down-set bit rows are sized
    to ``len(elements)``, which keeps the exhaustive solver paths honest
    up to machine-word-ish sizes; nothing else depends on a size cap.
    """

    __slots__ = ("elements", "_index", "_down", "_up")

    def __init__(self, elements: Iterable[str], down_rows: Iterable[int]):
        self.elements: tuple[str, ...] = tuple(elements)
        self._index: dict[str, int] = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate element ids")
        self._down: tuple[int, ...] = tuple(down_rows)
        if len(self._down) != len(self.elements):
            raise ValueError("row count does not match element count")
        self._up: tuple[int, ...] | None = None

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __contains__(self, x: object) -> bool:
        return x in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self._down == other._down

    def __hash__(self) -> int:
        return hash((self.elements, self._down))

    def __repr__(self) -> str:
        return f"Poset({list(self.elements)!r}, covers={covers(self)!r})"

    def index(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownElement(f"element {x!r} is not in the poset") from None

    def leq(self, x: str, y: str) -> bool:
        """x <= y."""
        return bool(self._down[self.index(y)] >> self.index(x) & 1)

    def lt(self, x: str, y: str) -> bool:
        return x != y and self.leq(x, y)

    # -- index-level rows (package internal) -----------------------------

    @property
    def down_rows(self) -> tuple[int, ...]:
        return self._down

    @property
    def up_rows(self) -> tuple[int, ...]:
        if self._up is None:
            n = len(self.elements)
            up = [0] * n
            for i, row in enumerate(self._down):
                for j in _bits(row):
                    up[j] |= 1 << i
            self._up = tuple(up)
        return self._up

    # -- derived element sets --------------------------------------------

    def down_set(self, x: str) -> set[str]:
        """All y with y <= x (the minimal open set of x)."""
        return {self.elements[j] for j in _bits(self._down[self.index(x)])}

    def up_set(self, x: str) -> set[str]:
        """All y with x <= y (the closure of {x})."""
        return {self.elements[j] for j in _bits(self.up_rows[self.index(x)])}

    def maximal_elements(self) -> list[str]:
        up = self.up_rows
        return [e for i, e in enumerate(self.elements) if up[i] == 1 << i]

    def minimal_elements(self) -> list[str]:
        return [e for i, e in enumerate(self.elements) if self._down[i] == 1 << i]

    def maximum(self) -> str | None:
        tops = self.maximal_elements()
        return tops[0] if len(tops) == 1 else None

    def minimum(self) -> str | None:
        bots = self.minimal_elements()
        return bots[0] if len(bots) == 1 else None

    def check(self) -> None:
        """Check the partial-order axioms on the stored rows; raise ValueError if one fails."""
        n = len(self.elements)
        for i in range(n):
            if not self._down[i] >> i & 1:
                raise ValueError(f"not reflexive at {self.elements[i]}")
            if self._down[i] >= 1 << n:
                raise ValueError("row has bits outside the element range")
            for j in _bits(self._down[i]):
                if j != i and self._down[j] >> i & 1:
                    raise ValueError(f"antisymmetry fails on {self.elements[i]}, {self.elements[j]}")
                if self._down[i] | self._down[j] != self._down[i]:
                    raise ValueError(f"transitivity fails below {self.elements[i]}")


class StructureStats(NamedTuple):
    height: int
    linear_extension: list[str]


def build_poset(elements: Iterable[str], relations: Iterable[tuple[str, str]]) -> Poset:
    """Build the reflexive-transitive closure of the given relation pairs.

    Each pair (x, y) declares x <= y; the pairs may be cover pairs or any
    valid comparabilities.  The rows are closed in one pass along a
    topological order (``_closure``).  Raises CycleError if the pairs
    contain a cycle and UnknownElement if a pair references an undeclared
    id.
    """
    ids = list(elements)
    index = {e: i for i, e in enumerate(ids)}
    if len(index) != len(ids):
        raise ValueError("duplicate element ids")
    preds: list[list[int]] = [[] for _ in ids]
    for x, y in relations:
        if x not in index:
            raise UnknownElement(f"relation references undeclared element {x!r}")
        if y not in index:
            raise UnknownElement(f"relation references undeclared element {y!r}")
        preds[index[y]].append(index[x])
    return Poset(ids, _closure(preds, ids))


def covers(P: Poset) -> list[tuple[str, str]]:
    """The transitive reduction: pairs (x, y) with x < y and nothing between."""
    out = []
    down = P.down_rows
    up = P.up_rows
    for xi in range(len(P)):
        for yi in _bits(up[xi]):
            if yi == xi:
                continue
            if down[yi] & up[xi] == (1 << xi) | (1 << yi):
                out.append((P.elements[xi], P.elements[yi]))
    return out


def opposite(P: Poset) -> Poset:
    """Same elements with the order reversed (opens become closeds)."""
    return Poset(P.elements, P.up_rows)


def product(P: Poset, Q: Poset) -> Poset:
    """Componentwise order on pairs, named ``(p,q)``."""
    names = [f"({p},{q})" for p in P.elements for q in Q.elements]
    nq = len(Q)
    rows = []
    for pi in range(len(P)):
        for qi in range(nq):
            row = 0
            for pj in _bits(P.down_rows[pi]):
                for qj in _bits(Q.down_rows[qi]):
                    row |= 1 << (pj * nq + qj)
            rows.append(row)
    return Poset(names, rows)


def _disambiguate(taken: set[str], name: str) -> str:
    while name in taken:
        name += "'"
    return name


def disjoint_union(P: Poset, Q: Poset) -> Poset:
    """Side-by-side union with no cross comparabilities.

    Left ids are kept verbatim; a right id that collides gets primes
    appended until fresh, so ``P | empty`` is P on the nose.
    """
    names = list(P.elements)
    taken = set(names)
    for q in Q.elements:
        fresh = _disambiguate(taken, q)
        names.append(fresh)
        taken.add(fresh)
    shift = len(P)
    rows = list(P.down_rows) + [row << shift for row in Q.down_rows]
    return Poset(names, rows)


def induced_subposet(P: Poset, S: Iterable[str]) -> Poset:
    """The restriction of P to S, keeping P's element order."""
    wanted = set(S)
    for x in wanted:
        if x not in P:
            raise UnknownElement(f"element {x!r} is not in the poset")
    keep = [i for i, e in enumerate(P.elements) if e in wanted]
    new_index = {old: new for new, old in enumerate(keep)}
    rows = []
    for i in keep:
        row = 0
        for j in _bits(P.down_rows[i]):
            if j in new_index:
                row |= 1 << new_index[j]
        rows.append(row)
    return Poset([P.elements[i] for i in keep], rows)


def remove_element(P: Poset, x: str) -> Poset:
    """P without x (transitivity keeps all remaining comparabilities)."""
    P.index(x)
    return induced_subposet(P, [e for e in P.elements if e != x])


def topology_census(P: Poset) -> tuple[int, int]:
    """(number of open sets, number of antichains), each by its own walk.

    Opens are the down-closed subsets, walked by ``_down_sets`` along the
    points sorted by down-set size (a linear extension).  Antichains are
    walked the same way: each point extends every antichain so far that
    holds nothing comparable to it.  The two counts are computed
    independently; the antichain of maximal elements of an open set gives
    the bijection that makes them equal.
    """
    n = len(P)
    if n > CENSUS_GUARD:
        raise TooLarge(f"topology census needs |P| <= {CENSUS_GUARD}, got {n}")
    down, up = P.down_rows, P.up_rows
    opens = len(_down_sets(down, sorted(range(n), key=lambda i: down[i].bit_count())))
    sets = [0]
    for i in range(n):
        sets += [a | 1 << i for a in sets if not a & (down[i] | up[i])]
    return opens, len(sets)


def _down_sets(rows: tuple[int, ...], order: Iterable[int], limit: float = math.inf) -> list[int] | None:
    """Every down-closed subset of the rows, as bitmasks, or None past limit.

    order must list the indices in a linear extension.  The walk adds one
    point at a time: the down-sets of the points so far are kept, and each
    one that holds the new point's strict down-set also yields its union
    with the point.  The count never falls, so the walk stops as soon as
    it passes limit, and None means the full count is above limit.
    """
    sets = [0]
    for i in order:
        below = rows[i] & ~(1 << i)
        sets += [d | 1 << i for d in sets if d & below == below]
        if len(sets) > limit:
            break
    return sets if len(sets) <= limit else None


def _relabel(rows: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """Down rows after renaming label i to perm[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        r = 0
        for j in _bits(row):
            r |= 1 << perm[j]
        out[perm[i]] = r
    return tuple(out)


def _cell_starts(keys: list) -> list[int]:
    """Colour each point by the first position of its key in sorted key order."""
    first: dict = {}
    for pos, key in enumerate(sorted(keys)):
        first.setdefault(key, pos)
    return [first[key] for key in keys]


def _refine(down: list[list[int]], up: list[list[int]], colour: list[int]) -> list[int]:
    """Split cells by the colours of strict down- and up-neighbours until stable.

    A key starts with the point's own colour, so cells only split and
    keep their order; a round that adds no cell is the fixed point.
    """
    n = len(colour)
    cells = len(set(colour))
    while cells < n:
        colour = _cell_starts([
            (
                colour[i],
                tuple(sorted([colour[j] for j in down[i]])),
                tuple(sorted([colour[j] for j in up[i]])),
            )
            for i in range(n)
        ])
        split = len(set(colour))
        if split == cells:
            break
        cells = split
    return colour


def _canonical_rows(rows: tuple[int, ...]) -> tuple[int, ...]:
    """A canonical relabeling: equal results iff the posets are isomorphic.

    Individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism II", 2014).  Points start coloured by their numbers of
    strict down- and up-neighbours and are refined to a fixpoint; a
    colour is the first position of its cell, so a discrete colouring is
    itself the relabeling.  While some cell has several points, the
    first such cell is searched: each of its points in turn takes the
    cell's first position and the colouring is refined again.  The
    canonical form is the smallest relabeled row tuple over all leaves.
    Only one point per twin class (same strict down-set and up-set) is
    tried, since swapping twins is an automorphism, so the leaves number
    about |Aut| modulo twin swaps: one for an antichain, 24 for
    hypercube(4), 120 for five disjoint 2-chains.  Strict comparability
    strictly grows down-set sizes, so cell order refines the poset order
    and the result is naturally labeled.
    """
    n = len(rows)
    down = [[j for j in _bits(row) if j != i] for i, row in enumerate(rows)]
    up: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in down[i]:
            up[j].append(i)
    twins: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    twin_of = [twins.setdefault((tuple(down[i]), tuple(up[i])), i) for i in range(n)]

    def smallest(colour: list[int]) -> tuple[int, ...]:
        cells = set(colour)
        if len(cells) == n:
            return _relabel(rows, tuple(colour))
        target = min(c for c in cells if colour.count(c) > 1)
        tried: set[int] = set()
        forms: list[tuple[int, ...]] = []
        for v in range(n):
            if colour[v] == target and twin_of[v] not in tried:
                tried.add(twin_of[v])
                nxt = [c + (c == target and i != v) for i, c in enumerate(colour)]
                forms.append(smallest(_refine(down, up, nxt)))
        return min(forms)

    start = _cell_starts([(len(down[i]), len(up[i])) for i in range(n)])
    return smallest(_refine(down, up, start))


def is_isomorphic(P: Poset, Q: Poset, guard: int = ISO_GUARD) -> bool:
    """Decide order-isomorphism by comparing canonical forms.

    Posets of different sizes are never isomorphic, whatever the guard.
    """
    if len(P) != len(Q):
        return False
    if len(P) > guard:
        raise TooLarge(f"isomorphism guard is {guard} elements")
    return _canonical_rows(P.down_rows) == _canonical_rows(Q.down_rows)


def structure_stats(P: Poset) -> StructureStats:
    """Height (longest chain minus one) and a deterministic linear extension.

    The extension is the lexicographically least one: each step takes the
    first element, in declared order, whose strict down-set is already
    placed.  One pass finds it: every element counts its unplaced strict
    predecessors, and a heap holds the elements whose count is zero.
    Placing an element lowers the counts of its strict successors and
    passes them its depth plus one, so the height falls out of the same
    pass.
    """
    n = len(P)
    succ: list[list[int]] = [[] for _ in range(n)]
    count = [0] * n
    ready = []
    for i, row in enumerate(P.down_rows):
        strict = row ^ (1 << i)
        if strict:
            count[i] = strict.bit_count()
            for j in _bits(strict):
                succ[j].append(i)
        else:
            ready.append(i)
    depth = [0] * n
    ext_idx: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        ext_idx.append(i)
        d = depth[i] + 1
        for k in succ[i]:
            if depth[k] < d:
                depth[k] = d
            count[k] -= 1
            if not count[k]:
                heapq.heappush(ready, k)
    return StructureStats(max(depth, default=0), [P.elements[i] for i in ext_idx])
