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
per automorphism left after twin swaps, and which also counts |Aut| and
returns generators of Aut.
``is_isomorphic`` compares canonical forms and unlabeled enumeration
dedupes by them.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CycleError, TooLarge, UnknownElement

# topology_census keeps every open set and antichain it counts, up to
# 2^n of each, so its size is capped here.
CENSUS_GUARD = 20
# Default size guard for isomorphism tests.  The canonical form's search
# has exactly |Aut| smallest-form leaves, less twin swaps it skips; at 10
# points the worst family, disjoint 2-chains, has five copies and 5! = 120.
ISO_GUARD = 10
# _ranked transposes by block swaps, instead of walking the strict pairs,
# when the rows hold at least this many strict pairs per point (_dense),
# so from 2 * 8 + 1 = 17 points up.  A transpose costs about the same at
# any density and the pair walk grows with the pairs: on random posets of
# 16-300 points the two broke even at 5-7 pairs per point.
TRANSPOSE_MIN_DEGREE = 8


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
            above = _ranked(self._down, range(len(self._down)))[2]
            self._up = tuple(row | 1 << i for i, row in enumerate(above))
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
    """The transitive reduction: pairs (x, y), x < y with nothing between, by
    index of x then y, read off ``_cover_walk`` without P's up rows."""
    order, lower = _cover_walk(P.down_rows)
    pairs = sorted((order[s], order[t]) for t, row in enumerate(lower) for s in _bits(row))
    return [(P.elements[x], P.elements[y]) for x, y in pairs]


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
    """P without x (transitivity keeps all remaining comparabilities).

    Each row drops bit i, the index of x: the bits below i stay, and those
    above it shift down by one.
    """
    i = P.index(x)
    low = (1 << i) - 1
    rows = [r & low | r >> (i + 1) << i for r in P.down_rows]
    del rows[i]
    return Poset(P.elements[:i] + P.elements[i + 1 :], rows)


def topology_census(P: Poset) -> tuple[int, int]:
    """(number of open sets, number of antichains), each by its own walk.

    Opens are the down-closed subsets, walked by ``_down_sets`` along the
    points sorted by down-set size (a linear extension).  Antichains are
    walked along the same order, so no earlier point lies above the next
    one: it extends every antichain so far that holds nothing below it.
    The two counts are computed independently; the antichain of maximal
    elements of an open set gives the bijection that makes them equal.
    """
    n = len(P)
    if n > CENSUS_GUARD:
        raise TooLarge(f"topology census needs |P| <= {CENSUS_GUARD}, got {n}")
    down = P.down_rows
    order = sorted(range(n), key=lambda i: down[i].bit_count())
    opens = len(_down_sets(down, order))
    sets = [0]
    for i in order:
        sets += [a | 1 << i for a in sets if not a & down[i]]
    return opens, len(sets)


def _down_sets(rows: tuple[int, ...], order: Iterable[int], limit: float = math.inf) -> list[int] | None:
    """Every down-closed subset of the rows, as bitmasks, or None past limit.

    Rows may be strict or reflexive; order must list the indices in a
    linear extension.  The walk adds one point at a time: the down-sets of
    the points so far are kept, and each one that holds the new point's
    strict down-set also yields its union with the point.  The count never
    falls, so the walk stops as soon as it passes limit and returns None.
    """
    sets = [0]
    for i in order:
        below = rows[i] & ~(1 << i)
        sets += [d | 1 << i for d in sets if d & below == below]
        if len(sets) > limit:
            break
    return sets if len(sets) <= limit else None


def _naturally_labeled(rows: Sequence[int]) -> bool:
    """Whether every strict predecessor of a point has a smaller index, that
    is whether the index order is a linear extension of the reflexive rows."""
    return all(row >> i == 1 for i, row in enumerate(rows))


def _dense(rows: Sequence[int]) -> bool:
    """Whether the reflexive rows hold ``TRANSPOSE_MIN_DEGREE`` strict pairs per point."""
    n = len(rows)
    return n > 2 * TRANSPOSE_MIN_DEGREE and sum(map(int.bit_count, rows)) - n >= TRANSPOSE_MIN_DEGREE * n


def _swap_mask(N: int, j: int) -> int:
    """The bits (r, c) = r*N + c of an N x N matrix with r & j == 0 and c & j != 0.

    One row is a byte pattern repeated in C (runs of j ones at j, 3j, ...);
    each doubling step then copies the rows so far above themselves.
    """
    if j >= 8:
        cols = (bytes(j // 8) + b"\xff" * (j // 8)) * (N // (2 * j))
    else:
        cols = bytes([(0xAA, 0xCC, 0, 0xF0)[j - 1]]) * (N // 8)
    mask = int.from_bytes(cols, "little")
    k = 1
    while k < N:
        if k != j:  # rows r + j stay clear
            mask |= mask << k * N
        k *= 2
    return mask


def _transpose(rows: Sequence[int], n: int) -> list[int]:
    """The transpose of an n x n bit matrix: bit i of out[j] is bit j of rows[i].

    The rows are packed into one integer, N bits per row, N the power of two
    at least max(n, 8), and the N x N matrix is transposed by recursive
    block swaps (Warren, Hacker's Delight, 2nd ed., section 7-3).  The round
    for j = N/2, ..., 1 swaps the two off-diagonal j x j quarters of every
    2j x 2j block: bit (r, c) with r & j == 0 and c & j != 0 trades places
    with bit (r + j, c - j), s = j(N - 1) positions higher.  So a transpose
    is O(n) Python steps to pack and unpack plus O(log n) big-int operations
    on N^2 bits.  The masks are built per call: a table kept for reuse would
    grow with the largest N seen (about 100 MB at N = 8192).
    """
    N = max(8, 1 << (n - 1).bit_length())
    width = N // 8
    M = int.from_bytes(b"".join([row.to_bytes(width, "little") for row in rows]), "little")
    j = N // 2
    while j:
        s = j * (N - 1)
        t = (M ^ M >> s) & _swap_mask(N, j)
        M ^= t | t << s
        j //= 2
    data = M.to_bytes(n * width, "little")
    return [int.from_bytes(data[k : k + width], "little") for k in range(0, n * width, width)]


def _ranked(rows: Sequence[int], order: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """Down rows relabeled to positions in order (a permutation, usually a linear
    extension): rank[i] is the position of index i, and below[t] and above[t] the
    strict down- and up-sets at position t.

    Dense rows (``_dense``) take two transposes: the rows taken in order
    and transposed are the up rows of the indices over positions, those
    taken in order are the up rows over positions, and their transpose is
    the down rows over positions.  Other rows walk the comparable pairs,
    which is faster there.
    """
    n = len(order)
    rank = sorted(range(n), key=order.__getitem__)  # the inverse permutation of order
    if _dense(rows):
        up = _transpose([rows[i] for i in order], n)
        above = [up[i] for i in order]  # reflexive
        below = [row ^ 1 << t for t, row in enumerate(_transpose(above, n))]
        return rank, below, [row ^ 1 << t for t, row in enumerate(above)]
    below, above = [0] * n, [0] * n
    for t, i in enumerate(order):
        bit = 1 << t
        row = 0
        for j in _bits(rows[i] ^ (1 << i)):
            s = rank[j]
            row |= 1 << s
            above[s] |= bit
        below[t] = row
    return rank, below, above


def _lower_covers(below: Sequence[int]) -> list[int]:
    """Lower covers from strict down rows over a linear extension: the highest
    position left in a row is a cover, and each step drops it and all below it."""
    out = []
    for row in below:
        lower = 0
        while row:
            s = row.bit_length() - 1
            lower |= 1 << s
            row &= ~(below[s] | 1 << s)
        out.append(lower)
    return out


def _cover_walk(rows: Sequence[int]) -> tuple[Sequence[int], list[int]]:
    """A linear extension of the reflexive down rows, as indices, and the
    lower covers at each of its positions, as position masks.

    When the index order is already a linear extension (as for chains,
    cubes and canonical forms) the strict rows are read as they are; else
    the points are taken by down-set size, ties by index, and the rows
    relabeled to positions by ``_ranked``.
    """
    if _naturally_labeled(rows):
        order: Sequence[int] = range(len(rows))
        below = [row ^ 1 << i for i, row in enumerate(rows)]
    else:
        order = sorted(range(len(rows)), key=lambda i: rows[i].bit_count())
        below = _ranked(rows, order)[1]
    return order, _lower_covers(below)


def _relabel(rows: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """Down rows after renaming label i to perm[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        r = 0
        for j in _bits(row):
            r |= 1 << perm[j]
        out[perm[i]] = r
    return tuple(out)


def _canonical_rows(rows: tuple[int, ...]) -> tuple[tuple[int, ...], int, list[tuple[int, ...]]]:
    """A canonical relabeling, equal iff the posets are isomorphic, |Aut|, and
    generators of Aut as permutations of the canonical labels.

    Individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism II", 2014).  Points start coloured by their numbers of
    strict down- and up-neighbours and are refined to a fixpoint: each
    round splits a cell by the colours of its points' strict down- and
    up-neighbours.  A colour is the first position of its cell, so a
    discrete colouring is itself the relabeling.  While some cell has
    several points, the first such cell is searched: each of its points
    in turn takes the cell's first position and the colouring is refined
    again.  The canonical form is the smallest relabeled row tuple over
    all leaves.  Strict comparability strictly grows down-set sizes, so
    cell order refines the poset order and the result is naturally
    labeled.

    The refinement and the choice of target cell are label-invariant, so
    Aut acts on the search tree, and freely on its leaves (discrete
    colourings).  Two leaves give the same form iff they differ by an
    automorphism, so the tree has exactly |Aut| leaves of smallest form.
    Only one point per twin class (same strict down-set and up-set) is
    tried: swapping two twins not yet individualized is an automorphism
    fixing the points individualized so far, so the skipped sibling
    subtrees are isomorphic to the one searched.  A branch therefore
    counts its smallest-form leaves times the number of its point's
    twins in the cell, and only branches reaching the smallest form are
    summed.  A target cell of one twin class splits nothing else when
    its points are individualized in turn, so it is laid out in index
    order in one step and counts k! leaves for its k points.  The leaves
    visited number about |Aut| modulo twin swaps: one for an antichain
    (|Aut| = n!), 24 for hypercube(4), 120 for five disjoint 2-chains.

    The generators are the twin transpositions, for the subtrees the
    search skips, and one permutation per smallest-form leaf after the
    first, mapping the first leaf's labels to that leaf's (of a tied
    branch, its first such leaf).  Together they generate Aut: along the
    path to the first smallest leaf, each branch in the orbit of the
    path's own is reached by one of them, and each twin of a branch point
    by a transposition, and the stabiliser of the leaf is trivial.
    """
    n = len(rows)
    # slots of point i: i itself, each strict down-neighbour j, n + k for each
    # strict up-neighbour k; up[j] is the strict up-set of j as a bitmask
    nbrs = [[i] for i in range(n)]
    up = [0] * n
    for i, row in enumerate(rows):
        bit, own = 1 << i, nbrs[i]
        row ^= bit
        while row:
            low = row & -row
            j = low.bit_length() - 1
            own.append(j)
            nbrs[j].append(n + i)
            up[j] |= bit
            row ^= low
    # A refinement key sorts points by colour, then by the colours of their
    # neighbours below, then above, each compared as a sorted tuple.  Points
    # of one cell have equally many neighbours below and above, and multisets
    # of one size order as sorted tuples exactly when their counts per colour,
    # colour 0 first, order in reverse.  So a key is the colour shifted above
    # one b-bit count per side and colour, minus those counts.
    b = n.bit_length()
    shift = 2 * b * n
    weight = [1 << b * k for k in range(2 * n - 1, -1, -1)]
    below, above = weight[:n], weight[n:]

    def refine(colour: list[int], cells: int) -> tuple[list[int], int]:
        while cells < n:
            w = [*map(below.__getitem__, colour), *map(above.__getitem__, colour)]
            starts = set(colour)
            starts.add(n)
            # a point alone in its cell keeps its colour, whatever its neighbours
            keys = [
                c << shift if c + 1 in starts else (c << shift) - sum(map(w.__getitem__, slots))
                for c, slots in zip(colour, nbrs)
            ]
            ordered = sorted(keys)
            first = dict(zip(reversed(ordered), range(n - 1, -1, -1)))
            if len(first) == cells:
                break
            cells = len(first)
            colour = list(map(first.__getitem__, keys))
        return colour, cells

    def smallest(colour: list[int], cells: int) -> tuple[tuple[int, ...], int, list[int], list[list[int]]]:
        # the least form below this node, its smallest-form leaves, the
        # first one's colouring, and the colourings of the others recorded
        leaves = 1
        while cells < n:
            ordered = sorted(colour)
            target = next(c for c, d in zip(ordered, ordered[1:]) if c == d)
            members = [v for v, c in enumerate(colour) if c == target]
            kinds = [rows[v] ^ 1 << v | up[v] << n for v in members]  # twin keys
            if kinds.count(kinds[0]) < len(kinds):
                break
            # one twin class: individualizing its points in turn splits nothing else
            colour = colour[:]
            for pos, v in enumerate(members, target):
                colour[v] = pos
            cells += len(members) - 1
            leaves *= math.factorial(len(members))
        else:
            w = [1 << c for c in colour] + [0] * n
            form = [0] * n
            for c, slots in zip(colour, nbrs):
                form[c] = sum(map(w.__getitem__, slots))
            return tuple(form), leaves, colour, []
        best = None
        for kind in dict.fromkeys(kinds):  # the first point of each twin class in the cell
            v = members[kinds.index(kind)]
            nxt = [c + (c == target and u != v) for u, c in enumerate(colour)]
            form, k, leaf, others = smallest(*refine(nxt, cells + 1))
            k *= kinds.count(kind)
            if best is None or form < best:
                best, count, first_leaf, tied = form, k, leaf, others
            elif form == best:
                count += k
                tied.append(leaf)
        return best, count * leaves, first_leaf, tied

    start = [row.bit_count() * n + len(slots) for row, slots in zip(rows, nbrs)]
    ordered = sorted(start)
    first = dict(zip(reversed(ordered), range(n - 1, -1, -1)))
    form, automorphisms, leaf, tied = smallest(*refine(list(map(first.__getitem__, start)), len(first)))
    if automorphisms == 1:
        return form, 1, []
    point_at = sorted(range(n), key=leaf.__getitem__)
    generators = [tuple(map(other.__getitem__, point_at)) for other in tied]
    first_twin: dict[int, int] = {}
    for i in range(n):
        t = first_twin.setdefault(rows[i] ^ 1 << i | up[i] << n, i)
        if t != i:
            swap = list(range(n))
            swap[leaf[i]], swap[leaf[t]] = leaf[t], leaf[i]
            generators.append(tuple(swap))
    return form, automorphisms, generators


def is_isomorphic(P: Poset, Q: Poset, guard: int = ISO_GUARD) -> bool:
    """Decide order-isomorphism by comparing canonical forms.

    Posets of different sizes are never isomorphic, whatever the guard.
    """
    if len(P) != len(Q):
        return False
    if len(P) > guard:
        raise TooLarge(f"isomorphism guard is {guard} elements")
    return _canonical_rows(P.down_rows)[0] == _canonical_rows(Q.down_rows)[0]


def structure_stats(P: Poset) -> StructureStats:
    """Height (longest chain minus one) and a deterministic linear extension.

    Both are read off ``_cover_walk``: the extension is its order, the
    declared order when that is a linear extension and else the points by
    down-set size, ties by index.  A longest chain is a chain of covers,
    so each position lies one deeper than its deepest lower cover, and
    the height is the largest depth.
    """
    order, lower = _cover_walk(P.down_rows)
    depth: list[int] = []
    for row in lower:
        d = 0
        while row:
            s = row.bit_length() - 1
            if depth[s] >= d:
                d = depth[s] + 1
            row ^= 1 << s
        depth.append(d)
    return StructureStats(max(depth, default=0), [P.elements[i] for i in order])
