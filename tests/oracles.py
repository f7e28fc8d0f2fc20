"""Test-only reference oracles: slow, obviously correct, no shared logic.

Each oracle follows its definition directly so that the package's fast
routines can be checked against it.  MonotoneMap and is_initial_map, the
map definitions that no package routine uses, live here too, and so does
fence, the small example space that several test files share.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, permutations
from typing import Iterable, Sequence

from finposet import (
    CubeEmbedding,
    CycleError,
    EmptyPoset,
    OutOfRange,
    Poset,
    StructureStats,
    TooWide,
    UnknownElement,
    build_poset,
    structure_stats,
    two_dimension,
)
from finposet.census import CHECKS, CensusReport, CheckResult, enumerate_posets
from finposet.dimension import WIDTH_GUARD


def fence() -> Poset:
    # d < b, d < c, c < a: the four-point space with 7 open sets
    return build_poset("abcd", [("d", "b"), ("d", "c"), ("c", "a")])


@dataclass(frozen=True)
class MonotoneMap:
    """A total order-preserving (= continuous) map between posets."""

    source: Poset
    target: Poset
    assignment: dict[str, str]

    def __post_init__(self) -> None:
        for x in self.source:
            if x not in self.assignment:
                raise ValueError(f"assignment is not total: missing {x!r}")
            if self.assignment[x] not in self.target:
                raise ValueError(f"image {self.assignment[x]!r} is not in the target")
        for x in self.source:
            for y in self.source:
                if self.source.leq(x, y) and not self.target.leq(
                    self.assignment[x], self.assignment[y]
                ):
                    raise ValueError(f"not order preserving on ({x!r}, {y!r})")

    def __call__(self, x: str) -> str:
        return self.assignment[x]


def is_initial_map(f: MonotoneMap) -> bool:
    """True iff x <= x' exactly when f(x) <= f(x'), for all pairs.

    An initial map from a poset is automatically injective, hence an
    order embedding onto its image.
    """
    src, tgt, a = f.source, f.target, f.assignment
    for x in src:
        for y in src:
            if src.leq(x, y) != tgt.leq(a[x], a[y]):
                return False
    return True


def _set_bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def close_rows_fixpoint(elements: Sequence[str], relations: Iterable[tuple[str, str]]) -> Poset:
    """The closure of relation pairs (x, y), each meaning x <= y, by fixpoint sweeps.

    Every sweep ORs into each row the rows of all the points it already
    holds, until a sweep changes nothing; then every bit is checked for
    antisymmetry.  A chain declared top-first needs one sweep per point.
    """
    ids = list(elements)
    index = {e: i for i, e in enumerate(ids)}
    if len(index) != len(ids):
        raise ValueError("duplicate element ids")
    rows = [1 << i for i in range(len(ids))]
    for x, y in relations:
        for e in (x, y):
            if e not in index:
                raise UnknownElement(f"relation references undeclared element {e!r}")
        rows[index[y]] |= 1 << index[x]
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(rows):
            acc = row
            for j in _set_bits(row):
                acc |= rows[j]
            if acc != row:
                rows[i] = acc
                changed = True
    for i, row in enumerate(rows):
        for j in _set_bits(row):
            if j != i and rows[j] >> i & 1:
                raise CycleError(f"cycle through {ids[i]!r} and {ids[j]!r}")
    return Poset(ids, rows)


def structure_stats_rescan(P: Poset) -> StructureStats:
    """Height and linear extension by rescanning from the first point after every pick.

    Each step takes the first point, in declared order, not yet placed
    and with its whole strict down-set placed.  The depth of a point is
    one more than the largest depth strictly below it, taken along the
    extension.
    """
    n = len(P)
    down = P.down_rows
    placed: list[int] = []
    taken = 0
    while len(placed) < n:
        i = next(i for i in range(n) if not taken >> i & 1 and down[i] & ~taken == 1 << i)
        placed.append(i)
        taken |= 1 << i
    depth = [0] * n
    for i in placed:
        depth[i] = max((depth[j] + 1 for j in _set_bits(down[i]) if j != i), default=0)
    return StructureStats(max(depth, default=0), [P.elements[i] for i in placed])


def exists_embedding_naive(P: Poset, width: int) -> CubeEmbedding | None:
    """Reference search with no ordering tricks and no symmetry breaking.

    Assigns elements in declared order, tries every mask, and checks the
    full biconditional against everything assigned.  Exponentially slower
    than exists_embedding but obviously correct.
    """
    if width < 0:
        raise OutOfRange("width must be >= 0")
    if width > WIDTH_GUARD:
        raise TooWide(f"embedding search is capped at width {WIDTH_GUARD}")
    n = len(P)
    if n == 0:
        raise EmptyPoset("the empty space has no embeddings")
    masks = [0] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        for m in range(1 << width):
            ok = True
            for j in range(i):
                below = masks[j] | m == m
                above = m | masks[j] == masks[j]
                if below != P.leq(P.elements[j], P.elements[i]) or above != P.leq(
                    P.elements[i], P.elements[j]
                ):
                    ok = False
                    break
            if ok:
                masks[i] = m
                if place(i + 1):
                    return True
        return False

    if place(0):
        return CubeEmbedding(P, width, {P.elements[i]: masks[i] for i in range(n)})
    return None


def search_masks_lexicographic(P: Poset, width: int) -> dict[str, int] | None:
    """The masks the width search documents, found by trying every mask in turn.

    Walks structure_stats(P).linear_extension and gives each element the
    first of the masks 0 .. 2^width - 1 that keeps the masks so far an
    order embedding and obeys the search's four rules: it holds the union
    of its lower covers' masks; it has at most width - need bits, need
    being the larger of the longest chain strictly above the element and
    bit_length of its strict up-set's size; its coordinates from the
    number used so far on are a run starting there; and its key
    (popcount(m >> u), m & (2^u - 1)) is no smaller than that of the
    previous twin (same strict down-set and up-set) placed, u being the
    number of coordinates used before the first twin was placed.
    Backtracks when no mask fits.  Returns the masks by element, or None.
    """
    order = structure_stats(P).linear_extension
    n = len(order)
    strictly_below = {x: P.down_set(x) - {x} for x in order}
    strictly_above = {x: P.up_set(x) - {x} for x in order}
    lower_covers = {
        x: [y for y in strictly_below[x] if strictly_above[y].isdisjoint(strictly_below[x])] for x in order
    }
    chain_above: dict[str, int] = {}
    for x in reversed(order):
        chain_above[x] = max((chain_above[y] + 1 for y in strictly_above[x]), default=0)
    need = {x: max(chain_above[x], len(strictly_above[x]).bit_length()) for x in order}
    masks: dict[str, int] = {}
    used_at: dict[str, int] = {}

    def key(m: int, u: int) -> tuple[int, int]:
        return (m >> u).bit_count(), m & ((1 << u) - 1)

    def fits(x: str, m: int) -> bool:
        """mask(y) is a subset of m exactly when y <= x, and m of mask(y) exactly when x <= y."""
        return all(
            (masks[y] | m == m) == P.leq(y, x) and (m | masks[y] == masks[y]) == P.leq(x, y) for y in masks
        )

    def place(k: int, used: int) -> bool:
        if k == n:
            return True
        x = order[k]
        forced = 0
        for y in lower_covers[x]:
            forced |= masks[y]
        sides = (strictly_below[x], strictly_above[x])
        twins = [y for y in order[:k] if (strictly_below[y], strictly_above[y]) == sides]
        used_at[x] = used
        for m in range(1 << width):
            run = m >> used
            if m & forced != forced or m.bit_count() > width - need[x] or run & (run + 1):
                continue
            if twins and key(m, used_at[twins[0]]) < key(masks[twins[-1]], used_at[twins[0]]):
                continue
            if fits(x, m):
                masks[x] = m
                if place(k + 1, max(used, m.bit_length())):
                    return True
                del masks[x]
        return False

    return dict(masks) if place(0, 0) else None


def _relation(P: Poset) -> set[tuple[int, int]]:
    """All index pairs (j, i) with element j <= element i."""
    return {(j, i) for i, row in enumerate(P.down_rows) for j in range(len(P)) if row >> j & 1}


def is_isomorphic_brute(P: Poset, Q: Poset) -> bool:
    """Try every bijection of indices for one that maps P's <= onto Q's.

    A bijection that maps the relation of P into an equally large
    relation of Q maps it onto it, so it also reflects <=.
    """
    rel_p, rel_q = _relation(P), _relation(Q)
    if len(P) != len(Q) or len(rel_p) != len(rel_q):
        return False
    return any(
        all((p[j], p[i]) in rel_q for j, i in rel_p) for p in permutations(range(len(P)))
    )


def two_dimension_cover(P: Poset) -> int:
    """The 2-dimension as the least number of up-sets covering all pairs x, y with x not <= y.

    Coordinate k of an embedding into 2^w picks out an up-set (the
    elements whose mask has bit k), and mask(x) is a subset of mask(y)
    exactly when every one of those up-sets containing x contains y.  So
    P embeds in 2^w if and only if w up-sets cover every pair x not <= y,
    where U covers (x, y) when x is in U and y is not.  Up-sets whose
    covered pairs are all covered by another up-set are dropped, then an
    iterative-deepening set cover branches over the up-sets covering the
    uncovered pair that the fewest up-sets cover.
    """
    n = len(P)
    if n == 0:
        raise EmptyPoset("the empty space has no 2-dimension")
    leq = [[P.leq(x, y) for y in P.elements] for x in P.elements]
    pairs = [(x, y) for x in range(n) for y in range(n) if not leq[x][y]]
    upset_covers = set()
    for S in range(1 << n):
        members = [x for x in range(n) if S >> x & 1]
        if all(S >> y & 1 for x in members for y in range(n) if leq[x][y]):
            upset_covers.add(sum(1 << p for p, (x, y) in enumerate(pairs) if S >> x & 1 and not S >> y & 1))
    sets = [c for c in upset_covers if not any(c != d and c | d == d for d in upset_covers)]
    largest = max((c.bit_count() for c in sets), default=0)
    # pairs that few up-sets cover are branched on first
    rarest = sorted(range(len(pairs)), key=lambda p: sum(c >> p & 1 for c in sets))
    failed: set[tuple[int, int]] = set()

    def coverable(k: int, uncovered: int) -> bool:
        if uncovered == 0:
            return True
        if k * largest < uncovered.bit_count() or (k, uncovered) in failed:
            return False
        pair = next(1 << p for p in rarest if uncovered >> p & 1)
        if any(c & pair and coverable(k - 1, uncovered & ~c) for c in sets):
            return True
        failed.add((k, uncovered))
        return False

    everything = (1 << len(pairs)) - 1
    return next(w for w in count() if coverable(w, everything))


def covers_brute(P: Poset) -> list[tuple[str, str]]:
    """Pairs (x, y) with x < y and no z strictly between, by element order of x, then y."""
    elements = list(P)
    above = {x: P.up_set(x) - {x} for x in elements}
    below = {y: P.down_set(y) - {y} for y in elements}
    return [(x, y) for x in elements for y in elements if y in above[x] and above[x].isdisjoint(below[y])]


def ranked_rows_brute(rows: Sequence[int], order: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """The position of every index in order, and the strict down and up rows over positions.

    Each pair of positions is tested on its own: s lies below t when
    s != t and index order[s] is in the reflexive down row of order[t].
    """
    n = len(order)
    rank = [list(order).index(i) for i in range(n)]

    def lies_below(s: int, t: int) -> bool:
        return s != t and bool(rows[order[t]] >> order[s] & 1)

    below = [sum(1 << s for s in range(n) if lies_below(s, t)) for t in range(n)]
    above = [sum(1 << s for s in range(n) if lies_below(t, s)) for t in range(n)]
    return rank, below, above


def topology_census_brute(P: Poset) -> tuple[int, int]:
    """(open sets, antichains) by testing every subset of the points.

    A subset is open when it holds the down-set of each of its points,
    and an antichain when no point in it is comparable to another.
    """
    n = len(P)
    down, up = P.down_rows, P.up_rows
    opens = antichains = 0
    for S in range(1 << n):
        members = [i for i in range(n) if S >> i & 1]
        opens += all(down[i] | S == S for i in members)
        antichains += all((down[i] | up[i]) & S == 1 << i for i in members)
    return opens, antichains


def exact_dim(P: Poset) -> int:
    """The 2-dimension with no memo, the dim a census check is given."""
    return two_dimension(P, max_size=len(P)).value


def census_check_brute(n: int, checks: Iterable[str]) -> CensusReport:
    """The labeled census the slow way: every check on every labeled poset.

    Unlike census_check it needs no check to be an isomorphism invariant,
    so a check that depends on the labeling makes the two reports differ.
    """
    posets = enumerate_posets(n)
    results = tuple(
        CheckResult(name, len(posets), tuple(P for P in posets if not CHECKS[name](P, exact_dim)))
        for name in checks
    )
    return CensusReport(n, False, results)
