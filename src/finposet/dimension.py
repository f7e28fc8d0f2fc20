"""Order embeddings into Boolean lattices and the exact 2-dimension.

The 2-dimension of a finite T0 space is the least n such that its
specialization order embeds into the lattice of subsets of an n-set.
Embeddings are stored as one subset mask per element; coordinate i is
bit i, and bitstrings print coordinate 0 first.

Four routes produce certified embeddings.  Two are exact and sit behind
two_dimension, chosen by the number of up-sets: a cover of the critical
pairs by up-sets, and an exhaustive width search (pruned by coordinate
and twin symmetry and by up-set capacity, which finds each point's
candidate masks as one bitset over the cube).  two_dimension builds one
plan of P per call and hands it to its width loop and to the chosen
backend, which is set up once and then answers one width per call; the
loop asks widths upwards and verifies the first answer.  The canonical
characteristic-function embedding has width |P|, and a deflation replay
turns a core computation into an embedding one new coordinate per
removed point.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .core import (
    Poset, StructureStats, _bits, _down_sets, _lower_covers, _ranked, remove_element, structure_stats
)
from .errors import (
    EmptyPoset,
    InvalidEmbedding,
    InvalidWitness,
    OutOfRange,
    TooLarge,
    TooWide,
)
from .homotopy import BeatPointWitness, CoreTrace, beat_points, core

# The width search filters candidates as bitsets of 2^width bits (128 KiB
# each at width 20, and a table of them per width), so two_dimension and
# exists_embedding refuse wider searches.
WIDTH_GUARD = 20
# Default size cap for the exact 2-dimension.
SIZE_GUARD = 12
# two_dimension solves a poset of at least COVER_MIN_SIZE points and at
# most COVER_LIMIT up-sets as an up-set cover, any other by the width
# search.  Below 6 points the cover's fixed set-up costs more than the
# whole search.  On the benchmark's 330 pool posets of 9-12 points, with
# each backend forced, the cover took a fifth of the search's time at
# most 250 up-sets, the two were even at 251-400, and above 400 the search
# won (README, Guards).  The limit stays above that crossover because a
# different route gives different witnesses.
COVER_MIN_SIZE = 6
COVER_LIMIT = 400


@dataclass(frozen=True)
class CubeEmbedding:
    """An assignment of subset masks of {0..width-1} to the elements of poset."""

    poset: Poset
    width: int
    masks: dict[str, int]

    def mask_of(self, x: str) -> int:
        self.poset.index(x)
        return self.masks[x]

    def bitstring(self, x: str) -> str:
        """Bits 0..width-1 of x's mask, coordinate 0 first.  A sentinel bit
        at width keeps the leading zeros; reversing drops it."""
        w = self.width
        return format(self.mask_of(x) & ((1 << w) - 1) | 1 << w, "b")[:0:-1]


@dataclass(frozen=True)
class DimCertificate:
    """An exact 2-dimension value with a witness embedding at that width.

    exhausted_below records that every smaller width admits no embedding,
    which is what makes the value exact rather than an upper bound.
    """

    value: int
    witness: CubeEmbedding
    exhausted_below: bool


def lower_bound(P: Poset, stats: StructureStats | None = None) -> int:
    """max(ceil(log2 |P|), height): both are forced on any embedding width.

    2^width must have at least |P| points, and a chain of height h needs
    h+1 nested distinct masks, hence at least h coordinates.  A caller
    that already holds structure_stats(P) passes it as stats, so that it
    is computed only once.
    """
    if len(P) == 0:
        raise EmptyPoset("the empty space has no embedding width bounds")
    if stats is None:
        stats = structure_stats(P)
    return max((len(P) - 1).bit_length(), stats.height)


def upper_bound(P: Poset, trace: CoreTrace | None = None) -> int:
    """|P|, improved to |P| - 1 when the space is contractible.

    A caller that already holds core(P) passes it as trace, so that P is
    deflated only once.
    """
    if len(P) == 0:
        raise EmptyPoset("the empty space has no embedding width bounds")
    if len(P) == 1:
        return 0
    if trace is None:
        trace = core(P)
    return len(P) - 1 if trace.contractible else len(P)


def canonical_embedding(P: Poset) -> CubeEmbedding:
    """The width-|P| embedding by complemented minimal open sets.

    Coordinate i tracks membership in the complement of the minimal open
    set of elements[i]: bit i of mask(y) is set iff not y <= elements[i],
    so mask(y) is the complement of the up row of y.
    """
    full = (1 << len(P)) - 1
    return CubeEmbedding(P, len(P), {y: full & ~row for y, row in zip(P.elements, P.up_rows)})


def verify_embedding(E: CubeEmbedding) -> bool:
    """Check E is a genuine order embedding of its poset, from scratch.

    Requires total in-range masks and the full biconditional: mask(x) a
    subset of mask(y) exactly when x <= y (injectivity follows).
    """
    P = E.poset
    if set(E.masks) != set(P.elements) or E.width < 0:
        return False
    limit = 1 << E.width
    for m in E.masks.values():
        if not isinstance(m, int) or m < 0 or m >= limit:
            return False
    masks = [E.masks[x] for x in P.elements]
    for m, row in zip(masks, P.down_rows):
        below = 0
        for j, other in enumerate(masks):
            if other | m == m:
                below |= 1 << j
        if below != row:
            return False
    return True


class _Plan:
    """What the exact backends need of P, ranked along a linear extension by ``core._ranked``.

    two_dimension builds one per call, for its width loop and its backend.
    Both backends read start and the strict rows below and above, over
    positions along order, and return one mask per position to embedding().
    """

    def __init__(self, P: Poset):
        n = len(P)
        stats = structure_stats(P)
        order = [P.index(e) for e in stats.linear_extension]
        _, below, above = _ranked(P.down_rows, order)  # strict rows over positions
        chain_above = [0] * n
        for t in reversed(range(n)):
            for s in _bits(below[t]):
                chain_above[s] = max(chain_above[s], chain_above[t] + 1)
        self.P, self.below, self.above = P, below, above
        self.order = tuple(order)  # element index at each position
        # free coordinates the strict up-set of each position needs
        self.need = tuple([max(chain_above[t], above[t].bit_count().bit_length()) for t in range(n)])
        # no smaller width can succeed; every need is at most it, because
        # need's terms are at most the height and bit_length(n - 1)
        self.start = lower_bound(P, stats)

    def embedding(self, width: int, masks: Sequence[int]) -> CubeEmbedding:
        """The embedding of P at width that gives position t the mask masks[t]."""
        P = self.P
        return CubeEmbedding(P, width, {P.elements[i]: masks[t] for t, i in enumerate(self.order)})


def _search_embedding(plan: _Plan) -> Callable[[int], CubeEmbedding | None]:
    """The width search backend: set up once, then answer one width per call.

    The returned function maps a width w to an embedding of P into the
    w-cube, or to None when there is none; above WIDTH_GUARD it raises
    TooWide.  The set-up lists per position the earlier positions it covers
    (``core._lower_covers``), the earlier ones incomparable to it, and the
    first and the previous position (or -1) of its twin class.

    Each width backtracks along the plan's positions.  The mask of a
    point is the union of its covers' masks plus more bits, and must
    differ from every mask so far and be incomparable to the masks of its
    earlier incomparable points.  Three rules cut the candidates:

    - Coordinates are interchangeable until first used, so candidates
      only ever extend the used block at its top: (forced bits) | (some
      subset of the unforced already-used coordinates) | (a run of brand
      new coordinates), which prunes the n! coordinate relabelings to one.
    - Capacity: the strict up-set U of x sits strictly above mask(x),
      inside the sub-cube on the coordinates mask(x) leaves free, so
      those must number at least the longest chain in U and at least
      bit_length(|U|).  That is the plan's need(x), and mask(x) has at
      most width - need(x) bits.
    - Twins (same strict down-set and up-set) are interchangeable.  With
      u the coordinates used before the first twin of a class is placed,
      key(m) = (popcount(m >> u), m & (2^u - 1)) never decreases along
      the class.  Permuting twins fixes everything placed before them,
      and relabeling the coordinates from u on keeps every key, so each
      embedding has a relabeled form that passes both this rule and the
      first one.

    The candidates of a position are found as one bitset over the w-cube,
    bit m standing for mask m: the AND of the up-cones of its covers'
    masks, the masks whose coordinates from the used count u on are a run
    starting at u, those of at most w - need bits, those not yet taken,
    and the complements of the comparability cones of its earlier
    incomparable points' masks.  Its set bits are tried in increasing
    order, each against the twin key, which is the order in which the
    three rules above enumerate them, so the search tree and its answer
    do not depend on the filter.  The tables are built for each width,
    and the cones of each mask once per width; a bitset has 2^w bits,
    which is what WIDTH_GUARD caps.
    """
    below, above, need = plan.below, plan.above, plan.need
    n = len(below)
    covers = tuple(tuple(_bits(lower)) for lower in _lower_covers(below))
    incomparable = tuple(tuple(_bits(((1 << t) - 1) & ~row)) for t, row in enumerate(below))
    first: dict[tuple[int, int], int] = {}
    last: dict[tuple[int, int], int] = {}
    twin_first, twin_prev = [], []
    for t, row in enumerate(below):
        key = (row, above[t])
        twin_first.append(first.setdefault(key, t))
        twin_prev.append(last.get(key, -1))
        last[key] = t

    def embed_at(width: int) -> CubeEmbedding | None:
        if width > WIDTH_GUARD:
            raise TooWide(f"embedding search is capped at width {WIDTH_GUARD}")
        if width < plan.start:
            return None
        full = (1 << (1 << width)) - 1  # every mask of the width-cube
        # at_most[c]: the masks of at most c bits, grown one coordinate i at a time
        at_most = [1] * (width + 1)
        for i in range(width):
            for c in range(width, 0, -1):
                at_most[c] |= at_most[c - 1] << (1 << i)
        # fresh[u]: the masks whose coordinates from u on are a run starting at u
        fresh = []
        for u in range(width + 1):
            block = run = (1 << (1 << u)) - 1  # every mask under 2^u
            for k in range(1, width - u + 1):
                run |= block << (((1 << k) - 1) << u)
            fresh.append(run)
        capped = [at_most[width - k] for k in need]
        cones: dict[int, tuple[int, int]] = {}

        def cone(m: int) -> tuple[int, int]:
            """The masks containing m, and the masks incomparable to m."""
            up, down = 1 << m, 1
            for i in range(width):
                if m >> i & 1:
                    down |= down << (1 << i)
                else:
                    up |= up << (1 << i)
            cones[m] = found = (up, full ^ (up | down))
            return found

        masks = [0] * n  # by position
        ups = [0] * n  # the up-cone of each placed mask
        apart = [0] * n  # the masks incomparable to each placed mask
        used_at = [0] * n  # coordinates in use when each position was placed

        def place(t: int, used: int, untaken: int) -> bool:
            if t == n:
                return True
            allowed = fresh[used] & capped[t] & untaken
            for s in covers[t]:
                allowed &= ups[s]
            for s in incomparable[t]:
                allowed &= apart[s]
            prev = twin_prev[t]
            if prev >= 0:
                u = used_at[twin_first[t]]
                low = (1 << u) - 1
                floor = ((masks[prev] >> u).bit_count(), masks[prev] & low)
            used_at[t] = used
            while allowed:
                bit = allowed & -allowed
                allowed ^= bit
                m = bit.bit_length() - 1
                if prev < 0 or ((m >> u).bit_count(), m & low) >= floor:
                    masks[t] = m
                    ups[t], apart[t] = cones.get(m) or cone(m)
                    top = m.bit_length()
                    if place(t + 1, top if top > used else used, untaken ^ bit):
                        return True
            return False

        return plan.embedding(width, masks) if place(0, 0, full) else None

    return embed_at


def exists_embedding(P: Poset, width: int) -> CubeEmbedding | None:
    """An order embedding of P into the width-cube by the width search (_search_embedding), or None."""
    if width < 0:
        raise OutOfRange("width must be >= 0")
    if width > WIDTH_GUARD:
        raise TooWide(f"embedding search is capped at width {WIDTH_GUARD}")
    if len(P) == 0:
        raise EmptyPoset("the empty space has no embeddings")
    return _search_embedding(_Plan(P))(width)


def _least_embedding(plan: _Plan, embed_at: Callable[[int], CubeEmbedding | None]) -> CubeEmbedding:
    """The first embedding embed_at returns, asking each width once from the plan's start up.

    No width below the start embeds P, so the first width answered is the
    least.  The answer is verified, whichever backend gave it;
    InvalidEmbedding means that check failed.
    """
    for width in range(plan.start, len(plan.P) + 1):
        E = embed_at(width)
        if E is not None:
            if not verify_embedding(E):
                raise InvalidEmbedding("the exact backend did not produce a valid embedding")
            return E
    raise AssertionError("unreachable: the canonical embedding bounds width by |P|")


def _cover_embedding(plan: _Plan, downs: list[int]) -> Callable[[int], CubeEmbedding | None]:
    """The up-set cover backend: set up once, then answer one width per call.

    The returned function maps a width w to an embedding of P into the
    w-cube built from a cover of P's critical pairs by at most w up-sets,
    or to None when there is no such cover.  Points are the plan's
    positions, and its strict rows below and above give the order.

    downs must list every down-set of P as masks over positions
    (``_down_sets(plan.below, range(len(P)))``); the up-sets are their
    complements.  Coordinate k of an embedding into the w-cube picks out
    the up-set U_k of points whose mask has bit k, and mask(x) is a subset
    of mask(y) exactly when every U_k holding x holds y.  So P embeds at
    width w iff w up-sets separate (hold x, miss y) every pair x not<= y
    (Trotter's coordinate view; Habib, Nourine, Raynaud & Thierry 2004).

    Only critical pairs need a separating up-set: x not<= y with the
    strict down-set of x inside down(y) and the strict up-set of y inside
    up(x).  Any other such pair has a z < x with z not<= y, or a v > y
    with x not<= v, and an up-set separating that pair separates (x, y);
    each step shrinks |down(x)| + |up(y)|, so the steps end at a critical
    pair.  An up-set whose critical pairs another one also separates is
    dropped.  All this is found once; each width w then searches for a
    cover by at most w kept up-sets: branch over the up-sets separating
    the uncovered pair that the fewest up-sets separate, and give up on k
    more up-sets when k times the largest cannot reach the uncovered
    count or when more than k uncovered pairs have no separating up-set
    in common (a greedy packing, rarest pair first).  The last up-set is
    not branched on: it must separate every uncovered pair, so
    intersecting the bitmasks (over kept up-sets) of the up-sets
    separating each uncovered pair names one, or proves there is none as
    soon as the intersection is empty.  With k >= 3, a branch is skipped
    when the uncovered pairs its up-set separates are a subset of those
    of a branch that already failed: what it leaves uncovered contains
    what that branch left, which has no cover by k - 1 up-sets.  (At
    k = 2 the child's single intersection costs less than the test.)
    Failed (k, uncovered) states with k >= 2 are remembered across
    widths; the chosen up-sets are not.  Bit k of mask(x) is set iff x
    is in the k-th chosen up-set, and _least_embedding verifies the result.
    """
    below, above = plan.below, plan.above
    n = len(below)
    full = (1 << n) - 1
    # critical[x]: the y with (x, y) critical, that is y above every strict
    # lower point of x, not above x, and strictly below nothing outside up(x)
    critical = []
    sources = target = 0
    for x in range(n):
        row = outside = full & ~(above[x] | 1 << x)
        for z in _bits(below[x]):
            row &= above[z] | 1 << z
        for v in _bits(outside):
            row &= ~below[v]
        critical.append(row)
        if row:
            sources |= 1 << x
            target |= row << x * n  # pair (x, y) is bit x*n + y
    upset_of: dict[int, int] = {}
    for d in downs:
        separated = 0
        for x in _bits(sources & ~d):
            separated |= (d & critical[x]) << x * n
        upset_of.setdefault(separated, full & ~d)
    kept: list[int] = []
    for c in sorted(upset_of, key=int.bit_count, reverse=True):
        if c and not any(c | k == k for k in kept):
            kept.append(c)
    largest = max((c.bit_count() for c in kept), default=0)
    # owners[p]: the kept up-sets separating pair p, as a bitmask over kept
    owners = dict.fromkeys(_bits(target), 0)
    for s, c in enumerate(kept):
        for p in _bits(c):
            owners[p] |= 1 << s
    rarest = sorted(owners, key=lambda p: owners[p].bit_count())
    failed: set[tuple[int, int]] = set()

    def apart(k: int, uncovered: int) -> int:
        """Uncovered pairs no two of which one up-set separates, counted up to k + 1."""
        used = count = 0
        for p in rarest:
            if uncovered >> p & 1 and not owners[p] & used:
                used |= owners[p]
                count += 1
                if count > k:
                    break
        return count

    def cover(k: int, uncovered: int) -> list[int] | None:
        """At most k up-sets that together separate every uncovered pair, or None."""
        if uncovered == 0:
            return []
        if k * largest < uncovered.bit_count():
            return None
        if k == 1:
            # the last up-set must separate every uncovered pair at once
            common = -1
            for p in _bits(uncovered):
                common &= owners[p]
                if not common:
                    return None
            return [upset_of[kept[(common & -common).bit_length() - 1]]]
        if (k, uncovered) in failed or apart(k, uncovered) > k:
            failed.add((k, uncovered))
            return None
        pair = next(p for p in rarest if uncovered >> p & 1)
        tried: list[int] = []
        for s in _bits(owners[pair]):
            c = kept[s]
            mine = c & uncovered
            if k > 2 and any(mine | t == t for t in tried):
                continue
            rest = cover(k - 1, uncovered & ~c)
            if rest is not None:
                return [upset_of[c], *rest]
            tried.append(mine)
        failed.add((k, uncovered))
        return None

    def embed_at(width: int) -> CubeEmbedding | None:
        chosen = cover(width, target)
        if chosen is None:
            return None
        masks = [sum(1 << k for k, U in enumerate(chosen) if U >> t & 1) for t in range(n)]
        return plan.embedding(width, masks)

    return embed_at


def two_dimension(P: Poset, max_size: int = SIZE_GUARD) -> DimCertificate:
    """The exact least embedding width, with a witness at that width.

    One plan of P (_Plan) feeds two exact backends, each set up once and
    then answering one width per call: the up-set cover (_cover_embedding)
    for a poset of at least COVER_MIN_SIZE points with at most COVER_LIMIT
    up-sets, the width search (_search_embedding) for any other.  A down-set
    walk over the plan's strict rows, stopped once it passes COVER_LIMIT,
    counts the up-sets.  One loop (_least_embedding) asks the chosen backend
    width by width from the plan's start, lower_bound(P);
    the first width answered, with its witness verified, is the value.
    Sizes above max_size are refused (both backends are exponential); raise
    the cap explicitly to push further.
    """
    n = len(P)
    if n == 0:
        raise EmptyPoset("the empty space has no 2-dimension")
    if n > max_size:
        raise TooLarge(f"exact 2-dimension is capped at {max_size} elements; pass max_size to override")
    plan = _Plan(P)
    downs = _down_sets(plan.below, range(n), COVER_LIMIT) if n >= COVER_MIN_SIZE else None
    embed_at = _search_embedding(plan) if downs is None else _cover_embedding(plan, downs)
    E = _least_embedding(plan, embed_at)
    return DimCertificate(E.width, E, True)


def _add_beat_point(
    P: Poset, alive: int, w: BeatPointWitness, masks: dict[str, int], width: int
) -> None:
    """Put the beat point w.point back into masks, one coordinate wider.

    masks embeds the points of P in the index mask alive (which excludes
    w.point) at the given width; afterwards it embeds them and w.point at
    width + 1.  For an up beat point with witness y (minimum of the strict
    up-set), w.point reuses y's mask and the new coordinate marks every
    point not below w.point.  A down beat point is handled dually: it
    takes y's mask plus the new coordinate, which also marks every point
    above it.
    """
    new_bit = 1 << width
    i = P.index(w.point)
    if w.kind == "up":
        masks[w.point] = masks[w.witness]
        raised = alive & ~P.down_rows[i]
    else:
        masks[w.point] = masks[w.witness] | new_bit
        raised = alive & P.up_rows[i]
    for j in _bits(raised):
        masks[P.elements[j]] |= new_bit


def extend_embedding_at_beat_point(
    P: Poset, w: BeatPointWitness, E: CubeEmbedding
) -> CubeEmbedding:
    """Turn an embedding of P minus a beat point into one of P, one wider.

    w must be one of beat_points(P), and E a valid embedding of P minus
    w.point; the new coordinate follows the rule of _add_beat_point.
    """
    witnesses = [v for v in beat_points(P) if v.point == w.point]
    if not witnesses:
        raise InvalidWitness(f"{w.point!r} is not a beat point")
    if w not in witnesses:
        raise InvalidWitness(
            f"{w.point!r} is a beat point but not with kind={w.kind!r}, witness={w.witness!r}"
        )
    rest = remove_element(P, w.point)
    if E.poset != rest or not verify_embedding(E):
        raise InvalidEmbedding("the given embedding is not a valid embedding of P minus the point")
    masks = dict(E.masks)
    alive = ((1 << len(P)) - 1) ^ (1 << P.index(w.point))
    _add_beat_point(P, alive, w, masks, E.width)
    return CubeEmbedding(P, E.width + 1, {z: masks[z] for z in P.elements})


def contractible_embedding(P: Poset) -> CubeEmbedding:
    """An embedding built by replaying a deflation to the core in reverse.

    The core is embedded exactly (trivially, at width 0, when P is
    contractible); re-adding the removed beat points costs one coordinate
    each, so a contractible space on n points lands in width n - 1.  The
    replay grows one mask dict over alive masks on P's rows, and the
    result is verified once; InvalidEmbedding means that check failed.
    """
    return _replay_deflation(core(P))


def _replay_deflation(trace: CoreTrace, max_size: int = SIZE_GUARD) -> CubeEmbedding:
    """contractible_embedding(trace.start), replaying a deflation already computed;
    max_size caps the core's exact embedding as in ``two_dimension``."""
    P, base = trace.start, trace.core
    if len(base) == 1:
        width, masks = 0, {base.elements[0]: 0}
    else:
        E = two_dimension(base, max_size).witness
        width, masks = E.width, dict(E.masks)
    alive = sum(1 << P.index(x) for x in base.elements)
    for w in reversed(trace.removals):
        _add_beat_point(P, alive, w, masks, width)
        width += 1
        alive |= 1 << P.index(w.point)
    E = CubeEmbedding(P, width, {z: masks[z] for z in P.elements})
    if not verify_embedding(E):
        raise InvalidEmbedding("the deflation replay did not produce a valid embedding")
    return E
