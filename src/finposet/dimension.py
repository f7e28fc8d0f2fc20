"""Order embeddings into Boolean lattices and the exact 2-dimension.

The 2-dimension of a finite T0 space is the least n such that its
specialization order embeds into the lattice of subsets of an n-set.
Embeddings are stored as one subset mask per element; coordinate i is
bit i, and bitstrings print coordinate 0 first.

Four routes produce certified embeddings.  Two are exact and sit behind
two_dimension, chosen by the number of up-sets: a cover of the critical
pairs by up-sets, and an exhaustive width search (pruned by coordinate
and twin symmetry and by up-set capacity).  Each answers one width,
and two_dimension's one loop asks widths upwards until one is answered.
The canonical characteristic-function embedding has width |P|, and a
deflation replay turns a core computation into an embedding one new
coordinate per removed point.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial

from .core import Poset, StructureStats, _bits, _down_sets, remove_element, structure_stats
from .errors import (
    EmptyPoset,
    InvalidEmbedding,
    InvalidWitness,
    OutOfRange,
    TooLarge,
    TooWide,
)
from .homotopy import BeatPointWitness, CoreTrace, beat_points, core

# exists_embedding packs one subset mask per element into Python ints and
# enumerates sub-blocks; beyond this width the search space is hopeless
# anyway, so refuse early.
WIDTH_GUARD = 30
# Default size cap for the exact 2-dimension.
SIZE_GUARD = 12
# two_dimension solves a poset of at least COVER_MIN_SIZE points and at
# most COVER_LIMIT up-sets as an up-set cover, any other by the width
# search.  Below 6 points the cover's fixed set-up costs more than the
# whole search.  On random posets of 9-12 points with 251-400 up-sets
# the cover took a fifth of the search's time in total; at 401-450 the
# two were close and above that the search won (README, Guards).
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
        m = self.mask_of(x)
        return "".join("1" if m >> i & 1 else "0" for i in range(self.width))


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
    set of elements[i]: bit i of mask(y) is set iff not y <= elements[i].
    """
    n = len(P)
    down = P.down_rows
    masks = {}
    for yi, y in enumerate(P.elements):
        m = 0
        for xi in range(n):
            if not down[xi] >> yi & 1:
                m |= 1 << xi
        masks[y] = m
    return CubeEmbedding(P, n, masks)


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
    """What the exact backends need of P, indexed by position in a linear extension.

    Both backends read order and start.  What only the width search reads
    is built by links() on first use, so the up-set cover never pays for it.
    """

    def __init__(self, P: Poset):
        n = len(P)
        order = [P.index(e) for e in structure_stats(P).linear_extension]
        pos = [0] * n
        for t, i in enumerate(order):
            pos[i] = t
        # strict down- and up-sets as bit rows over positions
        below = [0] * n
        above = [0] * n
        for t, i in enumerate(order):
            for j in _bits(P.down_rows[i] & ~(1 << i)):
                below[t] |= 1 << pos[j]
                above[pos[j]] |= 1 << t
        chain_above = [0] * n
        for t in reversed(range(n)):
            for s in _bits(below[t]):
                chain_above[s] = max(chain_above[s], chain_above[t] + 1)
        self.order = tuple(order)  # element index at each position
        self.below, self.above = below, above
        # free coordinates the strict up-set of each position needs
        self.need = tuple([max(chain_above[t], above[t].bit_count().bit_length()) for t in range(n)])
        # max(ceil(log2 |P|), max need): no smaller width can succeed
        self.start = max((n - 1).bit_length(), max(self.need))
        self._links: tuple | None = None

    def links(self) -> tuple[tuple, tuple, tuple, tuple]:
        """Per position: the earlier positions it covers, the earlier ones
        incomparable to it, and the first and the previous position (or -1)
        of its twin class."""
        if self._links is None:
            below, above = self.below, self.above
            covers, incomparable = [], []
            first: dict[tuple[int, int], int] = {}
            last: dict[tuple[int, int], int] = {}
            twin_first, twin_prev = [], []
            for t, row in enumerate(below):
                lower_covers = row
                for s in _bits(row):
                    lower_covers &= ~below[s]
                covers.append(tuple(_bits(lower_covers)))
                incomparable.append(tuple(_bits(((1 << t) - 1) & ~row)))
                key = (row, above[t])
                twin_first.append(first.setdefault(key, t))
                twin_prev.append(last.get(key, -1))
                last[key] = t
            self._links = (tuple(covers), tuple(incomparable), tuple(twin_first), tuple(twin_prev))
        return self._links


@lru_cache(maxsize=1)
def _plan(P: Poset) -> _Plan:
    """The plan of P, built once and reused by every width tried."""
    return _Plan(P)


def exists_embedding(P: Poset, width: int) -> CubeEmbedding | None:
    """Search for an order embedding of P into the width-cube, or None.

    Backtracks along a linear extension, with a plan of P built once and
    reused by every width: each position's earlier covers and earlier
    incomparable positions, its capacity need and its twin links.  The
    mask of an element is the union of its covers' masks plus more bits,
    and must differ from every mask so far and be incomparable to the
    masks of its earlier incomparable elements.  Three rules cut the
    candidates:

    - Coordinates are interchangeable until first used, so candidates
      only ever extend the used block at its top: (forced bits) | (some
      subset of the unforced already-used coordinates) | (a run of brand
      new coordinates), which prunes the n! coordinate relabelings to one.
    - Capacity: the strict up-set U of x sits strictly above mask(x),
      inside the sub-cube on the coordinates mask(x) leaves free, so
      those must number at least the longest chain in U and at least
      bit_length(|U|).  That is need(x), and mask(x) has at most
      width - need(x) bits.
    - Twins (same strict down-set and up-set) are interchangeable.  With
      u the coordinates used before the first twin of a class is placed,
      key(m) = (popcount(m >> u), m & (2^u - 1)) never decreases along
      the class.  Permuting twins fixes everything placed before them,
      and relabeling the coordinates from u on keeps every key, so each
      embedding has a relabeled form that passes both this rule and the
      first one.
    """
    if width < 0:
        raise OutOfRange("width must be >= 0")
    if width > WIDTH_GUARD:
        raise TooWide(f"embedding search is capped at width {WIDTH_GUARD}")
    n = len(P)
    if n == 0:
        raise EmptyPoset("the empty space has no embeddings")
    if n > (1 << width):
        return None
    plan = _plan(P)
    if width < plan.start:
        return None
    need = plan.need
    covers, incomparable, twin_first, twin_prev = plan.links()
    masks = [0] * n  # by position
    used_at = [0] * n  # coordinates in use when each position was placed
    taken: set[int] = set()

    def place(t: int, used: int) -> bool:
        if t == n:
            return True
        forced = 0
        for s in covers[t]:
            forced |= masks[s]
        room = width - need[t] - forced.bit_count()
        if room < 0:
            return False
        others = [masks[s] for s in incomparable[t]]
        prev = twin_prev[t]
        if prev >= 0:
            u = used_at[twin_first[t]]
            low = (1 << u) - 1
            floor = ((masks[prev] >> u).bit_count(), masks[prev] & low)
        used_at[t] = used
        free = ((1 << used) - 1) & ~forced
        free_bits = free.bit_count()
        spare = width - used
        for t_new in range(room + 1 if room < spare else spare + 1):
            block = ((1 << t_new) - 1) << used
            left = room - t_new
            sub = 0
            while True:
                if left >= free_bits or sub.bit_count() <= left:
                    m = forced | sub | block
                    if m not in taken and (prev < 0 or ((m >> u).bit_count(), m & low) >= floor):
                        for other in others:
                            if m | other == other or m | other == m:
                                break
                        else:
                            masks[t] = m
                            taken.add(m)
                            if place(t + 1, used + t_new):
                                return True
                            taken.discard(m)
                sub = (sub - free) & free
                if sub == 0:
                    break
        return False

    if place(0, 0):
        elements = P.elements
        return CubeEmbedding(P, width, {elements[i]: masks[t] for t, i in enumerate(plan.order)})
    return None


def _least_embedding(P: Poset, embed_at: Callable[[int], CubeEmbedding | None]) -> CubeEmbedding:
    """The first embedding embed_at returns, asking each width once from the plan's start up.

    No width below the start embeds P, so the first width answered is the least.
    """
    for width in range(_plan(P).start, len(P) + 1):
        E = embed_at(width)
        if E is not None:
            return E
    raise AssertionError("unreachable: the canonical embedding bounds width by |P|")


def _cover_embedding(P: Poset, downs: list[int]) -> Callable[[int], CubeEmbedding | None]:
    """The up-set cover backend: set up once, then answer one width per call.

    The returned function maps a width w to an embedding of P into the
    w-cube built from a cover of P's critical pairs by at most w up-sets,
    or to None when there is no such cover.

    downs must list every down-set of P; the up-sets are their
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
    is in the k-th chosen up-set; each embedding is verified, and
    InvalidEmbedding means that check failed.
    """
    n = len(P)
    full = (1 << n) - 1
    down, up = P.down_rows, P.up_rows
    strict_down = [row & ~(1 << i) for i, row in enumerate(down)]
    # critical[x]: the y with (x, y) critical, that is y above every strict
    # lower point of x, not above x, and strictly below nothing outside up(x)
    critical = []
    sources = target = 0
    for x in range(n):
        row = full & ~up[x]
        for z in _bits(strict_down[x]):
            row &= up[z]
        for v in _bits(full & ~up[x]):
            row &= ~strict_down[v]
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
    # the kept up-sets separating each pair, as a list and as a bitmask over kept
    separating: dict[int, list[int]] = {p: [] for p in _bits(target)}
    owners = dict.fromkeys(separating, 0)
    for s, c in enumerate(kept):
        for p in _bits(c):
            separating[p].append(c)
            owners[p] |= 1 << s
    rarest = sorted(separating, key=lambda p: len(separating[p]))
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
        for c in separating[pair]:
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
        masks = {
            e: sum(1 << k for k, U in enumerate(chosen) if U >> i & 1) for i, e in enumerate(P.elements)
        }
        E = CubeEmbedding(P, width, masks)
        if not verify_embedding(E):
            raise InvalidEmbedding("the up-set cover did not produce a valid embedding")
        return E

    return embed_at


def two_dimension(P: Poset, max_size: int = SIZE_GUARD) -> DimCertificate:
    """The exact least embedding width, with a witness at that width.

    Two exact backends each answer one width: the up-set cover
    (_cover_embedding) for a poset of at least COVER_MIN_SIZE points with
    at most COVER_LIMIT up-sets, the width search (exists_embedding) for
    any other.  A down-set walk along the plan's linear extension,
    stopped once it passes COVER_LIMIT, counts the up-sets.  One loop
    (_least_embedding) asks the chosen backend width by width from the
    search plan's start, which is at least lower_bound(P), and the first
    width answered is the value.  Sizes above max_size are refused (both
    backends are exponential); raise the cap explicitly to push further.
    """
    n = len(P)
    if n == 0:
        raise EmptyPoset("the empty space has no 2-dimension")
    if n > max_size:
        raise TooLarge(f"exact 2-dimension is capped at {max_size} elements; pass max_size to override")
    downs = _down_sets(P.down_rows, _plan(P).order, COVER_LIMIT) if n >= COVER_MIN_SIZE else None
    embed_at = partial(exists_embedding, P) if downs is None else _cover_embedding(P, downs)
    E = _least_embedding(P, embed_at)
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
    trace = core(P)
    base = trace.core
    if len(base) == 1:
        width, masks = 0, {base.elements[0]: 0}
    else:
        E = two_dimension(base).witness
        width, masks = E.width, dict(E.masks)
    alive = 0
    for x in base.elements:
        alive |= 1 << P.index(x)
    for w in reversed(trace.removals):
        _add_beat_point(P, alive, w, masks, width)
        width += 1
        alive |= 1 << P.index(w.point)
    E = CubeEmbedding(P, width, {z: masks[z] for z in P.elements})
    if not verify_embedding(E):
        raise InvalidEmbedding("the deflation replay did not produce a valid embedding")
    return E
