"""Order embeddings into Boolean lattices and the exact 2-dimension.

The 2-dimension of a finite T0 space is the least n such that its
specialization order embeds into the lattice of subsets of an n-set.
Embeddings are stored as one subset mask per element; coordinate i is
bit i, and bitstrings print coordinate 0 first.

Four routes produce certified embeddings.  Two are exact and sit behind
two_dimension, chosen by size and up-set count: an exact colouring of
the critical-pair graph, whose chromatic number is the 2-dimension, the
faster one on posets with few up-sets, and an exhaustive width search
that returns the lexicographically least embedding (keeping each point's
candidate masks as one bitset over the cube, narrowed as earlier points
are placed so that a branch ends as soon as a later point has no
candidate left, and pruned by up-set capacity and by the coordinate and
twin symmetries that keep that embedding), the faster one on the rest.
two_dimension builds one plan of P per call and hands it to its width
loop and to the chosen backend, which is set up once and then answers
one width per call; the loop asks widths upwards and verifies the first
answer.  The search's cube tables depend on the width alone and are kept
for the process, within one byte budget.  The canonical
characteristic-function embedding has width |P|, and a deflation replay
turns a core computation into an embedding one new coordinate per
removed point.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .core import (
    Poset, StructureStats, _bits, _down_sets, _linear_extension, _naturally_labeled, _ranked, remove_element,
    structure_stats,
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

# The width search keeps candidates as bitsets of 2^width bits (128 KiB
# each at width 20; the kept cube tables, up to CUBE_BITS, and along a
# branch up to |P| domains per depth), so two_dimension and
# exists_embedding refuse wider searches.  At the guard,
# exists_embedding(disjoint_union(chain(19), antichain(4)), 20) takes
# about 0.055 s and 64 MB of peak RSS on a 2-vCPU VM.
WIDTH_GUARD = 20
# The bits (8 MiB) that the width search's kept cube tables may hold,
# all widths together (_CubeTables).
CUBE_BITS = 1 << 26
# Default size cap for the exact 2-dimension.
SIZE_GUARD = 12
# two_dimension colours the critical-pair graph of a poset of at least
# COLOUR_MIN_SIZE points and at most COLOUR_LIMIT up-sets, and gives any
# other to the width search.  Each backend forced, the search is the
# faster on the classes of 6 and 7 points and the colouring on those of
# 8; routing the pool at any limit from 150 to 300 costs the same within
# 1.5%, least at 250.  README, Guards, has the figures; both values stay
# until a benchmark run shows that moving one pays.
COLOUR_MIN_SIZE = 6
COLOUR_LIMIT = 250


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
    """What the exact backends need of P, ranked along its least linear extension.

    two_dimension builds one per call, for its width loop and its backend.
    Both backends read start and the strict rows below and above, over
    positions along order, and return one mask per position to embedding().
    The order is structure_stats(P).linear_extension as indices
    (``core._linear_extension``, relabeled by ``core._ranked``); when P is
    naturally labeled that is the index order, and the strict rows are
    P's rows without their own bits.
    """

    def __init__(self, P: Poset):
        rows = P.down_rows
        n = len(rows)
        if _naturally_labeled(rows):
            order: Sequence[int] = range(n)
            below = [row ^ 1 << t for t, row in enumerate(rows)]
        else:
            order = _linear_extension(rows)[1]
            below = _ranked(rows, order)[1]
        # strict rows over positions, and the longest chain above each
        above = [0] * n
        chain_above = [0] * n
        for t in reversed(range(n)):
            bit, longer = 1 << t, chain_above[t] + 1
            for s in _bits(below[t]):
                above[s] |= bit
                if chain_above[s] < longer:
                    chain_above[s] = longer
        self.P, self.below, self.above = P, below, above
        self.order = tuple(order)  # element index at each position
        # free coordinates the strict up-set of each position needs
        self.need = tuple([max(chain_above[t], above[t].bit_count().bit_length()) for t in range(n)])
        # lower_bound(P): no smaller width can succeed; every need is at most
        # it, because need's terms are at most the height and bit_length(n - 1)
        self.start = max((n - 1).bit_length(), max(chain_above, default=0))

    def embedding(self, width: int, masks: Sequence[int]) -> CubeEmbedding:
        """The embedding of P at width that gives position t the mask masks[t]."""
        P = self.P
        return CubeEmbedding(P, width, {P.elements[i]: masks[t] for t, i in enumerate(self.order)})


class _Cube:
    """The width search's tables at one width: at_most[c] holds the masks
    of at most c bits (the capacity table), cones the masks strictly above
    and incomparable to each mask met so far, and segments the masks that
    pass each set of coordinate classes met so far.  No poset enters them."""

    __slots__ = ("width", "full", "at_most", "cones", "segments", "tables")

    def __init__(self, width: int, tables: _CubeTables):
        self.width, self.tables = width, tables
        self.cones: dict[int, tuple[int, int]] = {}
        self.segments: dict[int, int] = {}  # by the starts of the coordinate classes
        tables.count(self, width + 1)
        self.full = (1 << (1 << width)) - 1  # every mask of the width-cube
        # at_most[c], grown one coordinate i at a time
        at_most = [1] * (width + 1)
        for i in range(width):
            for c in range(width, 0, -1):
                at_most[c] |= at_most[c - 1] << (1 << i)
        self.at_most = at_most

    def cone(self, m: int) -> tuple[int, int]:
        """The masks strictly above m, and the masks incomparable to m."""
        self.tables.count(self, 2)
        up, down = 1 << m, 1
        for i in range(self.width):
            if m >> i & 1:
                down |= down << (1 << i)
            else:
                up |= up << (1 << i)
        self.cones[m] = found = (up ^ 1 << m, self.full ^ (up | down))
        return found

    def segment(self, starts: int) -> int:
        """The masks whose bits inside each coordinate class are the class's lowest ones.

        The classes are runs of coordinates, and bit i of starts is set
        when coordinate i is the lowest of its run.  A mask may hold i
        only when i starts a run or the mask holds i - 1.  So, going up
        the coordinates, the allowed masks holding i (top) are the
        allowed masks so far at a start, or those holding i - 1
        otherwise, each with bit i added.
        """
        self.tables.count(self, 1)
        found = top = 1
        for i in range(self.width):
            top = (found if starts >> i & 1 else top) << (1 << i)
            found |= top
        self.segments[starts] = found
        return found


class _CubeTables:
    """The width search's _Cube of each width, kept for the process.

    A cube depends on its width alone, so a kept one never goes stale.
    bits counts every bitset the cubes took since the last drop, and never
    falls below what they hold; one that would pass CUBE_BITS first drops
    every kept table.
    """

    def __init__(self) -> None:
        self.cubes: dict[int, _Cube] = {}
        self.bits = 0

    def cube(self, width: int) -> _Cube:
        cube = self.cubes.get(width)
        if cube is None:
            cube = self.cubes[width] = _Cube(width, self)
        return cube

    def count(self, cube: _Cube, bitsets: int) -> None:
        """Count bitsets more of cube's width, after a drop if they would pass CUBE_BITS.

        cube may belong to a search still running, which goes on filling
        it after a drop, so its cones and segments are emptied in place
        with the others'.
        """
        bits = bitsets << cube.width
        if self.bits + bits > CUBE_BITS:
            for kept in (*self.cubes.values(), cube):
                kept.cones.clear()
                kept.segments.clear()
            self.cubes.clear()
            self.bits = 0
        self.bits += bits


_cube_tables = _CubeTables()


def _search_embedding(plan: _Plan) -> Callable[[int], CubeEmbedding | None]:
    """The width search backend: set up once, then answer one width per call.

    The returned function maps a width w to the lexicographically least
    embedding of P into the w-cube, comparing masks position by position
    along the plan's order (structure_stats(P).linear_extension), or to
    None when there is none; above WIDTH_GUARD it raises TooWide.  The
    set-up notes, for each position, which later positions lie above it
    (every other later one is incomparable to it, since the order is a
    linear extension) and the previous position (or -1) of its twin
    class (same strict down-set and up-set).

    Each width backtracks along the plan's positions and tries each
    position's candidate masks in increasing order, so the first full
    assignment found is the least one that passes the rules below.  An
    embedding gives a point a mask strictly above the masks of the points
    below it and incomparable to the masks of the points incomparable to
    it.  The search keeps these as domains, one candidate bitset per
    position over the w-cube, bit m standing for mask m (forward
    checking; Haralick & Elliott, AI 1980): placing mask m at a position
    keeps, in the domain of each later position, the masks strictly above
    m if that position is above it, and the masks incomparable to m
    otherwise.  Every later position is strictly above or incomparable
    to the placed ones, so its domain holds none of their masks and the
    masks come out distinct.  m is skipped as soon as one of those
    domains is empty, or when together they hold fewer masks than there
    are later positions (a pigeonhole count), because then no embedding
    extends the masks placed so far.  Three more rules cut the search,
    and the least embedding S* passes each of them:

    - Capacity: the strict up-set U of x sits strictly above mask(x),
      inside the sub-cube on the coordinates mask(x) leaves free, so
      those must number at least the longest chain in U and at least
      bit_length(|U|).  That is the plan's need(x), and mask(x) has at
      most width - need(x) bits.  Every embedding passes this, and the
      domains start as these masks.
    - Coordinate classes (lex-leader symmetry breaking; Crawford,
      Ginsberg, Luks & Roy, KR 1996): coordinates that agree on every
      mask placed so far form a class, and permuting coordinates inside
      classes fixes those masks.  A mask is tried only if it is the
      least of its orbit under these permutations, that is if its bits
      inside each class are the class's lowest ones.  Any such
      permutation maps S* to an embedding with the same prefix, so S*'s
      next mask is the least in its orbit.  At first all coordinates
      form one class, and the class of unused coordinates always makes
      new coordinates come as a run above the used ones.  A chosen mask
      m splits each class c into c & m and c & ~m, its lowest
      coordinates and the rest, so every class is a run of coordinates,
      and a class splits exactly where m holds one coordinate but not
      the next.
    - Twins are interchangeable: swapping the masks of two twins gives
      another embedding, so along a twin class S*'s masks increase, and
      a twin's mask is tried only above the previous twin's.

    The candidates of a position are its domain, the segment of the
    coordinate classes (the masks that pass their rule) and the masks
    above its previous twin's.  The classes are passed down as the
    bitmask of their lowest coordinates.  The domains and the pigeonhole
    count only drop masks and branches that no embedding with the placed
    prefix uses, so the order of the candidates and the first full
    assignment, S*, are those of a search that checks each position only
    when it reaches it.  The capacity table, the cones of each mask and
    the segment of each set of classes depend on the width alone: each
    is built once and kept for the process in the width's _Cube, and
    all of them together hold at most CUBE_BITS (_CubeTables).  A bitset
    has 2^w bits, and a branch holds up to |P| of them at each depth,
    which is what WIDTH_GUARD caps.
    """
    below, above, need = plan.below, plan.above, plan.need
    n = len(below)
    # later[t][k]: whether position t + 1 + k is above position t
    later = [[above[t] >> u & 1 for u in range(t + 1, n)] for t in range(n)]
    last: dict[tuple[int, int], int] = {}
    twin_prev = []
    for t, row in enumerate(below):
        key = (row, above[t])
        twin_prev.append(last.get(key, -1))
        last[key] = t

    def embed_at(width: int) -> CubeEmbedding | None:
        if width > WIDTH_GUARD:
            raise TooWide(f"embedding search is capped at width {WIDTH_GUARD}")
        if width < plan.start:
            return None
        cube = _cube_tables.cube(width)
        cones, cone, segments, segment = cube.cones, cube.cone, cube.segments, cube.segment
        masks = [0] * n  # by position

        def place(t: int, starts: int, domains: list[int]) -> bool:
            """Fill positions t.. from their domains; domains[k] is position t + k's."""
            allowed = domains[0] & (segments.get(starts) or segment(starts))
            prev = twin_prev[t]
            if prev >= 0:
                allowed &= -2 << masks[prev]  # the masks above the previous twin's
            rest, is_above = domains[1:], later[t]
            while allowed:
                bit = allowed & -allowed
                allowed ^= bit
                m = bit.bit_length() - 1
                up, apart = cones.get(m) or cone(m)
                kept = []
                union = 0
                for d, a in zip(rest, is_above):
                    d &= up if a else apart
                    if not d:
                        break
                    kept.append(d)
                    union |= d
                else:
                    # the later positions take distinct masks, so their domains must hold enough
                    if union.bit_count() >= len(kept):
                        masks[t] = m
                        # a class splits where m holds one coordinate but not the next
                        if not kept or place(t + 1, starts | m ^ m << 1, kept):
                            return True
            return False

        # one class of all coordinates; bit width marks where a run past the last would start
        domains = [cube.at_most[width - k] for k in need]
        return plan.embedding(width, masks) if place(0, 1 | 1 << width, domains) else None

    return embed_at


def exists_embedding(P: Poset, width: int) -> CubeEmbedding | None:
    """The lexicographically least order embedding of P into the width-cube, or None.

    Masks are compared element by element along
    structure_stats(P).linear_extension; the width search
    (_search_embedding) finds the embedding.
    """
    if width < 0:
        raise OutOfRange("width must be >= 0")
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
    raise AssertionError("unreachable: both backends answer by width |P|")


def _colour_embedding(plan: _Plan) -> Callable[[int], CubeEmbedding | None]:
    """The critical-pair colouring backend: set up once, then answer one width per call.

    The returned function maps a width w to an embedding of P into the
    w-cube, or to None when there is none; it keeps nothing from one
    width to the next, so widths may be asked in any order.  Points are
    the plan's positions.  Coordinate k of an embedding is the up-set U_k
    of points whose mask has bit k, so P embeds at width w iff w up-sets
    separate (hold x, miss y) every pair x not<= y (Trotter's coordinate
    view; Habib, Nourine, Raynaud & Thierry 2004).  Only critical pairs
    need it, found by three subset tests on the plan's rows (down and up
    add the point to below and above): x not in down(y), below(x) inside
    down(y) and above(y) inside up(x).  Any other pair x not<= y has a z < x
    with z not<= y, or a v > y with x not<= v, and an up-set separating
    that pair separates (x, y); each step shrinks |down(x)| + |up(y)|, so
    the steps end at a critical pair.  Critical pairs share a separating
    up-set, the up-closure of their x's, iff no x_a <= y_b among them.
    So P embeds at width w iff the graph G of critical pairs, joined when
    x_a <= y_b or x_b <= y_a, has a w-colouring; colour c becomes
    coordinate c.

    The set-up numbers the critical pairs, builds G as bitmasks and fixes
    a greedy clique, highest degree first, to colours 0..q-1, which
    refutes every width below q at once.  Each width then runs an exact
    DSATUR (Brelaz 1979; San Segundo, Computers & OR 2012) on the other
    pairs: the pair with the most colours among its neighbours (then the
    highest degree) is tried with each colour in use that they leave it,
    then with one new colour, the next index, and a branch ends as soon
    as some pair has all w colours among its neighbours.  The embedding
    need not be the least one that the width search gives.
    """
    below, above = plan.below, plan.above
    n = len(below)
    up = [row | 1 << t for t, row in enumerate(above)]
    down = [row | 1 << t for t, row in enumerate(below)]
    # the critical pairs (x, y), numbered by x then y, by the three subset tests
    pairs = [
        (x, y)
        for x, (strict_down, up_x) in enumerate(zip(below, up))
        for y, (down_y, strict_up) in enumerate(zip(down, above))
        if not down_y >> x & 1 and strict_down | down_y == down_y and strict_up | up_x == up_x
    ]
    m = len(pairs)
    # the pairs whose x lies at or below each point and those whose y lies
    # at or above it: each point's own, then passed along each s < t
    x_at_or_below, y_at_or_above = [0] * n, [0] * n
    for p, (x, y) in enumerate(pairs):
        x_at_or_below[x] |= 1 << p
        y_at_or_above[y] |= 1 << p
    for t in range(n):
        for s in _bits(below[t]):
            x_at_or_below[t] |= x_at_or_below[s]
            y_at_or_above[s] |= y_at_or_above[t]
    # pair p meets the pairs whose x lies at or below p's y, and those whose y lies at or above p's x
    meets = [x_at_or_below[y] | y_at_or_above[x] for x, y in pairs]
    degree = [a.bit_count() for a in meets]
    clique: list[int] = []
    common = (1 << m) - 1
    for p in sorted(range(m), key=degree.__getitem__, reverse=True):
        if common >> p & 1:
            clique.append(p)
            common &= meets[p]
    adjacent = [[q for q in range(m) if a >> q & 1] for a in meets]
    # with the clique coloured: each pair's colour, the colours among its
    # neighbours, and its rank (that colour count, then its degree)
    step = m + 1
    seeded_colour, seeded_blocked, seeded_rank = [0] * m, [0] * m, degree[:]
    for c, p in enumerate(clique):
        seeded_colour[p] = c
        for r in adjacent[p]:
            seeded_blocked[r] |= 1 << c
            seeded_rank[r] += step
    rest = sorted(set(range(m)).difference(clique))

    def embed_at(width: int) -> CubeEmbedding | None:
        if width < len(clique):
            return None
        every = (1 << width) - 1
        colour, blocked, rank = seeded_colour[:], seeded_blocked[:], seeded_rank[:]

        def extend(left: list[int], used: int) -> bool:
            """Colour the pairs in left, with colours 0..used-1 taken so far."""
            if not left:
                return True
            p = max(left, key=rank.__getitem__)
            later = [r for r in left if r != p]
            # the colours in use that p's neighbours leave it, then one new colour
            for c in _bits(~blocked[p] & ((1 << min(used + 1, width)) - 1)):
                bit = 1 << c
                # a coloured neighbour never has p's colour c, so it never gets all w either
                touched = [r for r in adjacent[p] if not blocked[r] & bit]
                for r in touched:
                    blocked[r] |= bit
                    rank[r] += step
                if all(blocked[r] != every for r in touched) and extend(later, max(used, c + 1)):
                    colour[p] = c
                    return True
                for r in touched:
                    blocked[r] ^= bit
                    rank[r] -= step
            return False

        if not extend(rest, len(clique)):
            return None
        # coordinate c: the up-closure of the x's of colour c
        upsets = [0] * width
        for (x, _), c in zip(pairs, colour):
            upsets[c] |= up[x]
        return plan.embedding(width, [sum(1 << c for c, U in enumerate(upsets) if U >> t & 1) for t in range(n)])

    return embed_at


def two_dimension(P: Poset, max_size: int = SIZE_GUARD) -> DimCertificate:
    """The exact least embedding width, with a witness at that width.

    One plan of P (_Plan) feeds two exact backends, each set up once and
    then answering one width per call: the colouring of the critical-pair
    graph (_colour_embedding) for a poset of at least COLOUR_MIN_SIZE
    points with at most COLOUR_LIMIT up-sets, the width search
    (_search_embedding) for any other.  A down-set walk over the plan's
    strict rows, stopped once it passes COLOUR_LIMIT, counts the up-sets
    and only routes.  One loop (_least_embedding) asks the chosen backend
    width by width from the plan's start, lower_bound(P), up to |P| at
    most: the canonical embedding has width |P|, and the critical pairs
    grouped by their y colour the graph with at most |P| colours, since no
    x_a <= y holds inside a group.  The first width answered, with its
    witness verified, is the value; the witness is the lexicographically
    least embedding only when the width search gave it.
    Sizes above max_size are refused (both backends are exponential); raise
    the cap explicitly to push further.
    """
    n = len(P)
    if n == 0:
        raise EmptyPoset("the empty space has no 2-dimension")
    if n > max_size:
        raise TooLarge(f"exact 2-dimension is capped at {max_size} elements; pass max_size to override")
    plan = _Plan(P)
    colour = n >= COLOUR_MIN_SIZE and _down_sets(plan.below, range(n), COLOUR_LIMIT) is not None
    embed_at = _colour_embedding(plan) if colour else _search_embedding(plan)
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


def contractible_embedding(
    P: Poset, max_size: int = SIZE_GUARD, trace: CoreTrace | None = None
) -> CubeEmbedding:
    """An embedding built by replaying a deflation to the core in reverse.

    The core is embedded exactly (trivially, at width 0, when P is
    contractible), by two_dimension under max_size; re-adding the removed
    beat points costs one coordinate each, so a contractible space on n
    points lands in width n - 1.  The replay grows one mask dict over
    alive masks on P's rows, and the result is verified once;
    InvalidEmbedding means that check failed.  A caller that already
    holds core(P) passes it as trace, so that P is deflated only once.
    """
    if trace is None:
        trace = core(P)
    base = trace.core
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
