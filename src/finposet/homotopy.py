"""Beat points and cores.

A point is removable up to homotopy when its strict up-set has a minimum
(an up beat point) or its strict down-set has a maximum (a down beat
point).  Removing beat points one at a time until none remain yields the
core; a space is contractible exactly when its core is a single point.

The deflation runs once, over an alive mask on P's own rows, keeping
every point's beat status current.  Bits are ranked along one linear
extension, so a set's only candidate minimum is its lowest bit and its
only candidate maximum its highest: each status test is a constant
number of big-int operations on n-bit rows.  A removal re-tests only the
comparable points whose status it can change (those without a witness
on that side, and those it was the witness of).  Set-up costs one pass
over the comparable pairs.  On a shared 2-vCPU VM ``core(chain(800))``
takes about 0.35 s (0.43 s when the chain is declared in a shuffled
order); rebuilding the poset after every removal took 107 s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import Poset, _bits, _relabel, induced_subposet
from .errors import EmptyPoset

UP, DOWN = 0, 1
_KIND_NAMES = ("up", "down")


@dataclass(frozen=True)
class BeatPointWitness:
    """A beat point together with the comparable point that absorbs it.

    kind is "up" when witness is the minimum of the strict up-set of
    point, "down" when it is the maximum of the strict down-set.
    """

    point: str
    kind: str
    witness: str


@dataclass(frozen=True)
class CoreTrace:
    """A full deflation record: the removals that take start to core."""

    start: Poset
    removals: tuple[BeatPointWitness, ...]
    core: Poset

    @property
    def contractible(self) -> bool:
        """True iff the core is a single point."""
        return len(self.core) == 1


class _Deflation:
    """The beat-point status of every alive point of P, kept current under removals.

    Positions are ranks along a linear extension (sorting by down-set
    size), and ``rows[UP]``/``rows[DOWN]`` hold the up and down rows
    relabeled to rank coordinates by ``core._relabel``.
    ``witness[kind][r]`` is the rank of r's witness or -1, and
    ``witnessed[kind][m]`` the mask of points whose witness is m.
    ``codes`` has bit 2i set when P.elements[i] is an up beat point and
    bit 2i + 1 when it is a down beat point, so its set bits list the
    witnesses in element order, "up" before "down".
    """

    __slots__ = ("P", "order", "rank", "rows", "alive", "witness", "witnessed", "beaten", "codes")

    def __init__(self, P: Poset):
        n = len(P)
        down, up = P.down_rows, P.up_rows
        order = sorted(range(n), key=lambda i: down[i].bit_count())
        rank = [0] * n
        for r, i in enumerate(order):
            rank[i] = r
        self.P = P
        self.order = order
        self.rank = rank
        self.rows = (_relabel(up, rank), _relabel(down, rank))
        self.alive = (1 << n) - 1
        self.witness = ([-1] * n, [-1] * n)
        self.witnessed = ([0] * n, [0] * n)
        self.beaten = [0, 0]
        self.codes = 0
        for r in range(n):
            self._test(UP, r)
            self._test(DOWN, r)

    def _test(self, kind: int, r: int) -> None:
        """Recompute the kind status of the alive point r."""
        row = self.rows[kind]
        strict = (row[r] & self.alive) ^ (1 << r)
        w = -1
        if strict:
            m = (strict & -strict).bit_length() - 1 if kind == UP else strict.bit_length() - 1
            if not strict & ~row[m]:
                w = m
        self._set(kind, r, w)

    def _set(self, kind: int, r: int, w: int) -> None:
        wit = self.witness[kind]
        old = wit[r]
        if w == old:
            return
        bit = 1 << r
        of = self.witnessed[kind]
        if old >= 0:
            of[old] ^= bit
        if w >= 0:
            of[w] |= bit
        wit[r] = w
        if (old < 0) != (w < 0):
            self.beaten[kind] ^= bit
            self.codes ^= 1 << (2 * self.order[r] + kind)

    def witness_of(self, code: int) -> BeatPointWitness:
        """The witness that bit code of ``codes`` stands for."""
        names = self.P.elements
        i, kind = code >> 1, code & 1
        w = self.witness[kind][self.rank[i]]
        return BeatPointWitness(names[i], _KIND_NAMES[kind], names[self.order[w]])

    def remove(self, i: int) -> None:
        """Remove P.elements[i] and re-test the points whose status it can change.

        Below the removed point only up statuses can change, above it only
        down statuses.  A point keeps a witness other than the removed
        point (the witness stays the extreme of a smaller set), so only
        points with no witness on that side, or with the removed point as
        witness, are tested again.
        """
        r = self.rank[i]
        self.alive ^= 1 << r
        self._set(UP, r, -1)
        self._set(DOWN, r, -1)
        for kind in (UP, DOWN):
            other = self.rows[DOWN - kind][r]
            for s in _bits((other & self.alive & ~self.beaten[kind]) | self.witnessed[kind][r]):
                self._test(kind, s)


def _witnesses(d: _Deflation) -> list[BeatPointWitness]:
    """The current beat point witnesses of d, in element order, "up" before "down"."""
    return [d.witness_of(code) for code in _bits(d.codes)]


def beat_points(P: Poset) -> list[BeatPointWitness]:
    """All beat point witnesses, in element order, "up" before "down"."""
    return _witnesses(_Deflation(P))


def _deflate(d: _Deflation, rng: random.Random | None) -> CoreTrace:
    """Remove beat points from d until none remain, and record the removals."""
    P = d.P
    if len(P) == 0:
        raise EmptyPoset("the empty space has no core")
    removals = []
    while d.codes:
        if rng is None:
            code = (d.codes & -d.codes).bit_length() - 1
        else:
            code = rng.choice(list(_bits(d.codes)))
        removals.append(d.witness_of(code))
        d.remove(code >> 1)
    kept = [P.elements[i] for r, i in enumerate(d.order) if d.alive >> r & 1]
    return CoreTrace(P, tuple(removals), induced_subposet(P, kept))


def core(P: Poset, rng: random.Random | None = None) -> CoreTrace:
    """Deflate P by removing one beat point at a time until none remain.

    With rng=None the first witness in element order is removed at each
    step, making the trace deterministic; passing an rng picks uniformly
    among the current witnesses instead.  Either way the final core is
    the same space up to isomorphism.
    """
    return _deflate(_Deflation(P), rng)


def _beat_points_and_core(P: Poset) -> tuple[list[BeatPointWitness], CoreTrace]:
    """beat_points(P) and core(P) from one deflation: the beat points are
    read before the first removal."""
    d = _Deflation(P)
    return _witnesses(d), _deflate(d, None)


def is_contractible(P: Poset) -> bool:
    """True iff the core of P is a single point."""
    return core(P).contractible
