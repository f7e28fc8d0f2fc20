"""Test-only reference oracles: slow, obviously correct, no shared logic.

Each oracle follows its definition directly so that the package's fast
routines can be checked against it.
"""

from __future__ import annotations

from itertools import permutations

from finposet import CubeEmbedding, EmptyPoset, OutOfRange, Poset, TooWide
from finposet.dimension import WIDTH_GUARD


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
