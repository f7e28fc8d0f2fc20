"""Ordinal sums, cones, suspensions, chains, antichains and hypercubes.

The non-Hausdorff cone adds one point above everything; the
non-Hausdorff suspension adds two incomparable points above everything.
Fresh point ids are ``*k``, ``+k`` and ``-k`` with k the smallest
positive integer that keeps them unused, so iterated constructions stay
collision-free without renaming existing points.
"""

from __future__ import annotations

from .core import Poset, disjoint_union
from .errors import OutOfRange, TooLarge

HYPERCUBE_GUARD = 20


def join(P: Poset, Q: Poset) -> Poset:
    """The ordinal sum: P below Q, every P-point under every Q-point.

    Colliding Q ids get primes appended, exactly as in disjoint_union.
    """
    base = disjoint_union(P, Q)
    shift = len(P)
    low = (1 << shift) - 1
    rows = [
        row if i < shift else row | low for i, row in enumerate(base.down_rows)
    ]
    return Poset(base.elements, rows)


def _fresh(P: Poset, prefix: str) -> str:
    k = 1
    while f"{prefix}{k}" in P:
        k += 1
    return f"{prefix}{k}"


def cone(P: Poset) -> Poset:
    """P with one new maximum ``*k`` above everything."""
    apex = _fresh(P, "*")
    names = list(P.elements) + [apex]
    full = (1 << len(names)) - 1
    rows = list(P.down_rows) + [full]
    return Poset(names, rows)


def suspension(P: Poset, folds: int = 1) -> Poset:
    """Apply the non-Hausdorff suspension (two new incomparable tops) folds times.

    folds=0 returns P itself; each fold adds points ``+k`` and ``-k``.
    """
    if folds < 0:
        raise OutOfRange("fold count must be >= 0")
    out = P
    for _ in range(folds):
        k = 1
        while f"+{k}" in out or f"-{k}" in out:
            k += 1
        names = list(out.elements) + [f"+{k}", f"-{k}"]
        n = len(out)
        below = (1 << n) - 1
        rows = list(out.down_rows) + [below | 1 << n, below | 1 << (n + 1)]
        out = Poset(names, rows)
    return out


def chain(n: int) -> Poset:
    """The n-point total order 0 < 1 < ... < n-1."""
    if n < 0:
        raise OutOfRange("size must be >= 0")
    return Poset([str(i) for i in range(n)], [(2 << i) - 1 for i in range(n)])


def antichain(n: int) -> Poset:
    """n points with no comparabilities (the discrete space)."""
    if n < 0:
        raise OutOfRange("size must be >= 0")
    return Poset([str(i) for i in range(n)], [1 << i for i in range(n)])


def hypercube(n: int) -> Poset:
    """The Boolean lattice of subsets of {0..n-1} ordered by containment.

    Elements are the decimal subset masks "0" .. str(2**n - 1).
    """
    if n < 0:
        raise OutOfRange("dimension must be >= 0")
    if n > HYPERCUBE_GUARD:
        raise TooLarge(f"hypercube dimension is capped at {HYPERCUBE_GUARD}")
    size = 1 << n
    names = [str(mask) for mask in range(size)]
    rows = []
    for mask in range(size):
        row = 0
        sub = mask
        while True:
            row |= 1 << sub
            if sub == 0:
                break
            sub = (sub - 1) & mask
        rows.append(row)
    return Poset(names, rows)
