"""Families of n-point spaces realizing every admissible 2-dimension.

For n points the possible values run from ceil(log2 n) (forced by
counting) up to n.  A sweep from the low end to n-1 comes from starting
inside a minimal cube and repeatedly trading one old point for a cone
apex: removing a point cannot raise the dimension and coning raises it
by at most one, while the sweep provably ends at a chain.  The top value
n is hit by iterated suspensions of the 2- and 3-point antichains.
"""

from __future__ import annotations

from .constructions import antichain, cone, hypercube, suspension
from .core import Poset, induced_subposet, remove_element
from .dimension import two_dimension
from .errors import OutOfRange

FAMILY_GUARD = 10


def construction_sequence(n: int, guard: int = FAMILY_GUARD) -> list[Poset]:
    """n-point spaces X_1 .. X_n whose 2-dimensions sweep ceil(log2 n) to n-1.

    X_1 is the subposet of the ceil(log2 n)-cube on the bottom n-1 masks
    plus the top, so its dimension meets the counting lower bound.  Each
    later term removes the oldest original point and cones over the rest;
    consecutive dimensions differ by at most +1 and the last term is a
    chain, so every value in between is realized somewhere in the list.
    """
    if n < 2:
        raise OutOfRange("need at least two points")
    if n > guard:
        raise OutOfRange(f"family construction is capped at {guard} points; pass guard to override")
    q = (n - 1).bit_length()
    cube = hypercube(q)
    top = str((1 << q) - 1)
    originals = [str(mask) for mask in range(n - 1)]
    out = [induced_subposet(cube, originals + [top])]
    for u in originals:
        out.append(cone(remove_element(out[-1], u)))
    return out


def realize(n: int, m: int, guard: int = FAMILY_GUARD) -> Poset:
    """An n-point space with 2-dimension exactly m.

    Admissible m run from ceil(log2 n) up to n.  m = n needs iterated
    suspensions: of a 2-point antichain when n is even, of a 3-point one
    when n is odd.  Below that the sweep is scanned with the exact
    solver, so the result for m < n is always contractible.
    """
    if n < 2:
        raise OutOfRange("need at least two points")
    if n > guard:
        raise OutOfRange(f"family construction is capped at {guard} points; pass guard to override")
    low = (n - 1).bit_length()
    if m < low or m > n:
        raise OutOfRange(f"no {n}-point space has 2-dimension {m}")
    if m == n:
        if n % 2 == 0:
            return suspension(antichain(2), (n - 2) // 2)
        return suspension(antichain(3), (n - 3) // 2)
    for P in construction_sequence(n, guard=guard):
        if two_dimension(P, max_size=max(12, n)).value == m:
            return P
    raise AssertionError("unreachable: the sweep passes through every admissible value")
