"""n-point spaces realizing every admissible 2-dimension, built directly.

For n points the possible values run from ceil(log2 n) (forced by
counting) up to n.  For m < n the space is the subset masks 0, 1, 3,
..., 2^m - 1 (a chain of m + 1 subsets of {0..m-1}) plus the first
n - m - 1 other masks below 2^m, ordered by inclusion:
- its height is m, so d >= m (lower_bound);
- the masks embed it at width m, so d <= m;
- "0" is a minimum, so it is contractible.
For m = n, d(SX) = d(X) + 2 lifts the 2- and 3-point antichains
(d = 2 and 3) by iterated suspension.
"""

from __future__ import annotations

from itertools import islice

from .constructions import antichain, suspension
from .core import Poset
from .errors import OutOfRange


def realize(n: int, m: int) -> Poset:
    """An n-point space with 2-dimension exactly m, contractible for m < n.

    Elements are named by their decimal masks, as in hypercube.
    """
    if n < 2:
        raise OutOfRange("need at least two points")
    if m < (n - 1).bit_length() or m > n:
        raise OutOfRange(f"no {n}-point space has 2-dimension {m}")
    if m == n:
        return suspension(antichain(2 + n % 2), (n - 2) // 2)
    # x & (x + 1) is 0 exactly on the chain masks 2^k - 1
    extra = islice((x for x in range(1 << m) if x & (x + 1)), n - m - 1)
    masks = sorted([(1 << k) - 1 for k in range(m + 1)] + list(extra))
    rows = [sum(1 << j for j, y in enumerate(masks) if y & x == y) for x in masks]
    return Poset([str(x) for x in masks], rows)
