"""
Realizing every admissible 2-dimension on n points
===================================================

An n-point poset always has 2-dimension between ceil(log2 n) and n.
Both ends are tight, and every value in between occurs.  For m < n,
realize(n, m) orders by inclusion the chain of masks 0, 1, 3, ...,
2^m - 1 plus the first other masks below 2^m: its height m forces
d >= m, the masks themselves embed it at width m, and "0" is a minimum,
so it is contractible.  No solver is needed; here two_dimension only
confirms it.  The top value n is reached by suspension ladders instead.
"""

from finposet import (
    format_certificate,
    format_poset,
    is_contractible,
    realize,
    structure_stats,
    two_dimension,
)

n = 6
for m in range((n - 1).bit_length(), n + 1):
    P = realize(n, m)
    height = structure_stats(P).height
    contractible = is_contractible(P)
    kind = "masks" if m < n else "suspension ladder"
    masks = " ".join(P.elements)
    print("n=%d m=%d: %s %s, height %d, contractible %s" % (n, m, kind, masks, height, contractible))
    if m < n:
        assert height == m and contractible
    assert len(P) == n and two_dimension(P).value == m

# The m = 3 witness on 6 points, with its certificate.
P = realize(6, 3)
print()
print(format_poset(P))
print(format_certificate(two_dimension(P)))
