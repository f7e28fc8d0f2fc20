"""
Exact 2-dimension and certified cube embeddings
================================================

The 2-dimension of a finite poset is the least n such that the poset
embeds into the Boolean lattice of subsets of an n-element set, i.e.
into bitmasks of width n ordered by inclusion.  This script computes
it exactly for a few posets and verifies the embeddings it gets back.
"""

from finposet import (
    build_poset,
    canonical_embedding,
    chain,
    exists_embedding,
    lower_bound,
    two_dimension,
    upper_bound,
    verify_embedding,
)
from finposet.io import format_certificate

P = build_poset("abcd", [("d", "b"), ("d", "c"), ("c", "a")])

# Cheap bounds first: log2 of the size and the height from below, the
# number of points (minus one if contractible) from above.
print("bounds: %d..%d" % (lower_bound(P), upper_bound(P)))

# The canonical embedding uses one coordinate per element; bit i of
# the mask of y is set when y is NOT below the i-th element.  It is
# always valid but usually far too wide.
E = canonical_embedding(P)
print("canonical width:", E.width)
assert verify_embedding(E)

# The exact answer tries widths from the lower bound upwards.  A small
# poset like this one (4 points) is decided width by width by a
# backtracking search that assigns masks along a linear extension;
# posets of 6 or more points with few up-sets are solved instead as a
# cover of their critical pairs by up-sets, one up-set per coordinate.
cert = two_dimension(P)
print()
print(format_certificate(cert))
assert verify_embedding(cert.witness)

# Width 2 really is impossible for this poset: the search proves it.
assert exists_embedding(P, 2) is None
assert exists_embedding(P, 3) is not None

# A chain on n points needs exactly n - 1 bits: the masks are forced
# to form a strictly increasing tower of subsets.
for n in range(1, 6):
    cert = two_dimension(chain(n))
    masks = [cert.witness.mask_of(x) for x in cert.witness.poset.elements]
    print("chain(%d): value %d, masks %s" % (n, cert.value, masks))
    assert cert.value == n - 1
