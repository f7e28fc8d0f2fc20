"""
Building finite posets and counting their open sets
====================================================

A finite poset carries a natural topology: the open sets are exactly
the down-closed subsets.  This script builds a small poset from cover
relations, asks it basic order questions, and counts its opens two
independent ways.
"""

from finposet import build_poset, covers, topology_census
from finposet.io import format_poset, to_dot

# Four points with b > d, c > d and a > c.  Only the covers are given;
# the transitive closure is computed for us.
P = build_poset("abcd", [("d", "b"), ("d", "c"), ("c", "a")])
P.check()

print("elements:", P.elements)
print("d <= a:", P.leq("d", "a"))
print("b <= a:", P.leq("b", "a"))
print("covers:", covers(P))
print("maximal:", P.maximal_elements())
print("minimal:", P.minimal_elements())

# The minimal open set of x is everything below x, the smallest open
# neighbourhood of x in the down-set topology.
for x in P.elements:
    print("U_%s =" % x, sorted(P.down_set(x)))

# Open sets are in bijection with antichains: send an open set to its
# maximal points.  topology_census counts both sides by brute force.
opens, antichains = topology_census(P)
print("open sets:", opens)
print("antichains:", antichains)
assert opens == antichains == 7

# The same poset as a parseable text file and as Graphviz source.
print()
print(format_poset(P))
print(to_dot(P))
