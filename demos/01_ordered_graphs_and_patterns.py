#!/usr/bin/env python3
"""Tour of the ordered-graph data model: exact rational positions, ranks,
spans, maximal edges, and order-preserving pattern search."""

from fractions import Fraction

from ordered_coloring import (
    OrderedGraph,
    build_pattern,
    contains_pattern,
    is_isomorphic,
)
from ordered_coloring.core import _maximal_edges

# An ordered graph is a graph plus an injective rational position per vertex.
# Only the order of the positions matters; halves and thirds are fine.
g = OrderedGraph(
    [("a", 1), ("b", Fraction(3, 2)), ("c", 2), ("d", 4), ("e", 5)],
    [("a", "c"), ("b", "d"), ("c", "d"), ("d", "e")],
)
print("vertices in position order:", g.vertices)
print("neighbors of d:", sorted(g.neighbors("d")))

# Only the order of the positions matters: a vertex's rank is its index in
# that order, and a stretch of the line is a range of ranks.
print("rank of d:", g.rank("d"), " ranks 1 to 3:", g.vertices[1:4])

# A maximal edge is not out-spanned on both sides by another edge. The
# solvers find them in one sweep over the adjacency bitmasks, as rank
# pairs; their left ends increase, and so do their right ends.
mx = _maximal_edges(g.adjacency_bits(), (1 << g.n) - 1)
print("maximal edges:", [(g.vertices[a], g.vertices[b]) for a, b in mx])
# The span of an edge is the rank range from one endpoint to the other.
a, b = mx[0]
print(f"span of {(g.vertices[a], g.vertices[b])}:", g.vertices[a : b + 1])

# Pattern containment is order-preserving and induced: the witness set
# induces exactly the pattern's edges, in the same vertex order.
j15 = build_pattern("J15")  # path 1-2-3 in position order
hit = contains_pattern(g, j15)
print("embedding of the in-order path:", sorted(map(str, hit)))

j9 = build_pattern("J9")  # two disjoint edges, one fully before the other
print("J9 embedding:", contains_pattern(g, j9))

# Reversal flips the position line; freeness is symmetric under it.
print("reverse is J9-free too:", contains_pattern(g.reverse(), j9.reverse()) is None)

# Patterns come from a small named catalog, with padding and reversal.
padded = build_pattern("J16:2,1")
print("J16 padded with 2+1 isolated vertices has", padded.n, "vertices")
print("reversal matches the mirrored catalog entry:",
      is_isomorphic(build_pattern("J16").reverse(), build_pattern("neg:J16")))
