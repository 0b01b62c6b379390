"""Correctness checks that do not use the code under test.

Instances are held here in the benchmark's own form, `Spec`: vertex ids in
position order, edges as pairs of ranks, lists as sets of colors. Every
check below works on that form only, so a defect in the package cannot
hide itself by also breaking the check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

COLORS = (1, 2, 3)


@dataclass(frozen=True)
class Spec:
    """An ordered instance: `ids[r]` is the vertex of rank r, `positions[r]`
    its integer position, `edges` a frozenset of rank pairs (a, b), a < b."""

    ids: tuple
    positions: tuple
    edges: frozenset
    lists: tuple  # frozenset of colors per rank

    @property
    def n(self) -> int:
        return len(self.ids)

    def adjacency(self) -> list:
        adj = [set() for _ in self.ids]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def mirrored(self) -> "Spec":
        """Same vertices and edges with every position negated: the rank
        order reverses."""
        n = self.n
        return Spec(
            ids=tuple(reversed(self.ids)),
            positions=tuple(-p for p in reversed(self.positions)),
            edges=frozenset((n - 1 - b, n - 1 - a) for a, b in self.edges),
            lists=tuple(reversed(self.lists)),
        )


def pattern_jw(w: int) -> tuple:
    """Rank form of the width-w single-edge pattern: 3w+2 vertices, one edge
    from rank w to rank 2w+1, every other vertex isolated."""
    return 3 * w + 2, frozenset({(w, 2 * w + 1)})


def pattern_j16(k: int, l: int) -> tuple:
    """Rank form of the padded two-forward-edge pattern: k isolated
    vertices, a center joined to the next two (nonadjacent) vertices, then
    l isolated vertices."""
    return k + 3 + l, frozenset({(k, k + 1), (k, k + 2)})


def reversed_pattern(pattern: tuple) -> tuple:
    t, edges = pattern
    return t, frozenset((t - 1 - b, t - 1 - a) for a, b in edges)


def induces_pattern(spec: Spec, ranks, pattern: tuple) -> bool:
    """Whether the vertices at `ranks` induce a copy of the pattern whose
    vertex order agrees with the position order."""
    t, pedges = pattern
    chosen = sorted(ranks)
    if len(chosen) != t:
        return False
    induced = frozenset(
        (i, j)
        for i, j in itertools.combinations(range(t), 2)
        if (chosen[i], chosen[j]) in spec.edges
    )
    return induced == pedges


def contains(spec: Spec, pattern: tuple) -> bool:
    """Exhaustive containment test: place the pattern's vertices left to
    right on increasing ranks, backtracking as soon as an adjacency differs."""
    t, pedges = pattern
    adj = spec.adjacency()
    padj = [[(min(i, j), max(i, j)) in pedges for j in range(t)] for i in range(t)]
    chosen: list = []

    def place(start: int) -> bool:
        i = len(chosen)
        if i == t:
            return True
        for r in range(start, spec.n - (t - i) + 1):
            if all((chosen[j] in adj[r]) == padj[i][j] for j in range(i)):
                chosen.append(r)
                if place(r + 1):
                    return True
                chosen.pop()
        return False

    return place(0)


def witness_ranks(spec: Spec, witness) -> list | None:
    """Ranks of the witness vertex ids, or None when some id is foreign or
    repeated."""
    index = {v: r for r, v in enumerate(spec.ids)}
    ranks = [index.get(str(v), index.get(v)) for v in witness]
    if None in ranks or len(set(ranks)) != len(ranks):
        return None
    return ranks


def valid_coloring(spec: Spec, coloring) -> bool:
    """`coloring` maps every vertex id to a color of its list, and no edge
    joins two vertices of one color."""
    colors = []
    for v, cs in zip(spec.ids, spec.lists):
        c = coloring.get(v, coloring.get(str(v)))
        if c not in cs:
            return False
        colors.append(c)
    if len(coloring) != spec.n:
        return False
    return all(colors[a] != colors[b] for a, b in spec.edges)


def has_k4(spec: Spec) -> bool:
    adj = spec.adjacency()
    for a, b in spec.edges:
        common = sorted(adj[a] & adj[b])
        for x, y in itertools.combinations(common, 2):
            if y in adj[x]:
                return True
    return False


def colorable(adj: list, lists: list) -> bool:
    """Plain backtracking list coloring in rank order with forward checking."""
    n = len(lists)
    lists = [set(cs) for cs in lists]
    if any(not cs for cs in lists):
        return False

    def rec(r: int) -> bool:
        if r == n:
            return True
        for c in sorted(lists[r]):
            struck = [u for u in adj[r] if u > r and c in lists[u]]
            if any(len(lists[u]) == 1 for u in struck):
                continue
            for u in struck:
                lists[u].discard(c)
            if rec(r + 1):
                return True
            for u in struck:
                lists[u].add(c)
        return False

    return rec(0)


def has_small_class_coloring(spec: Spec, size: int) -> bool:
    """Whether some list coloring gives some color fewer than `size`
    vertices: pin a stable set A of that color (|A| < size) and strike the
    color everywhere else."""
    adj = spec.adjacency()
    for c in COLORS:
        holders = [r for r in range(spec.n) if c in spec.lists[r]]
        for m in range(size):
            for combo in itertools.combinations(holders, m):
                if any(b in adj[a] for a, b in itertools.combinations(combo, 2)):
                    continue
                pinned = set(combo)
                lists = [
                    {c} if r in pinned else set(spec.lists[r]) - {c} for r in range(spec.n)
                ]
                if colorable(adj, lists):
                    return True
    return False
