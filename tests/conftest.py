import functools
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest

from ordered_coloring import (
    COLORS,
    Coloring,
    Instance,
    InternalError,
    ListAssignment,
    OrderedGraph,
    PreconditionError,
    RefusalError,
    build_pattern,
    contains_pattern,
    enumerate_colorings,
    has_k4,
    is_isomorphic,
    solve_small_class,
)
from ordered_coloring.core import _ranks, checked_witness
from ordered_coloring.j16 import pad_sets
from ordered_coloring.jw import Member, class_cap
from ordered_coloring.kernels import (
    _TUPLES,
    _TwoSat,
    _mask_at,
    _mcs_peo,
    _propagate_bits,
    _wide,
    boundary_guesses,
)
from ordered_coloring.oracle import DEFAULT_CAP
from ordered_coloring.rand import random_lists, random_ordered_graph

_ONLY = {1: 1, 2: 2, 4: 3}  # singleton mask -> its color
_SETS = tuple(frozenset(c for c in COLORS if m & 1 << (c - 1)) for m in range(8))  # mask -> list


def brute_contains(g: OrderedGraph, h: OrderedGraph):
    """Independent oracle for pattern containment: try every vertex subset."""
    if h.n > g.n:
        return None
    for combo in itertools.combinations(g.vertices, h.n):
        if is_isomorphic(g.induced(combo), h):
            return frozenset(combo)
    return None


def reference_contains_pattern(g: OrderedGraph, h: OrderedGraph) -> Optional[frozenset]:
    """The matcher before forward checking, kept as the reference for the
    differential tests: a witness X with G[X] order-isomorphic to H, or
    None if G is H-free.

    Backtracking anchored on the pattern's edges: edge endpoints are matched
    by iterating host edges inside the position window allowed so far, and
    isolated pattern vertices are filled in last. Exact (induced) adjacency
    against every already-matched vertex is enforced at each step.
    """
    t = h.n
    if t == 0:
        return frozenset()
    if t > g.n:
        return None

    horder = h.vertices
    hpos = {v: i for i, v in enumerate(horder)}
    padj = [[False] * t for _ in range(t)]
    pedges = []
    for e in h.edges:
        a, b = sorted((hpos[x] for x in e))
        padj[a][b] = padj[b][a] = True
        pedges.append((a, b))
    pedges.sort()

    gbits = g.adjacency_bits()
    gorder = g.vertices
    n = g.n
    # host edges as rank pairs, sorted by left rank for windowed iteration
    hedges = sorted(
        tuple(sorted(g.rank(x) for x in e)) for e in g.edges
    )
    hlefts = [a for a, _ in hedges]

    plan = []
    placed = set()
    for a, b in pedges:
        if a not in placed and b not in placed:
            plan.append(("pair", a, b))
        elif a in placed and b not in placed:
            plan.append(("one", a, b))
        elif b in placed and a not in placed:
            plan.append(("one", b, a))
        # both placed: adjacency was enforced when the later one was placed
        placed.add(a)
        placed.add(b)
    for i in range(t):
        if i not in placed:
            plan.append(("free", i))

    assignment: dict[int, int] = {}

    def window(p: int) -> tuple[int, int]:
        lo, hi = -1, n
        for q, r in assignment.items():
            if q < p and r > lo:
                lo = r
            elif q > p and r < hi:
                hi = r
        return lo, hi

    def fits(p: int, r: int) -> bool:
        row = padj[p]
        bits = gbits[r]
        for q, s in assignment.items():
            if (q < p) != (s < r):
                return False
            if row[q] != bool(bits >> s & 1):
                return False
        return True

    def step(si: int) -> bool:
        if si == len(plan):
            return True
        kind = plan[si][0]
        if kind == "pair":
            _, a, b = plan[si]
            lo_a, hi_a = window(a)
            i0 = bisect_right(hlefts, lo_a)
            for idx in range(i0, len(hedges)):
                ra, rb = hedges[idx]
                if ra >= hi_a:
                    break
                if not fits(a, ra):
                    continue
                assignment[a] = ra
                if fits(b, rb):
                    assignment[b] = rb
                    if step(si + 1):
                        return True
                    del assignment[b]
                del assignment[a]
            return False
        if kind == "one":
            _, a, b = plan[si]
            anchor = assignment[a]
            bits = gbits[anchor]
            m = bits
            while m:
                r = (m & -m).bit_length() - 1
                m &= m - 1
                if fits(b, r):
                    assignment[b] = r
                    if step(si + 1):
                        return True
                    del assignment[b]
            return False
        _, p = plan[si]
        lo, hi = window(p)
        for r in range(lo + 1, hi):
            if fits(p, r):
                assignment[p] = r
                if step(si + 1):
                    return True
                del assignment[p]
        return False

    if step(0):
        return frozenset(gorder[r] for r in assignment.values())
    return None


def positions_fuzzed(rng, g: OrderedGraph) -> OrderedGraph:
    """Same order type with fresh random rational positions."""
    n = g.n
    raw = sorted(rng.sample(range(-10 * n, 10 * n), n))
    new_positions = [Fraction(x, rng.randint(1, 3)) for x in raw]
    new_positions.sort()
    if len(set(new_positions)) != n:
        return positions_fuzzed(rng, g)
    return OrderedGraph(
        [(v, new_positions[i]) for i, v in enumerate(g.vertices)],
        [tuple(e) for e in g.edges],
    )


def count_colorings(inst: Instance, cap: int = DEFAULT_CAP) -> int:
    """The number of list colorings of inst, by the oracle's enumeration."""
    return sum(1 for _ in enumerate_colorings(inst, cap=cap))


def reference_forced_colorings(g: OrderedGraph, has, block: int):
    """The member `has` (color bitsets on g) with the ranks in `block`
    forced, once per list coloring of the block, as color bitsets: the
    oracle's enumeration on the block's induced sub-instance, in its
    order. On a block that is a member's whole wide set,
    `j16._chordalize_members` must give the same sequence."""
    vertices = [g.vertices[r] for r in _ranks(block)]
    sub = Instance(
        g.induced(vertices),
        ListAssignment({v: _SETS[_mask_at(has, g.rank(v))] for v in vertices}),
    )
    unforced = [h & ~block for h in has]
    for f in enumerate_colorings(sub, cap=len(vertices)):
        forced = list(unforced)
        for v in vertices:
            forced[f[v] - 1] |= 1 << g.rank(v)
        yield forced


def reference_chordalize_members(inst: Instance, has: tuple, k: int, l: int):
    """Flat boundary padding for `j16._chordalize_members`: every list
    coloring of the block (`j16.pad_sets`) forced whole, in the oracle's
    order (`reference_forced_colorings`), each propagated with the ranks
    outside the wide set done, and the ones in which a list empties
    dropped. Yields the propagated color bitsets in the order of the
    block colorings."""
    g = inst.graph
    bits = g.adjacency_bits()
    wide = _wide(has)
    everyone = (1 << g.n) - 1
    for forced in reference_forced_colorings(g, has, pad_sets(bits, has, k, l)):
        member = _propagate_bits(bits, forced, ~wide)
        if member[0] | member[1] | member[2] == everyone:
            yield member


def reference_color_bits(inst: Instance) -> tuple:
    """`Instance.color_bits` straight from the frozenset lists: per color,
    the mask of the ranks whose list holds it."""
    order = inst.graph.vertices
    return tuple(
        sum(1 << r for r, v in enumerate(order) if c in inst.lists.get(v)) for c in COLORS
    )


def sub_instance(inst: Instance, xs) -> Instance:
    """The order-preserving induced sub-instance on the vertices xs."""
    xs = set(xs)
    lists = ListAssignment({v: cs for v, cs in inst.lists.items() if v in xs})
    return Instance(inst.graph.induced(xs), lists)


def updated_lists(lists: ListAssignment, changes) -> ListAssignment:
    """`lists` with the lists of the vertices in `changes` replaced."""
    return ListAssignment({**dict(lists.items()), **changes})


def color_class(coloring: Coloring, color: int) -> frozenset:
    """The vertices that `coloring` gives `color`."""
    return frozenset(v for v, c in coloring.items() if c == color)


def restrict_coloring(coloring: Coloring, xs) -> Coloring:
    """`coloring` on the vertices of xs only."""
    xs = set(xs)
    return Coloring({v: c for v, c in coloring.items() if v in xs})


def lists_from_bits(order: tuple, has) -> ListAssignment:
    """The color bitsets `has` (see `Instance.color_bits`) as frozenset
    lists keyed by the vertices in `order`."""
    return ListAssignment({v: _SETS[_mask_at(has, r)] for r, v in enumerate(order)})


def propagated(inst: Instance) -> Instance:
    """inst with its lists run through the package's propagation kernel,
    `kernels._propagate_bits`."""
    g = inst.graph
    has = _propagate_bits(g.adjacency_bits(), inst.color_bits)
    return Instance(g, lists_from_bits(g.vertices, has))


def reference_propagation(g, lists) -> dict:
    """Frozenset singleton propagation in rounds: every one-color list
    strikes its color from all its neighbors at once, until nothing
    changes."""
    lists = dict(lists)
    while True:
        singles = {v: c for v, cs in lists.items() if len(cs) == 1 for c in cs}
        new = {
            v: cs - {singles[u] for u in g.neighbors(v) if u in singles}
            for v, cs in lists.items()
        }
        if new == lists:
            return lists
        lists = new


def reference_solve_two_lists(inst: Instance) -> Optional[Coloring]:
    """Independent 2-SAT list coloring for `kernels.solve_two_lists`: the
    frozenset version the package ran before its rank kernel, with the
    edges walked as rank pairs in ascending order. Returns the same
    Coloring, in the same key order, or None."""
    g = inst.graph
    order = g.vertices
    choices = []
    for v in order:
        cs = tuple(sorted(inst.lists.get(v)))
        if len(cs) > 2:
            raise PreconditionError(f"vertex {v!r} has a 3-color list")
        if not cs:
            return None
        choices.append(cs)
    sat = _TwoSat(len(order))

    def lit(i: int, pick: int) -> int:
        # literal asserting vertex i picks entry `pick` of its list
        return 2 * i if pick == 1 else 2 * i + 1

    for i, cs in enumerate(choices):
        if len(cs) == 1:
            neg = lit(i, 1) ^ 1
            sat.add_clause(neg, neg)
    for i, j in sorted(tuple(sorted(g.rank(x) for x in e)) for e in g.edges):
        for a, ca in enumerate(choices[i]):
            for b, cb in enumerate(choices[j]):
                if ca == cb:
                    sat.add_clause(lit(i, a) ^ 1, lit(j, b) ^ 1)
    model = sat.solve()
    if model is None:
        return None
    assignment = {}
    for i, v in enumerate(order):
        cs = choices[i]
        pick = 1 if (model[i] and len(cs) == 2) else 0
        assignment[v] = cs[pick]
    return checked_witness(Coloring(assignment), inst)


def reference_few_wide(inst: Instance) -> Optional[Coloring]:
    """Independent few-full-lists solver for `kernels._few_wide`: every
    coloring of the full-list vertices (by position, colors in product
    order) becomes a new frozenset instance for
    `reference_solve_two_lists`; the first success wins."""
    g = inst.graph
    wide = [v for v in g.vertices if len(inst.lists.get(v)) == 3]
    for combo in itertools.product(COLORS, repeat=len(wide)):
        chosen = dict(zip(wide, combo))
        if any(
            g.has_edge(u, v) and chosen[u] == chosen[v]
            for u, v in itertools.combinations(wide, 2)
        ):
            continue
        new_lists = {}
        for v in g.vertices:
            if v in chosen:
                new_lists[v] = frozenset((chosen[v],))
            else:
                struck = {chosen[w] for w in g.neighbors(v) if w in chosen}
                new_lists[v] = inst.lists.get(v) - struck
        result = reference_solve_two_lists(Instance(g, ListAssignment(new_lists)))
        if result is not None:
            return result
    return None


def reference_solve_small_class(inst: Instance, c: int) -> Optional[Coloring]:
    """Independent small-class solver for `kernels.solve_small_class`:
    for each color i and each stable A within L^(i) with |A| < c, by size
    and then in combination order, a new frozenset instance pins the
    class of i to exactly A for `reference_solve_two_lists`."""
    g = inst.graph
    for i in COLORS:
        candidates = [v for v in g.vertices if i in inst.lists.get(v)]
        for size in range(0, c):
            for combo in _stable(g, candidates, size):
                new_lists = {
                    v: frozenset((i,)) if v in combo else inst.lists.get(v) - {i}
                    for v in g.vertices
                }
                result = reference_solve_two_lists(Instance(g, ListAssignment(new_lists)))
                if result is not None:
                    return result
    return None


def chain_member(inst: Instance) -> Member:
    """The whole instance as a member the seed chain runs on: every rank,
    with its list."""
    g = inst.graph
    return Member(g.adjacency_bits(), inst.color_bits, (1 << g.n) - 1)


def rank_seed(m: Member, support: tuple, colors: tuple) -> tuple:
    """A seed on m's ranks as `jw.gamma` yields it, (classes, near): the
    color classes as rank masks and, per class, its neighbors in m."""
    classes, near = [0, 0, 0], [0, 0, 0]
    for r, c in zip(support, colors):
        classes[c - 1] |= 1 << r
        near[c - 1] |= m.bits[r]
    return tuple(classes), tuple(near)


def seed_coloring(seed) -> dict:
    """A `jw.gamma` seed read off its class masks as {rank: color}, ranks
    ascending: its support and colors."""
    classes, _ = seed
    return dict(sorted((r, c) for c, cls in zip(COLORS, classes) for r in _ranks(cls)))


def reference_gamma(m: Member, e, w: int):
    """Independent seeds for `jw.gamma`, as (classes, near) pairs: the
    supports in the span of the rank pair e that contain both ends, in
    ascending bitmask order over the span's member ranks; per support,
    every proper list coloring from `itertools.product` over the sorted
    lists, in lexicographic order, with no class above `class_cap(w)`."""
    a, b = e
    inner = [r for r in _ranks(m.mask) if a < r < b]
    cap = class_cap(w)
    for sub in range(1 << len(inner)):
        support = sorted([a, b] + [r for i, r in enumerate(inner) if sub >> i & 1])
        for colors in itertools.product(*(sorted(_SETS[_mask_at(m.has, r)]) for r in support)):
            if any(colors.count(c) > cap for c in COLORS):
                continue
            pairs = itertools.combinations(zip(support, colors), 2)
            if any(c == d and m.bits[r] >> s & 1 for (r, c), (s, d) in pairs):
                continue
            yield rank_seed(m, tuple(support), colors)


def rank_instance(m: Member) -> Instance:
    """The member as an `Instance` whose vertex ids and positions are its
    ranks, appended ones included."""
    return _rank_instance(m.bits, m.has, m.mask)


@functools.lru_cache(maxsize=32)
def _rank_instance(bits, has, mask) -> Instance:
    ranks = list(_ranks(mask))
    edges = [(r, s) for r in ranks for s in _ranks(bits[r] & mask & -(2 << r))]
    lists = {r: _SETS[_mask_at(has, r)] for r in ranks}
    return Instance(OrderedGraph([(r, r) for r in ranks], edges), ListAssignment(lists))


def span_and_left(g: OrderedGraph, e) -> tuple:
    """und(e) and lft(e) as rank ranges of g: the vertices from one
    endpoint of e to the other, and those before both."""
    lo, hi = sorted(g.rank(x) for x in e)
    return frozenset(g.vertices[lo : hi + 1]), frozenset(g.vertices[:lo])


def property_x(inst: Instance, phi: Coloring, sigma: dict) -> bool:
    """Compatibility plus joint properness: phi and the seed sigma, a
    {vertex: color} map, agree where they overlap, and their union is a
    proper list coloring of the graph induced on the union of their
    domains."""
    for v in sigma:
        if v in phi and phi[v] != sigma[v]:
            return False
    union = dict(phi.items())
    union.update(sigma)
    g = inst.graph
    for v, c in union.items():
        if c not in inst.lists.get(v):
            return False
        for u in g.neighbors(v):
            if union.get(u) == c:
                return False
    return True


def property_y(inst: Instance, phi: Coloring, sigma: dict, e) -> bool:
    """Compatibility plus left-domination: every vertex left of e seeing
    color i inside the span of e (under phi) also has a neighbor of color
    i in the seed sigma, a {vertex: color} map."""
    for v in sigma:
        if v in phi and phi[v] != sigma[v]:
            return False
    g = inst.graph
    und, lft = span_and_left(g, e)
    classes = {i: frozenset(v for v, c in sigma.items() if c == i) for i in COLORS}
    for x in lft:
        nbrs = g.neighbors(x)
        for y in nbrs:
            if y in und and y in phi:
                i = phi[y]
                if not (nbrs & classes[i]):
                    return False
    return True


def reference_check_link(m: Member, e, e_prev, g_seed, g_prev) -> Optional[dict]:
    """Independent oracle for `jw.check_link`: sweep every list coloring
    psi of the span of e_prev and test both properties against both seeds
    directly, on the member as an instance keyed by ranks. Returns the
    first psi that passes as {rank: color}, ranks ascending, or None.
    Same signature and result, so it can stand in for the link check,
    and a chain run on it glues its witness from these psi."""
    inst = rank_instance(m)
    und_prev, _ = span_and_left(inst.graph, e_prev)
    sub = sub_instance(inst, und_prev)
    for psi in enumerate_colorings(sub, cap=sub.graph.n):
        if link_holds(m, e, e_prev, g_seed, g_prev, psi):
            return dict(psi.items())
    return None


def link_holds(m: Member, e, e_prev, g_seed, g_prev, psi) -> bool:
    """Whether psi, a `Coloring` or {rank: color} of ranks, satisfies
    compatibility and left-domination against both seeds of a link, on m
    as an instance keyed by ranks."""
    inst = rank_instance(m)
    sigma, tau = seed_coloring(g_seed), seed_coloring(g_prev)
    return (
        property_x(inst, psi, sigma)
        and property_y(inst, psi, sigma, e)
        and property_x(inst, psi, tau)
        and property_y(inst, psi, tau, e_prev)
    )


def reference_maximal_edges(bits: tuple, mask: int) -> tuple:
    """Independent mx for `core._maximal_edges`: every edge (a, b), a < b,
    among the ranks in `mask`, that no other such edge (x, y) with
    x <= a and b <= y dominates, sorted by left end."""
    edges = [(a, b) for a in _ranks(mask) for b in _ranks(bits[a] & mask & -(2 << a))]
    return tuple(
        sorted(
            (a, b)
            for a, b in edges
            if not any((x, y) != (a, b) and x <= a and b <= y for x, y in edges)
        )
    )


JW1 = build_pattern("Jw:1")


def band_chain_instance(rng, n: int, obstruct: bool) -> Instance:
    """A band instance that reaches the seed chain: vertices v1..vn at
    positions 1..n, each edge i < j <= i + 2 present with probability
    0.7, 80% full lists. Drawn until the graph is Jw:1-free and K4-free
    and no coloring has a color class smaller than 2, so the choice rests
    on instance properties only. With `obstruct`, the last triangle's
    three lists become {1, 2}, so no coloring exists; such draws repeat
    until the graph has a triangle."""
    names = [f"v{i}" for i in range(1, n + 1)]
    while True:
        edges = [
            (names[i], names[j])
            for i in range(n)
            for j in (i + 1, i + 2)
            if j < n and rng.random() < 0.7
        ]
        g = OrderedGraph([(v, i + 1) for i, v in enumerate(names)], edges)
        lists = random_lists(rng, g, 0.8)
        if obstruct:
            corners = [
                names[i : i + 3]
                for i in range(n - 2)
                if g.has_edge(names[i], names[i + 1])
                and g.has_edge(names[i + 1], names[i + 2])
                and g.has_edge(names[i], names[i + 2])
            ]
            if not corners:
                continue
            lists = updated_lists(lists, {v: frozenset((1, 2)) for v in corners[-1]})
        inst = Instance(g, lists)
        if (
            contains_pattern(g, JW1) is None
            and not has_k4(g)
            and solve_small_class(inst, 2) is None
        ):
            return inst


def fan_instance(m: int) -> Instance:
    """The fan family with m middle vertices, on full lists: the triangle
    p1 p2 p3, then a, x1..xm, b, then the triangle q1 q2 q3, at positions
    1..m + 8, with the edges a-b, a-xi and xi-x(i+1) besides the two
    triangles. It is Jw:1-free and K4-free, and no coloring has a color
    class smaller than 2, so `solve_jw` reaches the seed chain; the guess
    forces both triangles and leaves a, x1..xm, b wide, so (a, b) is one
    maximal edge whose span holds m + 2 wide ranks."""
    xs = [f"x{i}" for i in range(1, m + 1)]
    names = ["p1", "p2", "p3", "a", *xs, "b", "q1", "q2", "q3"]
    edges = [("p1", "p2"), ("p1", "p3"), ("p2", "p3"), ("q1", "q2"), ("q1", "q3"), ("q2", "q3")]
    edges += [("a", "b")] + [("a", x) for x in xs] + list(zip(xs, xs[1:]))
    return Instance.with_full_lists(OrderedGraph([(v, i + 1) for i, v in enumerate(names)], edges))


@dataclass(frozen=True)
class EliminationOrder:
    """A vertex order in which each vertex's later neighbors form a clique."""

    order: tuple


def chordal_peo(g: OrderedGraph) -> Optional[EliminationOrder]:
    """The induced-graph view of `kernels._mcs_peo`: a perfect elimination
    ordering of the whole graph via maximum cardinality search, or None
    when the graph is not chordal. Ties break on position."""
    order = elimination_ranks(_mcs_peo(g.adjacency_bits(), (1 << g.n) - 1))
    if order is None:
        return None
    return EliminationOrder(tuple(g.vertices[r] for r in order))


def elimination_ranks(found) -> Optional[list]:
    """The perfect elimination ordering, as ranks, that a result of
    `kernels._mcs_peo` records (the reverse of its visit order); None
    stays None."""
    return None if found is None else found[0][::-1]


# The chordal finish before maximum cardinality search recorded the
# elimination slots, kept unchanged as the reference of the differential
# tests: `reference_mcs_peo` returns the elimination order itself, and
# `reference_chordal_coloring` rebuilds the slots from it.


def reference_mcs_peo(bits: tuple, mask: int) -> Optional[list]:
    """Maximum cardinality search on the ranks in `mask`, with neighbors
    `bits[r] & mask`: the ranks as a perfect elimination ordering, or None
    when they induce a graph that is not chordal (Tarjan and Yannakakis,
    SIAM J. Comput. 1984).

    `bucket[w]` holds the unnumbered ranks with w numbered neighbors; the
    next rank is the lowest of the highest non-empty bucket, so ties go to
    the lowest position. When v is numbered, its numbered neighbors are
    its later neighbors in the ordering, and the last of them to be
    numbered, p, is the earliest; the others must all be adjacent to p.
    That parent-pointer test holds for every vertex exactly when the
    ordering is perfect. O(n + m) int operations.
    """
    bucket = [mask]
    weight = [0] * len(bits)
    parent = [0] * len(bits)  # rank -> its last-numbered neighbor so far
    reverse_order = []
    numbered = top = 0
    while mask & ~numbered:
        while not bucket[top]:
            top -= 1
        v = (bucket[top] & -bucket[top]).bit_length() - 1
        bucket[top] ^= 1 << v
        nbrs = bits[v] & mask
        later = nbrs & numbered
        if later and later & ~bits[parent[v]] != 1 << parent[v]:
            return None
        reverse_order.append(v)
        numbered |= 1 << v
        fresh = nbrs & ~numbered
        while fresh:
            u = (fresh & -fresh).bit_length() - 1
            fresh ^= 1 << u
            w = weight[u]
            weight[u] = w + 1
            parent[u] = v
            bucket[w] ^= 1 << u
            if w + 1 == len(bucket):
                bucket.append(0)
            bucket[w + 1] |= 1 << u
        top = min(top + 1, len(bucket) - 1)  # weights grow by one at most
    reverse_order.reverse()
    return reverse_order


def reference_chordal_coloring(bits: tuple, mask: int, has) -> Optional[dict]:
    """List coloring of the ranks in `mask`, with neighbors `bits[r] &
    mask` and the colors of the bitsets `has` (see `Instance.color_bits`),
    by bucket elimination along the perfect elimination ordering of
    `reference_mcs_peo`. Returns {rank: color} in reverse elimination order, or
    None when no coloring exists; ranks that induce a graph that is not
    chordal are a precondition error.

    A rank with three later neighbors closes a 4-clique, which has no
    coloring, so every separator has at most two ranks. Each rank keeps,
    per coloring of its later neighbors (the earliest one's color major),
    its first color consistent with the constraints its earlier neighbors
    left on it, and hands the colorings that have one on to its earliest
    later neighbor. Those constraints are bitmasks kept per position of
    the ordering: the colors it may take, bit c for color c, and per
    later neighbor the color pairs it may take with it, bit 4c + c'.
    """
    order = reference_mcs_peo(bits, mask)
    if order is None:
        raise PreconditionError("graph is not chordal")
    lists = [_mask_at(has, r) for r in order]
    if not all(lists):
        return None
    index = {r: i for i, r in enumerate(order)}
    laters = []  # per position: the positions of its later neighbors, ascending
    after = mask  # the ranks after r in the elimination order
    for r in order:
        after ^= 1 << r
        nbrs = bits[r] & after
        if nbrs.bit_count() > 2:
            return None
        laters.append(sorted(index[u] for u in _ranks(nbrs)))

    n = len(order)
    alone = [0b1110] * n  # colors allowed at each position, bit c
    pair = [[0xFFFF, 0xFFFF] for _ in range(n)]  # per later slot, bit 4c + c'
    tables = []  # per position: its color for each coloring of its later neighbors
    for i, later in enumerate(laters):
        free = lists[i] << 1 & alone[i]
        p0, p1 = pair[i]
        heads = _TUPLES[lists[later[0]]] if later else (0,)
        tails = _TUPLES[lists[later[1]]] if len(later) == 2 else (0,)
        rows = {}
        allowed = 0
        for a in heads:
            for b in tails:
                key = 4 * a + b if b else a
                cand = free & ~(1 << a | 1 << b)
                while cand:
                    low = cand & -cand
                    c = low.bit_length() - 1
                    if p0 >> 4 * c + a & 1 and p1 >> 4 * c + b & 1:
                        rows[key] = c
                        allowed |= 1 << key
                        break
                    cand ^= low
        if not rows:
            return None
        tables.append(rows)
        if later and len(rows) < len(heads) * len(tails):
            head = later[0]
            if len(later) == 1:
                alone[head] &= allowed
            else:
                pair[head][laters[head].index(later[1])] &= allowed

    chosen = [0] * n
    assignment: dict = {}
    for i in range(n - 1, -1, -1):
        later = laters[i]
        a = chosen[later[0]] if later else 0
        c = tables[i][4 * a + chosen[later[1]] if len(later) == 2 else a]
        chosen[i] = c
        assignment[order[i]] = c
    return assignment


def is_proper(coloring: Coloring, g: OrderedGraph) -> bool:
    """No edge of g has both ends colored alike, tested per color on the
    graph's adjacency bits; the coloring may be partial."""
    classes = {c: 0 for c in COLORS}
    colored = []
    for r, v in enumerate(g.vertices):
        c = coloring.get(v)
        if c is not None:
            classes[c] |= 1 << r
            colored.append((r, c))
    bits = g.adjacency_bits()
    return not any(bits[r] & classes[c] for r, c in colored)


def respects(coloring: Coloring, lists: ListAssignment) -> bool:
    """Every colored vertex takes a color of its list."""
    return all(c in lists.get(v) for v, c in coloring.items())


def reference_validates(coloring: Coloring, inst: Instance) -> bool:
    """`Coloring.validates` on frozensets and lists, as the package had
    it before the check ran on color bitsets."""
    return (
        coloring.domain() == frozenset(inst.graph.vertices)
        and is_proper(coloring, inst.graph)
        and respects(coloring, inst.lists)
    )


def _stable(g, members, size):
    return [
        combo
        for combo in itertools.combinations(members, size)
        if not any(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2))
    ]


def reference_guesses(inst, first, last, ordered):
    """Every boundary guess, with no pruning: per color, every stable
    first-set and last-set of L^(i) by rank, pairwise disjoint; `ordered`
    demands the first-set end before the last-set starts (the Jw
    enumeration), otherwise the union of the two must be stable (the J16
    enumeration)."""
    g = inst.graph
    holders = {i: [v for v in g.vertices if i in inst.lists.get(v)] for i in COLORS}
    firsts = {i: _stable(g, holders[i], first) for i in COLORS}
    lasts = {i: _stable(g, holders[i], last) for i in COLORS}

    def rec(i, used, xs, ys):
        if i > 3:
            yield tuple(xs), tuple(ys)
            return
        for x in firsts[i]:
            if used & set(x):
                continue
            for y in lasts[i]:
                if (used | set(x)) & set(y):
                    continue
                if ordered and not g.rank(x[-1]) < g.rank(y[0]):
                    continue
                if not ordered and any(g.has_edge(a, b) for a in x for b in y):
                    continue
                yield from rec(i + 1, used | set(x) | set(y), xs + [x], ys + [y])

    yield from rec(1, set(), [], [])


def reference_lists_jw(inst, xs, ys):
    """Force color i on X_i and Y_i; elsewhere keep i only strictly between
    them and away from their neighborhoods."""
    g = inst.graph
    forced = {v: i for i, sets in zip(COLORS, zip(xs, ys)) for s in sets for v in s}
    out = {}
    for v in g.vertices:
        if v in forced:
            out[v] = {forced[v]}
            continue
        out[v] = {
            i
            for i in inst.lists.get(v)
            if g.rank(xs[i - 1][-1]) < g.rank(v) < g.rank(ys[i - 1][0])
            and not any(g.has_edge(v, u) for u in xs[i - 1] + ys[i - 1])
        }
    return ListAssignment(out)


def reference_sigma_members(inst, w):
    """Independent guessing profile for `jw.build_sigma_profile`: every
    six-tuple's forced lists go through `reference_propagation`, the
    one-color vertices are set aside as forced, members are deduplicated
    on (other vertices, their lists), and members with an empty list are
    skipped. Yields (other vertices, their lists, forced)."""
    seen = set()
    g = inst.graph
    for xs, ys in reference_guesses(inst, w, w, ordered=True):
        lists = reference_propagation(g, reference_lists_jw(inst, xs, ys).items())
        forced = {v: c for v in g.vertices if len(lists[v]) == 1 for c in lists[v]}
        kept = tuple(v for v in g.vertices if v not in forced)
        sub = ListAssignment({v: lists[v] for v in kept})
        key = (frozenset(kept), frozenset(sub.items()))
        if key in seen:
            continue
        seen.add(key)
        if all(cs for _, cs in sub.items()):
            yield kept, sub, forced


def reference_solve_chordal(inst: Instance):
    """Independent chordal list coloring for `kernels.solve_chordal`: the
    vertex-keyed bucket elimination the package used before its rank
    kernel, with the clique number taken from the elimination order.
    Returns the same Coloring, in the same key order, or None."""
    g = inst.graph
    peo = chordal_peo(g)
    if peo is None:
        raise PreconditionError("graph is not chordal")
    if any(not inst.lists.get(v) for v in g.vertices):
        return None
    if g.n == 0:
        return Coloring({})
    index = {v: i for i, v in enumerate(peo.order)}
    clique = max(1 + sum(index[u] > index[v] for u in g.neighbors(v)) for v in g.vertices)
    if clique > 3:
        return None
    lists = {v: tuple(sorted(inst.lists.get(v))) for v in g.vertices}
    buckets = {v: [] for v in g.vertices}
    choice_table = {}
    for v in peo.order:
        later = sorted((u for u in g.neighbors(v) if index[u] > index[v]), key=index.__getitem__)
        rows = {}
        total = 1
        for u in later:
            total *= len(lists[u])
        for combo in itertools.product(*(lists[u] for u in later)):
            env = dict(zip(later, combo))
            picks = []
            for c in lists[v]:
                if any(env[u] == c for u in later):
                    continue
                env[v] = c
                if all(
                    tuple(env[u] for u in scope) in allowed for scope, allowed in buckets[v]
                ):
                    picks.append(c)
            env.pop(v, None)
            if picks:
                rows[combo] = picks[0]
        choice_table[v] = (later, rows)
        if not rows:
            return None
        if later and len(rows) < total:
            buckets[later[0]].append((tuple(later), frozenset(rows.keys())))
    assignment = {}
    for v in reversed(peo.order):
        later, rows = choice_table[v]
        assignment[v] = rows[tuple(assignment[u] for u in later)]
    return Coloring(assignment)


def forward_clique_instances(rng, count, empty_share=0.2):
    """`count` chordal instances: forward-clique graphs with 1 to 40
    vertices, so cliques of four occur, and random lists; in about
    `empty_share` of them one list is emptied."""
    from ordered_coloring.rand import random_forward_clique_graph, random_lists

    for _ in range(count):
        g = random_forward_clique_graph(rng, rng.randint(1, 40), rng.random())
        lists = random_lists(rng, g, rng.random())
        if rng.random() < empty_share:
            lists = updated_lists(lists, {rng.choice(g.vertices): frozenset()})
        yield Instance(g, lists)


def reference_fwdnbr_members(inst: Instance, k: int, l: int):
    """Independent narrowing for `j16._fwdnbr_members`: the list version
    the package ran before its bitset one. Each guess of
    `kernels.boundary_guesses` becomes an `Instance` narrowed on frozenset
    lists with `reference_propagation`, and members are deduplicated on
    their lists. Yields the members as instances, in order; a refusal
    raises `RefusalError` with the pattern and witness of the package's.
    A 4-clique is looked for among every four vertices."""
    g = inst.graph
    if any(
        all(g.has_edge(a, b) for a, b in itertools.combinations(four, 2))
        for four in itertools.combinations(g.vertices, 4)
    ):
        return
    seen = set()
    for picks, has in boundary_guesses(inst, k, l):
        a_sets, b_sets = picked_sets(g.vertices, picks)
        narrowed = _reference_narrow(Instance(g, lists_from_bits(g.vertices, has)), a_sets, b_sets)
        if narrowed is None:
            continue
        key = frozenset(narrowed.lists.items())
        if key in seen:
            continue
        seen.add(key)
        wide = sum(1 << g.rank(v) for v in wide_set(narrowed))
        bits = g.adjacency_bits()
        if any((bits[r] & wide & -(2 << r)).bit_count() > 2 for r in _ranks(wide)):
            raise InternalError("narrowed member has forward degree above two on its wide set")
        yield narrowed


def picked_sets(order: tuple, picks: tuple) -> tuple:
    """The picks of a `kernels.boundary_guesses` guess, per color a
    (first-set, last-set) pair of rank tuples, as (first-sets, last-sets)
    of vertex ids in `order`."""
    return tuple(tuple(tuple(order[r] for r in pick[j]) for pick in picks) for j in (0, 1))


def wide_set(inst: Instance) -> list:
    """Vertices whose list still has at least two colors, by position."""
    return [v for v in inst.graph.vertices if len(inst.lists.get(v)) >= 2]


def _reference_narrow(inst: Instance, a_sets: tuple, b_sets: tuple):
    """Narrowing on frozenset lists; each step scans every wide vertex for
    the first with three later wide neighbors."""
    g = inst.graph
    current = inst
    while True:
        if any(not cs for _, cs in current.lists.items()):
            return None
        wide = wide_set(current)
        wide_pos = set(wide)
        v = None
        fwd_nbrs: list = []
        for cand in wide:
            r = g.rank(cand)
            later = g.adjacency_bits()[r] & -(2 << r)
            fwd = [g.vertices[s] for s in _ranks(later) if g.vertices[s] in wide_pos]
            if len(fwd) >= 3:
                v = cand
                fwd_nbrs = sorted(fwd, key=g.rank)
                break
        if v is None:
            return current
        lv = current.lists.get(v)
        pair = next(
            ((a, b) for a, b in itertools.combinations(fwd_nbrs, 2) if not g.has_edge(a, b)), None
        )
        if pair is None:
            raise InternalError("three pairwise-adjacent forward neighbors imply a 4-clique")
        u, w = pair
        common = lv & current.lists.get(u) & current.lists.get(w)
        if common:
            _reference_refuse(a_sets, b_sets, v, u, w, min(common))
        if len(lv) != 2:
            raise InternalError("wide vertex with a full list cannot reach this point")
        lu, lw = current.lists.get(u), current.lists.get(w)
        i, j = sorted(lv)
        m = (set(COLORS) - {i, j}).pop()
        if lu == frozenset((j, m)) and lw == frozenset((i, m)):
            u, w = w, u
            lu, lw = lw, lu
        if not (lu == frozenset((i, m)) and lw == frozenset((j, m))):
            raise InternalError("narrowing reached an impossible list shape")
        x = next(y for y in fwd_nbrs if y not in (u, w))
        lx = current.lists.get(x)
        changes: dict = {}
        if {i, j} <= lx:
            for other, shared in ((u, i), (w, j)):
                if not g.has_edge(other, x):
                    _reference_refuse(a_sets, b_sets, v, other, x, shared)
            changes[u] = frozenset((m,))
            changes[w] = frozenset((m,))
            for y in (g.neighbors(u) | g.neighbors(w)) - {u, w}:
                changes[y] = current.lists.get(y) - {m}
        elif lx == frozenset((i, m)):
            if not g.has_edge(u, x):
                _reference_refuse(a_sets, b_sets, v, u, x, i)
            changes[v] = frozenset((j,))
            for y in g.neighbors(v):
                changes[y] = current.lists.get(y) - {j}
        elif lx == frozenset((j, m)):
            if not g.has_edge(w, x):
                _reference_refuse(a_sets, b_sets, v, w, x, j)
            changes[v] = frozenset((i,))
            for y in g.neighbors(v):
                changes[y] = current.lists.get(y) - {i}
        else:
            raise InternalError(f"unexpected third-neighbor list {sorted(lx)}")
        lists = reference_propagation(g, updated_lists(current.lists, changes).items())
        current = Instance(g, ListAssignment(lists))


def _reference_refuse(a_sets, b_sets, v, u, w, color):
    a, b = a_sets[color - 1], b_sets[color - 1]
    raise RefusalError(f"J16:{len(a)},{len(b)}", set(a) | set(b) | {v, u, w})


def rank_normalized(g: OrderedGraph) -> OrderedGraph:
    """Same order type with positions replaced by ranks 1..n."""
    return OrderedGraph(
        [(v, i + 1) for i, v in enumerate(g.vertices)],
        [tuple(e) for e in g.edges],
    )


def serialize_nae(inst) -> str:
    """The `nae`/`cls` text format that `io.parse_nae` reads."""
    out = [f"nae {inst.num_vars}"]
    for clause in inst.clauses:
        out.append("cls " + " ".join(str(x) for x in clause))
    return "\n".join(out) + "\n"


_TWO_COLOR_LISTS = (frozenset((1, 2)), frozenset((1, 3)), frozenset((2, 3)))


def random_two_list_instance(rng, n: int, edge_prob: float, singleton_bias: float = 0.2) -> Instance:
    """A random ordered graph whose lists have one color (with probability
    `singleton_bias`) or two."""
    g = random_ordered_graph(rng, n, edge_prob)
    lists = {}
    for v in g.vertices:
        if rng.random() < singleton_bias:
            lists[v] = frozenset((rng.randint(1, 3),))
        else:
            lists[v] = rng.choice(_TWO_COLOR_LISTS)
    return Instance(g, ListAssignment(lists))


def small_source_graphs(max_edges: int = 4) -> list:
    """A deterministic corpus of small source graphs for the expanders: one
    representative per isomorphism class with 1..max_edges edges and no
    isolated vertex, plus one padded variant."""
    seen = set()
    out = []
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for m in range(1, max_edges + 1):
            for edges in itertools.combinations(pairs, m):
                used = {x for e in edges for x in e}
                if len(used) != n:
                    continue
                key = _canonical(n, edges)
                if key in seen:
                    continue
                seen.add(key)
                out.append(OrderedGraph([(i, i) for i in range(1, n + 1)], edges))
    with_isolated = OrderedGraph([(i, i) for i in range(1, 4)], [(1, 3)])
    out.append(with_isolated)
    return out


def _canonical(n: int, edges) -> tuple:
    best = None
    for perm in itertools.permutations(range(1, n + 1)):
        relabel = {i + 1: perm[i] for i in range(n)}
        key = tuple(sorted(tuple(sorted((relabel[u], relabel[v]))) for u, v in edges))
        if best is None or key < best:
            best = key
    return (n, best)


def graph(positions, edges=()):
    """Small-graph builder: positions is a dict or list of (id, pos)."""
    items = positions.items() if isinstance(positions, dict) else positions
    return OrderedGraph(items, edges)


def instance(positions, edges=(), lists=None):
    g = graph(positions, edges)
    if lists is None:
        return Instance.with_full_lists(g)
    full = {v: lists.get(v, (1, 2, 3)) for v in g.vertices}
    return Instance(g, ListAssignment(full))


def path_graph(n):
    return graph({i: i for i in range(1, n + 1)}, [(i, i + 1) for i in range(1, n)])


def complete_graph(n):
    return graph(
        {i: i for i in range(1, n + 1)},
        [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)],
    )


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def triangle():
    return complete_graph(3)
