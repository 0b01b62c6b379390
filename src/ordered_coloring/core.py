"""Ordered graphs with exact rational vertex positions, and the structural
primitives built on them: order-preserving induced subgraphs, spans and
neighborhoods, maximal edges, pattern containment, and padding.

Positions are exact rationals, so that half-offset constructions stay
bit-exact; no floating point enters any comparison. A graph keeps them as
integer keys over a common denominator and builds `fractions.Fraction`
values only on demand: for `position()`, `positions()` and error
messages. All values are immutable after construction and every
operation is a pure function.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import or_
from typing import Iterable, Mapping, Optional

from .errors import InputError, InternalError

COLORS = (1, 2, 3)
_ALL_COLORS = frozenset(COLORS)


def as_position(value) -> Fraction:
    """Coerce ints/Fractions to an exact position; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"positions must be exact rationals, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    raise InputError(f"positions must be exact rationals, got {value!r}")


class OrderedGraph:
    """A finite simple graph together with an injective rational position map.

    Vertex identity is opaque (any hashable); only the position order matters
    for isomorphism and pattern containment.

    Positions are stored as one integer key per vertex over the graph's
    common denominator, the least common multiple of the positions'
    reduced denominators. The keys order and compare like the positions,
    and `Fraction`s are built only when asked for.
    """

    __slots__ = (
        "_keys", "_den", "_order", "_rank", "_adj", "_edges", "_bits", "_reach", "_degrees",
        "_plans",
    )

    def __init__(self, vertices: Iterable[tuple[object, object]], edges: Iterable[tuple] = ()):
        pos: dict = {}
        for vid, p in vertices:
            if vid in pos:
                raise InputError(f"duplicate vertex id {vid!r}")
            pos[vid] = p if type(p) is int else as_position(p)
        den = lcm(*{p.denominator for p in pos.values()})
        self._build({vid: p.numerator * (den // p.denominator) for vid, p in pos.items()}, den, edges)

    @classmethod
    def _trusted(cls, keys: dict, den: int, order: tuple, rank: dict, bits: tuple) -> "OrderedGraph":
        """The graph from parts that its caller has checked, stored as they
        are: `keys` maps each id to its integer position key over the
        common denominator `den`, no two alike; `order` is the ids by
        key, `rank` its inverse; and `bits` the per-rank adjacency
        bitmasks of a simple graph."""
        g = cls.__new__(cls)
        g._store(keys, den, order, rank, bits)
        return g

    @classmethod
    def _from_keys(cls, keys: dict, den: int, edges: Iterable[tuple]) -> "OrderedGraph":
        """The graph on the integer position keys `keys` over the common
        denominator `den` (see the class docstring), checked like the
        public constructor's."""
        g = cls.__new__(cls)
        g._build(keys, den, edges)
        return g

    def _build(self, keys: dict, den: int, edges: Iterable[tuple]):
        if len(set(keys.values())) != len(keys):
            seen_positions: dict = {}
            for vid, key in keys.items():
                if key in seen_positions:
                    raise InputError(
                        f"duplicate position {Fraction(key, den)} for {seen_positions[key]!r} and {vid!r}"
                    )
                seen_positions[key] = vid
        order = tuple(sorted(keys, key=keys.__getitem__))
        rank = {vid: i for i, vid in enumerate(order)}
        bits = [0] * len(order)
        for u, v in edges:
            ru, rv = rank.get(u), rank.get(v)
            if ru is None or rv is None:
                raise InputError(f"edge ({u!r},{v!r}) references unknown vertex")
            if ru == rv:
                raise InputError(f"self-loop at {u!r}")
            if bits[ru] >> rv & 1:
                raise InputError(f"duplicate edge ({u!r},{v!r})")
            bits[ru] |= 1 << rv
            bits[rv] |= 1 << ru
        self._store(keys, den, order, rank, tuple(bits))

    def _store(self, keys: dict, den: int, order: tuple, rank: dict, bits: tuple):
        self._keys = keys
        self._den = den
        self._order = order
        self._rank = rank
        self._bits = bits
        self._adj = None  # vertex -> frozenset of neighbors, built on first use
        self._edges = None
        self._reach = None  # `_reach_tables`, built on first use
        self._degrees = None  # `_degree_masks`, built on first use
        self._plans = None  # `_pattern_plans`, built on first use

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._order)

    @property
    def vertices(self) -> tuple:
        """Vertex ids in position order."""
        return self._order

    @property
    def edges(self) -> frozenset:
        if self._edges is None:
            self._edges = frozenset(frozenset(e) for e in self._edge_pairs())
        return self._edges

    def position(self, v) -> Fraction:
        try:
            return Fraction(self._keys[v], self._den)
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def positions(self) -> Mapping:
        den = self._den
        return {v: Fraction(key, den) for v, key in self._keys.items()}

    def rank(self, v) -> int:
        try:
            return self._rank[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def neighbors(self, v) -> frozenset:
        if self._adj is None:
            order = self._order
            self._adj = {
                u: frozenset(order[r] for r in _ranks(m)) for u, m in zip(order, self._bits)
            }
        try:
            return self._adj[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def has_edge(self, u, v) -> bool:
        return v in self.neighbors(u)

    def has_vertex(self, v) -> bool:
        return v in self._rank

    def adjacency_bits(self) -> tuple:
        """Per-rank adjacency bitmasks (bit j set iff adjacent to rank j)."""
        return self._bits

    def _edge_pairs(self, mask: int = -1):
        """The edges among the ranks in `mask` as (earlier, later) vertex
        pairs, by rank of the earlier end, then of the later."""
        order, bits = self._order, self._bits
        for r in _ranks(mask & ((1 << len(order)) - 1)):
            for s in _ranks(bits[r] & mask & -(2 << r)):
                yield order[r], order[s]

    def __eq__(self, other):
        # the common denominator is the least one, so equal position maps
        # have equal denominators and keys, and give equal rank orders, so
        # the bits compare edges
        return (
            isinstance(other, OrderedGraph)
            and self._den == other._den
            and self._keys == other._keys
            and self._bits == other._bits
        )

    def __hash__(self):
        return hash((self._den, frozenset(self._keys.items()), self._bits))

    def __repr__(self):
        return f"OrderedGraph(n={self.n}, m={sum(map(int.bit_count, self._bits)) // 2})"

    # -- structural operations --------------------------------------------

    def induced(self, xs) -> "OrderedGraph":
        """The order-preserving induced subgraph on vertex set `xs`.

        The kept ranks keep their order, so the subgraph's order is read
        off the parent's with no sort, and each kept rank's adjacency
        bits are remapped to the new ranks."""
        rank = self._rank
        kept = 0
        for v in set(xs):
            r = rank.get(v)
            if r is None:
                raise InputError(f"unknown vertex {v!r}")
            kept |= 1 << r
        ranks = list(_ranks(kept))
        order = tuple(self._order[r] for r in ranks)
        keys, den = _least_denominator({v: self._keys[v] for v in order}, self._den)
        to_new = {r: i for i, r in enumerate(ranks)}
        bits = tuple(sum(1 << to_new[s] for s in _ranks(self._bits[r] & kept)) for r in ranks)
        return OrderedGraph._trusted(keys, den, order, {v: i for i, v in enumerate(order)}, bits)

    def reverse(self) -> "OrderedGraph":
        """Same vertices and edges with every position negated."""
        keys = {v: -key for v, key in self._keys.items()}
        return OrderedGraph._from_keys(keys, self._den, self._edge_pairs())

    def pad(self, k: int, l: int) -> "OrderedGraph":
        """Add k isolated vertices before and l after, at unit gaps."""
        if k < 0 or l < 0:
            raise InputError("pad counts must be nonnegative")
        keys, den = self._keys, self._den
        lo, hi = min(keys.values(), default=0), max(keys.values(), default=0)
        padded = dict(keys)
        for i in range(1, k + 1):
            padded[_fresh_id(keys, f"a{i}")] = lo - (k + 1 - i) * den
        for i in range(1, l + 1):
            padded[_fresh_id(keys, f"b{i}")] = hi + i * den
        return OrderedGraph._from_keys(padded, den, self._edge_pairs())


def _maximal_edges(bits: tuple, mask: int) -> tuple:
    """mx on the ranks in `mask`, with neighbors `bits[r] & mask`: the
    edges (a, b), a < b, that no other edge (x, y) with x <= a and b <= y
    spans, in left-to-right order.

    One sweep: an edge is spanned by the edge from its left end to that
    end's farthest later neighbor, and that edge is maximal exactly when
    the neighbor lies beyond every earlier rank's farthest. So left and
    right ends both increase strictly; a result that breaks this order
    contract is a bug and raises `InternalError`.
    """
    out = []
    reach = -1  # the farthest later neighbor of the ranks swept so far
    for r in _ranks(mask):
        far = (bits[r] & mask).bit_length() - 1
        if far > r and far > reach:
            out.append((r, far))
            reach = far
    for (a1, b1), (a2, b2) in zip(out, out[1:]):
        if not (a1 < a2 and b1 < b2):
            raise InternalError("maximal edges break the order contract")
    return tuple(out)


def _least_denominator(keys: dict, den: int) -> tuple:
    """The position keys `keys` over `den` rewritten over the least common
    denominator of the positions they spell, and that denominator: what a
    subset of a graph's vertices needs to compare like a graph built from
    its positions."""
    least = lcm(*{den // gcd(key, den) for key in keys.values()})
    if least == den:
        return keys, den
    return {v: key // (den // least) for v, key in keys.items()}, least


def _ranks(mask: int):
    """The set bits of a nonnegative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _fresh_id(existing, base: str):
    name = base
    while name in existing:
        name = "_" + name
    return name


def is_isomorphic(g: OrderedGraph, h: OrderedGraph) -> bool:
    """Order-type isomorphism: the unique order-respecting bijection maps
    edges onto edges exactly. It maps rank i to rank i, so that holds
    when the adjacency bit rows are equal."""
    return g.n == h.n and g.adjacency_bits() == h.adjacency_bits()


def contains_pattern(g: OrderedGraph, h: OrderedGraph) -> Optional[frozenset]:
    """A witness X with G[X] order-isomorphic to H, or None if G is H-free.

    The search is `_embed`, run along one of two plans that order the
    pattern vertices; both are built once per pattern (`_pattern_plans`):

    - the fail-first plan decides: the pattern vertex of highest degree
      first, then always the unplaced vertex with the most placed pattern
      neighbors (ties to the higher degree, then to the leftmost), so most
      placements are pinned by an adjacency to a placed vertex; its last
      vertex is one that an early placement pins (see `_pattern_plans`);
    - the canonical plan picks the witness: the endpoints of the pattern's
      edges in sorted edge order, then the isolated pattern vertices.

    Whether an embedding exists does not depend on the order in which the
    search places the pattern vertices, so a fail-first search that finds
    none settles the answer. When it finds one and the plans differ, the
    canonical search runs and its first embedding is the witness. The
    witness is therefore that of a plain backtracking over the canonical
    plan with candidates in ascending rank, whatever the deciding plan.
    The host's tables (the degree rule's, the open-fork rule's mask and
    the two-sided range rule's four), the pair check of `_embed` and the
    plan's ending rule change only which dead branches are cut and how
    fast, so no witness changes with them. For `Jw:w` and every `J16:k,l`
    the two plans coincide, so one search runs. On a host whose reversed
    order is a perfect elimination ordering no rank is open, so the
    center of `J16:k,l` has no candidate and freeness is settled before
    any vertex is placed.
    """
    t = h.n
    if t == 0:
        return frozenset()
    if t > g.n:
        return None
    first, canonical = _pattern_plans(h)
    found = _embed(g, first)
    if found is not None and canonical is not first:
        found = _embed(g, canonical)
    return found


def _pattern_plans(h: OrderedGraph) -> tuple:
    """The fail-first and the canonical plan of a nonempty pattern (see
    `contains_pattern`), built on first use and kept on the pattern; one
    object twice when the two orders agree. A plan is its pattern ranks in
    order, each one's later and earlier pattern degree, and `_embed`'s
    per-step tables.

    Ending rule of the fail-first plan: when its last vertex has pattern
    neighbors but none placed before the second-to-last step, its mask is
    barely narrowed when `_embed`'s pair check probes it. Then the latest
    earlier vertex with a neighbor placed before it moves to the end, so
    the last mask is pinned by an early placement: J13's (2,1,3,0,4)
    becomes (2,1,0,4,3) and J14's (1,2,3,0,4) becomes (1,2,0,4,3). The
    rule leaves every `Jw:w` and `J16:k,l` plan, and J7's, as it is."""
    if h._plans is None:
        pbits, t = h.adjacency_bits(), h.n
        canonical = []
        for a in range(t):
            for b in _ranks(pbits[a] & -(2 << a)):
                canonical += [p for p in (a, b) if p not in canonical]
        canonical += [p for p in range(t) if p not in canonical]
        degree = [bits.bit_count() for bits in pbits]
        first, placed = [], 0
        for _ in range(t):
            p = max(
                (q for q in range(t) if not placed >> q & 1),
                key=lambda q: ((pbits[q] & placed).bit_count(), degree[q], -q),
            )
            first.append(p)
            placed |= 1 << p
        if pbits[first[-1]] and not pbits[first[-1]] & sum(1 << q for q in first[:-2]):
            for i in range(t - 2, -1, -1):
                if pbits[first[i]] & sum(1 << q for q in first[:i]):
                    first.append(first.pop(i))
                    break
        plan = _plan_tables(pbits, canonical)
        h._plans = (plan, plan) if first == canonical else (_plan_tables(pbits, first), plan)
    return h._plans


def _plan_tables(pbits: tuple, order: list) -> tuple:
    """`_embed`'s tables for the pattern vertices placed in `order`."""
    # per vertex: its later and earlier pattern degree, and whether two of
    # its later pattern neighbors are not adjacent (an open fork)
    starts = []
    for p in order:
        later = pbits[p] & -(2 << p)
        fork = any((later ^ 1 << q) & ~pbits[q] for q in _ranks(later))
        starts.append((p, later.bit_count(), (pbits[p] & ((1 << p) - 1)).bit_count(), fork))
    # per step: (adjacent, before) against each later step, the next one
    # apart, since most candidates empty the next step's mask; and the range
    # rule's (later step, q after p) for each unplaced neighbor q
    steps, rules = [], []
    for i, p in enumerate(order[:-1]):
        kinds = [(pbits[p] >> q & 1, q < p) for q in order[i + 1 :]]
        steps.append((kinds[0], kinds[1:]))
        rules.append(
            [(j, q > p) for j, q in enumerate(order[i + 1 :], 1) if pbits[p] >> q & 1] if i else []
        )
    return tuple(order), starts, steps, rules


def _embed(g: OrderedGraph, plan: tuple) -> Optional[frozenset]:
    """The first embedding of the pattern into g along `plan` (from
    `_pattern_plans`), as a set of host vertices, or None.

    Backtracking over the pattern vertices in plan order. Each unplaced
    pattern vertex keeps a bitmask of the host ranks still consistent with
    every placement so far. Placing p at rank r narrows each other mask to
    the ranks adjacent (or not adjacent, as in H) to r and below (or above)
    r, and a branch dies as soon as some mask is empty. Three bound rules
    drop candidates before they are tried:

    - degree rule: a pattern vertex with d later (earlier) pattern
      neighbors starts with only the host ranks that have at least d later
      (earlier) neighbors (`_degree_masks`); its initial mask also leaves
      room for the pattern vertices before and after it;
    - open-fork rule: a pattern vertex with two later pattern neighbors
      that are not adjacent (the fork flag of `_plan_tables`) starts with
      only the open host ranks of `_degree_masks`. A closed rank's later
      neighbors are pairwise adjacent, so no embedding puts such a vertex
      there. When the host's reversed order is a perfect elimination
      ordering no rank is open, the mask is empty and the search returns
      before it places a vertex. Only the later direction is built: the
      mirrored `J16:k,l` is solved on the reversed host;
    - range rule, at every level after the first: for each unplaced
      pattern neighbor q of the vertex being placed, a candidate needs a
      neighbor between the first and the last rank still open to q. Two
      tables of `_reach_tables` test the two ends: when q is later, a
      later neighbor at or before the last open rank and a last neighbor
      at or after the first; when q is earlier, an earlier neighbor at or
      after the first open rank and a first neighbor at or before the
      last. One AND with each.

    At the second-to-last level a pair check comes first: some candidate
    r must have a partner s in the last vertex's mask, or the branch dies
    at once. The test on a pair, adjacent or not and s before or after r,
    reads the same from s (adjacency is symmetric, and s after r is r
    before s), so the check probes whichever mask is smaller; when the
    candidates are the fewer, the ascending loop below is that probe.

    The rules and the pair check only drop ranks that no embedding
    extending the current placements can use, and candidates are tried in
    ascending rank, so the search order and the first embedding are those
    of a plain check-every-placed-vertex backtracking along the same plan:
    the pruning only skips branches that cannot finish.
    """
    order, starts, steps, rules = plan
    t = len(order)
    gbits = g.adjacency_bits()
    later_at_least, earlier_at_least, open_ranks = _degree_masks(g)
    top_later, top_earlier = len(later_at_least), len(earlier_at_least)
    room = (1 << (g.n - t + 1)) - 1
    masks = [
        (room << p)
        & (later_at_least[d] if d < top_later else 0)
        & (earlier_at_least[e] if e < top_earlier else 0)
        & (open_ranks if fork else -1)
        for p, d, e, fork in starts
    ]
    found = [0] * t

    def extend(i: int, masks: list) -> bool:
        m = masks[0]
        if i == t - 1:  # every rank left fits all placed vertices
            found[i] = (m & -m).bit_length() - 1
            return True
        for j, after in rules[i]:
            mq = masks[j]
            lo, hi = (mq & -mq).bit_length() - 1, mq.bit_length() - 1
            if after:
                m &= reach_by[hi] & last_from[lo]
            else:
                m &= reach_from[lo] & first_by[hi]
        (linked, before), others = steps[i]
        nxt, rest = masks[1], masks[2:]
        if i == t - 2 and nxt.bit_count() < m.bit_count():
            # the pair check from the last vertex's side
            probe = nxt
            while probe:
                low = probe & -probe
                probe ^= low
                adj = gbits[low.bit_length() - 1]
                if m & (adj if linked else ~adj) & (-(low << 1) if before else low - 1):
                    break
            else:
                return False
        while m:
            low = m & -m
            m ^= low
            adj = gbits[low.bit_length() - 1]
            below, above = low - 1, -(low << 1)
            first = nxt & (adj if linked else ~adj) & (below if before else above)
            if not first:
                continue
            narrowed = [first]
            for (linked2, before2), mq in zip(others, rest):
                mq &= (adj if linked2 else ~adj) & (below if before2 else above)
                if not mq:
                    break
                narrowed.append(mq)
            else:
                if extend(i + 1, narrowed):
                    found[i] = low.bit_length() - 1
                    return True
        return False

    if not all(masks):
        return None
    reach_by, reach_from, last_from, first_by = _reach_tables(g) if any(rules) else ((),) * 4
    if extend(0, masks):
        return frozenset(g.vertices[r] for r in found)
    return None


def _degree_masks(g: OrderedGraph) -> tuple:
    """The degree rule's two tables for g and the open-fork rule's mask,
    built on first use and kept on the graph: entry d of the first
    (second) table holds the ranks with at least d later (earlier)
    neighbors, for d up to the largest such count (a larger pattern
    degree fits no rank); the mask holds the ranks that are not closed.

    One pass over the ranks, from the last down, puts each rank's bit into
    the bucket of its later and of its earlier neighbor count; a suffix OR
    over each bucket list, as long as the largest count, then makes
    "exactly d" "at least d". The same pass marks the closed ranks: a rank
    is closed when it has fewer than two later neighbors, or when its
    lowest later neighbor p is closed and its other later neighbors all
    lie in p's adjacency (the parent test of `kernels._mcs_peo`). By
    induction down the ranks, a closed rank's later neighbors are pairwise
    adjacent: those of p are, and p is adjacent to the others, which are
    later neighbors of p. When every rank's later neighbors are pairwise
    adjacent (the reversed order is a perfect elimination ordering),
    every rank is closed, so the test is exact there.
    """
    if g._degrees is None:
        bits = g.adjacency_bits()
        later, earlier = [0] * (len(bits) + 1), [0] * (len(bits) + 1)
        top_later = top_earlier = 0
        open_ranks = 0
        for r in range(len(bits) - 1, -1, -1):
            b = bits[r]
            fwd = b & -(2 << r)
            d = fwd.bit_count()
            e = b.bit_count() - d
            later[d] |= 1 << r
            earlier[e] |= 1 << r
            if d > top_later:
                top_later = d
            if e > top_earlier:
                top_earlier = e
            if d > 1:
                low = fwd & -fwd
                if open_ranks & low or (fwd ^ low) & ~bits[low.bit_length() - 1]:
                    open_ranks |= 1 << r
        g._degrees = (_suffix_or(later, top_later), _suffix_or(earlier, top_earlier), open_ranks)
    return g._degrees


def _suffix_or(buckets: list, top: int) -> list:
    """`buckets[:top + 1]` with each entry ORed with every later one."""
    out = buckets[: top + 1]
    for d in range(top - 1, -1, -1):
        out[d] |= out[d + 1]
    return out


def _reach_tables(g: OrderedGraph) -> tuple:
    """The range rule's four tables for g, built in O(n) on first use and
    kept on the graph: `reach_by[j]` holds the ranks r with a later
    neighbor in (r, j], `reach_from[j]` the ranks r with an earlier
    neighbor in [j, r), `last_from[j]` the ranks with a neighbor at or
    after j and `first_by[j]` the ranks with a neighbor at or before j.

    Adjacency is symmetric: r has a neighbor s at or before j exactly when
    r is in the mask of some rank s <= j, and that s is later than r
    exactly when r is in the earlier part of s's mask. So each table is a
    running OR of the adjacency masks, or of their earlier (later) parts,
    from the first rank (from the last) on.
    """
    if g._reach is None:
        bits = g.adjacency_bits()
        earlier = [b & ((1 << s) - 1) for s, b in enumerate(bits)]
        later = [b ^ e for b, e in zip(bits, earlier)]
        g._reach = (
            tuple(accumulate(earlier, or_)),
            tuple(accumulate(reversed(later), or_))[::-1],
            tuple(accumulate(reversed(bits), or_))[::-1],
            tuple(accumulate(bits, or_)),
        )
    return g._reach


class ListAssignment:
    """Per-vertex allowed colors, each a subset of {1,2,3}."""

    __slots__ = ("_lists",)

    def __init__(self, lists: Mapping):
        clean = {}
        for v, colors in lists.items():
            cs = frozenset(colors)
            if not cs <= _ALL_COLORS:
                raise InputError(f"list for {v!r} is not a subset of {{1,2,3}}: {sorted(cs)}")
            clean[v] = cs
        self._lists = clean

    @classmethod
    def _trusted(cls, lists: dict) -> "ListAssignment":
        """The assignment stored as it is: its caller has checked that
        `lists` maps ids to frozensets within {1,2,3}."""
        la = cls.__new__(cls)
        la._lists = lists
        return la

    def get(self, v) -> frozenset:
        try:
            return self._lists[v]
        except KeyError:
            raise InputError(f"no list for vertex {v!r}") from None

    __getitem__ = get

    def items(self):
        return self._lists.items()

    def __eq__(self, other):
        return isinstance(other, ListAssignment) and self._lists == other._lists

    def __hash__(self):
        return hash(frozenset(self._lists.items()))

    def __repr__(self):
        return f"ListAssignment({{{', '.join(f'{v!r}: {sorted(cs)}' for v, cs in sorted(self._lists.items(), key=lambda kv: str(kv[0])))}}})"


class Instance:
    """An ordered graph paired with a list assignment over its vertices.

    `color_bits` holds the lists as three rank bitsets, built once here:
    bit r of `color_bits[i]` is set when the list of the rank-r vertex
    holds color i + 1. The solvers read these; `lists` stays for I/O, the
    oracle and witness validation."""

    __slots__ = ("graph", "lists", "color_bits")

    def __init__(self, graph: OrderedGraph, lists: ListAssignment):
        by_vertex = lists._lists
        has = [0, 0, 0]
        if len(by_vertex) == graph.n:  # then a list for every vertex leaves no extra one
            for r, v in enumerate(graph.vertices):
                colors = by_vertex.get(v)
                if colors is None:
                    break
                for c in colors:
                    has[c - 1] |= 1 << r
            else:
                self.graph = graph
                self.lists = lists
                self.color_bits = tuple(has)
                return
        raise InputError("list assignment domain must equal the vertex set")

    @classmethod
    def _trusted(cls, graph: OrderedGraph, lists: ListAssignment, color_bits: tuple) -> "Instance":
        """The instance stored as it is: its caller has checked that
        `lists` has one list for each vertex of `graph` and that
        `color_bits` holds them (see the class docstring)."""
        inst = cls.__new__(cls)
        inst.graph = graph
        inst.lists = lists
        inst.color_bits = color_bits
        return inst

    @classmethod
    def with_full_lists(cls, graph: OrderedGraph) -> "Instance":
        """Every vertex with the list {1,2,3}; each color bitset holds
        every rank."""
        every = (1 << graph.n) - 1
        lists = ListAssignment._trusted(dict.fromkeys(graph.vertices, _ALL_COLORS))
        return cls._trusted(graph, lists, (every, every, every))

    def __eq__(self, other):
        return (
            isinstance(other, Instance)
            and self.graph == other.graph
            and self.lists == other.lists
        )

    def __hash__(self):
        return hash((self.graph, self.lists))

    def __repr__(self):
        return f"Instance({self.graph!r})"


class Coloring:
    """A (possibly partial) color assignment with an explicit domain."""

    __slots__ = ("_assignment",)

    def __init__(self, assignment: Mapping):
        a = {}
        for v, c in assignment.items():
            if c not in (1, 2, 3):
                raise InputError(f"color for {v!r} must be in {{1,2,3}}, got {c!r}")
            a[v] = c
        self._assignment = a

    def get(self, v):
        return self._assignment.get(v)

    def __getitem__(self, v):
        return self._assignment[v]

    def __contains__(self, v):
        return v in self._assignment

    def domain(self) -> frozenset:
        return frozenset(self._assignment)

    def items(self):
        return self._assignment.items()

    def __len__(self):
        return len(self._assignment)

    def validates(self, inst: Instance) -> bool:
        """Total, proper, and list-respecting for the given instance.

        One pass over the assignment puts each vertex's rank into its
        color's class bitset and its neighbors into that color's
        neighborhood bitset. The coloring is total when it colors as many
        vertices as the graph has and each has a rank there; proper when
        no class meets its neighborhood; and it respects the lists when
        each class lies within its color's bitset of `inst.color_bits`."""
        g = inst.graph
        rank, bits = g._rank, g.adjacency_bits()
        if len(self._assignment) != len(rank):
            return False
        classes, near = [0, 0, 0], [0, 0, 0]
        for v, c in self._assignment.items():
            r = rank.get(v)
            if r is None:
                return False
            classes[c - 1] |= 1 << r
            near[c - 1] |= bits[r]
        return not any(cls & (adj | ~has) for cls, adj, has in zip(classes, near, inst.color_bits))

    def __eq__(self, other):
        return isinstance(other, Coloring) and self._assignment == other._assignment

    def __hash__(self):
        return hash(frozenset(self._assignment.items()))

    def __repr__(self):
        body = ", ".join(f"{v!r}:{c}" for v, c in sorted(self._assignment.items(), key=lambda kv: str(kv[0])))
        return f"Coloring({{{body}}})"


def checked_witness(coloring: Coloring, inst: Instance) -> Coloring:
    """The coloring, once it validates against the instance; a solver
    witness that does not is a bug. An explicit check, so it also runs
    under `python -O`."""
    if not coloring.validates(inst):
        raise InternalError("solver witness failed validation against its instance")
    return coloring
