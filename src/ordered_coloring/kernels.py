"""Polynomial subroutines shared by both main solvers: the boundary
guessing engine, singleton propagation, the enumerator of list colorings
of constant-size rank sets, 2-SAT list coloring, the few-full-lists
finish, the small-class solver, clique-4 detection, chordality, and
chordal list coloring."""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .core import COLORS, Coloring, Instance, OrderedGraph, _degree_masks, _ranks, checked_witness
from .errors import PreconditionError

_TUPLES = tuple(tuple(c for c in COLORS if m >> c - 1 & 1) for m in range(8))  # mask -> its colors, ascending


def _mask_at(has, r: int) -> int:
    """The 3-bit color mask of rank r."""
    return (has[0] >> r & 1) | (has[1] >> r & 1) << 1 | (has[2] >> r & 1) << 2


def _wide(has) -> int:
    """The wide set of a member given as color bitsets (see
    `Instance.color_bits`): the ranks whose list keeps two or three
    colors, as a rank bitmask."""
    h0, h1, h2 = has
    return h0 & h1 | h0 & h2 | h1 & h2


def boundary_guesses(inst: Instance, first: int, last: int) -> Iterator[tuple]:
    """The guessing engine of both solvers: `jw.build_sigma_profile` runs
    it with (first, last) = (w, w), `j16._fwdnbr_members` with (k, l).

    For colors 1, 2, 3 in turn it picks a first-set of size `first` and a
    last-set of size `last` among the stable subsets of L^(i) (combinations
    by rank), disjoint from the sets already picked, the first-set wholly
    before the last-set and their union stable. Placing the color forces
    both sets to it; any other vertex keeps it only strictly between the
    two sets and when adjacent to neither. An empty set leaves its side of
    the window open. Lists live as one rank bitset per color. Each color
    is placed by one `_place` stage, which extends the partial guesses of
    the stage before. Once all three colors are placed, `_propagate_bits`
    propagates the forced lists, and the guess is dropped when some rank
    is left with no color.

    Yields (picks, propagated bitsets): `picks` holds per color its
    (first-set, last-set) pair as ascending rank tuples, in color-major
    order, then by first-set, then by last-set.

    A branch is cut before its last color as soon as some vertex is left
    with no color, and a first-set as soon as no last-set can avoid that.
    Every such guess would be dropped after propagation anyway: a vertex
    without colors is an empty list already; a last-set vertex at or
    before the first-set's end loses the color it is forced to; and of two
    adjacent vertices forced to one color, propagation empties one. So the
    guesses yielded are exactly those whose propagated lists are all
    non-empty, which is what both solvers keep.
    """
    g = inst.graph
    n = g.n
    adj = g.adjacency_bits()
    everyone = (1 << n) - 1
    has0 = inst.color_bits
    if has0[0] | has0[1] | has0[2] != everyone:
        return

    firsts = [list(_stable_sets(adj, has, first)) for has in has0]
    lasts = firsts if last == first else [list(_stable_sets(adj, has, last)) for has in has0]
    guesses = iter(((has0, 0, ()),))
    for i in range(3):
        guesses = _place(guesses, i, firsts[i], lasts[i], n)
    for has, _, picks in guesses:
        has = _propagate_bits(adj, has)
        if has[0] | has[1] | has[2] == everyone:
            yield picks, has


def _place(guesses: Iterator[tuple], i: int, firsts: list, lasts: list, n: int) -> Iterator[tuple]:
    """One stage of `boundary_guesses`: each partial guess (bitsets, used
    ranks, picked (first-set, last-set) pairs) extended by every pair of
    color i that `firsts` and `lasts` (`_stable_sets` entries) allow, in
    that order, and dropped where some rank is left with no color."""
    everyone = (1 << n) - 1
    for has, used, picks in guesses:
        others = has[(i + 1) % 3] | has[(i + 2) % 3]
        for f, f_bits, f_nbrs in firsts:
            if f_bits & used:
                continue
            lo = f[-1] if f else -1
            upto_lo = (1 << (lo + 1)) - 1
            # whatever the last-set, color i stays at most on the first-set
            # and on the ranks after it that are not its neighbors
            if f_bits | (has[i] & ~upto_lo & ~f_nbrs) | others != everyone:
                continue
            for s, s_bits, s_nbrs in lasts:
                if s_bits & (used | f_bits | f_nbrs):  # overlap or an edge
                    continue
                hi = s[0] if s else n
                if hi < lo:
                    continue
                chosen = f_bits | s_bits
                nxt = [h & ~chosen for h in has]
                nxt[i] = chosen | (has[i] & ((1 << hi) - 1) & ~upto_lo & ~(f_nbrs | s_nbrs))
                if nxt[0] | nxt[1] | nxt[2] != everyone:
                    continue
                yield nxt, used | chosen, picks + ((f, s),)


def _stable_sets(adj: tuple, mask: int, size: int) -> Iterator[tuple]:
    """The stable `size`-subsets of the ranks in `mask`, in
    `itertools.combinations` order over those ranks ascending, each as
    (its ranks, their mask, the mask of their neighbors)."""
    if size == 0:  # the one 0-subset, without listing the ranks of `mask`
        yield (), 0, 0
        return
    for combo in itertools.combinations(_ranks(mask), size):
        bits = nbrs = 0
        for r in combo:
            if nbrs >> r & 1:
                break
            bits |= 1 << r
            nbrs |= adj[r]
        else:
            yield combo, bits, nbrs


def _propagate_bits(bits: tuple, has, done: int = 0) -> tuple:
    """Singleton propagation on the three color bitsets `has` (see
    `Instance.color_bits`) of the graph with adjacency bitsets `bits`: in
    every round, each rank whose list is the single color i strikes i from
    all its neighbors at once; rounds repeat until no new singleton
    appears. Returns the propagated bitsets.

    Striking preserves the colorings. While no list empties, a singleton
    stays one, so every striking order ends in the same lists; when one
    order empties a list, every order does, though not always the same
    one. Ranks with an empty list stay in place.

    `done` marks ranks that have already struck. The caller guarantees
    that each holds at most one color in `has` and that none of its
    neighbors holds that color. Lists only shrink, so such a rank is
    never struck and striking its color again changes nothing: the
    result is that of `done=0`.
    """
    has = list(has)
    while True:
        singles = [has[i] & ~(has[i - 1] | has[i - 2]) & ~done for i in range(3)]
        if not any(singles):
            return tuple(has)
        for i, single in enumerate(singles):
            done |= single
            struck = 0
            while single:
                low = single & -single
                struck |= bits[low.bit_length() - 1]
                single ^= low
            has[i] &= ~struck


class _TwoSat:
    """Implication-graph 2-SAT with iterative Tarjan SCC.

    Literals: variable v has true-literal 2v and false-literal 2v+1.
    """

    def __init__(self, nvars: int):
        self.n = 2 * nvars
        self.adj: list[list[int]] = [[] for _ in range(self.n)]

    def add_clause(self, a: int, b: int):
        # (a or b): not-a implies b, not-b implies a
        self.adj[a ^ 1].append(b)
        self.adj[b ^ 1].append(a)

    def solve(self) -> Optional[list[bool]]:
        n = self.n
        comp = [-1] * n
        low = [0] * n
        num = [-1] * n
        counter = 0
        ncomp = 0
        stack: list[int] = []
        on_stack = [False] * n
        for root in range(n):
            if num[root] != -1:
                continue
            work = [(root, 0)]
            while work:
                v, pi = work[-1]
                if pi == 0:
                    num[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack[v] = True
                recursed = False
                for i in range(pi, len(self.adj[v])):
                    w = self.adj[v][i]
                    if num[w] == -1:
                        work[-1] = (v, i + 1)
                        work.append((w, 0))
                        recursed = True
                        break
                    if on_stack[w] and num[w] < low[v]:
                        low[v] = num[w]
                if recursed:
                    continue
                if low[v] == num[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
        out = []
        for v in range(0, n, 2):
            if comp[v] == comp[v + 1]:
                return None
            # smaller component index = closer to a sink = safe to satisfy
            out.append(comp[v] < comp[v + 1])
        return out


def _two_lists(bits: tuple, mask: int, has) -> Optional[dict]:
    """List coloring of the ranks in `mask`, with neighbors `bits[r] &
    mask` and at most two colors each in the bitsets `has` (see
    `Instance.color_bits`), by 2-SAT. Returns {rank: color}, ranks
    ascending, or None when no coloring exists.

    One variable per rank, ranks ascending: False picks the smaller color
    of its list, True the larger. A one-color rank is a unit clause, and
    an empty list has no coloring. The edges are walked as rank pairs
    r < s in ascending order; for each color both ends hold, a clause
    forbids both picking it.
    """
    ranks = list(_ranks(mask))
    choices = [_TUPLES[_mask_at(has, r)] for r in ranks]
    if not all(choices):
        return None
    index = {r: i for i, r in enumerate(ranks)}
    sat = _TwoSat(len(ranks))
    # literal 2i + a is "rank i does not pick entry a of its list"
    for i, cs in enumerate(choices):
        if len(cs) == 1:
            sat.add_clause(2 * i + 1, 2 * i + 1)
    for i, r in enumerate(ranks):
        for s in _ranks(bits[r] & mask & -(2 << r)):
            j = index[s]
            for a, ca in enumerate(choices[i]):
                for b, cb in enumerate(choices[j]):
                    if ca == cb:
                        sat.add_clause(2 * i + a, 2 * j + b)
    model = sat.solve()
    if model is None:
        return None
    return {r: cs[-1] if up else cs[0] for r, cs, up in zip(ranks, choices, model)}


def _list_colorings(bits: tuple, mask: int, has, cap: Optional[int] = None) -> Iterator[tuple]:
    """Every proper list coloring of the ranks in `mask`, with neighbors
    `bits[r] & mask` and the colors of the bitsets `has` (see
    `Instance.color_bits`), in lexicographic order: ranks ascending,
    colors ascending. With `cap`, no color class holds more than `cap`
    ranks.

    Yields (classes, near): the three color classes as rank masks, and
    per class the ranks adjacent to it, `bits[r]` unrestricted. A plain
    backtracker, exponential in the number of ranks: the solvers call it
    on constant-size sets only."""
    ranks = list(_ranks(mask))
    lists = [_TUPLES[_mask_at(has, r)] for r in ranks]
    size = len(ranks)
    classes = [0, 0, 0]
    near = [0, 0, 0]

    def rec(i: int):
        if i == size:
            yield tuple(classes), tuple(near)
            return
        r = ranks[i]
        for c in lists[i]:
            cls, adj = classes[c - 1], near[c - 1]
            if adj >> r & 1 or cap is not None and cls.bit_count() >= cap:
                continue
            classes[c - 1] = cls | 1 << r
            near[c - 1] = adj | bits[r]
            yield from rec(i + 1)
            classes[c - 1], near[c - 1] = cls, adj

    yield from rec(0)


def _few_wide(bits: tuple, mask: int, has) -> Optional[dict]:
    """List coloring of the ranks in `mask` (as in `_two_lists`) whose
    full-list ranks are few: each proper coloring of them in turn, in
    `_list_colorings` order, fixes their colors, strikes them from their
    other neighbors and hands the rest to `_two_lists`. The first success
    wins."""
    full = mask & has[0] & has[1] & has[2]
    rest = [h & ~full for h in has]
    for pinned, near in _list_colorings(bits, full, has):
        ranks = _two_lists(bits, mask, [pinned[i] | rest[i] & ~near[i] for i in range(3)])
        if ranks is not None:
            return ranks
    return None


def _witness(inst: Instance, ranks: Optional[dict], has=None) -> Optional[Coloring]:
    """A kernel's {rank: color} as a coloring of inst, in the same key
    order, once it validates; None stays None. With the color bitsets
    `has` of a member with no empty list (see `Instance.color_bits`), the
    ranks that `ranks` leaves out follow in rank order, each with the
    smallest color of its list: both solvers finish a member this way."""
    if ranks is None:
        return None
    order = inst.graph.vertices
    out = {order[r]: c for r, c in ranks.items()}
    if has is not None:
        for r in range(len(order)):
            if r not in ranks:
                out[order[r]] = _TUPLES[_mask_at(has, r)][0]
    return checked_witness(Coloring(out), inst)


def solve_two_lists(inst: Instance) -> Optional[Coloring]:
    """List coloring when every list has at most two colors, by 2-SAT
    (`_two_lists`); a 3-color list is a precondition error."""
    g = inst.graph
    has = inst.color_bits
    full = has[0] & has[1] & has[2]
    if full:
        v = g.vertices[(full & -full).bit_length() - 1]
        raise PreconditionError(f"vertex {v!r} has a 3-color list")
    return _witness(inst, _two_lists(g.adjacency_bits(), (1 << g.n) - 1, has))


def solve_small_class(inst: Instance, c: int) -> Optional[Coloring]:
    """Find an L-coloring in which some color class has fewer than c
    vertices, if one exists.

    For each color i and each stable A within L^(i) with |A| < c (by
    size, then in `_stable_sets` order), pin the class of i to exactly A
    on the color bitsets and finish with 2-SAT (`_two_lists`).
    """
    if c <= 0:
        return None  # no class has fewer than zero vertices
    g = inst.graph
    bits = g.adjacency_bits()
    everyone = (1 << g.n) - 1
    has = inst.color_bits
    for i in range(3):
        for size in range(c):
            for _, pinned, _ in _stable_sets(bits, has[i], size):
                lists = [h & ~pinned for h in has]
                lists[i] = pinned
                ranks = _two_lists(bits, everyone, lists)
                if ranks is not None:
                    return _witness(inst, ranks)
    return None


def has_k4(g: OrderedGraph) -> bool:
    """True iff some four vertices are pairwise adjacent: for each edge
    a < b, the common neighbors after b are tested for an edge among
    them. Walks set bits only.

    The first rank a of a 4-clique has at least three later neighbors, so
    only the ranks of the degree table's entry 3 (`core._degree_masks`,
    cached on g; none when the table is shorter) are tried as a."""
    bits = g.adjacency_bits()
    later_at_least = _degree_masks(g)[0]
    if len(later_at_least) <= 3:
        return False
    for a in _ranks(later_at_least[3]):
        ba = bits[a]
        later = ba & -(2 << a)
        while later:
            low = later & -later
            later ^= low
            common = ba & bits[low.bit_length() - 1] & ~((low << 1) - 1)
            rest = common
            while rest:
                x = rest & -rest
                rest ^= x
                if bits[x.bit_length() - 1] & common:
                    return True
    return False


def _mcs_peo(bits: tuple, mask: int) -> Optional[tuple]:
    """Maximum cardinality search on the ranks in `mask`, with neighbors
    `bits[r] & mask` (Tarjan and Yannakakis, SIAM J. Comput. 1984). Returns
    None when the ranks induce a graph that is not chordal, and otherwise
    (visit, heads, tails, third), with the elimination slots recorded as
    each rank is numbered:

    - `visit`: the ranks in the order they are numbered, the reverse of a
      perfect elimination ordering, so visit index t is elimination
      position len(visit) - 1 - t;
    - `heads[t]`, `tails[t]`: the visit indices of rank `visit[t]`'s
      earliest later neighbor in the elimination ordering and of its one
      other later neighbor, -1 where there is none;
    - `third`: whether some rank has three or more later neighbors.

    `bucket[w]` holds the unnumbered ranks with w numbered neighbors; the
    next rank is the lowest of the highest non-empty bucket, so ties go to
    the lowest position. When v is numbered, its numbered neighbors are
    its later neighbors in the ordering, and the last of them to be
    numbered, its parent p, is the earliest; the others must all be
    adjacent to p. That parent-pointer test holds for every vertex exactly
    when the ordering is perfect. O(n + m) int operations.
    """
    size, count = len(bits), mask.bit_count()
    bucket = [mask] + [0] * count  # a weight is at most the count numbered
    weight = [0] * size
    parent = [0] * size  # rank -> its last-numbered neighbor so far
    step = [0] * size  # rank -> its visit index, once numbered
    visit, heads, tails = [], [], []
    third = False
    numbered = top = 0
    for t in range(count):
        while not bucket[top]:
            top -= 1
        low = bucket[top] & -bucket[top]
        bucket[top] ^= low
        v = low.bit_length() - 1
        nbrs = bits[v] & mask
        later = nbrs & numbered
        if later:
            p = parent[v]
            rest = later ^ 1 << p
            if rest & ~bits[p]:
                return None
            heads.append(step[p])
            tails.append(step[rest.bit_length() - 1] if rest else -1)
            if rest & rest - 1:
                third = True
        else:
            heads.append(-1)
            tails.append(-1)
        step[v] = t
        visit.append(v)
        numbered |= low
        fresh = nbrs & ~numbered
        while fresh:
            b = fresh & -fresh
            fresh ^= b
            u = b.bit_length() - 1
            w = weight[u]
            weight[u] = w + 1
            parent[u] = v
            bucket[w] ^= b
            bucket[w + 1] |= b
        top += 1  # weights grow by one at most
    return visit, heads, tails, third


_ALONE = 0x1110  # a position's own colors left open, bit 4c for color c
_PAIR = 0xFFFF  # the color pairs left open with one slot, bit 4c + c'


def _rows(own: int, head: int, tail: int, alone: int, pair0: int, pair1: int) -> tuple:
    """One position of `_chordal_coloring`'s elimination, with the color
    mask `own` and its slots' masks `head` and `tail` (0 for an absent
    slot, which takes color 0), under the constraints `alone`, `pair0`
    and `pair1` (see `_ALONE` and `_PAIR`) that its earlier neighbors
    left on it. Returns (rows, allowed, missing): `rows[4a + b]` is its
    first color, ascending, that differs from a and b and that all three
    constraints allow with the head at a and the tail at b, 0 for none;
    `allowed` has bit 4a + b for each nonzero row; `missing` is whether
    a head exists and some slot coloring has no row."""
    rows = [0] * 16
    allowed = 0
    at_head = _TUPLES[head] or (0,)
    at_tail = _TUPLES[tail] or (0,)
    for a in at_head:
        for b in at_tail:
            for c in _TUPLES[own]:
                if (
                    c != a
                    and c != b
                    and alone >> 4 * c & 1
                    and pair0 >> 4 * c + a & 1
                    and pair1 >> 4 * c + b & 1
                ):
                    rows[4 * a + b] = c
                    allowed |= 1 << 4 * a + b
                    break
    missing = head != 0 and allowed.bit_count() < len(at_head) * len(at_tail)
    return tuple(rows), allowed, missing


# `_rows` of a free position, one whose constraints are all still open, by
# its own (never empty), its head's and its tail's color mask
_FREE = (None,) + tuple(
    tuple(tuple(_rows(own, head, tail, _ALONE, _PAIR, _PAIR) for tail in range(8)) for head in range(8))
    for own in range(1, 8)
)


def _chordal_coloring(bits: tuple, mask: int, has) -> Optional[dict]:
    """List coloring of the ranks in `mask`, with neighbors `bits[r] &
    mask` and the colors of the bitsets `has` (see `Instance.color_bits`),
    by bucket elimination along the perfect elimination ordering of
    `_mcs_peo`. Returns {rank: color} in reverse elimination order, or
    None when no coloring exists; ranks that induce a graph that is not
    chordal are a precondition error, also when they hold an empty list
    or a 4-clique.

    A rank with three later neighbors closes a 4-clique, which has no
    coloring, so every separator has at most two ranks: the head and tail
    slots that `_mcs_peo` records. Each rank keeps, per coloring of its
    slots (the head's color major), its first color consistent with the
    constraints its earlier neighbors left on it (`_rows`), and hands the
    slot colorings that have one on to its head. Those constraints are
    bitmasks kept per position: the colors it may take, and per slot the
    color pairs it may take with it. The tail of a rank is a later
    neighbor of its head, so it is the head's own head or tail, and that
    names the head's slot the pairs go to. A free position, whose
    constraints are all still open, reads its rows from the table
    `_FREE`; only the others run `_rows`.
    """
    found = _mcs_peo(bits, mask)
    if found is None:
        raise PreconditionError("graph is not chordal")
    visit, heads, tails, third = found
    h0, h1, h2 = has
    lists = [h0 >> r & 1 | (h1 >> r & 1) << 1 | (h2 >> r & 1) << 2 for r in visit]
    if not all(lists) or third:
        return None
    lists.append(0)  # the mask of an absent slot, at index -1

    n = len(visit)
    alone = [_ALONE] * n
    pair0 = [_PAIR] * n  # with the head slot
    pair1 = [_PAIR] * n  # with the tail slot
    table = [()] * n  # per visit index: its rows
    for t in range(n - 1, -1, -1):  # elimination order
        head, tail = heads[t], tails[t]
        if alone[t] == _ALONE and pair0[t] == _PAIR and pair1[t] == _PAIR:
            rows, allowed, missing = _FREE[lists[t]][lists[head]][lists[tail]]
        else:
            rows, allowed, missing = _rows(lists[t], lists[head], lists[tail], alone[t], pair0[t], pair1[t])
        if not allowed:
            return None
        table[t] = rows
        if missing:
            if tail < 0:
                alone[head] &= allowed
            elif tail == heads[head]:
                pair0[head] &= allowed
            else:
                pair1[head] &= allowed

    chosen = [0] * (n + 1)  # the color of an absent slot, at index -1
    for t in range(n):
        chosen[t] = table[t][4 * chosen[heads[t]] + chosen[tails[t]]]
    return dict(zip(visit, chosen))


def solve_chordal(inst: Instance) -> Optional[Coloring]:
    """List coloring of a chordal graph (see `_chordal_coloring`); a graph
    that is not chordal is a precondition error."""
    g = inst.graph
    return _witness(inst, _chordal_coloring(g.adjacency_bits(), (1 << g.n) - 1, inst.color_bits))
