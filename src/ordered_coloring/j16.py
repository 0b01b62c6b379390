"""Polynomial solver for instances excluding the padded two-forward-edge
pattern (a center with two later, nonadjacent neighbors, plus k leading
and l trailing isolated vertices).

The pipeline first accepts any coloring with a color class of fewer than
k+l vertices (`kernels.solve_small_class`, shared with the width solver).
Otherwise it guesses boundary color classes, narrows the wide set until
every vertex has at most two forward neighbors there, pads both ends by
forcing a constant-size boundary, and finishes with chordal list coloring
on the remaining wide set. The mirrored pattern is handled by reversal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import (
    COLORS,
    Coloring,
    Instance,
    ListAssignment,
    OrderedGraph,
    checked_witness,
    contains_pattern,
)
from .errors import InternalError, PreconditionError, RefusalError
from .kernels import (
    _chordal_coloring,
    _color_bits,
    _lists_from_bits,
    _mcs_peo,
    _propagate_bits,
    boundary_guesses,
    has_k4,
    propagate_singletons,
    solve_small_class,
)
from .oracle import enumerate_colorings
from .patterns import build_pattern


@dataclass(frozen=True)
class PadSets:
    """Left cover (k rounds of leftmost wide vertex plus its forward
    neighbors), its chosen stable core, and the trailing block."""

    c: frozenset
    c_prime: frozenset
    d: frozenset


def wide_set(inst: Instance) -> list:
    """Vertices whose list still has at least two colors, by position."""
    return [v for v in inst.graph.vertices if len(inst.lists.get(v)) >= 2]


def _wide_ranks(inst: Instance) -> int:
    """The wide set as a rank bitmask."""
    return sum(1 << r for r, v in enumerate(inst.graph.vertices) if len(inst.lists.get(v)) >= 2)


def _forward_degree_above_two(bits: tuple, wide: int) -> bool:
    """Whether some rank in `wide` has three later neighbors in `wide`."""
    return any(
        ((bits[r] & wide) >> (r + 1)).bit_count() > 2 for r in range(len(bits)) if wide >> r & 1
    )


def _fwdnbr_members(inst: Instance, k: int, l: int) -> Iterator[Instance]:
    """Guess first-k/last-l color class vertices with
    `kernels.boundary_guesses`, then narrow until every vertex of the wide
    set has at most two forward neighbors there.

    Yields nothing when a 4-clique makes everything moot. The engine
    yields propagated lists and drops every guess in which a list empties,
    before narrowing could refuse on it. Members whose lists empty during
    narrowing hold no coloring and are omitted, and each member is
    yielded once. A narrowing step that runs into the forbidden pattern
    raises a refusal; a member whose wide set keeps a vertex with three
    forward wide neighbors is a bug and raises `InternalError`.
    """
    if has_k4(inst.graph):
        return
    g = inst.graph
    bits = g.adjacency_bits()
    seen = set()
    for a_sets, b_sets, has in boundary_guesses(inst, k, l):
        narrowed = _narrow(Instance(g, _lists_from_bits(g.vertices, has)), a_sets, b_sets)
        if narrowed is None:
            continue
        key = frozenset(narrowed.lists.items())
        if key in seen:
            continue
        seen.add(key)
        if _forward_degree_above_two(bits, _wide_ranks(narrowed)):
            raise InternalError("narrowed member has forward degree above two on its wide set")
        yield narrowed


def _narrow(inst: Instance, a_sets: tuple, b_sets: tuple) -> Optional[Instance]:
    """Shrink lists until the wide set has max forward degree two; returns
    None when some list empties (no coloring survives in this member).
    `a_sets` and `b_sets` are the guessed first-k and last-l sets per
    color, which a refusal's witness includes."""
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
            fwd = [u for u in g.forward_neighbors(cand) if u in wide_pos]
            if len(fwd) >= 3:
                v = cand
                fwd_nbrs = sorted(fwd, key=g.rank)
                break
        if v is None:
            return current
        lv = current.lists.get(v)
        pair = _first_nonadjacent_pair(g, fwd_nbrs)
        if pair is None:
            raise InternalError("three pairwise-adjacent forward neighbors imply a 4-clique")
        u, w = pair
        common = lv & current.lists.get(u) & current.lists.get(w)
        if common:
            _refuse(a_sets, b_sets, v, u, w, min(common))
        if len(lv) != 2:
            # a full list would share a color with any two wide neighbors,
            # and the nonadjacent pair above would have caught that
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
                    _refuse(a_sets, b_sets, v, other, x, shared)
            changes[u] = frozenset((m,))
            changes[w] = frozenset((m,))
            for y in (g.neighbors(u) | g.neighbors(w)) - {u, w}:
                changes[y] = current.lists.get(y) - {m}
        elif lx == frozenset((i, m)):
            if not g.has_edge(u, x):
                _refuse(a_sets, b_sets, v, u, x, i)
            changes[v] = frozenset((j,))
            for y in g.neighbors(v):
                changes[y] = current.lists.get(y) - {j}
        elif lx == frozenset((j, m)):
            if not g.has_edge(w, x):
                _refuse(a_sets, b_sets, v, w, x, j)
            changes[v] = frozenset((i,))
            for y in g.neighbors(v):
                changes[y] = current.lists.get(y) - {i}
        else:
            raise InternalError(f"unexpected third-neighbor list {sorted(lx)}")
        current = propagate_singletons(Instance(g, current.lists.updated(changes)))


def _first_nonadjacent_pair(g: OrderedGraph, vertices):
    for a, b in itertools.combinations(vertices, 2):
        if not g.has_edge(a, b):
            return a, b
    return None


def _refuse(a_sets: tuple, b_sets: tuple, v, u, w, color: int):
    a, b = a_sets[color - 1], b_sets[color - 1]
    raise RefusalError(f"J16:{len(a)},{len(b)}", set(a) | set(b) | {v, u, w})


def pad_sets(inst: Instance, k: int, l: int) -> PadSets:
    """k rounds of taking the leftmost uncovered wide vertex with its
    forward wide neighbors, then the trailing block of the remainder."""
    g = inst.graph
    wide = wide_set(inst)
    wide_pos = set(wide)
    c: set = set()
    c_prime: set = set()
    for _ in range(k):
        v = next(x for x in wide if x not in c)
        c_prime.add(v)
        c.add(v)
        c |= {u for u in g.forward_neighbors(v) if u in wide_pos}
    rest = [v for v in wide if v not in c]
    d = set(rest[-(3 * l + 6):])
    return PadSets(frozenset(c), frozenset(c_prime), frozenset(d))


def _chordalize_members(inst: Instance, k: int, l: int) -> Iterator[Instance]:
    """Propagated members, one per list coloring of the boundary block
    (left cover plus trailing block), in the order of those colorings;
    members in which some list empties are dropped.

    Each member lives as three color bitsets until it survives: the block
    ranks are forced to their colors and `_propagate_bits` runs on the
    parent's adjacency bits. Lists only shrink and the block ends forced
    or empty, so every member's wide set lies inside the wide set minus
    the block; when that is chordal, so is every member's, as induced
    subgraphs of chordal graphs are. Only when it is not is each member's
    own wide set checked, empty lists or not. A member whose wide set is
    not chordal is a bug and raises, also under `python -O`."""
    g = inst.graph
    bits = g.adjacency_bits()
    wide = _wide_ranks(inst)
    if _forward_degree_above_two(bits, wide):
        raise PreconditionError("wide set has a vertex with three forward neighbors")
    if wide.bit_count() < 3 * k + 3 * l + 6:
        raise PreconditionError("wide set is too small for boundary padding")
    pads = pad_sets(inst, k, l)
    block = sorted(pads.c | pads.d, key=g.rank)
    block_mask = sum(1 << g.rank(v) for v in block)
    check_each = _mcs_peo(bits, wide & ~block_mask) is None
    unforced = [h & ~block_mask for h in _color_bits(inst)]
    everyone = (1 << g.n) - 1
    for f in enumerate_colorings(inst.sub_instance(block), cap=len(block)):
        has = list(unforced)
        for v in block:
            has[f[v] - 1] |= 1 << g.rank(v)
        h0, h1, h2 = has = _propagate_bits(bits, has)
        if check_each and _mcs_peo(bits, h0 & h1 | h0 & h2 | h1 & h2) is None:
            raise InternalError("wide remainder of a padded member is not chordal")
        if h0 | h1 | h2 == everyone:
            yield Instance(g, _lists_from_bits(g.vertices, has))


def _finalize_small_members(inst: Instance, k: int, l: int) -> Iterator[Instance]:
    """When the wide set is below the padding threshold, force each of its
    list colorings outright; members have only forced or empty lists, and
    a member that keeps a wider list is a bug and raises."""
    wide = wide_set(inst)
    if len(wide) >= 3 * k + 3 * l + 6:
        raise PreconditionError("wide set is large enough for boundary padding")
    for f in enumerate_colorings(inst.sub_instance(wide), cap=max(len(wide), 1)):
        new_lists = dict(inst.lists.items())
        for v in wide:
            new_lists[v] = frozenset((f[v],))
        member = Instance(inst.graph, ListAssignment(new_lists))
        if any(len(cs) > 1 for _, cs in member.lists.items()):
            raise InternalError("a finalized member keeps a list with two colors")
        yield member


def solve_j16(
    inst: Instance,
    k: int,
    l: int,
    reverse: bool = False,
    check_freeness: bool = True,
) -> Optional[Coloring]:
    """Decision procedure with witness for instances free of the padded
    two-forward-edge pattern; `reverse` solves the mirrored family by
    running on the reversed graph (colorings ignore the ordering)."""
    if reverse:
        mirrored = Instance(inst.graph.reverse(), inst.lists)
        return solve_j16(mirrored, k, l, reverse=False, check_freeness=check_freeness)
    if check_freeness:
        witness = contains_pattern(inst.graph, build_pattern(f"J16:{k},{l}"))
        if witness is not None:
            raise RefusalError(f"J16:{k},{l}", witness)

    small = solve_small_class(inst, k + l)
    if small is not None:
        return checked_witness(small, inst)

    threshold = 3 * k + 3 * l + 6
    for member in _fwdnbr_members(inst, k, l):
        if len(wide_set(member)) >= threshold:
            stage = _chordalize_members(member, k, l)  # propagated, no empty list
        else:
            stage = map(propagate_singletons, _finalize_small_members(member, k, l))
        for final in stage:
            if any(not cs for _, cs in final.lists.items()):
                continue
            coloring = _finish_member(final)
            if coloring is not None:
                return checked_witness(coloring, inst)
    return None


def _finish_member(inst: Instance) -> Optional[Coloring]:
    """List color the chordal wide set with `_chordal_coloring` on the
    member's own adjacency bits, restricted to the wide ranks, then extend
    by the forced colors."""
    g = inst.graph
    colors = [tuple(sorted(inst.lists.get(v))) for v in g.vertices]
    wide = sum(1 << r for r, cs in enumerate(colors) if len(cs) >= 2)
    assignment = {}
    if wide:
        ranks = _chordal_coloring(g.adjacency_bits(), wide, colors)
        if ranks is None:
            return None
        assignment = {g.vertices[r]: c for r, c in ranks.items()}
    for r, v in enumerate(g.vertices):
        if not wide >> r & 1:
            (assignment[v],) = colors[r]
    return checked_witness(Coloring(assignment), inst)
