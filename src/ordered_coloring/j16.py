"""Polynomial solver for instances excluding the padded two-forward-edge
pattern (a center with two later, nonadjacent neighbors, plus k leading
and l trailing isolated vertices).

The pipeline first accepts any coloring with a color class of fewer than
k+l vertices (`kernels.solve_small_class`, shared with the width solver).
Otherwise it guesses boundary color classes, narrows the wide set until
every vertex has at most two forward neighbors there, pads both ends by
forcing a constant-size boundary, and finishes with chordal list coloring
on the remaining wide set. The mirrored pattern is handled by reversal.

From the guess to the finish, a member is the three color bitsets of its
lists on the input graph's ranks (see `Instance.color_bits`). The padding
block, the whole wide set when that is small, is forced on those bitsets
rank by rank, with propagation after each rank. No sub-instance is built.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .core import Coloring, Instance, OrderedGraph, _degree_masks, _ranks, contains_pattern
from .errors import InternalError, PreconditionError, RefusalError
from .kernels import (
    _TUPLES,
    _chordal_coloring,
    _mask_at,
    _propagate_bits,
    _wide,
    _witness,
    boundary_guesses,
    has_k4,
    solve_small_class,
)
from .patterns import build_pattern


def _force(has, mask: int, color: int) -> tuple:
    """The bitsets with every rank in `mask` given the one-color list `color`."""
    return tuple(h | mask if i == color - 1 else h & ~mask for i, h in enumerate(has))


def _fwdnbr_members(inst: Instance, k: int, l: int) -> Iterator[tuple]:
    """Guess first-k/last-l color class vertices with
    `kernels.boundary_guesses`, then narrow until every vertex of the wide
    set has at most two forward neighbors there. Members are the three
    color bitsets of their lists on `inst`'s graph.

    Yields nothing when a 4-clique makes everything moot. The engine
    yields propagated lists and drops every guess in which a list empties,
    before narrowing could refuse on it. Members whose lists empty during
    narrowing hold no coloring and are omitted. A narrowing step that
    runs into the forbidden pattern raises a refusal. `_narrow` returns a
    member only once its own scan finds no wide rank with three later wide
    neighbors, so no member needs that check again.

    Each member is yielded once without a dedup, as two different
    guesses never narrow to the same lists. Take the first color i on
    which they differ; up to it they placed the same sets. If their
    first-sets differ, let x be the earliest rank in one first-set, f,
    and not in the other, f'. Then f' ends after x and the other guess's
    last-set starts after f' ends, so x is in neither of its sets and
    not strictly after its first-set: that guess strips i from x, while
    this one forces x to i. If only the last-sets differ, the latest such
    rank does the same from the other side. Propagation and narrowing
    only shrink lists, and a yielded member has no empty list, so x keeps
    exactly {i} in one member and lacks i in the other.
    """
    g = inst.graph
    if has_k4(g):
        return
    for picks, has in boundary_guesses(inst, k, l):
        narrowed = _narrow(g, has, picks)
        if narrowed is not None:
            yield narrowed


def _narrow(g: OrderedGraph, has: tuple, picks: tuple) -> Optional[tuple]:
    """Shrink the member's lists, color bitsets on g, until the wide set
    has max forward degree two; returns None when some list empties (no
    coloring survives in this member). `picks` holds the guessed first-k
    and last-l rank sets per color (`kernels.boundary_guesses`), which a
    refusal's witness includes.

    Each step takes the first wide rank v with three later wide
    neighbors, the first nonadjacent pair u, w among those neighbors and
    the first other one, x (all by rank); it forces one-color lists on
    u and w or on v, and `_propagate_bits` strikes their colors. Such a v
    has three later neighbors in g, so the scan walks only the wide ranks
    of the degree table's entry 3 (`core._degree_masks`)."""
    bits = g.adjacency_bits()
    order = g.vertices
    everyone = (1 << len(order)) - 1
    later_at_least = _degree_masks(g)[0]
    three = later_at_least[3] if len(later_at_least) > 3 else 0
    while True:
        if has[0] | has[1] | has[2] != everyone:
            return None
        wide = _wide(has)
        for v in _ranks(wide & three):
            fwd = bits[v] & wide & -(2 << v)
            if fwd.bit_count() >= 3:
                break
        else:
            return has
        fwd_nbrs = list(_ranks(fwd))
        pair = _first_nonadjacent_pair(bits, fwd_nbrs)
        if pair is None:
            raise InternalError("three pairwise-adjacent forward neighbors imply a 4-clique")
        u, w = pair
        lv, lu, lw = _mask_at(has, v), _mask_at(has, u), _mask_at(has, w)
        common = lv & lu & lw
        if common:
            _refuse(picks, order, v, u, w, (common & -common).bit_length())
        if lv.bit_count() != 2:
            # a full list would share a color with any two wide neighbors,
            # and the nonadjacent pair above would have caught that
            raise InternalError("wide vertex with a full list cannot reach this point")
        bi = lv & -lv  # colors i < j on v's list, m the third, as one-bit masks
        bj, bm = lv ^ bi, 7 ^ lv
        i, j, m = bi.bit_length(), bj.bit_length(), bm.bit_length()
        if lu == bj | bm and lw == bi | bm:
            u, w = w, u
            lu, lw = lw, lu
        if not (lu == bi | bm and lw == bj | bm):
            raise InternalError("narrowing reached an impossible list shape")
        x = next(y for y in fwd_nbrs if y != u and y != w)
        lx = _mask_at(has, x)
        if lv & ~lx == 0:
            for other, shared in ((u, i), (w, j)):
                if not bits[other] >> x & 1:
                    _refuse(picks, order, v, other, x, shared)
            has = _force(has, 1 << u | 1 << w, m)
        elif lx == bi | bm:
            if not bits[u] >> x & 1:
                _refuse(picks, order, v, u, x, i)
            has = _force(has, 1 << v, j)
        elif lx == bj | bm:
            if not bits[w] >> x & 1:
                _refuse(picks, order, v, w, x, j)
            has = _force(has, 1 << v, i)
        else:
            raise InternalError(f"unexpected third-neighbor list {list(_TUPLES[lx])}")
        has = _propagate_bits(bits, has)


def _first_nonadjacent_pair(bits: tuple, ranks: list):
    for a, b in itertools.combinations(ranks, 2):
        if not bits[a] >> b & 1:
            return a, b
    return None


def _refuse(picks: tuple, order: tuple, v: int, u: int, w: int, color: int):
    """Refuse with the guessed sets of `color` plus v, u and w as witness."""
    a, b = picks[color - 1]
    raise RefusalError(f"J16:{len(a)},{len(b)}", {order[r] for r in (*a, *b, v, u, w)})


def pad_sets(bits: tuple, has, k: int, l: int) -> int:
    """The boundary block of the member with color bitsets `has`, on a
    graph with adjacency bitsets `bits`, as one rank mask.

    When the wide set has at least 3k + 3l + 6 ranks, the block is the
    left cover, k rounds of taking the leftmost uncovered wide rank with
    its forward wide neighbors, plus the trailing block of the remainder:
    its last 3l + 6 wide ranks. A narrowed member has at most two forward
    wide neighbors per wide rank, so the cover takes at most 3k ranks and
    the remainder holds the trailing block. Below that size, the block is
    the whole wide set."""
    wide = _wide(has)
    if wide.bit_count() < 3 * k + 3 * l + 6:
        return wide
    block = 0
    for _ in range(k):
        left = wide & ~block
        v = (left & -left).bit_length() - 1
        block |= 1 << v | (bits[v] & wide & -(2 << v))
    rest = wide & ~block
    for _ in range(3 * l + 6):
        top = 1 << rest.bit_length() - 1
        rest ^= top
        block |= top
    return block


def _chordalize_members(bits: tuple, has: tuple, block: int) -> Iterator[tuple]:
    """Propagated members of the member `has` (color bitsets on a graph
    with adjacency bitsets `bits`), one per list coloring of the ranks in
    `block` in which no list empties, in the order of those colorings:
    ranks ascending, colors ascending.

    The block is forced rank by rank, depth first: one `_force_rank`
    stage per rank, each pulling the members of the stage before. A rank
    tries the colors its current lists still hold, ascending. Each
    forcing is propagated at once, and a prefix in which a list empties
    is dropped with everything under it. `has` is a propagated fixpoint
    with no empty list, as `_fwdnbr_members` yields it, and so is every
    prefix kept. So `_propagate_bits` runs with the current one-color
    ranks done, which have struck already, and gives the full
    propagation.

    This is what forcing each block coloring f whole and propagating it
    gives; write L(f) for those lists. Propagation strikes a color only
    from a neighbor of a one-color rank that holds it. So a fixpoint with
    no empty list that lies below some lists (pointwise) stays below them
    through every strike, and lies below their propagation.
    - If L(f) has no empty list, it lies below `has`. Rank by rank along
      f, it lies below the walk's lists with the next rank forced to f's
      color, since L(f) holds only that color there, and so below their
      propagation. The walk never empties a list or skips f's color on
      the way, and f is a leaf.
    - At a leaf f, the walk's lists are a fixpoint with no empty list
      below f's whole forcing, so they lie below L(f); and by the first
      point L(f) lies below them. They are L(f).
    So a dropped prefix holds only colorings whose L(f) empties a list,
    and the members and their order are those of the whole forcings.

    A block that is the whole wide set (`pad_sets` below its threshold)
    loses no coloring to the pruning: it yields one member per list
    coloring of the wide ranks, in `kernels._list_colorings` order, whose
    bitsets are the forced colors plus that coloring's classes. In `has`
    every one-color rank has struck its color from its neighbors, so no
    wide rank holds the color of a one-color neighbor, and a list
    coloring f of the wide ranks is a proper coloring of the graph. Its
    whole forcing strikes nothing more, so L(f) is f itself; and every f
    whose forcing empties a list is improper, so the colorings dropped
    are exactly those that `_list_colorings` skips. Every member is then
    fully forced, and the finish colors it at once.

    The wide set of a member must be chordal. That is not checked here:
    `_finish_member` runs the chordality search on every member it
    colors and raises `InternalError` when it fails. A member dropped
    for an empty list holds no coloring, and `solve_j16` reads no member
    after its first coloring, so no output goes unchecked."""
    everyone = (1 << len(bits)) - 1
    members = iter((has,))
    for r in _ranks(block):
        members = _force_rank(bits, members, r, everyone)
    return members


def _force_rank(bits: tuple, members: Iterator[tuple], r: int, everyone: int) -> Iterator[tuple]:
    """Each of `members` with rank r forced to each color its lists still
    hold, ascending, and propagated; the forcings in which a list empties
    are dropped."""
    for cur in members:
        done = ~_wide(cur)
        for c in _TUPLES[_mask_at(cur, r)]:
            nxt = _propagate_bits(bits, _force(cur, 1 << r, c), done)
            if nxt[0] | nxt[1] | nxt[2] == everyone:
                yield nxt


def solve_j16(inst: Instance, k: int, l: int, reverse: bool = False) -> Optional[Coloring]:
    """Decision procedure with witness for instances free of the padded
    two-forward-edge pattern; `reverse` solves the mirrored family by
    running on the reversed graph (colorings ignore the ordering).

    Every member is forced on its boundary block (`pad_sets`) by
    `_chordalize_members` and finished by `_finish_member`. The witness is
    validated once against `inst`, by `kernels._witness`: here, or for a
    small color class in `solve_small_class`."""
    if reverse:
        return solve_j16(Instance(inst.graph.reverse(), inst.lists), k, l)
    witness = contains_pattern(inst.graph, build_pattern(f"J16:{k},{l}"))
    if witness is not None:
        raise RefusalError(f"J16:{k},{l}", witness)

    small = solve_small_class(inst, k + l)  # validated there
    if small is not None:
        return small

    g = inst.graph
    bits = g.adjacency_bits()
    for member in _fwdnbr_members(inst, k, l):
        for final in _chordalize_members(bits, member, pad_sets(bits, member, k, l)):
            ranks = _finish_member(g, final)
            if ranks is not None:
                return _witness(inst, ranks, final)
    return None


def _finish_member(g: OrderedGraph, has: tuple) -> Optional[dict]:
    """List color the member's wide set with `_chordal_coloring` on g's
    adjacency bits, restricted to the wide ranks: {rank: color}, or None
    when it has no coloring. The member has no empty list, and
    `solve_j16` extends the result by the forced colors in rank order
    (`kernels._witness`). A wide set that is not chordal is a bug and
    raises `InternalError`, also under `python -O`."""
    wide = _wide(has)
    if not wide:
        return {}
    try:
        return _chordal_coloring(g.adjacency_bits(), wide, has)
    except PreconditionError:
        raise InternalError("wide set of a finished member is not chordal") from None
