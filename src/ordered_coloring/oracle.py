"""Exponential-time ground truth: exhaustive list-coloring search and
enumeration, plus brute-force monotone NAE3SAT.

Search order is fixed (vertices by position, colors ascending) so results
are deterministic and the first coloring found is the lexicographically
smallest one. Pruning (forward checking plus unit propagation on the
remaining lists) never removes a valid coloring, so counts are exact.

The search runs on ranks: a 3-bit color mask per rank, built from the
frozenset lists (`inst.lists`) so that the oracle stays independent of
`Instance.color_bits`, and neighbor lists read once from the adjacency
bit rows. One explicit stack holds the untried colors of each depth and
one trail holds the strikes to undo; no frame or closure is built per
level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .core import Coloring, Instance, _ranks
from .errors import CapExceededError, InputError

DEFAULT_CAP = 20


def enumerate_colorings(inst: Instance, cap: int = DEFAULT_CAP) -> Iterator[Coloring]:
    """Yield every L-coloring in lexicographic order (position-major,
    colors ascending). Iterative backtracking; depth is not an issue even
    for gadget-sized graphs.

    Depth d assigns rank d. `untried[d]` holds the colors of rank d, as
    one-bit masks, that are still to be tried, lowest first; it is read
    off rank d's mask when the search descends to d, so it already lacks
    every color the ranks before d struck. Assigning a color strikes it
    from the later neighbors of d, and every later rank that is left with
    a single color strikes that color in turn from its own neighbors
    after d (a singleton cascade). A list that empties kills the branch.
    Initial singletons are not propagated; a rank's own list is never
    struck. Each strike goes on `trail`, and `mark[d]` is the trail's
    length before depth d's current color, so moving to the next color or
    back up undoes exactly that color's strikes. Colors stay one-bit
    masks until a coloring is yielded.

    The tree is the one a cascade in any order would search: a cascade
    that succeeds strikes each color that some chain of singletons forces
    out, whatever the order it pops them in, so the lists at the next
    depth are the same; and a cascade that empties a list in one order
    empties it in every order, since the strikes made before it stops
    are all forced. So the candidates, the pruned branches and the
    yielded sequence depend only on the rank order and the lists."""
    g = inst.graph
    n = g.n
    if n > cap:
        raise CapExceededError(f"instance has {n} vertices, cap is {cap}")
    order = g.vertices
    if n == 0:
        yield Coloring({})
        return
    masks = [sum(1 << c - 1 for c in inst.lists.get(v)) for v in order]
    nbrs = [list(_ranks(row)) for row in g.adjacency_bits()]
    later = [[s for s in row if s > r] for r, row in enumerate(nbrs)]
    untried = [0] * n  # colors not yet tried at each depth
    mark = [0] * n  # trail length before each depth's current color
    chosen = [0] * n  # the color bit of each assigned rank
    trail = []  # (rank, bit) strikes, newest last
    untried[0] = masks[0]
    d = 0
    while d >= 0:
        top = mark[d]
        while len(trail) > top:
            s, b = trail.pop()
            masks[s] |= b
        left = untried[d]
        if not left:
            d -= 1
            continue
        bit = left & -left
        untried[d] = left ^ bit
        chosen[d] = bit
        singles = []
        dead = False
        for s in later[d]:
            m = masks[s]
            if m & bit:
                m ^= bit
                masks[s] = m
                trail.append((s, bit))
                if not m & (m - 1):
                    if not m:
                        dead = True
                        break
                    singles.append(s)
        while singles and not dead:
            r = singles.pop()
            b = masks[r]
            for s in nbrs[r]:
                if s > d:
                    m = masks[s]
                    if m & b:
                        m ^= b
                        masks[s] = m
                        trail.append((s, b))
                        if not m & (m - 1):
                            if not m:
                                dead = True
                                break
                            singles.append(s)
        if dead:
            continue
        if d + 1 == n:
            yield Coloring({v: chosen[r].bit_length() for r, v in enumerate(order)})
            continue
        d += 1
        mark[d] = len(trail)
        untried[d] = masks[d]


def solve_bruteforce(inst: Instance, cap: int = DEFAULT_CAP) -> Optional[Coloring]:
    """First L-coloring in lexicographic order, or None if there is none."""
    for coloring in enumerate_colorings(inst, cap=cap):
        return coloring
    return None


@dataclass(frozen=True)
class NaeInstance:
    """Monotone NAE3SAT: clauses are 3-sets of 1-based variable indices."""

    num_vars: int
    clauses: tuple

    def __init__(self, num_vars: int, clauses):
        if num_vars < 0:
            raise InputError("num_vars must be nonnegative")
        clean = []
        for cl in clauses:
            cl = tuple(sorted(cl))
            if len(cl) != 3 or len(set(cl)) != 3:
                raise InputError(f"clause must have exactly 3 distinct variables: {cl}")
            for x in cl:
                if not isinstance(x, int) or not 1 <= x <= num_vars:
                    raise InputError(f"variable index out of range: {x}")
            clean.append(cl)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "clauses", tuple(clean))


def nae_bruteforce(inst: NaeInstance, cap: int = 24) -> Optional[tuple]:
    """First satisfying NAE assignment (as a tuple of bools, variable 1
    first) scanning assignments in ascending binary order, or None."""
    n = inst.num_vars
    if n > cap:
        raise CapExceededError(f"instance has {n} variables, cap is {cap}")
    clause_masks = [sum(1 << (x - 1) for x in cl) for cl in inst.clauses]
    for a in range(1 << n):
        # NAE: at least one true and one false literal in every clause
        if all(0 < (a & m) < m for m in clause_masks):
            return tuple(bool(a >> i & 1) for i in range(n))
    return None
