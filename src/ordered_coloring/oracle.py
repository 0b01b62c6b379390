"""Exponential-time ground truth: exhaustive list-coloring search and
enumeration, plus brute-force monotone NAE3SAT.

Search order is fixed (vertices by position, colors ascending) so results
are deterministic and the first coloring found is the lexicographically
smallest one. Pruning (forward checking plus unit propagation on the
remaining lists) never removes a valid coloring, so counts are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .core import Coloring, Instance
from .errors import CapExceededError, InputError

DEFAULT_CAP = 20

_BIT = {1: 1, 2: 2, 3: 4}
_COLORS_OF = {m: tuple(c for c in (1, 2, 3) if m & _BIT[c]) for m in range(8)}


def enumerate_colorings(inst: Instance, cap: int = DEFAULT_CAP) -> Iterator[Coloring]:
    """Yield every L-coloring in lexicographic order (position-major,
    colors ascending). Iterative backtracking; depth is not an issue even
    for gadget-sized graphs."""
    g = inst.graph
    n = g.n
    if n > cap:
        raise CapExceededError(f"instance has {n} vertices, cap is {cap}")
    order = g.vertices
    masks = [sum(_BIT[c] for c in inst.lists.get(v)) for v in order]
    nbrs = [[g.rank(u) for u in g.neighbors(v)] for v in order]

    if n == 0:
        yield Coloring({})
        return

    # Each frame: vertex rank, candidate colors, next candidate index,
    # list of (rank, bit) strikes to undo when leaving the frame.
    frames: list[list] = [[0, _COLORS_OF[masks[0]], 0, []]]
    chosen = [0] * n

    def strike(start_rank: int, color_bit: int, undo: list) -> bool:
        """Remove color_bit from unassigned neighbors, cascading singleton
        eliminations. Returns False if some list becomes empty."""
        depth = len(frames)  # ranks < depth are assigned
        queue = [(start_rank, color_bit)]
        while queue:
            r, bit = queue.pop()
            for s in nbrs[r]:
                if s < depth or not masks[s] & bit:
                    continue
                masks[s] &= ~bit
                undo.append((s, bit))
                if masks[s] == 0:
                    return False
                if masks[s] in (1, 2, 4):
                    queue.append((s, masks[s]))
        return True

    while frames:
        frame = frames[-1]
        r, candidates, idx, undo = frame
        # undo strikes from the previous candidate at this frame
        for s, bit in undo:
            masks[s] |= bit
        undo.clear()
        if idx >= len(candidates):
            frames.pop()
            continue
        frame[2] = idx + 1
        c = candidates[idx]
        chosen[r] = c
        ok = strike(r, _BIT[c], undo)
        if not ok:
            continue
        if r + 1 == n:
            yield Coloring({order[i]: chosen[i] for i in range(n)})
            continue
        frames.append([r + 1, _COLORS_OF[masks[r + 1]], 0, []])


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
