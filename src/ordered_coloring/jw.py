"""Polynomial solver for instances excluding the single-edge pattern with w
isolated vertices before, between, and after the edge.

The engine enumerates colored seeds on the span of each maximal edge,
chains them left to right through a compatibility condition decided on the
span of the previous maximal edge, and reads the answer off the seeds of a
forced dominating edge appended on the right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .core import (
    COLORS,
    Coloring,
    Instance,
    ListAssignment,
    OrderedGraph,
    Refinement,
    _fresh_id,
    checked_witness,
    contains_pattern,
)
from .errors import InternalError, RefusalError
from .kernels import _refinement, boundary_guesses, has_k4, solve_few_wide, solve_small_class
from .oracle import solve_bruteforce
from .patterns import build_pattern

# Most full lists a link reduction may leave; `solve_few_wide` enumerates
# 3^c colorings of them, so more is a bug, not a slow instance.
WIDE_CAP = 16


def class_cap(w: int) -> int:
    """Bound on each color class of a seed."""
    return 27 * w * w + 3


@dataclass(frozen=True)
class ColoredSeed:
    """A colored subset of the span of an edge: support sorted by position,
    colors parallel to the support."""

    support: tuple
    colors: tuple

    def assignment(self) -> dict:
        return dict(zip(self.support, self.colors))

    def color_class(self, color: int) -> frozenset:
        return frozenset(v for v, c in zip(self.support, self.colors) if c == color)


def gamma(inst: Instance, e, w: int) -> Iterator[ColoredSeed]:
    """All seeds on the span of e: supports containing both endpoints, in
    ascending bitmask order over the position-sorted span; per support, all
    proper list colorings in lexicographic order, with every color class
    bounded by the width-dependent cap."""
    g = inst.graph
    u, v = e
    und = sorted(g.under((u, v)), key=g.rank)
    cap = class_cap(w)
    fixed = {und.index(u), und.index(v)}
    free = [i for i in range(len(und)) if i not in fixed]
    fixed_mask = sum(1 << i for i in fixed)
    lists = [tuple(sorted(inst.lists.get(x))) for x in und]
    adj = [
        [g.has_edge(und[i], und[j]) for j in range(len(und))] for i in range(len(und))
    ]

    for sub in range(1 << len(free)):
        mask = fixed_mask
        m = sub
        for bit_pos, i in enumerate(free):
            if m >> bit_pos & 1:
                mask |= 1 << i
        support = [i for i in range(len(und)) if mask >> i & 1]
        yield from _seed_colorings(und, support, lists, adj, cap)


def _seed_colorings(und, support, lists, adj, cap):
    k = len(support)
    counts = {1: 0, 2: 0, 3: 0}
    chosen = [0] * k

    def rec(i: int):
        if i == k:
            yield ColoredSeed(
                tuple(und[s] for s in support), tuple(chosen)
            )
            return
        si = support[i]
        for c in lists[si]:
            if counts[c] + 1 > cap:
                continue
            if any(adj[si][support[j]] and chosen[j] == c for j in range(i)):
                continue
            chosen[i] = c
            counts[c] += 1
            yield from rec(i + 1)
            counts[c] -= 1

    yield from rec(0)


def augment_star(inst: Instance) -> tuple[Instance, tuple]:
    """Append a forced two-vertex edge after all positions: colors {1} and
    {2}. Returns the new instance and the appended edge; the appended edge
    is always the new last maximal edge."""
    g = inst.graph
    positions = g.positions()
    base = max(positions.values()) if positions else 0
    q1, q2 = _fresh_id(positions, "q1"), _fresh_id(positions, "q2")
    new_graph = OrderedGraph(
        list(positions.items()) + [(q1, base + 1), (q2, base + 2)],
        [tuple(e) for e in g.edges] + [(q1, q2)],
    )
    new_lists = {v: inst.lists.get(v) for v in g.vertices}
    new_lists[q1] = frozenset((1,))
    new_lists[q2] = frozenset((2,))
    out = Instance(new_graph, ListAssignment(new_lists))
    old_mx = {frozenset(e) for e in g.maximal_edges()}
    new_mx = {frozenset(e) for e in new_graph.maximal_edges()}
    if new_mx != old_mx | {frozenset((q1, q2))}:
        raise InternalError("the appended edge is not the only new maximal edge")
    return out, (q1, q2)


def check_link(inst: Instance, e, e_prev, g_seed: ColoredSeed, g_prev: ColoredSeed) -> bool:
    """Decide whether some list coloring psi of the span of e_prev makes
    both (psi, seed-at-e) and (psi, seed-at-e_prev) satisfy the
    compatibility and left-domination properties.

    The check reduces to a derived list assignment on the span of e_prev
    (forced values on seed supports, struck colors from seed neighborhoods
    and from left vertices anticomplete to a seed class) and decides it
    with the bounded-wide-set solver. A reduction that leaves more than
    `WIDE_CAP` full lists raises `InternalError`.
    """
    g = inst.graph
    und_prev = g.under(e_prev)
    lft_prev = g.left_of(e_prev)
    und_e = g.under(e)
    lft_e = g.left_of(e)
    sigma = g_seed.assignment()
    tau = g_prev.assignment()
    sigma_class = {i: g_seed.color_class(i) for i in COLORS}
    tau_class = {i: g_prev.color_class(i) for i in COLORS}

    # colors i such that a left vertex is anticomplete to the seed class i
    anti_tau = {
        y: frozenset(i for i in COLORS if not (g.neighbors(y) & tau_class[i]))
        for y in lft_prev
    }
    anti_sigma = {
        y: frozenset(i for i in COLORS if not (g.neighbors(y) & sigma_class[i]))
        for y in lft_e
    }

    s_set = set(g_seed.support)
    t_set = set(g_prev.support)
    new_lists = {}
    for x in sorted(und_prev, key=g.rank):
        nbrs = g.neighbors(x)
        c_x: set = set()
        for y in nbrs & lft_prev:
            c_x |= anti_tau[y]
        if x in und_e:
            for y in nbrs & lft_e:
                c_x |= anti_sigma[y]
        d_x = set(c_x)
        d_x |= {sigma[y] for y in nbrs & s_set}
        d_x |= {tau[y] for y in nbrs & t_set}
        if x in t_set and x not in s_set:
            base = {tau[x]}
        elif x in s_set and x not in t_set:
            base = {sigma[x]}
        elif x in s_set and x in t_set:
            base = {sigma[x]} & {tau[x]}
        else:
            base = set(inst.lists.get(x))
        new_lists[x] = frozenset(base - d_x)

    sub = Instance(g.induced(und_prev), ListAssignment(new_lists))
    wide = sum(1 for cs in new_lists.values() if len(cs) == 3)
    if wide > WIDE_CAP:
        raise InternalError(f"link reduction left {wide} full lists, above the cap {WIDE_CAP}")
    return solve_few_wide(sub, wide) is not None


@dataclass(frozen=True)
class SuccessTable:
    """Per maximal edge (in left-to-right order), the seeds that chain back
    to the first maximal edge."""

    edges: tuple
    successful: tuple  # tuple of tuples of ColoredSeed, parallel to edges

    def final(self) -> tuple:
        return self.successful[-1] if self.successful else ()


def success_table(inst: Instance, w: int) -> SuccessTable:
    """Left-to-right dynamic program over the maximal edges: on the first
    edge every seed is successful; afterwards a seed survives when some
    successful seed on the previous edge links to it (`check_link`)."""
    mx = inst.graph.maximal_edges()
    per_edge = []
    prev_edge = None
    prev_success: list = []
    for e in mx:
        if prev_edge is None:
            current = list(gamma(inst, e, w))
        else:
            current = []
            for g_seed in gamma(inst, e, w):
                for g_prev in prev_success:
                    if check_link(inst, e, prev_edge, g_seed, g_prev):
                        current.append(g_seed)
                        break
        per_edge.append(tuple(current))
        prev_edge = e
        prev_success = current
    return SuccessTable(tuple(mx), tuple(per_edge))


def build_sigma_profile(inst: Instance, w: int) -> Iterator[Refinement]:
    """The guessing profile: for every six-tuple of `kernels.boundary_guesses`
    with set sizes (w, w), the propagated forced lists with their
    one-color vertices deleted. Duplicate members are yielded once.

    The engine already drops every guess whose propagated lists hold an
    empty list, which is exactly what the paper's procedure discards. A
    member is keyed on its bitsets before anything is built: the mask of
    ranks whose list keeps two or more colors, and each color bitset
    within that mask. Only a new key builds its `Refinement`, and only
    when iteration reaches it, so `solve_jw` builds none past the one it
    accepts.
    """
    seen = set()
    for _, _, has in boundary_guesses(inst, w, w):
        h0, h1, h2 = has
        wide = h0 & h1 | h0 & h2 | h1 & h2
        key = (wide, h0 & wide, h1 & wide, h2 & wide)
        if key in seen:
            continue
        seen.add(key)
        yield _refinement(inst, has)


def solve_jw(inst: Instance, w: int, check_freeness: bool = True) -> Optional[Coloring]:
    """Five-step decision procedure for instances free of the width-w
    single-edge pattern; returns a witness coloring on yes instances.

    Steps: reject on a 4-clique; accept via a coloring with a color class
    smaller than 2w (`kernels.solve_small_class`, shared with `solve_j16`);
    otherwise walk the guessing profile and accept at the first member
    whose augmented instance has a successful seed on its appended final
    edge. Every link of the chain is
    decided by `check_link`.

    The chain itself only decides; on yes instances the witness is
    recovered by rerunning the exhaustive oracle on the accepting member,
    which is sized for desk scale.
    """
    if check_freeness:
        witness = contains_pattern(inst.graph, build_pattern(f"Jw:{w}"))
        if witness is not None:
            raise RefusalError(f"Jw:{w}", witness)
    if has_k4(inst.graph):
        return None
    small = solve_small_class(inst, 2 * w)
    if small is not None:
        return checked_witness(small, inst)
    for member in build_sigma_profile(inst, w):
        star, _ = augment_star(member.sub)
        table = success_table(star, w + 1)
        if table.final():
            inner = solve_bruteforce(member.sub, cap=member.sub.graph.n)
            if inner is None:
                raise InternalError("a member with a successful chain has no coloring")
            return checked_witness(member.extend(inner), inst)
    return None
