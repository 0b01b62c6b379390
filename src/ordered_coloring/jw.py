"""Polynomial solver for instances excluding the single-edge pattern with w
isolated vertices before, between, and after the edge.

The engine enumerates colored seeds on the span of each maximal edge,
chains them left to right through a compatibility condition decided on the
span of the previous maximal edge, and reads the answer off the seeds of a
forced dominating edge appended on the right.

From the guess to the witness, a member is the three color bitsets of its
lists on the input graph's ranks (see `Instance.color_bits`), and the
chain runs on the mask of its ranks whose list keeps two or more colors.
A survivor keeps the link coloring that admitted it and its predecessor,
and the witness of a yes instance is glued from the accepting path's link
colorings; no exhaustive search runs. What stays exponential is `gamma`,
which enumerates every support of a span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .core import Coloring, Instance, _maximal_edges, _ranks, contains_pattern
from .errors import InternalError, RefusalError
from .kernels import _few_wide, _list_colorings, _wide, _witness, boundary_guesses, has_k4, solve_small_class
from .patterns import build_pattern

# Most full lists a link reduction may leave; `kernels._few_wide` tries
# up to 3^c colorings of them, so more is a bug, not a slow instance.
WIDE_CAP = 16


def class_cap(w: int) -> int:
    """Bound on each color class of a seed."""
    return 27 * w * w + 3


@dataclass(frozen=True)
class Member:
    """A list instance on ranks, which the seed chain runs on: the ranks in
    `mask`, rank r with the neighbors `bits[r] & mask` and the colors
    i + 1 whose bitset `has[i]` holds r. Ranks below the input graph's
    vertex count are its own; `augment_star` appends two more."""

    bits: tuple
    has: tuple
    mask: int


def _between(a: int, b: int) -> int:
    """The ranks a..b, inclusive, as a mask."""
    return (2 << b) - (1 << a)


def gamma(m: Member, e: tuple, w: int) -> Iterator[tuple]:
    """All seeds on the span of the edge e, a rank pair of m: supports
    containing both endpoints, in ascending bitmask order over the span's
    ranks; per support, all proper list colorings in lexicographic order,
    with every color class bounded by `class_cap(w)`, from
    `kernels._list_colorings`. A seed is its class masks (classes, near):
    the three color classes as rank masks, whose union is the support,
    and per class the ranks adjacent to it in m.

    Every support of the span is enumerated. `solve_jw` runs the chain
    with w + 1, so at w = 1 the cap is `class_cap(2)` = 111, and it cannot
    bind on a span of 111 ranks or fewer.
    """
    a, b = e
    free = list(_ranks(m.mask & _between(a + 1, b - 1)))
    cap = class_cap(w)
    for sub in range(1 << len(free)):
        support = 1 << a | 1 << b | sum(1 << r for i, r in enumerate(free) if sub >> i & 1)
        yield from _list_colorings(m.bits, support, m.has, cap)


def augment_star(m: Member) -> Member:
    """Append a forced two-rank edge after all ranks: colors {1} and {2}.
    The appended edge, ranks (len(m.bits), len(m.bits) + 1), is always the
    new last maximal edge."""
    q1 = len(m.bits)
    q2 = q1 + 1
    h0, h1, h2 = m.has
    star = Member(
        m.bits + (1 << q2, 1 << q1),
        (h0 | 1 << q1, h1 | 1 << q2, h2),
        m.mask | 1 << q1 | 1 << q2,
    )
    if _maximal_edges(star.bits, star.mask) != _maximal_edges(m.bits, m.mask) + ((q1, q2),):
        raise InternalError("the appended edge is not the only new maximal edge")
    return star


def check_link(m: Member, e, e_prev, g_seed: tuple, g_prev: tuple) -> Optional[dict]:
    """Find a list coloring psi of the span of e_prev that makes both
    (psi, seed-at-e) and (psi, seed-at-e_prev) satisfy the compatibility
    and left-domination properties; each seed is a `gamma` pair of class
    masks. Returns psi as {rank: color} on the member's ranks in that
    span, ranks ascending, or None when there is none.

    The check reduces to a derived list assignment on the span of e_prev
    (forced values on seed supports, struck colors from seed neighborhoods
    and from left vertices anticomplete to a seed class), built as one
    rank mask per color from the seeds' class masks, and decides it with
    the bounded-wide-set kernel `kernels._few_wide` on the member's ranks
    in that span, with no induced graph. A derived list that is empty
    decides the link at once. A reduction that leaves more than
    `WIDE_CAP` full lists raises `InternalError`.
    """
    bits, mask = m.bits, m.mask
    (a, b), (a_prev, b_prev) = e, e_prev
    und_prev = mask & _between(a_prev, b_prev)
    und_e = mask & _between(a, b)
    sigma, sigma_near = g_seed
    tau, tau_near = g_prev
    s_set = sigma[0] | sigma[1] | sigma[2]
    t_set = tau[0] | tau[1] | tau[2]
    derived = []
    for i in range(3):
        # the left vertices anticomplete to each seed's class i
        anti_tau = mask & ((1 << a_prev) - 1) & ~tau_near[i]
        anti_sigma = mask & ((1 << a) - 1) & ~sigma_near[i]
        strike = anti_tau | sigma[i] | tau[i]
        keep = und_prev & (
            m.has[i] & ~(s_set | t_set)  # on neither support: its own list
            | sigma[i] & ~t_set  # on one support: that seed's color
            | tau[i] & ~s_set
            | sigma[i] & tau[i]  # on both: their color, if they agree
        )
        for x in _ranks(keep):
            if bits[x] & ((strike | anti_sigma) if und_e >> x & 1 else strike):
                keep ^= 1 << x
        derived.append(keep)

    wide = (derived[0] & derived[1] & derived[2]).bit_count()
    if wide > WIDE_CAP:
        raise InternalError(f"link reduction left {wide} full lists, above the cap {WIDE_CAP}")
    if derived[0] | derived[1] | derived[2] != und_prev:
        return None
    return _few_wide(bits, und_prev, derived)


def chain(m: Member, w: int) -> Optional[dict]:
    """The seed chain over the maximal edges of m, left to right. Every
    `gamma` seed of the first edge survives; a later seed survives when a
    survivor of the previous edge links to it (`check_link`), and the
    first such survivor is its predecessor. Returns None when no seed
    survives on the last edge, else the colors read off the path from
    the last edge's first survivor: each rank takes the color of the psi
    of the rightmost span that holds it. With a single maximal edge there
    is no link, and a seed on it gives {}.

    A survivor is a node (seed, psi, predecessor), psi being what
    `check_link` returned when the node was made. The first edge is not
    listed: each seed of the second edge reruns `gamma` on it and stops
    at its first link. Each edge's list is dropped once the next one is
    done, so only nodes on some survivor's path stay alive.

    This gives what tabulating every edge's survivors with first-link
    back-pointers, then recomputing the links on the path, gives:
    - same predecessor: `gamma` yields the first edge's seeds, all of
      them survivors, in the same order on every run, and later lists
      keep `gamma` order, so candidates are tried in table order;
    - same psi: the node keeps what `check_link` returned for that seed
      and that predecessor, the very call a recomputation repeats;
    - same merge order: the psis are merged first span to last with
      `|=`, so a rank keeps its first position and the rightmost color.
    """
    first, *rest = _maximal_edges(m.bits, m.mask)
    if not rest:
        return {} if next(gamma(m, first, w), None) is not None else None
    nodes, e_prev = None, first  # nodes: the previous edge's survivors
    for e in rest:
        survivors = []
        for seed in gamma(m, e, w):
            preds = nodes if nodes is not None else ((g, None, None) for g in gamma(m, first, w))
            for pred in preds:
                psi = check_link(m, e, e_prev, seed, pred[0])
                if psi is not None:
                    survivors.append((seed, psi, pred))
                    break
        if not survivors:
            return None
        nodes, e_prev = survivors, e
    found, node = [], nodes[0]
    while node[1] is not None:  # a first-edge seed carries no psi
        found.append(node[1])
        node = node[2]
    ranks: dict = {}
    for psi in reversed(found):
        ranks |= psi
    return ranks


def build_sigma_profile(inst: Instance, w: int) -> Iterator[tuple]:
    """The guessing profile: for every six-tuple of `kernels.boundary_guesses`
    with set sizes (w, w), the propagated forced lists as color bitsets on
    `inst`'s ranks. Duplicate members are yielded once.

    The engine already drops every guess whose propagated lists hold an
    empty list, which is exactly what the paper's procedure discards. A
    member is keyed on the mask of ranks whose list keeps two or more
    colors and each color bitset within that mask; the one-color ranks
    are the paper's deleted singletons. The first guess with a new key is
    yielded, so the forced colors are that guess's.
    """
    seen = set()
    for _, has in boundary_guesses(inst, w, w):
        h0, h1, h2 = has
        wide = _wide(has)
        key = (wide, h0 & wide, h1 & wide, h2 & wide)
        if key in seen:
            continue
        seen.add(key)
        yield has


def solve_jw(inst: Instance, w: int) -> Optional[Coloring]:
    """Five-step decision procedure for instances free of the width-w
    single-edge pattern; returns a witness coloring on yes instances.

    Steps: reject on a 4-clique; accept via a coloring with a color class
    smaller than 2w (`kernels.solve_small_class`, shared with `solve_j16`);
    otherwise walk the guessing profile and accept at the first member
    whose augmented instance has a successful seed on its appended final
    edge. Every link of the chain is decided by `check_link`. The chain
    runs with w + 1, so at w = 1 a seed's color classes are capped at
    `class_cap(2)` = 111, which cannot bind on a span of 111 vertices or
    fewer.

    The witness is read off the accepting chain (`chain`). Walk the
    predecessors from the first final survivor; on that path write
    sigma_k for the seed on span k and psi_k for the link coloring of
    span k that joins sigma_k to sigma_{k+1}. Each wide rank takes its
    color from psi_k for the rightmost span k that holds it. Every edge
    between wide ranks lies in some span, so a wide rank in no span has
    no wide neighbor; it takes the smallest color of its list, and a
    one-color rank keeps its color (`kernels._witness`, which validates
    the result once). The member is propagated, so every
    list avoids the colors of its one-color neighbors, and each psi_k
    colors its span properly from those lists.

    That leaves an edge uv, u < v, between wide ranks whose rightmost
    spans k_u and k_v differ. Spans are rank intervals whose two ends
    both increase, and some span up to k_u holds uv; so v lies in span
    k_u, k_u < k_v, and u lies left of every span after k_u. Say
    psi_{k_v} gives v color i. Then u has a neighbor of color i in
    sigma_j for j = k_v, by left-domination (property Y) of psi_{k_v} by
    sigma_{k_v}. While j > k_u + 1, that neighbor y lies in span j - 1
    too (uy lies in a span up to k_u), where psi_{j-1} agrees with
    sigma_j (compatibility), so psi_{j-1} gives y color i, and
    left-domination of psi_{j-1} by sigma_{j-1} gives u a neighbor of
    color i in sigma_{j-1}. So u has a neighbor of color i in
    sigma_{k_u+1}, whose span u is left of. Compatibility with joint
    properness (property X) of psi_{k_u} and sigma_{k_u+1} makes their
    union proper, so psi_{k_u} keeps u off color i.
    """
    witness = contains_pattern(inst.graph, build_pattern(f"Jw:{w}"))
    if witness is not None:
        raise RefusalError(f"Jw:{w}", witness)
    g = inst.graph
    if has_k4(g):
        return None
    small = solve_small_class(inst, 2 * w)  # validated there
    if small is not None:
        return small
    bits = g.adjacency_bits()
    for has in build_sigma_profile(inst, w):
        ranks = chain(augment_star(Member(bits, has, _wide(has))), w + 1)
        if ranks is not None:
            return _witness(inst, ranks, has)
    return None

