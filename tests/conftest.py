import itertools

import pytest

from ordered_coloring import (
    COLORS,
    Coloring,
    Instance,
    ListAssignment,
    OrderedGraph,
    enumerate_colorings,
    is_isomorphic,
)


def brute_contains(g: OrderedGraph, h: OrderedGraph):
    """Independent oracle for pattern containment: try every vertex subset."""
    if h.n > g.n:
        return None
    for combo in itertools.combinations(g.vertices, h.n):
        if is_isomorphic(g.induced(combo), h):
            return frozenset(combo)
    return None


def property_x(inst: Instance, phi: Coloring, seed) -> bool:
    """Compatibility plus joint properness: phi and the seed agree where
    they overlap, and their union is a proper list coloring of the graph
    induced on the union of their domains."""
    sigma = seed.assignment()
    for v in seed.support:
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


def property_y(inst: Instance, phi: Coloring, seed, e) -> bool:
    """Compatibility plus left-domination: every vertex left of e seeing
    color i inside the span of e (under phi) also has a seed neighbor of
    color i."""
    sigma = seed.assignment()
    for v in seed.support:
        if v in phi and phi[v] != sigma[v]:
            return False
    g = inst.graph
    und, lft = g.under_left(e)
    classes = {i: seed.color_class(i) for i in COLORS}
    for x in lft:
        nbrs = g.neighbors(x)
        for y in nbrs:
            if y in und and y in phi:
                i = phi[y]
                if not (nbrs & classes[i]):
                    return False
    return True


def reference_check_link(inst: Instance, e, e_prev, g_seed, g_prev) -> bool:
    """Independent oracle for `jw.check_link`: sweep every list coloring
    psi of the span of e_prev and test both properties against both seeds
    directly. Same signature, so it can stand in for the link check."""
    sub = inst.sub_instance(inst.graph.under(e_prev))
    for psi in enumerate_colorings(sub, cap=sub.graph.n):
        if (
            property_x(inst, psi, g_seed)
            and property_y(inst, psi, g_seed, e)
            and property_x(inst, psi, g_prev)
            and property_y(inst, psi, g_prev, e_prev)
        ):
            return True
    return False


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
