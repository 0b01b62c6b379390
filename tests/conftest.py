import itertools

import pytest

from ordered_coloring import (
    COLORS,
    Coloring,
    Instance,
    ListAssignment,
    OrderedGraph,
    PreconditionError,
    chordal_peo,
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
            lists = lists.updated({rng.choice(g.vertices): frozenset()})
        yield Instance(g, lists)


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
