"""Seeded random instances for tests and the acceptance corpus.

The generator is Python's ``random.Random`` (Mersenne Twister), always
constructed from an explicit seed, so every corpus is reproducible from
the seed that names it.
"""

from __future__ import annotations

import random

from .core import Instance, ListAssignment, OrderedGraph, contains_pattern
from .errors import CapExceededError, InputError, InternalError
from .oracle import NaeInstance

_PROPER_SUBSETS = (
    frozenset((1,)),
    frozenset((2,)),
    frozenset((3,)),
    frozenset((1, 2)),
    frozenset((1, 3)),
    frozenset((2, 3)),
)


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def _check_size(n: int) -> None:
    if n < 0:
        raise InputError(f"n must be nonnegative, got {n}")


def _check_prob(name: str, p: float) -> None:
    if not 0 <= p <= 1:  # NaN fails both comparisons
        raise InputError(f"{name} must lie in [0, 1], got {p}")


def random_ordered_graph(rng: random.Random, n: int, edge_prob: float) -> OrderedGraph:
    _check_size(n)
    _check_prob("edge_prob", edge_prob)
    verts = [(f"v{i}", i) for i in range(1, n + 1)]
    edges = [
        (f"v{i}", f"v{j}")
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < edge_prob
    ]
    return OrderedGraph(verts, edges)


def random_lists(rng: random.Random, g: OrderedGraph, full_bias: float = 0.5) -> ListAssignment:
    _check_prob("full_bias", full_bias)
    lists = {}
    for v in g.vertices:
        if rng.random() < full_bias:
            lists[v] = frozenset((1, 2, 3))
        else:
            lists[v] = rng.choice(_PROPER_SUBSETS)
    return ListAssignment(lists)


def random_instance(
    rng: random.Random, n: int, edge_prob: float, full_bias: float = 0.5
) -> Instance:
    g = random_ordered_graph(rng, n, edge_prob)
    return Instance(g, random_lists(rng, g, full_bias))


def random_pattern_free_instance(
    rng: random.Random,
    pattern: OrderedGraph,
    n: int,
    edge_prob: float,
    full_bias: float = 0.5,
    max_tries: int = 5000,
) -> Instance:
    """Rejection-sample an instance whose graph avoids the pattern; when
    `max_tries` draws all contain it, raise `CapExceededError`."""
    for _ in range(max_tries):
        g = random_ordered_graph(rng, n, edge_prob)
        if contains_pattern(g, pattern) is None:
            return Instance(g, random_lists(rng, g, full_bias))
    raise CapExceededError(f"no pattern-free graph found in {max_tries} tries (n={n})")


def random_forward_clique_graph(rng: random.Random, n: int, attach_prob: float = 0.7) -> OrderedGraph:
    """Build a graph in which every vertex's forward neighborhood is a
    clique, by choosing each vertex's forward neighbors as a clique among
    the later vertices. Such graphs avoid the two-forward-edge pattern:
    the reversed order is a perfect elimination ordering, so no rank is
    open (`core._degree_masks`) and the matcher settles every `J16:k,l`
    before it places a vertex."""
    _check_size(n)
    _check_prob("attach_prob", attach_prob)
    names = [f"v{i}" for i in range(1, n + 1)]
    fwd: dict = {v: set() for v in names}
    for i in range(n - 2, -1, -1):
        v = names[i]
        if rng.random() >= attach_prob:
            continue
        u = names[rng.randint(i + 1, n - 1)]
        clique = {u}
        candidates = set(fwd[u])
        while candidates and rng.random() < 0.5:
            w = rng.choice(sorted(candidates))
            clique.add(w)
            candidates &= fwd[w] | {x for x in names if w in fwd[x]}
            candidates.discard(w)
            candidates = {
                x for x in candidates if all(x in fwd[y] or y in fwd[x] for y in clique)
            }
        fwd[v] = clique
    edges = [(v, u) for v, ws in fwd.items() for u in ws]
    return OrderedGraph([(v, i + 1) for i, v in enumerate(names)], edges)


def random_j16free_instance(
    rng: random.Random,
    k: int,
    l: int,
    n: int,
    full_bias: float = 0.5,
    rejection_tries: int = 400,
) -> Instance:
    """An instance avoiding the padded two-forward-edge pattern: mixes
    rejection sampling with the direct forward-clique construction (whose
    output avoids the unpadded pattern and therefore every padding)."""
    from .patterns import build_pattern

    pattern = build_pattern(f"J16:{k},{l}")
    if rng.random() < 0.5:
        for _ in range(rejection_tries):
            g = random_ordered_graph(rng, n, rng.uniform(0.3, 0.9))
            if contains_pattern(g, pattern) is None:
                return Instance(g, random_lists(rng, g, full_bias))
    g = random_forward_clique_graph(rng, n)
    if contains_pattern(g, pattern) is not None:
        raise InternalError("a forward-clique graph contains the two-forward-edge pattern")
    return Instance(g, random_lists(rng, g, full_bias))


def random_chordal_instance(
    rng: random.Random, n: int, full_bias: float = 0.5, max_clique: int = 3
) -> Instance:
    """Grow a chordal graph by attaching each new vertex to a clique inside
    an existing clique; positions are a random permutation."""
    names = [f"v{i}" for i in range(1, n + 1)]
    cliques = [set()]
    edges = []
    present: list = []
    for v in names:
        base = rng.choice(cliques)
        size = rng.randint(0, min(len(base), max_clique))
        attach = rng.sample(sorted(base), size) if size else []
        for u in attach:
            edges.append((u, v))
        cliques.append(set(attach) | {v})
        present.append(v)
    positions = list(range(1, n + 1))
    rng.shuffle(positions)
    g = OrderedGraph(zip(names, positions), edges)
    return Instance(g, random_lists(rng, g, full_bias))


def random_nae(rng: random.Random, num_vars: int, num_clauses: int) -> NaeInstance:
    clauses = [
        tuple(sorted(rng.sample(range(1, num_vars + 1), 3))) for _ in range(num_clauses)
    ]
    return NaeInstance(num_vars, clauses)
