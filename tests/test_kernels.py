import functools
import itertools
from fractions import Fraction
from operator import or_

import pytest

from ordered_coloring import (
    COLORS,
    Coloring,
    Instance,
    ListAssignment,
    PreconditionError,
    build_pattern,
    contains_pattern,
    enumerate_colorings,
    has_k4,
    solve_bruteforce,
    solve_chordal,
    solve_small_class,
    solve_two_lists,
)
from ordered_coloring.core import _ranks
from ordered_coloring.kernels import (
    _ALONE,
    _FREE,
    _PAIR,
    _TUPLES,
    _chordal_coloring,
    _few_wide,
    _list_colorings,
    _mcs_peo,
    _propagate_bits,
    _rows,
    _stable_sets,
    _two_lists,
)
from ordered_coloring.rand import (
    make_rng,
    random_chordal_instance,
    random_forward_clique_graph,
    random_instance,
    random_ordered_graph,
)
from conftest import (
    _stable,
    chordal_peo,
    color_class,
    elimination_ranks,
    forward_clique_instances,
    graph,
    instance,
    positions_fuzzed,
    propagated,
    random_two_list_instance,
    reference_chordal_coloring,
    reference_mcs_peo,
    reference_propagation,
    reference_solve_chordal,
    reference_few_wide,
    reference_solve_small_class,
    reference_solve_two_lists,
    seed_coloring,
    sub_instance,
    updated_lists,
)


def coloring_set(inst, cap=20):
    return {
        tuple(sorted((str(v), c) for v, c in col.items()))
        for col in enumerate_colorings(inst, cap=cap)
    }


class TestPropagateSingletons:
    """Singleton propagation, `_propagate_bits`, on small cases."""

    def test_single_firing(self):
        inst = instance({"u": 1, "v": 2}, [("u", "v")], lists={"u": (1,), "v": (1, 2)})
        out = propagated(inst)
        assert out.lists.get("v") == {2}

    def test_wide_lists_untouched(self):
        inst = instance({"a": 1, "b": 2}, [("a", "b")])
        assert propagated(inst).lists == inst.lists

    def test_chained_firings(self):
        inst = instance(
            {"u": 1, "v": 2, "w": 3},
            [("u", "v"), ("v", "w")],
            lists={"u": (1,), "v": (1, 2), "w": (2, 3)},
        )
        out = propagated(inst)
        assert out.lists.get("v") == {2} and out.lists.get("w") == {3}
        assert coloring_set(inst) == coloring_set(out)

    def test_fixpoint_reached(self):
        rng = make_rng(31)
        for _ in range(60):
            inst = random_instance(rng, rng.randint(1, 8), rng.random(), rng.random())
            out = propagated(inst)
            for e in out.graph.edges:
                u, v = tuple(e)
                if len(out.lists.get(v)) == 1:
                    assert not (out.lists.get(u) & out.lists.get(v))
                if len(out.lists.get(u)) == 1:
                    assert not (out.lists.get(u) & out.lists.get(v))

    def test_preserves_coloring_set(self):
        rng = make_rng(32)
        for _ in range(60):
            inst = random_instance(rng, rng.randint(1, 8), rng.random(), rng.random())
            assert coloring_set(inst) == coloring_set(propagated(inst))


def sequential_propagation(rng, g, lists):
    """Frozenset singleton propagation one strike at a time, in a random
    order."""
    lists = dict(lists)
    while True:
        strikes = [
            (u, c)
            for v, cs in lists.items()
            if len(cs) == 1
            for c in cs
            for u in g.neighbors(v)
            if c in lists[u]
        ]
        if not strikes:
            return lists
        u, c = rng.choice(strikes)
        lists[u] = lists[u] - {c}


class TestPropagateBits:
    """`_propagate_bits`, the one propagation kernel, against frozenset
    references on G(n,p) graphs with some lists empty or single."""

    def corpus(self, seed):
        rng = make_rng(seed)
        for _ in range(150):
            inst = random_instance(rng, rng.randint(0, 14), rng.uniform(0, 0.5), rng.random())
            if inst.graph.n and rng.random() < 0.3:
                v = rng.choice(inst.graph.vertices)
                inst = Instance(inst.graph, updated_lists(inst.lists, {v: frozenset()}))
            yield rng, inst

    def test_matches_round_reference(self):
        for _, inst in self.corpus(34):
            g = inst.graph
            has = _propagate_bits(g.adjacency_bits(), inst.color_bits)
            got = {
                v: frozenset(c for c in COLORS if has[c - 1] >> r & 1)
                for r, v in enumerate(g.vertices)
            }
            assert got == reference_propagation(g, dict(inst.lists.items()))
            assert propagated(inst).lists == ListAssignment(got)

    def test_any_order_gives_the_same_lists_or_an_empty_one(self):
        emptied = 0
        for rng, inst in self.corpus(35):
            g = inst.graph
            got = propagated(inst).lists
            other = sequential_propagation(rng, g, dict(inst.lists.items()))
            if all(cs for _, cs in got.items()):
                assert other == dict(got.items())
            else:
                assert not all(other.values())
                emptied += 1
        assert 20 <= emptied <= 130  # both outcomes well represented


class TestSolveTwoLists:
    def test_triangle_two_colors_fails(self, triangle):
        inst = Instance(triangle, ListAssignment({v: (1, 2) for v in triangle.vertices}))
        assert solve_two_lists(inst) is None

    def test_even_cycle_alternates(self):
        g = graph({i: i for i in range(1, 5)}, [(1, 2), (2, 3), (3, 4), (1, 4)])
        inst = Instance(g, ListAssignment({v: (1, 2) for v in g.vertices}))
        result = solve_two_lists(inst)
        assert result is not None and result.validates(inst)

    def test_full_list_rejected(self):
        with pytest.raises(PreconditionError):
            solve_two_lists(instance({"a": 1}))

    def test_matches_oracle(self):
        rng = make_rng(34)
        for _ in range(300):
            inst = random_two_list_instance(rng, rng.randint(0, 10), rng.random())
            got = solve_two_lists(inst)
            expected = solve_bruteforce(inst)
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.validates(inst)


class TestSolveFewWide:
    """`_few_wide` on whole instances: {rank: color} or None."""

    def test_no_wide_equals_two_lists(self):
        rng = make_rng(35)
        for _ in range(40):
            inst = random_two_list_instance(rng, rng.randint(0, 8), rng.random())
            g = inst.graph
            got = _few_wide(g.adjacency_bits(), (1 << g.n) - 1, inst.color_bits)
            assert (got is None) == (solve_two_lists(inst) is None)

    def test_forced_third_color(self):
        inst = instance(
            {"a": 1, "b": 2, "c": 3},
            [("a", "b"), ("b", "c")],
            lists={"a": (1,), "c": (2,), "b": (1, 2, 3)},
        )
        result = _few_wide(inst.graph.adjacency_bits(), 0b111, inst.color_bits)
        assert result is not None and result[1] == 3

    def test_matches_oracle(self):
        rng = make_rng(36)
        for _ in range(200):
            inst = random_instance(rng, rng.randint(0, 10), rng.random(), full_bias=0.25)
            wide = sum(1 for v in inst.graph.vertices if len(inst.lists.get(v)) == 3)
            if wide > 3:
                continue
            g = inst.graph
            got = _few_wide(g.adjacency_bits(), (1 << g.n) - 1, inst.color_bits)
            assert (got is None) == (solve_bruteforce(inst) is None)
            if got is not None:
                assert Coloring({g.vertices[r]: c for r, c in got.items()}).validates(inst)


class TestSolveSmallClass:
    def test_zero_bound_never_succeeds(self):
        assert solve_small_class(instance({"a": 1}), 0) is None

    def test_edgeless_single_color(self):
        inst = instance({i: i for i in range(1, 4)}, lists={i: (1,) for i in range(1, 4)})
        result = solve_small_class(inst, 4)
        assert result is not None
        assert all(result[v] == 1 for v in inst.graph.vertices)

    def test_matches_filtered_oracle(self):
        rng = make_rng(37)
        for _ in range(150):
            inst = random_instance(rng, rng.randint(0, 8), rng.random(), rng.random())
            for c in (1, 2, 3):
                got = solve_small_class(inst, c)
                expected = any(
                    min(len(color_class(col, i)) for i in (1, 2, 3)) < c
                    for col in enumerate_colorings(inst)
                )
                assert (got is not None) == expected
                if got is not None:
                    assert got.validates(inst)
                    assert min(len(color_class(got, i)) for i in (1, 2, 3)) < c


def mixed_corpus(seed, count, full_bias):
    """`count` random instances, n = 0-11, string ids: lists of one, two
    or (with weight `full_bias`) three colors, and in a fifth of them one
    list emptied."""
    rng = make_rng(seed)
    for _ in range(count):
        inst = random_instance(rng, rng.randint(0, 11), rng.random(), full_bias)
        if inst.graph.n and rng.random() < 0.2:
            v = rng.choice(inst.graph.vertices)
            inst = Instance(inst.graph, updated_lists(inst.lists, {v: frozenset()}))
        yield inst


def same(got, expected) -> bool:
    """Both None, or the same witness item for item, key order included."""
    if got is None or expected is None:
        return got is expected
    return list(got.items()) == list(expected.items())


class TestReferenceDifferential:
    """The rank kernels against the frozenset code they replaced
    (`conftest.reference_*`): the same witness, key for key, in the same
    order."""

    def test_two_lists(self):
        colored = 0
        for inst in mixed_corpus(40, 400, full_bias=0):
            got = solve_two_lists(inst)
            assert same(got, reference_solve_two_lists(inst))
            colored += got is not None
        assert 100 <= colored <= 300, colored

    def test_two_lists_on_sparse_draws(self):
        # sparse graphs with mostly two-color lists leave many choices
        # free, so the model there depends on the clause order; walking
        # the edges in another order changes about one witness in 125
        rng = make_rng(45)
        colored = 0
        for _ in range(1500):
            g = random_ordered_graph(rng, rng.randint(8, 16), rng.uniform(0.1, 0.3))
            lists = {
                v: frozenset(rng.sample(COLORS, rng.choice((1, 2, 2, 2, 2)))) for v in g.vertices
            }
            inst = Instance(g, ListAssignment(lists))
            got = solve_two_lists(inst)
            assert same(got, reference_solve_two_lists(inst))
            colored += got is not None
        assert 500 <= colored <= 1000, colored

    def test_two_lists_full_list_raises_in_both(self):
        inst = instance({"a": 1, "b": 2}, [("a", "b")], lists={"a": (1, 2)})
        for solve in (solve_two_lists, reference_solve_two_lists):
            with pytest.raises(PreconditionError):
                solve(inst)

    def test_few_wide(self):
        colored = 0
        for inst in mixed_corpus(41, 400, full_bias=0.3):
            wide = sum(len(cs) == 3 for _, cs in inst.lists.items())
            if wide > 4:
                continue
            g = inst.graph
            got = _few_wide(g.adjacency_bits(), (1 << g.n) - 1, inst.color_bits)
            expected = reference_few_wide(inst)
            if got is None or expected is None:
                assert got is expected
            else:
                assert list(got.items()) == [(g.rank(v), c) for v, c in expected.items()]
            colored += got is not None
        assert colored >= 60, colored

    def test_small_class(self):
        colored = 0
        for inst in mixed_corpus(42, 300, full_bias=0.4):
            for c in (0, 1, 2, 3):
                got = solve_small_class(inst, c)
                assert same(got, reference_solve_small_class(inst, c))
                colored += got is not None
        assert colored >= 150, colored

    def test_kernel_on_a_rank_mask(self):
        # `_two_lists` on some ranks equals the reference on the induced
        # sub-instance, as the link check uses it
        rng = make_rng(43)
        colored = 0
        for _ in range(300):
            inst = random_two_list_instance(rng, rng.randint(0, 11), rng.random())
            g = inst.graph
            mask = rng.getrandbits(g.n)
            got = _two_lists(g.adjacency_bits(), mask, inst.color_bits)
            sub = sub_instance(inst, [g.vertices[r] for r in _ranks(mask)])
            expected = reference_solve_two_lists(sub)
            if got is None or expected is None:
                assert got is expected
                continue
            assert [(g.vertices[r], c) for r, c in got.items()] == list(expected.items())
            colored += 1
        assert colored >= 100, colored

    def test_stable_sets_match_combinations(self):
        rng = make_rng(44)
        for _ in range(100):
            g = random_ordered_graph(rng, rng.randint(0, 9), rng.random())
            mask = rng.getrandbits(g.n)
            members = [g.vertices[r] for r in _ranks(mask)]
            for size in range(4):
                got = [
                    tuple(g.vertices[r] for r in combo)
                    for combo, _, _ in _stable_sets(g.adjacency_bits(), mask, size)
                ]
                assert got == _stable(g, members, size)


class TestListColorings:
    """`_list_colorings` on a rank mask gives the oracle's enumeration on
    the induced sub-instance, in order; with `cap`, that sequence filtered
    by class size. Each yield's classes split the mask, and its
    neighborhoods follow its classes."""

    def test_matches_oracle_on_rank_masks(self):
        rng = make_rng(46)
        colorings = capped = 0
        for _ in range(300):
            inst = random_instance(rng, rng.randint(0, 10), rng.uniform(0.1, 0.6), rng.random())
            g = inst.graph
            bits, has = g.adjacency_bits(), inst.color_bits
            mask = rng.getrandbits(g.n)
            ranks = list(_ranks(mask))
            sub = sub_instance(inst, [g.vertices[r] for r in ranks])
            expected = [tuple(f[v] for v in sub.graph.vertices) for f in enumerate_colorings(sub)]
            got = list(_list_colorings(bits, mask, has))
            assert [tuple(seed_coloring(seed).values()) for seed in got] == expected
            for classes, near in got:
                assert classes[0] | classes[1] | classes[2] == mask
                assert sum(map(int.bit_count, classes)) == mask.bit_count()
                for i in range(3):
                    assert near[i] == functools.reduce(or_, (bits[r] for r in _ranks(classes[i])), 0)
            cap = rng.randint(0, 3)
            small = [cs for cs in expected if all(cs.count(c) <= cap for c in COLORS)]
            assert [tuple(seed_coloring(seed).values()) for seed in _list_colorings(bits, mask, has, cap)] == small
            colorings += len(expected)
            capped += len(expected) - len(small)
        assert colorings >= 2000 and capped >= 1000, (colorings, capped)


class TestHasK4:
    def test_k4_detected(self, k4):
        assert has_k4(k4)

    def test_triangle_free(self):
        g = graph({i: i for i in range(1, 5)}, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert not has_k4(g)

    def test_matches_bruteforce(self):
        rng = make_rng(38)
        for _ in range(120):
            g = random_instance(rng, rng.randint(0, 9), rng.random()).graph
            expected = any(
                all(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2))
                for combo in itertools.combinations(g.vertices, 4)
            )
            assert has_k4(g) == expected

    def test_dense_graphs_and_the_degree_table_boundary(self):
        # `has_k4` tries only ranks with three later neighbors as a
        # clique's first rank. Dense draws up to n=12, then the boundary:
        # a 4-clique planted into a K4-free graph, its first rank left with
        # exactly its three clique partners as later neighbors, and the
        # near miss with one edge among those partners taken out again
        rng = make_rng(39)
        dense = {True: 0, False: 0}
        boundary = misses = 0
        for _ in range(150):
            n = rng.randint(4, 12)
            p = rng.uniform(0.4, 0.95)
            edges = {e for e in itertools.combinations(range(n), 2) if rng.random() < p}
            expected = bool(_k4s(n, edges))
            assert has_k4(graph({i: i for i in range(n)}, edges)) == expected
            dense[expected] += 1
            while cliques := _k4s(n, edges):
                edges.discard(rng.choice(list(itertools.combinations(cliques[0], 2))))
            a, *partners = sorted(rng.sample(range(n), 4))
            edges = {(x, y) for x, y in edges if x != a} | set(
                itertools.combinations([a] + partners, 2)
            )
            cliques = _k4s(n, edges)
            assert has_k4(graph({i: i for i in range(n)}, edges))
            later = [sum(x == r for x, _ in edges) for r in range(n)]
            boundary += all(later[q[0]] == 3 for q in cliques)
            edges.discard(tuple(sorted(rng.sample(partners, 2))))
            expected = bool(_k4s(n, edges))
            assert has_k4(graph({i: i for i in range(n)}, edges)) == expected
            misses += not expected
        assert min(dense.values()) >= 10 and boundary >= 50 and misses >= 50, (dense, boundary, misses)


def _k4s(n: int, edges: set) -> list:
    """The 4-cliques of the graph on ranks 0..n-1 with edges (x, y),
    x < y, as rank tuples, by brute force."""
    return [
        q for q in itertools.combinations(range(n), 4) if set(itertools.combinations(q, 2)) <= edges
    ]


def has_long_induced_cycle(g):
    """Brute scan for an induced cycle of length at least four."""
    vs = list(g.vertices)
    for size in range(4, g.n + 1):
        for combo in itertools.combinations(vs, size):
            sub = g.induced(combo)
            if all(len(sub.neighbors(v)) == 2 for v in combo) and _connected(sub):
                return True
    return False


def _connected(g):
    vs = list(g.vertices)
    if not vs:
        return True
    seen = {vs[0]}
    stack = [vs[0]]
    while stack:
        for u in g.neighbors(stack.pop()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(vs)


def is_peo(g, order):
    """Reference checker: every vertex's later neighbors in `order` are
    pairwise adjacent."""
    index = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        later = [u for u in g.neighbors(v) if index[u] > i]
        for a, b in itertools.combinations(later, 2):
            if not g.has_edge(a, b):
                return False
    return True


def reference_chordal_peo(g):
    """Naive maximum cardinality search: re-sort the unnumbered vertices on
    every step and take the first of highest weight, then check the whole
    order. The vertex order, or None when the graph is not chordal."""
    weight = {v: 0 for v in g.vertices}
    unnumbered = set(g.vertices)
    reverse_order = []
    while unnumbered:
        v = max(sorted(unnumbered, key=g.rank), key=lambda x: weight[x])
        reverse_order.append(v)
        unnumbered.discard(v)
        for u in g.neighbors(v):
            if u in unnumbered:
                weight[u] += 1
    order = tuple(reversed(reverse_order))
    return order if is_peo(g, order) else None


def planted_cycle_graph(rng, n):
    """A forward-clique graph in which 4..n chosen vertices induce exactly
    a cycle, in random cyclic order: never chordal."""
    g = random_forward_clique_graph(rng, n, rng.random())
    size = rng.randint(4, n)
    ring = rng.sample(g.vertices, size)
    chosen = set(ring)
    edges = [tuple(e) for e in g.edges if not e <= chosen]
    edges += [(ring[i], ring[i - 1]) for i in range(size)]
    return graph([(v, g.position(v)) for v in g.vertices], edges)


def mcs_corpus(seed, per_family=40):
    """Forward-clique, G(n,p) and planted-cycle graphs with n <= 40, on
    fuzzed rational positions."""
    rng = make_rng(seed)
    for i in range(per_family):
        n = rng.randint(0, 40)
        yield random_forward_clique_graph(rng, max(n, 1), rng.random())
        yield positions_fuzzed(rng, random_ordered_graph(rng, n, rng.uniform(0, 0.3)))
        yield positions_fuzzed(rng, planted_cycle_graph(rng, max(n, 4)))


class TestChordal:
    def test_tree_is_chordal(self):
        g = graph({i: i for i in range(1, 6)}, [(1, 2), (1, 3), (3, 4), (3, 5)])
        peo = chordal_peo(g)
        assert peo is not None and is_peo(g, peo.order)

    def test_c4_is_not(self):
        g = graph({i: i for i in range(1, 5)}, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert chordal_peo(g) is None

    def test_matches_cycle_scan(self):
        rng = make_rng(39)
        for _ in range(80):
            g = random_instance(rng, rng.randint(0, 9), rng.random()).graph
            assert (chordal_peo(g) is None) == has_long_induced_cycle(g)

    def test_structural_freeness_equals_pattern_freeness(self):
        rng = make_rng(40)
        j16 = build_pattern("J16")
        for _ in range(120):
            g = random_instance(rng, rng.randint(0, 8), rng.random()).graph
            # the position order is a perfect elimination ordering exactly
            # when every vertex's forward neighbors form a clique
            assert is_peo(g, g.vertices) == (contains_pattern(g, j16) is None)

    def test_peo_forward_clique_property(self):
        rng = make_rng(41)
        for _ in range(60):
            inst = random_chordal_instance(rng, rng.randint(1, 10))
            peo = chordal_peo(inst.graph)
            assert peo is not None and is_peo(inst.graph, peo.order)

    def test_matches_naive_search(self):
        chordal = 0
        for g in mcs_corpus(43):
            peo = chordal_peo(g)
            expected = reference_chordal_peo(g)
            assert (peo is None) == (expected is None)
            if peo is not None:
                assert peo.order == expected
                chordal += 1
        assert 40 <= chordal <= 80  # both verdicts well represented

    def test_masked_search_matches_induced_graph(self):
        rng = make_rng(44)
        for g in mcs_corpus(45, per_family=20):
            bits = g.adjacency_bits()
            for _ in range(4):
                subset = [r for r in range(g.n) if rng.random() < rng.random()]
                mask = sum(1 << r for r in subset)
                got = elimination_ranks(_mcs_peo(bits, mask))
                peo = chordal_peo(g.induced(g.vertices[r] for r in subset))
                assert (got is None) == (peo is None)
                if got is not None:
                    assert tuple(g.vertices[r] for r in got) == peo.order

    def test_recorded_slots(self):
        # the slots against their definition on the reference's order: a
        # rank's later neighbors by elimination position, the earliest as
        # the head, the other as the tail
        rng = make_rng(47)
        thirds = set()
        for g in mcs_corpus(48, per_family=20):
            bits = g.adjacency_bits()
            for mask in ((1 << g.n) - 1, sum(1 << r for r in range(g.n) if rng.random() < 0.7)):
                found = _mcs_peo(bits, mask)
                order = reference_mcs_peo(bits, mask)
                assert (found is None) == (order is None)
                if found is None:
                    continue
                visit, heads, tails, third = found
                assert visit == order[::-1]
                step = {r: t for t, r in enumerate(visit)}
                many = False
                for t, r in enumerate(visit):
                    later = sorted((s for s in _ranks(bits[r] & mask) if step[s] < t), key=step.get, reverse=True)
                    slots = [step[s] for s in later] + [-1, -1]
                    many |= len(later) > 2
                    assert heads[t] == slots[0]
                    assert tails[t] == slots[1] or len(later) > 2
                assert third == many
                thirds.add(third)
        assert thirds == {False, True}

    def test_empty_and_single_vertex(self):
        assert chordal_peo(graph({})).order == ()
        assert chordal_peo(graph({1: 1})).order == (1,)
        assert elimination_ranks(_mcs_peo(graph({1: 1, 2: 2}, [(1, 2)]).adjacency_bits(), 0)) == []


def planted_k4_graph(rng, n):
    """A forward-clique graph plus a vertex just before some vertex v with
    two adjacent later neighbors a, b, joined to v, a and b: still a
    perfect elimination order by position, with the 4-clique {z, v, a, b}.
    None when no vertex has two later neighbors."""
    g = random_forward_clique_graph(rng, n, rng.random())
    bits = g.adjacency_bits()
    tops = [r for r in range(g.n) if (bits[r] >> r + 1).bit_count() == 2]
    if not tops:
        return None
    r = rng.choice(tops)
    v = g.vertices[r]
    near = [v] + [g.vertices[s] for s in _ranks(bits[r] >> r + 1 << r + 1)]
    positions = [(u, g.position(u)) for u in g.vertices] + [("z", g.position(v) - Fraction(1, 2))]
    return graph(positions, [tuple(e) for e in g.edges] + [("z", u) for u in near])


def finish_outcome(finish, bits, mask, has):
    """A finish's result as its items in order, None, or the type of the
    exception it raised."""
    try:
        got = finish(bits, mask, has)
    except PreconditionError as exc:
        return type(exc)
    return None if got is None else list(got.items())


class TestChordalFinishDifferential:
    """The finish reads its elimination slots from `_mcs_peo` and the rows
    of its free positions from `_FREE`; the reference rebuilds the slots
    from the elimination order and runs every position's loop."""

    @staticmethod
    def _lists(rng, n):
        # one mask per rank: full, two-color and one-color lists, with now
        # and then an empty one, as three color bitsets
        kind = rng.random()
        has = [0, 0, 0]
        for r in range(n):
            if kind < 0.25:
                m = 7
            elif kind < 0.5:
                m = rng.choice((3, 5, 6))
            else:
                m = rng.choice((1, 2, 4, 3, 5, 6, 3, 5, 6, 7, 7, 7))
            for i in range(3):
                if m >> i & 1:
                    has[i] |= 1 << r
        if n and rng.random() < 0.1:
            r = rng.randrange(n)
            has = [h & ~(1 << r) for h in has]
        return tuple(has)

    def _graphs(self, rng):
        for i in range(1600):
            family = i % 4
            n = rng.randint(0, 40)
            if family == 0:
                g = random_forward_clique_graph(rng, max(n, 1), rng.random())
            elif family == 1:
                g = planted_k4_graph(rng, max(n, 3))
                if g is None:
                    continue
            elif family == 2:
                g = planted_cycle_graph(rng, max(n, 4))
            else:
                g = random_ordered_graph(rng, n, rng.uniform(0, 0.2))
            yield family, g

    def test_matches_the_reference(self):
        rng = make_rng(4701)
        outcomes = {"colored": 0, "none": 0, "4-clique": 0, "not chordal": 0, "masked": 0}
        for family, g in self._graphs(rng):
            bits = g.adjacency_bits()
            everyone = (1 << g.n) - 1
            masks = [everyone]
            masks += [sum(1 << r for r in range(g.n) if rng.random() < 0.6) for _ in range(2)]
            for mask in masks:
                has = self._lists(rng, g.n)
                got = finish_outcome(_chordal_coloring, bits, mask, has)
                assert got == finish_outcome(reference_chordal_coloring, bits, mask, has)
                if mask != everyone:
                    outcomes["masked"] += got is not PreconditionError
                if got is PreconditionError:
                    outcomes["not chordal"] += 1
                elif got is not None:
                    outcomes["colored"] += 1
                elif family == 1 and mask == everyone:
                    outcomes["4-clique"] += 1
                else:
                    outcomes["none"] += 1
        assert all(count >= 200 for count in outcomes.values()), outcomes

    def test_free_table(self):
        # every entry against rows computed with all constraints open: the
        # first color of its own list, ascending, off both slots' colors
        for own in range(1, 8):
            for head in range(8):
                for tail in range(8):
                    rows, allowed, missing = _FREE[own][head][tail]
                    assert (rows, allowed, missing) == _rows(own, head, tail, _ALONE, _PAIR, _PAIR)
                    expected = [0] * 16
                    slots = [(a, b) for a in _TUPLES[head] or (0,) for b in _TUPLES[tail] or (0,)]
                    for a, b in slots:
                        expected[4 * a + b] = next((c for c in _TUPLES[own] if c not in (a, b)), 0)
                    assert list(rows) == expected
                    assert allowed == sum(1 << key for key, c in enumerate(expected) if c)
                    assert missing == (head != 0 and 0 in (expected[4 * a + b] for a, b in slots))


class TestSolveChordal:
    def test_triangle(self, triangle):
        result = solve_chordal(Instance.with_full_lists(triangle))
        assert result is not None

    def test_k4_rejected_as_uncolorable(self, k4):
        assert solve_chordal(Instance.with_full_lists(k4)) is None

    def test_nonchordal_precondition(self):
        g = graph({i: i for i in range(1, 5)}, [(1, 2), (2, 3), (3, 4), (1, 4)])
        with pytest.raises(PreconditionError):
            solve_chordal(Instance.with_full_lists(g))

    def test_matches_reference_dp(self):
        # the same witness, key order included, as the vertex-keyed DP
        rng = make_rng(46)
        outcomes = {"colored": 0, "empty list": 0, "4-clique": 0, "other none": 0}
        for inst in forward_clique_instances(rng, 150):
            got = solve_chordal(inst)
            expected = reference_solve_chordal(inst)
            assert (got is None) == (expected is None)
            if got is not None:
                assert list(got.items()) == list(expected.items())
                outcomes["colored"] += 1
            elif not all(cs for _, cs in inst.lists.items()):
                outcomes["empty list"] += 1
            elif has_k4(inst.graph):
                outcomes["4-clique"] += 1
            else:
                outcomes["other none"] += 1
        assert all(count >= 5 for count in outcomes.values()), outcomes

    def test_matches_oracle_on_random_chordal(self):
        rng = make_rng(42)
        for _ in range(250):
            inst = random_chordal_instance(rng, rng.randint(0, 12), rng.random())
            got = solve_chordal(inst)
            assert (got is None) == (solve_bruteforce(inst) is None)
            if got is not None:
                assert got.validates(inst)
