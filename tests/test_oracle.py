import itertools
from collections import Counter

import pytest

from ordered_coloring import (
    CapExceededError,
    InputError,
    Instance,
    ListAssignment,
    NaeInstance,
    enumerate_colorings,
    nae_bruteforce,
    solve_bruteforce,
)
from ordered_coloring.rand import make_rng, random_instance
from conftest import count_colorings, instance, positions_fuzzed


class TestSolveBruteforce:
    def test_empty_graph(self):
        result = solve_bruteforce(instance({}))
        assert result is not None and len(result) == 0

    def test_triangle_full_lists(self, triangle):
        result = solve_bruteforce(Instance.with_full_lists(triangle))
        assert result is not None and result.validates(Instance.with_full_lists(triangle))

    def test_k4_needs_four_colors(self, k4):
        assert solve_bruteforce(Instance.with_full_lists(k4)) is None

    def test_empty_list_blocks(self):
        inst = instance({"a": 1}, lists={"a": ()})
        assert solve_bruteforce(inst) is None

    def test_cap_refusal(self):
        inst = instance({i: i for i in range(1, 12)})
        with pytest.raises(CapExceededError):
            solve_bruteforce(inst, cap=10)

    def test_deterministic_lexicographic(self):
        inst = instance({"a": 1, "b": 2}, [("a", "b")])
        first = solve_bruteforce(inst)
        assert first["a"] == 1 and first["b"] == 2

    def test_witness_iff_positive_count(self):
        rng = make_rng(101)
        for _ in range(80):
            inst = random_instance(rng, rng.randint(0, 7), rng.random(), rng.random())
            assert (solve_bruteforce(inst) is not None) == (count_colorings(inst) > 0)


def product_colorings(inst: Instance) -> list:
    """Every L-coloring as a color tuple over the ranks, by brute force:
    ranks ascending, each list sorted, the proper ones of
    `itertools.product` in its order."""
    g = inst.graph
    edges = [tuple(g.rank(v) for v in e) for e in g.edges]
    return [
        colors
        for colors in itertools.product(*(sorted(inst.lists.get(v)) for v in g.vertices))
        if all(colors[r] != colors[s] for r, s in edges)
    ]


class TestEnumerateColorings:
    def test_matches_product_in_order(self):
        # seeded draws at n = 0..8, a fifth with one list emptied, each
        # also with fresh positions: the whole sequence, item for item
        rng = make_rng(2718)
        sizes = Counter()
        for i in range(360):
            inst = random_instance(rng, i % 9, rng.random(), rng.random())
            if inst.graph.n and rng.random() < 0.2:
                emptied = rng.choice(inst.graph.vertices)
                lists = {v: () if v == emptied else cs for v, cs in inst.lists.items()}
                inst = Instance(inst.graph, ListAssignment(lists))
            sizes.update(len(cs) for _, cs in inst.lists.items())
            for case in (inst, Instance(positions_fuzzed(rng, inst.graph), inst.lists)):
                order = case.graph.vertices
                seen = []
                for coloring in enumerate_colorings(case):
                    assert coloring.domain() == frozenset(order)
                    seen.append(tuple(coloring[v] for v in order))
                assert seen == product_colorings(case)
        assert all(sizes[k] > 0 for k in (0, 1, 2, 3))


class TestCountColorings:
    def test_single_vertex_two_colors(self):
        assert count_colorings(instance({"a": 1}, lists={"a": (1, 2)})) == 2

    def test_single_edge_two_lists(self):
        inst = instance({"a": 1, "b": 2}, [("a", "b")], lists={"a": (1, 2), "b": (1, 2)})
        assert count_colorings(inst) == 2

    def test_triangle_has_six_proper_colorings(self, triangle):
        assert count_colorings(Instance.with_full_lists(triangle)) == 6

    def test_enumeration_is_sorted_and_distinct(self):
        inst = instance({"a": 1, "b": 2, "c": 3}, [("a", "b")])
        seen = list(enumerate_colorings(inst))
        keys = [tuple(c[v] for v in inst.graph.vertices) for c in seen]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_order_type_invariance(self):
        # colorings ignore the ordering: fuzzing positions keeps the count
        rng = make_rng(777)
        for _ in range(25):
            inst = random_instance(rng, rng.randint(1, 6), rng.random(), rng.random())
            fuzzed = Instance(positions_fuzzed(rng, inst.graph), inst.lists)
            assert count_colorings(inst) == count_colorings(fuzzed)


class TestNae:
    def test_single_clause_satisfiable(self):
        assert nae_bruteforce(NaeInstance(3, [(1, 2, 3)])) is not None

    def test_clause_needs_three_distinct(self):
        with pytest.raises(InputError):
            NaeInstance(1, [(1, 1, 1)])

    def test_out_of_range_variable(self):
        with pytest.raises(InputError):
            NaeInstance(2, [(1, 2, 3)])

    def test_four_clause_instance_matches_exhaustive(self):
        inst = NaeInstance(4, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
        result = nae_bruteforce(inst)
        expected = None
        for a in range(16):
            bits = [bool(a >> i & 1) for i in range(4)]
            if all(1 <= sum(bits[x - 1] for x in cl) <= 2 for cl in inst.clauses):
                expected = bits
                break
        assert (result is None) == (expected is None)
        if result is not None:
            assert list(result) == expected

    def test_complement_closure(self):
        rng = make_rng(55)
        for _ in range(40):
            nv = rng.randint(3, 6)
            clauses = [tuple(sorted(rng.sample(range(1, nv + 1), 3))) for _ in range(rng.randint(1, 5))]
            inst = NaeInstance(nv, clauses)
            masks = [sum(1 << (x - 1) for x in cl) for cl in inst.clauses]

            def satisfies(a):
                return all(0 < (a & m) < m for m in masks)

            for a in range(1 << nv):
                assert satisfies(a) == satisfies(a ^ ((1 << nv) - 1))

    def test_assignment_satisfies(self):
        rng = make_rng(56)
        for _ in range(30):
            nv = rng.randint(3, 8)
            inst = NaeInstance(
                nv, [tuple(sorted(rng.sample(range(1, nv + 1), 3))) for _ in range(rng.randint(1, 6))]
            )
            result = nae_bruteforce(inst)
            if result is not None:
                for cl in inst.clauses:
                    values = [result[x - 1] for x in cl]
                    assert any(values) and not all(values)
