"""Edge cases cutting across modules: empty lists, degenerate sizes,
parameter generality beyond the acceptance ranges, and loud-failure
paths."""

import pytest

from ordered_coloring import (
    Coloring,
    Instance,
    InternalError,
    build_pattern,
    solve_bruteforce,
    solve_j16,
    solve_jw,
    solve_two_lists,
)
from ordered_coloring.core import _maximal_edges, checked_witness
from ordered_coloring import jw, kernels
from ordered_coloring.j16 import _chordalize_members, _finish_member, _fwdnbr_members
from ordered_coloring.jw import augment_star, check_link, gamma
from ordered_coloring.rand import (
    make_rng,
    random_j16free_instance,
    random_pattern_free_instance,
)
from conftest import chain_member, graph, instance


class TestEmptyListsThroughSolvers:
    def test_jw_rejects_empty_list(self):
        inst = instance({1: 1, 2: 2}, [(1, 2)], lists={1: ()})
        assert solve_jw(inst, 1) is None

    def test_j16_rejects_empty_list(self):
        inst = instance({1: 1, 2: 2}, [(1, 2)], lists={2: ()})
        assert solve_j16(inst, 1, 1) is None

    def test_isolated_vertices_only(self):
        inst = instance({i: i for i in range(1, 4)}, lists={1: (2,), 2: (2,), 3: (2,)})
        for solver in (lambda i: solve_jw(i, 1),
                       lambda i: solve_j16(i, 0, 0)):
            got = solver(inst)
            assert got is not None and got.validates(inst)


class TestDegenerateSizes:
    def test_single_vertex(self):
        inst = instance({1: 5})
        assert solve_jw(inst, 1).validates(inst)
        assert solve_j16(inst, 1, 1).validates(inst)

    def test_single_edge(self):
        inst = instance({1: 1, 2: 2}, [(1, 2)])
        assert solve_jw(inst, 1).validates(inst)
        assert solve_j16(inst, 0, 0).validates(inst)

    def test_empty_graph_everywhere(self):
        inst = instance({})
        assert solve_jw(inst, 1) is not None
        assert solve_j16(inst, 2, 2) is not None
        assert solve_bruteforce(inst) is not None


class TestParameterGenerality:
    def test_j16_larger_padding(self):
        # beyond the acceptance grid: padding (2,0), (0,2), (2,1)
        rng = make_rng(301)
        for k, l in ((2, 0), (0, 2), (2, 1)):
            for _ in range(15):
                inst = random_j16free_instance(rng, k, l, rng.randint(2, 9))
                got = solve_j16(inst, k, l)
                assert (got is None) == (solve_bruteforce(inst) is None), (k, l)
                if got is not None:
                    assert got.validates(inst)

    def test_jw_width_two_more_trials(self):
        rng = make_rng(302)
        pattern = build_pattern("Jw:2")
        for _ in range(40):
            inst = random_pattern_free_instance(
                rng, pattern, rng.randint(2, 7), rng.uniform(0.4, 0.95), rng.uniform(0.3, 0.8)
            )
            got = solve_jw(inst, 2)
            assert (got is None) == (solve_bruteforce(inst) is None)

    def test_jw_wide_cap_fails_loudly(self, monkeypatch):
        # an edgeless middle leaves every derived list full, so a tiny cap
        # must trip rather than silently truncate
        monkeypatch.setattr(jw, "WIDE_CAP", 0)
        g = graph({i: i for i in range(1, 8)}, [(1, 7), (2, 6)])
        inst = Instance.with_full_lists(g)
        star = augment_star(chain_member(inst))
        mx = _maximal_edges(star.bits, star.mask)
        e_prev, e = mx[0], mx[1]
        g_prev = next(iter(gamma(star, e_prev, 2)))
        g_cur = next(iter(gamma(star, e, 2)))
        with pytest.raises(InternalError):
            check_link(star, e, e_prev, g_cur, g_prev)

    def test_jw_refusal_precedes_everything(self):
        # freeness checking fires before any other work, even on a graph
        # with a 4-clique
        verts = {i: i for i in range(1, 10)}
        edges = [(a, b) for a in range(5, 9) for b in range(a + 1, 9)]
        edges.append((2, 4))
        inst = instance(verts, edges)
        from ordered_coloring import RefusalError

        with pytest.raises(RefusalError):
            solve_jw(inst, 1)


class TestDenseAndSparseExtremes:
    def test_complete_bipartite_through_j16(self):
        # K_{3,3} ordered one side first is fork-free when each left vertex
        # sees a clique... it is not, so build the clique-forward version
        rng = make_rng(303)
        for _ in range(10):
            inst = random_j16free_instance(rng, 0, 0, 10, full_bias=1.0)
            got = solve_j16(inst, 0, 0)
            assert (got is None) == (solve_bruteforce(inst) is None)

    def test_all_singleton_lists(self):
        rng = make_rng(304)
        for _ in range(20):
            inst = random_j16free_instance(rng, 1, 0, rng.randint(2, 8), full_bias=0.0)
            got = solve_j16(inst, 1, 0)
            assert (got is None) == (solve_bruteforce(inst) is None)


class TestWitnessChecks:
    """A witness that fails validation is a bug and raises, also under
    `python -O`; the solvers' kernels are replaced by broken ones here."""

    @staticmethod
    def _everything_color_one(inst):
        return Coloring({v: 1 for v in inst.graph.vertices})

    def test_checked_witness(self):
        inst = instance({1: 1, 2: 2}, [(1, 2)])
        good = Coloring({1: 1, 2: 2})
        assert checked_witness(good, inst) is good
        with pytest.raises(InternalError):
            checked_witness(self._everything_color_one(inst), inst)

    @staticmethod
    def _two_lists_color_one(bits, mask, has):
        return {r: 1 for r in range(len(bits)) if mask >> r & 1}

    def test_jw_small_class_witness(self, monkeypatch):
        # the small-class stage validates its witness once, for both solvers
        monkeypatch.setattr("ordered_coloring.kernels._two_lists", self._two_lists_color_one)
        with pytest.raises(InternalError):
            solve_jw(instance({1: 1, 2: 2}, [(1, 2)]), 1)

    def test_j16_small_class_witness(self, monkeypatch):
        monkeypatch.setattr("ordered_coloring.kernels._two_lists", self._two_lists_color_one)
        with pytest.raises(InternalError):
            solve_j16(instance({1: 1, 2: 2}, [(1, 2)]), 1, 0)

    def test_two_sat_witness(self, monkeypatch):
        # a model that picks the smaller color everywhere puts color 1 on
        # both ends of the edge
        monkeypatch.setattr(kernels._TwoSat, "solve", lambda sat: [False] * (sat.n // 2))
        inst = instance({1: 1, 2: 2}, [(1, 2)], lists={1: (1, 2), 2: (1, 2)})
        with pytest.raises(InternalError):
            solve_two_lists(inst)

    def test_j16_chordal_finish_witness(self, monkeypatch):
        # a full-list path is wide enough for boundary padding, which
        # leaves its first two vertices to the chordal finish; its rank
        # kernel here gives every wide rank color 1
        monkeypatch.setattr(
            "ordered_coloring.j16._chordal_coloring",
            lambda bits, mask, has: {r: 1 for r in range(len(bits)) if mask >> r & 1},
        )
        path = instance({i: i for i in range(1, 9)}, [(i, i + 1) for i in range(1, 8)])
        with pytest.raises(InternalError):
            solve_j16(path, 0, 0)


class TestMemberChecks:
    """The per-member structural lemmas of `solve_j16` are explicit checks
    that raise `InternalError`, also under `python -O`; here their input is
    broken on purpose."""

    def test_chordal_remainder_check(self, monkeypatch):
        # with an empty boundary block nothing gets forced, so the wide
        # remainder keeps an induced four-cycle of forward degree at most two;
        # padding yields the member unchecked, and the finish's chordality
        # search, the only one, fails on it
        searched = []
        real = kernels._mcs_peo
        monkeypatch.setattr(
            "ordered_coloring.kernels._mcs_peo",
            lambda bits, mask: searched.append(mask) or real(bits, mask),
        )
        cycle = instance({i: i for i in range(1, 9)}, [(1, 2), (2, 3), (3, 4), (1, 4)])
        (member,) = _chordalize_members(cycle.graph.adjacency_bits(), cycle.color_bits, 0)
        assert searched == []
        with pytest.raises(InternalError):
            _finish_member(cycle.graph, member)
        assert len(searched) == 1

    def test_narrowing_shape_check(self, monkeypatch):
        # hiding the nonadjacent pair among a center's three forward
        # neighbors is what a missed 4-clique would look like
        monkeypatch.setattr("ordered_coloring.j16._first_nonadjacent_pair", lambda bits, ranks: None)
        star = instance({i: i for i in range(1, 5)}, [(1, 2), (1, 3), (1, 4)])
        with pytest.raises(InternalError):
            list(_fwdnbr_members(star, 0, 0))
