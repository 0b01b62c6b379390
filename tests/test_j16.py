import itertools

import pytest

from ordered_coloring import (
    COLORS,
    Coloring,
    Instance,
    ListAssignment,
    PreconditionError,
    RefusalError,
    build_pattern,
    contains_pattern,
    solve_bruteforce,
    solve_j16,
)
from ordered_coloring import j16, kernels
from ordered_coloring.j16 import (
    _chordalize_members,
    _finalize_small_members,
    _finish_member,
    _fwdnbr_members,
    _wide_ranks,
    pad_sets,
    wide_set,
)
from ordered_coloring.kernels import propagate_singletons, solve_small_class, solve_two_lists
from ordered_coloring.oracle import enumerate_colorings
from ordered_coloring.rand import make_rng, random_forward_clique_graph, random_j16free_instance, random_lists
from conftest import chordal_peo, forward_clique_instances, graph, instance, reference_solve_chordal


def _special_members_reference(inst, k, l):
    """Reference members for `solve_small_class(inst, k + l)`: one per
    stable set A of size below k+l within L^(i), color i pinned to A and
    struck everywhere else, duplicate members skipped."""
    g = inst.graph
    seen = set()
    for i in COLORS:
        candidates = sorted(inst.lists.view(i), key=g.rank)
        for size in range(0, k + l):
            for combo in itertools.combinations(candidates, size):
                if any(g.has_edge(x, y) for x, y in itertools.combinations(combo, 2)):
                    continue
                pinned = set(combo)
                new_lists = {}
                for v in g.vertices:
                    if v in pinned:
                        new_lists[v] = frozenset((i,))
                    else:
                        new_lists[v] = inst.lists.get(v) - {i}
                assignment = ListAssignment(new_lists)
                key = frozenset(assignment.items())
                if key in seen:
                    continue
                seen.add(key)
                yield Instance(g, assignment)


def _special_reference(inst, k, l):
    for member in _special_members_reference(inst, k, l):
        result = solve_two_lists(member)
        if result is not None:
            return result
    return None


class TestProfileFwdnbrSpecial:
    """The small-class stage of `solve_j16`: `solve_small_class(inst, k + l)`,
    the solver `solve_jw` runs with 2w."""

    def test_zero_budget_is_empty(self):
        inst = instance({i: i for i in range(1, 4)})
        assert solve_small_class(inst, 0) is None

    def test_unit_budget_strikes_one_color_globally(self):
        inst = instance({i: i for i in range(1, 4)})
        got = solve_small_class(inst, 1)
        assert got is not None and got.validates(inst)
        assert min(len(got.color_class(i)) for i in COLORS) == 0

    def test_small_class_coloring_lands_in_a_member(self):
        rng = make_rng(72)
        for _ in range(40):
            inst = random_j16free_instance(rng, 1, 1, rng.randint(2, 8))
            got = solve_small_class(inst, 2)
            for col in enumerate_colorings(inst):
                if min(len(col.color_class(i)) for i in (1, 2, 3)) < 2:
                    assert got is not None and got.validates(inst)
                    assert min(len(got.color_class(i)) for i in (1, 2, 3)) < 2
                    break

    @pytest.mark.parametrize("k,l", [(0, 0), (1, 0), (0, 1), (1, 1)])
    def test_matches_the_separate_stage(self, k, l):
        # same stable sets in the same order; the reference's dedup only
        # skips a member equal to an earlier one, which already failed
        rng = make_rng(2000 + 10 * k + l)
        for t in range(80):
            inst = random_j16free_instance(rng, k, l, rng.randint(2, 10), rng.uniform(0.2, 0.8))
            assert solve_small_class(inst, k + l) == _special_reference(inst, k, l), t


class TestProfileFwdnbr:
    """Narrowed members: `_fwdnbr_members`."""

    def test_k4_gives_empty_profile(self, k4):
        assert list(_fwdnbr_members(Instance.with_full_lists(k4), 0, 0)) == []

    def test_members_have_bounded_forward_degree(self):
        rng = make_rng(73)
        for _ in range(40):
            inst = random_j16free_instance(rng, 1, 0, rng.randint(2, 9))
            for member in _fwdnbr_members(inst, 1, 0):
                wide = wide_set(member)
                wide_pos = set(wide)
                g = member.graph
                for v in wide:
                    fwd = [u for u in g.forward_neighbors(v) if u in wide_pos]
                    assert len(fwd) <= 2

    def test_big_class_coloring_lands_in_a_member(self):
        rng = make_rng(74)
        checked = 0
        for _ in range(60):
            inst = random_j16free_instance(rng, 1, 1, rng.randint(4, 9))
            members = None
            for col in enumerate_colorings(inst):
                if min(len(col.color_class(i)) for i in (1, 2, 3)) >= 2:
                    if members is None:
                        members = list(_fwdnbr_members(inst, 1, 1))
                    assert any(col.respects(m.lists) for m in members)
                    checked += 1
                    break
        assert checked >= 5

    def test_profile_cardinality_bounds(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            kernels, "solve_two_lists", lambda inst, _f=solve_two_lists: calls.append(1) or _f(inst)
        )
        rng = make_rng(81)
        for _ in range(20):
            n = rng.randint(2, 8)
            inst = random_j16free_instance(rng, 1, 1, n)
            calls.clear()
            solve_small_class(inst, 2)
            assert len(calls) <= 3 * n ** 2
            assert len(list(_fwdnbr_members(inst, 1, 0))) <= n ** 3

    def test_narrowing_detects_pattern_violation(self):
        # a center with three pairwise nonadjacent later neighbors contains
        # the pattern; with freeness checking off, narrowing must refuse
        g = graph({i: i for i in range(1, 5)}, [(1, 2), (1, 3), (1, 4)])
        inst = Instance.with_full_lists(g)
        assert contains_pattern(g, build_pattern("J16:0,0")) is not None
        with pytest.raises(RefusalError):
            solve_j16(inst, 0, 0, check_freeness=False)


class TestChordalize:
    """Boundary padding: `pad_sets` and `_chordalize_members`."""

    def _prepared_member(self, rng, k, l, n):
        inst = random_j16free_instance(rng, k, l, n)
        for member in _fwdnbr_members(inst, k, l):
            if len(wide_set(member)) >= 3 * k + 3 * l + 6:
                return member
        return None

    def test_pad_sets_shape(self):
        rng = make_rng(75)
        found = 0
        for _ in range(80):
            member = self._prepared_member(rng, 0, 0, rng.randint(7, 10))
            if member is None:
                continue
            found += 1
            pads = pad_sets(member, 0, 0)
            assert pads.c == pads.c_prime == frozenset()
            assert len(pads.d) == 6
        assert found >= 3

    def test_members_have_chordal_wide_sets(self):
        rng = make_rng(76)
        found = 0
        for _ in range(120):
            member = self._prepared_member(rng, 0, 0, rng.randint(7, 10))
            if member is None:
                continue
            found += 1
            for refined in _chordalize_members(member, 0, 0):
                wide = wide_set(refined)
                assert chordal_peo(refined.graph.induced(wide)) is not None
            if found >= 4:
                break
        assert found >= 3

    def test_precondition_small_wide_set(self):
        inst = instance({i: i for i in range(1, 4)})
        with pytest.raises(PreconditionError):
            list(_chordalize_members(inst, 0, 0))

    def test_surviving_colorings_land_in_members(self):
        rng = make_rng(77)
        found = 0
        for _ in range(100):
            member = self._prepared_member(rng, 0, 0, rng.randint(7, 10))
            if member is None:
                continue
            stage = list(_chordalize_members(member, 0, 0))
            for col in enumerate_colorings(member):
                assert any(col.respects(ref.lists) for ref in stage)
                found += 1
                break
            if found >= 4:
                break
        assert found >= 2

    def test_one_chordality_check_per_padding_call(self, monkeypatch):
        # when the wide set minus the boundary block is chordal, the
        # members get no check of their own: one search per padding call,
        # plus the one the finish of each member with a wide set runs
        real = kernels._mcs_peo
        calls = []

        def counting(bits, mask):
            calls.append(mask)
            return real(bits, mask)

        monkeypatch.setattr(kernels, "_mcs_peo", counting)
        monkeypatch.setattr(j16, "_mcs_peo", counting)
        rng = make_rng(80)
        checked = finished = 0
        for _ in range(150):
            member = self._prepared_member(rng, 0, 0, rng.randint(7, 12))
            if member is None:
                continue
            g = member.graph
            pads = pad_sets(member, 0, 0)
            block = sum(1 << g.rank(v) for v in pads.c | pads.d)
            if real(g.adjacency_bits(), _wide_ranks(member) & ~block) is None:
                continue  # the fallback, see TestMemberChecks in test_edge_cases.py
            calls.clear()
            wide_members = 0
            for final in _chordalize_members(member, 0, 0):
                wide_members += bool(wide_set(final))
                _finish_member(final)
            assert len(calls) == 1 + wide_members
            checked += 1
            finished += wide_members
            if checked >= 8:
                break
        assert checked >= 8 and finished >= 8, (checked, finished)


def reference_finish_member(member):
    """The chordal finish on an induced sub-instance: the reference DP on
    the wide set, then the forced colors in position order."""
    wide = wide_set(member)
    assignment = {}
    if wide:
        partial = reference_solve_chordal(member.sub_instance(wide))
        if partial is None:
            return None
        assignment.update(partial.items())
    for v in member.graph.vertices:
        if v not in assignment:
            (assignment[v],) = member.lists.get(v)
    return Coloring(assignment)


class TestFinishMember:
    """`_finish_member` colors the wide ranks in place, with no induced
    sub-instance, and gives the reference's witness key for key."""

    def test_matches_reference_on_chordal_members(self):
        rng = make_rng(79)
        outcomes = {"colored": 0, "none": 0}
        for inst in forward_clique_instances(rng, 200, empty_share=0):
            member = propagate_singletons(inst)
            if not all(cs for _, cs in member.lists.items()):
                continue
            got = _finish_member(member)
            expected = reference_finish_member(member)
            assert (got is None) == (expected is None)
            if got is None:
                outcomes["none"] += 1
            else:
                assert list(got.items()) == list(expected.items())
                outcomes["colored"] += 1
        assert sum(outcomes.values()) >= 100 and min(outcomes.values()) >= 10, outcomes


class TestFinalizeSmall:
    """Small wide sets: `_finalize_small_members`."""

    def test_empty_wide_set_single_member(self):
        inst = instance(
            {i: i for i in range(1, 3)}, lists={1: (1,), 2: (2,)}
        )
        members = list(_finalize_small_members(inst, 0, 0))
        assert len(members) == 1 and members[0] == inst

    def test_one_wide_vertex_two_members(self):
        inst = instance({1: 1}, lists={1: (1, 2)})
        assert len(list(_finalize_small_members(inst, 0, 0))) == 2

    def test_members_fully_forced(self):
        rng = make_rng(78)
        for _ in range(30):
            inst = random_j16free_instance(rng, 1, 1, rng.randint(1, 6))
            if len(wide_set(inst)) >= 12:
                continue
            for member in _finalize_small_members(inst, 1, 1):
                assert all(len(cs) <= 1 for _, cs in member.lists.items())
                # colorability of a fully forced member is edge consistency
                final = propagate_singletons(member)
                empty = any(not cs for _, cs in final.lists.items())
                assert (solve_bruteforce(member) is not None) == (not empty)


class TestSolveJ16:
    def test_k4_not_colorable(self, k4):
        inst = Instance.with_full_lists(k4)
        assert contains_pattern(k4, build_pattern("J16:0,0")) is None
        assert solve_j16(inst, 0, 0) is None

    def test_empty_graph(self):
        result = solve_j16(instance({}), 1, 1)
        assert result is not None and len(result) == 0

    def test_refusal_with_witness(self):
        g = graph({i: i for i in range(1, 4)}, [(1, 2), (1, 3)])
        with pytest.raises(RefusalError) as err:
            solve_j16(Instance.with_full_lists(g), 0, 0)
        assert err.value.witness == {1, 2, 3}

    @pytest.mark.parametrize("k,l", [(0, 0), (1, 0), (0, 1), (1, 1)])
    def test_matches_oracle(self, k, l):
        rng = make_rng(1000 + 10 * k + l)
        for _ in range(60):
            inst = random_j16free_instance(rng, k, l, rng.randint(2, 10))
            got = solve_j16(inst, k, l)
            assert (got is None) == (solve_bruteforce(inst) is None)
            if got is not None:
                assert got.validates(inst)

    def test_boundary_padding_path_at_larger_sizes(self):
        # the acceptance grid stops at ten vertices, where forcing k+l
        # boundary guesses keeps the wide set below the padding threshold;
        # push past it so the left-cover construction really runs
        rng = make_rng(82)
        exercised = 0
        for _ in range(60):
            k, l = rng.choice(((1, 0), (0, 1), (0, 0)))
            n = rng.randint(11, 14)
            inst = random_j16free_instance(rng, k, l, n, full_bias=rng.uniform(0.6, 1.0))
            threshold = 3 * k + 3 * l + 6
            if not any(
                len(wide_set(m)) >= threshold for m in _fwdnbr_members(inst, k, l)
            ):
                continue
            exercised += 1
            got = solve_j16(inst, k, l, check_freeness=False)
            assert (got is None) == (solve_bruteforce(inst, cap=14) is None)
            if got is not None:
                assert got.validates(inst)
            if exercised >= 12:
                break
        assert exercised >= 6

    def test_reversed_family(self):
        rng = make_rng(79)
        for _ in range(40):
            fwd = random_forward_clique_graph(rng, rng.randint(2, 9))
            mirrored = fwd.reverse()
            inst = Instance(mirrored, random_lists(rng, mirrored, 0.5))
            assert contains_pattern(mirrored, build_pattern("neg:J16")) is None
            got = solve_j16(inst, 0, 0, reverse=True)
            assert (got is None) == (solve_bruteforce(inst) is None)
            if got is not None:
                assert got.validates(inst)

    def test_reversal_verdict_equality(self):
        rng = make_rng(80)
        for _ in range(30):
            inst = random_j16free_instance(rng, 1, 0, rng.randint(2, 8))
            mirrored = Instance(inst.graph.reverse(), inst.lists)
            a = solve_j16(inst, 1, 0) is not None
            b = solve_j16(mirrored, 1, 0, reverse=True) is not None
            assert a == b
