import gc
import itertools
import os
import types
from collections import Counter

import pytest

from ordered_coloring import (
    COLORS,
    Coloring,
    Instance,
    ListAssignment,
    RefusalError,
    build_pattern,
    contains_pattern,
    solve_bruteforce,
    solve_j16,
)
import ordered_coloring
from ordered_coloring import j16, jw, kernels, oracle
from ordered_coloring.core import OrderedGraph, _ranks
from ordered_coloring.j16 import (
    _chordalize_members,
    _finish_member,
    _fwdnbr_members,
    _wide,
    pad_sets,
)
from ordered_coloring.kernels import _TUPLES, _mask_at, _propagate_bits, _witness, solve_small_class
from ordered_coloring.oracle import enumerate_colorings
from ordered_coloring.rand import (
    make_rng,
    random_forward_clique_graph,
    random_instance,
    random_j16free_instance,
    random_lists,
)
from conftest import (
    _ONLY,
    chordal_peo,
    color_class,
    count_colorings,
    forward_clique_instances,
    graph,
    instance,
    lists_from_bits,
    reference_chordalize_members,
    reference_forced_colorings,
    reference_fwdnbr_members,
    reference_propagation,
    reference_solve_chordal,
    reference_solve_two_lists,
    respects,
    sub_instance,
    wide_set,
)


PAIRS = tuple(itertools.combinations(COLORS, 2))


def dropped_prefixes(bits, has, block):
    """The prefixes of block colorings, as color tuples along the ranks in
    `block`, at which boundary padding stops: colors from the member's own
    lists are tried rank by rank, and a prefix is dropped when the lists
    propagated so far have struck its last color or its propagation
    empties a list."""
    everyone = (1 << len(bits)) - 1

    def rec(i, cur, prefix):
        if i == len(block):
            return
        r = block[i]
        for c in _TUPLES[_mask_at(has, r)]:
            longer = prefix + (c,)
            if not cur[c - 1] >> r & 1:
                yield longer
                continue
            nxt = _propagate_bits(bits, j16._force(cur, 1 << r, c), ~_wide(cur))
            if nxt[0] | nxt[1] | nxt[2] != everyone:
                yield longer
            else:
                yield from rec(i + 1, nxt, longer)

    yield from rec(0, has, ())


def as_instance(inst, has):
    """The member with color bitsets `has` on inst's graph, as an Instance."""
    return Instance(inst.graph, lists_from_bits(inst.graph.vertices, has))


def padded_members(inst, has, k, l):
    """The member `has` forced on its boundary block, as `solve_j16` does."""
    bits = inst.graph.adjacency_bits()
    return _chordalize_members(bits, has, pad_sets(bits, has, k, l))


def _special_members_reference(inst, k, l):
    """Reference members for `solve_small_class(inst, k + l)`: one per
    stable set A of size below k+l within L^(i), color i pinned to A and
    struck everywhere else, duplicate members skipped."""
    g = inst.graph
    seen = set()
    for i in COLORS:
        candidates = [v for v in g.vertices if i in inst.lists.get(v)]
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
        result = reference_solve_two_lists(member)
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
        assert min(len(color_class(got, i)) for i in COLORS) == 0

    def test_small_class_coloring_lands_in_a_member(self):
        rng = make_rng(72)
        for _ in range(40):
            inst = random_j16free_instance(rng, 1, 1, rng.randint(2, 8))
            got = solve_small_class(inst, 2)
            for col in enumerate_colorings(inst):
                if min(len(color_class(col, i)) for i in (1, 2, 3)) < 2:
                    assert got is not None and got.validates(inst)
                    assert min(len(color_class(got, i)) for i in (1, 2, 3)) < 2
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
            for has in _fwdnbr_members(inst, 1, 0):
                member = as_instance(inst, has)
                g = member.graph
                ranks = [g.rank(v) for v in wide_set(member)]
                wide = sum(1 << r for r in ranks)
                for r in ranks:
                    fwd = g.adjacency_bits()[r] & wide & -(2 << r)
                    assert fwd.bit_count() <= 2

    def test_every_member_has_wide_forward_degree_at_most_two(self, monkeypatch):
        # `_narrow` yields a member only once its scan finds no wide rank
        # with three later wide neighbors. Pattern-free draws are already
        # narrow after guessing; planted forks (members up to a refusal)
        # take the narrowing's forcing steps, which are counted
        steps = []
        real = j16._force
        monkeypatch.setattr(j16, "_force", lambda *args: steps.append(1) or real(*args))
        rng = make_rng(75)
        members = 0
        for k, l in itertools.product(range(3), repeat=2):
            for t in range(40):
                n = rng.randint(4, 10)
                if t % 2:
                    inst = _forked_instance(rng, n)
                else:
                    inst = random_j16free_instance(rng, k, l, n, rng.uniform(0.3, 1.0))
                bits = inst.graph.adjacency_bits()
                for has in _collect(_fwdnbr_members(inst, k, l))[0]:
                    wide = _wide(has)
                    for r in _ranks(wide):
                        assert (bits[r] & wide & -(2 << r)).bit_count() <= 2
                    members += 1
        assert members >= 100 and len(steps) >= 10, (members, len(steps))

    def test_big_class_coloring_lands_in_a_member(self):
        rng = make_rng(74)
        checked = 0
        for _ in range(60):
            inst = random_j16free_instance(rng, 1, 1, rng.randint(4, 9))
            members = None
            for col in enumerate_colorings(inst):
                if min(len(color_class(col, i)) for i in (1, 2, 3)) >= 2:
                    if members is None:
                        members = [as_instance(inst, m) for m in _fwdnbr_members(inst, 1, 1)]
                    assert any(respects(col, m.lists) for m in members)
                    checked += 1
                    break
        assert checked >= 5

    def test_profile_cardinality_bounds(self, monkeypatch):
        # every 2-SAT solve of the small-class stage goes through the
        # kernel, so counting its calls counts the stage's members
        calls = []
        real = kernels._two_lists
        monkeypatch.setattr(
            kernels, "_two_lists", lambda *args: calls.append(1) or real(*args)
        )
        rng = make_rng(81)
        counted = 0
        for _ in range(20):
            n = rng.randint(2, 8)
            inst = random_j16free_instance(rng, 1, 1, n)
            calls.clear()
            solve_small_class(inst, 2)
            assert len(calls) <= 3 * n ** 2
            counted += len(calls)
            assert len(list(_fwdnbr_members(inst, 1, 0))) <= n ** 3
        assert counted >= 1

    def test_narrowing_detects_pattern_violation(self):
        # a center with three pairwise nonadjacent later neighbors contains
        # the pattern; narrowing, which runs after the freeness check in
        # `solve_j16`, must refuse on its own
        g = graph({i: i for i in range(1, 5)}, [(1, 2), (1, 3), (1, 4)])
        inst = Instance.with_full_lists(g)
        assert contains_pattern(g, build_pattern("J16:0,0")) is not None
        with pytest.raises(RefusalError):
            list(_fwdnbr_members(inst, 0, 0))


def _collect(members):
    """Members up to the first refusal, then the refusal's pattern and
    witness (None when there is none)."""
    out = []
    try:
        for member in members:
            out.append(member)
    except RefusalError as exc:
        return out, (exc.pattern, exc.witness)
    return out, None


def _forked_instance(rng, n):
    """A sparse random graph with a planted fork whose lists lead the
    narrowing into its forcing steps rather than a refusal: a center with
    list {i, j} and three later neighbors, the nonadjacent two with lists
    {i, m} and {j, m}, the third adjacent to both; other lists hold two or
    three colors."""
    p = rng.uniform(0.05, 0.3)
    edges = {(a, b) for a, b in itertools.combinations(range(n), 2) if rng.random() < p}
    v, a, b, c = sorted(rng.sample(range(n), 4))
    u, w, x = rng.sample((a, b, c), 3)
    edges -= {(min(u, w), max(u, w))}
    edges |= {(v, u), (v, w), (v, x), (min(u, x), max(u, x)), (min(w, x), max(w, x))}
    i, j, m = rng.sample(COLORS, 3)
    choices = [frozenset(c) for c in itertools.combinations(COLORS, 2)] + [frozenset(COLORS)]
    lists = [rng.choice(choices) for _ in range(n)]
    lists[v], lists[u], lists[w] = frozenset((i, j)), frozenset((i, m)), frozenset((j, m))
    return instance({r: r for r in range(n)}, sorted(edges), dict(enumerate(lists)))


class TestNarrowingDifferential:
    """`_fwdnbr_members` on color bitsets against the list version kept as
    `conftest.reference_fwdnbr_members`: the same members in the same
    order, pairwise distinct, and the same refusal pattern and witness."""

    def _run(self, draws, monkeypatch):
        """Compare on every draw; count members, refusals and the forcing
        steps of narrowing, on a pair (u and w) or on the center."""
        counts = {"members": 0, "refusals": 0, "pair": 0, "center": 0}
        real = j16._force

        def counting(has, mask, color):
            counts["pair" if mask.bit_count() == 2 else "center"] += 1
            return real(has, mask, color)

        monkeypatch.setattr(j16, "_force", counting)
        for inst, k, l in draws:
            got, got_refusal = _collect(_fwdnbr_members(inst, k, l))
            expected, expected_refusal = _collect(reference_fwdnbr_members(inst, k, l))
            assert [as_instance(inst, m).lists for m in got] == [m.lists for m in expected]
            assert got_refusal == expected_refusal
            # `_fwdnbr_members` keeps no dedup: distinct guesses narrow apart
            assert len(set(got)) == len(got)
            counts["members"] += len(got)
            counts["refusals"] += got_refusal is not None
        return counts

    @pytest.mark.parametrize("k,l", [(0, 0), (1, 0), (0, 1), (1, 1)])
    def test_pattern_free_corpora(self, k, l, monkeypatch):
        rng = make_rng(3000 + 10 * k + l)
        draws = (
            (random_j16free_instance(rng, k, l, rng.randint(2, 11), rng.uniform(0.3, 1.0)), k, l)
            for _ in range(150)
        )
        counts = self._run(draws, monkeypatch)
        assert counts["members"] >= 100 and counts["refusals"] == 0, counts

    def test_non_free_draws(self, monkeypatch):
        # plain random graphs refuse early; planted forks get narrowed
        rng = make_rng(3100)
        draws = []
        for t in range(800):
            k, l = rng.choice(((0, 0), (1, 0), (0, 1), (1, 1)))
            n = rng.randint(5, 12)
            if t % 2:
                inst = _forked_instance(rng, n)
            else:
                inst = random_instance(rng, n, rng.uniform(0.15, 0.5), rng.uniform(0.3, 1.0))
            draws.append((inst, k, l))
        counts = self._run(draws, monkeypatch)
        assert min(counts.values()) >= 20, counts

    def test_planted_forks_every_padding(self, monkeypatch):
        # `_narrow` looks for its next center only among the ranks with
        # three later neighbors in g; the reference scans every wide
        # vertex. The planted-fork draws of `TestProfileFwdnbr` for every
        # (k,l) in {0,1,2}^2 take the narrowing's forcing steps on both
        # the pair and the center, and some refuse
        rng = make_rng(3200)
        draws = [
            (_forked_instance(rng, rng.randint(4, 10)), k, l)
            for k, l in itertools.product(range(3), repeat=2)
            for _ in range(60)
        ]
        counts = self._run(draws, monkeypatch)
        assert min(counts.values()) >= 10, counts


class TestChordalize:
    """Boundary padding: `pad_sets` and `_chordalize_members`."""

    def _prepared_member(self, rng, k, l, n):
        """An instance and a narrowed member of it wide enough for padding."""
        inst = random_j16free_instance(rng, k, l, n)
        for member in _fwdnbr_members(inst, k, l):
            if _wide(member).bit_count() >= 3 * k + 3 * l + 6:
                return inst, member
        return None, None

    def test_pad_sets_shape(self):
        rng = make_rng(75)
        found = 0
        for _ in range(80):
            inst, member = self._prepared_member(rng, 0, 0, rng.randint(7, 10))
            if member is None:
                continue
            found += 1
            wide = _wide(member)
            block = pad_sets(inst.graph.adjacency_bits(), member, 0, 0)
            # no left cover: the block is the last six wide ranks
            assert block.bit_count() == 6 and block & ~wide == 0
            assert (wide & ~block) >> min(_ranks(block)) == 0
        assert found >= 3

    def test_members_have_chordal_wide_sets(self):
        rng = make_rng(76)
        found = 0
        for _ in range(120):
            inst, member = self._prepared_member(rng, 0, 0, rng.randint(7, 10))
            if member is None:
                continue
            found += 1
            for refined in padded_members(inst, member, 0, 0):
                refined = as_instance(inst, refined)
                wide = wide_set(refined)
                assert chordal_peo(refined.graph.induced(wide)) is not None
            if found >= 4:
                break
        assert found >= 3

    def test_small_wide_set_is_one_block(self):
        # below 3k + 3l + 6 wide ranks the block is the whole wide set
        inst = instance({i: i for i in range(1, 4)})
        assert pad_sets(inst.graph.adjacency_bits(), inst.color_bits, 0, 0) == 0b111
        rng = make_rng(84)
        members = Counter()
        for k, l in ((0, 0), (1, 0), (0, 1), (1, 1)):
            for _ in range(30):
                inst = random_j16free_instance(rng, k, l, rng.randint(2, 10))
                bits = inst.graph.adjacency_bits()
                for member in _fwdnbr_members(inst, k, l):
                    wide = _wide(member)
                    if wide.bit_count() < 3 * k + 3 * l + 6:
                        assert pad_sets(bits, member, k, l) == wide
                        members[k, l] += 1
        assert min(members.values()) >= 10, members

    def test_surviving_colorings_land_in_members(self):
        rng = make_rng(77)
        found = 0
        for _ in range(100):
            inst, member = self._prepared_member(rng, 0, 0, rng.randint(7, 10))
            if member is None:
                continue
            stage = [as_instance(inst, ref) for ref in padded_members(inst, member, 0, 0)]
            for col in enumerate_colorings(as_instance(inst, member)):
                assert any(respects(col, ref.lists) for ref in stage)
                found += 1
                break
            if found >= 4:
                break
        assert found >= 2

    def test_incremental_propagation_matches_full(self):
        # a member that reaches padding is a propagated fixpoint, so with
        # its ranks outside the wide set done, propagating a forced block
        # gives the full propagation's lists; where one empties, both do
        rng = make_rng(81)
        members, compared, emptied = Counter(), 0, 0
        for k, l in ((0, 0), (1, 0), (0, 1), (1, 1)):
            base = 3 * k + 3 * l + 6
            for _ in range(40):
                g = random_forward_clique_graph(rng, rng.randint(base + 2, base + 10), 0.5)
                inst = Instance(g, random_lists(rng, g, 0.5))
                bits = g.adjacency_bits()
                everyone = (1 << g.n) - 1
                for member in _fwdnbr_members(inst, k, l):
                    wide = _wide(member)
                    if wide.bit_count() < base:
                        continue
                    members[k, l] += 1
                    block = reference_forced_colorings(g, member, pad_sets(bits, member, k, l))
                    for forced in itertools.islice(block, 200):
                        fast = _propagate_bits(bits, forced, ~wide)
                        full = _propagate_bits(bits, forced)
                        if full[0] | full[1] | full[2] == everyone:
                            assert fast == full
                        else:
                            assert fast[0] | fast[1] | fast[2] != everyone
                            emptied += 1
                        compared += 1
        assert min(members.values()) >= 10 and compared >= 10_000 and emptied >= 100, (
            members,
            compared,
            emptied,
        )

    def test_rank_by_rank_padding_matches_whole_forcing(self):
        # padding forces the block rank by rank and drops a prefix as soon
        # as a list empties; it must yield the members that forcing each
        # block coloring whole gives, in order, and every block coloring
        # under a dropped prefix must empty a list when forced whole
        rng = make_rng(83)
        members, survivors, pruned = Counter(), 0, 0
        for k, l in ((0, 0), (1, 0), (0, 1), (1, 1)):
            base = 3 * k + 3 * l + 6
            for _ in range(200):
                if members[k, l] >= 12:
                    break
                # mostly two-color lists, so that forcing the block propagates
                # along chains of them and empties lists
                g = random_forward_clique_graph(rng, rng.randint(base + 10, base + 40), 0.8)
                lists = {v: rng.choice(PAIRS) if rng.random() < 0.7 else COLORS for v in g.vertices}
                inst = Instance(g, ListAssignment(lists))
                bits = g.adjacency_bits()
                everyone = (1 << g.n) - 1
                padded = (m for m in _fwdnbr_members(inst, k, l) if _wide(m).bit_count() >= base)
                for member in itertools.islice(padded, 2):
                    wide = _wide(member)
                    members[k, l] += 1
                    got = list(padded_members(inst, member, k, l))
                    assert got == list(reference_chordalize_members(inst, member, k, l))
                    survivors += len(got)
                    mask = pad_sets(bits, member, k, l)
                    block = list(_ranks(mask))
                    dropped = set(dropped_prefixes(bits, member, block))
                    for forced in reference_forced_colorings(g, member, mask):
                        colors = tuple(_ONLY[_mask_at(forced, r)] for r in block)
                        if any(colors[:i] in dropped for i in range(1, len(block) + 1)):
                            whole = _propagate_bits(bits, forced, ~wide)
                            assert whole[0] | whole[1] | whole[2] != everyone
                            pruned += 1
        assert min(members.values()) >= 12 and survivors >= 1000 and pruned >= 1000, (
            members,
            survivors,
            pruned,
        )

    def test_walks_leave_no_reference_cycle(self):
        # the padding walk and the guessing engine, dropped after their first
        # item, free their frames at once: no function or generator of the
        # package is left for the cyclic collector
        rng = make_rng(86)
        member = None
        while member is None:
            inst, member = self._prepared_member(rng, 0, 0, rng.randint(8, 10))
        bits = inst.graph.adjacency_bits()
        package = os.path.dirname(ordered_coloring.__file__)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            walk = _chordalize_members(bits, member, pad_sets(bits, member, 0, 0))
            guesses = kernels.boundary_guesses(inst, 1, 1)
            next(walk), next(guesses)
            del walk, guesses
            gc.collect()
            leaked = [
                obj
                for obj in gc.garbage
                if isinstance(obj, types.FunctionType) and (obj.__module__ or "").startswith("ordered_coloring")
                or isinstance(obj, types.GeneratorType) and obj.gi_code.co_filename.startswith(package)
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []

    def test_one_chordality_check_per_padding_call(self, monkeypatch):
        # padding runs no chordality search of its own: the finish runs
        # one on the wide set of each member it colors, and that is all
        real = kernels._mcs_peo
        calls = []

        def counting(bits, mask):
            calls.append(mask)
            return real(bits, mask)

        monkeypatch.setattr(kernels, "_mcs_peo", counting)
        rng = make_rng(80)
        checked = finished = 0
        for _ in range(150):
            inst, member = self._prepared_member(rng, 0, 0, rng.randint(7, 12))
            if member is None:
                continue
            calls.clear()
            stage = list(padded_members(inst, member, 0, 0))
            assert calls == []
            for final in stage:
                _finish_member(inst.graph, final)
            wide_sets = [_wide(final) for final in stage if _wide(final)]
            assert calls == wide_sets
            checked += 1
            finished += len(wide_sets)
            if checked >= 8:
                break
        assert checked >= 8 and finished >= 8, (checked, finished)


def reference_finish_member(member):
    """The chordal finish on an induced sub-instance: the reference DP on
    the wide set, then the forced colors in position order."""
    wide = wide_set(member)
    assignment = {}
    if wide:
        partial = reference_solve_chordal(sub_instance(member, wide))
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
            g = inst.graph
            has = _propagate_bits(g.adjacency_bits(), inst.color_bits)
            if has[0] | has[1] | has[2] != (1 << g.n) - 1:
                continue
            got = _finish_member(g, has)
            if got is not None:  # extended by the forced colors, as `solve_j16` does
                got = _witness(inst, got, has)
            expected = reference_finish_member(as_instance(inst, has))
            assert (got is None) == (expected is None)
            if got is None:
                outcomes["none"] += 1
            else:
                assert list(got.items()) == list(expected.items())
                outcomes["colored"] += 1
        assert sum(outcomes.values()) >= 100 and min(outcomes.values()) >= 10, outcomes


class TestForcedColorings:
    """On a member below the padding threshold, whose block is its whole
    wide set, `_chordalize_members` gives the sequence of the oracle's
    enumeration on the wide set's induced sub-instance, item for item:
    the propagation prunes no coloring and adds no strike."""

    @pytest.mark.parametrize("k,l", [(0, 0), (1, 0), (0, 1), (1, 1)])
    def test_matches_reference_on_padding_blocks(self, k, l):
        rng = make_rng(85 + 2 * k + l)
        blocks = forced = 0
        for _ in range(120):
            inst = random_j16free_instance(rng, k, l, rng.randint(4, 10), rng.uniform(0.5, 1.0))
            g = inst.graph
            bits = g.adjacency_bits()
            for member in itertools.islice(_fwdnbr_members(inst, k, l), 3):
                wide = _wide(member)
                if wide.bit_count() >= 3 * k + 3 * l + 6:
                    continue
                got = list(_chordalize_members(bits, member, wide))
                assert got == [tuple(f) for f in reference_forced_colorings(g, member, wide)]
                blocks += 1
                forced += len(got)
        assert blocks >= 40 and forced >= 150, (blocks, forced)


class TestFinalizeSmall:
    """Small wide sets: `solve_j16` forces each list coloring of the wide
    ranks (`_chordalize_members` on the whole wide set) and finishes the
    first one."""

    def test_empty_wide_set_single_member(self):
        inst = instance(
            {i: i for i in range(1, 3)}, lists={1: (1,), 2: (2,)}
        )
        has = inst.color_bits
        members = list(_chordalize_members(inst.graph.adjacency_bits(), has, _wide(has)))
        assert len(members) == 1 and as_instance(inst, members[0]) == inst

    def test_one_wide_vertex_two_members(self):
        inst = instance({1: 1}, lists={1: (1, 2)})
        has = inst.color_bits
        assert len(list(_chordalize_members(inst.graph.adjacency_bits(), has, _wide(has)))) == 2

    def test_members_fully_forced(self):
        rng = make_rng(78)
        members = 0
        for _ in range(30):
            inst = random_j16free_instance(rng, 1, 1, rng.randint(1, 6))
            if len(wide_set(inst)) >= 12:
                continue
            bits = inst.graph.adjacency_bits()
            # the walk starts from a propagated fixpoint, as members are
            has = _propagate_bits(bits, inst.color_bits)
            if has[0] | has[1] | has[2] != (1 << inst.graph.n) - 1:
                continue
            for member in _chordalize_members(bits, has, _wide(has)):
                members += 1
                member = as_instance(inst, member)
                assert all(len(cs) <= 1 for _, cs in member.lists.items())
                # colorability of a fully forced member is edge consistency
                final = reference_propagation(member.graph, member.lists.items())
                empty = not all(final.values())
                assert (solve_bruteforce(member) is not None) == (not empty)
        assert members >= 20, members

    @pytest.mark.parametrize("k,l", [(0, 0), (1, 0), (0, 1), (1, 1)])
    def test_every_forced_coloring_of_a_member_is_a_coloring(self, k, l):
        # a member is propagated with no empty list, so each list coloring
        # of its wide ranks extends through its forced colors
        rng = make_rng(90 + 2 * k + l)
        members = forced = 0
        for _ in range(200):
            inst = random_j16free_instance(rng, k, l, rng.randint(2, 10))
            bits = inst.graph.adjacency_bits()
            for member in _fwdnbr_members(inst, k, l):
                wide = _wide(member)
                if wide.bit_count() >= 3 * k + 3 * l + 6:
                    continue
                count = 0
                for final in _chordalize_members(bits, member, wide):
                    coloring = Coloring(
                        {v: c for v, (c,) in lists_from_bits(inst.graph.vertices, final).items()}
                    )
                    assert coloring.validates(inst)
                    count += 1
                assert count == count_colorings(as_instance(inst, member))
                members += 1
                forced += count
        assert members >= 100 and forced >= 200, (members, forced)


class TestWithoutOracleOrInducedGraphs:
    """`solve_j16` builds no induced graph and calls no oracle: with them
    patched to raise, it answers the criterion-2 corpus as before."""

    def test_criterion_2_corpus(self, monkeypatch):
        rng = make_rng(2024_02)
        draws = []
        for k, l in ((0, 0), (1, 0), (0, 1), (1, 1)):
            for _ in range(125):
                inst = random_j16free_instance(rng, k, l, rng.randint(2, 10), rng.uniform(0.2, 0.8))
                draws.append((inst, k, l, solve_j16(inst, k, l)))

        def forbidden(*args, **kwargs):
            raise AssertionError("solve_j16 called the oracle or built an induced graph")

        monkeypatch.setattr(OrderedGraph, "induced", forbidden)
        for name in ("enumerate_colorings", "solve_bruteforce"):
            real = getattr(oracle, name)
            for module in (oracle, ordered_coloring, j16, jw, kernels):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, forbidden)
        padded = []
        real_pad_sets = j16.pad_sets
        monkeypatch.setattr(j16, "pad_sets", lambda *a: padded.append(a) or real_pad_sets(*a))
        for inst, k, l, expected in draws:
            got = solve_j16(inst, k, l)
            assert got == expected
        colorable = sum(expected is not None for *_, expected in draws)
        assert 50 <= colorable <= len(draws) - 50 and len(padded) >= 10, (colorable, len(padded))


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
                _wide(m).bit_count() >= threshold for m in _fwdnbr_members(inst, k, l)
            ):
                continue
            exercised += 1
            got = solve_j16(inst, k, l)
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
