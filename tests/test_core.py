import functools
import inspect
import itertools
import math
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordered_coloring import (
    Coloring,
    Instance,
    InputError,
    ListAssignment,
    OrderedGraph,
    build_pattern,
    contains_pattern,
    is_isomorphic,
)
from ordered_coloring import core as core_module, rand
from ordered_coloring.core import (
    _degree_masks,
    _least_denominator,
    _maximal_edges,
    _pattern_plans,
    _ranks,
    _reach_tables,
    _suffix_or,
)
from ordered_coloring.gadgets import (
    gen_bipartite,
    gen_h1,
    gen_h2,
    gen_h3,
    gen_h4,
    gen_h5,
    verify_gadget,
)
from ordered_coloring.io import parse_instance, serialize_instance
from ordered_coloring.oracle import nae_bruteforce
from ordered_coloring.rand import (
    make_rng,
    random_forward_clique_graph,
    random_instance,
    random_nae,
    random_ordered_graph,
)
from conftest import (
    brute_contains,
    forward_clique_instances,
    graph,
    instance,
    path_graph,
    positions_fuzzed,
    rank_normalized,
    reference_color_bits,
    reference_validates,
    reference_contains_pattern,
    reference_maximal_edges,
    small_source_graphs,
    span_and_left,
    updated_lists,
)


def random_graph_strategy(max_n=7):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges = [p for p in pairs if draw(st.booleans())]
        return graph({i: i for i in range(1, n + 1)}, edges)

    return build()


class TestInduced:
    def test_full_set_is_identity(self):
        g = path_graph(4)
        assert g.induced(g.vertices) == g

    def test_empty_set(self):
        g = path_graph(3)
        sub = g.induced([])
        assert sub.n == 0 and not sub.edges

    def test_path_endpoints_become_isolated(self):
        g = graph({"a": 1, "b": 2, "c": 3}, [("a", "b"), ("b", "c")])
        sub = g.induced(["a", "c"])
        assert sub.n == 2 and not sub.edges
        assert sub.position("a") == 1 and sub.position("c") == 3

    def test_unknown_vertex_rejected(self):
        with pytest.raises(InputError):
            path_graph(3).induced([1, 99])


class TestReverse:
    def test_involution(self):
        g = graph({"a": 1, "b": 5}, [("a", "b")])
        assert g.reverse().reverse() == g

    def test_single_vertex(self):
        g = graph({"v": 5})
        assert g.reverse().position("v") == -5

    def test_reverse_of_path_pattern_is_itself(self):
        # the in-order three-vertex path is symmetric under reversal, while
        # the center-first pattern flips to the center-last one
        j15 = build_pattern("J15")
        j16 = build_pattern("J16")
        assert is_isomorphic(j15.reverse(), j15)
        assert not is_isomorphic(j15.reverse(), j16)
        assert is_isomorphic(j16.reverse(), build_pattern("neg:J16"))


class TestIsomorphism:
    def test_reflexive(self):
        g = path_graph(5)
        assert is_isomorphic(g, g)

    def test_positions_scaled(self):
        j9 = build_pattern("J9")
        doubled = OrderedGraph(
            [(v, 2 * j9.position(v)) for v in j9.vertices],
            [tuple(e) for e in j9.edges],
        )
        assert is_isomorphic(j9, doubled)

    def test_same_size_different_shape(self):
        # both have four vertices and two edges, but the sorted edge sets differ
        assert not is_isomorphic(build_pattern("J10"), build_pattern("J12"))


CATALOG_IDS = (
    [f"J{i}" for i in range(1, 17)]
    + [f"M{i}" for i in range(1, 9)]
    + ["Jw:1", "Jw:2"]
    + [f"J16:{k},{l}" for k in (0, 1) for l in (0, 1)]
)
CATALOG_IDS += [f"neg:{pid}" for pid in CATALOG_IDS]


def random_ordered_graph(rng, n, p):
    """G(n, p) on shuffled, partly fractional positions."""
    positions = [Fraction(x, 3) for x in rng.sample(range(1, 4 * n + 1), n)]
    edges = [(a, b) for a, b in itertools.combinations(range(n), 2) if rng.random() < p]
    return OrderedGraph(list(enumerate(positions)), edges)


def with_planted_edge(rng, g):
    non_edges = [
        (u, v) for u, v in itertools.combinations(g.vertices, 2) if not g.has_edge(u, v)
    ]
    extra = rng.choice(non_edges)
    return OrderedGraph(list(g.positions().items()), [tuple(e) for e in g.edges] + [extra])


def with_planted_fork(rng, g):
    """g plus one edge r-t that gives rank r two later neighbors, s and t,
    that are not adjacent: an open fork at r."""
    bits = g.adjacency_bits()
    forks = [
        (r, t)
        for r in range(g.n)
        for s in _ranks(bits[r] & -(2 << r))
        for t in range(r + 1, g.n)
        if t != s and not (bits[r] | bits[s]) >> t & 1
    ]
    r, t = rng.choice(forks)
    order = g.vertices
    edges = [tuple(e) for e in g.edges] + [(order[r], order[t])]
    return OrderedGraph(list(g.positions().items()), edges)


class TestMatcherDifferential:
    """The bitset matcher returns exactly the reference's value: None, or
    the same witness set."""

    def test_random_graphs_every_catalog_id(self):
        rng = make_rng(4401)
        patterns = [build_pattern(pid) for pid in CATALOG_IDS]
        found = 0
        for _ in range(150):
            g = random_ordered_graph(rng, rng.randint(0, 22), rng.random())
            for pid, h in zip(CATALOG_IDS, patterns):
                fast = contains_pattern(g, h)
                assert fast == reference_contains_pattern(g, h), (sorted(g.edges, key=sorted), pid)
                found += fast is not None
        assert 0 < found < 150 * len(patterns)

    def test_gadget_builds_and_planted_edges(self):
        # the sources of acceptance criteria 5 and 6
        rng = make_rng(2024_05)
        builds = []
        for _ in range(100):
            nae = random_nae(rng, rng.randint(3, 4), rng.randint(1, 3))
            builds += [gen_h1(nae, o) for o in ("t1", "t2", "t3")] + [gen_h2(nae)]
        for src in small_source_graphs(4):
            builds += [gen_h3(src, "t5"), gen_h3(src, "t6"), gen_h4(src), gen_h5(src)]
        rng = make_rng(4402)
        found = 0
        for out in builds:
            g = out.instance.graph
            for host in (g, with_planted_edge(rng, g)):
                for pid in out.advertised_free:
                    h = build_pattern(pid)
                    fast = contains_pattern(host, h)
                    assert fast == reference_contains_pattern(host, h), pid
                    found += fast is not None
        assert found >= len(builds) // 4

    def test_benchmark_scale_gadgets(self):
        # 12-clause NAE sources at v=6-9, the size the gadget benchmark
        # draws (about 60-90 vertices), satisfiable and not; every
        # advertised pattern plus two that embed in most gadgets
        rng = make_rng(4404)
        sources = [random_nae(rng, v, 12) for v in (6, 7, 8, 9) for _ in range(3)]
        unsat = []
        while len(unsat) < 3:  # about 1 in 340 draws at v=6
            nae = random_nae(rng, 6, 12)
            if nae_bruteforce(nae) is None:
                unsat.append(nae)
        assert all(nae_bruteforce(nae) is not None for nae in sources[-6:])
        found = checked = 0
        for nae in sources + unsat:
            for out in [gen_h1(nae, o) for o in ("t1", "t2", "t3")] + [gen_h2(nae)]:
                g = out.instance.graph
                for host in (g, with_planted_edge(rng, g)):
                    for pid in out.advertised_free + ("J16:1,1", "Jw:1"):
                        h = build_pattern(pid)
                        fast = contains_pattern(host, h)
                        assert fast == reference_contains_pattern(host, h), (pid, nae)
                        found += fast is not None
                        checked += 1
        assert checked // 3 < found < checked

    def test_forward_clique_graphs_j16(self):
        rng = make_rng(4403)
        h = build_pattern("J16:0,0")
        found = 0
        for _ in range(20):
            g = random_forward_clique_graph(rng, rng.randint(100, 200))
            for host in (g, with_planted_edge(rng, g)):
                fast = contains_pattern(host, h)
                assert fast == reference_contains_pattern(host, h)
                found += fast is not None
        assert 0 < found < 20

    def test_forward_clique_hosts_with_a_planted_fork(self):
        # the patterns with an open later fork (J7, J8, J10, J11, J14 and
        # J16:k,l for k, l <= 2) and the mirrored J16:k,l, on forward-clique
        # hosts, where every rank is closed, and on the same hosts with one
        # open fork planted
        rng = make_rng(4413)
        pids = [f"{neg}J16:{k},{l}" for neg in ("", "neg:") for k in range(3) for l in range(3)]
        pids += ["J7", "J8", "J10", "J11", "J14"]
        patterns = [build_pattern(pid) for pid in pids]
        found = {pid: set() for pid in pids}
        for _ in range(30):
            g = random_forward_clique_graph(rng, rng.randint(20, 60), rng.uniform(0.5, 1))
            planted = with_planted_fork(rng, g)
            assert _degree_masks(g)[2] == 0 and _degree_masks(planted)[2]
            for host in (g, planted):
                for pid, h in zip(pids, patterns):
                    fast = contains_pattern(host, h)
                    assert fast == reference_contains_pattern(host, h), (pid, sorted(host.edges, key=sorted))
                    found[pid].add(fast is None)
        assert found["J16:0,0"] == found["J16:2,2"] == {True, False}, found

    def test_gadgets_every_catalog_id(self):
        # the hosts on which the two-sided range rule prunes: gen_h1 and
        # gen_h2 builds of seeded NAE sources, as built and with one and
        # two planted edges, against every catalog id (mirrored ones
        # included); the h2 patterns and their mirrors are found on some
        # hosts and absent from others
        rng = make_rng(4411)
        patterns = [build_pattern(pid) for pid in CATALOG_IDS]
        watched = ("J7", "J13", "J14", "neg:J7", "neg:J13", "neg:J14")
        outcomes = {pid: set() for pid in watched}
        for _ in range(8):
            nae = random_nae(rng, rng.randint(4, 6), rng.randint(3, 8))
            for out in [gen_h1(nae, o) for o in ("t1", "t2", "t3")] + [gen_h2(nae)]:
                g = out.instance.graph
                planted = with_planted_edge(rng, g)
                for host in (g, planted, with_planted_edge(rng, planted)):
                    for pid, h in zip(CATALOG_IDS, patterns):
                        fast = contains_pattern(host, h)
                        assert fast == reference_contains_pattern(host, h), (pid, nae)
                        outcomes.get(pid, set()).add(fast is None)
        assert all(seen == {True, False} for seen in outcomes.values()), outcomes

    @pytest.mark.parametrize("pid", CATALOG_IDS + ["Jw:3", "J16:2,2", "neg:J16:2,1"])
    def test_each_id_found_and_free(self, pid):
        # a free host is settled by the fail-first search alone, a host
        # with an embedding takes its witness from the canonical search
        rng = make_rng(4407)
        h = build_pattern(pid)
        outcomes = set()
        for tries in range(1, 401):
            g = random_ordered_graph(rng, rng.randint(max(4, h.n), 16), rng.random())
            fast = contains_pattern(g, h)
            assert fast == reference_contains_pattern(g, h), sorted(g.edges, key=sorted)
            outcomes.add(fast is None)
            if tries >= 30 and len(outcomes) == 2:
                break
        assert outcomes == {True, False}


class TestPlans:
    """The fail-first plan decides, the canonical plan picks the witness."""

    @pytest.mark.parametrize(
        "pid", ["Jw:1", "Jw:2"] + [f"J16:{k},{l}" for k in range(3) for l in range(3)]
    )
    def test_solver_patterns_have_one_plan(self, pid):
        first, canonical = _pattern_plans(build_pattern(pid))
        assert first is canonical

    def test_orders(self):
        # J13: edges (0,4), (1,2), (2,3); rank 2 is the one of degree 2
        # the fail-first order is (2, 1, 3, 0, 4), but 4's one neighbor, 0,
        # is placed second to last, so 3, pinned by 2, moves to the end
        first, canonical = _pattern_plans(build_pattern("J13"))
        assert first[0] == (2, 1, 0, 4, 3)
        assert canonical[0] == (0, 4, 1, 2, 3)
        # J14: edges (0,4), (1,2), (1,3); (1, 2, 3, 0, 4) ends likewise
        first, canonical = _pattern_plans(build_pattern("J14"))
        assert first[0] == (1, 2, 0, 4, 3)
        # J7: edges (0,1), (0,3), (2,3); its last vertex, 2, is pinned by 3
        first, canonical = _pattern_plans(build_pattern("J7"))
        assert first[0] == (0, 3, 1, 2)
        # J16 mirrored: edges (0,2), (1,2)
        first, canonical = _pattern_plans(build_pattern("neg:J16"))
        assert first[0] == (2, 0, 1)
        assert canonical[0] == (0, 2, 1)
        h = build_pattern("J7")
        assert _pattern_plans(h) is _pattern_plans(h)

    @pytest.mark.parametrize(
        "pid,plans", [("J13", 2), ("J14", 2), ("neg:J16", 2), ("Jw:1", 1), ("J16:1,0", 1)]
    )
    def test_searches_per_call(self, monkeypatch, pid, plans):
        calls = []
        embed = core_module._embed

        def counting(g, plan):
            calls.append(plan[0])
            return embed(g, plan)

        monkeypatch.setattr(core_module, "_embed", counting)
        h = build_pattern(pid)
        first, canonical = _pattern_plans(h)
        assert (first is not canonical) == (plans == 2)
        free = graph({i: i for i in range(1, 8)})
        assert contains_pattern(free, h) is None
        assert calls == [first[0]]
        calls.clear()
        host = h.pad(1, 2)
        witness = contains_pattern(host, h)
        assert witness is not None and witness == reference_contains_pattern(host, h)
        assert calls == [first[0], canonical[0]][:plans]

    def test_pair_check(self):
        # At the second-to-last level the matcher asks whether some
        # candidate has a partner in the last vertex's mask, and probes from
        # that mask when it is the smaller one. These two patterns end
        # their plans on the four (adjacent or not, before or after) kinds
        # of last step. The hosts are dense enough for small last masks and
        # sparse enough for pairs to be missing: on this seed the probe runs
        # from the last vertex's side, with and without a pair, for every
        # kind.
        kinds = set()
        outcomes = set()
        rng = make_rng(4410)
        for edges in ([(0, 2), (0, 3), (1, 3)], [(0, 2), (1, 3)]):
            h = graph({i: i for i in range(4)}, edges)
            first, canonical = _pattern_plans(h)
            kinds |= {first[2][-1][0], canonical[2][-1][0]}
            for _ in range(300):
                n = rng.randint(6, 12)
                p = rng.uniform(0.1, 0.6)
                host = graph(
                    {i: i for i in range(n)},
                    [e for e in itertools.combinations(range(n), 2) if rng.random() < p],
                )
                fast = contains_pattern(host, h)
                assert fast == reference_contains_pattern(host, h), (edges, sorted(host.edges, key=sorted))
                outcomes.add(fast is None)
        assert kinds == {(0, False), (0, True), (1, False), (1, True)}
        assert outcomes == {True, False}


class TestBoundTables:
    """The matcher's bound rules against their definitions."""

    def test_degree_masks(self):
        rng = make_rng(4408)
        for _ in range(60):
            g = random_ordered_graph(rng, rng.randint(1, 24), rng.random())
            n, bits = g.n, g.adjacency_bits()
            later_at_least, earlier_at_least, _ = _degree_masks(g)
            assert _degree_masks(g) is _degree_masks(g)
            later = [(bits[r] >> r + 1).bit_count() for r in range(n)]
            earlier = [(bits[r] & ((1 << r) - 1)).bit_count() for r in range(n)]
            for table, counts in ((later_at_least, later), (earlier_at_least, earlier)):
                assert table == [
                    sum(1 << r for r in range(n) if counts[r] >= d) for d in range(max(counts) + 1)
                ]

    def test_open_ranks(self):
        # a closed rank (not in the open-fork mask) has pairwise adjacent later
        # neighbors; on forward-clique hosts, whose reversed order is a
        # perfect elimination ordering, every rank is closed
        rng = make_rng(4414)
        hosts = [(random_ordered_graph(rng, rng.randint(1, 30), rng.random()), False) for _ in range(150)]
        hosts += [(random_forward_clique_graph(rng, rng.randint(1, 60), rng.random()), True) for _ in range(50)]
        hosts += [(inst.graph, True) for inst in forward_clique_instances(rng, 50)]
        closed_forks = 0
        for g, forward_clique in hosts:
            n, bits = g.n, g.adjacency_bits()
            open_ranks = _degree_masks(g)[2]
            assert 0 <= open_ranks < 1 << n
            for r in range(n):
                later = [s for s in range(r + 1, n) if bits[r] >> s & 1]
                if open_ranks >> r & 1:
                    continue
                assert all(bits[a] >> b & 1 for a, b in itertools.combinations(later, 2)), r
                closed_forks += len(later) > 1 and not forward_clique
            if forward_clique:
                assert open_ranks == 0
        assert closed_forks >= 100

    def test_host_tables_built_once_per_gadget(self, monkeypatch):
        # a host's degree and reach tables are built by the first of the
        # three advertised patterns' searches and kept for the other two
        builds = []
        for name, cached in (("_degree_masks", "_degrees"), ("_reach_tables", "_reach")):
            real = getattr(core_module, name)

            def counting(g, real=real, name=name, cached=cached):
                if getattr(g, cached) is None:
                    builds.append((name, id(g)))
                return real(g)

            monkeypatch.setattr(core_module, name, counting)
        out = gen_h2(random_nae(make_rng(4409), 5, 4))
        assert len(out.advertised_free) == 3
        assert verify_gadget(out).passed
        host = id(out.instance.graph)
        assert sorted(builds) == [("_degree_masks", host), ("_reach_tables", host)]

    def test_two_sided_range_rule_on_h2(self, monkeypatch):
        # J13's fail-first plan places (2, 1, 0, 4, 3). On an h2 gadget the
        # two-sided range rule leaves its third level no candidate, so no
        # search places a third pattern vertex; with the two new tables
        # made all-ones, the one-sided rule leaves it hundreds
        h = build_pattern("J13")
        first, _ = _pattern_plans(h)
        hosts = [gen_h2(random_nae(make_rng(4412 + s), 8, 12)).instance.graph for s in range(3)]
        assert all(contains_pattern(g, h) is None for g in hosts)
        assert [_level_tries(g, first, 2) for g in hosts] == [0, 0, 0]

        real = core_module._reach_tables

        def one_sided(g):
            reach_by, reach_from, last_from, first_by = real(g)
            return reach_by, reach_from, (-1,) * g.n, (-1,) * g.n

        monkeypatch.setattr(core_module, "_reach_tables", one_sided)
        assert all(contains_pattern(g, h) is None for g in hosts)
        assert min(_level_tries(g, first, 2) for g in hosts) >= 100

    def test_open_fork_rule_places_nothing_on_forward_clique_hosts(self, monkeypatch):
        # J16:0,0's center has two later pattern neighbors that are not
        # adjacent, and a forward-clique host has no open rank, so the
        # search places no pattern vertex; with every rank made open, it
        # tries each center the degree rule leaves
        rng = make_rng(4415)
        h = build_pattern("J16:0,0")
        first, _ = _pattern_plans(h)
        hosts = [random_forward_clique_graph(rng, rng.randint(100, 200)) for _ in range(20)]
        assert all(contains_pattern(g, h) is None for g in hosts)
        assert [_level_tries(g, first, 0) for g in hosts] == [0] * 20

        real = core_module._degree_masks

        def all_open(g):
            later_at_least, earlier_at_least, _ = real(g)
            return later_at_least, earlier_at_least, (1 << g.n) - 1

        monkeypatch.setattr(core_module, "_degree_masks", all_open)
        assert all(contains_pattern(g, h) is None for g in hosts)
        assert min(_level_tries(g, first, 0) for g in hosts) >= 20

    def test_reach_tables(self):
        rng = make_rng(4405)
        for _ in range(80):
            g = random_ordered_graph(rng, rng.randint(1, 24), rng.random())
            n, bits = g.n, g.adjacency_bits()
            reach_by, reach_from, last_from, first_by = _reach_tables(g)
            assert _reach_tables(g) is _reach_tables(g)
            for j in range(n):
                assert reach_by[j] == sum(
                    1 << r for r in range(n) if any(bits[r] >> s & 1 for s in range(r + 1, j + 1))
                )
                assert reach_from[j] == sum(
                    1 << r for r in range(n) if any(bits[r] >> s & 1 for s in range(j, r))
                )
                assert last_from[j] == sum(
                    1 << r for r in range(n) if any(bits[r] >> s & 1 for s in range(j, n))
                )
                assert first_by[j] == sum(
                    1 << r for r in range(n) if any(bits[r] >> s & 1 for s in range(j + 1))
                )

    def test_suffix_or(self):
        rng = make_rng(4406)
        buckets = [rng.choice((0, 0, rng.getrandbits(30))) for _ in range(8)]
        for top in range(len(buckets)):
            assert _suffix_or(buckets, top) == [
                functools.reduce(operator.or_, buckets[d : top + 1]) for d in range(top + 1)
            ]


def _level_tries(g: OrderedGraph, plan: tuple, level: int) -> int:
    """How many candidates `_embed`'s search along `plan` tries for the
    pattern vertex at step `level`: traced runs of the line that starts a
    candidate's narrowing, in the frames of that level."""
    lines, start = inspect.getsourcelines(core_module._embed)
    marker = start + next(i for i, line in enumerate(lines) if "below, above = low - 1" in line)
    tries = 0

    def trace(frame, event, arg):
        if event != "call" or frame.f_code.co_name != "extend" or frame.f_locals["i"] != level:
            return None

        def count(frame, event, arg):
            nonlocal tries
            tries += event == "line" and frame.f_lineno == marker
            return count

        return count

    sys.settrace(trace)
    try:
        core_module._embed(g, plan)
    finally:
        sys.settrace(None)
    return tries


class TestContainsPattern:
    def test_self_witness(self):
        h = build_pattern("J9")
        assert contains_pattern(h, h) == frozenset(h.vertices)

    def test_edgeless_host_has_no_edge_pattern(self):
        g = graph({i: i for i in range(1, 6)})
        assert contains_pattern(g, build_pattern("J15")) is None

    def test_bipartite_embedding_avoids_inorder_path(self):
        # one side placed entirely before the other: every edge crosses, so
        # the three-vertex in-order path cannot embed
        c4 = instance({"a": 1, "b": 2, "c": 3, "d": 4},
                      [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
        out = gen_bipartite(c4)
        assert contains_pattern(out.instance.graph, build_pattern("J15")) is None
        assert contains_pattern(out.instance.graph, build_pattern("J7")) is None
        assert contains_pattern(out.instance.graph, build_pattern("J9")) is None

    @settings(max_examples=150, deadline=None)
    @given(random_graph_strategy(max_n=8), random_graph_strategy(max_n=5))
    def test_agrees_with_bruteforce(self, g, h):
        fast = contains_pattern(g, h)
        slow = brute_contains(g, h)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert is_isomorphic(g.induced(fast), h)

    @settings(max_examples=80, deadline=None)
    @given(random_graph_strategy(max_n=7), random_graph_strategy(max_n=4))
    def test_freeness_is_reversal_symmetric(self, g, h):
        assert (contains_pattern(g, h) is None) == (
            contains_pattern(g.reverse(), h.reverse()) is None
        )


def mx(g: OrderedGraph) -> tuple:
    return _maximal_edges(g.adjacency_bits(), (1 << g.n) - 1)


class TestMaximalEdges:
    """`_maximal_edges` on whole graphs, as rank pairs."""

    def test_edgeless(self):
        assert mx(path_graph(1)) == ()

    def test_dominated_edge_dropped(self):
        g = graph({i: i for i in range(1, 5)}, [(1, 4), (2, 3)])
        assert mx(g) == ((0, 3),)

    def test_path_keeps_all(self):
        g = path_graph(4)
        assert mx(g) == ((0, 1), (1, 2), (2, 3))

    def test_sweep_matches_dominated_pairs(self):
        # the one-sweep mx on rank masks against the dominated-pair scan
        rng = make_rng(81)
        empty = 0  # edgeless graphs, the vertexless ones among them
        for t in range(1200):
            n = rng.randint(0, 12)
            bits = random_ordered_graph(rng, n, rng.random()).adjacency_bits()
            mask = (1 << n) - 1 if t % 4 == 0 else rng.getrandbits(n) if n else 0
            got = _maximal_edges(bits, mask)
            assert got == reference_maximal_edges(bits, mask)
            empty += not any(bits)
        assert empty >= 100

    @settings(max_examples=120, deadline=None)
    @given(random_graph_strategy(max_n=7))
    def test_domination_contract(self, g):
        maximal = mx(g)
        oriented = sorted(tuple(sorted(map(g.rank, e))) for e in g.edges)

        def dominates(e, f):
            return e != f and e[0] <= f[0] and f[1] <= e[1]

        for f in oriented:
            if f in maximal:
                assert not any(dominates(e, f) for e in oriented)
            else:
                assert any(dominates(e, f) for e in maximal)
        lefts = [a for a, _ in maximal]
        rights = [b for _, b in maximal]
        assert lefts == sorted(lefts) and rights == sorted(rights)

    @settings(max_examples=100, deadline=None)
    @given(random_graph_strategy(max_n=7))
    def test_every_nonisolated_vertex_under_some_maximal_edge(self, g):
        order = g.vertices
        spans = [span_and_left(g, (order[a], order[b]))[0] for a, b in mx(g)]
        for v in g.vertices:
            if g.neighbors(v):
                assert any(v in s for s in spans)


class TestUnderLeft:
    """The vertices left of an edge are the ranks below its earlier end."""

    def test_first_maximal_edge_has_no_earlier_endpoints(self):
        g = graph({i: i for i in range(1, 7)}, [(2, 3), (4, 6), (5, 6)])
        maximal = mx(g)
        first = maximal[0][0]
        for e in maximal:
            assert min(e) >= first


class TestPad:
    def test_zero_pad_is_identity(self):
        g = path_graph(3)
        assert g.pad(0, 0) == g

    def test_j16_padded_shape(self):
        padded = build_pattern("J16").pad(1, 1)
        assert padded.n == 5
        order = padded.vertices
        assert not padded.neighbors(order[0]) and not padded.neighbors(order[-1])
        assert is_isomorphic(padded, build_pattern("J16:1,1"))

    def test_counts(self):
        g = path_graph(2)
        assert g.pad(3, 2).n == g.n + 5

    def test_positions_per_formula(self):
        g = graph({"a": 10, "b": 12}, [("a", "b")])
        padded = g.pad(2, 2)
        positions = sorted(padded.positions().values())
        assert positions == [8, 9, 10, 12, 13, 14]

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy(max_n=6), st.integers(0, 3), st.integers(0, 3))
    def test_pad_induced_round_trip(self, g, k, l):
        padded = g.pad(k, l)
        assert is_isomorphic(padded.induced(g.vertices), g)


def neighborhoods(g, v, rho):
    """BFS reference: (vertices at distance rho, ball of radius rho without
    v, forward neighbors, backward neighbors)."""
    dist = {v: 0}
    frontier = [v]
    for d in range(1, rho + 1):
        frontier = [y for x in frontier for y in g.neighbors(x) if y not in dist]
        dist.update((y, d) for y in frontier)
    exact = frozenset(x for x, dx in dist.items() if dx == rho)
    ball = frozenset(dist) - {v}
    r = g.rank(v)
    fwd = frozenset(g.vertices[s] for s in _ranks(g.adjacency_bits()[r] & -(2 << r)))
    return exact, ball, fwd, g.neighbors(v) - fwd


class TestNeighborhoods:
    def test_isolated(self):
        g = graph({"v": 1, "w": 2})
        exact, ball, fwd, back = neighborhoods(g, "v", 1)
        assert exact == ball == fwd == back == frozenset()

    def test_leftmost_has_no_backward(self):
        g = path_graph(4)
        _, _, fwd, back = neighborhoods(g, 1, 1)
        assert back == frozenset() and fwd == {2}

    def test_distance_two(self):
        g = graph({"a": 1, "b": 2, "c": 3}, [("a", "b"), ("b", "c")])
        exact, ball, fwd, _ = neighborhoods(g, "a", 2)
        assert exact == {"c"} and ball == {"b", "c"} and fwd == {"b"}


class TestRankNormalized:
    def test_preserves_order_type(self):
        g = graph({"a": Fraction(-7, 2), "b": 4, "c": Fraction(1, 3)}, [("a", "b")])
        norm = rank_normalized(g)
        assert sorted(norm.positions().values()) == [1, 2, 3]
        assert is_isomorphic(norm, g)

    def test_idempotent(self):
        g = path_graph(4)
        assert rank_normalized(g) == g


class TestValidation:
    def test_duplicate_positions_rejected(self):
        with pytest.raises(InputError):
            graph({"a": 1, "b": 1})

    def test_float_positions_rejected(self):
        with pytest.raises(InputError):
            graph({"a": 1.5})

    def test_half_positions_are_exact(self):
        g = graph({"a": Fraction(1, 2), "b": 1})
        assert g.vertices == ("a", "b")

    def test_mixed_denominators_order_and_duplicates(self):
        g = graph({"a": Fraction(1, 3), "b": Fraction(1, 2), "c": Fraction(-5, 7), "d": 0})
        assert g.vertices == ("c", "d", "a", "b")
        assert g.position("a") == Fraction(1, 3) and isinstance(g.position("d"), Fraction)
        # the first vertex, in input order, whose position was already taken
        with pytest.raises(InputError, match=r"^duplicate position 1/2 for 'a' and 'c'$"):
            graph([("a", Fraction(1, 2)), ("b", 3), ("c", Fraction(2, 4)), ("d", Fraction(6, 2))])

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            graph({"a": 1}, [("a", "a")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InputError):
            graph({"a": 1, "b": 2}, [("a", "b"), ("b", "a")])


class TestIntegerPositions:
    """A graph keeps its positions as integer keys over a common
    denominator; every derived graph keeps the parent's positions, and
    equality and hashing agree with a graph built from those positions."""

    @staticmethod
    def _same_as_rebuilt(g):
        rebuilt = OrderedGraph(list(g.positions().items()), [tuple(e) for e in g.edges])
        assert g == rebuilt and hash(g) == hash(rebuilt)

    def test_derived_graphs_keep_the_parents_positions(self):
        rng = make_rng(303)
        coarser = 0
        for _ in range(120):
            g = positions_fuzzed(rng, random_ordered_graph(rng, rng.randint(0, 9), rng.random()))
            pos = g.positions()
            assert all(isinstance(p, Fraction) for p in pos.values())

            rev = g.reverse()
            assert rev.positions() == {v: -p for v, p in pos.items()}
            self._same_as_rebuilt(rev)

            k, l = rng.randint(0, 3), rng.randint(0, 3)
            padded = g.pad(k, l)
            assert {v: padded.position(v) for v in g.vertices} == pos
            assert padded.n == g.n + k + l
            self._same_as_rebuilt(padded)

            xs = rng.sample(g.vertices, rng.randint(0, g.n))
            sub = g.induced(xs)
            assert sub.positions() == {v: pos[v] for v in xs}
            self._same_as_rebuilt(sub)
            dens = [p.denominator for p in pos.values()]
            sub_dens = [pos[v].denominator for v in xs]
            coarser += math.lcm(*sub_dens) < math.lcm(*dens)
        assert coarser >= 20, coarser

    def test_induced_matches_a_from_keys_build(self):
        # `induced` reads the order off the parent and remaps the kept
        # adjacency bits; a build from the kept keys sorts and checks them
        rng = make_rng(304)
        coarser = 0
        for _ in range(150):
            g = random_ordered_graph(rng, rng.randint(0, 14), rng.random())
            if rng.random() < 0.7:
                g = positions_fuzzed(rng, g)
            xs = rng.sample(g.vertices, rng.randint(0, g.n))
            mask = sum(1 << g.rank(v) for v in xs)
            keys, den = _least_denominator({v: g._keys[v] for v in xs}, g._den)
            built = OrderedGraph._from_keys(keys, den, g._edge_pairs(mask))
            sub = g.induced(xs + xs[: rng.randint(0, len(xs))])  # repeats are one vertex
            assert sub == built and hash(sub) == hash(built)
            assert sub.vertices == built.vertices
            assert sub.adjacency_bits() == built.adjacency_bits()
            assert [sub.rank(v) for v in xs] == [built.rank(v) for v in xs]
            coarser += den < g._den
        assert coarser >= 20, coarser

    def test_induced_drops_the_finer_denominator(self):
        g = graph({"a": Fraction(1, 2), "b": 1, "c": 2}, [("a", "b"), ("b", "c")])
        sub = g.induced(["b", "c"])
        plain = graph({"b": 1, "c": 2}, [("b", "c")])
        assert sub == plain and hash(sub) == hash(plain)
        assert sub.position("c") == 2 and isinstance(sub.position("c"), Fraction)

    def test_int_and_fraction_spellings_agree(self):
        as_ints = graph({"a": -3, "b": 0, "c": 4})
        as_fractions = graph({"a": Fraction(-6, 2), "b": Fraction(0), "c": Fraction(8, 2)})
        assert as_ints == as_fractions and hash(as_ints) == hash(as_fractions)
        assert as_ints.positions() == as_fractions.positions()
        assert as_ints != graph({"a": -3, "b": 0, "c": Fraction(9, 2)})
        # the same keys over another denominator are other positions
        assert graph({"a": 1, "b": 2}) != graph({"a": Fraction(1, 2), "b": 1})

    def test_bool_positions_rejected(self):
        with pytest.raises(InputError):
            graph({"a": True})


class TestRandArguments:
    """The generators reject a negative size and a probability outside
    [0, 1] before they draw."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda rng: rand.random_ordered_graph(rng, -1, 0.5),
            lambda rng: rand.random_ordered_graph(rng, 4, 1.5),
            lambda rng: rand.random_ordered_graph(rng, 4, -0.1),
            lambda rng: rand.random_ordered_graph(rng, 4, float("nan")),
            lambda rng: rand.random_lists(rng, graph({"a": 1}), 2.0),
            lambda rng: rand.random_lists(rng, graph({"a": 1}), -1.0),
            lambda rng: rand.random_lists(rng, graph({"a": 1}), float("nan")),
            lambda rng: rand.random_instance(rng, -1, 0.5),
            lambda rng: rand.random_instance(rng, 4, 2.0),
            lambda rng: rand.random_instance(rng, 4, 0.5, -1.0),
            lambda rng: rand.random_instance(rng, 4, float("nan")),
            lambda rng: rand.random_instance(rng, 4, 0.5, float("nan")),
            lambda rng: rand.random_forward_clique_graph(rng, -1),
            lambda rng: rand.random_forward_clique_graph(rng, 4, 1.01),
            lambda rng: rand.random_forward_clique_graph(rng, 4, -0.5),
            lambda rng: rand.random_forward_clique_graph(rng, 4, float("nan")),
        ],
    )
    def test_rejected(self, call):
        with pytest.raises(InputError, match=r"must (be nonnegative|lie in \[0, 1\])"):
            call(make_rng(1))

    def test_range_ends(self):
        rng = make_rng(1)
        assert rand.random_ordered_graph(rng, 0, 0.5).n == 0
        assert not rand.random_ordered_graph(rng, 5, 0).edges
        assert len(rand.random_ordered_graph(rng, 5, 1).edges) == 10
        g = rand.random_ordered_graph(rng, 5, 0.5)
        assert all(cs == frozenset((1, 2, 3)) for _, cs in rand.random_lists(rng, g, 1).items())
        assert all(len(cs) < 3 for _, cs in rand.random_lists(rng, g, 0).items())
        inst = rand.random_instance(rng, 6, 1.0, 0.0)
        assert len(inst.graph.edges) == 15
        assert not rand.random_forward_clique_graph(rng, 6, 0).edges
        assert rand.random_forward_clique_graph(rng, 6, 1.0).n == 6


class TestInstance:
    """`Instance` checks its list domain and builds `color_bits` in one
    walk over the vertices."""

    @pytest.mark.parametrize(
        "positions,lists",
        [
            ({"a": 1, "b": 2}, {"a": (1,)}),  # a missing list
            ({"a": 1}, {"a": (1,), "b": (2,)}),  # an extra list
            ({}, {"x": (1, 2, 3)}),  # a list for an unknown id
        ],
    )
    def test_domain_error(self, positions, lists):
        with pytest.raises(InputError, match=r"^list assignment domain must equal the vertex set$"):
            Instance(graph(positions), ListAssignment(lists))

    def test_color_bits_match_lists(self):
        rng = make_rng(4501)
        insts = []
        for _ in range(60):
            inst = random_instance(rng, rng.randint(0, 12), rng.random(), rng.random())
            if inst.graph.n and rng.random() < 0.3:
                emptied = {rng.choice(inst.graph.vertices): frozenset()}
                inst = Instance(inst.graph, updated_lists(inst.lists, emptied))
            mirrored = Instance(inst.graph.reverse(), inst.lists)
            _, parsed = parse_instance(serialize_instance("x", inst))
            insts += [inst, mirrored, parsed]
        for src in small_source_graphs(3):
            insts += [gen_h3(src, "t5").instance, gen_h3(src, "t6").instance]
        sizes = set()
        for inst in insts:
            assert inst.color_bits == reference_color_bits(inst)
            sizes |= {len(cs) for _, cs in inst.lists.items()}
        assert sizes == {0, 1, 2, 3}


class TestValidates:
    """`Coloring.validates` checks totality, properness and lists on color
    bitsets in one pass; it agrees with the frozenset reference."""

    @staticmethod
    def _planted(rng):
        # a random coloring, edges only between different colors and lists
        # that hold each vertex's color, so the coloring is valid
        n = rng.randint(0, 12)
        colors = {f"v{i}": rng.randint(1, 3) for i in range(n)}
        names = list(colors)
        edges = [
            (a, b)
            for a, b in itertools.combinations(names, 2)
            if colors[a] != colors[b] and rng.random() < 0.4
        ]
        g = positions_fuzzed(rng, graph({v: i for i, v in enumerate(names)}, edges))
        lists = {v: {c} | {d for d in (1, 2, 3) if rng.random() < 0.5} for v, c in colors.items()}
        return Instance(g, ListAssignment(lists)), colors

    def test_agrees_with_the_reference(self):
        rng = make_rng(4601)
        verdicts = {}
        for _ in range(400):
            inst, colors = self._planted(rng)
            g = inst.graph
            drawn = {"valid": dict(colors)}
            if colors:
                v = rng.choice(g.vertices)
                drawn["partial"] = {u: c for u, c in colors.items() if u != v}
                drawn["swapped id"] = {**drawn["partial"], "extra": colors[v]}
                off = [c for c in (1, 2, 3) if c not in inst.lists.get(v)]
                if off:
                    drawn["off-list"] = {**colors, v: rng.choice(off)}
            drawn["extra id"] = {**colors, "extra": rng.randint(1, 3)}
            # an edge whose end b may take a's color: improper, on the lists
            edges = [(a, b) for a, b in g._edge_pairs() if colors[a] in inst.lists.get(b)]
            if edges:
                a, b = rng.choice(edges)
                drawn["improper"] = {**colors, b: colors[a]}
            drawn["random"] = {v: rng.randint(1, 3) for v in g.vertices}
            for kind, assignment in drawn.items():
                col = Coloring(assignment)
                got = col.validates(inst)
                assert got == reference_validates(col, inst), (kind, assignment)
                verdicts.setdefault(kind, set()).add(got)
        assert verdicts["valid"] == {True}
        for kind in ("partial", "swapped id", "extra id", "off-list", "improper"):
            assert verdicts[kind] == {False}, kind
        assert verdicts["random"] == {True, False}
