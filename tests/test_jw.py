import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from ordered_coloring import (
    Coloring,
    Instance,
    InternalError,
    ListAssignment,
    OrderedGraph,
    RefusalError,
    build_pattern,
    contains_pattern,
    solve_bruteforce,
    solve_jw,
)
import ordered_coloring
from ordered_coloring import jw, kernels, oracle
from ordered_coloring.core import _maximal_edges, _ranks
from ordered_coloring.jw import (
    augment_star,
    build_sigma_profile,
    chain,
    check_link,
    class_cap,
    gamma,
)
from ordered_coloring.kernels import _mask_at, _wide, _witness, has_k4, solve_small_class
from ordered_coloring.io import serialize_instance
from ordered_coloring.rand import make_rng, random_instance, random_ordered_graph, random_pattern_free_instance
from conftest import (
    _ONLY,
    _SETS,
    band_chain_instance,
    chain_member,
    fan_instance,
    graph,
    instance,
    is_proper,
    link_holds,
    property_x,
    property_y,
    rank_instance,
    rank_seed,
    reference_chain,
    reference_check_link,
    reference_gamma,
    reference_sigma_members,
    respects,
    restrict_coloring,
    seed_coloring,
    updated_lists,
)

JW1 = build_pattern("Jw:1")

# A Jw:1-free yes-instance with string ids that the seed chain accepts on
# a member in which every vertex is forced, so its whole witness comes
# from the member's forced colors.
FORCED_CHAIN_INSTANCE = """ograph forced
vtx v1 1
vtx v2 2
vtx v3 3
vtx v4 4
vtx v5 5
vtx v6 6
edg v1 v2
edg v1 v3
edg v1 v4
edg v1 v6
edg v2 v3
edg v2 v5
edg v2 v6
edg v3 v4
edg v3 v5
edg v4 v5
edg v4 v6
edg v5 v6
lst v2 13
lst v5 1
"""

# Prints the solve_jw witness as a list of items, then the CLI's --json
# report without its timing field.
WITNESS_SCRIPT = """
import json, sys
from ordered_coloring.cli import main
from ordered_coloring.io import parse_instance
from ordered_coloring.jw import solve_jw
_, inst = parse_instance(open(sys.argv[1]).read())
print(json.dumps(list(solve_jw(inst, 1).items())))
main(["--json", "solve", sys.argv[1], "--alg", "jw"])
"""


def jw1_free_instance(rng, n_max=8, full_bias=None):
    n = rng.randint(2, n_max)
    bias = full_bias if full_bias is not None else rng.uniform(0.2, 0.8)
    return random_pattern_free_instance(rng, JW1, n, rng.uniform(0.3, 0.9), bias)


def member_parts(inst, has):
    """A profile member, color bitsets on inst's ranks, as (wide vertices,
    their lists, forced colors of the others), as in
    `conftest.reference_sigma_members`."""
    order = inst.graph.vertices
    wide = _wide(has)
    kept = tuple(order[r] for r in _ranks(wide))
    lists = ListAssignment({order[r]: _SETS[_mask_at(has, r)] for r in _ranks(wide)})
    forced = {v: _ONLY[_mask_at(has, r)] for r, v in enumerate(order) if not wide >> r & 1}
    return kept, lists, forced


def profile_stars(inst, count=3):
    """The augmented members of the first `count` profile members (all of
    them with None)."""
    bits = inst.graph.adjacency_bits()
    for has in itertools.islice(build_sigma_profile(inst, 1), count):
        yield augment_star(jw.Member(bits, has, _wide(has)))


def two_color_fan(m):
    """`fan_instance(m)` with the lists of a, x1..xm and b cut to {2, 3}:
    a, x1 and x2 form a triangle, so for m >= 2 no coloring exists and
    no seed of the fan's edge links to the appended one."""
    fan = fan_instance(m)
    wide = ["a", *(f"x{i}" for i in range(1, m + 1)), "b"]
    return Instance(fan.graph, updated_lists(fan.lists, {v: (2, 3) for v in wide}))


def band_corpus(seed, count=12):
    """`count` band instances, alternately plain and obstructed, n=12-16."""
    rng = make_rng(seed)
    return [band_chain_instance(rng, rng.randint(12, 16), t % 2 == 1) for t in range(count)]


class TestGamma:
    def test_single_edge_full_lists(self):
        inst = instance({"u": 1, "v": 2}, [("u", "v")])
        seeds = list(gamma(chain_member(inst), (0, 1), 1))
        # only support {u, v}, as ranks; proper pairs of distinct colors
        assert len(seeds) == 6
        for s in seeds:
            sigma = seed_coloring(s)
            assert set(sigma) == {0, 1}
            cu, cv = sigma.values()
            assert cu != cv

    def test_conflicting_forced_lists_give_nothing(self):
        inst = instance(
            {"u": 1, "v": 2}, [("u", "v")], lists={"u": (1,), "v": (1,)}
        )
        assert list(gamma(chain_member(inst), (0, 1), 1)) == []

    def test_endpoints_always_in_support(self):
        inst = instance({i: i for i in range(1, 5)}, [(1, 4), (2, 3)])
        for seed in gamma(chain_member(inst), (0, 3), 1):
            sigma = seed_coloring(seed)
            assert 0 in sigma and 3 in sigma

    def test_class_cap_enforced(self):
        # width cap of 30 per class is inactive at this size, but every
        # emitted seed still satisfies it
        inst = instance({i: i for i in range(1, 7)}, [(1, 6)])
        for seed in gamma(chain_member(inst), (0, 5), 1):
            colors = list(seed_coloring(seed).values())
            for i in (1, 2, 3):
                assert colors.count(i) <= class_cap(1)

    def test_seeds_are_proper_and_list_respecting(self):
        inst = instance(
            {i: i for i in range(1, 5)},
            [(1, 4), (2, 3)],
            lists={1: (1, 2), 2: (2, 3), 3: (1, 3), 4: (1, 2, 3)},
        )
        seeds = list(gamma(chain_member(inst), (0, 3), 1))
        assert seeds
        order = inst.graph.vertices
        for seed in seeds:
            col = Coloring({order[r]: c for r, c in seed_coloring(seed).items()})
            assert is_proper(col, inst.graph) and respects(col, inst.lists)

    def test_matches_reference_in_order(self):
        # item for item against `conftest.reference_gamma`: band and fan
        # members on their maximal edges at the chain's w = 2, and random
        # members on every edge among their ranks at w = 0 and w = 1, where
        # class_cap(0) = 3 binds on wide spans
        seeds = spans = capped = 0
        stars = [star for inst in band_corpus(73, 6) for star in profile_stars(inst)]
        stars += [star for m in range(7) for star in profile_stars(fan_instance(m))]
        for star in stars:
            for e in _maximal_edges(star.bits, star.mask):
                got = list(gamma(star, e, 2))
                assert got == list(reference_gamma(star, e, 2)), e
                seeds += len(got)
                spans += 1
        rng = make_rng(74)
        for _ in range(60):
            inst = random_instance(rng, rng.randint(4, 10), rng.uniform(0.05, 0.3), rng.random())
            n, bits = inst.graph.n, inst.graph.adjacency_bits()
            m = jw.Member(bits, inst.color_bits, rng.getrandbits(n) | rng.getrandbits(n))
            for a in _ranks(m.mask):
                for b in _ranks(bits[a] & m.mask & -(2 << a)):
                    got = {w: list(gamma(m, (a, b), w)) for w in (0, 1)}
                    for w in (0, 1):
                        assert got[w] == list(reference_gamma(m, (a, b), w)), (a, b, w)
                    seeds += len(got[1])
                    spans += 1
                    capped += len(got[1]) - len(got[0])
        assert spans >= 200 and seeds >= 20_000 and capped >= 1_000, (spans, seeds, capped)

    @pytest.mark.parametrize("m,expected", [(6, 1_435), (10, 48_715)])
    def test_yields_on_the_fan(self, m, expected, monkeypatch):
        # called directly on the augmented member's maximal edges, the
        # fan's own edge and the appended one, `gamma` yields the seeds a
        # solve enumerated while the chain listed every first-edge seed
        # (counted before seeds became their class masks); a solve now
        # pulls the appended edge's seed and the fan edge's first, which
        # links to it
        (star,) = profile_stars(fan_instance(m))
        assert sum(1 for e in _maximal_edges(star.bits, star.mask) for _ in gamma(star, e, 2)) == expected
        real = jw.gamma
        yielded = 0

        def counting(*args):
            nonlocal yielded
            for seed in real(*args):
                yielded += 1
                yield seed

        monkeypatch.setattr(jw, "gamma", counting)
        assert solve_jw(fan_instance(m), 1) is not None
        assert yielded == 2


class TestProperties:
    def test_empty_phi_has_x(self):
        inst = instance({"u": 1, "v": 2}, [("u", "v")])
        seed = {"u": 1, "v": 2}
        assert property_x(inst, Coloring({}), seed)

    def test_phi_equal_to_sigma_has_x(self):
        inst = instance({"u": 1, "v": 2}, [("u", "v")])
        seed = {"u": 1, "v": 2}
        assert property_x(inst, Coloring({"u": 1}), seed)

    def test_conflicting_left_vertex_breaks_x(self):
        inst = instance({"x": 1, "u": 2, "v": 3}, [("x", "u"), ("u", "v")])
        seed = {"u": 1, "v": 2}
        assert not property_x(inst, Coloring({"x": 1}), seed)

    def test_empty_left_reduces_y_to_compatibility(self):
        inst = instance({"u": 1, "v": 2}, [("u", "v")])
        seed = {"u": 1, "v": 2}
        assert property_y(inst, Coloring({"u": 1, "v": 2}), seed, ("u", "v"))
        assert not property_y(inst, Coloring({"u": 2}), seed, ("u", "v"))

    def test_left_vertex_without_seed_neighbor_breaks_y(self):
        # x sees color 1 inside the span but has no seed neighbor colored 1
        g = graph(
            {"x": 1, "u": 2, "m": 3, "v": 4, "w": 5},
            [("x", "m"), ("u", "v"), ("m", "w")],
        )
        inst = Instance.with_full_lists(g)
        seed = {"u": 2, "v": 3}
        phi = Coloring({"m": 1})
        assert not property_y(inst, phi, seed, ("u", "v"))
        richer = {"u": 2, "m": 1, "v": 3}
        assert property_y(inst, phi, richer, ("u", "v"))

    def test_monotone_under_restriction(self):
        # restrictions of a coloring keep both properties
        rng = make_rng(61)
        for _ in range(40):
            inst = jw1_free_instance(rng, n_max=6)
            g = inst.graph
            if not g.edges:
                continue
            full = solve_bruteforce(inst)
            if full is None:
                continue
            e = next(iter(g.edges))
            e = tuple(sorted(e, key=g.rank))
            und = g.vertices[g.rank(e[0]) : g.rank(e[1]) + 1]
            seed = {x: full[x] for x in und}
            domain = sorted(full.domain(), key=str)
            for cut in range(len(domain) + 1):
                phi = restrict_coloring(full, domain[:cut])
                assert property_x(inst, phi, seed)
                assert property_y(inst, phi, seed, e)


class TestAugmentStar:
    def test_empty_graph(self):
        star = augment_star(chain_member(instance({})))
        q1, q2 = 0, 1
        ranked = rank_instance(star)
        assert ranked.graph.n == 2
        assert ranked.lists.get(q1) == {1} and ranked.lists.get(q2) == {2}
        assert _maximal_edges(star.bits, star.mask) == ((q1, q2),)

    def test_size_grows_by_two(self):
        inst = instance({i: i for i in range(1, 5)}, [(1, 2)])
        star = augment_star(chain_member(inst))
        assert rank_instance(star).graph.n == inst.graph.n + 2

    def test_maximal_edges_extended(self):
        # checked by an internal assertion on every call; exercise a few shapes
        rng = make_rng(62)
        for _ in range(40):
            inst = jw1_free_instance(rng, n_max=7)
            m = chain_member(inst)
            star = augment_star(m)
            qe = (inst.graph.n, inst.graph.n + 1)
            assert _maximal_edges(star.bits, star.mask) == _maximal_edges(m.bits, m.mask) + (qe,)

    def test_freeness_degree_rises(self):
        rng = make_rng(63)
        jw2 = build_pattern("Jw:2")
        for _ in range(25):
            inst = jw1_free_instance(rng, n_max=7)
            star = augment_star(chain_member(inst))
            assert contains_pattern(rank_instance(star).graph, jw2) is None


class TestCheckLink:
    def test_backends_agree(self):
        # the link reduction against the enumeration reference in conftest
        rng = make_rng(64)
        agreements = linked = 0
        for _ in range(200):
            inst = jw1_free_instance(rng, n_max=6)
            star = augment_star(chain_member(inst))
            mx = _maximal_edges(star.bits, star.mask)
            if len(mx) < 2:
                continue
            idx = rng.randrange(len(mx) - 1)
            e_prev, e = mx[idx], mx[idx + 1]
            prev_seeds = list(gamma(star, e_prev, 2))
            cur_seeds = list(gamma(star, e, 2))
            if not prev_seeds or not cur_seeds:
                continue
            g_prev = rng.choice(prev_seeds)
            g_cur = rng.choice(cur_seeds)
            fast = check_link(star, e, e_prev, g_cur, g_prev)
            slow = reference_check_link(star, e, e_prev, g_cur, g_prev)
            assert (fast is not None) == (slow is not None)
            if fast is not None:
                assert link_holds(star, e, e_prev, g_cur, g_prev, fast)
                linked += 1
            agreements += 1
        assert agreements >= 60 and linked >= 20, (agreements, linked)

    def test_incompatible_shared_endpoint(self):
        g = graph({1: 1, 2: 2, 3: 3}, [(1, 2), (2, 3)])
        m = chain_member(Instance.with_full_lists(g))
        e_prev, e = _maximal_edges(m.bits, m.mask)
        seed_prev = rank_seed(m, (0, 1), (1, 2))
        seed_cur = rank_seed(m, (1, 2), (1, 2))  # colors 2 vs 1 on the shared vertex
        assert check_link(m, e, e_prev, seed_cur, seed_prev) is None
        compatible = rank_seed(m, (1, 2), (2, 1))
        assert check_link(m, e, e_prev, compatible, seed_prev) == {0: 1, 1: 2}


class TestChain:
    def test_first_edge_gets_everything(self, monkeypatch):
        # every first-edge seed survives: with no link holding, each seed
        # of the second edge is tried against all of them, in `gamma` order
        m = chain_member(instance({i: i for i in range(1, 5)}, [(1, 3), (2, 4)]))
        first, second = _maximal_edges(m.bits, m.mask)
        tried = []

        def refusing(m, e, e_prev, g_seed, g_prev):
            tried.append((g_seed, g_prev))
            return None

        monkeypatch.setattr(jw, "check_link", refusing)
        assert chain(m, 1) is None
        seeds = list(gamma(m, first, 1))
        assert len(seeds) > 1
        assert tried == [(g, g_prev) for g in gamma(m, second, 1) for g_prev in seeds]

    def test_nested_edges_single_entry(self):
        inst = instance({i: i for i in range(1, 5)}, [(1, 4), (2, 3)])
        m = chain_member(inst)
        assert len(_maximal_edges(m.bits, m.mask)) == 1
        assert chain(m, 1) == {}
        clash = instance({"u": 1, "v": 2}, [("u", "v")], lists={"u": (1,), "v": (1,)})
        assert chain(chain_member(clash), 1) is None

    def test_colorable_iff_final_seed_on_augmented(self):
        rng = make_rng(65)
        for _ in range(120):
            inst = jw1_free_instance(rng, n_max=7)
            if any(not cs for _, cs in inst.lists.items()):
                continue
            star = augment_star(chain_member(inst))
            assert (chain(star, 2) is not None) == (solve_bruteforce(inst) is not None)

    def test_matches_reference_chain(self, monkeypatch):
        # against the tabulating `conftest.reference_chain`, with the
        # reference link standing in for `check_link` in both so that they
        # glue the same link colorings: the same None or the same dict,
        # key order included. Whole band instances as members end on an
        # edge with several seeds, unlike the augmented ones
        rng = make_rng(75)
        stars = [chain_member(inst) for inst in band_corpus(70, 4)]
        stars += [star for inst in band_corpus(70) for star in profile_stars(inst, None)]
        corpus = [fan_instance(m) for m in range(9)] + [two_color_fan(5)]
        corpus += [jw1_free_instance(rng) for _ in range(150)]
        stars += [star for inst in corpus for star in profile_stars(inst)]
        verdicts = [chain(star, 2) is not None for star in stars]
        monkeypatch.setattr(jw, "check_link", reference_check_link)
        outcomes = {True: 0, False: 0}
        for star, verdict in zip(stars, verdicts):
            got, expected = chain(star, 2), reference_chain(star, 2)
            assert got == expected and list(got or ()) == list(expected or ())
            assert (got is not None) == verdict
            if len(_maximal_edges(star.bits, star.mask)) > 2:
                outcomes[verdict] += 1
        assert outcomes[True] >= 15 and outcomes[False] >= 20, outcomes

    def test_uncolorable_fan_streams_the_first_edge(self, monkeypatch):
        # no fan seed links to the appended edge's one seed, so `gamma`
        # runs the fan edge to its end once, one seed per link check
        real_gamma, real_link = jw.gamma, jw.check_link
        counts = {"seeds": 0, "links": 0}

        def counting_gamma(*args):
            for seed in real_gamma(*args):
                counts["seeds"] += 1
                yield seed

        def counting_link(*args):
            counts["links"] += 1
            return real_link(*args)

        (star,) = profile_stars(two_color_fan(12))
        monkeypatch.setattr(jw, "gamma", counting_gamma)
        monkeypatch.setattr(jw, "check_link", counting_link)
        assert chain(star, 2) is None
        assert counts == {"seeds": 755, "links": 754}

    @pytest.mark.parametrize("m,cap_mib", [(12, 10), (14, 20)])
    def test_fan_memory(self, m, cap_mib):
        # the parent of this chain listed every fan seed: 88.4 MiB traced
        # at m = 12 (n = 20) and more than 500 MB at m = 14 (n = 22)
        inst = fan_instance(m)
        tracemalloc.start()
        try:
            got = solve_jw(inst, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got is not None and got.validates(inst)
        assert peak < cap_mib * 2**20, peak


class TestSigmaProfile:
    def test_members_are_spanning_refinements_of_forced_lists(self):
        rng = make_rng(66)
        for _ in range(30):
            inst = jw1_free_instance(rng, n_max=7)
            for has in build_sigma_profile(inst, 1):
                kept, lists, forced = member_parts(inst, has)
                assert set(kept) | set(forced) == set(inst.graph.vertices)
                for v in kept:
                    assert lists.get(v) <= inst.lists.get(v)
                    assert len(lists.get(v)) != 1
                assert all(c in inst.lists.get(v) for v, c in forced.items())

    def test_colorable_iff_small_class_or_member_colorable(self):
        rng = make_rng(67)
        for _ in range(80):
            inst = jw1_free_instance(rng, n_max=7)
            if has_k4(inst.graph):
                continue
            lhs = solve_bruteforce(inst) is not None
            small = solve_small_class(inst, 2) is not None
            subs = (
                Instance(inst.graph.induced(kept), lists)
                for kept, lists, _ in (member_parts(inst, has) for has in build_sigma_profile(inst, 1))
            )
            rhs = small or any(solve_bruteforce(sub, cap=sub.graph.n) is not None for sub in subs)
            assert lhs == rhs

    def test_members_match_reference_profile(self):
        # the bitset dedup and the engine's propagation against the
        # drop-every-guess path: same members, same order
        rng = make_rng(68)
        # two members agree on their wide ranks and on colors 1 and 2
        # there, and differ only in color 3
        color3_apart = instance(
            {f"v{i}": i for i in range(1, 9)},
            [("v1", "v6"), ("v6", "v7")],
            {"v5": (3,), "v8": (1, 3)},
        )
        members = several = 0
        for inst in [color3_apart] + [jw1_free_instance(rng) for _ in range(300)]:
            got = [member_parts(inst, has) for has in build_sigma_profile(inst, 1)]
            assert got == list(reference_sigma_members(inst, 1))
            members += len(got)
            several += len(got) > 1
        assert members >= 40 and several >= 5


class TestSolveJw:
    def test_witness_order_does_not_depend_on_hash_seed(self, tmp_path):
        path = tmp_path / "forced.txt"
        path.write_text(FORCED_CHAIN_INSTANCE)
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", WITNESS_SCRIPT, str(path)],
                env=env, capture_output=True, text=True, check=True,
            )
            lines = run.stdout.splitlines()
            report = json.loads(lines[-1])
            report.pop("time_ms")
            outputs.append((json.loads(lines[0]), report))
        assert outputs[0] == outputs[1]
        witness, report = outputs[0]
        assert [v for v, _ in witness] == ["v1", "v2", "v3", "v4", "v5", "v6"]
        assert report["verdict"] == "colorable" and report["witness"] == dict(witness)

    def test_two_sat_report_does_not_depend_on_hash_seed(self, tmp_path):
        # the 2-SAT clauses follow rank order; on this draw, clauses in the
        # hash order of the edge set give other witnesses under seed 1
        # than under seed 0
        rng = make_rng(3)
        for _ in range(22):
            g = random_ordered_graph(rng, 14, 0.2)
            lists = {v: frozenset(rng.sample((1, 2, 3), 2)) for v in g.vertices}
        path = tmp_path / "two.txt"
        inst = Instance(g, ListAssignment(lists))
        path.write_text(serialize_instance("two", inst))
        src = str(Path(__file__).resolve().parents[1] / "src")
        argv = ["-m", "ordered_coloring.cli", "--json", "solve", str(path), "--alg", "2sat"]
        reports = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            report = json.loads(run.stdout.splitlines()[-1])
            report.pop("time_ms")
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["verdict"] == "colorable"
        assert Coloring(reports[0]["witness"]).validates(inst)

    def test_k4_with_far_isolated_vertices(self):
        # a 4-clique padded so the single-edge pattern cannot embed
        verts = {i: i for i in range(1, 5)}
        edges = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
        inst = instance(verts, edges)
        assert contains_pattern(inst.graph, JW1) is None
        assert solve_jw(inst, 1) is None

    def test_edgeless_single_color_lists(self):
        inst = instance({i: i for i in range(1, 4)}, lists={i: (1,) for i in range(1, 4)})
        result = solve_jw(inst, 1)
        assert result is not None and result.validates(inst)

    def test_refusal_carries_witness(self):
        inst = instance({i: i for i in range(1, 6)}, [(2, 4)])
        with pytest.raises(RefusalError) as err:
            solve_jw(inst, 1)
        assert len(err.value.witness) == 5

    def test_matches_oracle(self):
        rng = make_rng(68)
        for _ in range(120):
            inst = jw1_free_instance(rng)
            got = solve_jw(inst, 1)
            assert (got is None) == (solve_bruteforce(inst) is None)
            if got is not None:
                assert got.validates(inst)

    def test_width_two(self):
        rng = make_rng(69)
        jw2 = build_pattern("Jw:2")
        for _ in range(25):
            n = rng.randint(2, 7)
            inst = random_pattern_free_instance(rng, jw2, n, rng.uniform(0.4, 0.9), 0.5)
            got = solve_jw(inst, 2)
            assert (got is None) == (solve_bruteforce(inst) is None)


class TestChainCorpus:
    """The seed chain inside `solve_jw`, on band instances that reach it
    (`conftest.band_chain_instance`)."""

    def test_links_and_verdicts_match_references(self, monkeypatch):
        # every link the chain decides against the enumeration reference,
        # every verdict against the oracle
        real = jw.check_link
        links = 0

        def checked(m, e, e_prev, g_seed, g_prev):
            nonlocal links
            links += 1
            got = real(m, e, e_prev, g_seed, g_prev)
            expected = reference_check_link(m, e, e_prev, g_seed, g_prev)
            assert (got is not None) == (expected is not None)
            if got is not None:
                assert link_holds(m, e, e_prev, g_seed, g_prev, got)
            return got

        monkeypatch.setattr(jw, "check_link", checked)
        verdicts = set()
        for inst in band_corpus(70):
            got = solve_jw(inst, 1)
            expected = solve_bruteforce(inst, cap=inst.graph.n)
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.validates(inst)
            verdicts.add(got is None)
        assert links >= 200 and verdicts == {True, False}, links

    def test_graphs_built_per_link(self, monkeypatch):
        # no graph per link check, and none for the witness: it is read
        # off the chain
        real_init = OrderedGraph.__init__
        real_link = jw.check_link
        counts = {"graphs": 0, "links": 0}

        def counting_init(self, *args, **kwargs):
            counts["graphs"] += 1
            real_init(self, *args, **kwargs)

        def counting_link(*args):
            counts["links"] += 1
            return real_link(*args)

        rng = make_rng(72)
        corpus = band_corpus(71) + [jw1_free_instance(rng) for _ in range(40)]
        monkeypatch.setattr(OrderedGraph, "__init__", counting_init)
        monkeypatch.setattr(jw, "check_link", counting_link)
        total = 0
        for inst in corpus:
            counts["graphs"] = counts["links"] = 0
            got = solve_jw(inst, 1)
            assert counts["graphs"] == 0
            total += counts["links"]
        assert total >= 100


class TestWithoutOracle:
    """`solve_jw` reads its witness off the chain: with the oracle patched
    to raise, it answers the band corpus, the first 100 criterion-1 draws
    and the fan family up to n = 18, and outside the patch each verdict
    matches the oracle's."""

    def test_chain_corpora(self, monkeypatch):
        rng = make_rng(2024_01)  # criterion 1's draws
        drawn = []
        for _ in range(100):
            n = rng.randint(2, 8)
            drawn.append(random_pattern_free_instance(rng, JW1, n, rng.uniform(0.3, 0.9), rng.uniform(0.2, 0.8)))
        corpus = band_corpus(70) + drawn + [fan_instance(m) for m in range(11)]

        accepted = []  # the members whose chain accepts
        real_chain = jw.chain

        def counting(m, w):
            ranks = real_chain(m, w)
            if ranks is not None:
                accepted.append(m)
            return ranks

        monkeypatch.setattr(jw, "chain", counting)

        def forbidden(*args, **kwargs):
            raise AssertionError("solve_jw called the oracle")

        with monkeypatch.context() as m:
            for name in ("enumerate_colorings", "solve_bruteforce"):
                real = getattr(oracle, name)
                for module in (oracle, ordered_coloring, jw, kernels):
                    if getattr(module, name, None) is real:
                        m.setattr(module, name, forbidden)
            answers = [solve_jw(inst, 1) for inst in corpus]
        for inst, got in zip(corpus, answers):
            assert (got is None) == (solve_bruteforce(inst, cap=inst.graph.n) is None)
            if got is not None:
                assert got.validates(inst)
        links = sum(len(_maximal_edges(m.bits, m.mask)) - 1 for m in accepted)
        assert len(accepted) >= 20 and links >= 12, (len(accepted), links)
        assert sum(got is None for got in answers) >= 10


class TestGluingRule:
    """Why a rank takes its color from the rightmost span that holds it.

    On this member, three links chain seeds along the maximal edges
    (4, 7), (5, 8) and (7, 9), and each link coloring below satisfies
    both properties against both of its seeds. The first and the second
    disagree on rank 7, which is off the middle seed's support. Taking
    the leftmost span's color gives the edge 7-9 one color twice; taking
    the rightmost one's gives a coloring."""

    EDGES = [(1, 2), (1, 3), (1, 4), (4, 5), (4, 6), (4, 7), (5, 6), (5, 8), (6, 8)]
    EDGES += [(7, 8), (7, 9), (8, 9), (8, 10), (9, 11), (10, 11), (10, 12), (11, 12)]
    SEEDS = (((4, 7), (3, 1)), ((5, 6, 8), (1, 2, 3)), ((7, 8, 9), (2, 3, 1)), ((13, 14), (1, 2)))
    LINKS = ({4: 3, 5: 1, 6: 2, 7: 1}, {5: 1, 6: 2, 7: 2, 8: 3}, {7: 2, 8: 3, 9: 1})

    def test_leftmost_span_fails_where_rightmost_holds(self):
        inst = instance({r: r + 1 for r in range(13)}, self.EDGES)
        has = next(build_sigma_profile(inst, 1))  # the first member, on which solve_jw accepts
        star = augment_star(jw.Member(inst.graph.adjacency_bits(), has, _wide(has)))
        mx = _maximal_edges(star.bits, star.mask)
        assert mx == ((4, 7), (5, 8), (7, 9), (13, 14))
        seeds = [rank_seed(star, support, colors) for support, colors in self.SEEDS]
        for k, psi in enumerate(self.LINKS):
            e_prev, e = mx[k], mx[k + 1]
            assert seeds[k] in gamma(star, e_prev, 2) and seeds[k + 1] in gamma(star, e, 2)
            assert link_holds(star, e, e_prev, seeds[k + 1], seeds[k], psi)
            assert check_link(star, e, e_prev, seeds[k + 1], seeds[k]) is not None
        leftmost: dict = {}
        rightmost: dict = {}
        for psi in self.LINKS:
            for r, c in psi.items():
                leftmost.setdefault(r, c)
            rightmost |= psi
        assert leftmost[7] == leftmost[9] == 1
        with pytest.raises(InternalError):
            _witness(inst, leftmost, has)
        assert _witness(inst, rightmost, has).validates(inst)
        assert solve_jw(inst, 1).validates(inst)
