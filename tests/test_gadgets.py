import dataclasses
import itertools

import pytest

from ordered_coloring import (
    CapExceededError,
    Coloring,
    InputError,
    Instance,
    ListAssignment,
    NaeInstance,
    OrderedGraph,
    build_pattern,
    contains_pattern,
    realize_lists,
    solve_bruteforce,
    verify_gadget,
)
from ordered_coloring.gadgets import (
    gen_bipartite,
    gen_h1,
    gen_h2,
    gen_h3,
    gen_h4,
    gen_h5,
)
from ordered_coloring import enumerate_colorings, gadgets, nae_bruteforce
from ordered_coloring.rand import make_rng, random_nae
from conftest import complete_graph, graph, instance, small_source_graphs, updated_lists


def enumerate_colorings_capped(inst, limit):
    for i, col in enumerate(enumerate_colorings(inst, cap=500)):
        if i >= limit:
            return
        yield col


class TestBipartite:
    def test_single_edge(self):
        src = instance({"a": 5, "b": 7}, [("a", "b")])
        out = gen_bipartite(src)
        assert sorted(out.instance.graph.positions().values()) == [1, 2]

    def test_c4_is_free_of_advertised(self):
        src = instance({i: i for i in range(1, 5)}, [(1, 2), (2, 3), (3, 4), (1, 4)])
        out = gen_bipartite(src)
        for pid in out.advertised_free:
            assert contains_pattern(out.instance.graph, build_pattern(pid)) is None

    def test_not_bipartite_rejected(self, triangle):
        with pytest.raises(InputError):
            gen_bipartite(Instance.with_full_lists(triangle))

    def test_colorability_preserved(self):
        rng = make_rng(90)
        for _ in range(40):
            n_left = rng.randint(1, 4)
            n_right = rng.randint(1, 4)
            verts = {f"l{i}": i for i in range(1, n_left + 1)}
            verts.update({f"r{j}": 10 + j for j in range(1, n_right + 1)})
            edges = [
                (f"l{i}", f"r{j}")
                for i in range(1, n_left + 1)
                for j in range(1, n_right + 1)
                if rng.random() < 0.5
            ]
            g = OrderedGraph(verts.items(), edges)
            lists = {
                v: tuple(sorted(rng.sample((1, 2, 3), rng.randint(1, 3))))
                for v in g.vertices
            }
            src = Instance(g, ListAssignment(lists))
            out = gen_bipartite(src)
            assert (solve_bruteforce(out.instance) is None) == (
                solve_bruteforce(src) is None
            )


class TestH1:
    def test_t1_positions(self):
        out = gen_h1(NaeInstance(3, [(1, 2, 3)]), "t1")
        g = out.instance.graph
        assert g.n == 7
        assert g.position("x") == 1
        assert [g.position(f"m{i}") for i in (1, 2, 3)] == [2, 3, 4]
        assert sorted(g.position(f"t1_{k}") for k in (1, 2, 3)) == [5, 6, 7]

    def test_t2_places_hub_between(self):
        out = gen_h1(NaeInstance(2, [(1, 2, 2)]) if False else NaeInstance(3, [(1, 2, 3)]), "t2")
        g = out.instance.graph
        assert g.position("x") == 4
        assert [g.position(f"m{i}") for i in (1, 2, 3)] == [1, 2, 3]

    def test_clause_triangles_disjoint(self):
        nae = NaeInstance(4, [(1, 2, 3), (1, 2, 4)])
        out = gen_h1(nae, "t1")
        g = out.instance.graph
        tnames = [v for v in g.vertices if str(v).startswith("t")]
        sub = g.induced(tnames)
        assert len(sub.edges) == 6  # two vertex-disjoint triangles
        comp_sizes = sorted(len(sub.neighbors(v)) for v in tnames)
        assert comp_sizes == [2] * 6

    @pytest.mark.parametrize("ordering", ["t1", "t2", "t3"])
    def test_soundness_and_freeness(self, ordering):
        rng = make_rng(91)
        for _ in range(20):
            nae = random_nae(rng, rng.randint(3, 4), rng.randint(1, 3))
            out = gen_h1(nae, ordering)
            report = verify_gadget(out, oracle_cap=40)
            assert report.passed, report.entries


class TestH2:
    def test_size_formula(self):
        nae = NaeInstance(3, [(1, 2, 3)])
        out = gen_h2(nae)
        assert out.instance.graph.n == 3 + 6 * 1 + 1

    def test_hub_adjacent_to_variables_and_separators(self):
        nae = NaeInstance(3, [(1, 2, 3)])
        g = gen_h2(nae).instance.graph
        ms = {v for v in g.vertices if str(v).startswith("m")}
        ss = {v for v in g.vertices if str(v).startswith("s")}
        assert ms | ss <= g.neighbors("x")

    def test_soundness_and_freeness(self):
        rng = make_rng(92)
        for _ in range(20):
            nae = random_nae(rng, rng.randint(3, 4), rng.randint(1, 3))
            report = verify_gadget(gen_h2(nae), oracle_cap=40)
            assert report.passed, report.entries


class TestRealizeLists:
    def displayed_example(self):
        # one source edge expanded into three paths with interior sizes
        # 5, 5, 4 and full lists on the endpoints
        verts = {"u": 0, "v": 100}
        edges = []
        registry = {}
        for branch, t in ((1, 5), (2, 5), (3, 4)):
            names = [f"p{branch}_{j}" for j in range(1, t + 1)]
            for j, name in enumerate(names):
                verts[name] = 10 * branch + j
            chain = ["u"] + names + ["v"]
            edges.extend(zip(chain, chain[1:]))
            registry[(("u", "v"), branch)] = tuple(chain)
        return OrderedGraph(verts.items(), edges), registry

    def test_displayed_lists(self):
        g, registry = self.displayed_example()
        lists = realize_lists(g, registry)
        assert lists.get("u") == {1, 2, 3} and lists.get("v") == {1, 2, 3}
        # odd interior on branch 1: shifted head then the branch pair
        assert [sorted(lists.get(f"p1_{j}")) for j in range(1, 6)] == [
            [1, 2], [2, 3], [1, 3], [1, 2], [1, 2],
        ]
        # odd interior on branch 2
        assert [sorted(lists.get(f"p2_{j}")) for j in range(1, 6)] == [
            [2, 3], [1, 3], [1, 2], [2, 3], [2, 3],
        ]
        # even interior on branch 3: the branch pair throughout
        assert [sorted(lists.get(f"p3_{j}")) for j in range(1, 5)] == [
            [1, 3], [1, 3], [1, 3], [1, 3],
        ]

    def test_single_edge_source_is_equivalent(self):
        g, registry = self.displayed_example()
        lists = realize_lists(g, registry)
        inst = Instance(g, lists)
        # the two endpoint colors must differ in every coloring, and every
        # unequal pair extends
        for cu in (1, 2, 3):
            for cv in (1, 2, 3):
                forced = {
                    v: (lists.get(v) if v not in ("u", "v") else frozenset((cu if v == "u" else cv,)))
                    for v in g.vertices
                }
                ok = solve_bruteforce(Instance(g, ListAssignment(forced))) is not None
                assert ok == (cu != cv)

    def test_overlapping_interiors_rejected(self):
        g, registry = self.displayed_example()
        bad = dict(registry)
        p1 = list(bad[(("u", "v"), 1)])
        p2 = list(bad[(("u", "v"), 2)])
        p2[2] = p1[2]
        bad[(("u", "v"), 2)] = tuple(p2)
        with pytest.raises(InputError):
            realize_lists(g, bad)

    def test_uncovered_edge_rejected(self):
        g, registry = self.displayed_example()
        extra = OrderedGraph(
            list(g.positions().items()),
            [tuple(e) for e in g.edges] + [("p1_1", "p2_1")],
        )
        with pytest.raises(InputError):
            realize_lists(extra, registry)

    def test_restriction_and_extension_directions(self):
        # restriction of any expansion coloring properly colors the source,
        # and every proper source coloring extends to the expansion
        src = graph({"a": 1, "b": 2, "c": 3}, [("a", "b"), ("b", "c")])
        out = gen_h4(src)
        inst = out.instance
        seen_restrictions = set()
        for col in enumerate_colorings_capped(inst, limit=200):
            restriction = {v: col[v] for v in src.vertices}
            for e in src.edges:
                u, v = tuple(e)
                assert restriction[u] != restriction[v]
            seen_restrictions.add(tuple(sorted(restriction.items())))
        assert seen_restrictions
        import itertools as it

        for combo in it.product((1, 2, 3), repeat=src.n):
            source_col = dict(zip(src.vertices, combo))
            proper = all(
                source_col[u] != source_col[v]
                for e in src.edges
                for u, v in [tuple(e)]
            )
            forced = ListAssignment(
                {
                    v: (frozenset((source_col[v],)) if v in source_col else inst.lists.get(v))
                    for v in inst.graph.vertices
                }
            )
            extended = solve_bruteforce(Instance(inst.graph, forced), cap=200)
            assert (extended is not None) == proper

    def test_short_interior_rejected(self):
        verts = {"u": 0, "v": 10, "w": 5}
        edges = [("u", "w"), ("w", "v")]
        g = OrderedGraph(verts.items(), edges)
        registry = {(("u", "v"), b): ("u", "w", "v") for b in (1, 2, 3)}
        with pytest.raises(InputError):
            realize_lists(g, registry)


EXPANDERS = [
    ("h3-t5", lambda s: gen_h3(s, "t5")),
    ("h3-t6", lambda s: gen_h3(s, "t6")),
    ("h4", gen_h4),
    ("h5", gen_h5),
]


class TestExpanders:
    def test_single_edge_structure(self):
        src = graph({"a": 1, "b": 2}, [("a", "b")])
        out = gen_h3(src, "t5")
        levels = {v for v in out.instance.graph.vertices if str(v).startswith("w")}
        assert {int(str(v)[1]) for v in levels} == {1, 2, 3}
        assert set(out.path_registry) == {(("a", "b"), 1), (("a", "b"), 2), (("a", "b"), 3)}

    def test_h4_closing_block_is_last(self):
        src = graph({"a": 1, "b": 2}, [("a", "b")])
        out = gen_h4(src)
        g = out.instance.graph
        zs = [v for v in g.vertices if str(v).startswith("z")]
        ws = [v for v in g.vertices if str(v).startswith("w")]
        assert zs and max(g.position(w) for w in ws) < min(g.position(z) for z in zs)

    def test_h5_gap_row_counts(self):
        src = graph({"a": 1, "b": 2}, [("a", "b")])
        out = gen_h5(src)
        g = out.instance.graph
        # level 1 has closing gap 3: drifting thread gets one interpolated
        # row, the others get two
        assert g.has_vertex("x2^1(a,b,1)")
        assert not g.has_vertex("x2^1(b,a,1)")
        assert g.has_vertex("x1^1(b,a,1)")

    @pytest.mark.parametrize("name,gen", EXPANDERS)
    def test_corpus_verification(self, name, gen):
        for src in small_source_graphs(3):
            out = gen(src)
            report = verify_gadget(out, oracle_cap=2000)
            assert report.passed, (name, src.edges, report.entries)

    @pytest.mark.parametrize("name,gen", EXPANDERS)
    def test_uncolorable_source(self, name, gen):
        out = gen(complete_graph(4))
        report = verify_gadget(out, oracle_cap=4000)
        assert report.passed, (name, report.entries)
        assert solve_bruteforce(out.instance, cap=4000) is None

    def test_oracle_over_the_cap_raises(self):
        # 103 vertices: the cap leaves equi-satisfiability undecided, which
        # is no failed check
        out = gen_h4(graph({i: i for i in range(1, 5)}, [(1, 2), (2, 3), (3, 4)]))
        with pytest.raises(CapExceededError, match="103 vertices, cap is 60"):
            verify_gadget(out, oracle_cap=60)

    def test_reversal_of_output_avoids_reversed_patterns(self):
        src = graph({"a": 1, "b": 2, "c": 3}, [("a", "b"), ("b", "c")])
        for name, gen in EXPANDERS:
            out = gen(src)
            reversed_graph = out.instance.graph.reverse()
            for pid in out.advertised_free:
                mirrored = build_pattern(pid).reverse()
                assert contains_pattern(reversed_graph, mirrored) is None, (name, pid)


class TestVerifyNegativeControls:
    def test_tampered_edge_breaks_freeness(self):
        nae = NaeInstance(3, [(1, 2, 3)])
        out = gen_h1(nae, "t1")
        g = out.instance.graph
        # a variable-to-foreign-corner edge creates a two-backward-neighbor
        # configuration that the advertised list forbids
        tampered = OrderedGraph(
            list(g.positions().items()),
            [tuple(e) for e in g.edges] + [("m1", "t1_2")],
        )
        bad = type(out)(
            instance=Instance.with_full_lists(tampered),
            provenance=out.provenance,
            advertised_free=out.advertised_free,
            source_kind=out.source_kind,
            source=out.source,
        )
        report = verify_gadget(bad, oracle_cap=40)
        assert not report.passed
        assert any(name.startswith("advertised-free") and not ok for name, ok, _ in report.entries)

    def test_corrupted_registry_detected(self):
        src = graph({"a": 1, "b": 2}, [("a", "b")])
        out = gen_h4(src)
        bad_registry = dict(out.path_registry)
        key = (("a", "b"), 1)
        other = (("a", "b"), 2)
        path = list(bad_registry[key])
        path[2] = bad_registry[other][2]
        bad_registry[key] = tuple(path)
        bad = type(out)(
            instance=out.instance,
            provenance=out.provenance,
            advertised_free=out.advertised_free,
            path_registry=bad_registry,
            source_kind=out.source_kind,
            source=out.source,
        )
        report = verify_gadget(bad, oracle_cap=1000)
        assert any(name == "path-registry" and not ok for name, ok, _ in report.entries)


    def test_list_off_the_realization_detected(self):
        src = graph({"a": 1, "b": 2}, [("a", "b")])
        for name, gen in EXPANDERS:
            out = gen(src)
            w = out.path_registry[(("a", "b"), 1)][1]
            lists = updated_lists(out.instance.lists, {w: (1, 2, 3)})
            bad = dataclasses.replace(out, instance=Instance(out.instance.graph, lists))
            report = verify_gadget(bad)
            assert ("path-registry", False, "lists differ from the realization") in report.entries, name


def nae_builds(nae):
    return [gen_h1(nae, o) for o in ("t1", "t2", "t3")] + [gen_h2(nae)]


def expected_passing_entries(out):
    """The report of a sound gadget with a satisfiable source."""
    return tuple((f"advertised-free:{pid}", True, "") for pid in out.advertised_free) + (
        ("equi-satisfiability", True, "gadget=True source=True"),
    )


def counting_oracle(monkeypatch):
    calls = []

    def oracle(inst, cap=20):
        calls.append(inst)
        return solve_bruteforce(inst, cap=cap)

    monkeypatch.setattr(gadgets, "solve_bruteforce", oracle)
    return calls


class TestVerifyWitness:
    """Satisfiable NAE sources are decided by the coloring the assignment
    maps to; the oracle decides everything else."""

    def test_satisfiable_sources_need_no_oracle(self, monkeypatch):
        def no_oracle(*args, **kwargs):
            raise AssertionError("oracle called on a satisfiable source")

        monkeypatch.setattr(gadgets, "solve_bruteforce", no_oracle)
        rng = make_rng(93)
        checked = 0
        for _ in range(30):
            nae = random_nae(rng, rng.randint(3, 6), rng.randint(1, 5))
            if nae_bruteforce(nae) is None:
                continue
            for out in nae_builds(nae):
                assert verify_gadget(out, oracle_cap=40).entries == expected_passing_entries(out)
                checked += 1
        assert checked >= 80

    def test_satisfiable_source_above_the_cap_passes(self, monkeypatch):
        calls = counting_oracle(monkeypatch)
        out = gen_h2(random_nae(make_rng(12), 12, 20))
        assert out.instance.graph.n > 40
        assert verify_gadget(out, oracle_cap=40).entries == expected_passing_entries(out)
        assert calls == []

    def test_unsatisfiable_source_runs_the_oracle_once(self, monkeypatch):
        # every 3-subset of 5 variables: any 2-coloring of the variables
        # puts three of one color together
        nae = NaeInstance(5, list(itertools.combinations(range(1, 6), 3)))
        assert nae_bruteforce(nae) is None
        for out in nae_builds(nae):
            calls = counting_oracle(monkeypatch)
            report = verify_gadget(out, oracle_cap=400)
            assert report.passed, report.entries
            assert calls == [out.instance]
            assert ("equi-satisfiability", True, "gadget=False source=False") in report.entries

    def test_failed_witness_falls_back_to_the_oracle(self, monkeypatch):
        nae = NaeInstance(4, [(1, 2, 3), (2, 3, 4)])
        for out in nae_builds(nae):
            witness = gadgets._nae_coloring(out, nae_bruteforce(nae))
            assert witness.validates(out.instance)
            corner = next(
                v for v in out.instance.graph.vertices if str(v).startswith("t") and witness[v] == 3
            )
            g = out.instance.graph
            tampered = dataclasses.replace(
                out,
                instance=Instance.with_full_lists(
                    OrderedGraph(list(g.positions().items()), [tuple(e) for e in g.edges] + [("x", corner)])
                ),
            )
            calls = counting_oracle(monkeypatch)
            entries = verify_gadget(tampered, oracle_cap=40).entries
            assert calls == [tampered.instance]
            monkeypatch.setattr(gadgets, "_nae_coloring", lambda out, assignment: Coloring({}))
            assert entries == verify_gadget(tampered, oracle_cap=40).entries
            monkeypatch.undo()

    def test_cli_gen_verify_h2_without_oracle(self, tmp_path, monkeypatch):
        import contextlib
        import io

        from ordered_coloring.cli import main

        def no_oracle(*args, **kwargs):
            raise AssertionError("oracle called on a satisfiable source")

        nae_path = tmp_path / "i.nae"
        nae_path.write_text("nae 4\ncls 1 2 3\ncls 2 3 4\ncls 1 2 4\n", encoding="utf-8")
        prefix = str(tmp_path / "h2")
        assert main(["gen", str(nae_path), "--gadget", "h2", "--out", prefix]) == 0
        monkeypatch.setattr(gadgets, "solve_bruteforce", no_oracle)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["verify", prefix + ".og", "--prov", prefix + ".prov", "--source", str(nae_path)])
        assert code == 0
        assert buf.getvalue() == (
            "command verify\n"
            "verdict verified\n"
            "check:advertised-free:J7 pass\n"
            "check:advertised-free:J13 pass\n"
            "check:advertised-free:J14 pass\n"
            "check:equi-satisfiability pass gadget=True source=True\n"
        )
