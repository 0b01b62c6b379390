import argparse
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from ordered_coloring import (
    Coloring,
    InputError,
    Instance,
    InternalError,
    ListAssignment,
    OrderedGraph,
    build_pattern,
    solve_j16,
)
from ordered_coloring.cli import _parser, main
from ordered_coloring.gadgets import (
    GADGETS,
    gen_bipartite,
    gen_h1,
    gen_h2,
    gen_h3,
    gen_h4,
    gen_h5,
)
from ordered_coloring.io import (
    parse_instance,
    parse_nae,
    parse_position_token,
    parse_provenance,
    serialize_instance,
    serialize_provenance,
)
from ordered_coloring.rand import (
    make_rng,
    random_forward_clique_graph,
    random_instance,
    random_lists,
    random_nae,
    random_pattern_free_instance,
)
from conftest import instance, serialize_nae


SAMPLE = """# demo file
ograph demo
vtx a 1
vtx b 5/2
vtx c -3
edg a b
edg c a
lst a 12
lst b 0
"""


class TestOrderedGraphFormat:
    def test_parse_sample(self):
        name, inst = parse_instance(SAMPLE)
        assert name == "demo"
        g = inst.graph
        assert g.vertices == ("c", "a", "b")
        assert g.position("b") == Fraction(5, 2)
        assert inst.lists.get("a") == {1, 2}
        assert inst.lists.get("b") == frozenset()
        assert inst.lists.get("c") == {1, 2, 3}

    def test_round_trip(self):
        rng = make_rng(201)
        for _ in range(40):
            inst = random_instance(rng, rng.randint(0, 9), rng.random(), rng.random())
            text = serialize_instance("rt", inst)
            name, back = parse_instance(text)
            assert name == "rt" and back == inst
            assert serialize_instance("rt", back) == text

    def test_trusted_parse_matches_checked_constructors(self):
        # the parser builds the rank order, the adjacency bits and the color
        # bitsets itself; they must equal what the checked constructors
        # build from the same records, whatever the record order and the
        # spelling of the positions
        rng = make_rng(202)
        shuffled = fractional = 0
        for t in range(80):
            inst = random_instance(rng, 6 if t < 2 else rng.randint(0, 12), rng.random(), rng.random())
            g = inst.graph
            tokens = {}
            for v, y in zip(g.vertices, rng.sample(range(-60, 60), g.n)):
                x, scale = Fraction(y, 4), rng.choice((1, 2))  # 2/4 spells 1/2
                num, den = x.numerator * scale, x.denominator * scale
                tokens[v] = f"{num}/{den}" if den > 1 else str(num)
            if t == 0:
                tokens = dict(zip(g.vertices, ("5/2", "2/4", "-3", "-7/3", "0", "9/4")))
            if t == 1:  # integer and fractional spellings of integers, mixed
                tokens = dict(zip(g.vertices, ("6/2", "-0", "2/4", "7", "-10/5", "11/3")))
            verts = list(g.vertices)
            rng.shuffle(verts)
            records = [f"lst {v} {''.join(map(str, sorted(inst.lists[v]))) or '0'}" for v in verts]
            records = [r for r in records if not r.endswith(" 123") or rng.random() < 0.3]
            records += [f"edg {u} {v}" if rng.random() < 0.5 else f"edg {v} {u}" for u, v in g._edge_pairs()]
            rng.shuffle(records)
            text = "\n".join(["ograph t"] + [f"vtx {v} {tokens[v]}" for v in verts] + records)

            _, got = parse_instance(text)
            want = Instance(
                OrderedGraph([(v, parse_position_token(tokens[v])) for v in verts], g._edge_pairs()),
                ListAssignment({v: inst.lists[v] for v in verts}),
            )
            gg, wg = got.graph, want.graph
            assert gg.vertices == wg.vertices
            assert [gg.rank(v) for v in verts] == [wg.rank(v) for v in verts]
            assert gg.adjacency_bits() == wg.adjacency_bits()
            assert gg.positions() == wg.positions()
            assert list(got.lists.items()) == list(want.lists.items())
            assert got.color_bits == want.color_bits
            assert got == want
            # integral positions handed over as ints build the same graph
            exact = [(v, parse_position_token(tokens[v])) for v in verts]
            mixed = OrderedGraph(
                [(v, int(p) if p.denominator == 1 else p) for v, p in exact], g._edge_pairs()
            )
            assert gg == wg == mixed
            assert hash(gg) == hash(wg) == hash(mixed)
            assert hash(got) == hash(want)
            shuffled += tuple(verts) != gg.vertices
            fractional += any("/" in x or "-" in x for x in tokens.values())
        assert shuffled >= 40 and fractional >= 40, (shuffled, fractional)

    def test_readme_example_parses_verbatim(self):
        # the `ograph` block under "File formats" in README.md, as written
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```\n(.*?)^```$", readme, re.M | re.S)
        (example,) = [b for b in blocks if b.startswith("ograph ")]
        name, inst = parse_instance(example)
        g = inst.graph
        assert name == "name" and g.vertices == ("a", "b")
        assert g.position("b") == Fraction(5, 2) and g.has_edge("a", "b")
        assert inst.lists["a"] == {1, 2} and inst.lists["b"] == {1, 2, 3}

    @pytest.mark.parametrize(
        "bad,fragment",
        [
            ("vtx a 1\nvtx a 2", "duplicate vertex"),
            ("vtx a 1\nvtx b 1", "position"),
            ("vtx a 1/2\nvtx b 2/4", "position 2/4 already used by 'a'"),
            ("vtx a 3\nvtx b 6/2", "position 6/2 already used by 'a'"),
            ("vtx a 0\nvtx b -0", "position -0 already used by 'a'"),
            ("vtx a 1\nedg a b", "unknown vertex"),
            ("vtx a 1\nvtx b 2\nedg a b\nedg b a", "duplicate edge"),
            ("vtx a 1\nedg a a", "self-loop"),
            ("vtx a 1\nlst a 14", "bad list digits"),
            ("vtx a 1\nlst a 11", "bad list digits"),
            ("vtx a 1\nlst a 00", "bad list digits"),
            ("vtx a 1\nlst a 10", "bad list digits"),
            ("vtx a 1\nlst a 12\nlst a 3", "duplicate list for 'a'"),
            ("lst a 1", "unknown vertex 'a'"),
            ("vtx a 1.5", "bad position"),
            ("vtx a 1/0", "bad position"),
            ("blah a b", "unknown record"),
            ("ograph g\nograph h", "duplicate header"),
            ("ograph", "expected `ograph <name>`"),
            ("ograph g h", "expected `ograph <name>`"),
            ("vtx a", "expected `vtx <id> <pos>`"),
            ("vtx a 1 2", "expected `vtx <id> <pos>`"),
            ("vtx a 1\nedg a", "expected `edg <id> <id>`"),
            ("vtx a 1\nvtx b 2\nedg a b a", "expected `edg <id> <id>`"),
            ("vtx a 1\nlst a", "expected `lst <id> <digits>`"),
            ("vtx a 1\nlst a 1 2", "expected `lst <id> <digits>`"),
            ("# comment\n\n  \nvtx a 1\n  # indented\nvtx a 2", "duplicate vertex"),
        ],
    )
    def test_strict_errors_carry_line_numbers(self, bad, fragment):
        lineno = bad.count("\n") + 1  # the offending record is always the last line
        with pytest.raises(InputError) as err:
            parse_instance(bad)
        assert fragment in str(err.value)
        assert str(err.value).startswith(f"line {lineno}: ")

    @pytest.mark.parametrize(
        "digits,colors",
        [("0", ()), ("1", (1,)), ("31", (1, 3)), ("21", (1, 2)), ("321", (1, 2, 3)), ("123", (1, 2, 3))],
    )
    def test_list_digits(self, digits, colors):
        _, inst = parse_instance(f"vtx a 1\nlst a {digits}")
        assert inst.lists.get("a") == frozenset(colors)


class TestNaeFormat:
    def test_round_trip(self):
        rng = make_rng(202)
        for _ in range(25):
            inst = random_nae(rng, rng.randint(3, 8), rng.randint(0, 6))
            assert parse_nae(serialize_nae(inst)) == inst

    def test_header_required(self):
        with pytest.raises(InputError):
            parse_nae("cls 1 2 3")

    def test_invalid_clause(self):
        with pytest.raises(InputError):
            parse_nae("nae 2\ncls 1 2 3")


class TestProvenanceFormat:
    def test_round_trip(self):
        roles = {"x": "x", "m1": "m_1", "t1_2": "t_{1,2}"}
        meta = {"gadget": ("h1",), "free": ("J3", "neg:J11")}
        text = serialize_provenance(roles, meta)
        back_roles, back_meta, back_registry = parse_provenance(text)
        assert back_roles == roles
        assert back_meta == meta
        assert back_registry == {}
        assert serialize_provenance(back_roles, back_meta) == text
        # path records keep registry order, which is not sorted order
        registry = {
            (("b", "c"), 2): ("b", "w1(b,c,2)", "z2", "c"),
            (("a", "b"), 1): ("a", "w1(a,b,1)", "w1(b,a,1)", "b"),
        }
        text = serialize_provenance(roles, meta, registry)
        assert text.endswith("path 2 b w1(b,c,2) z2 c\npath 1 a w1(a,b,1) w1(b,a,1) b\n")
        back = parse_provenance(text)
        assert back == (roles, meta, registry)
        assert list(back[2]) == list(registry)
        assert serialize_provenance(*back) == text

    @pytest.mark.parametrize(
        "bad,fragment",
        [
            ("meta gadget h1\nmeta gadget h2", "duplicate meta key 'gadget'"),
            ("path 0 a x b", "branch must be 1, 2 or 3, got '0'"),
            ("path 4 a x b", "branch must be 1, 2 or 3, got '4'"),
            ("path one a x b", "branch must be 1, 2 or 3, got 'one'"),
            ("path 1 a", "expected `path <branch> <id> <id> ...`"),
            ("path 1", "expected `path <branch> <id> <id> ...`"),
            ("path 2 a x b\npath 2 a y z b", "duplicate path for ('a', 'b') branch 2"),
            ("prov a x\nprov a y", "duplicate provenance for 'a'"),
            ("edge a b", "unknown record"),
        ],
    )
    def test_strict_errors_carry_line_numbers(self, bad, fragment):
        lineno = bad.count("\n") + 1  # the offending record is always the last line
        with pytest.raises(InputError) as err:
            parse_provenance("# sidecar\n" + bad)
        assert fragment in str(err.value)
        assert str(err.value).startswith(f"line {lineno + 1}: ")


def run_cli(tmp_path, *argv):
    import io as _io
    import contextlib

    buf = _io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.fixture
def k4_file(tmp_path):
    inst = instance(
        {chr(97 + i): i + 1 for i in range(4)},
        [(chr(97 + a), chr(97 + b)) for a in range(4) for b in range(a + 1, 4)],
    )
    path = tmp_path / "k4.og"
    path.write_text(serialize_instance("k4", inst), encoding="utf-8")
    return str(path)


class TestCli:
    def test_oracle_on_k4(self, tmp_path, k4_file):
        code, out = run_cli(tmp_path, "solve", k4_file, "--alg", "oracle")
        assert code == 1 and "verdict not-colorable" in out

    def test_jw_matches_oracle_exit(self, tmp_path, k4_file):
        code, out = run_cli(tmp_path, "solve", k4_file, "--alg", "jw", "--w", "1")
        assert code == 1

    def test_j16_solver(self, tmp_path, k4_file):
        code, out = run_cli(tmp_path, "solve", k4_file, "--alg", "j16", "--k", "0", "--l", "0")
        assert code == 1

    def test_witness_printed_and_valid(self, tmp_path):
        path = tmp_path / "p.og"
        path.write_text("ograph p\nvtx a 1\nvtx b 2\nedg a b\nlst a 1\n", encoding="utf-8")
        code, out = run_cli(tmp_path, "solve", str(path), "--alg", "oracle")
        assert code == 0 and "witness a=1" in out

    def test_chordal_solve_builds_no_fraction(self, tmp_path, monkeypatch):
        # integer positions stay integer keys from the parser to the
        # witness: a `J16` solve that pads and finishes a chordal instance
        # builds no `Fraction`, in `core` or in `io`
        from ordered_coloring import core, io as io_module, j16

        rng = make_rng(1)
        g = random_forward_clique_graph(rng, 120, 0.5)
        path = tmp_path / "c120.og"
        path.write_text(serialize_instance("c120", Instance(g, random_lists(rng, g, 0.8))))
        built, padded = [], []

        class CountingFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        real_pad_sets = j16.pad_sets
        monkeypatch.setattr(core, "Fraction", CountingFraction)
        monkeypatch.setattr(io_module, "Fraction", CountingFraction)
        monkeypatch.setattr(j16, "pad_sets", lambda *a: padded.append(a) or real_pad_sets(*a))
        code, out = run_cli(tmp_path, "--json", "solve", str(path), "--alg", "j16")
        assert code == 0 and "verdict colorable" in out
        assert padded and built == []
        # the counter counts: a fractional position and a position query build some
        _, inst = parse_instance("vtx a 5/2\nvtx b 3\n")
        inst.graph.position("b")
        assert len(built) == 2

    @pytest.mark.parametrize("alg", ["oracle", "2sat", "chordal", "jw", "j16"])
    def test_witness_validated_once(self, tmp_path, monkeypatch, alg):
        # a path with two-color lists suits every algorithm: chordal, free
        # of Jw:1 and J16:0,0, and colorable
        calls = []
        real = Coloring.validates
        monkeypatch.setattr(Coloring, "validates", lambda self, inst: calls.append(1) or real(self, inst))
        path = tmp_path / "path.og"
        path.write_text(
            "ograph path\nvtx a 1\nvtx b 2\nvtx c 3\nedg a b\nedg b c\nlst a 12\nlst b 23\nlst c 12\n",
            encoding="utf-8",
        )
        code, out = run_cli(tmp_path, "solve", str(path), "--alg", alg)
        assert code == 0 and "verdict colorable" in out
        assert len(calls) == 1

    def test_refusal_exit_code(self, tmp_path):
        path = tmp_path / "jw1.og"
        path.write_text(
            "ograph jw1\n" + "".join(f"vtx v{i} {i}\n" for i in range(1, 6)) + "edg v2 v4\n",
            encoding="utf-8",
        )
        code, out = run_cli(tmp_path, "solve", str(path), "--alg", "jw", "--w", "1")
        assert code == 2 and "verdict refused" in out and "pattern-witness" in out

    def test_input_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.og"
        path.write_text("vtx a 1\nvtx a 2\n", encoding="utf-8")
        code, out = run_cli(tmp_path, "solve", str(path), "--alg", "oracle")
        assert code == 3 and "verdict input-error" in out

    @pytest.mark.parametrize("error", [InternalError("broken invariant"), KeyError("bug")])
    def test_internal_error_exit_code(self, tmp_path, k4_file, monkeypatch, error):
        # a crash inside a solver must not read as "not-colorable" (exit 1)
        def crash(*args, **kwargs):
            raise error

        monkeypatch.setattr("ordered_coloring.cli.solve_jw", crash)
        code, out = run_cli(tmp_path, "--json", "solve", k4_file, "--alg", "jw")
        assert code == 4 and "verdict internal-error" in out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["verdict"] == "internal-error"
        assert payload["error"].startswith(type(error).__name__)

    def test_unchordal_finish_exit_code(self, tmp_path, monkeypatch):
        # an empty boundary block leaves this host's induced four-cycle in
        # the wide remainder, and the finish's chordality search, the only
        # one, fails on it: a bug, never an input error (3) or a verdict (1).
        # Every order of a four-cycle contains J16:0,0 at its first vertex,
        # so the freeness check is bypassed too
        monkeypatch.setattr("ordered_coloring.j16.pad_sets", lambda bits, has, k, l: 0)
        monkeypatch.setattr("ordered_coloring.j16.contains_pattern", lambda g, h: None)
        cycle = instance({i: i for i in range(1, 9)}, [(1, 2), (2, 3), (3, 4), (1, 4)])
        with pytest.raises(InternalError):
            solve_j16(cycle, 0, 0)
        path = tmp_path / "cycle.og"
        path.write_text(serialize_instance("cycle", cycle), encoding="utf-8")
        code, out = run_cli(tmp_path, "--json", "solve", str(path), "--alg", "j16")
        assert code == 4 and "verdict internal-error" in out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["verdict"] == "internal-error"
        assert payload["error"].startswith("InternalError")

    def test_check_free_by_id_and_by_file(self, tmp_path, k4_file):
        code, _ = run_cli(tmp_path, "check-free", "J16", k4_file)
        assert code == 0
        code, out = run_cli(tmp_path, "check-free", k4_file, k4_file)
        assert code == 1 and "embedding" in out

    def test_classify(self, tmp_path):
        path = tmp_path / "m5.og"
        path.write_text(
            "ograph m5\n" + "".join(f"vtx v{i} {i}\n" for i in range(1, 6)) + "edg v1 v5\nedg v2 v3\n",
            encoding="utf-8",
        )
        code, out = run_cli(tmp_path, "classify", str(path))
        assert code == 0 and "status np-complete" in out

    def test_classify_open_family(self, tmp_path):
        path = tmp_path / "m8pad.og"
        path.write_text(
            "ograph m8pad\n"
            + "".join(f"vtx v{i} {i}\n" for i in range(1, 7))
            + "edg v2 v6\nedg v3 v5\n",
            encoding="utf-8",
        )
        code, out = run_cli(tmp_path, "classify", str(path))
        assert code == 0 and "status open" in out

    def test_gen_verify_pipeline(self, tmp_path):
        nae_path = tmp_path / "i.nae"
        nae_path.write_text("nae 3\ncls 1 2 3\n", encoding="utf-8")
        prefix = str(tmp_path / "h1t2")
        code, _ = run_cli(tmp_path, "gen", str(nae_path), "--gadget", "h1", "--order", "t2", "--out", prefix)
        assert code == 0
        code, out = run_cli(
            tmp_path, "verify", prefix + ".og", "--prov", prefix + ".prov", "--source", str(nae_path)
        )
        assert code == 0 and "verdict verified" in out

    def test_gen_verify_expander_with_registry(self, tmp_path):
        src = tmp_path / "src.og"
        src.write_text(
            "ograph src\nvtx a 1\nvtx b 2\nvtx c 3\nedg a b\nedg b c\n", encoding="utf-8"
        )
        prefix = str(tmp_path / "h5")
        code, _ = run_cli(tmp_path, "gen", str(src), "--gadget", "h5", "--out", prefix)
        assert code == 0
        code, out = run_cli(
            tmp_path, "verify", prefix + ".og", "--prov", prefix + ".prov", "--source", str(src)
        )
        assert code == 0 and "check:path-registry pass" in out

    @pytest.mark.parametrize("gadget,order", [("h3", "t5"), ("h3", "t6"), ("h4", None), ("h5", None)])
    def test_expander_registry_round_trip(self, tmp_path, gadget, order):
        text = "ograph src\nvtx a 1\nvtx b 2\nvtx c 3\nedg a b\nedg b c\n"
        src = tmp_path / "src.og"
        src.write_text(text, encoding="utf-8")
        prefix = str(tmp_path / gadget)
        argv = ["gen", str(src), "--gadget", gadget, "--out", prefix]
        code, _ = run_cli(tmp_path, *argv, *(["--order", order] if order else []))
        assert code == 0
        _, _, registry = parse_provenance(Path(prefix + ".prov").read_text(encoding="utf-8"))
        gens = {"h3": lambda g: gen_h3(g, order), "h4": gen_h4, "h5": gen_h5}
        expected = gens[gadget](parse_instance(text)[1].graph).path_registry
        assert list(registry.items()) == list(expected.items())
        code, report = run_cli(
            tmp_path, "verify", prefix + ".og", "--prov", prefix + ".prov", "--source", str(src)
        )
        assert code == 0 and "check:path-registry pass" in report

    def h4_files(self, tmp_path):
        src = tmp_path / "tri.og"
        src.write_text(
            "ograph tri\nvtx a 1\nvtx b 2\nvtx c 3\nedg a b\nedg b c\nedg a c\n",
            encoding="utf-8",
        )
        prefix = str(tmp_path / "h4")
        code, _ = run_cli(tmp_path, "gen", str(src), "--gadget", "h4", "--out", prefix)
        assert code == 0
        return Path(prefix + ".og"), Path(prefix + ".prov"), src

    def test_verify_checks_expander_lists(self, tmp_path):
        og, prov, src = self.h4_files(tmp_path)
        text = og.read_text(encoding="utf-8")
        assert "lst w1(a,b,1) 12\n" in text
        og.write_text(text.replace("lst w1(a,b,1) 12\n", "lst w1(a,b,1) 123\n"), encoding="utf-8")
        for extra in ((), ("--source", str(src))):
            code, out = run_cli(tmp_path, "verify", str(og), "--prov", str(prov), *extra)
            assert code == 1 and "check:path-registry fail" in out

    def test_verify_rejects_tampered_path_record(self, tmp_path):
        og, prov, _ = self.h4_files(tmp_path)
        text = prov.read_text(encoding="utf-8")
        # branch 1 of edge (a, b) detours through branch 2's first vertex
        good = "path 1 a w1(a,b,1) z1 w1(b,a,1) b\n"
        assert good in text
        prov.write_text(text.replace(good, "path 1 a w1(a,b,2) z1 w1(b,a,1) b\n"), encoding="utf-8")
        code, out = run_cli(tmp_path, "verify", str(og), "--prov", str(prov))
        assert code == 1 and "check:path-registry fail" in out

    def test_verify_refuses_sidecar_without_paths(self, tmp_path):
        og, prov, src = self.h4_files(tmp_path)
        lines = prov.read_text(encoding="utf-8").splitlines(keepends=True)
        prov.write_text("".join(x for x in lines if not x.startswith("path ")), encoding="utf-8")
        code, out = run_cli(tmp_path, "verify", str(og), "--prov", str(prov), "--source", str(src))
        assert code == 3 and "verdict input-error" in out
        assert "regenerate it with `oglc gen`" in out

    def test_verify_refuses_sidecar_without_gadget(self, tmp_path):
        og, prov, _ = self.h4_files(tmp_path)
        lines = prov.read_text(encoding="utf-8").splitlines(keepends=True)
        prov.write_text("".join(x for x in lines if not x.startswith("meta gadget ")), encoding="utf-8")
        code, out = run_cli(tmp_path, "verify", str(og), "--prov", str(prov))
        assert code == 3 and "no `meta gadget` line" in out

    def test_edgeless_expander_checks_its_empty_registry(self, tmp_path):
        src = tmp_path / "two.og"
        src.write_text("ograph two\nvtx a 1\nvtx b 2\n", encoding="utf-8")
        prefix = str(tmp_path / "h4")
        run_cli(tmp_path, "gen", str(src), "--gadget", "h4", "--out", prefix)
        assert "path " not in Path(prefix + ".prov").read_text(encoding="utf-8")
        code, out = run_cli(tmp_path, "verify", prefix + ".og", "--prov", prefix + ".prov")
        assert code == 0 and "check:path-registry pass" in out
        og = Path(prefix + ".og")
        og.write_text(og.read_text(encoding="utf-8") + "lst a 12\n", encoding="utf-8")
        code, out = run_cli(tmp_path, "verify", prefix + ".og", "--prov", prefix + ".prov")
        assert code == 1 and "check:path-registry fail" in out

    def test_verify_cap_overrun_is_an_input_error(self, tmp_path):
        # the h4 gadget of a three-edge path has 103 vertices; an oracle
        # over its cap decides nothing, so it must not read as a fail (1)
        src = tmp_path / "p4.og"
        src.write_text(
            "ograph p4\nvtx a 1\nvtx b 2\nvtx c 3\nvtx d 4\nedg a b\nedg b c\nedg c d\n",
            encoding="utf-8",
        )
        prefix = str(tmp_path / "h4")
        code, _ = run_cli(tmp_path, "gen", str(src), "--gadget", "h4", "--out", prefix)
        assert code == 0
        argv = ["verify", prefix + ".og", "--prov", prefix + ".prov", "--source", str(src)]
        code, out = run_cli(tmp_path, *argv, "--cap", "60")
        assert code == 3 and "verdict input-error" in out
        assert "error instance has 103 vertices, cap is 60" in out
        code, out = run_cli(tmp_path, *argv, "--cap", "103")
        assert code == 0 and "verdict verified" in out

    def test_verify_nae_source_over_the_fixed_bound(self, tmp_path):
        # the NAE scan has its own bound of 24 variables, which --cap does
        # not lift: a larger source is an input error (3) at any --cap
        src = tmp_path / "big.nae"
        src.write_text(serialize_nae(random_nae(make_rng(25), 25, 10)), encoding="utf-8")
        prefix = str(tmp_path / "h2")
        code, _ = run_cli(tmp_path, "gen", str(src), "--gadget", "h2", "--out", prefix)
        assert code == 0
        argv = ["verify", prefix + ".og", "--prov", prefix + ".prov", "--source", str(src)]
        code, out = run_cli(tmp_path, *argv, "--cap", "100000")
        assert code == 3 and "verdict input-error" in out
        assert "error instance has 25 variables, cap is 24" in out

    def test_verify_internal_error_exit_code(self, tmp_path, monkeypatch):
        og, prov, src = self.h4_files(tmp_path)

        def crash(*args, **kwargs):
            raise InternalError("broken invariant")

        monkeypatch.setattr("ordered_coloring.gadgets.solve_bruteforce", crash)
        code, out = run_cli(tmp_path, "verify", str(og), "--prov", str(prov), "--source", str(src))
        assert code == 4 and "verdict internal-error" in out
        assert "error InternalError: broken invariant" in out

    def test_verify_detects_corruption(self, tmp_path):
        nae_path = tmp_path / "i.nae"
        nae_path.write_text("nae 3\ncls 1 2 3\n", encoding="utf-8")
        prefix = str(tmp_path / "h1t1")
        run_cli(tmp_path, "gen", str(nae_path), "--gadget", "h1", "--order", "t1", "--out", prefix)
        og = Path(prefix + ".og")
        og.write_text(og.read_text(encoding="utf-8") + "edg m1 t1_2\n", encoding="utf-8")
        code, out = run_cli(tmp_path, "verify", prefix + ".og", "--prov", prefix + ".prov")
        assert code == 1 and "fail" in out

    def test_gen_bip_rejects_odd_cycle(self, tmp_path):
        src = tmp_path / "tri.og"
        src.write_text(
            "ograph tri\nvtx a 1\nvtx b 2\nvtx c 3\nedg a b\nedg b c\nedg a c\n",
            encoding="utf-8",
        )
        code, out = run_cli(tmp_path, "gen", str(src), "--gadget", "bip")
        assert code == 3 and "not bipartite" in out

    def test_json_mirror(self, tmp_path, k4_file):
        code, out = run_cli(tmp_path, "--json", "solve", k4_file, "--alg", "oracle")
        last = out.strip().splitlines()[-1]
        payload = json.loads(last)
        assert payload["verdict"] == "not-colorable"

    def test_random_instance_reads_back(self, tmp_path, capsys):
        # stdout is the instance alone; the report goes to stderr
        argv = ["random-instance", "--seed", "1", "--n", "10", "--edge-prob", "0.3"]
        assert main(argv + ["--pattern", "J16:0,0"]) == 0
        captured = capsys.readouterr()
        assert "verdict generated" in captured.err and "verdict" not in captured.out
        name, inst = parse_instance(captured.out)
        expected = random_pattern_free_instance(make_rng(1), build_pattern("J16:0,0"), 10, 0.3, 0.5)
        assert name == "random-1" and inst == expected
        assert serialize_instance(name, inst) == captured.out
        path = tmp_path / "x.og"
        path.write_text(captured.out, encoding="utf-8")
        codes = {main(["solve", str(path), "--alg", alg]) for alg in ("j16", "oracle")}
        assert codes in ({0}, {1})

    def test_random_instance_exhausted_tries(self, tmp_path, capsys):
        # every complete graph holds an edge, so no draw avoids this pattern
        edge = tmp_path / "edge.og"
        edge.write_text("ograph e\nvtx a 1\nvtx b 2\nedg a b\n", encoding="utf-8")
        argv = ["random-instance", "--seed", "1", "--n", "3", "--edge-prob", "1.0"]
        assert main(argv + ["--pattern", str(edge)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "verdict input-error" in captured.err
        assert "error no pattern-free graph found in 5000 tries (n=3)" in captured.err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--n", "-1"),
            ("--edge-prob", "2"),
            ("--edge-prob", "-0.1"),
            ("--edge-prob", "nan"),
            ("--full-bias", "-1"),
            ("--full-bias", "1.5"),
        ],
    )
    def test_random_instance_rejects_out_of_range(self, capsys, flag, value):
        assert main(["random-instance", "--seed", "1", flag, value]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "verdict input-error" in captured.err and f"error {flag} must" in captured.err

    def test_random_instance_accepts_range_ends(self, capsys):
        argv = ["random-instance", "--seed", "1", "--n", "0", "--edge-prob", "0", "--full-bias", "1"]
        assert main(argv) == 0
        assert main(argv[:3] + ["--edge-prob", "1.0", "--full-bias", "0"]) == 0
        assert "verdict generated" in capsys.readouterr().err

    def test_random_instance_reproducible(self, tmp_path):
        code1, out1 = run_cli(tmp_path, "random-instance", "--seed", "7", "--n", "6")
        code2, out2 = run_cli(tmp_path, "random-instance", "--seed", "7", "--n", "6")
        assert code1 == code2 == 0 and out1 == out2
        code3, out3 = run_cli(tmp_path, "random-instance", "--seed", "8", "--n", "6")
        assert out3 != out1

    def test_two_list_algorithm(self, tmp_path):
        path = tmp_path / "two.og"
        path.write_text(
            "ograph two\nvtx a 1\nvtx b 2\nedg a b\nlst a 12\nlst b 12\n",
            encoding="utf-8",
        )
        code, out = run_cli(tmp_path, "solve", str(path), "--alg", "2sat")
        assert code == 0 and "witness" in out

    def test_serialization_is_byte_stable(self):
        text = (
            "ograph g\n"
            "vtx c -3\n"
            "vtx a 1\n"
            "vtx b 5/2\n"
            "edg c a\n"
            "edg a b\n"
            "lst a 12\n"
            "lst b 0\n"
        )
        name, inst = parse_instance(text)
        assert serialize_instance(name, inst) == text

    def test_gen_is_deterministic(self, tmp_path):
        src = tmp_path / "src.og"
        src.write_text("ograph s\nvtx a 1\nvtx b 2\nedg a b\n", encoding="utf-8")
        outputs = []
        for run in (1, 2):
            prefix = str(tmp_path / f"run{run}")
            run_cli(tmp_path, "gen", str(src), "--gadget", "h3", "--order", "t5", "--out", prefix)
            outputs.append(
                (Path(prefix + ".og").read_bytes(), Path(prefix + ".prov").read_bytes())
            )
        assert outputs[0] == outputs[1]

    def test_backend_flag(self, tmp_path):
        # the link check has one path and no selector; naming one is a usage error
        path = tmp_path / "p.og"
        path.write_text(
            "ograph p\nvtx a 1\nvtx b 2\nvtx c 3\nedg a b\nedg b c\n", encoding="utf-8"
        )
        code, out = run_cli(tmp_path, "solve", str(path), "--alg", "jw")
        assert code == 0
        code, out = run_cli(tmp_path, "solve", str(path), "--alg", "jw", "--backend", "link-enum")
        assert code == 3
        assert "verdict input-error" in out and "error unrecognized arguments" in out

    def test_missing_alg_is_a_usage_error(self, tmp_path):
        code, out = run_cli(tmp_path, "--json", "solve", "x.og")
        assert code == 3
        assert "command solve" in out and "verdict input-error" in out
        report = json.loads(out.splitlines()[-1])
        assert report["verdict"] == "input-error" and "--alg" in report["error"]

    def test_help_still_exits_zero(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, "solve", "--help")
        assert exc.value.code == 0


NAE_SOURCE = "nae 4\ncls 1 2 3\ncls 1 2 4\ncls 2 3 4\n"
P3_SOURCE = "ograph p3\nvtx a 1\nvtx b 2\nvtx c 3\nedg a b\nedg b c\n"
C4_SOURCE = "ograph c4\nvtx a 1\nvtx b 2\nvtx c 3\nvtx d 4\nedg a b\nedg b c\nedg c d\nedg a d\n"

# per gadget, a source file and the generator called directly on it
DIRECT = {
    "h1": (NAE_SOURCE, lambda text, layout: gen_h1(parse_nae(text), layout)),
    "h2": (NAE_SOURCE, lambda text, _: gen_h2(parse_nae(text))),
    "h3": (P3_SOURCE, lambda text, layout: gen_h3(parse_instance(text)[1].graph, layout)),
    "h4": (P3_SOURCE, lambda text, _: gen_h4(parse_instance(text)[1].graph)),
    "h5": (P3_SOURCE, lambda text, _: gen_h5(parse_instance(text)[1].graph)),
    "bip": (C4_SOURCE, lambda text, _: gen_bipartite(parse_instance(text)[1])),
}


def arguments(command: str) -> dict:
    """The argparse actions of an `oglc` subcommand, by destination."""
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions}


class TestGadgetTable:
    """`oglc gen` and `oglc verify` on every (gadget, layout) of `GADGETS`."""

    def test_choices_come_from_the_table(self):
        assert list(GADGETS) == list(DIRECT)
        args = arguments("gen")
        assert args["gadget"].choices == list(GADGETS)
        layouts = {layout for gadget in GADGETS.values() for layout in gadget.layouts}
        assert set(args["order"].choices) == layouts

    @pytest.mark.parametrize(
        "name,layout", [(n, layout) for n, g in GADGETS.items() for layout in g.layouts]
    )
    def test_gen_writes_the_generator_output(self, tmp_path, name, layout):
        text, generate = DIRECT[name]
        src = tmp_path / "src"
        src.write_text(text, encoding="utf-8")
        prefix = str(tmp_path / "g")
        argv = ["gen", str(src), "--gadget", name, "--order", layout, "--out", prefix]
        assert run_cli(tmp_path, *argv)[0] == 0
        out = generate(text, layout)
        assert out.source_kind == GADGETS[name].kind
        meta = {"gadget": (name,), "free": out.advertised_free, "order": (layout,)}
        og = serialize_instance(f"{name}-{layout}", out.instance)
        prov = serialize_provenance(out.provenance, meta, out.path_registry)
        assert Path(prefix + ".og").read_bytes() == og.encode()
        assert Path(prefix + ".prov").read_bytes() == prov.encode()
        code, report = run_cli(
            tmp_path, "verify", prefix + ".og", "--prov", prefix + ".prov", "--source", str(src)
        )
        assert code == 0 and "verdict verified" in report

    def test_readme_table_matches(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(\w+)` \| `(t\d)` \| [^|]+ \| (.+) \|$", readme, re.M)
        assert [row[:2] for row in rows] == [
            (n, layout) for n, g in GADGETS.items() for layout in g.layouts
        ]
        for name, layout, free in rows:
            text, generate = DIRECT[name]
            assert free == ", ".join(f"`{p}`" for p in generate(text, layout).advertised_free)


def mutants(rng, text: str, count: int, extra_tokens=()):
    """`count` copies of `text`, each with one record edit, two in about a
    third of them: a line dropped or duplicated, or a token replaced,
    dropped or added. Most replacements take a token seen in the same
    field of the same record kind, so many mutants still parse; the rest
    take a malformed one."""
    lines = [line.split() for line in text.splitlines()]
    fields: dict = {}  # (record kind, field index) -> the tokens seen there
    for line in lines:
        for k, token in enumerate(line):
            fields.setdefault((line[0], k), set()).add(token)
    malformed = sorted(set(extra_tokens)) + ["0", "-1", "1/0", "2/4", "x", "J99", "1" * 30]
    for _ in range(count):
        out = [list(line) for line in lines]
        for _ in range(rng.choice((1, 1, 2))):
            i = rng.randrange(len(out))
            edit = rng.randrange(6)
            if edit == 0 and len(out) > 1:
                del out[i]
            elif edit == 1:
                out.insert(rng.randrange(len(out) + 1), list(out[i]))
            elif edit in (2, 3) and out[i]:
                k = rng.randrange(len(out[i]))
                same = sorted(fields.get((out[i][0], k), ()))
                out[i][k] = rng.choice(same if same and rng.random() < 0.75 else malformed)
            elif edit == 4 and out[i]:
                del out[i][rng.randrange(len(out[i]))]
            else:
                out[i].insert(rng.randrange(len(out[i]) + 1), rng.choice(malformed))
        yield "\n".join(" ".join(line) for line in out) + "\n"


class TestExitCodeFuzz:
    """Seeded mutations of well-formed files: `oglc` answers each with a
    verdict, a refusal or an input error (exit 0-3), never a crash (4)."""

    def test_mutated_instances_through_every_solver(self, tmp_path):
        # colorable, and only with c = 3 and d = 1
        text = (
            "ograph f\nvtx a 1\nvtx b 2\nvtx c 5/2\nvtx d 4\nvtx e 5\nedg a b\nedg b c\n"
            "edg a c\nedg c d\nedg b e\nlst a 12\nlst b 12\nlst c 3\nlst d 13\nlst e 123\n"
        )
        path = tmp_path / "m.og"
        seen = set()
        for mutant in mutants(make_rng(2024), text, 150):
            path.write_text(mutant, encoding="utf-8")
            for name in arguments("solve")["alg"].choices:
                code, out = run_cli(tmp_path, "solve", str(path), "--alg", name)
                assert 0 <= code <= 3, (name, mutant, out)
                seen.add(code)
        assert seen == {0, 1, 2, 3}

    def test_mutated_sidecars_through_verify(self, tmp_path):
        src = tmp_path / "src"
        seen = set()
        for name, layout in (("h4", "t7"), ("h1", "t3")):
            text, _ = DIRECT[name]
            src.write_text(text, encoding="utf-8")
            prefix = str(tmp_path / name)
            run_cli(tmp_path, "gen", str(src), "--gadget", name, "--order", layout, "--out", prefix)
            prov = Path(prefix + ".prov")
            original = prov.read_text(encoding="utf-8")
            for mutant in mutants(make_rng(7), original, 100, GADGETS):
                prov.write_text(mutant, encoding="utf-8")
                code, out = run_cli(
                    tmp_path, "verify", prefix + ".og", "--prov", str(prov), "--source", str(src)
                )
                assert 0 <= code <= 3, (mutant, out)
                seen.add(code)
        assert seen == {0, 1, 3}
