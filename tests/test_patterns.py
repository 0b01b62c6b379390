import contextlib
import io
import itertools

import pytest

from ordered_coloring import (
    InputError,
    InternalError,
    NP_COMPLETE,
    OPEN,
    POLYNOMIAL,
    build_pattern,
    classify,
    is_isomorphic,
    parse_pattern_id,
)
from ordered_coloring import patterns
from ordered_coloring.cli import main
from conftest import graph


def edge_ranks(g):
    return sorted(tuple(sorted(g.rank(x) + 1 for x in e)) for e in g.edges)


class TestBuildPattern:
    def test_j9(self):
        g = build_pattern("J9")
        assert g.n == 4 and edge_ranks(g) == [(1, 2), (3, 4)]

    def test_jw_width_one(self):
        g = build_pattern("Jw:1")
        assert g.n == 5 and edge_ranks(g) == [(2, 4)]

    def test_jw_general_width(self):
        g = build_pattern("Jw:3")
        assert g.n == 11 and edge_ranks(g) == [(4, 8)]

    def test_m7(self):
        assert edge_ranks(build_pattern("M7")) == [(1, 4), (2, 3)]

    def test_sizes(self):
        for name, n in [("J13", 5), ("J14", 5), ("J15", 3), ("J16", 3),
                        ("M1", 6), ("M5", 5), ("M6", 4), ("M8", 5)]:
            assert build_pattern(name).n == n

    def test_padded_equals_pad_of_core(self):
        for k, l in [(0, 0), (2, 1), (1, 3)]:
            built = build_pattern(f"J16:{k},{l}")
            manual = build_pattern("J16").pad(k, l)
            assert built.positions() == manual.positions()
            assert built.edges == manual.edges

    def test_negation(self):
        assert is_isomorphic(build_pattern("neg:M5"), build_pattern("M5").reverse())

    def test_bad_ids(self):
        for bad in ("J17", "M9", "Jw:0", "J16:1", "Q3", "J16:-1,0"):
            with pytest.raises(InputError):
                parse_pattern_id(bad)

    def test_roundtrip_str(self):
        for s in ("J9", "M5", "Jw:3", "J16:2,1", "neg:M5"):
            assert str(parse_pattern_id(s)) == s


class TestClassifyCatalog:
    def test_single_edge_with_isolated(self):
        h = graph({1: 1, 2: 2, 3: 3, 4: 4}, [(2, 3)])
        assert classify(h).status == POLYNOMIAL

    def test_edgeless(self):
        assert classify(graph({1: 1, 2: 2})).status == POLYNOMIAL

    def test_three_edges(self):
        assert classify(build_pattern("J1")).status == NP_COMPLETE

    def test_hard_two_edge_members(self):
        for name in ("J9", "M1", "M5", "neg:M5"):
            v = classify(build_pattern(name))
            assert v.status == NP_COMPLETE, name

    def test_j16_family_polynomial(self):
        for k, l in [(0, 0), (1, 0), (0, 2), (2, 2)]:
            assert classify(build_pattern(f"J16:{k},{l}")).status == POLYNOMIAL
            assert classify(build_pattern(f"J16:{k},{l}").reverse()).status == POLYNOMIAL

    def test_shared_end_interior_isolated_is_hard(self):
        # an isolated vertex strictly inside the padded core breaks membership
        h = graph({1: 1, 2: 2, 3: 3, 4: 4}, [(1, 3), (1, 4)])
        v = classify(h)
        assert v.status == NP_COMPLETE

    def test_j15_core_is_hard(self):
        assert classify(build_pattern("J15")).status == NP_COMPLETE

    def test_open_families(self):
        assert classify(build_pattern("M7")).status == OPEN
        assert classify(build_pattern("M8")).status == OPEN
        assert classify(build_pattern("M6")).status == OPEN
        assert classify(build_pattern("M7").pad(2, 1)).status == OPEN
        assert classify(build_pattern("M8").pad(0, 3)).status == OPEN

    def test_m6_allows_isolated_anywhere(self):
        # crossing pair with an isolated vertex wedged between core vertices
        h = graph({i: i for i in range(1, 6)}, [(1, 3), (2, 5)])
        v = classify(h)
        assert v.status == OPEN and "M6" in v.justification

    def test_m7_with_interior_isolated_is_hard(self):
        # nested pair with an isolated vertex inside the outer edge contains
        # one of the hard five-vertex patterns
        h = graph({i: i for i in range(1, 6)}, [(1, 5), (2, 3)])
        assert classify(h).status == NP_COMPLETE

    def test_justification_names_a_cause(self):
        v = classify(build_pattern("J15"))
        assert v.justification.startswith("shared-end-contains-")


def all_two_edge_graphs(max_n):
    for n in range(2, max_n + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for e1, e2 in itertools.combinations(pairs, 2):
            yield graph({i: i for i in range(1, n + 1)}, [e1, e2])


class TestClassifyTotality:
    def test_exhaustive_small_patterns(self):
        # every ordered graph with <= 6 vertices and <= 3 edges classifies
        counts = {POLYNOMIAL: 0, NP_COMPLETE: 0, OPEN: 0}
        for n in range(0, 7):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for m in range(0, 4):
                for edges in itertools.combinations(pairs, m):
                    v = classify(graph({i: i for i in range(1, n + 1)}, edges))
                    counts[v.status] += 1
                    if v.status == OPEN:
                        assert any(
                            tag in v.justification for tag in ("M6", "M7", "M8")
                        )
        assert counts[OPEN] > 0 and counts[POLYNOMIAL] > 0 and counts[NP_COMPLETE] > 0

    def test_two_edge_totality_and_reversal(self):
        for h in all_two_edge_graphs(6):
            v = classify(h)
            assert v.status in (POLYNOMIAL, NP_COMPLETE, OPEN)
            assert classify(h.reverse()).status == v.status


class TestClassifierFaults:
    """A two-edge pattern that matches no case of the decision table is an
    internal fault: `InternalError`, and exit 4 from `oglc classify`, never
    a verdict. Hiding every match reaches the last line of each case."""

    @pytest.mark.parametrize(
        "edges",
        [[("v1", "v2"), ("v1", "v3")], [("v1", "v2"), ("v3", "v4")]],
        ids=["shared-end", "disjoint"],
    )
    def test_unmatched_two_edge_pattern(self, tmp_path, monkeypatch, edges):
        monkeypatch.setattr(patterns, "contains_pattern", lambda g, h: None)
        monkeypatch.setattr(patterns, "_padded_match", lambda h, core: None)
        positions = {f"v{i}": i for i in range(1, 5)}
        with pytest.raises(InternalError):
            classify(graph(positions, edges))
        path = tmp_path / "h.og"
        path.write_text(
            "ograph h\n"
            + "".join(f"vtx {v} {p}\n" for v, p in positions.items())
            + "".join(f"edg {u} {v}\n" for u, v in edges),
            encoding="utf-8",
        )
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["classify", str(path)]) == 4
