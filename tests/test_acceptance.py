"""Acceptance suite: one test per criterion, each printing a pass line.

Every expected value is either computed by the exhaustive oracle inside the
test or checked exhaustively; corpora are seeded so runs are reproducible.
Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.
"""

import itertools
import time

from ordered_coloring import (
    Instance,
    NP_COMPLETE,
    OPEN,
    POLYNOMIAL,
    build_pattern,
    classify,
    contains_pattern,
    enumerate_colorings,
    nae_bruteforce,
    solve_bruteforce,
    solve_chordal,
    solve_j16,
    solve_jw,
    solve_small_class,
    solve_two_lists,
    verify_gadget,
)
from ordered_coloring import j16, jw
from ordered_coloring.core import _maximal_edges, _ranks
from ordered_coloring.gadgets import gen_h1, gen_h2, gen_h3, gen_h4, gen_h5
from ordered_coloring.jw import augment_star, class_cap, success_table
from ordered_coloring.kernels import _few_wide
from ordered_coloring.rand import (
    make_rng,
    random_chordal_instance,
    random_forward_clique_graph,
    random_instance,
    random_j16free_instance,
    random_lists,
    random_nae,
    random_pattern_free_instance,
)
from conftest import (
    chain_member,
    color_class,
    graph,
    propagated,
    property_x,
    property_y,
    random_two_list_instance,
    reference_check_link,
    small_source_graphs,
    updated_lists,
)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_jw_solver_oracle_agreement(monkeypatch):
    start = time.time()
    rng = make_rng(2024_01)
    pattern = build_pattern("Jw:1")
    trials = 500
    link_recheck = 60
    for t in range(trials):
        n = rng.randint(2, 8)
        inst = random_pattern_free_instance(
            rng, pattern, n, rng.uniform(0.3, 0.9), rng.uniform(0.2, 0.8)
        )
        expected = solve_bruteforce(inst)
        got = solve_jw(inst, 1)
        assert (got is None) == (expected is None), f"trial {t}"
        if got is not None:
            assert got.validates(inst)
        if t < link_recheck:
            # the same chain with every link decided by direct enumeration
            with monkeypatch.context() as m:
                m.setattr(jw, "check_link", reference_check_link)
                alt = solve_jw(inst, 1)
            assert (alt is None) == (expected is None), f"reference link trial {t}"
    elapsed = time.time() - start
    assert elapsed < 600, f"criterion 1 exceeded its time budget: {elapsed:.0f}s"
    report(
        "criterion-1 jw-vs-oracle",
        f"{trials} instances, {link_recheck} re-run with the reference link check, {elapsed:.1f}s",
    )


def test_criterion_2_j16_solver_oracle_agreement():
    start = time.time()
    rng = make_rng(2024_02)
    per_combo = 125
    for k, l in ((0, 0), (1, 0), (0, 1), (1, 1)):
        for t in range(per_combo):
            inst = random_j16free_instance(rng, k, l, rng.randint(2, 10), rng.uniform(0.2, 0.8))
            expected = solve_bruteforce(inst)
            got = solve_j16(inst, k, l)
            assert (got is None) == (expected is None), f"(k,l)=({k},{l}) trial {t}"
            if got is not None:
                assert got.validates(inst)
    report(
        "criterion-2 j16-vs-oracle",
        f"4x{per_combo} instances across padding choices, {time.time() - start:.1f}s",
    )


def _forward_clique_instance(rng, obstruct):
    """A forward-clique graph on 20 vertices (at least one triangle) with
    80-100% full lists; with `obstruct`, one triangle gets the same two-color
    list on all three corners, which no coloring can satisfy."""
    while True:
        g = random_forward_clique_graph(rng, 20, 0.65)
        later = [bits & -(2 << r) for r, bits in enumerate(g.adjacency_bits())]
        triangles = [
            (v, *(g.vertices[s] for s in list(_ranks(later[r]))[:2]))
            for r, v in enumerate(g.vertices)
            if later[r].bit_count() >= 2
        ]
        if triangles:
            break
    lists = random_lists(rng, g, rng.uniform(0.8, 1.0))
    if obstruct:
        pair = frozenset(rng.choice(((1, 2), (1, 3), (2, 3))))
        lists = updated_lists(lists, {v: pair for v in rng.choice(triangles)})
    return Instance(g, lists)


def test_criterion_2_padding_stage_coverage(monkeypatch):
    """The J16 path of boundary padding plus chordal finish runs for every
    (k,l) in {0,1}^2, counted, not assumed: an instance counts when
    `solve_j16` calls `pad_sets` and then the chordal finish's rank kernel,
    `_chordal_coloring`. `pad_sets` runs for every member, but a member
    below the padding threshold is forced whole and leaves the kernel no
    wide rank. J16:1,1 gets there in only about one draw in twelve, so it
    gets more draws."""
    start = time.time()
    events = []
    for name in ("pad_sets", "_chordal_coloring"):
        real = getattr(j16, name)
        monkeypatch.setattr(j16, name, lambda *a, _n=name, _f=real: events.append(_n) or _f(*a))
    rng = make_rng(2024_09)
    obstructed = 3
    counts = {}
    for (k, l), plain in (((0, 0), 12), ((1, 0), 12), ((0, 1), 12), ((1, 1), 80)):
        padded = 0
        for t in range(plain + obstructed):
            inst = _forward_clique_instance(rng, obstruct=t >= plain)
            events.clear()
            got = solve_j16(inst, k, l)
            expected = solve_bruteforce(inst, cap=20)
            assert (got is None) == (expected is None), f"(k,l)=({k},{l}) draw {t}"
            if got is not None:
                assert got.validates(inst)
            if t >= plain:
                assert got is None
            padded += (
                "pad_sets" in events
                and "_chordal_coloring" in events[events.index("pad_sets"):]
            )
        counts[k, l] = padded
    assert all(c >= 5 for c in counts.values()), counts
    report(
        "criterion-2 padding-stage-coverage",
        f"padded and finished per (k,l): {counts}, {time.time() - start:.1f}s",
    )


def test_criterion_3_kernel_equivalences():
    start = time.time()
    rng = make_rng(2024_03)
    trials = 500

    for t in range(trials):
        inst = random_two_list_instance(rng, rng.randint(0, 10), rng.random())
        assert (solve_two_lists(inst) is None) == (solve_bruteforce(inst) is None)

    done = 0
    while done < trials:
        inst = random_instance(rng, rng.randint(0, 10), rng.random(), full_bias=0.22)
        wides = sum(1 for v in inst.graph.vertices if len(inst.lists.get(v)) == 3)
        if wides > 3:
            continue
        bits, everyone = inst.graph.adjacency_bits(), (1 << inst.graph.n) - 1
        got = _few_wide(bits, everyone, inst.color_bits)
        assert (got is None) == (solve_bruteforce(inst) is None)
        done += 1

    for t in range(trials):
        inst = random_instance(rng, rng.randint(0, 10), rng.random(), rng.random())
        c = rng.randint(1, 3)
        got = solve_small_class(inst, c)
        expected = any(
            min(len(color_class(col, i)) for i in (1, 2, 3)) < c
            for col in enumerate_colorings(inst)
        )
        assert (got is not None) == expected
        if got is not None:
            assert min(len(color_class(got, i)) for i in (1, 2, 3)) < c

    for t in range(trials):
        inst = random_chordal_instance(rng, rng.randint(0, 12), rng.random())
        assert (solve_chordal(inst) is None) == (solve_bruteforce(inst) is None)

    report("criterion-3 kernel-equivalences", f"4 kernels x {trials} instances, {time.time() - start:.1f}s")


def test_criterion_4_chain_level_checks():
    start = time.time()
    rng = make_rng(2024_04)
    pattern = build_pattern("Jw:1")
    corpus = []
    while len(corpus) < 200:
        n = rng.randint(2, 7)
        inst = random_pattern_free_instance(
            rng, pattern, n, rng.uniform(0.3, 0.9), rng.uniform(0.3, 0.7)
        )
        corpus.append(inst)

    seed_checks = 0
    for inst in corpus:
        g = inst.graph
        for phi in enumerate_colorings(inst):
            for e in g.edges:
                e = tuple(sorted(e, key=g.rank))
                und = g.vertices[g.rank(e[0]) : g.rank(e[1]) + 1]
                seed = {x: phi[x] for x in und}
                assert all(list(seed.values()).count(i) <= class_cap(1) for i in (1, 2, 3))
                assert property_x(inst, phi, seed)
                assert property_y(inst, phi, seed, e)
                seed_checks += 1

    dp_checks = 0
    for inst in corpus:
        if any(not cs for _, cs in inst.lists.items()):
            continue
        star = augment_star(chain_member(inst))
        assert bool(success_table(star, 2).final()) == (solve_bruteforce(inst) is not None)
        dp_checks += 1

    for inst in corpus:
        before = {
            tuple(sorted((str(v), c) for v, c in col.items()))
            for col in enumerate_colorings(inst)
        }
        after = {
            tuple(sorted((str(v), c) for v, c in col.items()))
            for col in enumerate_colorings(propagated(inst))
        }
        assert before == after

    report(
        "criterion-4 chain-level-checks",
        f"200 instances; {seed_checks} seed-existence pairs, {dp_checks} chain equivalences, "
        f"200 propagation preservations, {time.time() - start:.1f}s",
    )


def test_criterion_5_nae_gadget_soundness():
    start = time.time()
    rng = make_rng(2024_05)
    corpus = [random_nae(rng, rng.randint(3, 4), rng.randint(1, 3)) for _ in range(100)]
    for idx, nae in enumerate(corpus):
        sat = nae_bruteforce(nae) is not None
        outputs = [gen_h1(nae, o) for o in ("t1", "t2", "t3")] + [gen_h2(nae)]
        for out in outputs:
            colorable = solve_bruteforce(out.instance, cap=40) is not None
            assert colorable == sat, f"instance {idx}"
            for pid in out.advertised_free:
                assert contains_pattern(out.instance.graph, build_pattern(pid)) is None, (idx, pid)
    report("criterion-5 nae-gadgets", f"100 instances x 4 gadget builds, {time.time() - start:.1f}s")


def test_criterion_6_expander_soundness():
    start = time.time()
    corpus = small_source_graphs(4)
    assert len(corpus) >= 14
    built = 0
    for src in corpus:
        for gen in (lambda s: gen_h3(s, "t5"), lambda s: gen_h3(s, "t6"), gen_h4, gen_h5):
            out = gen(src)
            rep = verify_gadget(out, oracle_cap=4000)
            assert rep.passed, (sorted(map(sorted, src.edges)), rep.entries)
            built += 1
    report(
        "criterion-6 expanders",
        f"{len(corpus)} source graphs x 4 expanders = {built} verified builds, {time.time() - start:.1f}s",
    )


def test_criterion_7_classifier_totality():
    start = time.time()
    total = 0
    for n in range(0, 7):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for m in range(0, 4):
            for edges in itertools.combinations(pairs, m):
                h = graph({i: i for i in range(1, n + 1)}, edges)
                verdict = classify(h)
                total += 1
                assert verdict.status in (POLYNOMIAL, NP_COMPLETE, OPEN)
                if verdict.status == OPEN:
                    assert any(t in verdict.justification for t in ("M6", "M7", "M8"))

    for k, l in ((0, 0), (1, 0), (0, 1), (2, 1)):
        assert classify(build_pattern(f"J16:{k},{l}")).status == POLYNOMIAL
        assert classify(build_pattern(f"J16:{k},{l}").reverse()).status == POLYNOMIAL
    for name in ("J9", "M1", "M5", "neg:M5", "J15", "J1", "J2", "J13"):
        assert classify(build_pattern(name)).status == NP_COMPLETE
    shared_end_non_member = graph({1: 1, 2: 2, 3: 3, 4: 4}, [(1, 3), (1, 4)])
    assert classify(shared_end_non_member).status == NP_COMPLETE
    assert classify(build_pattern("M6")).status == OPEN
    for k, l in ((0, 0), (1, 2)):
        assert classify(build_pattern("M7").pad(k, l)).status == OPEN
        assert classify(build_pattern("M8").pad(k, l)).status == OPEN

    report("criterion-7 classifier", f"{total} patterns classified exhaustively, {time.time() - start:.1f}s")


def test_criterion_8_structural_invariants():
    start = time.time()
    rng = make_rng(2024_08)

    # maximal-edge monotonicity and the appended-edge identity; both are
    # also asserted inside the operations on every call across this suite
    for _ in range(200):
        inst = random_instance(rng, rng.randint(0, 9), rng.random(), rng.random())
        m = chain_member(inst)
        mx = _maximal_edges(m.bits, m.mask)
        lefts = [a for a, _ in mx]
        rights = [b for _, b in mx]
        assert lefts == sorted(lefts) and rights == sorted(rights)
        star = augment_star(m)
        qe = (len(m.bits), len(m.bits) + 1)
        assert _maximal_edges(star.bits, star.mask) == mx + (qe,)

    # freeness is reversal-symmetric
    for _ in range(300):
        g = random_instance(rng, rng.randint(0, 7), rng.random()).graph
        h = random_instance(rng, rng.randint(0, 4), rng.random()).graph
        assert (contains_pattern(g, h) is None) == (
            contains_pattern(g.reverse(), h.reverse()) is None
        )

    report(
        "criterion-8 structural-invariants",
        f"200 maximal-edge checks, 300 reversal checks, {time.time() - start:.1f}s",
    )
