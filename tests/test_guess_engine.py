"""Differential test of the shared guessing engine behind `jw.alpha_tuples`
and `j16.q_tuples` against a naive reference: enumerate every guess,
force its lists, and only then look for empty lists.

The engine skips guesses as soon as they must empty a list. The claim
checked here is that it skips nothing else: its guesses are a subsequence
of the reference's, every skipped guess leaves an empty list once its
forced lists are propagated, and the propagated lists that stay non-empty
agree one for one, in order.
"""

import itertools

from ordered_coloring import COLORS, Instance, ListAssignment, build_pattern
from ordered_coloring.j16 import q_tuples
from ordered_coloring.jw import alpha_tuples
from ordered_coloring.kernels import propagate_singletons
from ordered_coloring.rand import make_rng, random_j16free_instance, random_pattern_free_instance


def _stable(g, members, size):
    return [
        combo
        for combo in itertools.combinations(members, size)
        if not any(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2))
    ]


def _reference_guesses(inst, first, last, ordered):
    """Per color, every stable first-set and last-set of L^(i) by rank,
    pairwise disjoint; `ordered` demands the first-set end before the
    last-set starts (the Jw enumeration), otherwise the union of the two
    must be stable (the J16 enumeration)."""
    g = inst.graph
    firsts = {i: _stable(g, sorted(inst.lists.view(i), key=g.rank), first) for i in COLORS}
    lasts = {i: _stable(g, sorted(inst.lists.view(i), key=g.rank), last) for i in COLORS}

    def rec(i, used, xs, ys):
        if i > 3:
            yield tuple(xs), tuple(ys)
            return
        for x in firsts[i]:
            if used & set(x):
                continue
            for y in lasts[i]:
                if (used | set(x)) & set(y):
                    continue
                if ordered and not g.rank(x[-1]) < g.rank(y[0]):
                    continue
                if not ordered and any(g.has_edge(a, b) for a in x for b in y):
                    continue
                yield from rec(i + 1, used | set(x) | set(y), xs + [x], ys + [y])

    yield from rec(1, set(), [], [])


def _reference_lists_jw(inst, xs, ys):
    """Force color i on X_i and Y_i; elsewhere keep i only strictly between
    them and away from their neighborhoods."""
    g = inst.graph
    forced = {v: i for i, sets in zip(COLORS, zip(xs, ys)) for s in sets for v in s}
    out = {}
    for v in g.vertices:
        if v in forced:
            out[v] = {forced[v]}
            continue
        out[v] = {
            i
            for i in inst.lists.get(v)
            if g.rank(xs[i - 1][-1]) < g.rank(v) < g.rank(ys[i - 1][0])
            and not any(g.has_edge(v, u) for u in xs[i - 1] + ys[i - 1])
        }
    return ListAssignment(out)


def _reference_lists_j16(inst, a_sets, b_sets):
    """Force the guessed sets; strike color i up to the last first-i vertex
    and from the first last-i vertex on, outside the guessed sets."""
    g = inst.graph
    forced = {v: i for i, sets in zip(COLORS, zip(a_sets, b_sets)) for s in sets for v in s}
    out = {}
    for v in g.vertices:
        keep = {forced[v]} if v in forced else set(inst.lists.get(v))
        for i in COLORS:
            a, b = a_sets[i - 1], b_sets[i - 1]
            if a and g.rank(v) <= g.rank(a[-1]) and v not in a:
                keep.discard(i)
            if b and g.rank(v) >= g.rank(b[0]) and v not in b:
                keep.discard(i)
        out[v] = keep
    return ListAssignment(out)


def _propagated(inst, lists):
    """The propagated lists, or None when some list is empty afterwards."""
    if any(not cs for _, cs in lists.items()):
        return None
    out = propagate_singletons(Instance(inst.graph, lists)).lists
    return None if any(not cs for _, cs in out.items()) else out


def _compare(inst, engine, reference):
    """Check one instance; returns (engine guesses, reference guesses)."""
    engine = list(engine)
    reference = list(reference)
    ref_index = {sets: idx for idx, (sets, _) in enumerate(reference)}
    positions = [ref_index[sets] for sets, _ in engine]
    assert positions == sorted(positions), "engine guesses out of reference order"
    kept = set(positions)
    for idx, (sets, lists) in enumerate(reference):
        if idx not in kept:
            assert _propagated(inst, lists) is None, f"engine skipped a live guess {sets}"
    for sets, lists in engine:
        ref_lists = reference[ref_index[sets]][1]
        assert all(lists.get(v) <= ref_lists.get(v) for v in inst.graph.vertices)
    got = [p for p in (_propagated(inst, lists) for _, lists in engine) if p is not None]
    want = [p for p in (_propagated(inst, lists) for _, lists in reference) if p is not None]
    assert got == want
    return len(engine), len(reference)


def test_alpha_tuples_match_reference_on_jw1_free_instances():
    rng = make_rng(3101)
    pattern = build_pattern("Jw:1")
    engine_total = reference_total = 0
    for _ in range(60):
        inst = random_pattern_free_instance(
            rng, pattern, rng.randint(2, 8), rng.uniform(0.3, 0.9), rng.uniform(0.2, 0.8)
        )
        engine = [((a.x_sets, a.y_sets), a.lists) for a in alpha_tuples(inst, 1)]
        reference = [
            ((xs, ys), _reference_lists_jw(inst, xs, ys))
            for xs, ys in _reference_guesses(inst, 1, 1, ordered=True)
        ]
        # guesses the engine keeps are forced exactly as the reference does
        ref_lists = dict(reference)
        assert all(lists == ref_lists[sets] for sets, lists in engine)
        got, want = _compare(inst, engine, reference)
        engine_total += got
        reference_total += want
    assert engine_total < reference_total


def test_q_tuples_match_reference_on_j16_free_instances():
    rng = make_rng(3102)
    engine_total = reference_total = 0
    for k, l in itertools.product((0, 1), repeat=2):
        for _ in range(30):
            inst = random_j16free_instance(rng, k, l, rng.randint(2, 9), rng.uniform(0.2, 0.8))
            engine = [((q.a_sets, q.b_sets), q.lists) for q in q_tuples(inst, k, l)]
            reference = [
                ((a_sets, b_sets), _reference_lists_j16(inst, a_sets, b_sets))
                for a_sets, b_sets in _reference_guesses(inst, k, l, ordered=False)
            ]
            got, want = _compare(inst, engine, reference)
            engine_total += got
            reference_total += want
    assert engine_total < reference_total


def test_a_vertex_without_colors_yields_no_guess():
    rng = make_rng(3103)
    inst = random_j16free_instance(rng, 0, 0, 6)
    v = inst.graph.vertices[2]
    emptied = Instance(inst.graph, inst.lists.updated({v: frozenset()}))
    assert list(q_tuples(emptied, 0, 0)) == []
    assert list(alpha_tuples(emptied, 1)) == []
