"""Differential test of the shared guessing engine,
`kernels.boundary_guesses`, against a naive reference: enumerate every
guess, force its lists, propagate, and only then look for empty lists.

The engine propagates each guess and drops it when a list empties; it
skips guesses earlier as soon as they must empty a list. The claim
checked here is that it skips nothing else: its guesses are a subsequence
of the reference's, every skipped guess leaves an empty list once its
forced lists are propagated, and every kept guess carries exactly the
reference's propagated lists.
"""

import itertools

from ordered_coloring import COLORS, Instance, ListAssignment, build_pattern
from ordered_coloring.kernels import boundary_guesses
from ordered_coloring.rand import make_rng, random_j16free_instance, random_pattern_free_instance
from conftest import (
    lists_from_bits,
    picked_sets,
    reference_guesses,
    reference_lists_jw,
    reference_propagation,
    updated_lists,
)


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
    out = ListAssignment(reference_propagation(inst.graph, lists.items()))
    return None if any(not cs for _, cs in out.items()) else out


def _engine(inst, first, last):
    """The engine's guesses as ((first-sets, last-sets), propagated lists)."""
    order = inst.graph.vertices
    for picks, has in boundary_guesses(inst, first, last):
        yield picked_sets(order, picks), lists_from_bits(order, has)


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
        # each kept guess is forced and propagated exactly as the reference
        assert lists == _propagated(inst, reference[ref_index[sets]][1]), sets
    return len(engine), len(reference)


def test_jw_guesses_match_reference_on_jw1_free_instances():
    rng = make_rng(3101)
    pattern = build_pattern("Jw:1")
    engine_total = reference_total = 0
    for _ in range(60):
        inst = random_pattern_free_instance(
            rng, pattern, rng.randint(2, 8), rng.uniform(0.3, 0.9), rng.uniform(0.2, 0.8)
        )
        reference = [
            ((xs, ys), reference_lists_jw(inst, xs, ys))
            for xs, ys in reference_guesses(inst, 1, 1, ordered=True)
        ]
        got, want = _compare(inst, _engine(inst, 1, 1), reference)
        engine_total += got
        reference_total += want
    assert engine_total < reference_total


def test_j16_guesses_match_reference_on_j16_free_instances():
    rng = make_rng(3102)
    engine_total = reference_total = 0
    for k, l in itertools.product((0, 1), repeat=2):
        for _ in range(30):
            inst = random_j16free_instance(rng, k, l, rng.randint(2, 9), rng.uniform(0.2, 0.8))
            reference = [
                ((a_sets, b_sets), _reference_lists_j16(inst, a_sets, b_sets))
                for a_sets, b_sets in reference_guesses(inst, k, l, ordered=False)
            ]
            got, want = _compare(inst, _engine(inst, k, l), reference)
            engine_total += got
            reference_total += want
    assert engine_total < reference_total


def test_a_vertex_without_colors_yields_no_guess():
    rng = make_rng(3103)
    inst = random_j16free_instance(rng, 0, 0, 6)
    v = inst.graph.vertices[2]
    emptied = Instance(inst.graph, updated_lists(inst.lists, {v: frozenset()}))
    assert list(boundary_guesses(emptied, 0, 0)) == []
    assert list(boundary_guesses(emptied, 1, 1)) == []
