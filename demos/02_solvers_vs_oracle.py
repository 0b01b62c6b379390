#!/usr/bin/env python3
"""The two polynomial solvers against the exhaustive oracle on seeded
random pattern-free instances, plus the shared kernels they stand on."""

from ordered_coloring import (
    Instance,
    ListAssignment,
    OrderedGraph,
    build_pattern,
    solve_bruteforce,
    solve_chordal,
    solve_j16,
    solve_jw,
    solve_small_class,
    solve_two_lists,
)
from ordered_coloring.kernels import _few_wide
from ordered_coloring.rand import (
    make_rng,
    random_chordal_instance,
    random_j16free_instance,
    random_pattern_free_instance,
)

rng = make_rng(4242)

# --- kernels ---------------------------------------------------------------

# Lists of size two reduce to 2-SAT; an odd cycle on one pair is infeasible.
c5 = OrderedGraph([(i, i) for i in range(5)], [(i, (i + 1) % 5) for i in range(5)])
two = Instance(c5, ListAssignment({v: {1, 2} for v in c5.vertices}))
print("odd cycle on two colors:", solve_two_lists(two))

# A few full lists: each coloring of them is tried, and 2-SAT finishes.
# The kernel works on adjacency and color bitmasks and answers by rank.
g = OrderedGraph([("u", 1), ("v", 2), ("w", 3)], [("u", "v"), ("v", "w")])
inst = Instance(g, ListAssignment({"u": {1}, "v": {1, 2, 3}, "w": {2}}))
ranks = _few_wide(g.adjacency_bits(), (1 << g.n) - 1, inst.color_bits)
print("path with one full list:", {g.vertices[r]: c for r, c in ranks.items()})

# A coloring with a color class below c vertices: pin the class to each
# small stable set in turn, then 2-SAT. The odd cycle needs color 3 once.
three = Instance(c5, ListAssignment({v: {1, 2, 3} for v in c5.vertices}))
print("class below 2 on the 5-cycle:", solve_small_class(three, 2))
print("class below 1 on the 5-cycle:", solve_small_class(three, 1))

# Chordal instances get a perfect-elimination dynamic program.
chordal_inst = random_chordal_instance(rng, 10)
a = solve_chordal(chordal_inst)
b = solve_bruteforce(chordal_inst)
print("chordal solver agrees with oracle:", (a is None) == (b is None))

# --- the two headline solvers ----------------------------------------------

jw_pattern = build_pattern("Jw:1")
agreements = 0
for _ in range(40):
    inst = random_pattern_free_instance(rng, jw_pattern, rng.randint(3, 8), 0.6, 0.6)
    got = solve_jw(inst, 1)
    expected = solve_bruteforce(inst)
    assert (got is None) == (expected is None)
    agreements += 1
print(f"single-edge-pattern solver: {agreements}/40 verdicts match the oracle")

agreements = 0
for _ in range(40):
    inst = random_j16free_instance(rng, 1, 1, rng.randint(3, 10))
    got = solve_j16(inst, 1, 1)
    expected = solve_bruteforce(inst)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.validates(inst)
    agreements += 1
print(f"padded-fork-pattern solver: {agreements}/40 verdicts match the oracle")
