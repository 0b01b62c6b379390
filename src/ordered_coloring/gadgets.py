"""Constructive hardness reductions: a bipartite embedding, two NAE3SAT
gadgets, the list-realization builder, and three edge-to-path expanders.
Every generator emits its instance together with per-vertex provenance,
the advertised absent patterns, and (for realizations) the path registry,
so the whole output can be machine-checked at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .core import (
    COLORS,
    Coloring,
    Instance,
    ListAssignment,
    OrderedGraph,
    contains_pattern,
)
from .errors import InputError, InternalError
from .oracle import NaeInstance, nae_bruteforce, solve_bruteforce
from .patterns import build_pattern

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class GadgetOutput:
    instance: Instance
    provenance: dict
    advertised_free: tuple
    path_registry: Optional[dict] = None  # (ends, branch) -> path; expanders only
    source_kind: str = ""
    source: object = None


# ---------------------------------------------------------------------------
# bipartite embedding


def gen_bipartite(inst: Instance, sides: Optional[tuple] = None) -> GadgetOutput:
    """Reposition a bipartite instance so one side entirely precedes the
    other. Colorability is untouched; a long list of four-vertex patterns
    cannot embed because every edge crosses the boundary."""
    g = inst.graph
    if sides is None:
        sides = _bipartition(g)
    x_side, y_side = (set(sides[0]), set(sides[1]))
    if x_side & y_side or x_side | y_side != set(g.vertices):
        raise InputError("sides must partition the vertex set")
    for e in g.edges:
        u, v = tuple(e)
        if (u in x_side) == (v in x_side):
            raise InputError(f"edge ({u!r},{v!r}) does not cross the bipartition")
    xs = [v for v in g.vertices if v in x_side]
    ys = [v for v in g.vertices if v in y_side]
    verts = [(v, i + 1) for i, v in enumerate(xs + ys)]
    new_graph = OrderedGraph(verts, [tuple(e) for e in g.edges])
    provenance = {v: f"x_{i+1}" for i, v in enumerate(xs)}
    provenance.update({v: f"y_{j+1}" for j, v in enumerate(ys)})
    return GadgetOutput(
        instance=Instance(new_graph, inst.lists),
        provenance=provenance,
        advertised_free=("J1", "J2", "J4", "J6", "J7", "J9", "J12", "J13", "J15"),
        source_kind="instance",
        source=inst,
    )


def _bipartition(g: OrderedGraph) -> tuple[list, list]:
    side = {}
    for start in g.vertices:
        if start in side:
            continue
        side[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in g.neighbors(v):
                if u not in side:
                    side[u] = 1 - side[v]
                    queue.append(u)
                elif side[u] == side[v]:
                    raise InputError("graph is not bipartite (odd cycle found)")
    zeros = [v for v in g.vertices if side[v] == 0]
    ones = [v for v in g.vertices if side[v] == 1]
    return zeros, ones


# ---------------------------------------------------------------------------
# NAE3SAT gadgets


def gen_h1(nae: NaeInstance, ordering: str) -> GadgetOutput:
    """Hub-plus-variable-row-plus-clause-triangles gadget: 3-colorable iff
    the monotone NAE instance is satisfiable. Three orderings of the same
    graph avoid three different pattern sets."""
    if ordering not in ("t1", "t2", "t3"):
        raise InputError(f"gen_h1 ordering must be t1, t2 or t3, got {ordering!r}")
    n, m = nae.num_vars, len(nae.clauses)
    edges = []
    roles = {"x": "x"}
    for i in range(1, n + 1):
        roles[f"m{i}"] = f"m_{i}"
        edges.append(("x", f"m{i}"))
    occ: dict[int, list] = {i: [] for i in range(1, n + 1)}
    for j, clause in enumerate(nae.clauses, start=1):
        tnames = [f"t{j}_{k}" for k in (1, 2, 3)]
        for k, var in enumerate(clause):
            roles[tnames[k]] = f"t_{{{j},{k+1}}}"
            edges.append((f"m{var}", tnames[k]))
            occ[var].append(j)
        edges.extend(itertools.combinations(tnames, 2))

    pos: dict = {}
    if ordering == "t1":
        pos["x"] = 1
        for i in range(1, n + 1):
            pos[f"m{i}"] = i + 1
        for j in range(1, m + 1):
            for k in (1, 2, 3):
                pos[f"t{j}_{k}"] = n + 3 * j + k - 2
    elif ordering == "t2":
        for i in range(1, n + 1):
            pos[f"m{i}"] = i
        pos["x"] = n + 1
        for j in range(1, m + 1):
            for k in (1, 2, 3):
                pos[f"t{j}_{k}"] = n + 3 * j + k - 2
    else:
        pos["x"] = 1
        for i in range(1, n + 1):
            pos[f"m{i}"] = i + 1
        offset = n + 2
        for i in range(1, n + 1):
            for slot, j in enumerate(occ[i]):
                k = list(nae.clauses[j - 1]).index(i) + 1
                pos[f"t{j}_{k}"] = offset + slot
            offset += len(occ[i])

    graph = OrderedGraph._from_keys(pos, 1, edges)  # integer positions
    advertised = {
        "t1": ("J3", "neg:J11"),
        "t2": ("J5", "J8"),
        "t3": ("J10", "J14"),
    }[ordering]
    return GadgetOutput(
        instance=Instance.with_full_lists(graph),
        provenance=roles,
        advertised_free=advertised,
        source_kind="nae",
        source=nae,
    )


def gen_h2(nae: NaeInstance) -> GadgetOutput:
    """Variant with a separator row: each clause occurrence gets a private
    neighbor of the hub between its variable and its triangle corner."""
    n, m = nae.num_vars, len(nae.clauses)
    edges = []
    roles = {"x": "x"}
    for i in range(1, n + 1):
        roles[f"m{i}"] = f"m_{i}"
        edges.append(("x", f"m{i}"))
    occ: dict[int, list] = {i: [] for i in range(1, n + 1)}
    for j, clause in enumerate(nae.clauses, start=1):
        tnames = [f"t{j}_{var}" for var in clause]
        for var in clause:
            s = f"s{var}_{j}"
            t = f"t{j}_{var}"
            roles[s] = f"s_{{{var},{j}}}"
            roles[t] = f"t_{{{j},{var}}}"
            edges.append(("x", s))
            edges.append((f"m{var}", s))
            edges.append((s, t))
            occ[var].append(j)
        edges.extend(itertools.combinations(tnames, 2))

    pos: dict = {"x": 1}
    for i in range(1, n + 1):
        pos[f"m{i}"] = i + 1
    offset = n + 2
    for i in range(1, n + 1):
        for slot, j in enumerate(occ[i]):
            s_pos = offset + slot
            pos[f"s{i}_{j}"] = s_pos
            pos[f"t{j}_{i}"] = s_pos + 3 * m
        offset += len(occ[i])

    graph = OrderedGraph._from_keys(pos, 1, edges)  # integer positions
    return GadgetOutput(
        instance=Instance.with_full_lists(graph),
        provenance=roles,
        advertised_free=("J7", "J13", "J14"),
        source_kind="nae",
        source=nae,
    )


# ---------------------------------------------------------------------------
# realization lists


def _mod3(c: int) -> int:
    return (c - 1) % 3 + 1


def validate_registry(g: OrderedGraph, registry: dict) -> None:
    """Check the path-registry conditions: per source edge three paths
    with shared endpoints only, interiors pairwise disjoint and free of
    endpoint vertices, interiors of workable length, consecutive pairs
    being edges, no direct endpoint edge, and every graph edge covered."""
    by_edge: dict = {}
    for (edge, branch), path in registry.items():
        by_edge.setdefault(edge, {})[branch] = tuple(path)
    endpoint_vertices = set()
    for edge in by_edge:
        endpoint_vertices.update(edge)
    covered = set()
    interiors_seen: set = set()
    for edge, branches in by_edge.items():
        u, v = edge
        if set(branches) != {1, 2, 3}:
            raise InputError(f"source edge {edge!r} must have branches 1..3")
        if g.has_edge(u, v):
            raise InputError(f"source edge {edge!r} must not be a direct edge")
        for branch in (1, 2, 3):
            path = branches[branch]
            if path[0] != u or path[-1] != v:
                raise InputError(f"path for {edge!r} branch {branch} must run from {u!r} to {v!r}")
            interior = path[1:-1]
            t = len(interior)
            if t < 2 or (t % 2 == 1 and t < 3):
                raise InputError(f"path for {edge!r} branch {branch} is too short")
            for w in interior:
                if w in endpoint_vertices:
                    raise InputError(f"interior vertex {w!r} is a path endpoint")
                if w in interiors_seen:
                    raise InputError(f"interior vertex {w!r} appears in two paths")
                interiors_seen.add(w)
            for a, b in zip(path, path[1:]):
                if not g.has_edge(a, b):
                    raise InputError(f"consecutive path pair ({a!r},{b!r}) is not an edge")
                covered.add(frozenset((a, b)))
    if covered != g.edges:
        missing = sorted(map(sorted, g.edges - covered))
        raise InputError(f"edges not covered by any path: {missing}")


def realize_lists(g: OrderedGraph, registry: dict) -> ListAssignment:
    """Lists that make the path-expanded graph colorable exactly when the
    contracted source graph is 3-colorable: full lists on source vertices,
    two-color lists along each branch with a one-step color shift at the
    head of odd-interior paths."""
    validate_registry(g, registry)
    lists: dict = {}
    interiors = set()
    for (edge, branch), path in registry.items():
        interior = path[1:-1]
        interiors.update(interior)
        t = len(interior)
        b = branch
        for idx, w in enumerate(interior, start=1):
            if t % 2 == 0:
                lists[w] = frozenset((_mod3(b), _mod3(b + 1)))
            elif idx <= 3:
                lists[w] = frozenset((_mod3(b + idx - 1), _mod3(b + idx)))
            else:
                lists[w] = frozenset((_mod3(b), _mod3(b + 1)))
    for v in g.vertices:
        if v not in interiors:
            lists[v] = frozenset((1, 2, 3))
    return ListAssignment(lists)


# ---------------------------------------------------------------------------
# edge-to-path expanders


class _Threads:
    """Level structure shared by the three expanders: per source edge and
    direction, three branch threads that persist through as many levels as
    their branch index."""

    def __init__(self, g: OrderedGraph):
        self.source = g
        self.n = g.n
        self.gidx = {v: i + 1 for i, v in enumerate(g.vertices)}
        self.edges = sorted(
            (tuple(sorted(e, key=self.gidx.__getitem__)) for e in g.edges),
            key=lambda e: (self.gidx[e[0]], self.gidx[e[1]]),
        )
        self.m = len(self.edges)
        threads = []
        for fe, (u, v) in enumerate(self.edges, start=1):
            for j in (3 * fe - 2, 3 * fe - 1, 3 * fe):
                threads.append((u, v, j))
                threads.append((v, u, j))
        # levels[i] lists the alive threads at level i+1 in layout order
        self.levels = []
        for i in range(1, 3 * self.m + 1):
            alive = [th for th in threads if th[2] >= i]
            alive.sort(key=lambda th: (self.gidx[th[0]], self.gidx[th[1]], th[2]))
            self.levels.append(alive)

    def closers(self, i: int) -> tuple:
        """The two directed threads whose branch index equals the level,
        ordered by layout rank."""
        level = self.levels[i - 1]
        pair = [th for th in level if th[2] == i]
        if len(pair) != 2:
            raise InternalError(f"level {i} has {len(pair)} closing threads, not two")
        pair.sort(key=level.index)
        return pair[0], pair[1]

    def rank(self, i: int, th) -> int:
        return self.levels[i - 1].index(th) + 1

    def rows(self, stride: int = 0) -> tuple:
        """The layout every expander starts from: the source vertices at
        ranks 1..n, then each level's w row in thread order, level i moved
        `stride` * (i - 1) to the right. Each level-1 w is joined to its
        thread's source vertex; with no stride, each later w also to its
        thread's w one level earlier. Returns (pos, roles, edges, bases),
        bases[i - 1] being the rank before level i's row, before the move."""
        pos = {v: Fraction(self.gidx[v]) for v in self.source.vertices}
        roles = {v: f"orig_{v}" for v in self.source.vertices}
        edges: list = []
        bases = []
        base = self.n
        for i, level in enumerate(self.levels, start=1):
            bases.append(base)
            for r, th in enumerate(level, start=1):
                name = _w_name(i, th)
                pos[name] = Fraction(stride * (i - 1) + base + r)
                roles[name] = f"w_{i}({th[0]},{th[1]},{th[2]})"
                if i == 1:
                    edges.append((th[0], name))
                elif not stride:
                    edges.append((_w_name(i - 1, th), name))
            base += len(level)
        return pos, roles, edges, bases

    def w_side(self, th) -> list:
        """Thread th's w vertices, from level 1 to its branch index."""
        return [_w_name(i, th) for i in range(1, th[2] + 1)]

    def output(self, pos, roles, edges, side, middle, advertised) -> GadgetOutput:
        """The expander on `pos` and `edges`. Branch b of source edge (u, v)
        runs along th = (u, v, j), j = 3 f(u, v) + b - 3: u, side(th),
        middle(th), side of the reverse thread backwards, v. The lists are
        the ones this registry realizes."""
        graph = OrderedGraph(pos.items(), edges)
        registry = {}
        for fe, (u, v) in enumerate(self.edges, start=1):
            for branch in (1, 2, 3):
                j = 3 * fe + branch - 3
                back = side((v, u, j))
                registry[((u, v), branch)] = (
                    u, *side((u, v, j)), *middle((u, v, j)), *reversed(back), v
                )
        return GadgetOutput(
            instance=Instance(graph, realize_lists(graph, registry)),
            provenance=roles,
            advertised_free=advertised,
            path_registry=registry,
            source_kind="graph",
            source=self.source,
        )


def _w_name(i: int, th) -> str:
    u, v, j = th
    return f"w{i}({u},{v},{j})"


def gen_h3(g: OrderedGraph, variant: str) -> GadgetOutput:
    """Expander whose paths close through a row of half-offset copies
    strictly between the two closing columns of each level. One layout
    keeps every level in thread order; the other reverses odd levels."""
    if variant not in ("t5", "t6"):
        raise InputError(f"gen_h3 variant must be t5 or t6, got {variant!r}")
    st = _Threads(g)
    pos, roles, edges, bases = st.rows()
    z_by_level: dict = {}
    for i, level in enumerate(st.levels, start=1):
        left, right = st.closers(i)
        if variant == "t6" and i % 2 == 1:
            for r, th in enumerate(level, start=1):
                pos[_w_name(i, th)] = Fraction(bases[i - 1] + len(level) + 1 - r)
        shift = -HALF if variant == "t6" and i % 2 == 0 else HALF
        znames = []
        for th in level[st.rank(i, left) : st.rank(i, right) - 1]:
            zname = f"z{i}({th[0]},{th[1]},{th[2]})"
            pos[zname] = pos[_w_name(i, th)] + shift
            roles[zname] = f"z_{i}({th[0]},{th[1]},{th[2]})"
            znames.append(zname)
        chain = [_w_name(i, left), *znames, _w_name(i, right)]
        edges.extend(zip(chain, chain[1:]))
        z_by_level[i] = znames

    def middle(th) -> list:
        znames = z_by_level[th[2]]
        return znames if st.closers(th[2])[0] == th else znames[::-1]

    advertised = ("M1", "M2") if variant == "t5" else ("M3",)
    return st.output(pos, roles, edges, st.w_side, middle, advertised)


def gen_h4(g: OrderedGraph) -> GadgetOutput:
    """Expander that closes each level through a single extra vertex; all
    closing vertices live in one trailing block, in reverse level order."""
    st = _Threads(g)
    pos, roles, edges, _ = st.rows()
    tail = st.n + 3 * st.m * (3 * st.m + 1)
    for i in range(1, 3 * st.m + 1):
        zname = f"z{i}"
        pos[zname] = Fraction(tail + (3 * st.m - i + 1))
        roles[zname] = f"z_{i}"
        edges.extend((_w_name(i, th), zname) for th in st.closers(i))
    return st.output(pos, roles, edges, st.w_side, lambda th: [f"z{th[2]}"], ("M4",))


def gen_h5(g: OrderedGraph) -> GadgetOutput:
    """Expander without closing vertices: between consecutive levels the
    one closing thread drifts back through interpolated rows, half a step
    off the grid, until its chain ends one diagonal step away from its
    partner's chain end, and that diagonal step is the closing edge.

    The closing edge is itself drift-shaped, so every nested edge pair in
    the layout leaves no room for a fifth, nonadjacent vertex between the
    inner and outer right endpoints.
    """
    st = _Threads(g)
    m = st.m
    pos, roles, edges, _ = st.rows(stride=36 * m * m)

    def x_name(k: int, i: int, th) -> str:
        return f"x{k}^{i}({th[0]},{th[1]},{th[2]})"

    rows = {}
    for i, level in enumerate(st.levels, start=1):
        left, right = st.closers(i)
        # the drifting thread stops one row short; the final drift step is
        # the closing edge itself
        rows[i] = max(st.rank(i, right) - st.rank(i, left) - 1, 1)
        prev_name = {th: _w_name(i, th) for th in level}
        for k in range(1, rows[i] + 1):
            for th in level:
                if th == right and k > rows[i] - 1:
                    continue
                name = x_name(k, i, th)
                drift = -k - HALF if th == right else 0
                pos[name] = pos[_w_name(i, th)] + 6 * m * k + drift
                roles[name] = f"x_{k}^{i}({th[0]},{th[1]},{th[2]})"
                edges.append((prev_name[th], name))
                prev_name[th] = name
        for th in level:
            if th[2] >= i + 1:
                edges.append((prev_name[th], _w_name(i + 1, th)))
        edges.append((prev_name[right], prev_name[left]))

    def side(th) -> list:
        j = th[2]
        drifting = st.closers(j)[1]
        seq = []
        for i in range(1, j + 1):
            seq.append(_w_name(i, th))
            top = rows[i] if i < j or th != drifting else rows[i] - 1
            seq.extend(x_name(k, i, th) for k in range(1, top + 1))
        return seq

    return st.output(pos, roles, edges, side, lambda th: [], ("M5",))


# ---------------------------------------------------------------------------
# the gadget table


class Gadget(NamedTuple):
    """One generator as `oglc gen` and `oglc verify` see it: the kind of
    source it reads (`"nae"`, `"graph"` or `"instance"`, its outputs'
    `source_kind`), its layout names, and `generate(source, layout)`."""

    kind: str
    layouts: tuple
    generate: Callable[[object, str], GadgetOutput]


GADGETS = {
    "h1": Gadget("nae", ("t1", "t2", "t3"), gen_h1),
    "h2": Gadget("nae", ("t4",), lambda nae, _: gen_h2(nae)),
    "h3": Gadget("graph", ("t5", "t6"), gen_h3),
    "h4": Gadget("graph", ("t7",), lambda g, _: gen_h4(g)),
    "h5": Gadget("graph", ("t8",), lambda g, _: gen_h5(g)),
    "bip": Gadget("instance", ("t5",), lambda inst, _: gen_bipartite(inst)),
}


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class GadgetReport:
    entries: tuple  # (check name, passed, detail)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.entries)


def verify_gadget(out: GadgetOutput, oracle_cap: int = 4000) -> GadgetReport:
    """Machine checks on a generated gadget: advertised patterns really
    absent, an expander's path registry consistent with its graph and its
    lists (`realize_lists`), and satisfiability equal to the attached
    source's. For a satisfiable NAE source the gadget is shown
    colorable by the coloring its NAE assignment maps to; the oracle (and
    so `oracle_cap`) decides only unsatisfiable NAE sources, graph and
    instance sources, and gadgets where that coloring fails to validate.
    An NAE source is scanned by `nae_bruteforce` up to its own bound of 24
    variables. A failed check is a report entry; a run over either bound
    raises `CapExceededError`, and any other exception is raised too, so
    neither reads as a failed check."""
    entries = []
    for pid in out.advertised_free:
        witness = contains_pattern(out.instance.graph, build_pattern(pid))
        entries.append(
            (
                f"advertised-free:{pid}",
                witness is None,
                "" if witness is None else f"witness={sorted(map(str, witness))}",
            )
        )
    if out.path_registry is not None:
        try:
            ok = realize_lists(out.instance.graph, out.path_registry) == out.instance.lists
            entries.append(("path-registry", ok, "" if ok else "lists differ from the realization"))
        except InputError as exc:
            entries.append(("path-registry", False, str(exc)))
    if out.source_kind:
        gadget_colorable, source_ok = _equi_satisfiability(out, oracle_cap)
        entries.append(
            (
                "equi-satisfiability",
                gadget_colorable == source_ok,
                f"gadget={gadget_colorable} source={source_ok}",
            )
        )
    return GadgetReport(tuple(entries))


def _equi_satisfiability(out: GadgetOutput, oracle_cap: int) -> tuple[bool, bool]:
    """(gadget colorable, source satisfiable)."""
    if out.source_kind == "nae":
        assignment = nae_bruteforce(out.source)
        if assignment is not None and _nae_coloring(out, assignment).validates(out.instance):
            return True, True
        return solve_bruteforce(out.instance, cap=oracle_cap) is not None, assignment is not None
    gadget_colorable = solve_bruteforce(out.instance, cap=oracle_cap) is not None
    source = out.source
    if out.source_kind == "graph":
        source = Instance.with_full_lists(source)
    return gadget_colorable, solve_bruteforce(source, cap=oracle_cap) is not None


def _nae_coloring(out: GadgetOutput, assignment: tuple) -> Coloring:
    """The constructive direction of the H1/H2 reductions: hub 3, m_i 1 if
    variable i is true and 2 if not, each H2 separator the other of {1,2},
    and each clause triangle the first permutation of 1-3 that avoids the
    color of every corner's outside neighbor (one exists as the clause is
    not-all-equal). Vertex ids that are not the generators' give a partial
    coloring, which does not validate."""
    graph = out.instance.graph
    color = {"x": 3}
    for i, value in enumerate(assignment, start=1):
        color[f"m{i}"] = 1 if value else 2
    for j, clause in enumerate(out.source.clauses, start=1):
        if graph.has_vertex(f"s{clause[0]}_{j}"):
            for var in clause:
                color[f"s{var}_{j}"] = 3 - color[f"m{var}"]
            corners = [(f"t{j}_{var}", color[f"s{var}_{j}"]) for var in clause]
        else:
            corners = [(f"t{j}_{k}", color[f"m{var}"]) for k, var in enumerate(clause, start=1)]
        for perm in itertools.permutations(COLORS):
            if all(c != banned for c, (_, banned) in zip(perm, corners)):
                color.update((name, c) for c, (name, _) in zip(perm, corners))
                break
    return Coloring(color)
