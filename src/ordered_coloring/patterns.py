"""The catalog of small forbidden ordered patterns and the dichotomy
classifier for single forbidden patterns.

Pattern ids are parseable strings: ``J9``, ``M5``, ``Jw:3``, ``J16:2,1``,
``neg:M5``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .core import OrderedGraph, contains_pattern, is_isomorphic
from .errors import InputError, InternalError

# Edge lists over vertices 1..n placed at positions 1..n.
_J_EDGES = {
    1: ((1, 2), (2, 3), (3, 4)),
    2: ((1, 2), (2, 4), (3, 4)),
    3: ((1, 3), (2, 3), (2, 4)),
    4: ((1, 3), (2, 4), (3, 4)),
    5: ((1, 4), (2, 3), (2, 4)),
    6: ((1, 4), (2, 3), (3, 4)),
    7: ((1, 2), (1, 4), (3, 4)),
    8: ((1, 3), (1, 4), (2, 4)),
    9: ((1, 2), (3, 4)),
    10: ((1, 2), (1, 4)),
    11: ((1, 3), (1, 4)),
    12: ((1, 2), (2, 4)),
    13: ((1, 5), (2, 3), (3, 4)),
    14: ((1, 5), (2, 3), (2, 4)),
    15: ((1, 2), (2, 3)),
    16: ((1, 2), (1, 3)),
}
_J_SIZE = {13: 5, 14: 5, 15: 3, 16: 3}

_M_EDGES = {
    1: ((1, 6), (2, 5)),
    2: ((1, 6), (2, 5), (3, 4)),
    3: ((1, 4), (2, 5), (3, 6)),
    4: ((1, 5), (2, 4), (3, 6)),
    5: ((1, 5), (2, 3)),
    6: ((1, 3), (2, 4)),
    7: ((1, 4), (2, 3)),
    8: ((1, 5), (2, 4)),
}
_M_SIZE = {1: 6, 2: 6, 3: 6, 4: 6, 5: 5, 6: 4, 7: 4, 8: 5}


@dataclass(frozen=True)
class PatternId:
    kind: str  # "J" | "M" | "Jw" | "J16kl" | "neg"
    index: int = 0
    k: int = 0
    l: int = 0
    inner: Optional["PatternId"] = None

    def __str__(self):
        if self.kind == "J":
            return f"J{self.index}"
        if self.kind == "M":
            return f"M{self.index}"
        if self.kind == "Jw":
            return f"Jw:{self.index}"
        if self.kind == "J16kl":
            return f"J16:{self.k},{self.l}"
        return f"neg:{self.inner}"


def parse_pattern_id(text: str) -> PatternId:
    s = text.strip()
    if s.startswith("neg:"):
        return PatternId("neg", inner=parse_pattern_id(s[4:]))
    if s.startswith("Jw:"):
        w = _parse_int(s[3:], "Jw width")
        if w < 1:
            raise InputError(f"Jw width must be >= 1, got {w}")
        return PatternId("Jw", index=w)
    if s.startswith("J16:"):
        parts = s[4:].split(",")
        if len(parts) != 2:
            raise InputError(f"expected J16:<k>,<l>, got {text!r}")
        k = _parse_int(parts[0], "pad count")
        l = _parse_int(parts[1], "pad count")
        if k < 0 or l < 0:
            raise InputError("pad counts must be nonnegative")
        return PatternId("J16kl", k=k, l=l)
    if s.startswith("J"):
        i = _parse_int(s[1:], "J index")
        if not 1 <= i <= 16:
            raise InputError(f"J index must be 1..16, got {i}")
        return PatternId("J", index=i)
    if s.startswith("M"):
        i = _parse_int(s[1:], "M index")
        if not 1 <= i <= 8:
            raise InputError(f"M index must be 1..8, got {i}")
        return PatternId("M", index=i)
    raise InputError(f"cannot parse pattern id {text!r}")


def _parse_int(s: str, what: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise InputError(f"bad {what}: {s!r}") from None


@functools.cache
def build_pattern(pid) -> OrderedGraph:
    """Construct the ordered graph named by a pattern id (or id string).
    Cached per argument: the graphs are immutable, so callers share them."""
    if isinstance(pid, str):
        pid = parse_pattern_id(pid)
    if pid.kind == "J":
        n = _J_SIZE.get(pid.index, 4)
        return _path_positions(n, _J_EDGES[pid.index])
    if pid.kind == "M":
        return _path_positions(_M_SIZE[pid.index], _M_EDGES[pid.index])
    if pid.kind == "Jw":
        w = pid.index
        return _path_positions(3 * w + 2, ((w + 1, 2 * w + 2),))
    if pid.kind == "J16kl":
        return build_pattern(PatternId("J", index=16)).pad(pid.k, pid.l)
    if pid.kind == "neg":
        return build_pattern(pid.inner).reverse()
    raise InputError(f"unknown pattern kind {pid.kind!r}")


def _path_positions(n: int, edges) -> OrderedGraph:
    return OrderedGraph([(i, i) for i in range(1, n + 1)], edges)


POLYNOMIAL = "polynomial"
NP_COMPLETE = "np-complete"
OPEN = "open"


@dataclass(frozen=True)
class ComplexityVerdict:
    status: str
    justification: str


def classify(h: OrderedGraph) -> ComplexityVerdict:
    """Complexity of list-3-coloring restricted to h-free ordered graphs.

    Decision table over the number of edges of h, with the two-edge cases
    split by whether the edges share an end. Open verdicts are produced
    only by an explicit shape match against one of the three undetermined
    families, never by fall-through.
    """
    m = len(h.edges)
    if m <= 1:
        return ComplexityVerdict(POLYNOMIAL, "at-most-one-edge")
    if m >= 3:
        return ComplexityVerdict(NP_COMPLETE, "three-or-more-edges")

    e1, e2 = list(h.edges)
    if e1 & e2:
        return _classify_shared_end(h)
    return _classify_disjoint(h)


def _classify_shared_end(h: OrderedGraph) -> ComplexityVerdict:
    j16 = build_pattern("J16")
    kl = _padded_match(h, j16)
    if kl is not None:
        return ComplexityVerdict(POLYNOMIAL, "pad-of-J16")
    kl = _padded_match(h, j16.reverse())
    if kl is not None:
        return ComplexityVerdict(POLYNOMIAL, "pad-of-neg-J16")
    for name in ("J10", "neg:J10", "J11", "neg:J11", "J15"):
        if contains_pattern(h, build_pattern(name)) is not None:
            return ComplexityVerdict(NP_COMPLETE, f"shared-end-contains-{name}")
    raise InternalError("two edges sharing an end must match a known case")


def _classify_disjoint(h: OrderedGraph) -> ComplexityVerdict:
    for name in ("J9", "M1", "M5", "neg:M5"):
        if contains_pattern(h, build_pattern(name)) is not None:
            return ComplexityVerdict(NP_COMPLETE, f"contains-{name}")
    core = h.induced([v for v in h.vertices if h.neighbors(v)])
    if is_isomorphic(core, build_pattern("M6")):
        return ComplexityVerdict(OPEN, "open-family-M6-plus-isolated")
    if _padded_match(h, build_pattern("M7")) is not None:
        return ComplexityVerdict(OPEN, "open-family-pad-of-M7")
    if _padded_match(h, build_pattern("M8")) is not None:
        return ComplexityVerdict(OPEN, "open-family-pad-of-M8")
    raise InternalError("two disjoint edges must match a known case")


def _padded_match(h: OrderedGraph, core: OrderedGraph) -> Optional[tuple[int, int]]:
    """(k, l) such that h is isomorphic to core padded with k leading and
    l trailing isolated vertices, or None."""
    incident = [v for v in h.vertices if h.neighbors(v)]
    if not incident:
        return None
    order = h.vertices
    ranks = [order.index(v) for v in incident]
    k = min(ranks)
    l = h.n - 1 - max(ranks)
    if is_isomorphic(h, core.pad(k, l)):
        return (k, l)
    return None
