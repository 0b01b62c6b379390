"""Text formats: ordered graphs with lists (one record per line), monotone
NAE3SAT instances, and provenance sidecars. Parsing is strict; every error
carries the offending line number."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Optional

from .core import COLORS, Instance, ListAssignment, OrderedGraph, _ranks
from .errors import InputError
from .oracle import NaeInstance


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and not parts[0].startswith("#"):
            yield lineno, parts


def parse_position_token(token: str, lineno: int = 0) -> Fraction:
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"line {lineno}: bad position {token!r}") from None


def format_position(p: Fraction) -> str:
    return str(p.numerator) if p.denominator == 1 else f"{p.numerator}/{p.denominator}"


# `lst` digit strings: "0" is the empty list, otherwise distinct digits
# from "123" in any order; each maps to one shared frozenset
_LIST_DIGITS = {"0": frozenset()} | {
    "".join(p): frozenset(map(int, p))
    for size in (1, 2, 3)
    for p in itertools.permutations("123", size)
}
_FULL = frozenset(COLORS)
# per list, the indices of the colors it leaves out
_MISSING = {cs: tuple(c - 1 for c in COLORS if c not in cs) for cs in _LIST_DIGITS.values()}


def parse_instance(text: str) -> tuple[str, Instance]:
    """Parse the ordered-graph format: `ograph <name>` header, `vtx <id>
    <pos>`, `edg <id> <id>`, optional `lst <id> <digits>` ("0" means the
    empty list; missing lines default to all three colors).

    One pass over the lines checks each record once, with its line
    number: duplicate ids and positions, unknown ends, self-loops and
    duplicate edges, list digits, and one list per vertex. `edg`, the
    most common record, is told apart first, then `lst` and `vtx`. An
    integer position token becomes the key (n, 1) with no `Fraction`
    built; only a `num/den` token goes through `parse_position_token`.
    Positions compare as those (numerator, denominator) pairs, in lowest
    terms, and then become integer keys over their common denominator.

    The parser then builds the rank order, the adjacency bits and the
    color bitsets itself. When the keys already increase in record order,
    the ranks are the record places and nothing is sorted or remapped.
    The color bitsets start full and each `lst` record clears the colors
    its list leaves out. All of it goes to the trusted constructors of
    `OrderedGraph`, `ListAssignment` and `Instance`, which check none of
    it again."""
    name = ""
    saw_header = False
    index: dict = {}  # vertex id -> its place among the `vtx` records
    pos_owner: dict = {}  # (numerator, denominator) -> vertex id, in record order
    adj: list = []  # per place: the places of its neighbors, as a bitmask
    lists: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "edg":
            if len(parts) != 3:
                raise InputError(f"line {lineno}: expected `edg <id> <id>`")
            u, v = parts[1], parts[2]
            iu, iv = index.get(u), index.get(v)
            if iu is None or iv is None:
                raise InputError(f"line {lineno}: unknown vertex {(u if iu is None else v)!r}")
            if iu == iv:
                raise InputError(f"line {lineno}: self-loop at {u!r}")
            if adj[iu] >> iv & 1:
                raise InputError(f"line {lineno}: duplicate edge {u!r} {v!r}")
            adj[iu] |= 1 << iv
            adj[iv] |= 1 << iu
        elif kind == "lst":
            if len(parts) != 3:
                raise InputError(f"line {lineno}: expected `lst <id> <digits>`")
            vid, digits = parts[1], parts[2]
            if vid not in index:
                raise InputError(f"line {lineno}: unknown vertex {vid!r}")
            if vid in lists:
                raise InputError(f"line {lineno}: duplicate list for {vid!r}")
            if digits not in _LIST_DIGITS:
                raise InputError(f"line {lineno}: bad list digits {digits!r}")
            lists[vid] = _LIST_DIGITS[digits]
        elif kind == "vtx":
            if len(parts) != 3:
                raise InputError(f"line {lineno}: expected `vtx <id> <pos>`")
            vid, token = parts[1], parts[2]
            if vid in index:
                raise InputError(f"line {lineno}: duplicate vertex {vid!r}")
            if "/" in token:
                p = parse_position_token(token, lineno)
                key = (p.numerator, p.denominator)
            else:
                try:
                    key = (int(token), 1)
                except ValueError:
                    raise InputError(f"line {lineno}: bad position {token!r}") from None
            if key in pos_owner:
                raise InputError(
                    f"line {lineno}: position {token} already used by {pos_owner[key]!r}"
                )
            pos_owner[key] = vid
            index[vid] = len(adj)
            adj.append(0)
        elif kind == "ograph":
            if saw_header:
                raise InputError(f"line {lineno}: duplicate header")
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected `ograph <name>`")
            name = parts[1]
            saw_header = True
        elif not kind.startswith("#"):
            raise InputError(f"line {lineno}: unknown record {kind!r}")

    den = lcm(*{d for _, d in pos_owner})
    keys = {vid: num * (den // d) for (num, d), vid in pos_owner.items()}
    record_keys = list(keys.values())
    if record_keys == sorted(record_keys):  # the `vtx` records came in position order
        order, rank, bits = tuple(keys), index, tuple(adj)
    else:
        order = tuple(sorted(keys, key=keys.__getitem__))
        rank = {vid: r for r, vid in enumerate(order)}
        to_rank = [rank[vid] for vid in index]
        remapped = [0] * len(order)
        for i, nbrs in enumerate(adj):
            remapped[to_rank[i]] = sum(1 << to_rank[j] for j in _ranks(nbrs))
        bits = tuple(remapped)
    everyone = (1 << len(order)) - 1
    has = [everyone, everyone, everyone]
    for vid, colors in lists.items():
        bit = 1 << rank[vid]
        for i in _MISSING[colors]:
            has[i] &= ~bit
    graph = OrderedGraph._trusted(keys, den, order, rank, bits)
    full = ListAssignment._trusted({vid: lists.get(vid, _FULL) for vid in keys})
    return name, Instance._trusted(graph, full, tuple(has))


def serialize_instance(name: str, inst: Instance) -> str:
    g = inst.graph
    out = [f"ograph {name}"]
    for v in g.vertices:
        out.append(f"vtx {v} {format_position(g.position(v))}")
    for u, v in sorted(
        (tuple(sorted(e, key=g.rank)) for e in g.edges),
        key=lambda e: (g.rank(e[0]), g.rank(e[1])),
    ):
        out.append(f"edg {u} {v}")
    for v in g.vertices:
        cs = inst.lists.get(v)
        if cs != _FULL:
            digits = "".join(str(c) for c in sorted(cs)) or "0"
            out.append(f"lst {v} {digits}")
    return "\n".join(out) + "\n"


def parse_nae(text: str) -> NaeInstance:
    num_vars = None
    clauses = []
    for lineno, parts in _lines(text):
        kind = parts[0]
        if kind == "nae":
            if num_vars is not None:
                raise InputError(f"line {lineno}: duplicate `nae` header")
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected `nae <num_vars>`")
            try:
                num_vars = int(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: bad variable count {parts[1]!r}") from None
        elif kind == "cls":
            if num_vars is None:
                raise InputError(f"line {lineno}: `cls` before `nae` header")
            if len(parts) != 4:
                raise InputError(f"line {lineno}: expected `cls <a> <b> <c>`")
            try:
                clause = tuple(int(x) for x in parts[1:])
            except ValueError:
                raise InputError(f"line {lineno}: bad clause {parts[1:]}") from None
            clauses.append(clause)
        else:
            raise InputError(f"line {lineno}: unknown record {kind!r}")
    if num_vars is None:
        raise InputError("missing `nae <num_vars>` header")
    return NaeInstance(num_vars, clauses)


def parse_provenance(text: str) -> tuple[dict, dict, dict]:
    """Parse a provenance sidecar into (roles, meta, registry). Meta lines
    carry the generator name, ordering, and advertised pattern list; `path
    <branch> <ids...>` lines carry an expander's path registry, keyed by
    (ends, branch) in file order."""
    roles: dict = {}
    meta: dict = {}
    registry: dict = {}
    for lineno, parts in _lines(text):
        kind = parts[0]
        if kind == "prov":
            if len(parts) != 3:
                raise InputError(f"line {lineno}: expected `prov <vertex-id> <role>`")
            if parts[1] in roles:
                raise InputError(f"line {lineno}: duplicate provenance for {parts[1]!r}")
            roles[parts[1]] = parts[2]
        elif kind == "meta":
            if len(parts) < 3:
                raise InputError(f"line {lineno}: expected `meta <key> <values...>`")
            if parts[1] in meta:
                raise InputError(f"line {lineno}: duplicate meta key {parts[1]!r}")
            meta[parts[1]] = tuple(parts[2:])
        elif kind == "path":
            if len(parts) < 4:
                raise InputError(f"line {lineno}: expected `path <branch> <id> <id> ...`")
            if parts[1] not in ("1", "2", "3"):
                raise InputError(f"line {lineno}: branch must be 1, 2 or 3, got {parts[1]!r}")
            key = ((parts[2], parts[-1]), int(parts[1]))
            if key in registry:
                raise InputError(f"line {lineno}: duplicate path for {key[0]!r} branch {key[1]}")
            registry[key] = tuple(parts[2:])
        else:
            raise InputError(f"line {lineno}: unknown record {kind!r}")
    return roles, meta, registry


def serialize_provenance(roles: dict, meta: dict, registry: Optional[dict] = None) -> str:
    out = []
    for key in sorted(meta):
        out.append(f"meta {key} " + " ".join(str(x) for x in meta[key]))
    for vid in sorted(roles, key=str):
        out.append(f"prov {vid} {roles[vid]}")
    for (_, branch), path in (registry or {}).items():
        out.append(f"path {branch} " + " ".join(map(str, path)))
    return "\n".join(out) + "\n"
