"""Span tracing around the package's public functions, from outside it.

`Tracer.installed()` replaces every public module-level function of every
`ordered_coloring` module with a wrapper, in the defining module and in
every module that imported the name (so `ordered_coloring.j16.solve_chordal`
is wrapped as well as `ordered_coloring.kernels.solve_chordal`), and does
the same for the methods named in `METHODS`. Each wrapper records a span:
name, start, end, parent span, operation id. A generator function's call
only counts; each `next()` on it is its own span.

Spans stay in memory. Self time is a span's duration minus the time its
child spans cover; children run inside their parent on one thread, so
that is the sum of the children's durations.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array
from collections import Counter

PACKAGE = "ordered_coloring"

# Public methods traced besides the module-level functions.
METHODS = (("core", "OrderedGraph", "induced"),)

# Public functions left untraced: `as_position` runs once per vertex inside
# every `OrderedGraph` constructor, so a span there would time the tracer.
SKIP = frozenset({"core.as_position"})


class Tracer:
    def __init__(self):
        self.names: list = []  # span name id -> "layer.function"
        self.sites: list = []  # site id -> module whose binding was called
        self.name_id = array("i")
        self.site_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.calls: Counter = Counter()
        self.yielded: Counter = Counter()
        self.counts: Counter = Counter()  # counters kept by PROBES
        self.op = -1
        self._stack: list = []

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        targets = {}
        for mod in _package_modules():
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in SKIP
                ):
                    targets[obj] = name
        undo = []
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
            original = vars(cls)[meth]
            setattr(cls, meth, self._wrap(original, f"{layer}.{cls_name}.{meth}", layer))
            undo.append((cls, meth, original))
        for mod in _package_modules():
            site = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                name = targets.get(obj) if inspect.isfunction(obj) else None
                if name is not None:
                    setattr(mod, attr, self._wrap(obj, name, site))
                    undo.append((mod, attr, obj))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _wrap(self, fn, name: str, site: str):
        nid = _intern(self.names, name)
        sid = _intern(self.sites, site)
        calls = self.calls
        stack = self._stack
        clock = time.perf_counter
        probe = PROBES.get(name)

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                return self._iterate(fn(*args, **kwargs), name, nid, sid)

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = self._open(nid, sid)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.end[idx] = clock()
            if probe is not None:
                probe(self.counts, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self, nid: int, sid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.site_id.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _iterate(self, it, name: str, nid: int, sid: int):
        stack = self._stack
        try:
            while True:
                idx = self._open(nid, sid)
                stack.append(idx)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    self.end[idx] = time.perf_counter()
                self.yielded[name] += 1
                yield value
        finally:
            it.close()

    # -- analysis ----------------------------------------------------------

    def self_seconds(self) -> Counter:
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: Counter = Counter()
        for i in range(n):
            out[self.names[self.name_id[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    def names_per_op(self) -> dict:
        """op id -> set of (span name, site) seen during that op."""
        out: dict = {}
        for i in range(len(self.start)):
            key = (self.names[self.name_id[i]], self.sites[self.site_id[i]])
            out.setdefault(self.op_id[i], set()).add(key)
        return out

    def write(self, path) -> None:
        """All spans as JSON lines: name, site, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        [
                            self.names[self.name_id[i]],
                            self.sites[self.site_id[i]],
                            round(self.start[i], 7),
                            round(self.end[i], 7),
                            self.parent[i],
                            self.op_id[i],
                        ]
                    )
                )
                fh.write("\n")


def _intern(table: list, key: str) -> int:
    if key not in table:
        table.append(key)
    return table.index(key)


def _package_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


def _profile_probe(counts: Counter, profile) -> None:
    members = list(profile)
    counts["jw.profile.members"] += len(members)
    counts["jw.profile.viable"] += sum(
        1 for m in members if all(cs for _, cs in m.sub.lists.items())
    )


def _pattern_probe(counts: Counter, witness) -> None:
    counts["core.contains_pattern.found"] += witness is not None


# Result inspectors for the counts a span cannot give.
PROBES = {
    "jw.build_sigma_profile": _profile_probe,
    "core.contains_pattern": _pattern_probe,
}
