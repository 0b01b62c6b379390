"""One-shot size ladder: regenerates the ROADMAP Baseline rows under the
benchmark's tracer, each row stopped after CAP_S = 60 seconds.

    python3 bench/ladder.py

Rows: `solve_jw(w=1)` on band graphs n=10..18, `solve_j16(k=l=1)` at n=20,
and `verify_gadget(gen_h1(..., "t1"))` at v=10 and v=12. Instances are
built as the Baseline describes them, with the package's own `rand`
module. Each row prints its traced wall time, the oracle's time on the
same instance and the largest self times; everything also goes to
`bench/out/ladder.json`. Not part of the repeated benchmark runs and not
gated.
"""

from __future__ import annotations

import json
import signal
import sys
import time

import checks
import run
import tracer as tracing

CAP_S = 60.0


class CapReached(Exception):
    pass


def _alarm(signum, frame):
    raise CapReached


def jw_band(pkg, n: int):
    """Edges i<j<=i+2 with p=0.6, rejection-sampled free of Jw:1 from
    make_rng(n), lists random_lists(rng, g, 0.6)."""
    rng = pkg.rand.make_rng(n)
    band = [(i, j) for i in range(n) for j in range(i + 1, min(n, i + 3))]
    ids = tuple(f"v{i + 1}" for i in range(n))
    while True:
        edges = [e for e in band if rng.random() < 0.6]
        spec = checks.Spec(ids, tuple(range(1, n + 1)), frozenset(edges), ())
        if not checks.contains(spec, checks.pattern_jw(1)):
            break
    g = pkg.core.OrderedGraph(zip(ids, spec.positions), [(ids[a], ids[b]) for a, b in edges])
    return pkg.core.Instance(g, pkg.rand.random_lists(rng, g, 0.6))


def rows(pkg):
    """(label, call, oracle call) per Baseline row."""
    for n in range(10, 19, 2):
        inst = jw_band(pkg, n)
        yield (
            f"solve_jw w=1 band n={n}",
            lambda inst=inst: pkg.jw.solve_jw(inst, 1),
            lambda inst=inst: pkg.oracle.solve_bruteforce(inst),
        )
    rng = pkg.rand.make_rng(20)
    g = pkg.rand.random_forward_clique_graph(rng, 20)
    inst = pkg.core.Instance(g, pkg.rand.random_lists(rng, g, 0.7))
    yield (
        "solve_j16 k=l=1 forward-clique n=20",
        lambda: pkg.j16.solve_j16(inst, 1, 1),
        lambda: pkg.oracle.solve_bruteforce(inst),
    )
    for v, clauses in ((10, 16), (12, 20)):
        nae = pkg.rand.random_nae(pkg.rand.make_rng(v), v, clauses)
        yield (
            f"verify_gadget h1 t1 v={v} c={clauses}",
            lambda nae=nae: pkg.gadgets.verify_gadget(pkg.gadgets.gen_h1(nae, "t1")),
            lambda nae=nae: pkg.oracle.nae_bruteforce(nae),
        )


def measure(call):
    """Wall seconds of `call`, or None when the cap stopped it."""
    signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, CAP_S)
    try:
        call()
    except CapReached:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start


def main() -> int:
    pkg = run.load_package()
    results = []
    for label, call, oracle in rows(pkg):
        oracle_s = measure(oracle)
        tracer = tracing.Tracer()
        with tracer.installed():
            wall = measure(call)
        top = tracer.self_seconds().most_common(5)
        row = {
            "row": label,
            "wall_s": wall,
            "capped": wall is None,
            "oracle_s": oracle_s,
            "spans": len(tracer.start),
            "top_self_s": dict(top),
            "calls": dict(tracer.calls),
            "yielded": dict(tracer.yielded),
        }
        results.append(row)
        shown = f"> {CAP_S:.0f} (cap)" if wall is None else f"{wall:.3f}"
        oracle_shown = "capped" if oracle_s is None else f"{1000 * oracle_s:.2f} ms"
        print(f"{label:40s} wall_s {shown:>14s}  oracle {oracle_shown}", flush=True)
        for name, secs in top:
            print(f"    {name:44s} self {secs:9.3f} s")
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "ladder.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
