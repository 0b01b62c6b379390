"""Benchmark for the ordered-coloring solvers.

    python3 bench/run.py --workload {guess,chordal,gadget} --seed N \
        --seconds S --trace {0,1}

One process, one caller: each operation starts when the previous one has
returned (closed loop, no threads). The corpus is built from the seed, set
up three times to time set-up, then cycled until `--seconds` have passed.
Every output is checked by `checks.py`; failures count in `fail_ratio`.
Times are wall times scaled to a reference machine speed by calibration
chunks run between operations (`speed.py`).

With `--trace 0` the last stdout line holds the end-to-end metrics. With
`--trace 1` the run spends half its time untraced, then replays the same
operations under `tracer.Tracer` and reports the per-layer metrics. The
spans go to `bench/out/`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import types
from pathlib import Path

import checks
import corpus
import speed
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3

END_TO_END = (
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("core.contains_pattern.calls", "count"),
    ("core.contains_pattern.self_s", "s"),
    ("core.contains_pattern.found_ratio", "ratio"),
    ("core.OrderedGraph.induced.calls", "count"),
    ("core.OrderedGraph.induced.self_s", "s"),
    ("jw.build_sigma_profile.self_s", "s"),
    ("jw.alpha_tuples.yielded", "count"),
    ("jw.list_for_alpha.self_s", "s"),
    ("jw.profile.members", "count"),
    ("jw.profile.viable_ratio", "ratio"),
    ("jw.success_table.calls", "count"),
    ("jw.success_table.self_s", "s"),
    ("jw.gamma.yielded", "count"),
    ("jw.check_link.calls", "count"),
    ("jw.check_link.self_s", "s"),
    ("j16.q_tuples.yielded", "count"),
    ("j16.q_tuples.self_s", "s"),
    ("j16.pad_sets.calls", "count"),
    ("kernels.propagate_singletons.calls", "count"),
    ("kernels.propagate_singletons.self_s", "s"),
    ("kernels.drop_singletons.calls", "count"),
    ("kernels.drop_singletons.self_s", "s"),
    ("kernels.solve_two_lists.calls", "count"),
    ("kernels.solve_two_lists.self_s", "s"),
    ("kernels.chordal_peo.calls", "count"),
    ("kernels.chordal_peo.self_s", "s"),
    ("kernels.solve_chordal.calls", "count"),
    ("kernels.solve_chordal.self_s", "s"),
    ("kernels.solve_small_class.self_s", "s"),
    ("kernels.solve_few_wide.calls", "count"),
    ("kernels.has_k4.self_s", "s"),
    ("oracle.solve_bruteforce.calls", "count"),
    ("oracle.solve_bruteforce.self_s", "s"),
    ("oracle.enumerate_colorings.yielded", "count"),
    ("oracle.enumerate_colorings.self_s", "s"),
    ("oracle.nae_bruteforce.self_s", "s"),
    ("oracle.ref_p50_ms", "ms"),
    ("oracle.solver_over_ref_p50", "ratio"),
    ("gadgets.gen.self_s", "s"),
    ("gadgets.verify_gadget.self_s", "s"),
    ("gadgets.validate_registry.self_s", "s"),
    ("io.parse_instance.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("stage.jw.linked_ratio", "ratio"),
    ("stage.j16.padding_ratio", "ratio"),
    ("stage.j16.finalize_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("speed.chunk_ms", "ms"),
)


def load_package():
    """The package from this checkout's `src/`, as a namespace of modules;
    never a copy installed elsewhere."""
    if not (ROOT / "src" / "ordered_coloring" / "__init__.py").is_file():
        raise ImportError("no ordered_coloring package under src/")
    sys.path.insert(0, str(ROOT / "src"))
    names = ("core", "errors", "oracle", "jw", "j16", "gadgets", "cli", "rand")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"ordered_coloring.{name}") for name in names}
    )


# -- operations ----------------------------------------------------------------


def prepare(op, pkg):
    """What the package is handed. `guess` instances are rebuilt for every
    operation so that no lazily cached graph data carries over between
    passes over the corpus."""
    if op.kind in ("jw", "j16"):
        return corpus.to_instance(op.spec, pkg)
    return op.subject


def run_op(op, subject, pkg) -> bool:
    """Run one operation and check its output; True when it is correct."""
    if op.kind in ("jw", "j16"):
        try:
            if op.kind == "jw":
                result = pkg.jw.solve_jw(subject, op.params["w"])
            else:
                p = op.params
                result = pkg.j16.solve_j16(subject, p["k"], p["l"], reverse=p["reverse"])
        except pkg.errors.RefusalError as exc:
            return op.expect == "refuse" and refusal_ok(op, exc)
        if op.expect == "yes":
            return result is not None and checks.valid_coloring(op.spec, dict(result.items()))
        return op.expect == "no" and result is None

    if op.kind == "cli":
        argv = ["--json", "solve", subject, "--alg", "j16", "--k", "0", "--l", "0"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pkg.cli.main(argv)
        report = json.loads(buf.getvalue().splitlines()[-1])
        if op.expect == "no":
            return code == 1 and report.get("verdict") == "not-colorable"
        return (
            code == 0
            and report.get("verdict") == "colorable"
            and checks.valid_coloring(op.spec, report.get("witness", {}))
        )

    if op.kind == "h2":
        out = pkg.gadgets.gen_h2(subject)
    else:
        out = pkg.gadgets.gen_h1(subject, op.kind)
    report = pkg.gadgets.verify_gadget(out)
    colorable = op.expect == "yes"
    expected = f"gadget={colorable} source={colorable}"
    return report.passed and ("equi-satisfiability", True, expected) in report.entries


def refusal_ok(op, exc) -> bool:
    """The refusal names the forbidden pattern and its witness induces an
    order-isomorphic copy of it in the instance the solver was handed."""
    p = op.params
    if op.kind == "jw":
        ident, pattern = f"Jw:{p['w']}", checks.pattern_jw(p["w"])
    else:
        ident, pattern = f"J16:{p['k']},{p['l']}", checks.pattern_j16(p["k"], p["l"])
        if p["reverse"]:
            pattern = checks.reversed_pattern(pattern)
    ranks = checks.witness_ranks(op.spec, exc.witness)
    return (
        exc.pattern == ident
        and ranks is not None
        and checks.induces_pattern(op.spec, ranks, pattern)
    )


def timed_loop(ops, pkg, failures: list, seconds=None, count=None, tracer=None):
    """Closed loop over `ops` (cycling) until `seconds` pass or `count` ops
    ran, with calibration chunks in between (`speed.Calibration`). Returns
    per-op latencies and per-op cycle times (instance preparation plus
    operation), both in seconds scaled to the reference machine, the
    failure count and the raw chunk times; the first few failures are
    described in `failures`."""
    raw_lat, raw_cycle = [], []
    calibration = speed.Calibration()
    failed = 0
    clock = time.perf_counter
    deadline = clock() + seconds if seconds is not None else None
    i = 0
    while True:
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op = i
        tp = clock()
        subject = prepare(op, pkg)
        t0 = clock()
        try:
            ok = run_op(op, subject, pkg)
        except Exception:  # an unexpected exception is a failed operation
            ok = False
            if len(failures) < 5:
                failures.append(traceback.format_exc())
        t1 = clock()
        raw_lat.append(t1 - t0)
        raw_cycle.append(t1 - tp)
        if not ok:
            failed += 1
            if len(failures) < 5:
                failures.append(f"op {i}: {op.kind} expect={op.expect} {op.params}")
        calibration.after(i, t1 - tp)
        i += 1
        if (deadline is not None and t1 >= deadline) or (count is not None and i >= count):
            scale = calibration.scales(i)
            return (
                [t * f for t, f in zip(raw_lat, scale)],
                [t * f for t, f in zip(raw_cycle, scale)],
                failed,
                calibration.seconds,
            )


# -- set-up --------------------------------------------------------------------


def build(workload: str, seed: int, pkg, workdir: Path, tick):
    if workload == "guess":
        return corpus.build_guess(seed, pkg, tick)
    if workload == "chordal":
        return corpus.build_chordal(seed, workdir, tick)
    return corpus.build_gadget(seed, pkg, tick)


def setup(workload: str, seed: int, pkg, workdir: Path):
    """Build the corpus SETUP_REPEATS times; the median build time, scaled
    to the reference machine, is the set-up time. The same seed gives the
    same corpus every time."""
    times = []
    for _ in range(SETUP_REPEATS):
        built = None  # one corpus alive at a time, so peak_rss_mb holds one
        watch = speed.Stopwatch()
        built = build(workload, seed, pkg, workdir, watch.tick)
        times.append(watch.scaled())
    return built, statistics.median(times)


# -- metrics -------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def end_to_end(latencies, cycles, setup_s) -> dict:
    return {
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * percentile(latencies, 0.9),
        "ops_per_s": len(cycles) / sum(cycles),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, ops, n_ops, ref_ms, untraced_s, traced_s, solver_p50_ms, chunks) -> dict:
    self_s = tracer.self_seconds()
    calls, yielded, counts = tracer.calls, tracer.yielded, tracer.counts
    out = {}
    for name, _ in PER_LAYER:
        layer, _, metric = name.rpartition(".")
        if metric == "calls":
            out[name] = calls[layer]
        elif metric == "yielded":
            out[name] = yielded[layer]
        elif metric == "self_s":
            out[name] = self_s[layer]
    out["gadgets.gen.self_s"] = self_s["gadgets.gen_h1"] + self_s["gadgets.gen_h2"]
    out["core.contains_pattern.found_ratio"] = ratio(
        counts["core.contains_pattern.found"], calls["core.contains_pattern"]
    )
    out["jw.profile.members"] = counts["jw.profile.members"]
    out["jw.profile.viable_ratio"] = ratio(
        counts["jw.profile.viable"], yielded["jw.alpha_tuples"]
    )
    ref_p50 = statistics.median(ref_ms) if ref_ms else 0.0
    out["oracle.ref_p50_ms"] = ref_p50
    out["oracle.solver_over_ref_p50"] = ratio(solver_p50_ms, ref_p50)

    seen = tracer.names_per_op()
    free = [i for i in range(n_ops) if ops[i % len(ops)].expect != "refuse"]
    jw_ops = [i for i in free if ops[i % len(ops)].kind == "jw"]
    j16_ops = [i for i in free if ops[i % len(ops)].kind in ("j16", "cli")]

    def called(i, name, site=None):
        return any(n == name and site in (None, s) for n, s in seen.get(i, ()))

    out["stage.jw.linked_ratio"] = ratio(
        sum(called(i, "jw.check_link") for i in jw_ops), len(jw_ops)
    )
    out["stage.j16.padding_ratio"] = ratio(
        sum(called(i, "j16.pad_sets") for i in j16_ops), len(j16_ops)
    )
    out["stage.j16.finalize_ratio"] = ratio(
        sum(
            called(i, "oracle.enumerate_colorings", "j16") and not called(i, "j16.pad_sets")
            for i in j16_ops
        ),
        len(j16_ops),
    )
    out["trace.overhead_ratio"] = ratio(traced_s, untraced_s)
    out["speed.chunk_ms"] = 1000 * statistics.median(chunks)
    return out


def ratio(a, b) -> float:
    return a / b if b else 0.0


def report(metrics: dict, units, attempted: int, failed: int, note: str) -> None:
    """Human-readable lines, then the result as one JSON line. The failure
    ratio is stated here and carried by `failed` / `attempted`; it is not a
    metric because it is 0 whenever the package is correct."""
    print(note)
    print(f"{'fail_ratio':40s} {failed / attempted:>16.6g} ratio ({failed} of {attempted} failed)")
    for name, unit in units:
        print(f"{name:40s} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("guess", "chordal", "gadget"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pkg = load_package()
    except ImportError as exc:
        print(f"cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        built, setup_s = setup(args.workload, args.seed, pkg, workdir)
        ops = built.ops
        # the collector need not walk the corpus again: it is the
        # benchmark's, not the program's
        gc.collect()
        gc.freeze()
        failures: list = []
        if not args.trace:
            lat, cycles, failed, chunks = timed_loop(ops, pkg, failures, seconds=args.seconds)
            metrics = end_to_end(lat, cycles, setup_s)
            attempted = len(lat)
            note = (
                f"{args.workload} seed={args.seed}: {attempted} operations (samples), untraced; "
                f"calibration chunk median {1000 * statistics.median(chunks):.3f} ms "
                f"(reference {1000 * speed.REF_S:g} ms)"
            )
            units = END_TO_END
        else:
            lat, cycles, failed, chunks = timed_loop(
                ops, pkg, failures, seconds=args.seconds / 2
            )
            n_ops = len(lat)
            tracer = tracing.Tracer()
            with tracer.installed():
                t_lat, t_cycles, t_failed, t_chunks = timed_loop(
                    ops, pkg, failures, count=n_ops, tracer=tracer
                )
            metrics = per_layer(
                tracer,
                ops,
                n_ops,
                # timed at set-up; scaled like the solvers' times
                [t * speed.REF_S / statistics.median(chunks) for t in built.ref_ms],
                sum(cycles),
                sum(t_cycles),
                1000 * statistics.median(lat),
                chunks + t_chunks,
            )
            attempted = n_ops + len(t_lat)
            failed += t_failed
            spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write(spans)
            note = (
                f"{args.workload} seed={args.seed}: {n_ops} operations untraced, the same "
                f"{len(t_lat)} traced; {len(tracer.start)} spans in {spans.relative_to(ROOT)}"
            )
            units = PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for text in failures:
        print(text, file=sys.stderr)
    report(metrics, units, attempted, failed, note)
    return 0


if __name__ == "__main__":
    sys.exit(main())
