"""Command-line surface. One binary, subcommands, flags only.

Exit codes are a stable contract: 0 colorable/pass, 1 not-colorable/fail,
2 refusal (input not pattern-free), 3 input error, 4 internal error (a bug:
an uncaught exception or a failed invariant, never a verdict).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .core import Coloring, OrderedGraph, checked_witness, contains_pattern
from .errors import CapExceededError, InputError, PreconditionError, RefusalError
from .gadgets import GADGETS, GadgetOutput, verify_gadget
from .io import (
    parse_instance,
    parse_nae,
    parse_provenance,
    serialize_instance,
    serialize_provenance,
)
from .j16 import solve_j16
from .jw import solve_jw
from .kernels import solve_chordal, solve_two_lists
from .oracle import DEFAULT_CAP, solve_bruteforce
from .patterns import build_pattern, classify, parse_pattern_id
from . import rand

EXIT_YES = 0
EXIT_NO = 1
EXIT_REFUSED = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL_ERROR = 4

# commands whose stdout is data (an instance that `parse_instance` reads
# back); their report goes to stderr
_DATA_COMMANDS = frozenset({"random-instance"})


@dataclass
class RunReport:
    command: str
    verdict: str
    fields: list = field(default_factory=list)
    witness: Optional[Coloring] = None
    exit_code: int = EXIT_YES

    def add(self, key: str, value):
        self.fields.append((key, str(value)))

    def text(self) -> str:
        lines = [f"command {self.command}", f"verdict {self.verdict}"]
        for k, v in self.fields:
            lines.append(f"{k} {v}")
        if self.witness is not None:
            body = " ".join(
                f"{v}={c}" for v, c in sorted(self.witness.items(), key=lambda kv: str(kv[0]))
            )
            lines.append(f"witness {body}")
        return "\n".join(lines) + "\n"

    def json_dict(self) -> dict:
        out = {"command": self.command, "verdict": self.verdict}
        out.update({k: v for k, v in self.fields})
        if self.witness is not None:
            out["witness"] = {str(v): c for v, c in self.witness.items()}
        return out


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def cmd_solve(args) -> RunReport:
    report = RunReport("solve", "error")
    report.add("alg", args.alg)
    _, inst = parse_instance(_read(args.file))
    start = time.perf_counter()
    # every solver's witness is validated once against `inst`: the
    # polynomial solvers return theirs through `checked_witness`
    if args.alg == "oracle":
        witness = solve_bruteforce(inst, cap=args.cap)
        if witness is not None:
            witness = checked_witness(witness, inst)
    elif args.alg == "2sat":
        witness = solve_two_lists(inst)
    elif args.alg == "chordal":
        witness = solve_chordal(inst)
    elif args.alg == "jw":
        witness = solve_jw(inst, args.w)
        report.add("w", args.w)
    elif args.alg == "j16":
        witness = solve_j16(inst, args.k, args.l, reverse=args.reversed)
        report.add("k", args.k)
        report.add("l", args.l)
    else:
        raise InputError(f"unknown algorithm {args.alg!r}")
    report.add("time_ms", round(1000 * (time.perf_counter() - start), 2))
    if witness is None:
        report.verdict = "not-colorable"
        report.exit_code = EXIT_NO
    else:
        report.verdict = "colorable"
        report.witness = witness
        report.exit_code = EXIT_YES
    return report


def _load_pattern(ident: str) -> OrderedGraph:
    try:
        return build_pattern(parse_pattern_id(ident))
    except InputError:
        pass
    if Path(ident).exists():
        _, inst = parse_instance(_read(ident))
        return inst.graph
    raise InputError(f"{ident!r} is neither a pattern id nor a readable file")


def cmd_check_free(args) -> RunReport:
    report = RunReport("check-free", "error")
    report.add("pattern", args.pattern)
    pattern = _load_pattern(args.pattern)
    _, inst = parse_instance(_read(args.file))
    witness = contains_pattern(inst.graph, pattern)
    if witness is None:
        report.verdict = "free"
        report.exit_code = EXIT_YES
    else:
        report.verdict = "contains"
        report.add("embedding", " ".join(sorted(map(str, witness))))
        report.exit_code = EXIT_NO
    return report


def cmd_classify(args) -> RunReport:
    report = RunReport("classify", "classified")
    _, inst = parse_instance(_read(args.file))
    verdict = classify(inst.graph)
    report.add("status", verdict.status)
    report.add("justification", verdict.justification)
    report.exit_code = EXIT_YES
    return report


def _read_source(kind: str, path: str):
    """The source a gadget of this kind is built from (see `GADGETS`): an
    NAE instance, an instance's graph or the instance itself."""
    if kind == "nae":
        return parse_nae(_read(path))
    _, inst = parse_instance(_read(path))
    return inst.graph if kind == "graph" else inst


def cmd_gen(args) -> RunReport:
    report = RunReport("gen", "generated")
    gadget = GADGETS[args.gadget]
    order = args.order
    if order is None and len(gadget.layouts) == 1:
        order = gadget.layouts[0]
    if order not in gadget.layouts:
        raise InputError(
            f"gadget {args.gadget} supports orders {list(gadget.layouts)}, got {order!r}"
        )
    out = gadget.generate(_read_source(gadget.kind, args.input), order)
    prefix = args.out or f"{args.gadget}-out"
    og_path = Path(f"{prefix}.og")
    prov_path = Path(f"{prefix}.prov")
    og_path.write_text(serialize_instance(f"{args.gadget}-{order}", out.instance), encoding="utf-8")
    meta = {"gadget": (args.gadget,), "free": tuple(out.advertised_free), "order": (order,)}
    prov_path.write_text(
        serialize_provenance(out.provenance, meta, out.path_registry), encoding="utf-8"
    )
    report.add("gadget", args.gadget)
    report.add("order", order)
    report.add("vertices", out.instance.graph.n)
    report.add("edges", len(out.instance.graph.edges))
    report.add("graph_file", og_path)
    report.add("prov_file", prov_path)
    report.exit_code = EXIT_YES
    return report


def cmd_verify(args) -> RunReport:
    report = RunReport("verify", "error")
    _, inst = parse_instance(_read(args.file))
    roles, meta, registry = parse_provenance(_read(args.prov))
    gadget = GADGETS.get(meta.get("gadget", ("",))[0])
    if gadget is None:
        # without it no check would be chosen, and an empty report passes
        raise InputError(f"{args.prov} has no `meta gadget` line naming a gadget")
    if gadget.kind != "graph":
        registry = None
    elif not registry and inst.graph.edges:
        # every edge of an expander lies on a registered path
        raise InputError(f"{args.prov} has no `path` records; regenerate it with `oglc gen`")
    out = GadgetOutput(
        instance=inst,
        provenance=roles,
        advertised_free=tuple(meta.get("free", ())),
        path_registry=registry,
        source_kind=gadget.kind if args.source else "",
        source=_read_source(gadget.kind, args.source) if args.source else None,
    )
    result = verify_gadget(out, oracle_cap=args.cap)
    for name, ok, detail in result.entries:
        report.add(f"check:{name}", ("pass" if ok else "fail") + (f" {detail}" if detail else ""))
    report.verdict = "verified" if result.passed else "verify-failed"
    report.exit_code = EXIT_YES if result.passed else EXIT_NO
    return report


def cmd_random_instance(args) -> RunReport:
    if args.n < 0:
        raise InputError(f"--n must be nonnegative, got {args.n}")
    for flag, p in (("--edge-prob", args.edge_prob), ("--full-bias", args.full_bias)):
        if not 0 <= p <= 1:
            raise InputError(f"{flag} must lie in [0, 1], got {p}")
    report = RunReport("random-instance", "generated")
    rng = rand.make_rng(args.seed)
    if args.pattern:
        pattern = _load_pattern(args.pattern)
        inst = rand.random_pattern_free_instance(
            rng, pattern, args.n, args.edge_prob, args.full_bias
        )
    else:
        inst = rand.random_instance(rng, args.n, args.edge_prob, args.full_bias)
    sys.stdout.write(serialize_instance(f"random-{args.seed}", inst))
    report.add("n", inst.graph.n)
    report.add("edges", len(inst.graph.edges))
    return report


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an input error (exit 3) instead
    of argparse's exit 2, which the contract reserves for refusals."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once per process; `main` looks the handler up by subcommand
    name at call time, so replacing a `cmd_*` function still takes effect."""
    top = _Parser(
        prog="oglc",
        description="Decision procedures for list-3-coloring of ordered graphs.",
    )
    top.add_argument("--json", action="store_true", help="also print a JSON report")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="decide list-3-colorability of an instance file")
    p.add_argument("file")
    p.add_argument("--alg", required=True, choices=["oracle", "2sat", "chordal", "jw", "j16"])
    p.add_argument("--w", type=int, default=1)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--reversed", action="store_true", help="solve the mirrored pattern family")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="oracle size cap")

    p = sub.add_parser("check-free", help="test whether a file avoids a pattern")
    p.add_argument("pattern", help="pattern id (J9, M5, Jw:3, J16:2,1, neg:M5) or pattern file")
    p.add_argument("file")

    p = sub.add_parser("classify", help="complexity verdict for a forbidden pattern file")
    p.add_argument("file")

    nae = [name for name, gadget in GADGETS.items() if gadget.kind == "nae"]
    graph = [name for name in GADGETS if name not in nae]
    p = sub.add_parser("gen", help="generate a hardness gadget")
    p.add_argument("input", help=f"NAE file ({', '.join(nae)}) or graph file ({', '.join(graph)})")
    p.add_argument("--gadget", required=True, choices=list(GADGETS))
    layouts = dict.fromkeys(layout for gadget in GADGETS.values() for layout in gadget.layouts)
    p.add_argument("--order", choices=list(layouts))
    p.add_argument("--out", help="output path prefix")

    p = sub.add_parser("verify", help="re-check a generated gadget from its files")
    p.add_argument("file", help="ordered-graph file")
    p.add_argument("--prov", required=True, help="provenance sidecar")
    p.add_argument("--source", help="original NAE/graph file for equi-satisfiability")
    p.add_argument(
        "--cap",
        type=int,
        default=4000,
        help="oracle size cap in vertices, where the coloring oracle runs (graph and instance "
        "sources, gadgets whose mapped coloring fails or is missing); an NAE source "
        "itself is scanned only up to 24 variables, whatever the cap",
    )

    p = sub.add_parser("random-instance", help="emit a reproducible random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--edge-prob", type=float, default=0.5)
    p.add_argument("--full-bias", type=float, default=0.5)
    p.add_argument("--pattern", help="rejection-sample until free of this pattern id")

    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except InputError as exc:  # `--help` exits 0 inside argparse, as usual
        command = next((a for a in argv if not a.startswith("-")), "oglc")
        report = RunReport(command, "input-error", exit_code=EXIT_INPUT_ERROR)
        report.add("error", str(exc))
        return _emit(report, "--json" in argv, sys.stdout)
    try:
        report = globals()["cmd_" + args.cmd.replace("-", "_")](args)
    except RefusalError as exc:
        report = RunReport(args.cmd, "refused", exit_code=EXIT_REFUSED)
        report.add("pattern", exc.pattern)
        report.add("pattern-witness", " ".join(sorted(map(str, exc.witness))))
    except (InputError, PreconditionError, CapExceededError) as exc:
        report = RunReport(args.cmd, "input-error", exit_code=EXIT_INPUT_ERROR)
        report.add("error", str(exc))
    except Exception as exc:  # InternalError or any other bug: never a verdict
        traceback.print_exc()
        report = RunReport(args.cmd, "internal-error", exit_code=EXIT_INTERNAL_ERROR)
        report.add("error", f"{type(exc).__name__}: {exc}")
    return _emit(report, args.json, sys.stderr if args.cmd in _DATA_COMMANDS else sys.stdout)


def _emit(report: RunReport, as_json: bool, out) -> int:
    out.write(report.text())
    if as_json:
        out.write(json.dumps(report.json_dict(), sort_keys=True) + "\n")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
