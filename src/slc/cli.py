"""Command-line front end: the full generate-then-explore pipeline.

Usage:
    slc --spec bst.sl --program bst.ir --entry remove \\
        --unfold-depth 2 --out out/

The pipeline parses the specification and the program, generates inputs
from the entry procedure's precondition by bounded unfolding, then runs
concolic exploration until the constraint tree has no unexplored nodes or
a budget expires. ``--spec-only`` stops after the generation phase (the
seeds are still executed once, to measure their coverage).

Outputs in the --out directory, all written atomically and byte-stable
across reruns of the same inputs:

    suite.json      every emitted test: allocations, field wiring, entry
                    bindings, provenance, and a builder script
    coverage.json   branch table, totals, run outcomes, solver statistics
    coverage.txt    the same as a text table
    tree.dot        the constraint tree in graphviz dot form

A file ``<program>.annotations.json`` next to the program, when present,
marks branches known infeasible (maintained by hand per benchmark); the
report excludes them from the feasible-coverage percentage. It is checked
before generation: each entry is ``[proc, pc, "then"|"else"]`` and names a
conditional that the entry procedure reaches. Wall-clock
times are printed to stdout only, never into artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Collection

from . import concolic as C
from . import formulas as F
from . import ir
from . import solver as S
from . import testgen as T
from .lexer import ParseError
from .value import Value

# =====================================================================
# Bundled benchmark corpus
# =====================================================================


class Benchmark(Value):
    __slots__ = ("name", "spec", "program", "entry", "unfold_depth", "solver_depth",
                 "max_nodes")

    def __init__(self, name: str, spec: str, program: str, entry: str,
                 unfold_depth: int, solver_depth: int = 6, max_nodes: int = 150):
        super().__init__(name, spec, program, entry, unfold_depth, solver_depth, max_nodes)


CORPUS_DIR = Path(__file__).parent / "corpus"

# The gated corpus, each subject at its gated settings.
BENCHMARKS = {
    "sll": Benchmark("sll", "sll.sl", "sll.ir", "contains", 2),
    "dll": Benchmark("dll", "dll.sl", "dll.ir", "removeFirst", 2),
    "stack": Benchmark("stack", "stack.sl", "stack.ir", "pop", 2),
    "bst": Benchmark("bst", "bst.sl", "bst.ir", "remove", 2,
                     solver_depth=12, max_nodes=500),
    "tll": Benchmark("tll", "tll.sl", "tll.ir", "leafcount", 2,
                     solver_depth=10),
    "sortedlist": Benchmark("sortedlist", "sortedlist.sl", "sortedlist.ir",
                            "sumbig", 9),
}


def corpus_path(filename: str) -> Path:
    return CORPUS_DIR / filename


# =====================================================================
# Coverage
# =====================================================================


class CoverageReport:
    def __init__(self, entry: str, branches: dict[tuple[str, int, str], bool],
                 infeasible: set[tuple[str, int, str]], valid_tests: int,
                 total_tests: int, spec_solver_calls: int, concolic_solver_calls: int,
                 unresolved_nodes: int, pruned_nodes: int, runs: list[tuple[str, str]],
                 solver_rounds: int = 0, solver_pure_nodes: int = 0,
                 unknown_skipped: int = 0):
        self.entry, self.infeasible = entry, infeasible
        self.branches = branches  # (proc, pc, side) -> covered
        self.runs = runs  # (test provenance, outcome)
        self.valid_tests, self.total_tests = valid_tests, total_tests
        self.spec_solver_calls = spec_solver_calls
        self.concolic_solver_calls = concolic_solver_calls
        self.unresolved_nodes, self.pruned_nodes = unresolved_nodes, pruned_nodes
        self.solver_rounds, self.solver_pure_nodes = solver_rounds, solver_pure_nodes
        self.unknown_skipped = unknown_skipped
        self.wall: dict[str, float] = {}

    @property
    def total_branches(self) -> int:
        return len(self.branches)

    @property
    def covered_branches(self) -> int:
        return sum(1 for v in self.branches.values() if v)

    def feasible(self) -> list[tuple[str, int, str]]:
        return [b for b in self.branches if b not in self.infeasible]

    @property
    def feasible_covered(self) -> int:
        return sum(1 for b in self.feasible() if self.branches[b])

    @property
    def feasible_percent(self) -> float:
        feasible = self.feasible()
        if not feasible:
            return 100.0
        return 100.0 * self.feasible_covered / len(feasible)


def measure_coverage(tree: C.ConstraintTree, log, *,
                     annotations: set[tuple[str, int, str]] | None = None,
                     valid_tests: int = 0, total_tests: int = 0,
                     spec_calls: int = 0, concolic_calls: int = 0,
                     unresolved: int = 0, pruned: int = 0,
                     solver_rounds: int = 0, solver_pure_nodes: int = 0,
                     unknown_skipped: int = 0) -> CoverageReport:
    """A branch is covered iff the tree holds an explored child for it."""
    program = tree.program
    branches: dict[tuple[str, int, str], bool] = {}
    for pname, i in ir.source_conditionals(program.source, program.procs):
        branches[(pname, i, "then")] = False
        branches[(pname, i, "else")] = False
    for node in tree.nodes:
        if node.branch and node.flag and node.branch in branches:
            branches[node.branch] = True
    return CoverageReport(
        entry=program.entry,
        branches=branches,
        infeasible=set(annotations or ()),
        valid_tests=valid_tests,
        total_tests=total_tests,
        spec_solver_calls=spec_calls,
        concolic_solver_calls=concolic_calls,
        unresolved_nodes=unresolved,
        pruned_nodes=pruned,
        solver_rounds=solver_rounds,
        solver_pure_nodes=solver_pure_nodes,
        unknown_skipped=unknown_skipped,
        runs=[(prov, str(outcome)) for prov, outcome in log],
    )


def load_annotations(program_path: Path, entry: str,
                     procs: Collection[str]) -> set[tuple[str, int, str]]:
    """The branches that ``<program>.annotations.json`` marks infeasible
    for ``entry``, each ``[proc, pc, "then"|"else"]``. Raises ProgramError
    when the file is malformed or a top-level key is not one of ``procs``,
    the program's procedures."""
    ann_path = program_path.with_suffix(".annotations.json")
    if not ann_path.exists():
        return set()
    try:
        data = json.loads(ann_path.read_text())
    except ValueError as err:
        raise ir.ProgramError(f"{ann_path.name}: {err}") from None
    section = data.get(entry, {}) if isinstance(data, dict) else None
    marks = section.get("infeasible", []) if isinstance(section, dict) else None
    if not isinstance(marks, list):
        raise ir.ProgramError(f"{ann_path.name}: {entry!r} needs a list \"infeasible\"")
    for key in data:
        if key not in procs:
            raise ir.ProgramError(f"{ann_path.name}: {key!r} names no procedure of the program")
    for mark in marks:
        if not (isinstance(mark, list) and len(mark) == 3 and isinstance(mark[0], str)
                and type(mark[1]) is int and mark[2] in ("then", "else")):
            raise ir.ProgramError(f"{ann_path.name}: entry {json.dumps(mark)} is not "
                                  f"[proc, pc, \"then\"|\"else\"]")
    return {tuple(mark) for mark in marks}


def render_coverage_text(report: CoverageReport) -> str:
    lines = [f"entry: {report.entry}"]
    per_proc: dict[str, list[tuple[int, str]]] = {}
    for (proc, pc, side) in report.branches:
        per_proc.setdefault(proc, [])
    for proc in per_proc:
        pcs = sorted({pc for (p, pc, _) in report.branches if p == proc})
        lines.append(f"proc {proc}")
        for pc in pcs:
            cells = []
            for side in ("then", "else"):
                key = (proc, pc, side)
                status = "covered" if report.branches[key] else "uncovered"
                if key in report.infeasible:
                    status += " (infeasible)"
                cells.append(f"{side}: {status}")
            lines.append(f"  pc {pc:3}  " + "   ".join(cells))
    feasible = report.feasible()
    lines.append(
        f"branches: {report.covered_branches}/{report.total_branches} covered; "
        f"{report.feasible_covered}/{len(feasible)} feasible "
        f"({report.feasible_percent:.1f}%); "
        f"{len(report.infeasible)} annotated infeasible")
    lines.append(f"tests: {report.total_tests} emitted, {report.valid_tests} valid")
    lines.append(f"solver calls: {report.spec_solver_calls} spec-phase, "
                 f"{report.concolic_solver_calls} concolic-phase "
                 f"({report.solver_rounds} unfold rounds, "
                 f"{report.solver_pure_nodes} pure-solver nodes, "
                 f"{report.unknown_skipped} unknown skipped)")
    lines.append(f"nodes: {report.unresolved_nodes} unresolved, "
                 f"{report.pruned_nodes} pruned")
    for prov, outcome in report.runs:
        lines.append(f"run: {prov}: {outcome}")
    return "\n".join(lines) + "\n"


def coverage_json_payload(report: CoverageReport) -> dict:
    return {
        "entry": report.entry,
        "branches": [
            {"proc": proc, "pc": pc, "side": side,
             "covered": covered,
             "infeasible": (proc, pc, side) in report.infeasible}
            for (proc, pc, side), covered in report.branches.items()
        ],
        "totals": {
            "branches": report.total_branches,
            "covered": report.covered_branches,
            "feasible": len(report.feasible()),
            "feasible_covered": report.feasible_covered,
            "feasible_percent": round(report.feasible_percent, 2),
        },
        "tests": {"emitted": report.total_tests, "valid": report.valid_tests},
        "solver_calls": {"spec": report.spec_solver_calls,
                         "concolic": report.concolic_solver_calls,
                         "unfold_rounds": report.solver_rounds,
                         "pure_solver_nodes": report.solver_pure_nodes,
                         "unknown_skipped": report.unknown_skipped},
        "nodes": {"unresolved": report.unresolved_nodes,
                  "pruned": report.pruned_nodes},
        "runs": [{"test": prov, "outcome": outcome} for prov, outcome in report.runs],
    }


# =====================================================================
# Suite serialization
# =====================================================================


def _value_json(value, names: dict):
    if isinstance(value, T.Addr):
        return {"ref": names[value]}
    return value


def test_json(test: T.TestInput, index: int) -> dict:
    names = {addr: f"o{i + 1}" for i, addr in enumerate(test.objects)}
    objects = []
    script: list = []
    for addr, obj in test.objects.items():
        script.append(["new", names[addr], obj.type_name])
    for addr, obj in test.objects.items():
        fields = {}
        for fname, value in obj.fields.items():
            fields[fname] = _value_json(value, names)
            script.append(["set", names[addr], fname, _value_json(value, names)])
        objects.append({"id": names[addr], "type": obj.type_name, "fields": fields})
    bindings = {k: _value_json(v, names) for k, v in test.bindings.items()}
    script.append(["call", bindings])
    return {
        "name": f"t{index}",
        "provenance": test.provenance,
        "objects": objects,
        "bindings": bindings,
        "script": script,
    }


def suite_json_payload(tests, spec_path: str, program_path: str, entry: str) -> dict:
    return {
        "version": 1,
        "spec": os.path.basename(spec_path),
        "program": os.path.basename(program_path),
        "entry": entry,
        "tests": [test_json(t, i) for i, t in enumerate(tests)],
    }


def json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for payloads of dicts with string
    keys, lists, tuples, strings, numbers, booleans and None, without the
    pure-Python encoder that ``indent`` selects."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:  # the artifacts' commonest value after strings
        return "null"
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{inner}{encode_basestring_ascii(key)}: {json_text(item, inner)}"
                 for key, item in value.items()]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + json_text(item, inner) for item in value]
        return "[" + ",".join(items) + indent + "]" if items else "[]"
    return json.dumps(value)  # a number or a bool; TypeError for anything else


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


# =====================================================================
# Pipeline
# =====================================================================


class PipelineResult:
    def __init__(self, tests: list, report: CoverageReport, tree: C.ConstraintTree,
                 stopped_by: str | None):
        self.tests, self.report, self.tree = tests, report, tree
        self.stopped_by = stopped_by  # the budget that cut exploration short

    @property
    def exit_code(self) -> int:
        return 2 if self.stopped_by else 0


def run_pipeline(spec_path: Path, program_path: Path, entry: str, *,
                 unfold_depth: int = 1, spec_only: bool = False,
                 timeout: float | None = None, solver_depth: int = 6,
                 int_domain: tuple[int, int] = (-64, 63),
                 max_nodes: int = 10_000, seed_defaults: bool = False,
                 out_dir: Path | None = None) -> PipelineResult:
    """The whole pipeline as a library call; the CLI is a thin wrapper."""
    F.reset_names()
    wall: dict[str, float] = {}
    t0 = time.monotonic()
    spec = F.parse_spec(spec_path.read_text())
    program = ir.parse_program(program_path.read_text(), datas=spec.datas)
    if entry not in program.procs:
        raise ir.ProgramError(f"entry procedure {entry!r} not in program")
    if entry not in spec.preconditions:
        raise ir.ProgramError(f"no precondition for entry {entry!r} in spec")
    elab = ir.elaborate(program, entry)
    annotations = load_annotations(program_path, entry, program.procs)
    conditionals = set(ir.source_conditionals(program, elab.procs))
    for proc, pc, side in sorted(annotations):
        if (proc, pc) not in conditionals:
            raise ir.ProgramError(f"annotation {json.dumps([proc, pc, side])} names no "
                                  f"conditional that {entry} reaches")
    pre = spec.preconditions[entry]
    wall["parse"] = time.monotonic() - t0

    budget = S.Budget(max_depth=solver_depth, int_min=int_domain[0],
                      int_max=int_domain[1])
    t0 = time.monotonic()
    gen_stats = T.GenStats()
    seeds = T.gen_from_spec(list(pre.disjuncts), unfold_depth, spec, elab.params,
                            budget, gen_stats)
    wall["generate"] = time.monotonic() - t0
    if seed_defaults:
        bindings = {name: T.default_value(ptype) for name, ptype in elab.params}
        seeds = seeds + [T.TestInput({}, bindings, provenance="default-seed")]
    if not seeds:
        raise ir.ProgramError("phase one produced no test inputs and "
                              "--seed-defaults was not given")

    t0 = time.monotonic()
    result = C.explore(elab, pre, seeds, spec, budget=budget,
                       max_nodes=max_nodes, spec_only=spec_only,
                       time_limit=timeout)
    wall["explore"] = time.monotonic() - t0

    tests = seeds + result.tests
    valid = sum(1 for t in tests if T.input_satisfies(t, pre, spec))
    report = measure_coverage(
        result.tree, result.log, annotations=annotations,
        valid_tests=valid, total_tests=len(tests),
        spec_calls=gen_stats.solver_calls,
        concolic_calls=result.stats.solver_calls,
        unresolved=result.stats.unresolved, pruned=result.stats.pruned,
        solver_rounds=gen_stats.unfold_rounds + result.stats.unfold_rounds,
        solver_pure_nodes=gen_stats.pure_nodes + result.stats.pure_nodes,
        unknown_skipped=gen_stats.unknown_skipped)
    report.wall = wall

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        suite = suite_json_payload(tests, str(spec_path), str(program_path), entry)
        _write_atomic(out_dir / "suite.json", json_text(suite) + "\n")
        _write_atomic(out_dir / "coverage.json", json_text(coverage_json_payload(report)) + "\n")
        _write_atomic(out_dir / "coverage.txt", render_coverage_text(report))
        _write_atomic(out_dir / "tree.dot", result.tree.to_dot())
    return PipelineResult(tests, report, result.tree, result.stats.stopped_by)


# =====================================================================
# Entry point
# =====================================================================


def _parse_domain(text: str) -> tuple[int, int]:
    try:
        low, high = map(int, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"integer domain {text!r}: expected LO:HI") from None
    if low > high:
        raise argparse.ArgumentTypeError(f"empty integer domain {text!r}")
    if low < F.INT32_MIN or high > F.INT32_MAX:
        raise argparse.ArgumentTypeError(f"integer domain {text!r} exceeds 32 bits")
    return low, high


def _at_least_zero(kind: type):
    """``kind`` as an argparse type that rejects a negative value (or NaN),
    which would lift the budget it sets."""
    def parse(text: str):
        value = kind(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"{text!r}: must be 0 or more")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argparse takes a value such as ``-200:200`` for an unknown option, so
    ``--int-domain -200:200`` would lack its argument; attach such a value
    to the option before it, as ``--int-domain=-200:200``."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and re.match(r"-\d+:", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slc",
        description="Generate tests for a heap program from its "
                    "separation-logic precondition, then explore uncovered "
                    "branches concolically.")
    parser.add_argument("--spec", required=True, help="specification file (.sl)")
    parser.add_argument("--program", required=True, help="program file (.ir)")
    parser.add_argument("--entry", required=True, help="entry procedure name")
    parser.add_argument("--unfold-depth", type=_at_least_zero(int), default=1,
                        metavar="N",
                        help="precondition unfolding depth (default 1)")
    parser.add_argument("--spec-only", action="store_true",
                        help="stop after specification-based generation")
    parser.add_argument("--timeout", type=_at_least_zero(float), default=None,
                        metavar="SECONDS",
                        help="wall-clock limit for exploration")
    parser.add_argument("--solver-depth", type=_at_least_zero(int), default=6,
                        metavar="N",
                        help="unfolding rounds of each solver query (default 6); "
                             "exploration's field elimination first unfolds up to "
                             "N instances on each branch")
    parser.add_argument("--int-domain", type=_parse_domain, default=(-64, 63),
                        metavar="LO:HI", help="integer witness domain (default -64:63)")
    parser.add_argument("--max-nodes", type=_at_least_zero(int), default=10_000,
                        metavar="N",
                        help="constraint tree node budget")
    parser.add_argument("--seed-defaults", action="store_true",
                        help="add an all-defaults seed input")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="directory for suite.json, coverage.*, tree.dot")
    parser.add_argument("--report", choices=("text", "json"), default="text",
                        help="stdout summary format")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        result = run_pipeline(
            Path(args.spec), Path(args.program), args.entry,
            unfold_depth=args.unfold_depth, spec_only=args.spec_only,
            timeout=args.timeout, solver_depth=args.solver_depth,
            int_domain=args.int_domain, max_nodes=args.max_nodes,
            seed_defaults=args.seed_defaults,
            out_dir=Path(args.out) if args.out else None)
    except (F.SpecError, F.SortError, ir.ProgramError, OSError) as err:
        print(f"slc: error: {err}", file=sys.stderr)
        return 1
    except ParseError as err:  # carries position info
        print(f"slc: parse error: {err}", file=sys.stderr)
        return 1
    report = result.report
    if args.report == "json":
        payload = coverage_json_payload(report)
        payload["wall_seconds"] = {k: round(v, 3) for k, v in report.wall.items()}
        print(json_text(payload))
    else:
        sys.stdout.write(render_coverage_text(report))
        for phase, seconds in report.wall.items():
            print(f"time {phase}: {seconds:.2f}s")
    if result.stopped_by:
        print(f"slc: {result.stopped_by} reached; outputs are partial", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
