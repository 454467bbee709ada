"""One benchmark sample in a fresh, single-threaded process.

    python bench/worker.py SPAWNED_AT WORKLOAD ORDER_SEED TRACE OUT_DIR

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide), so ``setup_s`` runs from spawn to
``slc.cli`` being imported. ``WORKLOAD`` ``-`` only measures set-up. The
worker runs one pass of the workload with its operations in the order
drawn from ``ORDER_SEED``, with spans on when ``TRACE`` is 1 and the CPU
speed probe (speedprobe.py) on when it is 0, checks every operation's
output, and prints one JSON object as its last stdout line.
"""

import os
import sys
import time

SPAWNED_AT = float(sys.argv[1])
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
import slc.cli  # noqa: E402  (set-up ends here)

SETUP_S = time.monotonic() - SPAWNED_AT

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from slc import formulas as F  # noqa: E402
from slc import solver as S  # noqa: E402
from slc import testgen as T  # noqa: E402
from slc.unfold import unfold_closure  # noqa: E402

import tracer  # noqa: E402
from speedprobe import SpeedProbe  # noqa: E402
import workloads as W  # noqa: E402

cli = slc.cli
ARTIFACTS = ("suite.json", "coverage.json", "tree.dot")


def pipeline_pass(ops, out_dir: Path) -> list[dict]:
    """Run each operation; keep only what the checks and counters need."""
    summaries = []
    for op in ops:
        bench = cli.BENCHMARKS[op.subject]
        kwargs = dict(unfold_depth=bench.unfold_depth,
                      solver_depth=bench.solver_depth,
                      max_nodes=bench.max_nodes)
        kwargs.update(op.overrides)
        try:
            result = cli.run_pipeline(
                cli.corpus_path(bench.spec), cli.corpus_path(bench.program),
                bench.entry, out_dir=out_dir / op.subject, **kwargs)
        except Exception:
            summaries.append({"name": op.subject,
                              "errors": [traceback.format_exc()]})
            continue
        report = result.report
        summaries.append({
            "name": op.subject,
            "exit_code": result.exit_code,
            "coverage": report.feasible_percent,
            "emitted": report.total_tests,
            "valid": report.valid_tests,
            "counters": {
                "ir.elab_stmts": len(result.tree.program.stmts),
                "concolic.tree_nodes": len(result.tree.nodes),
                "concolic.runs": len(report.runs),
                "concolic.nodes_pruned": report.pruned_nodes,
                "concolic.nodes_unresolved": report.unresolved_nodes,
                "solver.sat_calls.gen": report.spec_solver_calls,
                "solver.sat_calls.concolic": report.concolic_solver_calls,
                "solver.pure_nodes": report.solver_pure_nodes,
                "solver.unfold_rounds": report.solver_rounds,
                "testgen.tests_emitted": report.total_tests,
                "coverage.feasible": len(report.feasible()),
                "coverage.feasible_covered": report.feasible_covered,
            },
        })
    return summaries


def check_pipeline(summary: dict, out_dir: Path) -> None:
    """Fill in the operation's errors and artifact digests."""
    errors = summary.setdefault("errors", [])
    if "exit_code" not in summary:  # run_pipeline raised
        return
    if summary["valid"] != summary["emitted"]:
        errors.append(f"{summary['valid']}/{summary['emitted']} tests valid")
    if summary["exit_code"] not in (0, 2):
        errors.append(f"exit code {summary['exit_code']}")
    if summary["coverage"] != W.GATED_COVERAGE:
        errors.append(f"feasible coverage {summary['coverage']}%")
    digests = {}
    for name in ARTIFACTS:
        path = out_dir / summary["name"] / name
        if path.is_file():
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            errors.append(f"{name} missing")
    summary["artifacts"] = digests
    summary["counters"]["cli.artifact_bytes"] = sum(
        path.stat().st_size for path in (out_dir / summary["name"]).iterdir())


def oracle_inputs():
    """The subject's precondition heaps as criterion 6 builds them."""
    bench = cli.BENCHMARKS[W.ORACLE_SUBJECT]
    F.reset_names()
    spec = F.parse_spec(cli.corpus_path(bench.spec).read_text())
    pre = list(spec.preconditions[bench.entry].disjuncts)
    return spec, pre + unfold_closure(pre, W.ORACLE_UNFOLD_DEPTH, spec)


def within_bounds(model, max_objects: int, lo: int, hi: int) -> bool:
    """Criterion 6: the oracle is consulted only for models it could find."""
    if len(model.heap.points_tos()) > max_objects:
        return False
    for c in F.conjuncts(model.heap.pure):
        if isinstance(c, F.Atom) and isinstance(c.right, F.Const):
            if not lo <= c.right.value <= hi:
                return False
    return True


def oracle_pass(spec, heaps, order) -> list[dict]:
    lo, hi = W.ORACLE_INT_RANGE
    domain = range(lo, hi + 1)
    summaries = []
    for i in order:
        d = heaps[i]
        summary = {"name": f"h{i}", "errors": [], "counters": {}}
        summaries.append(summary)
        try:
            result = S.sat(d, spec, S.Budget(max_depth=W.ORACLE_SOLVER_DEPTH))
            summary["decision"] = result.decision
            counters = summary["counters"]
            counters["solver.sat_calls.direct"] = 1
            counters["solver.pure_nodes"] = result.stats.pure_nodes
            counters["solver.unfold_rounds"] = result.stats.rounds
            if result.is_sat:
                if not S.model_check(result.model, d, spec):
                    summary["errors"].append("model fails model_check")
                if within_bounds(result.model, W.ORACLE_MAX_OBJECTS, lo, hi):
                    counters["testgen.oracle_queries"] = 1
                    if not T.oracle_sat(d, spec, W.ORACLE_MAX_OBJECTS, domain):
                        summary["errors"].append("oracle misses a sat heap")
            elif result.decision == "unsat":
                counters["testgen.oracle_queries"] = 1
                if T.oracle_sat(d, spec, W.ORACLE_MAX_OBJECTS, domain):
                    summary["errors"].append("solver unsat, oracle finds a model")
        except Exception:
            summary["errors"].append(traceback.format_exc())
    return summaries


def pooled_counters(summaries) -> dict:
    out: dict[str, int] = {}
    for summary in summaries:
        for key, value in summary.get("counters", {}).items():
            out[key] = out.get(key, 0) + value
    for summary in summaries:
        decision = summary.get("decision")
        if decision:
            key = f"solver.decisions.{decision}"
            out[key] = out.get(key, 0) + 1
    return out


def main() -> int:
    workload_name, order_seed, trace, out_dir = sys.argv[2:6]
    if Path(slc.cli.__file__).resolve().parents[2] != Path(ROOT).resolve():
        print(f"slc imported from {slc.cli.__file__}, not {ROOT}/src",
              file=sys.stderr)
        return 3
    record = {"setup_s": SETUP_S, "problems": []}
    if workload_name != "-":
        workload = W.WORKLOADS[workload_name]
        out_dir = Path(out_dir)
        order = random.Random(int(order_seed)).sample(range(workload.ops),
                                                      workload.ops)
        if not workload.pipeline:
            spec, heaps = oracle_inputs()
            if len(heaps) != workload.ops:
                record["problems"].append(
                    f"{len(heaps)} closure heaps, expected {workload.ops}")
                order = range(len(heaps))
        tr = tracer.install(tracer.Tracer()) if trace == "1" else None
        # Only untraced passes sample the CPU's speed: the tracer would
        # count the samples in the spans they interrupt.
        probe = SpeedProbe() if tr is None else None
        with probe or contextlib.nullcontext():
            start, cpu_start = time.perf_counter(), time.process_time()
            if workload.pipeline:
                summaries = pipeline_pass(
                    [workload.pipeline[i] for i in order], out_dir)
            else:
                summaries = oracle_pass(spec, heaps, order)
            record["wall_s"] = time.perf_counter() - start
            record["cpu_s"] = time.process_time() - cpu_start
        if probe is not None:
            record["wall_s"] -= probe.spent_s
            record["cpu_s"] -= probe.spent_s
            if probe.times:
                record["norm_cpu_s"] = probe.normalise(record["cpu_s"])
                record["probe_s"] = statistics.median(probe.times)
            else:
                record["problems"].append("the pass ended before the "
                                          "speed probe's first sample")
        record["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        if tr is not None:
            tr.uninstall()
        if workload.pipeline:
            for summary in summaries:
                check_pipeline(summary, out_dir)
        counters = pooled_counters(summaries)
        if tr is not None:
            # Counters the pass also reports must agree with the tracer's.
            for key, value in tr.counts.items():
                if counters.setdefault(key, value) != value:
                    record["problems"].append(
                        f"traced {key} = {value}, pass reports {counters[key]}")
            record["self_s"] = dict(tr.self_s)
        record["ops"] = [{"name": s["name"], "errors": s["errors"],
                          "artifacts": s.get("artifacts", {})}
                         for s in summaries]
        record["counters"] = counters
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip freeing the pass's objects one by one (0.75 s after a bst pass):
    # the process ends here anyway.
    os._exit(status)
