"""slc benchmark: the gated corpus end to end, and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke            # one sample of every workload

Load model: closed loop, one client. Each sample is one pass of the
workload in a fresh single-threaded worker process (bench/worker.py);
this process only waits. A fresh process keeps one pass's garbage from
slowing the next and gives each sample its own peak RSS. The first run of
a workload on given code makes one discarded warm-up pass. A run measures
set-up with ``SETUP_PROBES`` import-only workers, then takes passes while
another one is expected to end within ``--seconds`` (but at least
``MIN_SAMPLES``), and reports medians.

Untraced passes sample the CPU's speed while they run (speedprobe.py):
``norm_cpu_s`` is the pass's CPU time at a fixed CPU speed, ``probe_us``
the median time of the probe's loop. With ``--trace 0`` the last stdout
line carries the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced passes and carries the
per-layer metrics (self times and work counters, see bench/tracer.py). Every
operation's output is checked; an operation that fails a check counts in
``failed``. Work counters must repeat exactly across the samples of a
run and across runs of the same code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
PYCACHE = BUILD / "pycache"
WORK = BUILD / "bench"

MIN_SAMPLES = 2
SETUP_PROBES = 10
RUN_LIMIT_S = 165.0  # a run must end within 180 s
MAX_UNATTRIBUTED = 0.02  # share of a traced pass outside every span


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def median(values):
    return statistics.median(values) if values else 0.0


def code_digest() -> str:
    """Identifies the program and benchmark code a run measures."""
    digest = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/slc/**/*"), *BENCH.glob("*.py")]):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Run:
    """One invocation: its samples, checks and results."""

    def __init__(self, workload, seed: int, deadline: float):
        self.workload = workload
        self.rng = random.Random(seed)
        self.deadline = deadline
        self.out = WORK / f"run-{os.getpid()}-{workload.name}"
        self.records: list[dict] = []  # every pass, warm-up included
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.setups: list[float] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.code = code_digest()

    def spawn(self, trace: int, workload: str | None = None) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise HarnessError("run exceeded its time limit")
        out_dir = self.out / str(len(self.records))
        spawned_at = time.monotonic()
        cmd = [sys.executable, "-I", "-S", "-X", f"pycache_prefix={PYCACHE}",
               str(BENCH / "worker.py"), repr(spawned_at),
               workload or self.workload.name,
               str(self.rng.randrange(2**32)), str(trace), str(out_dir)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise HarnessError("a worker outlived the run's time limit")
        if proc.returncode == 3:
            raise HarnessError(proc.stderr.strip())
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-5:]
            record = {"crashed": f"exit {proc.returncode}: " + " | ".join(tail)}
        else:
            record = json.loads(lines[-1])
        if workload is None:
            self.records.append(record)
            self.check(record)
        return record

    def check(self, record: dict) -> None:
        ops = self.workload.ops
        self.attempted += ops
        if "crashed" in record:
            self.failed += ops
            self.problems.append(record["crashed"])
            return
        first = self.records[0]
        for op in record["ops"]:
            ref = next((o for o in first.get("ops", ()) if o["name"] == op["name"]),
                       op)
            if op["artifacts"] != ref["artifacts"]:
                op["errors"].append("artifacts differ from the first pass")
            if op["errors"]:
                self.failed += 1
                self.problems.extend(f"{op['name']}: {e}" for e in op["errors"])
        self.failed += ops - len(record["ops"])
        self.problems.extend(record["problems"])
        counters = first.get("counters", {})
        for key, value in record["counters"].items():
            if counters.setdefault(key, value) != value:
                self.problems.append(f"counter {key}: {value} != {counters[key]}")

    def sample(self, trace: bool, seconds: float, smoke: bool) -> None:
        warm = WORK / "warm" / f"{self.workload.name}-{self.code}"
        if not smoke and not warm.exists():
            # One discarded pass per workload and code: it compiles the
            # bytecode cache, so no timed pass pays for compilation.
            self.spawn(0)
            warm.parent.mkdir(parents=True, exist_ok=True)
            warm.touch()
        if not smoke and not trace:
            for _ in range(SETUP_PROBES):
                probe = self.spawn(0, "-")
                if "crashed" in probe:
                    self.problems.append(probe["crashed"])
                else:
                    self.setups.append(probe["setup_s"])
        start = time.monotonic()
        while True:
            self.untraced.append(self.spawn(0))
            if trace:
                self.traced.append(self.spawn(1))
            elapsed = time.monotonic() - start
            if smoke or time.monotonic() + elapsed / len(self.untraced) > self.deadline:
                break
            # Start another pass only if it should end within --seconds.
            enough = trace or len(self.untraced) >= MIN_SAMPLES
            if enough and elapsed * (1 + 1 / len(self.untraced)) > seconds:
                break

    def remember(self) -> None:
        """Work counters and artifacts must repeat across runs of this code."""
        first = self.records[0]
        if "counters" not in first:
            return
        store = WORK / "counters" / f"{self.workload.name}-{self.code}.json"
        seen = {"counters": {}, "artifacts": {}}
        if store.exists():
            seen = json.loads(store.read_text())
        for key, value in first["counters"].items():
            if seen["counters"].setdefault(key, value) != value:
                self.problems.append(f"counter {key}: {value} here, "
                                     f"{seen['counters'][key]} in an earlier run")
        for op in first["ops"]:
            if seen["artifacts"].setdefault(op["name"], op["artifacts"]) != op["artifacts"]:
                self.problems.append(f"{op['name']}: artifacts differ from an earlier run")
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
        os.replace(tmp, store)

    def end_to_end(self) -> dict:
        samples = [r for r in self.untraced if "wall_s" in r]
        counters = self.records[0].get("counters", {})
        feasible = counters.get("coverage.feasible", 0)
        return {
            "setup_s": self.setups + [r["setup_s"] for r in samples],
            "wall_s": [r["wall_s"] for r in samples],
            "cpu_s": [r["cpu_s"] for r in samples],
            "norm_cpu_s": [r["norm_cpu_s"] for r in samples
                           if "norm_cpu_s" in r],
            "probe_us": [1e6 * r["probe_s"] for r in samples if "probe_s" in r],
            "peak_rss_mb": [r["peak_rss_mb"] for r in samples],
            "feasible_coverage_pct": [100.0 * counters["coverage.feasible_covered"]
                                      / feasible] if feasible else [],
            "error_rate": [self.failed / self.attempted] if self.attempted else [],
        }

    def per_layer(self, names) -> dict:
        traced = [r for r in self.traced if "self_s" in r]
        untraced = [r for r in self.untraced if "wall_s" in r]
        if not traced or not untraced:
            return {}
        counters = traced[0]["counters"]
        wall = median([r["wall_s"] for r in traced])
        untraced_wall = median([r["wall_s"] for r in untraced])
        unattributed = median([r["wall_s"] - sum(r["self_s"].values())
                               for r in traced])
        if not 0 <= unattributed <= MAX_UNATTRIBUTED * wall:
            self.problems.append(f"{unattributed:.4f}s of a traced pass is "
                                 "outside every span")
        attempts = counters.get("concolic.preprocess_calls", 0)
        missed = (counters.get("concolic.nodes_pruned", 0)
                  + counters.get("concolic.nodes_unresolved", 0))
        values = {
            "trace.wall_s": wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": wall - untraced_wall,
            "trace.unattributed_s": unattributed,
            "concolic.hit_ratio": (attempts - missed) / attempts if attempts else 0.0,
            "src.lines": sum(len(p.read_bytes().splitlines())
                             for p in ROOT.glob("src/slc/**/*.py")),
        }
        for name in names:
            if name in values:
                continue
            if name.endswith("_s"):  # a span's self time
                values[name] = median([r["self_s"].get(name[:-2], 0.0)
                                       for r in traced])
            else:  # a work counter; 0 where the workload skips the layer
                values[name] = counters.get(name, 0)
        return values


def describe(name: str, values: list[float], unit: str) -> str:
    """Median, the highest percentile with ten samples beyond it, count."""
    n = len(values)
    if not n:
        return f"  {name:24} n/a"
    text = f"  {name:24} median {median(values):.4f} {unit}"
    if n > 10:
        pct = 100.0 * (n - 10) / n
        text += f", p{pct:.0f} {sorted(values)[n - 11]:.4f}"
    return text + f", n={n}"


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "slc" / "cli.py").is_file() or not path.is_file():
        raise HarnessError(f"no slc sources under {ROOT / 'src'}")
    return json.loads(path.read_text())


UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "norm_cpu_s": "s",
         "probe_us": "us", "peak_rss_mb": "MB",
         "feasible_coverage_pct": "%", "error_rate": "ratio"}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, spec: dict) -> dict:
    run = Run(WORKLOADS[name], seed, time.monotonic() + RUN_LIMIT_S)
    wanted = spec["per_layer" if trace else "end_to_end"]
    try:
        run.sample(trace, seconds, smoke)
        run.remember()
        series = run.end_to_end()
        if trace:
            values = run.per_layer([m["name"] for m in wanted])
        else:
            values = {k: median(v) for k, v in series.items() if v}
    finally:
        shutil.rmtree(run.out, ignore_errors=True)
    print(f"{name}: seed {seed}, {run.attempted} operations, "
          f"{run.failed} failed")
    for metric, samples in series.items():
        print(describe(metric, samples, UNITS[metric]))
    if trace:
        for metric in wanted:
            print(f"  {metric['name']:30} {values.get(metric['name'], float('nan')):.6g} "
                  f"{metric['unit']}")
    for problem in run.problems:
        print(f"  problem: {problem}")
    return {
        "correct": not run.problems and run.failed == 0
                   and all(m["name"] in values for m in wanted),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one sample per workload, no warm-up")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(name, args.seed, seconds, bool(args.trace),
                                      args.smoke, spec) for name in names}
    except HarnessError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
