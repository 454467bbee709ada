"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks the tracer's self-time arithmetic on a fake clock and the CPU
speed probe on a busy loop, runs one smoke sample of every workload
untraced and traced with every output check on, and checks that the
benchmark refuses to run without the slc sources. It
then prints the traced shares that ROADMAP's baseline describes; those are
facts about the code under test, not about the harness, so they are
reported and not asserted.
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import speedprobe  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def check_tracer() -> None:
    clock = FakeClock()
    tr = tracer.Tracer(clock)
    ns = type("ns", (), {})()

    def leaf(cost):
        clock.now += cost
        return cost

    def outer(n):
        clock.now += 1.0
        ns.leaf(2.0)
        if n:
            ns.outer(n - 1)  # recursion through the patched name
        return n

    def failing():
        clock.now += 0.5
        raise KeyError("x")

    ns.leaf, ns.outer, ns.failing = leaf, outer, failing
    calls, errors = [], []
    tr.span(ns, "leaf", "m.leaf", after=lambda r, a, k: calls.append(r))
    tr.span(ns, "outer", "m.outer", reentrant=True)
    tr.span(ns, "failing", "m.failing", error=errors.append)
    assert ns.outer(2) == 2
    assert tr.self_s["m.outer"] == 3.0, tr.self_s
    assert tr.self_s["m.leaf"] == 6.0, tr.self_s
    assert calls == [2.0, 2.0, 2.0]
    try:
        ns.failing()
    except KeyError:
        pass
    assert tr.self_s["m.failing"] == 0.5 and len(errors) == 1
    assert not tr.stack
    tr.uninstall()
    assert ns.leaf is leaf and ns.outer is outer and ns.failing is failing
    print("tracer: self times, recursion, errors and uninstall ok")


def check_speedprobe() -> None:
    before = signal.getsignal(signal.SIGALRM)
    with speedprobe.SpeedProbe(interval=0.01) as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.times) >= 5, probe.times
    assert 0 < probe.spent_s < 0.2
    expected = 2.0 * speedprobe.NOMINAL_S / statistics.median(probe.times)
    assert probe.normalise(2.0) == expected
    print(f"speed probe: {len(probe.times)} samples in 0.2 s, median "
          f"{1e6 * statistics.median(probe.times):.0f} us, handler restored")


def run_bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def check_smoke(trace: int) -> dict:
    proc, lines = run_bench(["--smoke", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, "\n".join(lines[:-1])
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    for name in WORKLOADS:
        for metric in wanted:
            key = f"{name}/{metric['name']}"
            assert key in result["metrics"], key
            assert result["metrics"][key]["unit"] == metric["unit"], key
    summary = "\n".join(lines[:-1])
    for metric in ("setup_s", "wall_s", "norm_cpu_s", "peak_rss_mb",
                   "feasible_coverage_pct", "error_rate"):
        assert summary.count(metric) >= len(WORKLOADS), metric
    print(f"smoke --trace {trace}: {result['attempted']} operations, all checks pass")
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        proc, lines = run_bench(["--workload", "lists-explore", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines), lines
    print("refuses to run without src/: exit", proc.returncode)


def report_baseline(m: dict) -> None:
    def share(workload, layer, of="trace.wall_s"):
        return m[f"{workload}/{layer}"] / m[f"{workload}/{of}"]

    def largest(workload):
        times = {k.split("/", 1)[1]: v for k, v in m.items()
                 if k.startswith(workload + "/") and k.endswith("_s")
                 and "/trace." not in k}
        return max(times, key=times.get)

    print("baseline (reported, not asserted):")
    print(f"  bst-explore: ir.elaborate_s is {share('bst-explore', 'ir.elaborate_s'):.0%}"
          f" of the traced pass; ir.elab_stmts = {m['bst-explore/ir.elab_stmts']}")
    print(f"  oracle-check: testgen.oracle_sat_s is "
          f"{share('oracle-check', 'testgen.oracle_sat_s'):.0%} of the traced pass")
    for workload in ("lists-explore", "tll-generate"):
        print(f"  {workload}: largest self time is {largest(workload)}")
    for workload in WORKLOADS:
        print(f"  {workload}: unattributed {m[f'{workload}/trace.unattributed_s']:.4f}s, "
              f"tracing overhead {m[f'{workload}/trace.overhead_s']:+.3f}s")


def main() -> int:
    check_tracer()
    check_speedprobe()
    check_refuses_without_sources()
    check_smoke(0)
    report_baseline(check_smoke(1))
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
