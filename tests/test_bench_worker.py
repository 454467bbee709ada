"""The benchmark's worker (bench/worker.py) runs a pass on the package.

The worker reads names of the package (``unfold.unfold_closure``, the
pipeline result's report and elaborated program, ``solver.sat``'s stats),
checks each operation's output, and, when traced, holds the counters the
pass reports to the tracer's. A refactor that breaks any of that fails
here rather than in a benchmark run.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


# Work counters a pass must repeat: the oracle visits the same stores in
# the same order however cheap each store is made, and a refactor of the
# solver does the same pure-solver nodes, rounds, unfoldings and decisions.
# The unfoldings are those of sat's best-first frontier, which unfolds no
# heap that no base heap ahead of the answer needs.
PINNED_COUNTERS = {
    "bst-explore": {"solver.pure_nodes": 193, "solver.unfold_rounds": 112,
                    "unfold.unfold_at_calls": 183, "solver.decisions.sat": 27,
                    "solver.decisions.unsat": 9},
    "lists-explore": {"solver.pure_nodes": 177, "solver.unfold_rounds": 43,
                      "unfold.unfold_at_calls": 414, "solver.decisions.sat": 39,
                      "solver.decisions.unsat": 3, "solver.decisions.unknown": 1},
    "tll-generate": {"solver.pure_nodes": 58, "solver.unfold_rounds": 200,
                     "unfold.unfold_at_calls": 200, "solver.decisions.sat": 58},
    "oracle-check": {"testgen.oracle_stores": 164879, "testgen.oracle_queries": 5},
}


@pytest.mark.parametrize("workload",
                         ["bst-explore", "lists-explore", "tll-generate", "oracle-check"])
def test_traced_worker_pass_has_no_problems(workload, tmp_path):
    run = subprocess.run([sys.executable, "-B", str(WORKER), str(time.monotonic()), workload,
                          "1", "1", str(tmp_path)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    record = json.loads(run.stdout.splitlines()[-1])
    assert record["problems"] == []
    assert record["ops"] and [op for op in record["ops"] if op["errors"]] == []
    pinned = PINNED_COUNTERS.get(workload, {})
    assert {key: record["counters"].get(key) for key in pinned} == pinned
