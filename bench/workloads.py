"""The benchmark's workloads, shared by the parent (run.py) and its workers.

Stdlib only, so the parent can read the table without importing ``slc``.
One *operation* is one ``run_pipeline`` call or one oracle-check heap; the
seed only permutes the order of operations within a pass, because the
corpus itself is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# Every gated subject reaches full feasible coverage at its gated settings.
GATED_COVERAGE = 100.0

# Criterion 6's agreement check on one subject: every heap of the
# precondition's depth-<=2 unfolding closure gets sat(), model_check() and
# oracle_sat() under the acceptance test's bounds.
ORACLE_SUBJECT = "dll"
ORACLE_HEAPS = 5
ORACLE_UNFOLD_DEPTH = 2
ORACLE_SOLVER_DEPTH = 8
ORACLE_MAX_OBJECTS = 3
ORACLE_INT_RANGE = (-4, 4)


@dataclass(frozen=True)
class PipelineOp:
    """One ``run_pipeline`` call on a gated corpus subject; ``overrides``
    change the subject's gated settings (``cli.BENCHMARKS``)."""

    subject: str
    overrides: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: tuple[PipelineOp, ...] = ()  # empty: the oracle check

    @property
    def ops(self) -> int:
        return len(self.pipeline) if self.pipeline else ORACLE_HEAPS


WORKLOADS = {
    w.name: w for w in (
        Workload("bst-explore", (PipelineOp("bst"),)),
        Workload("lists-explore", (
            PipelineOp("sll"),
            PipelineOp("dll"),
            PipelineOp("stack"),
            PipelineOp("tll"),
            PipelineOp("sortedlist", {"spec_only": True}),
        )),
        Workload("tll-generate", (
            PipelineOp("tll", {"spec_only": True, "unfold_depth": 4}),)),
        Workload("oracle-check"),
    )
}
