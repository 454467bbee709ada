"""Acceptance gate: one test per shipping criterion.

Each criterion asserts its stated tolerance and prints a PASS line
(visible with ``pytest tests/test_acceptance.py -s``). Budgets are pinned
here, not tuned at runtime. Criterion 8 re-runs the artifact-producing
pipelines through ``python -m slc.cli`` in subprocesses and byte-compares
everything they write.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from slc import concolic as C
from slc import formulas as F
from slc import ir
from slc import solver as S
from slc import testgen as T
from slc.cli import BENCHMARKS, corpus_path, run_pipeline
from slc.testgen import Addr, HeapObject
from slc.unfold import unfold_closure

GATED = ["sll", "dll", "stack", "bst", "tll", "sortedlist"]


def run_bench(name, out_dir=None, **overrides):
    bench = BENCHMARKS[name]
    kwargs = dict(unfold_depth=bench.unfold_depth,
                  solver_depth=bench.solver_depth, max_nodes=bench.max_nodes)
    kwargs.update(overrides)
    return run_pipeline(corpus_path(bench.spec), corpus_path(bench.program),
                        bench.entry, out_dir=out_dir, **kwargs)


def passed(n, message):
    print(f"ACCEPTANCE PASS criterion {n}: {message}")


class Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            self.elapsed = time.monotonic() - self.start
            assert self.elapsed < self.limit, \
                f"criterion exceeded its {self.limit}s budget ({self.elapsed:.1f}s)"


# -----------------------------------------------------------------------
# 1. Unfolding fidelity: depth-2 unfolding of the bst precondition yields
#    exactly the six published symbolic heaps, up to renaming.
# -----------------------------------------------------------------------

SIX_UNFOLDINGS = [
    "emp & this_root = null",
    """exists elt, l, r . this_root -> BinaryNode(elt, l, r)
       * bst(l, minE, elt) * bst(r, elt, maxE) & minE < elt & maxE > elt""",
    """exists elt, l, r . this_root -> BinaryNode(elt, l, r)
       * bst(r, elt, maxE) & l = null & minE < elt & maxE > elt""",
    """exists elt, l, r, elt1, l1, r1 . this_root -> BinaryNode(elt, l, r)
       * l -> BinaryNode(elt1, l1, r1)
       * bst(r, elt, maxE) * bst(l1, minE, elt1) * bst(r1, elt1, elt)
       & minE < elt & maxE > elt & minE < elt1 & elt > elt1""",
    """exists elt, l, r . this_root -> BinaryNode(elt, l, r)
       * bst(l, minE, elt) & r = null & minE < elt & maxE > elt""",
    """exists elt, l, r, elt2, l2, r2 . this_root -> BinaryNode(elt, l, r)
       * r -> BinaryNode(elt2, l2, r2)
       * bst(l, minE, elt) * bst(l2, elt, elt2) * bst(r2, elt2, maxE)
       & minE < elt & maxE > elt & elt < elt2 & maxE > elt2""",
]


def test_criterion_1_unfolding_fidelity(bst_spec, bst_pre):
    with Timer(1.0) as timer:
        got = unfold_closure(list(bst_pre.disjuncts), 2, bst_spec)
        expected = [F.parse_heap(text) for text in SIX_UNFOLDINGS]
        assert len(got) == 6
        for g, e in zip(got, expected):
            assert F.alpha_equal(g, e), F.print_heap(g)
    passed(1, f"depth-2 unfolding is exactly the 6 published heaps "
              f"({timer.elapsed:.2f}s)")


# -----------------------------------------------------------------------
# 2. Validity = 100% over the gated corpus: every emitted test satisfies
#    its precondition under the concrete evaluator.
# -----------------------------------------------------------------------


def test_criterion_2_validity_100_percent():
    with Timer(120.0) as timer:
        total = 0
        for name in GATED:
            result = run_bench(name)
            report = result.report
            assert report.total_tests > 0, name
            assert report.valid_tests == report.total_tests, \
                f"{name}: {report.valid_tests}/{report.total_tests} valid"
            total += report.total_tests
    passed(2, f"{total} tests across {len(GATED)} benchmarks, all valid "
              f"({timer.elapsed:.1f}s)")


# -----------------------------------------------------------------------
# 3. BST end-to-end coverage: at depth 2, phase one leaves the branch the
#    second-phase walkthrough targets (x < element taken) uncovered, and
#    exploration then reaches 100% of annotated-feasible branches.
# -----------------------------------------------------------------------

# Derived once from the pinned defaults (x defaults to 0 and the solver
# returns minimal witnesses, so phase-one trees never reach these sides).
PHASE_ONE_UNCOVERED = {
    ("remove", 4, "then"),   # x < element        (the walkthrough branch)
    ("remove", 8, "then"),   # x > element
    ("remove", 13, "then"),  # both children present
    ("findMin", 0, "else"),
    ("findMin", 3, "then"),
    ("findMin", 3, "else"),
}


def uncovered_feasible(report):
    return [b for b in report.feasible() if not report.branches[b]]


def test_criterion_3_bst_coverage():
    with Timer(60.0) as timer:
        phase_one = run_bench("bst", spec_only=True)
        uncovered = set(uncovered_feasible(phase_one.report))
        assert ("remove", 4, "then") in uncovered
        assert uncovered == PHASE_ONE_UNCOVERED
        full = run_bench("bst")
        assert full.report.feasible_percent == 100.0
        assert uncovered_feasible(full.report) == []
        assert full.report.infeasible == {("findMin", 0, "then")}
        assert set(uncovered_feasible(phase_one.report)) - set(
            uncovered_feasible(full.report)) == PHASE_ONE_UNCOVERED
    passed(3, f"phase one leaves {len(PHASE_ONE_UNCOVERED)} branches incl. the "
              f"x<element side; explore reaches 100% feasible ({timer.elapsed:.1f}s)")


# -----------------------------------------------------------------------
# 4. Path-condition transformation: the published field-elimination
#    example, exactly, plus the discarded null-alias branch.
# -----------------------------------------------------------------------


def test_criterion_4_path_condition_transformation(bst_spec, bst_pre):
    with Timer(1.0) as timer:
        pc = C.initial_path_condition(bst_pre)
        pc = pc.conjoin(ir.EBin("=", ir.EVar("t"), ir.EVar("this_root")))
        pc = pc.conjoin(ir.EUn("!", ir.EBin("=", ir.EVar("t"), ir.ENull())))
        pc = pc.conjoin(ir.EBin("<", ir.EVar("x"), ir.EField("t", "element")))
        out = C.preprocess(pc, bst_spec)
        assert len(out) == 1
        expected = F.parse_heap("""
            exists elt, l, r . this_root -> BinaryNode(elt, l, r)
            * bst(l, minE, elt) * bst(r, elt, maxE)
            & minE < elt & maxE > elt & t = this_root & t != null & x < elt""")
        assert F.alpha_equal(out[0], expected)
        # the branch whose base pointer aliases null contributes nothing
        null_pc = C.PathCondition((F.parse_heap("emp & this_root = null"),),
                                  pc.atoms)
        assert C.preprocess(null_pc, bst_spec) == []
    passed(4, f"field elimination reproduces the published formula and "
              f"discards the null-alias branch ({timer.elapsed:.2f}s)")


# -----------------------------------------------------------------------
# 5. Constraint-tree replay: the two walkthrough seeds reproduce the
#    published explored/unexplored pattern, and the first exploration
#    step produces an input taking the x < element side.
# -----------------------------------------------------------------------


def bst_seeds():
    empty = T.TestInput({}, {"this_root": None, "x": 0}, "seed:empty")
    a = Addr(1, "BinaryNode")
    one = T.TestInput(
        {a: HeapObject(a, "BinaryNode",
                       {"element": 0, "left": None, "right": None})},
        {"this_root": a, "x": 0}, "seed:one-node")
    return empty, one


def test_criterion_5_tree_replay(bst_spec, bst_pre):
    with Timer(5.0) as timer:
        program = ir.parse_program(corpus_path("bst.ir").read_text(),
                                   datas=bst_spec.datas)
        elab = ir.elaborate(program, "remove", inline_depth=4)
        tree = C.ConstraintTree(elab, bst_pre)
        empty, one = bst_seeds()

        # seed 1, the empty tree: one conditional on the path, taken side
        # explored, the other flagged with a question mark.
        assert C.run_test(empty, tree).kind == "ok"
        conds = [n for n in tree.nodes
                 if isinstance(tree.statement(n), ir.SCond) and n.children]
        assert len(conds) == 1
        cond = conds[0]
        then_child = tree.nodes[cond.children["then"]]
        else_child = tree.nodes[cond.children["else"]]
        assert then_child.flag and not else_child.flag
        assert {n.branch for n in tree.unexplored()} == {("remove", 1, "else")}

        # seed 2, the one-node tree with x = 0: walks the else side, takes
        # C-FCOND at every comparison, leaving four question marks.
        assert C.run_test(one, tree).kind == "ok"
        assert else_child.flag
        unexplored = {n.branch for n in tree.unexplored()}
        assert unexplored == {("remove", 4, "then"), ("remove", 8, "then"),
                              ("remove", 12, "then"), ("remove", 20, "then")}

        # first exploration step: the shallowest unexplored node is the
        # x < element side; its model must take that branch when run.
        node = min(tree.unexplored(), key=lambda n: (n.depth, n.path))
        assert node.branch == ("remove", 4, "then")
        (heap,) = C.preprocess(node.delta, bst_spec)
        result = S.sat(heap, bst_spec, S.Budget(max_depth=12))
        assert result.is_sat
        test = T.to_unit_test(result.model, elab.params, bst_spec, "iter1")
        root_obj = test.objects[test.bindings["this_root"]]
        assert test.bindings["x"] < root_obj.fields["element"]
        assert C.run_test(test, tree).kind == "ok"
        assert node.flag
    passed(5, f"seed replay matches the published pattern; first iteration "
              f"takes x < element ({timer.elapsed:.1f}s)")


# -----------------------------------------------------------------------
# 6. Oracle equivalence: on every depth-<=2 unfolded heap of every corpus
#    predicate, the solver agrees with exhaustive enumeration on the SAT
#    side, and every model passes the independent checker.
# -----------------------------------------------------------------------


def _model_within_bounds(model, max_objects, lo, hi):
    if len(model.heap.points_tos()) > max_objects:
        return False
    for c in F.conjuncts(model.heap.pure):
        if isinstance(c, F.Atom) and isinstance(c.right, F.Const):
            if not (lo <= c.right.value <= hi):
                return False
    return True


def test_criterion_6_bound_filter_reads_model_bindings():
    # The filter sees a model's scalar bindings; were they hidden from it,
    # every model would pass as within bounds.
    wide = S.Budget(int_min=-200, int_max=200)
    far = S.sat(F.parse_heap("emp & x = 100"), F.SpecFile(), wide)
    near = S.sat(F.parse_heap("emp & x = 1"), F.SpecFile(), wide)
    assert far.is_sat and near.is_sat
    assert not _model_within_bounds(far.model, 3, -4, 4)
    assert _model_within_bounds(near.model, 3, -4, 4)


def test_criterion_6_oracle_equivalence():
    with Timer(300.0) as timer:
        checked = sat_count = 0
        for name in GATED:
            bench = BENCHMARKS[name]
            spec = F.parse_spec(corpus_path(bench.spec).read_text())
            pre = spec.preconditions[bench.entry]
            heaps = list(pre.disjuncts) + unfold_closure(list(pre.disjuncts),
                                                         2, spec)
            for d in heaps:
                result = S.sat(d, spec, S.Budget(max_depth=8))
                checked += 1
                if result.is_sat:
                    sat_count += 1
                    assert S.model_check(result.model, d, spec), \
                        f"{name}: model fails model_check for {F.print_heap(d)}"
                    if _model_within_bounds(result.model, 3, -4, 4):
                        assert T.oracle_sat(d, spec, 3, range(-4, 5)), \
                            f"{name}: oracle misses {F.print_heap(d)}"
                elif result.decision == "unsat":
                    assert not T.oracle_sat(d, spec, 3, range(-4, 5)), \
                        f"{name}: solver unsat but oracle finds a model"
    passed(6, f"{checked} heaps checked, {sat_count} SAT, all models verified "
              f"({timer.elapsed:.1f}s)")


# -----------------------------------------------------------------------
# 7. Spec-only mode on the nonlinear-guard benchmark: exactly ten valid
#    inputs, no concolic solver calls, and strictly more coverage than a
#    random-scalar baseline of the same size.
# -----------------------------------------------------------------------


def test_criterion_7_spec_only_beats_baseline(random_baseline):
    with Timer(30.0) as timer:
        result = run_bench("sortedlist", spec_only=True)
        report = result.report
        assert report.total_tests == 10
        assert report.valid_tests == 10
        assert report.concolic_solver_calls == 0
        spec = F.parse_spec(corpus_path("sortedlist.sl").read_text())
        program = ir.parse_program(corpus_path("sortedlist.ir").read_text(),
                                   datas=spec.datas)
        elab = ir.elaborate(program, "sumbig")
        baseline = random_baseline(elab.params, 10, seed=0)
        base_run = C.explore(elab, spec.preconditions["sumbig"], baseline,
                             spec, spec_only=True)
        base_covered = {n.branch for n in base_run.tree.nodes
                        if n.branch and n.flag}
        assert report.feasible_covered > len(base_covered)
    passed(7, f"10/10 valid spec-only inputs, 0 concolic calls; coverage "
              f"{report.feasible_covered} branches > baseline "
              f"{len(base_covered)} ({timer.elapsed:.1f}s)")


# -----------------------------------------------------------------------
# 8. Determinism: the artifact-producing runs behind criteria 1-7 emit
#    byte-identical files across two consecutive CLI invocations.
# -----------------------------------------------------------------------


def _cli(bench, out: Path):
    args = [sys.executable, "-m", "slc.cli",
            "--spec", str(corpus_path(bench.spec)),
            "--program", str(corpus_path(bench.program)),
            "--entry", bench.entry,
            "--unfold-depth", str(bench.unfold_depth),
            "--solver-depth", str(bench.solver_depth),
            "--max-nodes", str(bench.max_nodes),
            "--out", str(out)]
    if bench.name == "sortedlist":
        args.append("--spec-only")
    # The subprocess runs the package these tests import, also when only
    # pytest's ``pythonpath`` setting puts it on the path.
    src = str(Path(F.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(args, capture_output=True, text=True, env=env)
    assert proc.returncode in (0, 2), proc.stderr
    return proc.returncode


def test_criterion_8_byte_identical_reruns(tmp_path):
    compared = 0
    for name in GATED:
        bench = BENCHMARKS[name]
        first, second = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        assert _cli(bench, first) == _cli(bench, second)
        for artifact in ("suite.json", "coverage.json", "coverage.txt", "tree.dot"):
            a = (first / artifact).read_bytes()
            b = (second / artifact).read_bytes()
            assert a == b, f"{name}/{artifact} differs between runs"
            compared += 1
    passed(8, f"{compared} artifacts byte-identical across rerun pairs")
