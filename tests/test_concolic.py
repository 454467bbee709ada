"""Execution rules, constraint tree growth, preprocess, exploration."""

import re

import pytest

from slc import concolic as C
from slc import formulas as F
from slc import ir
from slc import solver as S
from slc import testgen as T
from slc.cli import BENCHMARKS, corpus_path, run_pipeline
from slc.concolic import (
    ConstraintTree,
    ExecError,
    PathCondition,
    Unresolvable,
    eval_expr,
    explore,
    preprocess,
    run_test,
)
from slc.ir import EBin, EConst, EField, ENull, EUn, EVar
from slc.testgen import Addr, HeapObject


def load(name, entry, inline_depth=4):
    spec = F.parse_spec(corpus_path(f"{name}.sl").read_text())
    program = ir.parse_program(corpus_path(f"{name}.ir").read_text(),
                               datas=spec.datas)
    elab = ir.elaborate(program, entry, inline_depth=inline_depth)
    return spec, program, elab


def bst_seeds():
    a = Addr(1, "BinaryNode")
    empty = T.TestInput({}, {"this_root": None, "x": 0}, "seed:empty")
    one = T.TestInput(
        {a: HeapObject(a, "BinaryNode",
                       {"element": 0, "left": None, "right": None})},
        {"this_root": a, "x": 0}, "seed:one-node")
    return empty, one


TRUE_PRE = F.Formula((F.parse_heap("emp & true"),))


def trivial_program(text):
    program = ir.parse_program(text)
    entry = next(iter(program.procs))
    return ir.elaborate(program, entry)


# ------------------------------------------------------------- eval_expr


def test_eval_arith():
    assert eval_expr({"v": 3}, EBin("+", EVar("v"), EConst(1))) == 4


def test_eval_field_load():
    addr = Addr(1, "BinaryNode")
    s = {"t": addr, (addr, "element"): 0}
    assert eval_expr(s, EField("t", "element")) == 0


def test_eval_null_deref():
    with pytest.raises(ExecError) as err:
        eval_expr({"t": None}, EField("t", "element"))
    assert err.value.error == "null-deref"


def test_eval_wraps_32_bits():
    big = EConst(2**31 - 1)
    assert eval_expr({}, EBin("+", big, EConst(1))) == -(2**31)


# ---------------------------------------------------- stepping semantics


def test_assign_extends_path_condition():
    elab = trivial_program("proc f() { 0: v := 1 }")
    tree = ConstraintTree(elab, TRUE_PRE)
    outcome = run_test(T.TestInput({}, {}, "t"), tree, F.SpecFile())
    assert outcome.kind == "ok"
    child = tree.nodes[tree.root.children["assign"]]
    assert child.delta.atoms == (C.PCExpr(EBin("=", EVar("v"), EConst(1))),)
    assert child.flag


def test_reassignment_versions_old_value():
    elab = trivial_program("proc f() { 0: v := 1  1: v := v + 1 }")
    tree = ConstraintTree(elab, TRUE_PRE)
    run_test(T.TestInput({}, {}, "t"), tree, F.SpecFile())
    leaf = tree.nodes[-1]
    first, second = leaf.delta.atoms
    # second equation reads the renamed old copy, not v itself
    assert second.expr.left == EVar("v")
    (old,) = ir.expr_vars(second.expr.right)
    assert old != "v"
    assert first.expr.left == EVar(old)


def test_conditional_creates_both_children():
    elab = trivial_program(
        "proc f(c: bool) { 0: if c then goto 1 else goto 2  1: v := 1 }")
    tree = ConstraintTree(elab, TRUE_PRE)
    run_test(T.TestInput({}, {"c": True}, "t"), tree, F.SpecFile())
    root = tree.root
    then_child = tree.nodes[root.children["then"]]
    else_child = tree.nodes[root.children["else"]]
    assert then_child.flag and not else_child.flag
    assert then_child.delta.atoms[-1] == C.PCExpr(EVar("c"))
    assert else_child.delta.atoms[-1] == C.PCExpr(EUn("!", EVar("c")))
    assert else_child.branch == ("f", 0, "else")


def test_revisit_promotes_flag_without_duplicating():
    elab = trivial_program(
        "proc f(c: bool) { 0: if c then goto 1 else goto 2  1: v := 1 }")
    tree = ConstraintTree(elab, TRUE_PRE)
    run_test(T.TestInput({}, {"c": True}, "t"), tree, F.SpecFile())
    size = len(tree.nodes)
    run_test(T.TestInput({}, {"c": False}, "t"), tree, F.SpecFile())
    else_child = tree.nodes[tree.root.children["else"]]
    assert else_child.flag
    assert len(tree.nodes) == size  # walked, not re-created


def test_assert_violation_outcome():
    elab = trivial_program("proc f() { 0: assert false }")
    tree = ConstraintTree(elab, TRUE_PRE)
    outcome = run_test(T.TestInput({}, {}, "t"), tree, F.SpecFile())
    assert outcome.kind == "assertion" and outcome.pc == (("f", 0),)


def test_free_then_use_is_dangling():
    text = """
    data C { int v; }
    proc f(p: C) { 0: free p  1: w := p.v }
    """
    spec = F.SpecFile()
    elab = trivial_program(text)
    addr = Addr(1, "C")
    test = T.TestInput({addr: HeapObject(addr, "C", {"v": 7})}, {"p": addr}, "t")
    tree = ConstraintTree(elab, TRUE_PRE)
    outcome = run_test(test, tree, spec)
    assert outcome.kind == "error" and outcome.error == "dangling"


def test_free_of_null():
    elab = trivial_program("data C { int v; }\nproc f(p: C) { 0: free p }")
    tree = ConstraintTree(elab, TRUE_PRE)
    outcome = run_test(T.TestInput({}, {"p": None}, "t"), tree, F.SpecFile())
    assert outcome.kind == "error" and outcome.error == "free-of-null"


def test_computed_goto_out_of_range():
    elab = trivial_program("proc f(k: int) { 0: goto k }")
    tree = ConstraintTree(elab, TRUE_PRE)
    outcome = run_test(T.TestInput({}, {"k": 9}, "t"), tree, F.SpecFile())
    assert outcome.kind == "error" and outcome.error == "goto-out-of-range"


def test_step_budget():
    elab = trivial_program("proc f() { 0: goto 0 }")
    tree = ConstraintTree(elab, TRUE_PRE)
    outcome = run_test(T.TestInput({}, {}, "t"), tree, F.SpecFile(),
                       step_budget=50)
    assert outcome.kind == "budget"


def test_allocation_adds_points_to():
    text = "data C { int v; }\nproc f(a: int) { 0: p := new C(a)  1: w := p.v }"
    elab = trivial_program(text)
    tree = ConstraintTree(elab, TRUE_PRE)
    outcome = run_test(T.TestInput({}, {"a": 5}, "t"), tree, F.SpecFile())
    assert outcome.kind == "ok"
    new_node = tree.nodes[tree.root.children["new"]]
    (heap,) = new_node.delta.heaps
    (pt,) = heap.points_tos()
    assert pt.var == "p" and pt.type_name == "C"


# -------------------------------------------------------------- preprocess


def app3_path_condition(bst_pre):
    pc = C.initial_path_condition(bst_pre)
    pc = pc.conjoin(EBin("=", EVar("t"), EVar("this_root")))
    pc = pc.conjoin(EUn("!", EBin("=", EVar("t"), ENull())))
    pc = pc.conjoin(EBin("<", EVar("x"), EField("t", "element")))
    return pc


def test_preprocess_published_transformation(bst_spec, bst_pre):
    out = preprocess(app3_path_condition(bst_pre), bst_spec)
    assert len(out) == 1
    expected = F.parse_heap("""
        exists elt, l, r . this_root -> BinaryNode(elt, l, r)
        * bst(l, minE, elt) * bst(r, elt, maxE)
        & minE < elt & maxE > elt & t = this_root & t != null & x < elt""")
    assert F.alpha_equal(out[0], expected)


def test_preprocess_null_alias_branch_discarded(bst_spec, bst_pre):
    # Restrict to the base disjunct: t aliases a null this_root, so the
    # field access has no symbolic value and the branch is dropped.
    base_only = F.Formula((bst_pre.disjuncts[0],))
    pc = app3_path_condition(F.Formula(
        (F.parse_heap("emp & this_root = null"),)))
    assert preprocess(pc, bst_spec) == []


def test_preprocess_without_field_forms_is_identity(bst_spec, bst_pre):
    pc = C.initial_path_condition(bst_pre)
    pc = pc.conjoin(EBin("=", EVar("t"), EVar("this_root")))
    out = preprocess(pc, bst_spec)
    assert len(out) == 1
    expected = F.SymbolicHeap(
        pc.heaps[0].exists, pc.heaps[0].atoms,
        F.conj([pc.heaps[0].pure, F.Atom("=", F.Var("t"), F.Var("this_root"))]))
    assert F.alpha_equal(out[0], expected)


def test_preprocess_no_heap_information_discards(bst_spec):
    pc = PathCondition((F.parse_heap("emp & true"),), ())
    pc = pc.conjoin(EBin("=", EVar("t"), ENull()))
    pc = pc.conjoin(EBin("<", EVar("x"), EField("t", "element")))
    assert preprocess(pc, bst_spec) == []


def test_preprocess_store_introduces_versioned_slot(bst_spec, bst_pre):
    pc = C.initial_path_condition(bst_pre)
    pc = pc.conjoin(EUn("!", EBin("=", EVar("this_root"), ENull())))
    pc = pc.store("this_root", "element", EConst(9))
    pc = pc.conjoin(EBin("=", EVar("w"), EField("this_root", "element")))
    (out,) = preprocess(pc, bst_spec)
    text = F.print_heap(out)
    # the read after the write sees the fresh slot name, not elt
    assert "element" in text and "w = element" in text


def test_preprocess_nonlinear_guard_is_unresolvable(bst_spec, bst_pre):
    pc = C.initial_path_condition(bst_pre)
    pc = pc.conjoin(EBin("=", EVar("sq"), EBin("*", EVar("x"), EVar("x"))))
    with pytest.raises(Unresolvable):
        preprocess(pc, bst_spec)


def test_preprocess_models_satisfy_original_condition(bst_spec, bst_pre):
    # Under-approximation: a model of the output satisfies every original
    # conjunct when its field reads are evaluated on the concrete store.
    pc = app3_path_condition(bst_pre)
    (out,) = preprocess(pc, bst_spec)
    result = S.sat(out, bst_spec)
    assert result.is_sat
    store, env = S.concretize_model(result.model, bst_spec)
    assert T.heap_satisfies(store, env, out, bst_spec)
    assert T.heap_satisfies(store, env, pc.heaps[0], bst_spec)
    stack = dict(env)
    for addr, obj in store.items():
        for fname, value in obj.fields.items():
            stack[(addr, fname)] = value
    for atom in pc.atoms:
        assert eval_expr(stack, atom.expr) is True


# ------------------------------------------------------------ exploration


def test_explore_trivial_program_finishes_immediately():
    elab = trivial_program("proc f() { 0: assert true }")
    seed = T.TestInput({}, {}, "seed")
    result = explore(elab, TRUE_PRE, [seed], F.SpecFile())
    assert not result.tree.unexplored()
    assert result.stats.solver_calls == 0
    assert [o.kind for _, o in result.log] == ["ok"]


def test_explore_covers_bst_branch_from_negated_comparison(bst_spec, bst_pre):
    _, _, elab = load("bst", "remove")
    empty, one = bst_seeds()
    result = explore(elab, bst_pre, [empty, one], bst_spec,
                     budget=S.Budget(max_depth=12), max_nodes=60)
    # every call depth shares the source branch; coverage needs one explored
    target = [n for n in result.tree.nodes if n.branch == ("remove", 4, "then")]
    assert target and any(n.flag for n in target)
    first = result.tests[0]
    assert first.bindings["x"] < next(iter(first.objects.values())).fields["element"]


def test_explore_prunes_infeasible_branch(bst_spec, bst_pre):
    _, _, elab = load("bst", "remove", inline_depth=3)
    empty, one = bst_seeds()
    result = explore(elab, bst_pre, [empty, one], bst_spec,
                     budget=S.Budget(max_depth=12), max_nodes=500)
    pruned = [n for n in result.tree.nodes
              if n.branch == ("findMin", 0, "then") and n.status == "pruned"]
    assert pruned
    assert all(not n.flag for n in result.tree.nodes
               if n.branch == ("findMin", 0, "then"))


def test_explore_monotone_coverage_and_validity(bst_spec, bst_pre):
    _, _, elab = load("bst", "remove", inline_depth=3)
    empty, one = bst_seeds()
    result = explore(elab, bst_pre, [empty, one], bst_spec,
                     budget=S.Budget(max_depth=12), max_nodes=300)
    for test in result.tests:
        assert T.input_satisfies(test, bst_pre, bst_spec), test.provenance


def test_explore_requires_seeds(bst_spec, bst_pre):
    _, _, elab = load("bst", "remove", inline_depth=2)
    with pytest.raises(ValueError):
        explore(elab, bst_pre, [], bst_spec)


def test_tree_determinism(bst_spec, bst_pre):
    def run():
        F.reset_names()
        _, _, elab = load("bst", "remove", inline_depth=3)
        result = explore(elab, bst_pre, list(bst_seeds()), bst_spec,
                         budget=S.Budget(max_depth=12), max_nodes=200)
        return ([(n.nid, n.pc, n.edge, n.flag, n.status) for n in result.tree.nodes],
                [t.describe() for t in result.tests])

    assert run() == run()


def test_tree_dot_output(bst_spec, bst_pre):
    _, _, elab = load("bst", "remove", inline_depth=2)
    result = explore(elab, bst_pre, list(bst_seeds()), bst_spec, spec_only=True)
    dot = result.tree.to_dot()
    assert dot.startswith("digraph")
    assert '"then"' in dot and '"else"' in dot and "?" in dot


# ----------------------------------------------- lazy field elimination

# A list whose last cell either loops to itself with value 0 or goes on.
LOOP_SPEC = """
data N { int val; N next; }
pred p(x) == (exists v . x -> N(v, x) & v = 0) \\/ (exists v, n . x -> N(v, n) * p(n)) ;
pre f == p(t) ;
"""


def seven_reads_path_condition(spec):
    pc = C.initial_path_condition(spec.preconditions["f"])
    for _ in range(7):
        pc = pc.assign("t", EField("t", "next"))
    return pc.conjoin(EBin("=", EField("t", "val"), EConst(5)))


def pipeline(tmp_path, spec_text, program_text, entry):
    (tmp_path / "s.sl").write_text(spec_text)
    (tmp_path / "p.ir").write_text(program_text)
    return run_pipeline(tmp_path / "s.sl", tmp_path / "p.ir", entry)


def test_explore_dropped_branch_is_unresolved_not_pruned(tmp_path):
    # At unfolding budget 6 every heap that resolves the seventh read puts
    # t on the self-looping cell, where val = 0, so sat says unsat on all
    # of them; the branch that reaches a later cell is dropped, not refuted.
    program = "proc f(t: N) {\n" + "".join(
        f"  {i}: t := t.next\n" for i in range(7)) + \
        "  7: if t.val = 5 then goto 8 else goto 9\n  8: v := 1\n}\n"
    result = pipeline(tmp_path, LOOP_SPEC, program, "f")
    assert (result.report.pruned_nodes, result.report.unresolved_nodes) == (0, 1)
    (node,) = [n for n in result.tree.nodes if n.branch == ("f", 7, "then")]
    assert node.status == "unresolved" and not node.flag


def test_explore_domain_bounded_unsat_is_unresolved_not_pruned(tmp_path):
    # x = 100 lies outside the default integer domain -64..63.
    spec = "data N { int val; N next; }\npred q(x) == (emp & x = null) ;\npre g == q(root) ;\n"
    program = "proc g(root: N, x: int) {\n  0: if x = 100 then goto 1 else goto 2\n" \
              "  1: v := 1\n}\n"
    result = pipeline(tmp_path, spec, program, "g")
    assert (result.report.pruned_nodes, result.report.unresolved_nodes) == (0, 1)


def test_explore_pulls_one_heap_when_the_first_covers_the_node(monkeypatch):
    spec = F.parse_spec(LOOP_SPEC)
    program = ir.parse_program("proc f(t: N) {\n  0: t := t.next\n"
                               "  1: if t.val = 0 then goto 2 else goto 3\n  2: v := 1\n}",
                               datas=spec.datas)
    elab = ir.elaborate(program, "f")
    a, b = Addr(1, "N"), Addr(2, "N")
    seed = T.TestInput({a: HeapObject(a, "N", {"val": 1, "next": b}),
                        b: HeapObject(b, "N", {"val": 7, "next": b})},
                       {"t": a}, "seed:else")
    pulled = []
    eager = C.field_free_heaps

    def counted(delta, defs, unfold_budget, drops):
        for heap in eager(delta, defs, unfold_budget, drops):
            pulled.append((delta, heap))
            yield heap

    monkeypatch.setattr(C, "field_free_heaps", counted)
    result = explore(elab, spec.preconditions["f"], [seed], spec)
    assert all(n.flag for n in result.tree.nodes if n.branch is not None)
    # The then-node's first heap (the self-looping cell, val = 0) covers it.
    assert len(pulled) == 1
    assert len(preprocess(pulled[0][0], spec)) == 3


def test_unresolvable_surfaces_exactly_when_no_heap_was_yielded(bst_spec, bst_pre):
    spec = F.parse_spec(LOOP_SPEC)
    pc = seven_reads_path_condition(spec)
    seen = set()
    for budget in range(10):
        drops = []
        heaps = list(C.field_free_heaps(pc, spec, budget, drops))
        try:
            assert len(preprocess(pc, spec, budget)) == len(heaps)
            raised = False
        except Unresolvable:
            raised = True
        assert raised == (not heaps and bool(drops)), budget
        seen.add((raised, bool(heaps), bool(drops)))
    # Budget 0 drops the only branch; 1 to 7 yield heaps and drop the
    # deepest branch; 8 and more resolve every branch.
    assert seen == {(True, False, True), (False, True, True), (False, True, False)}
    # Leaving the solvable fragment drops the branch before it yields.
    nonlinear = C.initial_path_condition(bst_pre).conjoin(
        EBin("=", EVar("sq"), EBin("*", EVar("x"), EVar("x"))))
    drops = []
    assert list(C.field_free_heaps(nonlinear, bst_spec, 6, drops)) == []
    assert drops and drops[0].startswith("nonlinear product")


def shape(texts, keep):
    """The texts with every name outside ``keep`` replaced by its rank of
    first occurrence: equal for heaps that differ only in fresh names."""
    names = {}

    def rename(m):
        word = m.group(0)
        return word if word in keep else names.setdefault(word, f"_{len(names)}")

    return [re.sub(r"[A-Za-z_][A-Za-z0-9_@]*", rename, t) for t in texts]


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_explore_solves_eager_heaps_in_order(name, monkeypatch, tmp_path):
    # Each query's heaps as explore pulls them, and every sat call in order.
    queries, calls = [], []
    lazy, solve = C.field_free_heaps, S.sat

    def recorded_heaps(delta, defs, unfold_budget, drops):
        pulled = []
        queries.append((delta, unfold_budget, pulled))
        for heap in lazy(delta, defs, unfold_budget, drops):
            pulled.append(heap)
            yield heap

    def recorded_sat(d, defs, budget=None):
        result = solve(d, defs, budget)
        calls.append((d, result, budget))
        return result

    monkeypatch.setattr(C, "field_free_heaps", recorded_heaps)
    monkeypatch.setattr(S, "sat", recorded_sat)
    bench = BENCHMARKS[name]
    spec = F.parse_spec(corpus_path(bench.spec).read_text())
    result = run_pipeline(corpus_path(bench.spec), corpus_path(bench.program), bench.entry,
                          unfold_depth=bench.unfold_depth, solver_depth=bench.solver_depth,
                          max_nodes=bench.max_nodes, out_dir=tmp_path)
    monkeypatch.undo()
    covered = {id(n.delta) for n in result.tree.nodes if n.flag}
    pulled_ids = {id(heap) for _, _, pulled in queries for heap in pulled}
    concolic_calls = [call for call in calls if id(call[0]) in pulled_ids]
    # Each pulled heap is solved once, right after it is pulled.
    assert [call[0] for call in concolic_calls] == \
        [heap for _, _, pulled in queries for heap in pulled]
    assert len(concolic_calls) == result.report.concolic_solver_calls
    calls_of = iter(concolic_calls)
    for delta, unfold_budget, pulled in queries:
        try:
            eager = preprocess(delta, spec, unfold_budget)
        except Unresolvable:
            assert pulled == []
            continue
        # Every heap is pulled unless the node was covered before the last.
        assert len(pulled) == len(eager) or \
            (len(pulled) < len(eager) and id(delta) in covered)
        for want in eager[:len(pulled)]:
            heap, got, budget = next(calls_of)
            again = solve(want, spec, budget)
            assert got.decision == again.decision
            assert shape([F.print_heap(heap), str(got.model)], delta.vars()) == \
                shape([F.print_heap(want), str(again.model)], delta.vars())


# ------------------------------------------------ resumed field elimination


def force_restart(monkeypatch):
    """Make every unfolded child of field elimination start over from the
    first atom: the from-scratch reference that resuming must match."""
    monkeypatch.setattr(C._Elimination, "resumed", lambda self, child, defs: None)


def heaps_and_drops(delta, spec, unfold_budget):
    drops = []
    heaps = [F.print_heap(h) for h in C.field_free_heaps(delta, spec, unfold_budget, drops)]
    keep = delta.vars()
    # Fresh slot variables differ between the two paths: compare each heap
    # and drop after renaming its other names in order of first occurrence.
    return [shape([h], keep) for h in heaps], [shape([d], keep) for d in drops]


def gated_run(name, tmp_path):
    bench = BENCHMARKS[name]
    spec = F.parse_spec(corpus_path(bench.spec).read_text())
    result = run_pipeline(corpus_path(bench.spec), corpus_path(bench.program), bench.entry,
                          unfold_depth=bench.unfold_depth, solver_depth=bench.solver_depth,
                          max_nodes=bench.max_nodes, out_dir=tmp_path)
    return spec, bench, result


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_resumed_field_elimination_matches_restarting(name, monkeypatch, tmp_path):
    spec, bench, result = gated_run(name, tmp_path)
    deltas = [n.delta for n in result.tree.nodes]
    resumed = [heaps_and_drops(delta, spec, bench.solver_depth) for delta in deltas]
    force_restart(monkeypatch)
    assert resumed == [heaps_and_drops(delta, spec, bench.solver_depth) for delta in deltas]


def test_resuming_cuts_atom_resolutions_on_tll(monkeypatch, tmp_path):
    resolve, count = C._Elimination.resolve, [0]

    def counted(self, atom):
        count[0] += 1
        return resolve(self, atom)

    monkeypatch.setattr(C._Elimination, "resolve", counted)
    gated_run("tll", tmp_path / "resumed")
    resumed, count[0] = count[0], 0
    force_restart(monkeypatch)
    gated_run("tll", tmp_path / "restarted")
    # Restarting every unfolded child resolved 8,190 atoms.
    assert resumed <= 2000 and count[0] > 4 * resumed


RESTART_SPEC = """
data N { int val; N next; }
pred nulls(y, x) == (exists w . y -> N(w, null) & x = null) \\/ (exists w . y -> N(w, null)) ;
pred joins(c, b, a) == (exists w . c -> N(w, null) & b = a) \\/ (exists w . c -> N(w, null)) ;
"""


@pytest.mark.parametrize("heap, first_read, expected", [
    # Unfolding nulls(y, x) makes x, the base of the resolved read, null.
    ("x -> N(1, null) * nulls(y, x)", EField("x", "val"), 1),
    # Unfolding joins(c, b, a) aliases b to a, whose slot comes first.
    ("a -> N(1, null) * b -> N(2, null) * joins(c, b, a)", EField("b", "val"), 2),
])
def test_unfold_that_changes_a_resolved_read_restarts(heap, first_read, expected,
                                                        monkeypatch):
    spec = F.parse_spec(RESTART_SPEC)
    base = first_read.var
    pc = PathCondition((F.parse_heap(heap),), ())
    pc = pc.conjoin(EBin("=", first_read, EConst(2)))
    pc = pc.conjoin(EBin("=", EField("y" if base == "x" else "c", "val"), EConst(3)))
    carried = []
    resumed = C._Elimination.resumed

    def recorded(self, child, defs):
        state = resumed(self, child, defs)
        carried.append(state is not None)
        return state

    monkeypatch.setattr(C._Elimination, "resumed", recorded)
    got = heaps_and_drops(pc, spec, 6)
    # The first child starts over, the second resumes.
    assert carried == [False, True]
    assert len(got[0]) == expected
    force_restart(monkeypatch)
    assert got == heaps_and_drops(pc, spec, 6)
