"""Execution rules, constraint tree growth, preprocess, exploration."""

import pytest

from slc import concolic as C
from slc import formulas as F
from slc import ir
from slc import solver as S
from slc import testgen as T
from slc.cli import corpus_path
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
