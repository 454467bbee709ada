"""Execution rules, constraint tree growth, preprocess, exploration."""

import itertools
import random
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
    outcome = run_test(T.TestInput({}, {}, "t"), tree)
    assert outcome.kind == "ok"
    child = tree.nodes[tree.root.children["assign"]]
    (new,) = child.delta.current.values()
    assert new != "v" and child.delta.current == {"v": new}
    assert child.delta.atoms == (C.PCAtom(F.Atom("=", F.Var(new), F.Const(1)), (), None),)
    assert child.flag


def test_reassignment_versions_old_value():
    elab = trivial_program("proc f() { 0: v := 1  1: v := v + 1 }")
    tree = ConstraintTree(elab, TRUE_PRE)
    run_test(T.TestInput({}, {}, "t"), tree)
    first_node, leaf = tree.nodes[1], tree.nodes[-1]
    first, second = leaf.delta.atoms
    # Each value has its own symbol; the second equation reads the first's
    # symbol, and the earlier atom is the parent's, unchanged.
    old, new = first.pure.left.name, second.pure.left.name
    assert len({old, new, "v"}) == 3
    assert second.pure.right == F.Add(F.Var(old), F.Const(1))
    assert first_node.delta.atoms == (first,) and first_node.delta.current == {"v": old}
    assert leaf.delta.current == {"v": new}


def test_conditional_creates_both_children():
    elab = trivial_program(
        "proc f(c: bool) { 0: if c then goto 1 else goto 2  1: v := 1 }")
    tree = ConstraintTree(elab, TRUE_PRE)
    run_test(T.TestInput({}, {"c": True}, "t"), tree)
    root = tree.root
    then_child = tree.nodes[root.children["then"]]
    else_child = tree.nodes[root.children["else"]]
    assert then_child.flag and not else_child.flag
    c = F.Atom("=", F.Var("c"), F.Const(1))  # a boolean variable as 0/1
    assert then_child.delta.atoms[-1] == C.PCAtom(c, (), None)
    assert else_child.delta.atoms[-1] == C.PCAtom(F.Not(c), (), None)
    assert else_child.branch == ("f", 0, "else")


def test_revisit_promotes_flag_without_duplicating():
    elab = trivial_program(
        "proc f(c: bool) { 0: if c then goto 1 else goto 2  1: v := 1 }")
    tree = ConstraintTree(elab, TRUE_PRE)
    run_test(T.TestInput({}, {"c": True}, "t"), tree)
    size = len(tree.nodes)
    run_test(T.TestInput({}, {"c": False}, "t"), tree)
    else_child = tree.nodes[tree.root.children["else"]]
    assert else_child.flag
    assert len(tree.nodes) == size  # walked, not re-created


def test_assert_violation_outcome():
    elab = trivial_program("proc f() { 0: assert false }")
    tree = ConstraintTree(elab, TRUE_PRE)
    outcome = run_test(T.TestInput({}, {}, "t"), tree)
    assert outcome.kind == "assertion" and outcome.pc == (("f", 0),)


def test_free_then_use_is_dangling():
    text = """
    data C { int v; }
    proc f(p: C) { 0: free p  1: w := p.v }
    """
    elab = trivial_program(text)
    addr = Addr(1, "C")
    test = T.TestInput({addr: HeapObject(addr, "C", {"v": 7})}, {"p": addr}, "t")
    tree = ConstraintTree(elab, TRUE_PRE)
    outcome = run_test(test, tree)
    assert outcome.kind == "error" and outcome.error == "dangling"


def test_second_free_of_a_record_without_fields_is_dangling():
    elab = trivial_program("data E { }\nproc f(a: int) { 0: p := new E()  1: free p  2: free p }")
    tree = ConstraintTree(elab, TRUE_PRE)
    outcome = run_test(T.TestInput({}, {"a": 0}, "t"), tree)
    assert outcome.kind == "error" and outcome.error == "dangling" and outcome.pc == (("f", 2),)


def test_free_of_null():
    elab = trivial_program("data C { int v; }\nproc f(p: C) { 0: free p }")
    tree = ConstraintTree(elab, TRUE_PRE)
    outcome = run_test(T.TestInput({}, {"p": None}, "t"), tree)
    assert outcome.kind == "error" and outcome.error == "free-of-null"


def test_free_of_an_address_never_allocated_is_dangling():
    # The solver gives a pointer that no points-to describes such an address.
    elab = trivial_program("data C { int v; }\nproc f(p: C) { 0: free p }")
    tree = ConstraintTree(elab, TRUE_PRE)
    outcome = run_test(T.TestInput({}, {"p": Addr(1, "C")}, "t"), tree)
    assert outcome.kind == "error" and outcome.error == "dangling"


def test_computed_goto_out_of_range():
    elab = trivial_program("proc f(k: int) { 0: goto k }")
    tree = ConstraintTree(elab, TRUE_PRE)
    outcome = run_test(T.TestInput({}, {"k": 9}, "t"), tree)
    assert outcome.kind == "error" and outcome.error == "goto-out-of-range"


def test_step_budget():
    elab = trivial_program("proc f() { 0: goto 0 }")
    tree = ConstraintTree(elab, TRUE_PRE)
    outcome = run_test(T.TestInput({}, {}, "t"), tree, step_budget=50)
    assert outcome.kind == "budget"


ALLOCATIONS = [
    ("data C { int v; }\nproc f(a: int) { 0: p := new C(a)  1: w := p.v }", {"a": 5}),
    # a variable among its own allocation arguments: the cell holds p's old value
    ("data C { int v; C next; }\n"
     "proc f(a: int, p: C) { 0: p := new C(a, p)  1: w := p.v }", {"a": 5, "p": None}),
]


def test_allocation_adds_points_to():
    for text, bindings in ALLOCATIONS:
        elab = trivial_program(text)
        tree = ConstraintTree(elab, TRUE_PRE)
        outcome = run_test(T.TestInput({}, bindings, "t"), tree)
        assert outcome.kind == "ok"
        new_node = tree.nodes[tree.root.children["new"]]
        (heap,) = new_node.delta.heaps
        (pt,) = heap.points_tos()
        p = new_node.delta.current["p"]
        assert p != "p" and pt == F.PointsTo(p, "C", tuple(F.Var(a) for a in bindings))
        # the later read goes through the new symbol, as its placeholder
        (read,) = tree.nodes[-1].delta.atoms
        assert read.pure.right == F.Var(f"{p}.v") and read.reads == ((p, "v"),)


# -------------------------------------------------------------- preprocess


APP3 = [EBin("=", EVar("t"), EVar("this_root")), EUn("!", EBin("=", EVar("t"), ENull())),
        EBin("<", EVar("x"), EField("t", "element"))]


def app3_path_condition(bst_pre):
    pc = C.initial_path_condition(bst_pre)
    for cond in APP3:
        pc = pc.conjoin(cond)
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
    for cond in APP3:  # no variable is assigned, so each atom reads these names
        assert eval_expr(stack, cond) is True


def test_constant_boolean_slot_read_in_a_guard_is_decided(tmp_path):
    # p.b reads the slot constant 1, so the then-condition is 1 = 1 and the
    # else-branch is infeasible: pruned, not left unresolved.
    spec = tmp_path / "c.sl"
    spec.write_text("data C { bool b; C next; }\n"
                    "pre f == exists x . p -> C(1, x) * q(x) ;\n"
                    "pred q(x) == (emp & x = null) ;\n")
    prog = tmp_path / "c.ir"
    prog.write_text("proc f(p: C) { 0: if p.b then goto 1 else goto 1 }")
    report = run_pipeline(spec, prog, "f").report
    assert (report.unresolved_nodes, report.pruned_nodes) == (0, 1)


@pytest.mark.parametrize("write", ["0: p.b := a < 3", "0: v := a < 3  1: p.b := !v"])
def test_boolean_value_written_to_a_field_is_explored(write, tmp_path):
    # The write converts like an assignment, fresh slot symbol = 1 iff the
    # value, so the guard on the slot reaches the solver on both sides.
    spec = tmp_path / "c.sl"
    spec.write_text("data C { bool b; C next; }\n"
                    "pre f == exists x . p -> C(false, x) * q(x) ;\n"
                    "pred q(y) == emp & y = null ;\n")
    n = write.count(":=")
    prog = tmp_path / "c.ir"
    prog.write_text(f"proc f(p: C, a: int) {{ {write}  {n}: if p.b then goto {n + 1} "
                    f"else goto {n + 2}  {n + 1}: r := 1  {n + 2}: r := 2 }}")
    report = run_pipeline(spec, prog, "f").report
    assert report.feasible_covered == 2 and report.unresolved_nodes == 0


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


def pipeline(tmp_path, spec_text, program_text, entry, **options):
    (tmp_path / "s.sl").write_text(spec_text)
    (tmp_path / "p.ir").write_text(program_text)
    return run_pipeline(tmp_path / "s.sl", tmp_path / "p.ir", entry, **options)


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


SLL_SPEC = """
data SNode { int val; SNode next; }
pred sll(x) == (emp & x = null) \\/ (exists v, n . x -> SNode(v, n) * sll(n)) ;
pre f == sll(root) ;
"""


@pytest.mark.parametrize("body", [
    # the guard reads the new x: x = x + 1 must not be conjoined
    "0: x := x + 1\n  1: if x = 5 then goto 2 else goto 3\n  2: v := 1\n",
    # y holds the entry x, which the model must bind, not x's current 0
    "0: y := x\n  1: x := 0\n  2: if y = 5 then goto 3 else goto 4\n  3: v := 1\n",
], ids=["self-referential", "reassigned-parameter"])
def test_reassigned_parameter_branches_are_both_covered(tmp_path, body):
    result = pipeline(tmp_path, SLL_SPEC, f"proc f(root: SNode, x: int) {{\n  {body}}}\n", "f")
    report = result.report
    assert (report.pruned_nodes, report.unresolved_nodes) == (0, 0)
    assert report.covered_branches == report.total_branches == 2


def random_int_program(rng):
    """A small loop-free goto program over two or three int parameters:
    self-referential and parameter reassignments, and one or two forward
    conditionals."""
    params = ["a", "b", "c"][:rng.choice([2, 3])]

    def term():
        v, w, k = rng.choice(params), rng.choice(params), rng.randint(0, 3)
        return rng.choice([f"{v}", f"{k}", f"{v} + {k}", f"{v} - {w}",
                           f"{v} + {w}", f"2 * {v} - {w}"])

    n = rng.randint(3, 6)
    conds = set(rng.sample(range(n - 1), rng.choice([1, 2])))
    stmts = []
    for i in range(n):
        if i in conds:
            op = rng.choice(["=", "!=", "<", "<="])
            stmts.append(f"if {term()} {op} {term()} then goto {i + 1} "
                         f"else goto {rng.randint(i + 2, n)}")
        else:
            v = rng.choice(params)
            stmts.append(rng.choice([f"{v} := {v} + {rng.randint(1, 2)}",
                                     f"{v} := {term()}"]))
    signature = ", ".join(f"{p}: int" for p in params)
    lines = "".join(f"  {i}: {st}\n" for i, st in enumerate(stmts))
    return params, f"proc f({signature}) {{\n{lines}}}\n"


def edge_path(tree, node):
    """The rule labels from the root down to ``node``: the same in any
    tree of the program, unlike node ids."""
    labels = []
    while node.parent is not None:
        labels.append(node.edge)
        node = tree.nodes[node.parent]
    return tuple(reversed(labels))


def test_pruned_nodes_are_unreachable_within_the_domain(tmp_path):
    # Pruned means infeasible: no parameter assignment in the integer
    # domain may reach a node that exploration pruned.
    rng, domain = random.Random(12), (-3, 3)
    spec_text = "pre f == emp & true ;\n"
    pre = F.parse_spec(spec_text).preconditions["f"]
    pruned_total = 0
    for _ in range(50):
        params, text = random_int_program(rng)
        result = pipeline(tmp_path, spec_text, text, "f", int_domain=domain)
        pruned = {edge_path(result.tree, n) for n in result.tree.nodes
                  if n.status == "pruned"}
        pruned_total += len(pruned)
        fresh = ConstraintTree(result.tree.program, pre)
        for values in itertools.product(range(domain[0], domain[1] + 1),
                                        repeat=len(params)):
            run_test(T.TestInput({}, dict(zip(params, values)), "all"), fresh)
        reached = {edge_path(fresh, n) for n in fresh.nodes if n.flag}
        assert not pruned & reached, text
    assert pruned_total > 0  # the programs do have infeasible branches


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


def delta_names(delta):
    """Every symbol a path condition mentions: free in a heap or in an atom,
    where a read's placeholder ``v.f`` mentions ``v``."""
    names = set().union(*(F.free_vars(d) for d in delta.heaps))
    for atom in delta.atoms:
        if not isinstance(atom.pure, str):
            names |= {name.split(".")[0] for name in F.pure_vars(atom.pure)}
        names |= {var for var, _ in atom.reads + ((atom.store,) if atom.store else ())}
    return names


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
            assert shape([F.print_heap(heap), str(got.model)], delta_names(delta)) == \
                shape([F.print_heap(want), str(again.model)], delta_names(delta))


# ------------------------------------------------ resumed field elimination


def force_restart(monkeypatch):
    """Make every unfolded child of field elimination that separation keeps
    start over from the first atom (``_Elimination.start``): the
    from-scratch reference that carrying the parent's state must match."""
    resumed = C._Elimination.resumed
    monkeypatch.setattr(C._Elimination, "resumed", lambda self, child, defs: (
        resumed(self, child, defs) and C._Elimination.start(child, self.atoms, defs)))


def heaps_and_drops(delta, spec, unfold_budget):
    drops = []
    heaps = [F.print_heap(h) for h in C.field_free_heaps(delta, spec, unfold_budget, drops)]
    keep = delta_names(delta)
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


def record_carried(monkeypatch):
    """Each unfolded child of field elimination in order, with whether it
    was carried (True) or dropped by separation (False)."""
    children, resumed = [], C._Elimination.resumed

    def recorded(self, child, defs):
        state = resumed(self, child, defs)
        children.append((child, state is not None))
        return state

    monkeypatch.setattr(C._Elimination, "resumed", recorded)
    return children


def scratch_heaps_of_dropped(children, pc, spec):
    """The heaps that field elimination from the first atom yields for the
    dropped children; each must have no model, and not only within the
    finite integer domain."""
    dropped = [child for child, carried in children if not carried]
    heaps = [h for child in dropped for h in C._preprocess_heap(child, pc.atoms, spec, 6, [])]
    for heap in heaps:
        result = S.sat(heap, spec)
        assert result.decision == "unsat" and not result.stats.bounded
    return heaps


RESTART_SPEC = """
data N { int val; N next; }
pred nulls(y, x) == (exists w . y -> N(w, null) & x = null) \\/ (exists w . y -> N(w, null)) ;
pred joins(c, b, a) == (exists w . c -> N(w, null) & b = a) \\/ (exists w . c -> N(w, null)) ;
"""


@pytest.mark.parametrize("heap, first_read, scratch", [
    # Unfolding nulls(y, x) makes x, the base of the resolved read, null.
    ("x -> N(1, null) * nulls(y, x)", EField("x", "val"), 1),
    # Unfolding joins(c, b, a) aliases b to a, whose slot comes first.
    ("a -> N(1, null) * b -> N(2, null) * joins(c, b, a)", EField("b", "val"), 2),
])
def test_unfold_that_changes_a_resolved_read_restarts(heap, first_read, scratch,
                                                        monkeypatch):
    # Such an unfold puts a points-to head in null's or another head's
    # class, so separation drops the child; from scratch it yields only
    # heaps without a model (``scratch`` counts all children's heaps).
    spec = F.parse_spec(RESTART_SPEC)
    base = first_read.var
    pc = PathCondition((F.parse_heap(heap),), ())
    pc = pc.conjoin(EBin("=", first_read, EConst(2)))
    pc = pc.conjoin(EBin("=", EField("y" if base == "x" else "c", "val"), EConst(3)))
    children = record_carried(monkeypatch)
    got = heaps_and_drops(pc, spec, 6)
    # The first child is dropped, the second resumes.
    assert [carried for _, carried in children] == [False, True]
    assert len(got[0]) == 1 and got[1] == []
    assert len(got[0]) + len(scratch_heaps_of_dropped(children, pc, spec)) == scratch
    force_restart(monkeypatch)
    assert got == heaps_and_drops(pc, spec, 6)


@pytest.mark.parametrize("heap, carried_expected", [
    # p's slot comes before h's: once a.next = h resolves to p = h, the
    # read h.val would choose p's slot.
    ("p -> N(1, null) * h -> N(2, null) * a -> N(3, p) * nulls(y, x)", [False, False]),
    # p's slot comes after h's: h.val would keep its slot.
    ("h -> N(2, null) * p -> N(1, null) * a -> N(3, p) * nulls(y, x)", [False, False]),
])
def test_read_whose_class_grew_by_an_absorbed_equality_is_rechecked(heap, carried_expected,
                                                                   monkeypatch):
    # Either way p = h puts two points-to heads in one class, so separation
    # drops both children of nulls(y, x); from scratch each yields one heap
    # without a model.
    spec = F.parse_spec(RESTART_SPEC)
    pc = PathCondition((F.parse_heap(heap),), ())
    pc = pc.conjoin(EBin("=", EField("h", "val"), EConst(2)))
    pc = pc.conjoin(EBin("=", EField("a", "next"), EVar("h")))  # resolves to p = h
    pc = pc.conjoin(EBin("=", EField("y", "val"), EConst(3)))  # needs nulls(y, x) unfolded
    children = record_carried(monkeypatch)
    got = heaps_and_drops(pc, spec, 6)
    assert [carried for _, carried in children] == carried_expected
    assert got == ([], []) and len(scratch_heaps_of_dropped(children, pc, spec)) == 2
    force_restart(monkeypatch)
    assert got == heaps_and_drops(pc, spec, 6)


@pytest.mark.parametrize("heap, drops", [
    # Each child of nulls(y, x) reaches the nonlinear atom and drops there.
    ("a -> N(1, null) * nulls(y, x)", 2),
    # The read's base is null, so the branch is discarded before the atom.
    ("a -> N(1, null) & y = null", 0),
])
def test_field_free_atom_outside_the_fragment_drops_where_it_is_reached(heap, drops,
                                                                        monkeypatch):
    spec = F.parse_spec(RESTART_SPEC)
    pc = PathCondition((F.parse_heap(heap),), ())
    pc = pc.conjoin(EBin("=", EField("a", "val"), EConst(1)))
    pc = pc.conjoin(EBin("=", EField("y", "val"), EConst(3)))
    pc = pc.conjoin(EBin("=", EBin("*", EVar("x"), EVar("z")), EConst(2)))
    reasons = []
    assert list(C.field_free_heaps(pc, spec, 6, reasons)) == []
    assert reasons == ["nonlinear product: x * z"] * drops
    got = heaps_and_drops(pc, spec, 6)
    force_restart(monkeypatch)
    assert got == heaps_and_drops(pc, spec, 6)


def test_product_of_two_reads_is_linear_when_a_slot_is_constant():
    # a.val reads the constant 3, so the guard a.val * b.val = 6 and the
    # write b.val := b.val * a.val convert once their reads have slots; the
    # product of two variable slots still drops as nonlinear.
    spec = F.parse_spec(RESTART_SPEC)
    pc = PathCondition((F.parse_heap("a -> N(3, null) * b -> N(w, null)"),), ())
    product = EBin("*", EField("a", "val"), EField("b", "val"))
    pc = pc.conjoin(EBin("=", product, EConst(6)))
    pc = pc.store("b", "val", EBin("*", EField("b", "val"), EField("a", "val")))
    reasons = []
    [out] = C.field_free_heaps(pc, spec, 6, reasons)
    guard, write = out.pure[-2:]
    assert reasons == [] and guard == F.Atom("=", F.Scale(3, F.Var("w")), F.Const(6))
    assert write.right == F.Scale(3, F.Var("w"))
    result = S.sat(out, spec)
    assert result.is_sat and F.Atom("=", F.Var("w"), F.Const(2)) in result.model.heap.pure
    pc = pc.conjoin(EBin("=", EBin("*", EField("b", "val"), EField("b", "val")), EConst(4)))
    assert list(C.field_free_heaps(pc, spec, 6, reasons)) == []
    assert reasons == ["nonlinear product: b.val * b.val"]


def test_written_values_do_not_join_alias_classes():
    # Each write equates its own fresh slot symbol with its value; the two
    # writes' values a and b must stay apart, so b.val reads b's slot.
    spec = F.parse_spec(RESTART_SPEC)
    pc = PathCondition((F.parse_heap("a -> N(1, null) * b -> N(2, null)"),), ())
    pc = pc.store("a", "next", EVar("b")).store("b", "next", EVar("a"))
    pc = pc.conjoin(EBin("=", EField("b", "val"), EConst(2)))
    [out] = C.field_free_heaps(pc, spec, 6, [])
    assert out.pure[-1] == F.Atom("=", F.Const(2), F.Const(2))


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_field_elimination_converts_no_expression(name, monkeypatch, tmp_path):
    # Each atom is converted when its node is made; field elimination only
    # substitutes slot terms into it.
    spec, bench, result = gated_run(name, tmp_path)
    deltas = [n.delta for n in result.tree.nodes]
    before = [heaps_and_drops(delta, spec, bench.solver_depth) for delta in deltas]

    def refuse(e):
        raise AssertionError("field elimination converted an expression")

    monkeypatch.setattr(C, "expr_to_pure", refuse)
    monkeypatch.setattr(C, "_expr_to_term", refuse)
    assert before == [heaps_and_drops(delta, spec, bench.solver_depth) for delta in deltas]


# Field-elimination states (``_preprocess_heap`` calls) of each gated run,
# a work count that a change to field elimination must not raise.
PREPROCESS_HEAP_CALLS = {"sll": 122, "dll": 0, "stack": 0, "bst": 149, "tll": 589,
                         "sortedlist": 30}


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_field_elimination_states_per_gated_run(name, monkeypatch, tmp_path):
    preprocess_heap, count = C._preprocess_heap, [0]

    def counted(*args):
        count[0] += 1
        return preprocess_heap(*args)

    monkeypatch.setattr(C, "_preprocess_heap", counted)
    gated_run(name, tmp_path)
    assert count[0] == PREPROCESS_HEAP_CALLS[name]
