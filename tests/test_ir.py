"""Intermediate language: parsing, validation, call frames."""

import pytest

from slc import concolic as C
from slc import formulas as F
from slc import ir
from slc import testgen as T
from slc.cli import corpus_path
from slc.ir import (
    EConst,
    EVar,
    ProgramError,
    SAssert,
    SAssign,
    elaborate,
    parse_program,
    print_program,
)
from slc.lexer import ParseError


def bst_program():
    spec = F.parse_spec(corpus_path("bst.sl").read_text())
    return parse_program(corpus_path("bst.ir").read_text(), datas=spec.datas)


def run(text, bindings=None, inline_depth=8):
    """Run the first procedure of ``text`` once on ``bindings``."""
    program = parse_program(text)
    elab = elaborate(program, next(iter(program.procs)), inline_depth)
    tree = C.ConstraintTree(elab, F.Formula((F.parse_heap("emp & true"),)))
    outcome = C.run_test(T.TestInput({}, bindings or {}, "t"), tree)
    return outcome, tree


# ---------------------------------------------------------------- parsing


def test_parse_bst_port_has_two_procedures():
    program = bst_program()
    assert list(program.procs) == ["remove", "findMin"]
    assert program.procs["remove"].params == (("this_root", "BinaryNode"),
                                              ("x", "int"))
    assert len(program.procs["remove"].stmts) == 27


def test_goto_to_end_means_termination():
    program = parse_program("proc f() { 0: goto 1 }")
    st = program.procs["f"].stmts[0]
    assert st == ir.SGoto(EConst(1))


def test_unknown_field_rejected():
    text = """
    data C { int v; }
    proc f(w: C) { 0: v := w.g }
    """
    with pytest.raises(ProgramError, match="unknown field"):
        parse_program(text)


def test_goto_target_out_of_range_rejected():
    with pytest.raises(ProgramError, match="outside"):
        parse_program("proc f() { 0: goto 5 }")


def test_unknown_callee_rejected():
    with pytest.raises(ProgramError, match="unknown procedure"):
        parse_program("proc f() { 0: call g() }")


def test_call_arity_checked():
    text = """
    proc g(a: int) { 0: ret := a }
    proc f() { 0: call r := g(1, 2) }
    """
    with pytest.raises(ProgramError, match="expects 1 arguments"):
        parse_program(text)


def test_mixed_type_comparison_rejected():
    text = "proc f(a: int, b: bool) { 0: c := a = b }"
    with pytest.raises(ProgramError, match="type mismatch"):
        parse_program(text)


def test_statement_indices_must_be_dense():
    with pytest.raises(ParseError, match="out of order"):
        parse_program("proc f() { 0: x := 1  2: y := 2 }")


def test_duplicate_field_in_program_data_rejected():
    with pytest.raises(ParseError, match="duplicate field 'v'"):
        parse_program("data C { int v; int v; }\nproc f() { 0: x := 1 }")


def test_program_data_conflicting_with_spec_rejected():
    datas = F.parse_spec("data C { int v; }").datas
    assert parse_program("data C { int v; }\nproc f() { 0: x := 1 }", datas).datas == datas
    with pytest.raises(ParseError, match="conflicting definition"):
        parse_program("data C { bool v; }\nproc f() { 0: x := 1 }", datas)


def test_result_from_procedure_without_ret_rejected():
    text = """
    proc g() { 0: x := 1 }
    proc f() { 0: call r := g() }
    """
    with pytest.raises(ProgramError, match="returns no value"):
        parse_program(text)


def test_program_print_parse_round_trip():
    program = bst_program()
    spec = F.parse_spec(corpus_path("bst.sl").read_text())
    reparsed = parse_program(print_program(program), datas=spec.datas)
    assert reparsed.procs == program.procs


# ------------------------------------------------------------ call frames


def test_elaborate_without_calls_is_identity():
    program = parse_program("proc f(a: int) { 0: b := a + 1  1: goto 2 }")
    elab = elaborate(program, "f")
    assert elab.stmts == program.procs["f"].stmts
    assert elab.procs == {"f": {0: program.procs["f"].stmts}}


def test_callee_locals_do_not_clobber_caller():
    text = """
    proc f(x: int) {
      0: b := x
      1: ret := 7
      2: call y := inc(b)
      3: assert b = x & ret = 7 & y = x + 1
    }
    proc inc(b: int) { 0: b := b + 1  1: ret := b }
    """
    outcome, tree = run(text, {"x": 3})
    assert outcome.kind == "ok"
    nodes = [n for n in tree.nodes if n.edge == "assign"]
    assigned = [n.delta.atoms[-1].pure.left.name for n in nodes]
    # parameter copy, callee body, result copy: each value its own symbol,
    # and each program variable's symbol found through ``current``
    variables = ["b", "ret", "b@1", "b@1", "ret@1", "y"]
    assert len(set(assigned)) == 6 and not set(assigned) & set(variables)
    assert [n.delta.current[v] for n, v in zip(nodes, variables)] == assigned
    assert nodes[-1].delta.current == {"b": assigned[0], "ret": assigned[1],
                                       "b@1": assigned[3], "ret@1": assigned[4],
                                       "y": assigned[5]}


@pytest.mark.parametrize("text", [
    # an unassigned ret must not read the previous call's result
    """
    proc f() { 0: call a := g(true)  1: call b := g(false) }
    proc g(c: bool) { 0: if c then goto 1 else goto 2  1: ret := 1 }
    """,
    # nor a local read before its assignment, even one of another procedure
    """
    proc f() { 0: call a := h()  1: call b := g(false) }
    proc h() { 0: t := 1  1: ret := t }
    proc g(c: bool) { 0: if c then goto 1 else goto 2  1: t := 2  2: ret := t }
    """,
], ids=["ret", "local"])
def test_each_call_starts_with_fresh_locals(text):
    outcome, _ = run(text)
    assert (outcome.kind, outcome.error) == ("error", "dangling")


def test_elaborate_recursion_cut_becomes_assert_false():
    text = "proc f(a: int) { 0: call r := f(a)  1: ret := r }"
    elab = elaborate(parse_program(text), "f", inline_depth=2)
    assert elab.procs["f"][2] == (SAssert(EConst(False)), SAssign("ret@2", EVar("r@2")))
    outcome, _ = run(text, {"a": 0}, inline_depth=2)
    assert outcome.kind == "assertion"
    assert outcome.pc == (("f", 0), ("f", 0), ("f", 0))
    assert str(outcome) == "assertion violation at f:0/f:0/f:0"


def test_goto_to_callee_end_continues_in_caller():
    text = """
    proc f() {
      0: call r := g()
      1: call g()
      2: assert r = 1
    }
    proc g() { 0: ret := 1  1: goto 3  2: ret := 2 }
    """
    outcome, tree = run(text)
    assert outcome.kind == "ok"
    assert [(n.edge, n.pc) for n in tree.nodes] == [
        ("", (("f", 0), ("g", 0))),
        ("assign", (("f", 0), ("g", 1))),
        ("goto:3", (("f", 0), ("g", 3))),  # the result copy
        ("assign", (("f", 1), ("g", 0))),
        ("assign", (("f", 1), ("g", 1))),
        ("goto:3", (("f", 2),)),  # no result: straight on in the caller
        ("assert", (("f", 3),)),
    ]


def test_computed_goto_with_calls_runs():
    text = """
    proc f(k: int) {
      0: goto k
      1: call a := g(k + 2)
      2: assert a = k
    }
    proc g(j: int) { 0: goto j  1: ret := 0  2: goto 5  3: ret := 1  4: goto 5 }
    """
    outcome, tree = run(text, {"k": 1})
    assert outcome.kind == "ok"
    assert {n.edge for n in tree.nodes} >= {"goto:1", "goto:3", "goto:5"}
    outcome, _ = run(text, {"k": 4})
    assert outcome.kind == "error" and outcome.error == "goto-out-of-range"


def test_computed_goto_allowed_without_calls():
    program = parse_program("proc f(k: int) { 0: goto k  1: v := 1 }")
    elab = elaborate(program, "f")
    assert elab.stmts == program.procs["f"].stmts


def test_elaborate_depth_controls_statement_count():
    program = bst_program()
    sizes = []
    for depth in (1, 3, 8):
        elab = elaborate(program, "remove", inline_depth=depth)
        bodies = [body for levels in elab.procs.values() for body in levels.values()]
        assert len(bodies) <= len(program.procs) * (depth + 1)
        sizes.append(sum(map(len, bodies)))
    assert sizes[0] < sizes[1] < sizes[2] <= 2 * 9 * 27
    assert list(elab.procs) == ["remove", "findMin"]


def test_renamed_copies_never_capture_frame_locals(bst_spec, monkeypatch):
    elab = elaborate(bst_program(), "remove")
    fresh = F.fresh_var
    issued = []

    def recording(hint="v"):
        issued.append((hint, fresh(hint)))
        return issued[-1][1]

    monkeypatch.setattr(F, "fresh_var", recording)
    r, n, l, m = (T.Addr(i, "BinaryNode") for i in range(1, 5))
    objects = {a: T.HeapObject(a, "BinaryNode", {"element": e, "left": left,
                                                 "right": right})
               for a, e, left, right in ((r, 5, None, n), (n, 7, l, m),
                                         (l, 6, None, None), (m, 8, None, None))}
    # remove@1 deletes n: findMin@2 binds t@2, then remove@2 reassigns it
    # while remove@1's t@1 is still live.
    test = T.TestInput(objects, {"this_root": r, "x": 7}, "t")
    tree = C.ConstraintTree(elab, bst_spec.preconditions["remove"])
    assert C.run_test(test, tree).kind == "ok"
    assert "t@2" in {hint for hint, _ in issued}
    frame_names = {ir.local_name(v, level) for v in
                   ("t", "this_root", "x", "ret", "nl", "nr", "m", "me", "nr2")
                   for level in range(9)}
    assert not {name for _, name in issued} & frame_names
