"""Assertion-language AST, parser, substitution, and the separation laws
unfolding applies."""

import itertools
import random

import pytest

from slc import formulas as F
from slc import solver as S
from slc import testgen as T
from slc.formulas import (
    Add,
    Atom,
    Const,
    Neg,
    Not,
    Null,
    PredInst,
    Scale,
    SymbolicHeap,
    Var,
)
from slc.lexer import ParseError
from slc.solver import unfold_at


def heap(text):
    return F.parse_heap(text)


# ---------------------------------------------------------------- parsing


def test_parse_bst_definition(bst_spec):
    pred = bst_spec.preds["bst"]
    assert pred.params == ("root", "minE", "maxE")
    base, inductive = pred.body.disjuncts
    assert base.is_base()
    assert base.atoms == ()
    assert base.pure == (Atom("=", Var("root"), Null()),)
    assert not inductive.is_base()
    assert len(inductive.instances()) == 2
    assert [p.type_name for p in inductive.points_tos()] == ["BinaryNode"]
    assert inductive.exists == ("elt", "l", "r")


def test_parse_minimal_predicate():
    spec = F.parse_spec("pred p(x) == emp & x = null ;")
    pred = spec.preds["p"]
    assert len(pred.body.disjuncts) == 1
    assert pred.body.disjuncts[0].is_base()


def test_unknown_predicate_rejected():
    with pytest.raises(F.SpecError, match="unknown predicate"):
        F.parse_spec("pred p(x) == q(x) ;")


def test_points_to_arity_checked():
    text = """
    data N { int v; N next; }
    pred p(x) == x -> N(1) ;
    """
    with pytest.raises(F.SpecError, match="expects 2 fields"):
        F.parse_spec(text)


def test_predicate_arity_checked():
    text = """
    pred p(x) == emp & x = null ;
    pre f == p(a, b) ;
    """
    with pytest.raises(F.SpecError, match="expects 1 arguments"):
        F.parse_spec(text)


def test_duplicate_definitions_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        F.parse_spec("pred p(x) == emp & x = null ;\npred p(y) == emp & y = null ;")


def test_predicate_needs_base_disjunct():
    with pytest.raises(F.SpecError, match="no base disjunct"):
        F.parse_spec("pred p(x) == p(x) ;")


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        F.parse_spec("pred p(x == emp ;")
    assert err.value.line == 1


def test_comparison_desugaring():
    d = heap("emp & a < b & c >= d & e != f")
    parts = list(F.conjuncts(d.pure))
    assert parts[0] == Not(Atom("<=", Var("b"), Var("a")))
    assert parts[1] == Atom("<=", Var("d"), Var("c"))
    assert parts[2] == Not(Atom("=", Var("e"), Var("f")))


def test_conjuncts_flattens_long_chains_in_order():
    # A conjunction as long as a path condition, flat or left-nested.
    parts = [Atom("=", Var(f"x{i}"), Const(i % 100)) for i in range(1500)]
    assert F.conj(parts) == tuple(parts)
    assert F.conjuncts(F.conj(parts)) == parts
    nested = parts[0]
    for p in parts[1:]:
        nested = F.And(nested, p)
    assert F.conjuncts(nested) == parts
    a, b, c = parts[:3]
    assert F.conjuncts(F.And(F.And(a, F.TRUE), F.And(b, c))) == [a, b, c]
    assert F.conj([(a,), F.And(F.TRUE, b), F.TRUE, c]) == (a, b, c)
    assert F.conjuncts(F.TRUE) == []
    assert F.conjuncts(a) == [a]


def test_scaled_term_requires_constant_coefficient():
    d = heap("emp & 2 * x <= y + 1")
    atom = next(iter(F.conjuncts(d.pure)))
    assert atom.left == F.Scale(2, Var("x"))
    assert atom.right == Add(Var("y"), Const(1))


def test_constant_range_checked():
    with pytest.raises(ParseError):
        F.parse_heap("emp & x = 3000000000")


# ----------------------------------------------------- print round-trips


ROUND_TRIP = [
    "emp & true",
    "emp & x = null",
    "exists v, n . root -> SNode(v, n) * sll(n) & true",
    "x -> C(a, b) * y -> C(c, d) & a < b & !(c = d & b <= a)",
    "emp & -x + 2 * y <= 3 - z",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_heap_print_parse_round_trip(text):
    d = heap(text)
    assert F.parse_heap(F.print_heap(d)) == d


# ------------------------------------------------------------ free vars


def test_free_vars_exclude_bound():
    d = heap("exists elt . root -> BinaryNode(elt, l, r) & true")
    assert F.free_vars(d) == {"root", "l", "r"}


def test_free_vars_empty_heap():
    assert F.free_vars(heap("emp & true")) == set()


def test_variable_order():
    # term_vars keeps repeats; heap_vars takes each name once, the conjuncts'
    # before the atoms', each head before its arguments, binders included.
    assert F.term_vars(Add(Var("x"), Var("x"))) == ["x", "x"]
    d = heap("exists u . p(w, u) * t -> C(s, t) & z = y & !(a + b <= a & y = c)")
    assert F.pure_vars(d.pure[1]) == ["a", "b", "y", "c"]
    assert F.heap_vars(d) == ["z", "y", "a", "b", "c", "w", "u", "t", "s"]


def test_fresh_var_distinct():
    a, b = F.fresh_var("v"), F.fresh_var("v")
    assert a != b


def test_fresh_var_avoids_parsed_names():
    F.register_name("v1")
    assert F.fresh_var("v") != "v1"


def test_fresh_names_never_repeat_and_only_registered_names_are_stored():
    # A name splits into one base (no trailing digit) and one counter, and
    # each base's counter only grows, so issued names need no record.
    registered = {"x1", "x3", "x12", "x13", "x121", "v2", "v10"}
    for name in registered:
        F.register_name(name)
    hints = itertools.islice(itertools.cycle(["x", "x1", "x12", "v"]), 10_000)
    issued = [F.fresh_var(hint) for hint in hints]
    assert issued[:6] == ["x2", "x4", "x5", "v1", "x6", "x7"]
    assert len(set(issued)) == len(issued)
    assert not set(issued) & registered
    assert F._session._seen == registered


# ------------------------------------------------------ ground evaluation

ADDR = object()  # stands for an address: any value that is neither int nor null

GROUND = [
    (Const(7), {}, 7),
    (Null(), {}, None),
    (Var("x"), {"x": 4}, 4),
    (Var("x"), {}, F.UNDEFINED),
    (Add(Var("x"), Const(1)), {}, F.UNDEFINED),
    (Add(Var("x"), Const(1)), {"x": None}, F.UNDEFINED),
    (Neg(Var("x")), {"x": None}, F.UNDEFINED),
    (Scale(2, Var("x")), {"x": ADDR}, F.UNDEFINED),
    (Add(Const(1), Var("x")), {"x": ADDR}, F.UNDEFINED),
    (Add(Scale(3, Var("x")), Neg(Const(2))), {"x": 5}, 13),
    (Neg(Var("b")), {"b": True}, -1),
    (Scale(3, Var("b")), {"b": True}, 3),
    (Add(Var("b"), Const(1)), {"b": True}, 2),
]


@pytest.mark.parametrize("term, env, expected", GROUND)
def test_eval_ground(term, env, expected):
    got = F.eval_ground(term, env)
    assert got is expected or (type(got) is int and got == expected)


# ---------------------------------------------------------- substitution


def subst(d, binding):
    """``d`` with ``binding`` applied to its atoms and conjuncts."""
    return SymbolicHeap(d.exists, F.subst_spatial(d.atoms, binding),
                        F.subst_pure(d.pure, binding))


def test_substitute_single_rename():
    d = heap("bst(l, minE, elt) & true")
    out = subst(d, {"l": Var("r")})
    assert out == heap("bst(r, minE, elt) & true")


def test_substitute_bst_body(bst_spec):
    inductive = bst_spec.preds["bst"].body.disjuncts[1]
    out = subst(inductive, {"root": Var("this_root")})
    assert out.points_tos()[0].var == "this_root"
    assert out.instances()[0].args[0] == Var("l")


def test_substitute_head_by_term_rejected():
    d = heap("x -> C(a) & true")
    with pytest.raises(F.SubstitutionError):
        F.subst_spatial(d.atoms, {"x": Const(3)})


def test_substitution_free_var_homomorphism():
    rng = random.Random(20)
    names = ["a", "b", "c", "d"]
    for _ in range(100):
        vars_in = rng.sample(names, 3)
        d = SymbolicHeap(
            (), (PredInst("p", tuple(Var(v) for v in vars_in)),),
            (Atom("<=", Var(vars_in[0]), Const(rng.randrange(5))),))
        v = rng.choice(names)
        t = Var(rng.choice(names))
        out = subst(d, {v: t})
        expected = set(F.free_vars(d))
        if v in expected:
            expected = (expected - {v}) | set(F.term_vars(t))
        assert F.free_vars(out) == expected


# ------------------------------------------- separation laws in unfold_at
#
# Unfolding joins a context heap with a predicate body by the two laws
#
#   (k1 & p1) * (k2 & p2)        ==  (k1 * k2) & (p1 & p2)
#   (ex w . D1) * (ex v . D2)    ==  ex w, v' . (D1 * D2[v'/v])
#
# Each test below puts the right-hand heap of a law in a one-disjunct
# predicate ``q`` and unfolds ``q`` inside the left-hand one.


def unfold_into(context, body, params=("x",), data="data C { int v; }"):
    """``context * body`` by unfolding a predicate ``q(params) == body``,
    which ``context`` holds as its last atom."""
    spec = F.parse_spec(f"{data}\npred q({', '.join(params)}) == {body} ;")
    d = F.parse_heap(context)
    return unfold_at(d, len(d.atoms) - 1, spec), spec


def test_normalize_axiom_one():
    # Atoms and conjuncts: the context's first, then the body's, in order.
    (out,), _ = unfold_into("y -> C(b) * q(x) & b = 0 & y != x",
                            "x -> C(a) & a <= 2 & 0 <= a", params=("x", "a"))
    assert out == heap("y -> C(b) * x -> C(a) & b = 0 & y != x & a <= 2 & 0 <= a")


def test_normalize_axiom_two_renames_clash():
    (out,), _ = unfold_into("exists a . x -> C(a) * q(y) & true",
                            "exists a . y -> C(a) & a <= 0", params=("y",))
    assert out.exists[0] == "a" and len(set(out.exists)) == 2
    pts = out.points_tos()
    assert pts[0].args != pts[1].args  # the body's binder got a fresh name
    assert out.pure == (Atom("<=", Var(out.exists[1]), Const(0)),)


def test_normalize_distributes_over_disjunction(bst_spec):
    # Unfolding the bst instance of the precondition yields one heap per
    # disjunct of the definition, each both laws applied by hand.
    pieces = unfold_at(heap("bst(this_root, minE, maxE) & true"), 0, bst_spec)
    assert len(pieces) == 2
    assert F.alpha_equal(pieces[0], heap("emp & this_root = null"))
    expected = heap(
        "exists elt, l, r . this_root -> BinaryNode(elt, l, r) * bst(l, minE, elt)"
        " * bst(r, elt, maxE) & minE < elt & maxE > elt")
    assert F.alpha_equal(pieces[1], expected)


def test_normalize_freshening_preserves_witnesses():
    # A concrete valuation of the composition is one of the joined heap,
    # cross-checked with the brute-force oracle.
    from slc import testgen as TG

    (merged,), spec = unfold_into("exists a . x -> C(a) * q(y) & a <= 2",
                                  "exists a . y -> C(a) & 0 <= a", params=("y",))
    assert TG.oracle_sat(merged, spec, 3, range(-2, 3))
    a1, a2 = TG.Addr(1, "C"), TG.Addr(2, "C")
    store = {a1: TG.HeapObject(a1, "C", {"v": 1}),
             a2: TG.HeapObject(a2, "C", {"v": 0})}
    assert TG.heap_satisfies(store, {"x": a1, "y": a2}, merged, spec)
    store[a2] = TG.HeapObject(a2, "C", {"v": -1})  # violates the body's 0 <= a
    assert not TG.heap_satisfies(store, {"x": a1, "y": a2}, merged, spec)


def test_normalize_output_is_grammar_conformant():
    spec = F.parse_spec("""
    data C { C v; }
    pred q(x) == (emp & x = null) \\/ (exists q . x -> C(q) * q(q) & q = null) ;
    """)
    frontier = [heap("exists q . y -> C(q) * q(x) * q(q) & z <= 1")]
    for _ in range(3):
        frontier = [child for h in frontier for i, a in enumerate(h.atoms)
                    if isinstance(a, PredInst) for child in unfold_at(h, i, spec)]
        for out in frontier:
            assert len(set(out.exists)) == len(out.exists)
            assert set(out.exists) <= set(F.heap_vars(out))
            assert all(isinstance(a, (F.PointsTo, PredInst)) for a in out.atoms)
            assert all(not isinstance(c, (F.And, F.TruePure)) for c in out.pure)
            assert F.parse_heap(F.print_heap(out)) == out


# ----------------------------------------------------- alpha equivalence


def test_alpha_equal_modulo_binder_names():
    a = heap("exists v . x -> C(v) & v <= 3")
    b = heap("exists w . x -> C(w) & w <= 3")
    assert F.alpha_equal(a, b)


def test_alpha_distinguishes_structure():
    a = heap("exists v . x -> C(v) & v <= 3")
    b = heap("exists v . x -> C(v) & v <= 4")
    assert not F.alpha_equal(a, b)


def test_dedup_heaps():
    a = heap("exists v . x -> C(v) & true")
    b = heap("exists u . x -> C(u) & true")
    c = heap("emp & x = null")
    assert F.dedup_heaps([a, b, c]) == [a, c]


# ----------------------------------------------------------- sort inference


def test_sorts_of_bst(bst_spec):
    sorts = F.infer_sorts(bst_spec)
    assert sorts["bst"] == ("BinaryNode", "int", "int")


def test_sort_clash_rejected():
    text = """
    data N { int v; N next; }
    pred p(x) == (emp & x = null) \\/ (exists n . x -> N(x, n) * p(n)) ;
    """
    with pytest.raises(F.SortError):
        F.parse_spec(text)


CLASH_DATA = "data N { int v; N next; }\ndata M { int w; M next; }\n"


@pytest.mark.parametrize("pred, message", [
    ("pred p(x) == (emp & x = null) \\/ (exists n . x -> N(x, n) * p(n)) ;",
     "pred p[1].v: variable x used both as N and as int"),
    ("pred q(x, y) == (emp & x = y & y = null) \\/ (exists n . x -> N(y, n) * q(n, y)) ;",
     "pred q[1].v: variable y used both as nullref and as int"),
    ("pred r(x) == (emp & x = null) \\/ (exists n, m . x -> N(0, n) * m -> M(0, null) & n = m) ;",
     "pred r: variable n@1 used both as N and as M"),
])
def test_sort_clash_names_its_position(pred, message):
    # A clash between two uses of a variable names the disjunct and field
    # of the use that makes it; a clash between the members of a class
    # names the predicate and the class's representative.
    with pytest.raises(F.SortError) as error:
        F.parse_spec(CLASH_DATA + pred)
    assert str(error.value) == message


@pytest.mark.parametrize("query, message", [
    ("x -> N(x, n) & true", "heap.v: variable x used both as N and as int"),
    ("x -> N(1, n) * m -> M(1, null) & n = m", "heap: variable n used both as N and as M"),
])
def test_heap_sort_clash_names_its_position(query, message):
    spec = F.parse_spec(CLASH_DATA)
    with pytest.raises(F.SortError) as error:
        F.heap_sorts(heap(query), spec, spec.param_sorts)
    assert str(error.value) == message
    with pytest.raises(F.SortError) as error:
        S.sat(heap(query), spec)
    assert str(error.value) == message


def test_parameter_sorts_inferred_once_per_spec(monkeypatch):
    # validate_spec keeps the parameter sorts on the spec; the solver and
    # the oracle read them there.
    calls = []
    infer = F.infer_sorts
    monkeypatch.setattr(F, "infer_sorts", lambda spec: calls.append(spec) or infer(spec))
    spec = F.parse_spec(CLASH_DATA + "pred ls(x) == (emp & x = null) \\/ "
                                     "(exists v, n . x -> N(v, n) * ls(n)) ;")
    query = heap("ls(p) & true")
    assert S.sat(query, spec).is_sat and S.sat(query, spec).is_sat
    assert T.oracle_sat(query, spec, 1, [0])
    assert calls == [spec]


def test_binder_named_like_a_parameter_is_sorted_apart():
    # Each disjunct's binders have classes of their own: the cell bound as
    # x sorts y, not the parameter x.
    text = ("data N { int v; N next; }\n"
            "pred shadow(x, y) == %s \\/ (exists x . x -> N(1, null) & x = y) ;")
    assert F.infer_sorts(F.parse_spec(text % "(emp & x = 3)"))["shadow"] == ("int", "N")
    assert F.infer_sorts(F.parse_spec(text % "(emp & x != x)"))["shadow"] == (None, "N")
