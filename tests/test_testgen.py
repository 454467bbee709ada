"""Input construction, predicate evaluation, generation, and the oracle."""

import hashlib

import pytest

from slc import formulas as F
from slc import solver as S
from slc import testgen as T
from slc.formulas import PredInst, Var
from slc.testgen import (
    Addr,
    GenStats,
    HeapObject,
    gen_from_spec,
    heap_satisfies,
    input_satisfies,
    oracle_enumerate,
    to_unit_test,
)

ENTRY = [("this_root", "BinaryNode"), ("x", "int")]


def model(text, sorts=None):
    return S.SymbolicModel(F.parse_heap(text), sorts or {})


# ---------------------------------------------------------- to_unit_test


def test_empty_tree_model(bst_spec):
    m = model("emp & this_root = null")
    test = to_unit_test(m, ENTRY, bst_spec)
    assert test.objects == {}
    assert test.bindings == {"this_root": None, "x": 0}


def test_one_node_model_wires_slots(bst_spec):
    m = model("this_root -> BinaryNode(elt, l, r) & elt = 1 & l = null & r = null")
    test = to_unit_test(m, ENTRY, bst_spec)
    (obj,) = test.objects.values()
    assert obj.fields == {"element": 1, "left": None, "right": None}
    assert test.bindings["this_root"] == obj.addr
    # the constructed input satisfies the model formula it came from
    assert T.heap_satisfies(test.objects, test.bindings, m.heap, bst_spec)


def test_scalar_only_model(bst_spec):
    m = model("emp & v = 5")
    test = to_unit_test(m, [("v", "int")], bst_spec)
    assert test.bindings == {"v": 5}


def test_alias_resolution_through_initialized_variable(bst_spec):
    m = model("this_root -> BinaryNode(elt, l, r) & elt = 0 & l = null & r = null"
              " & t = this_root")
    test = to_unit_test(m, [("t", "BinaryNode")], bst_spec)
    assert test.bindings["t"] == next(iter(test.objects))


def test_uninitialized_alias_class_allocates_default_object(bst_spec):
    m = model("emp & a = b", {"a": "BinaryNode", "b": "BinaryNode"})
    test = to_unit_test(m, [("a", "BinaryNode"), ("b", "BinaryNode")], bst_spec)
    assert test.bindings["a"] == test.bindings["b"]
    (obj,) = test.objects.values()
    assert obj.fields == {"element": 0, "left": None, "right": None}


def test_untyped_fresh_object_refused(bst_spec):
    m = model("emp & a = b")
    with pytest.raises(S.ModelError):
        to_unit_test(m, [("a", "BinaryNode")], bst_spec)


@pytest.mark.parametrize("slot", ["a + 1", "x + 1"])  # unbound; an address
def test_slot_term_without_value_refused(slot):
    spec = F.parse_spec("data C { int v; }")
    model = S.SymbolicModel(F.parse_heap(f"x -> C({slot}) & true"))
    with pytest.raises(S.ModelError):
        T.to_unit_test(model, [("x", "C")], spec)
    with pytest.raises(S.ModelError):
        S.concretize_model(model, spec)


def test_unreachable_objects_dropped(bst_spec):
    # Solver-internal objects not visible from the entry bindings (e.g.
    # program allocations) are not part of the input.
    m = model("this_root -> BinaryNode(elt, l, r) * ghost -> BinaryNode(e2, l2, r2)"
              " & elt = 0 & l = null & r = null & e2 = 0 & l2 = null & r2 = null")
    test = to_unit_test(m, ENTRY, bst_spec)
    assert len(test.objects) == 1


# ------------------------------------------------------- heap_satisfies

BST = F.SymbolicHeap((), (PredInst("bst", (Var("this_root"), Var("minE"), Var("maxE"))),), ())


def tree_input(spec, *nodes, root=None, x=0):
    objects = {}
    for ident, element, left, right in nodes:
        addr = Addr(ident, "BinaryNode")
        objects[addr] = HeapObject(addr, "BinaryNode", {
            "element": element,
            "left": None if left is None else Addr(left, "BinaryNode"),
            "right": None if right is None else Addr(right, "BinaryNode"),
        })
    bindings = {"this_root": None if root is None else Addr(root, "BinaryNode"),
                "x": x}
    return T.TestInput(objects, bindings, "manual")


def test_eval_pred_empty_store(bst_spec):
    test = tree_input(bst_spec)
    assert heap_satisfies(test.objects, test.bindings, BST, bst_spec)


def test_eval_pred_rejects_unordered_tree(bst_spec):
    test = tree_input(bst_spec, (1, 0, 2, None), (2, 5, None, None), root=1)
    assert not heap_satisfies(test.objects, test.bindings, BST, bst_spec)
    ordered = tree_input(bst_spec, (1, 0, 2, None), (2, -5, None, None), root=1)
    assert heap_satisfies(ordered.objects, ordered.bindings, BST, bst_spec)


def test_eval_pred_rejects_cycle(bst_spec):
    test = tree_input(bst_spec, (1, 0, 1, None), root=1)
    assert not heap_satisfies(test.objects, test.bindings, BST, bst_spec)


def test_eval_pred_demands_exact_footprint(bst_spec):
    # A store with a disconnected extra object does not satisfy emp-rooted
    # disjuncts: the whole heap is the footprint.
    test = tree_input(bst_spec, (1, 0, None, None), root=None)
    assert not heap_satisfies(test.objects, test.bindings, BST, bst_spec)


def test_input_satisfies_searches_ghost_witnesses(bst_spec, bst_pre):
    test = tree_input(bst_spec, (1, 0, 2, 3), (2, -7, None, None),
                      (3, 9, None, None), root=1)
    assert input_satisfies(test, bst_pre, bst_spec)


# ----------------------------------------------------------- gen_from_spec


def test_gen_bst_depth2(bst_spec, bst_pre):
    stats = GenStats()
    tests = gen_from_spec(list(bst_pre.disjuncts), 2, bst_spec, ENTRY, stats=stats)
    assert stats.solver_calls == 5
    assert len(tests) == 5
    sizes = sorted(len(t.objects) for t in tests)
    assert sizes == [0, 1, 1, 2, 2]
    assert all(input_satisfies(t, bst_pre, bst_spec) for t in tests)
    assert all(t.bindings["x"] == 0 for t in tests)


def test_gen_trivial_heap(bst_spec):
    tests = gen_from_spec([F.parse_heap("emp & true")], 0, bst_spec, ENTRY)
    assert len(tests) == 1
    assert tests[0].objects == {}
    assert tests[0].bindings == {"this_root": None, "x": 0}


def test_gen_unsatisfiable_yields_nothing(bst_spec):
    tests = gen_from_spec([F.parse_heap("emp & x = null & !(x = null)")],
                          3, bst_spec, ENTRY)
    assert tests == []


# ---------------------------------------------------------------- oracle


def test_oracle_bst_one_object(bst_spec):
    # minE < elt < maxE over [-1, 0, 1] leaves element 0 only: element -1
    # needs minE <= -2 and element 1 needs maxE >= 2. A null bound makes the
    # comparison ill-sorted, which is no model.
    inst = PredInst("bst", (Var("root"), Var("minE"), Var("maxE")))
    found = oracle_enumerate(bst_spec, inst, 1, [-1, 0, 1])
    shapes = sorted((len(t.objects),
                     tuple(sorted(o.fields["element"] for o in t.objects.values())))
                    for t in found)
    assert shapes == [(0, ()), (1, (0,))]


def test_oracle_unsatisfiable_body():
    spec = F.parse_spec("""
    data C { int v; }
    pred bad(x) == emp & x = null & !(x = null) ;
    """)
    assert oracle_enumerate(spec, PredInst("bad", (Var("x"),)), 2, [0]) == []


def test_oracle_sll_three_lengths():
    spec = F.parse_spec("""
    data SNode { int element; SNode next; }
    pred sll(root) == (emp & root = null)
                  \\/ (exists v, n . root -> SNode(v, n) * sll(n)) ;
    """)
    found = oracle_enumerate(spec, PredInst("sll", (Var("root"),)), 2, [0])
    assert sorted(len(t.objects) for t in found) == [0, 1, 2]


STORE_SPECS = {
    "sll": "data SNode { int element; SNode next; }",
    "dll": "data DNode { int v; DNode next; DNode prev; }",
    "mixed": "data B { bool flag; C link; int v; } data C { B back; bool on; }",
}


@pytest.mark.parametrize("spec, roots, max_objects, domain, count, digest", [
    ("sll", ("SNode",), 1, (-1, 0, 1), 7, "33be0ff300eef0bb"),
    ("sll", ("SNode",), 3, (0, 1), 49, "3f79fb40f1bfce86"),
    ("dll", ("DNode", "DNode"), 2, (0, 1), 889, "918c1d7a2fbe1231"),
    ("mixed", ("B", "C"), 3, (0,), 133, "5bdebfac2b2def39"),
])
def test_enum_stores_sequence_is_pinned(spec, roots, max_objects, domain, count, digest):
    # The oracle's store count is a work counter, so the enumeration must
    # yield the same stores, field order included, in the same order.
    h, n = hashlib.sha256(), 0
    for store, root_values in T._enum_stores(F.parse_spec(STORE_SPECS[spec]), list(roots),
                                             max_objects, list(domain)):
        n += 1
        line = ";".join(f"{a!r}={o.addr!r}:{o.type_name}{list(o.fields.items())!r}"
                        for a, o in store.items())
        h.update(f"{line}|{root_values!r}\n".encode())
    assert (n, h.hexdigest()[:16]) == (count, digest)


def test_enumerated_stores_do_not_share_field_dicts():
    spec = F.parse_spec(STORE_SPECS["dll"])
    stores = [store for store, _ in T._enum_stores(spec, ["DNode"], 2, [0, 1])]
    dicts = [obj.fields for store in stores for obj in store.values()]
    assert len(stores) == 189 and len({id(d) for d in dicts}) == len(dicts)


def test_shared_body_table_gives_the_answers_of_fresh_calls(bst_spec):
    # The oracle passes one table of renamed bodies to every store's call.
    # The n-th unfolding is bst(q, ...) on one store and a subtree of p on
    # another, so the table must tell the instances apart.
    d = F.parse_heap("bst(p, lo, hi) * bst(q, lo, hi) & lo = -2 & hi = 2")
    shared, answers = {}, []
    for store, (p, q) in T._enum_stores(bst_spec, ["BinaryNode"] * 2, 2, [-1, 0, 1]):
        env = {"p": p, "q": q}
        alone = heap_satisfies(store, env, d, bst_spec, [-2, -1, 0, 1, 2])
        answers.append(alone)
        assert heap_satisfies(store, env, d, bst_spec, [-2, -1, 0, 1, 2], shared) == alone
    assert (len(answers), sum(answers)) == (1981, 28)


def test_oracle_query_binders_are_not_captured_by_predicate_binders():
    # The query's binders v, n are chain's binders too. Were the query's
    # renamed v and n named like chain's renamed ones, the first unfolding
    # of chain(n) would be bound to the query's cell and find no model.
    spec = F.parse_spec("""
    data N { int v; N next; }
    pred chain(x) == (emp & x = null) \\/ (exists v, n . x -> N(v, n) * chain(n)) ;
    """)
    d = F.parse_heap("exists v, n . p -> N(v, n) * chain(n) & v = 2 & n != null")
    assert T.oracle_sat(d, spec, 2, range(-1, 3))
    a1, a2 = Addr(1, "N"), Addr(2, "N")
    store = {a1: HeapObject(a1, "N", {"v": 2, "next": a2}),
             a2: HeapObject(a2, "N", {"v": 0, "next": None})}
    assert heap_satisfies(store, {"p": a1}, d, spec)


def test_oracle_budget_guard(bst_spec):
    inst = PredInst("bst", (Var("root"), Var("minE"), Var("maxE")))
    with pytest.raises(T.OracleBudgetError):
        oracle_enumerate(bst_spec, inst, 5, [0])


def test_generated_tests_contained_in_oracle(bst_spec, bst_pre):
    # Depth-2 generation emits trees of at most two nodes with elements in
    # [-1, 1]; the oracle over that window must contain every one of them.
    tests = gen_from_spec(list(bst_pre.disjuncts), 2, bst_spec, ENTRY)
    inst = PredInst("bst", (Var("root"), Var("minE"), Var("maxE")))
    oracle = oracle_enumerate(bst_spec, inst, 2, range(-2, 3))
    signatures = set()
    for t in oracle:
        signatures.add(_shape_signature(t.objects, t.bindings["root"]))
    for t in tests:
        sig = _shape_signature(t.objects, t.bindings["this_root"])
        assert sig in signatures


def _shape_signature(objects, root):
    order = {}

    def visit(value):
        if value is None:
            return None
        if value not in order:
            order[value] = len(order)
            obj = objects[value]
            return (order[value], obj.fields["element"],
                    visit(obj.fields["left"]), visit(obj.fields["right"]))
        return order[value]

    return visit(root)


# ----------------------------------------------------- random baseline


def test_random_baseline_deterministic(random_baseline):
    one = random_baseline(ENTRY, 5, seed=3)
    two = random_baseline(ENTRY, 5, seed=3)
    assert [t.bindings for t in one] == [t.bindings for t in two]
    assert all(t.bindings["this_root"] is None for t in one)
    assert all(-64 <= t.bindings["x"] <= 63 for t in one)
