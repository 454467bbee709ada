"""Predicate unfolding against the worked bst example."""

import pytest

from slc import formulas as F
from slc import solver as S
from slc.solver import unfold_at
from slc.testgen import unfold_round
from slc.unfold import unfold_closure

# The six depth-2 unfoldings of bst(this_root, minE, maxE), written out.
ITEM = {
    1: "emp & this_root = null",
    2: """exists elt, l, r . this_root -> BinaryNode(elt, l, r)
          * bst(l, minE, elt) * bst(r, elt, maxE)
          & minE < elt & maxE > elt""",
    3: """exists elt, l, r . this_root -> BinaryNode(elt, l, r)
          * bst(r, elt, maxE) & l = null & minE < elt & maxE > elt""",
    4: """exists elt, l, r, elt1, l1, r1 . this_root -> BinaryNode(elt, l, r)
          * l -> BinaryNode(elt1, l1, r1)
          * bst(r, elt, maxE) * bst(l1, minE, elt1) * bst(r1, elt1, elt)
          & minE < elt & maxE > elt & minE < elt1 & elt > elt1""",
    5: """exists elt, l, r . this_root -> BinaryNode(elt, l, r)
          * bst(l, minE, elt) & r = null & minE < elt & maxE > elt""",
    6: """exists elt, l, r, elt2, l2, r2 . this_root -> BinaryNode(elt, l, r)
          * r -> BinaryNode(elt2, l2, r2)
          * bst(l, minE, elt) * bst(l2, elt, elt2) * bst(r2, elt2, maxE)
          & minE < elt & maxE > elt & elt < elt2 & maxE > elt2""",
}


def items(*ns):
    return [F.parse_heap(ITEM[n]) for n in ns]


def match_sets(got, expected):
    assert len(got) == len(expected), (
        f"{len(got)} heaps != {len(expected)}: " +
        " | ".join(F.print_heap(h) for h in got))
    for g, e in zip(got, expected):
        assert F.alpha_equal(g, e), f"{F.print_heap(g)}  !=  {F.print_heap(e)}"


@pytest.fixture
def pre(bst_pre):
    return list(bst_pre.disjuncts)


def test_unfold_precondition_gives_base_and_inductive(pre, bst_spec):
    out = unfold_at(pre[0], 0, bst_spec)
    match_sets(out, items(1, 2))


def test_unfold_single_disjunct_predicate():
    spec = F.parse_spec("pred p(x) == emp & x = null ;")
    d = F.parse_heap("p(x) & true")
    out = unfold_at(d, 0, spec)
    assert len(out) == 1
    assert F.alpha_equal(out[0], F.parse_heap("emp & x = null"))


def test_unfold_left_instance_of_item2(pre, bst_spec):
    item2 = unfold_at(pre[0], 0, bst_spec)[1]
    # the left bst instance is spatial atom 1 (after the points-to)
    out = unfold_at(item2, 1, bst_spec)
    match_sets(out, items(3, 4))


def test_unfold_all_base_heap_passes_through(bst_spec):
    base = F.parse_heap("emp & this_root = null")
    assert unfold_round([base], bst_spec) == [base]


def test_unfold_all_item2_gives_items_3_to_6(pre, bst_spec):
    item2 = unfold_at(pre[0], 0, bst_spec)[1]
    out = unfold_round([item2], bst_spec)
    match_sets(out, items(3, 4, 5, 6))


def test_unfold_all_count_tracks_disjunct_count():
    spec = F.parse_spec("""
    pred three(x) == (emp & x = 0) \\/ (emp & x = 1) \\/ (emp & x = 2) ;
    """)
    out = unfold_round([F.parse_heap("three(x) & true")], spec)
    assert len(out) == 3


def test_unfold_at_count_equals_disjunct_count(pre, bst_spec):
    assert len(unfold_at(pre[0], 0, bst_spec)) == 2


def test_closure_cardinalities(pre, bst_spec):
    assert len(unfold_closure(pre, 0, bst_spec)) == 0
    assert len(unfold_closure(pre, 1, bst_spec)) == 2
    assert len(unfold_closure(pre, 2, bst_spec)) == 6


def test_closure_depth2_matches_published_unfoldings(pre, bst_spec):
    got = unfold_closure(pre, 2, bst_spec)
    match_sets(got, items(1, 2, 3, 4, 5, 6))


def test_unfolding_under_approximates(pre, bst_spec):
    # Every model of an unfolded heap is a model of what it unfolds.
    item2 = unfold_at(pre[0], 0, bst_spec)[1]
    for child in unfold_round([item2], bst_spec):
        result = S.sat(child, bst_spec)
        assert result.is_sat
        assert S.model_check(result.model, child, bst_spec)
        assert S.model_check(result.model, item2, bst_spec)
        assert S.model_check(result.model, pre[0], bst_spec)


def test_duplicate_heaps_deduplicated():
    spec = F.parse_spec("""
    pred p(x) == (emp & x = null) \\/ (emp & x = null) ;
    """)
    out = unfold_round([F.parse_heap("p(x) & true")], spec)
    assert len(out) == 1
