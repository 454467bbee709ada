"""Bounded heap satisfiability: separation, pure solving, models."""

import gc
import hashlib
import itertools
import random
import re
import time
import weakref
from types import SimpleNamespace

import pytest

from slc import formulas as F
from slc import solver as S
from slc import testgen as T
from slc.cli import BENCHMARKS, corpus_path, run_pipeline
from slc.formulas import Atom, Const, Not, Null, Var
from slc.solver import Budget, model_check, sat


def heap(text):
    return F.parse_heap(text)


EMPTY_SPEC = F.SpecFile()


STATE = S._state  # the check itself, which tests replace by wrappers


def on_path(d, path):
    """``d`` with the instances ``path`` added to its atoms: the instances
    unfolded on the way from a query to ``d``, whose uses of their
    arguments a check keeps."""
    return F.SymbolicHeap(d.exists, d.atoms + path, d.pure)


def scratch_state(d, defs, path=()):
    """The check state of ``d`` made from scratch: every cube checked
    without a parent, under the sort table of ``d`` and ``path``."""
    return STATE(on_path(d, path), defs)


def contradictory(d, defs, path=()):
    """The frontier check of ``d``, made from scratch."""
    return scratch_state(d, defs, path).contradictory


def path_of(above):
    """The instances unfolded on the way to the heap that ``above`` (a
    ``_state`` argument) made, from the path its parent's state carries."""
    return () if above is None else above[1].path + (above[2],)


def on_check(monkeypatch, hook):
    """Wrap S._state: each state it makes carries its heap's path (see
    path_of), and ``hook(d, defs, above, state)`` sees it."""
    check = S._state

    def checked(d, defs, above=None):
        state = check(d, defs, above)
        state.path = path_of(above)
        hook(d, defs, above, state)
        return state

    monkeypatch.setattr(S, "_state", checked)


# ----------------------------------------------------------- separation


def saturate(d):
    """Separation written out as pure facts, as base-heap solving once did:
    ``x != null`` for every points-to head of ``d`` and ``x != y`` for every
    pair of them, or None when the top-level equalities already alias two
    of null and the heads. A reference for the marked alias classes."""
    heads = [p.var for p in d.points_tos()]
    uf = S.alias_classes(S.pure_equalities(d.pure))
    if len({uf.find(name) for name in (S.NULL_KEY, *heads)}) <= len(heads):
        return None
    return [Not(Atom("=", Var(h), Null())) for h in heads] \
        + [Not(Atom("=", Var(a), Var(b))) for a, b in itertools.combinations(heads, 2)]


SEPARATION = F.parse_spec("data C { int v; }\npred p(x) == emp & x = null ;")


def test_saturate_adds_separation_facts():
    d = F.parse_heap("x -> C(a) * y -> C(b) & true")
    result = sat(d, SEPARATION)
    assert result.is_sat and model_check(result.model, d, SEPARATION)
    _, env = S.concretize_model(result.model, SEPARATION)
    assert None not in (env["x"], env["y"]) and env["x"] != env["y"]


def test_saturate_head_equal_null_contradicts():
    d = F.parse_heap("x -> C(a) & x = null")
    assert contradictory(d, SEPARATION)
    assert sat(d, SEPARATION).decision == "unsat"


def test_saturate_aliased_heads_contradict():
    d = F.parse_heap("x -> C(a) * y -> C(b) & x = y")
    assert contradictory(d, SEPARATION)
    assert sat(d, SEPARATION).decision == "unsat"


# ---------------------------------------------------------- pure solving


def solved(text, spec=EMPTY_SPEC):
    """sat on one base heap: its decision, the model's variable values (None
    without a model) and its statistics."""
    result = sat(heap(text), spec)
    values = result.model and S.concretize_model(result.model, spec)[1]
    return result.decision, values, result.stats


def test_pure_solve_interval_witness():
    decision, values, _ = solved("emp & minE < elt & maxE > elt")
    assert decision == "sat" and values["minE"] < values["elt"] < values["maxE"]
    assert values["elt"] == 0 and values["minE"] == -1 and values["maxE"] == 1


def test_pure_solve_loc_contradiction():
    # x != null makes x and y locations, so x = y & !(x = y) is a location
    # clash, found without the integer search.
    decision, _, stats = solved("emp & x = y & !(x = y) & x != null")
    assert decision == "unsat"
    assert stats.pure_nodes == 0 and not stats.bounded


def test_pure_solve_direct_binding():
    decision, values, _ = solved("emp & v = 5")
    assert decision == "sat" and values["v"] == 5


def test_pure_solve_unsat_outside_domain_is_bounded():
    decision, _, stats = solved("emp & 100 <= x")
    assert decision == "unsat"
    assert stats.bounded  # only the domain bound rules it out


def test_value_order_is_sorted_by_magnitude_negative_first():
    for lo, hi in itertools.product(range(-6, 7), repeat=2):
        expected = sorted(range(lo, hi + 1), key=lambda v: (abs(v), v > 0))
        assert list(S._value_order(lo, hi)) == expected, (lo, hi)


def test_value_order_is_lazy_on_a_wide_domain():
    values = S._value_order(-5 * 10**9, 5 * 10**9)
    assert list(itertools.islice(values, 5)) == [0, -1, 1, -2, 2]


def test_pure_solve_propagation_proves_independent_unsat():
    decision, _, stats = solved("emp & x <= 3 & 6 <= x")
    assert decision == "unsat"
    assert stats.pure_nodes == 0 and not stats.bounded


def test_pure_solve_smallest_witness_ties_negative():
    decision, values, _ = solved("emp & !(x = 0)")
    assert decision == "sat" and values["x"] == -1


# --------------------------------------------------------- alias_classes


def aliased(d, v1, v2):
    uf = S.alias_classes(S.pure_equalities(d.pure))
    return uf.find(v1) == uf.find(S.NULL_KEY if v2 is None else v2)


def test_alias_classes_transitive():
    d = heap("emp & t = this_root & this_root = u")
    assert aliased(d, "t", "this_root")
    assert aliased(d, "t", "u")


def test_alias_classes_null():
    d = heap("emp & x = null")
    assert aliased(d, "x", None)


def test_alias_classes_unrelated():
    d = heap("emp & x = y")
    assert not aliased(d, "x", "z")
    assert not aliased(d, "x", None)


def test_alias_classes_keep_earliest_added_representative():
    # The representative must not depend on the direction of an equality:
    # null is added first, and then each name where an equality first has it.
    for eq in ("y = x", "x = y"):
        uf = S.alias_classes(S.pure_equalities(heap(f"emp & x = z & {eq}").pure))
        assert uf.find("y") == "x"
    for eq in ("y = null", "null = y"):
        uf = S.alias_classes(S.pure_equalities(heap(f"emp & {eq}").pure))
        assert uf.find("y") == S.NULL_KEY


# ------------------------------------------------------ frontier pruning


def test_frontier_contradiction_is_domain_independent():
    spec = F.parse_spec("data C { int v; }\npred p(x) == emp & x = null ;")
    assert contradictory(heap("x -> C(a) * y -> C(b) * p(x) & x = y"), spec)
    assert contradictory(heap("p(y) & x <= 0 & 1 <= x"), spec)
    # Outside Budget()'s int domain (int_max 63), yet not contradictory:
    # pruning it would turn a domain limit into a verdict.
    assert Budget().int_max < 100
    assert not contradictory(heap("p(y) & x = 100"), spec)
    # Propagation pins x to 3, and the disequality over it fails.
    assert contradictory(heap("p(y) & x = 3 & x != 3"), spec)


CHAIN = """
data N { int v; N next; }
pred chain(x) == (emp & x = null) \\/ (exists v, n . x -> N(v, n) * chain(n)) ;
"""


def saturate_definition(d, defs, path=()):
    """The frontier check as saturate and _checked define it: saturate's
    pairwise disequalities join the pure part, no head is marked, and every
    DNF cube fails under the sorts of ``d`` and the instances ``path``
    unfolded on its way. It derives everything from scratch."""
    additions = saturate(d)
    if additions is None:
        return True
    sorts = F.heap_sorts(on_path(d, path), defs, defs.param_sorts)
    pure = F.conj([d.pure, *additions])
    return all(S._checked(cube, sorts, ()) is None for cube in S._nnf_cubes(pure))


def _random_heap_text(rng):
    locs, ints = ["p", "q", "r"], ["a", "b", "c"]
    atoms = [f"chain({rng.choice(locs)})" for _ in range(rng.randrange(1, 3))]
    if rng.random() < 0.3:
        atoms.insert(0, f"p -> N({rng.choice(ints)}, {rng.choice(locs + ['null'])})")
    lits = []
    for _ in range(rng.randrange(0, 5)):
        kind = rng.randrange(6)
        x, y = rng.choice(locs), rng.choice(locs + ["null"])
        a, b = rng.choice(ints), rng.choice(ints + ["1"])
        lits.append([f"{x} = {y}", f"{x} != {y}", f"!({x} != {y})", f"{a} <= {b}",
                     f"{a} < {b}", f"{rng.choice(locs + ints)} = {b}"][kind])
    return " * ".join(atoms) + " & " + (" & ".join(lits) or "true")


def record_checks(monkeypatch):
    """Every heap that sat checks, with the check's verdict and the
    saturate/_checked definition's over its path."""
    checks = []

    def recorded(d, defs, above, state):
        # sat checks with the frontier entry's link; the state it makes to
        # unfold an unchecked query has none.
        if above is not None:
            checks.append((F.print_heap(d), state.contradictory,
                           saturate_definition(d, defs, state.path)))

    on_check(monkeypatch, recorded)
    return checks


def definition_state(d, defs, above=None):
    """A check state made from scratch over the path's sorts, whose
    verdict is saturate_definition's."""
    path = path_of(above)
    state = scratch_state(d, defs, path)
    return SimpleNamespace(contradictory=saturate_definition(d, defs, path),
                           sorts=state.sorts, cubes=state.cubes, path=path)


def run_benchmark(name, out_dir, **overrides):
    bench = BENCHMARKS[name]
    settings = dict(unfold_depth=bench.unfold_depth, solver_depth=bench.solver_depth,
                    max_nodes=bench.max_nodes)
    settings.update(overrides)
    run_pipeline(corpus_path(bench.spec), corpus_path(bench.program), bench.entry,
                 out_dir=out_dir, **settings)


# The frontier check is incremental: each heap that unfold_at makes from a
# checked heap extends the check state its frontier entry carries, and
# starts a cube from scratch where one of its variables changed kind.
# These tests hold that check to the from-scratch definition on the same
# inputs, under the sorts of the heap and the instances unfolded on its
# path. On them the verdicts agree. In general the check may rule out
# more: a cube whose parent cube was ruled out stays so, where propagation
# from scratch may stop at its round cap (see compare_carried_state).


@pytest.mark.parametrize("name", ["sll", "dll", "stack", "bst", "tll", "sortedlist"])
def test_incremental_frontier_check_matches_scratch_on_corpus(name, monkeypatch, tmp_path):
    checks = record_checks(monkeypatch)
    run_benchmark(name, tmp_path)
    assert checks
    assert [c for c in checks if c[1] != c[2]] == []


def test_frontier_check_matches_saturate_definition(monkeypatch, tmp_path):
    # Spec-only generation at a deeper unfolding and a longer bst run
    # reach the most heaps between them.
    checks = record_checks(monkeypatch)
    run_benchmark("tll", tmp_path / "tll", spec_only=True, unfold_depth=5)
    run_benchmark("bst", tmp_path / "bst", max_nodes=1500)
    assert len(checks) > 1000
    assert [c for c in checks if c[1] != c[2]] == []


def test_incremental_frontier_check_matches_scratch_on_random_heaps(monkeypatch):
    spec = F.parse_spec(CHAIN)
    checks = record_checks(monkeypatch)
    rng = random.Random(11)
    for _ in range(60):
        try:
            sat(F.parse_heap(_random_heap_text(rng)), spec, Budget(max_depth=4))
        except F.SortError:
            continue  # randomly ill-sorted mixtures are fine to reject
    assert sum(verdict for _, verdict, _ in checks) > 10
    assert [c for c in checks if c[1] != c[2]] == []


@pytest.mark.parametrize("query", [
    "chain(p) & p = r",    # the base case joins nullref to the N that p and r keep
    "loose(a) & a != b",   # the emp disjunct leaves a and b the N that loose gave
    "split(p, q) & true",  # the body !(p = q & q = null) has two cubes
    "same(a, b) & true",   # the body a = b equates two unsorted variables
])
def test_incremental_frontier_check_falls_back(query, monkeypatch):
    spec = F.parse_spec(CHAIN + """
    pred loose(x) == (emp & true) \\/ (exists u, w, v . w -> N(v, null) & x = u & u = w) ;
    pred split(x, y) == emp & !(x = y & y = null) ;
    pred same(x, y) == emp & x = y ;
    """)
    d = F.parse_heap(query)
    checks = record_checks(monkeypatch)
    results = []
    for mode in ("check", "definition"):
        if mode == "definition":
            monkeypatch.setattr(S, "_state", definition_state)
        F.reset_names()
        result = sat(d, spec, Budget(max_depth=3))
        results.append((result.decision, str(result.model), result.stats))
    assert checks
    assert [c for c in checks if c[1] != c[2]] == []
    assert results[0] == results[1]


def eager_sat(d, defs, budget):
    """sat's loop as it was when every child was checked the moment
    unfold_at made it: a reference for the loop that checks each heap
    when it reaches it."""
    stats = S.SolverStats()
    deadline = time.monotonic() + budget.time_limit
    universe = F.heap_vars(d)
    F.heap_sorts(d, defs, defs.param_sorts)  # raises the query's sort clash
    current = [(d, ())]  # each heap with the instances unfolded on its path
    for round_no in range(budget.max_depth + 1):
        stats.rounds = round_no
        bases = [(h, path) for h, path in current if h.is_base()]
        inductive = [(h, path) for h, path in current if not h.is_base()]
        for h, path in bases:
            if time.monotonic() > deadline:
                return S.SatResult("unknown", None, stats)
            state = scratch_state(h, defs, path)
            if state.contradictory:
                continue
            try:
                model, bounded = S._try_base(h, state, universe, budget, stats, deadline)
            except S.Timeout:
                return S.SatResult("unknown", None, stats)
            if model is not None:
                return S.SatResult("sat", model, stats)
            stats.bounded = stats.bounded or bounded
        if not inductive:
            return S.SatResult("unsat", None, stats)
        if round_no == budget.max_depth:
            if round_no > 0 or time.monotonic() > deadline or not contradictory(d, defs):
                return S.SatResult("unknown", None, stats)
            return S.SatResult("unsat", None, stats)
        current = []
        for h, path in inductive:
            if time.monotonic() > deadline:
                return S.SatResult("unknown", None, stats)
            first = next(i for i, a in enumerate(h.atoms) if isinstance(a, F.PredInst))
            path = path + (h.atoms[first],)
            current.extend((child, path) for child in S.unfold_at(h, first, defs)
                           if not contradictory(child, defs, path))
        if not current:
            return S.SatResult("unsat", None, stats)
    return S.SatResult("unknown", None, stats)


def outcome(solve, d, spec, budget):
    F.reset_names()
    try:
        result = solve(d, spec, budget)
    except F.SortError as error:
        return "SortError", str(error)
    return (result.decision, result.model and F.print_heap(result.model.heap),
            result.stats.rounds, result.stats.pure_nodes, result.stats.bounded)


@pytest.mark.parametrize("max_depth", [0, 1, 2, 4])
def test_lazy_frontier_check_matches_eager_loop(max_depth):
    spec = F.parse_spec(CHAIN)
    rng = random.Random(40 + max_depth)
    decisions = set()
    for _ in range(500):
        d = F.parse_heap(_random_heap_text(rng))
        got = outcome(sat, d, spec, Budget(max_depth=max_depth))
        assert got == outcome(eager_sat, d, spec, Budget(max_depth=max_depth)), F.print_heap(d)
        decisions.add(got[0])
    # Every random heap has a chain instance, so depth 0 finds no model;
    # its unsat answers come from checking the query itself.
    assert decisions >= {"unsat", "sat" if max_depth else "unknown"}


def bfs_sat(d, defs, budget=None):
    """sat's loop as it was when it unfolded every live heap of a round
    before it took the next round: a reference for the best-first
    frontier, which must give the same decision, statistics and model, up
    to the numbers of fresh binders."""
    budget = budget or Budget()
    stats = S.SolverStats()
    deadline = time.monotonic() + budget.time_limit
    universe = F.heap_vars(d)
    state = S._state(d, defs)
    if state.sorts is None:
        F.heap_sorts(d, defs, defs.param_sorts)
    todo, round_no = [(d, (None, None, None), None)], 0
    while todo:
        # Popped from the end: base heaps first, then inductive ones, each
        # in the order unfold_at made them.
        todo, children = sorted(reversed(todo), key=lambda entry: entry[0].is_base()), []
        while todo:
            h, link, body = todo.pop()
            if time.monotonic() > deadline:
                return S.SatResult("unknown", None, stats)
            base, last = h.is_base(), round_no == budget.max_depth
            if round_no:
                state = S._state(h, defs, (*link, body))
            if (round_no or base or last) and state.contradictory:
                continue
            stats.rounds = round_no
            if not base:
                if last:
                    return S.SatResult("unknown", None, stats)
                first = next(i for i, a in enumerate(h.atoms) if isinstance(a, F.PredInst))
                link = (h, state, h.atoms[first])
                children += [(kid, link, body) for kid, body in
                             zip(S.unfold_at(h, first, defs), S._bodies(defs, h.atoms[first]))]
                continue
            try:
                model, bounded = S._try_base(h, state, universe, budget, stats, deadline)
            except S.Timeout:
                return S.SatResult("unknown", None, stats)
            if model is not None:
                return S.SatResult("sat", model, stats)
            stats.bounded = stats.bounded or bounded
        todo, round_no = children, round_no + 1
    return S.SatResult("unsat", None, stats)


def numbered_outcome(solve, d, spec, budget):
    """A sat outcome whose model names each fresh binder by the order in
    which it first occurs in the model, so that two models equal up to a
    renaming of fresh binders read the same."""
    try:
        result = solve(d, spec, budget)
    except F.SortError as error:
        return "SortError", str(error)
    model, named = result.model, None
    if model is not None:
        own = set(F.heap_vars(d))
        fresh = [v for v in F.heap_vars(model.heap) if v not in own]
        names = {v: Var(f"_{i}") for i, v in enumerate(fresh)}
        heap = F.SymbolicHeap((), F.subst_spatial(model.heap.atoms, names),
                              F.subst_pure(model.heap.pure, names))
        named = F.print_heap(heap), {names.get(v, Var(v)).name: s for v, s in model.sorts.items()}
    stats = result.stats
    return result.decision, named, stats.rounds, stats.pure_nodes, stats.bounded


def test_best_first_frontier_matches_breadth_first_loop():
    runs = [(spec, d, depth) for spec, queries in random_specs_and_queries()
            for d in queries for depth in (2, 4, 6)]
    rng, chain = random.Random(24), F.parse_spec(CHAIN)
    runs += [(chain, F.parse_heap(_random_heap_text(rng)), depth)
             for _ in range(400) for depth in (1, 3, 5)]
    decisions = {}
    for spec, d, depth in runs:
        got = numbered_outcome(sat, d, spec, Budget(max_depth=depth))
        assert got == numbered_outcome(bfs_sat, d, spec, Budget(max_depth=depth)), \
            (F.print_heap(d), depth)
        decisions[got[0]] = decisions.get(got[0], 0) + 1
    assert min(decisions[key] for key in ("sat", "unsat", "unknown")) > 100


def test_tll_generation_unfolds_once_per_round(monkeypatch, tmp_path):
    # Best-first, each sat call of tll's spec-only generation unfolds one
    # heap per round on its way to its first base heap with a model.
    rows, unfold, solve = [], S.unfold_at, S.sat
    calls = []

    def unfolded(*args):
        calls.append(1)
        return unfold(*args)

    def query(*args):
        calls.clear()
        result = solve(*args)
        rows.append((len(calls), result.stats.rounds, result.decision))
        return result

    monkeypatch.setattr(S, "unfold_at", unfolded)
    monkeypatch.setattr(S, "sat", query)
    run_benchmark("tll", tmp_path, spec_only=True, unfold_depth=4)
    assert len(rows) == 58 and {decision for _, _, decision in rows} == {"sat"}
    assert [row for row in rows if row[0] != row[1]] == []
    assert sum(unfolds for unfolds, _, _ in rows) == 200


def record_uses(monkeypatch):
    """Per sat query: its decision and the heaps it checked, solved and
    unfolded, in order, as ("passed" | "used", heap) events."""
    queries, events = [], []
    check, try_base, unfold, solve = S._state, S._try_base, S.unfold_at, S.sat

    def checked(d, *args):
        state = check(d, *args)
        if not state.contradictory:
            events.append(("passed", d))
        return state

    def used(call):
        def wrapped(d, *args):
            events.append(("used", d))
            return call(d, *args)
        return wrapped

    def query(*args):
        result = solve(*args)
        queries.append((result.decision, events[:]))
        events.clear()
        return result

    monkeypatch.setattr(S, "_state", checked)
    monkeypatch.setattr(S, "_try_base", used(try_base))
    monkeypatch.setattr(S, "unfold_at", used(unfold))
    monkeypatch.setattr(S, "sat", query)
    return queries


def test_every_heap_that_passes_the_check_is_solved_or_unfolded(monkeypatch, tmp_path):
    # The only heap a query may check and leave is the inductive one that
    # makes its last round answer unknown.
    queries = record_uses(monkeypatch)
    run_benchmark("tll", tmp_path / "tll", spec_only=True, unfold_depth=5)
    run_benchmark("bst", tmp_path / "bst", max_nodes=1500)
    assert sum(kind == "passed" for _, events in queries for kind, _ in events) > 1000
    for decision, events in queries:
        for at, (kind, d) in enumerate(events):
            if kind != "passed":
                continue
            if at + 1 == len(events):
                assert decision == "unknown" and not d.is_base()
            else:
                assert events[at + 1] == ("used", d)


def walked_sorts(d, defs):
    """The sorts of ``d``'s variables as a sort walk without a table finds
    them: each variable's sort joined from the uses F.sort_facts lists, then
    each class of the equalities joined from its members'. A reference for
    F.SortTable."""
    env, classes = {}, F.UnionFind()
    uses, merges = F.sort_facts(d.atoms, d.pure, defs, defs.param_sorts)
    for var, sort, at in uses:
        env[var] = F.join_sorts(env.get(var), sort, at, var)
    for a, b in merges:
        classes.union(a, b)
    joined = {}
    for v in [v for v in classes.parent if v in env]:
        root = classes.find(v)
        joined[root] = F.join_sorts(joined.get(root), env[v], "heap", root)
    for v in list(classes.parent):
        if (root := classes.find(v)) in joined:
            env[v] = joined[root]
    return {v: "int" if sort == "scalar" else sort for v, sort in env.items()}


def scratch_try_base(d, defs, path, universe, budget, stats, deadline, pairwise=False):
    """_try_base from scratch: the sorts of ``d`` and of the instances
    ``path`` unfolded on its way walked, and each DNF cube of its pure part
    checked with no parent, the variables of ``universe`` leading, and
    searched by _search_ints. With ``pairwise``, separation reaches the
    cubes as saturate's pairwise disequalities and no head is marked."""
    heads, pure = [p.var for p in d.points_tos()], d.pure
    if pairwise:
        additions = saturate(d)
        if additions is None:
            return None, False
        heads, pure = [], pure + tuple(additions)
    try:
        sorts = walked_sorts(on_path(d, path), defs)
    except F.SortError:
        return None, False
    order = list(dict.fromkeys([*F.heap_vars(d), *universe]))
    bounded = False
    for lits in S._nnf_cubes(pure):
        try:
            checked = S._extended(S._split(lits, None, sorts), sorts, order, heads)
        except F.SortError:
            continue
        if checked is None:
            continue
        cube, bounds = checked
        values = S._search_ints(cube.lins, cube.uses, [v for v in order if not cube.kinds[v]],
                                sorts, bounds, budget, stats, deadline)
        if values is not None:
            return S._assemble_model(d, cube, values, sorts, order), False
        bounded = True
    return None, bounded


def pairwise_try_base(d, defs, state, *args):
    """_try_base as it was when separation reached the pure solver as
    saturate's pairwise disequalities, with no head marked: a reference
    for base-heap solving over marked alias classes."""
    return scratch_try_base(d, defs, state.path, *args, pairwise=True)


def with_spec(monkeypatch, reference):
    """``reference`` as a stand-in for _try_base, given the spec of the sat
    query it solves for."""
    specs, solve = [], S.sat

    def query(d, defs, *args):
        specs.append(defs)
        return solve(d, defs, *args)

    monkeypatch.setattr(S, "sat", query)
    return lambda d, *args: reference(d, specs[-1], *args)


def compare_sat(monkeypatch, reference):
    """Run every sat call twice from the same fresh-name state, once with
    the solver functions named in ``reference`` replaced by its values and
    once as they are, and record both outcomes and the name state each
    leaves; the caller gets the second run's."""
    pairs = []
    solve, session = S.sat, F._session
    actual = {name: getattr(S, name) for name in reference}

    def run(functions, names, args):
        session._seen, session._counters = set(names[0]), dict(names[1])
        for name, function in functions.items():
            monkeypatch.setattr(S, name, function)
        try:
            result = solve(*args)
            summary = (result.decision, result.model and F.print_heap(result.model.heap),
                       result.model and result.model.sorts, result.stats)
        except F.SortError as error:
            result, summary = error, ("SortError", str(error))
        return result, (summary, set(session._seen), dict(session._counters))

    def both(*args):
        names = set(session._seen), dict(session._counters)
        _, want = run(reference, names, args)
        got, outcome = run(actual, names, args)
        pairs.append((F.print_heap(args[0]), outcome, want))
        if isinstance(got, F.SortError):
            raise got
        return got

    monkeypatch.setattr(S, "sat", both)
    return pairs


def compare_base_solving(monkeypatch):
    """sat with _try_base against sat with pairwise_try_base."""
    on_check(monkeypatch, lambda *args: None)
    return compare_sat(monkeypatch, {"_try_base": with_spec(monkeypatch, pairwise_try_base)})


@pytest.mark.parametrize("name", ["sll", "dll", "stack", "bst", "tll", "sortedlist"])
def test_marked_classes_match_pairwise_disequalities_on_corpus(name, monkeypatch, tmp_path):
    pairs = compare_base_solving(monkeypatch)
    run_benchmark(name, tmp_path)
    assert pairs
    assert [p for p in pairs if p[1] != p[2]] == []


def test_marked_classes_match_pairwise_disequalities_on_random_heaps(monkeypatch):
    spec = F.parse_spec(LOOSE)
    pairs = compare_base_solving(monkeypatch)
    for d in loose_random_heaps():
        try:
            S.sat(d, spec, Budget(max_depth=4))
        except F.SortError:
            continue
    assert len(pairs) == 600
    assert sum(outcome[0][0] == "sat" for _, outcome, _ in pairs) > 300
    assert [p for p in pairs if p[1] != p[2]] == []


def compare_try_base(monkeypatch):
    """Hold every _try_base call to scratch_try_base on the same heap: per
    call, the heap, both outcomes (model, its sorts, bounded, pure_nodes)
    and the work _try_base did itself: its calls to F.heap_sorts,
    F.sort_facts, _nnf_cubes and _checked."""
    rows, counts, solve = [], {}, S._try_base
    for owner, name in [(F, "heap_sorts"), (F, "sort_facts"), (S, "_nnf_cubes"),
                        (S, "_checked")]:
        monkeypatch.setattr(owner, name, counted(getattr(owner, name), name, counts))
    on_check(monkeypatch, lambda *args: None)

    def outcome(result, stats):
        model, bounded = result
        return (model and F.print_heap(model.heap), model and model.sorts, bounded,
                stats.pure_nodes)

    def compared(d, defs, state, universe, budget, stats, deadline):
        want_stats, got_stats = S.SolverStats(), S.SolverStats()
        want = scratch_try_base(d, defs, state.path, universe, budget, want_stats, deadline)
        before = dict(counts)
        got = solve(d, state, universe, budget, got_stats, deadline)
        work = {key: n - before.get(key, 0) for key, n in counts.items()}
        rows.append((F.print_heap(d), outcome(got, got_stats), outcome(want, want_stats), work))
        stats.pure_nodes += got_stats.pure_nodes
        return got

    monkeypatch.setattr(S, "_try_base", with_spec(monkeypatch, compared))
    return rows


def assert_solved_from_check(rows):
    """Every row's outcomes agree, and _try_base walked no sorts and made
    or checked no cube from scratch."""
    assert [row[:3] for row in rows if row[1] != row[2]] == []
    for text, _, _, work in rows:
        assert not any(work.values()), text


@pytest.mark.parametrize("name", ["sll", "dll", "stack", "bst", "tll", "sortedlist",
                                  "tll-generate"])
def test_base_heap_solved_from_its_check_matches_scratch_on_corpus(name, monkeypatch, tmp_path):
    rows = compare_try_base(monkeypatch)
    if name == "tll-generate":
        run_benchmark("tll", tmp_path, spec_only=True, unfold_depth=4)
    else:
        run_benchmark(name, tmp_path)
    assert any(outcome[0] for _, outcome, _, _ in rows)
    assert_solved_from_check(rows)


def test_base_heap_solved_from_its_check_matches_scratch_on_random_heaps(monkeypatch):
    spec = F.parse_spec(LOOSE)
    rows = compare_try_base(monkeypatch)
    for d in loose_random_heaps():
        try:
            S.sat(d, spec, Budget(max_depth=4))
        except F.SortError:
            continue
    run_random_specs()
    assert sum(outcome[0] is not None for _, outcome, _, _ in rows) > 300
    assert sum(outcome[2] for _, outcome, _, _ in rows) > 10
    assert_solved_from_check(rows)


MOVING = F.parse_spec("data N { int v; N next; }\n"
                      "pred p(x, y) == (emp & y = null) \\/ "
                      "(exists u . x -> N(1, u) * p(u, y)) ;")


def test_child_keeps_its_unfolded_instance_argument_sorts(monkeypatch):
    # p(a, b) sorts a as N, and a = c joins c to it. The emp disjunct's
    # child no longer has the instance, yet keeps its uses of a and b: a
    # and c stay N, so a = c is a location equality, and the model binds a
    # and c to null, not 0.
    states = []
    on_check(monkeypatch, lambda d, defs, above, state: states.append((d, state)))
    d = heap("p(a, b) & a = c")
    result = sat(d, MOVING)
    assert result.is_sat and model_check(result.model, d, MOVING)
    assert str(result.model) == "emp & a = null & c = null & b = null"
    assert result.model.sorts == {"a": "N", "b": "nullref", "c": "N"}
    [(child, state)] = [(h, state) for h, state in states if h.is_base()]
    assert F.print_heap(child) == "emp & a = c & b = null"
    assert {v: state.sorts.get(v) for v in "abc"} == result.model.sorts
    assert [dict(cube.kinds) for cube in state.cubes] == [{"a": True, "c": True, "b": True}]
    # Without the instance, a and c would be unsorted integers.
    assert F.heap_sorts(child, MOVING, MOVING.param_sorts) == {"b": "nullref"}


def test_query_sorts_that_move_a_variable_check_its_cube_from_scratch(monkeypatch):
    # c and d are unsorted in the query, so c = d & c != d is a live cube of
    # integer literals. Unfolding same(c, q) merges c into the class that
    # loose(q) sorts as N: c and d join the locations, the cube is checked
    # again from scratch, and there it is a location clash.
    spec = F.parse_spec(LOOSE)
    scratch, check = [], S._checked

    def checked(lits, sorts, heads, parent=None):
        if parent is None:
            scratch.append(lits)
        return check(lits, sorts, heads, parent)

    monkeypatch.setattr(S, "_checked", checked)
    states = []
    on_check(monkeypatch, lambda d, defs, above, state: states.append(state))
    query = heap("same(c, q) * loose(q) & c = d & c != d")
    result = sat(query, spec, Budget(max_depth=3))
    assert (result.decision, result.stats.rounds) == ("unsat", 0)
    assert len(scratch) == 2  # the query's cube, and its one child's
    assert [state.contradictory for state in states] == [False, True]
    assert [dict(cube.kinds) for cube in states[0].cubes] == [{"c": False, "d": False}]


def test_query_sorts_that_only_add_locations_keep_a_clash(monkeypatch):
    # The query's cubes are a = c & b = null & b != null, a location clash,
    # and a = c & c = a, live. The sorts of every heap below it only add
    # locations, so the clash stays: only the query's cubes are checked
    # from scratch, and the base child extends the live one.
    scratch, check = [], S._checked

    def checked(lits, sorts, heads, parent=None):
        if parent is None:
            scratch.append(lits)
        return check(lits, sorts, heads, parent)

    monkeypatch.setattr(S, "_checked", checked)
    states = []
    on_check(monkeypatch, lambda d, defs, above, state: states.append(state.cubes))
    d = heap("p(a, b) & a = c & !(!(b = null & b != null) & !(c = a))")
    result = sat(d, MOVING)
    assert result.is_sat and model_check(result.model, d, MOVING)
    assert str(result.model) == "emp & a = null & c = null & b = null"
    assert result.stats.pure_nodes == 1
    assert len(scratch) == 2
    assert [[cube is None for cube in cubes] for cubes in states] == [[True, False]] * 2


# ------------------------------------------------------------ query memo


def scratch_check(d, defs, above=None):
    """A stand-in for S._state that derives each heap's cubes, linear forms
    and sorts from scratch, as contradictory does, over its path."""
    state = scratch_state(d, defs, path_of(above))
    state.path = path_of(above)
    return state


def compare_query_memo(monkeypatch):
    """sat with each check extending the state its frontier entry carries
    against sat with every check made from scratch (scratch_check)."""
    return compare_sat(monkeypatch, {"_state": scratch_check})


@pytest.mark.parametrize("name", ["sll", "dll", "stack", "bst", "tll", "sortedlist",
                                  "tll-generate"])
def test_query_memo_matches_scratch_on_benchmarks(name, monkeypatch, tmp_path):
    pairs = compare_query_memo(monkeypatch)
    if name == "tll-generate":
        run_benchmark("tll", tmp_path, spec_only=True, unfold_depth=4)
    else:
        run_benchmark(name, tmp_path)
    assert pairs
    assert [p for p in pairs if p[1] != p[2]] == []


def test_query_memo_matches_scratch_on_random_heaps(monkeypatch):
    spec = F.parse_spec(LOOSE)
    pairs = compare_query_memo(monkeypatch)
    for d in loose_random_heaps():
        try:
            S.sat(d, spec, Budget(max_depth=4))
        except F.SortError:
            continue
    assert len(pairs) == 600
    assert {outcome[0][0] for _, outcome, _ in pairs} >= {"sat", "unsat", "SortError"}
    assert [p for p in pairs if p[1] != p[2]] == []


def test_unchecked_base_query_walks_its_pure_part_once(monkeypatch):
    # Once, for its check's sort classes, which also give the query's
    # sorts; solving the base query reads the check's classes and walks
    # nothing.
    walks = []
    walk = F.sort_facts

    def recorded(atoms, pure, *args):
        walks.append(pure)
        return walk(atoms, pure, *args)

    monkeypatch.setattr(F, "sort_facts", recorded)
    query = heap("x -> N(a, null) & a = 1 & x != null")
    assert sat(query, F.parse_spec(CHAIN)).is_sat
    assert sum(pure is query.pure for pure in walks) == 1


def test_query_memo_lives_for_one_query(monkeypatch):
    # The conjunct x = y is one object in both queries: its variables are
    # integers in the first and locations in the second, where the heads
    # they alias make every unfolding contradictory.
    spec = F.parse_spec(CHAIN)
    ints = heap("chain(p) & x = y & 1 <= x")
    locs = heap("x -> N(a, null) * chain(y) & true")
    locs = F.SymbolicHeap(locs.exists, locs.atoms, ints.pure[:1])
    states = []
    on_check(monkeypatch, lambda d, defs, above, state: states.append(weakref.ref(state)))
    for query in [ints, locs, ints, locs]:
        states.clear()
        result = S.sat(query, spec, Budget(max_depth=4))
        assert result.decision == ("sat" if query is ints else "unsat")
        # Nothing keeps a check state of the query once sat has returned.
        gc.collect()
        assert len(states) > 1 and [state for state in states if state() is not None] == []
    monkeypatch.undo()
    pairs = compare_query_memo(monkeypatch)
    for query in [ints, locs, ints, locs]:
        S.sat(query, spec, Budget(max_depth=4))
    assert len(pairs) == 4 and [p for p in pairs if p[1] != p[2]] == []
    assert [name for name, value in vars(S).items() if not name.startswith("__")
            and isinstance(value, (dict, list, set))] == []
    assert not [name for name, value in vars(S).items() if hasattr(value, "cache_info")]


def test_query_memo_keeps_a_heap_state_only_until_its_children_are_checked(monkeypatch):
    # A heap's check state lives while one of its children waits on the
    # frontier for its check, and no longer: besides the last check's
    # state, each live state has a child of its own on the frontier.
    spec = F.parse_spec(CHAIN)
    unfold, check = S.unfold_at, S._state
    made, waiting, rounds, last = {}, {}, {}, []  # all keyed by id(heap)

    def unfolded(h, i, defs):
        children = unfold(h, i, defs)
        for child in children:
            rounds[id(child)] = rounds.get(id(h), 0) + 1
        waiting[id(h)] = {id(child) for child in children}
        return children

    def checked(d, *args):
        # Taken as the next check begins, once sat has popped d's entry and
        # dropped the one it processed before.
        gc.collect()
        live = {key for key, (_, state) in made.items() if state() is not None}
        # The last check's state, and those of heaps with an unchecked child.
        assert live <= set(last[-1:]) | {key for key, children in waiting.items() if children}
        # The frontier's entries not yet checked, d's among them.
        frontier = {child for children in waiting.values() for child in children}
        assert len(live) <= len(frontier) + 1
        for children in waiting.values():
            children.discard(id(d))
        state = check(d, *args)
        made[id(d)] = (d, weakref.ref(state))
        last.append(id(d))
        return state

    monkeypatch.setattr(S, "unfold_at", unfolded)
    monkeypatch.setattr(S, "_state", checked)
    for text in ["chain(p) * chain(q) & p != null & q != null & 3 <= a",
                 "chain(p) * chain(q) & a = 200"]:
        for table in (made, waiting, rounds, last):
            table.clear()
        result = sat(heap(text), spec, Budget(max_depth=4))
        assert max(rounds.values()) >= 3 and len(made) > 5
        gc.collect()
        assert [d for d, state in made.values() if state() is not None] == []
    assert (result.decision, result.stats.rounds) == ("unknown", 4)


def test_child_check_is_exact_when_the_unfolded_instance_sorted_a_variable(monkeypatch):
    # The query's cube is contradictory only because loose(q) sorts q as a
    # record, so q = r & q != r is a location clash. The emp child keeps
    # that sort, and so the clash, as the check from scratch over the
    # child and loose(q) finds too; over the child alone, q would be an
    # unsorted integer and the cube live.
    spec = F.parse_spec(LOOSE)
    query = heap("p -> N(a, p) * loose(q) * same(c, q) & a <= b & q = r & q != r & c <= a")
    assert contradictory(query, spec)
    checked = []
    on_check(monkeypatch, lambda d, defs, above, state: checked.append(
        (d, state.contradictory, state.path)))
    result = sat(query, spec, Budget(max_depth=4))
    assert (result.decision, result.stats.rounds) == ("unsat", 0)
    checks = [(F.print_heap(d), verdict, contradictory(d, spec, path))
              for d, verdict, path in checked]
    assert [c for c in checks if c[1] != c[2]] == []
    emp_child = "p -> N(a, p) * same(c, q) & a <= b & q = r & q != r & c <= a"
    assert (emp_child, True, True) in checks
    assert not contradictory(heap(emp_child), spec)


# Each extended cube carries its parent cube's alias classes and integer
# fixpoint. These tests hold that state to _checked from scratch, and
# count the work a child's cube does.


def classes(uf):
    """The partition of a UnionFind's names, whatever its representatives."""
    members = {}
    for name in uf.parent:
        members.setdefault(uf.find(name), set()).add(name)
    return {root: frozenset(names) for root, names in members.items()}


def cube_summary(result, heads):
    """What a cube state decides: its kinds, alias partition, marked
    classes, disequalities, linear forms and converged bounds."""
    if result is None:
        return None
    cube = result[0]
    partition = classes(cube.uf)
    marks = {partition[cube.uf.find(name)] for name in (S.NULL_KEY, *heads)}
    return (list(cube.kinds.items()), set(partition.values()), marks, cube.diseqs, cube.lins,
            cube.bounds)


def compare_carried_state(monkeypatch):
    """Check every heap state that sat makes by extending a parent's
    against _checked from scratch on each of the heap's DNF cubes, under
    the sorts of the heap and its path: wherever both keep a cube live,
    they agree, and the state never keeps live a cube that the reference
    rules out; it rules out one that the reference keeps live only where
    it extends a cube that the parent ruled out. The list returned collects
    the cubes checked."""
    reference, extended = S._checked, []

    def built(d, defs, above, state):
        if above is None or not state.cubes:
            return
        sorts = F.heap_sorts(on_path(d, state.path), defs, defs.param_sorts)
        heads, up = [p.var for p in d.points_tos()], above[1].cubes
        for i, (cube, lits) in enumerate(zip(state.cubes, S._nnf_cubes(d.pure), strict=True)):
            want = cube_summary(reference(lits, sorts, heads), heads)
            if cube is None:
                assert want is None or up[i * len(up) // len(state.cubes)] is None
            else:
                got = cube_summary((cube,), heads)
                if want is not None and want[-1] is None:  # capped from scratch
                    got, want = got[:-1], want[:-1]
                assert got == want, F.print_heap(d)
            extended.append(cube)

    on_check(monkeypatch, built)
    return extended


@pytest.mark.parametrize("name", ["sll", "dll", "stack", "bst", "tll", "sortedlist",
                                  "tll-generate"])
def test_carried_cube_state_matches_scratch_on_benchmarks(name, monkeypatch, tmp_path):
    extended = compare_carried_state(monkeypatch)
    if name == "tll-generate":
        run_benchmark("tll", tmp_path, spec_only=True, unfold_depth=4)
    else:
        run_benchmark(name, tmp_path)
    assert extended
    assert all(cube is None or cube.bounds is not None for cube in extended)


def test_carried_cube_state_matches_scratch_on_random_heaps(monkeypatch):
    spec = F.parse_spec(LOOSE)
    extended = compare_carried_state(monkeypatch)
    for d in loose_random_heaps():
        try:
            S.sat(d, spec, Budget(max_depth=4))
        except F.SortError:
            continue
    assert sum(cube is not None for cube in extended) > 500
    assert sum(cube is None for cube in extended) > 100


def test_capped_propagation_keeps_the_scratch_verdicts(monkeypatch):
    # x + 1 <= y & y + 1 <= x narrows x by 2 a round, so propagation from
    # scratch stops at the cap (16 rounds for two variables). A capped cube
    # keeps no bounds, and each child propagates from scratch again.
    spec = F.parse_spec(CHAIN)
    query = heap("chain(p) & 0 <= x & x <= 1000 & x + 1 <= y & y + 1 <= x")
    [lits] = S._nnf_cubes(query.pure)
    cube, bounds = S._checked(lits, F.heap_sorts(query, spec, spec.param_sorts), ())
    assert bounds["x"] == (32, 970) and cube.bounds is None
    checks, extended = record_checks(monkeypatch), compare_carried_state(monkeypatch)
    result = sat(query, spec, Budget(max_depth=3))
    assert [verdict for _, verdict, _ in checks] == [False] * 6
    assert extended and all(cube.bounds is None for cube in extended)
    assert [c for c in checks if c[1] != c[2]] == []
    stats = result.stats
    assert (result.decision, result.model, stats.rounds, stats.pure_nodes, stats.bounded) \
        == ("unknown", None, 3, 3, True)


def test_cube_ruled_out_by_propagation_stays_ruled_out(monkeypatch):
    # The query's first cube, x <= 0 & 1 <= x, fails propagation, which
    # proves that it has no model: each child's extension of it is ruled
    # out unchecked. Its second cube, y = 1, is extended.
    spec = F.parse_spec(CHAIN)
    query = heap("chain(p) & !(!(x <= 0 & 1 <= x) & y != 1)")
    extended, scratch, check = compare_carried_state(monkeypatch), [], S._checked

    def checked(lits, sorts, heads, parent=None):
        scratch.append(parent is None)
        return check(lits, sorts, heads, parent)

    monkeypatch.setattr(S, "_checked", checked)
    result = sat(query, spec, Budget(max_depth=2))
    assert result.is_sat and result.stats.rounds == 1
    # The query's two cubes, then the base child's live one: it is checked
    # and solved before its sibling.
    assert scratch == [True, True, False]
    assert extended[0] is None and extended[1] is not None and len(extended) == 2


def test_contradiction_from_a_carried_fixpoint_stands():
    # From the parent's fixpoint x1 <= 104, the cycle x1 + 1 <= z & z + 1 <=
    # x1 empties x1 within the round cap. From scratch the bound needs four
    # rounds to come down the chain first, and the cap (28 rounds for five
    # variables) stops propagation before the clash, with no bounds. The
    # parent's fixpoint follows from its literals, so the child is ruled
    # out: the carried check rules out more than the one from scratch.
    def lits(text):
        [cube] = S._nnf_cubes(heap("emp & " + text).pure)
        return cube

    chain, body = lits("x1 <= x2 & x2 <= x3 & x3 <= x4 & x4 <= 104"), \
        lits("x1 + 1 <= z & z + 1 <= x1 & 0 <= z")
    parent, _ = S._checked(chain, {}, ())
    scratch = S._checked(chain + body, {}, ())
    assert scratch is not None and scratch[0].bounds is None
    assert S._checked(body, {}, (), parent) is None


def test_integer_search_propagates_once_before_its_first_assignment():
    # The domain clamp leaves x in [100, 63]. The full rounds that followed
    # each assignment refuted that before any value of y counted as a node;
    # the search's first propagation, over every literal, does so now.
    result = sat(heap("emp & y <= 5 & x = 100"), EMPTY_SPEC)
    assert (result.decision, result.stats.pure_nodes, result.stats.bounded) == ("unsat", 1, True)


def test_integer_search_is_brute_force_in_value_order():
    # Seeded cubes of linear forms over up to four variables, some bool,
    # with <=, = and != forms, forms outside difference logic (2 * x + y <=
    # 3) and forms without variables. Over the domain -3:3, the search's
    # model is the first in _value_order's order, earlier variables varying
    # slowest, and it is None exactly when no model exists: propagation
    # alone decides each literal.
    rng, budget, outcomes = random.Random(28), Budget(int_min=-3, int_max=3), set()
    holds = {"le": lambda n: n <= 0, "eq": lambda n: n == 0, "ne": lambda n: n != 0}
    for _ in range(500):
        names = ["a", "b", "c", "d"][:rng.randint(1, 4)]
        sorts = {v: "bool" for v in names if rng.random() < 0.3}
        lins, uses = [], {}
        for i in range(rng.randint(1, 5)):
            coeffs = tuple(sorted((v, rng.choice([-2, -1, 1, 1, 2, 3]))
                                  for v in rng.sample(names, rng.randint(0, min(3, len(names))))))
            lins.append(S._Lin(coeffs, rng.randint(-4, 4), rng.choice(list(holds))))
            for v, _ in coeffs:
                uses[v] = uses.get(v, ()) + (i,)
        got = S._search_ints(lins, uses, names, sorts, dict.fromkeys(names, S._TOP), budget,
                             S.SolverStats())
        domains = [S._value_order(*((0, 1) if v in sorts else (-3, 3))) for v in names]
        want = next((dict(zip(names, values)) for values in itertools.product(*domains)
                     if all(holds[lin.rel](lin.const + sum(k * values[names.index(v)]
                                                          for v, k in lin.coeffs))
                            for lin in lins)), None)
        assert got == want, lins
        outcomes.add(got is None)
    assert outcomes == {True, False}


class Visits(list):
    """Linear forms that count how often _propagate reads one to run it."""

    def __init__(self, lins, counter):
        super().__init__(lins)
        self.counter = counter

    def __getitem__(self, i):
        self.counter.append(i)
        return super().__getitem__(i)


def test_child_cube_merges_and_propagates_only_its_body(monkeypatch, tmp_path):
    # Counted per extended cube: alias-class unions, and each propagation
    # run's start and narrowing steps (one per linear form it runs).
    extend, union, propagate = S._extended, F.UnionFind.union, S._propagate
    work, cubes = {"merges": 0, "runs": []}, []

    def merged(uf, a, b):
        work["merges"] += 1
        return union(uf, a, b)

    def narrowed(lins, uses, bounds, start=None, trail=None):
        steps = []
        result = propagate(Visits(lins, steps), uses, bounds, start, trail)
        work["runs"].append((start, len(steps)))
        return result

    def extended(lits, sorts, universe, heads, parent=None):
        work.update(merges=0, runs=[])
        result = extend(lits, sorts, universe, heads, parent)
        if parent is not None and parent.bounds is not None and result:
            cube, scratch = result[0], []
            propagate(Visits(cube.lins, scratch), cube.uses,
                      {v: S._TOP for v, k in cube.kinds.items() if not k})
            cubes.append((work["merges"], len(lits.eqs), list(work["runs"]),
                          range(len(parent.lins), len(parent.lins) + len(lits.lins)),
                          len(scratch)))
        return result

    monkeypatch.setattr(F.UnionFind, "union", merged)
    monkeypatch.setattr(S, "_propagate", narrowed)
    monkeypatch.setattr(S, "_extended", extended)
    run_benchmark("bst", tmp_path, max_nodes=1500)
    assert len(cubes) > 300
    for merges, body_eqs, runs, body, scratch_steps in cubes:
        assert merges == body_eqs
        [(start, steps)] = runs
        assert start == body and steps <= scratch_steps
    assert sum(c[-1] for c in cubes) > 5 * sum(c[2][0][1] for c in cubes)


@pytest.mark.parametrize("name", ["bst", "tll-generate"])
def test_child_check_costs_its_body(name, monkeypatch, tmp_path):
    # Per check of a child whose parent has a state: the sort steps (class
    # joins and sort reads) stay within a bound set by its body, and no
    # cube is derived from a formula. Each predicate disjunct's cubes are
    # derived once per argument shape, when the spec is compiled. Over the
    # run, each literal is linearised at most once, and only right after
    # _split files it as an integer literal.
    counts, rows, compiled, filed = {}, [], [], []
    monkeypatch.setattr(S, "_nnf_cubes", counted(S._nnf_cubes, "_nnf_cubes", counts))
    is_loc, lin_of = S._is_loc, S._lin_of

    def filing(*args):
        filed.append(is_loc(*args))
        return filed[-1]

    def linearising(lit):
        filed.append(lit)
        return lin_of(lit)

    monkeypatch.setattr(S, "_is_loc", filing)
    monkeypatch.setattr(S, "_lin_of", linearising)
    monkeypatch.setattr(F, "join_sorts", counted(F.join_sorts, "join_sorts", counts))
    monkeypatch.setattr(F.SortTable, "get", counted(F.SortTable.get, "get", counts))
    check, body = S._state, S._Body.__init__

    def checked(d, defs, above=None):
        before = dict(counts)
        state = check(d, defs, above)
        if above is not None and above[1].sorts is not None:
            work = {k: n - before.get(k, 0) for k, n in counts.items()}
            disjunct = above[3]
            size = len(disjunct.atoms) + len(disjunct.pure) + len(disjunct.params)
            rows.append((len(d.atoms) + len(d.pure), size, work))
        return state

    def compiling(self, pred, disjunct, *args):
        before = counts.get("_nnf_cubes", 0)
        body(self, pred, disjunct, *args)
        compiled.append(counts.get("_nnf_cubes", 0) > before)

    monkeypatch.setattr(S, "_state", checked)
    monkeypatch.setattr(S._Body, "__init__", compiling)
    if name == "tll-generate":
        run_benchmark("tll", tmp_path, spec_only=True, unfold_depth=5)
    else:
        run_benchmark(name, tmp_path, unfold_depth=4, max_nodes=1500)
    assert len(rows) > 500 and max(heap for heap, _, _ in rows) > 15
    for heap, size, work in rows:
        assert work.get("_nnf_cubes", 0) == 0
        assert work.get("join_sorts", 0) <= size and work.get("get", 0) <= 2 * size
    assert compiled and all(compiled)
    assert len(compiled) <= 8  # two disjuncts, at most two shapes each
    linearised = [i for i, event in enumerate(filed) if event.__class__ is S.Lit]
    assert all(filed[i - 1] is False for i in linearised)
    assert bool(linearised) == (name == "bst")  # tll's literals are all locations
    assert len({id(filed[i]) for i in linearised}) == len(linearised)


def counted(function, key, counts):
    """``function``, counting its calls in ``counts[key]``."""
    def wrapped(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return function(*args, **kwargs)
    return wrapped


# Random specs: the seeded generator below makes predicate definitions, not
# only heaps. The incremental check must match its references on them.


def random_spec_text(rng):
    """Two predicates over N, each a base disjunct and one or two
    recursive ones whose binders v, n hold a cell of x0 and an instance
    whose arguments mix n, the parameters (more often the one in the same
    position), v, null, a constant and v + 1, with random literals between
    parameters, binders, null and 0. So a parameter may be sorted only by
    an instance, and an equality may join two unsorted variables."""
    arity = {"p": rng.randrange(1, 4), "q": rng.randrange(1, 4)}
    lines = ["data N { int v; N next; }"]
    for name, n in arity.items():
        params = [f"x{i}" for i in range(n)]
        bodies = []
        for k in range(rng.randrange(2, 4)):
            binders = ["v", "n"] if k else []
            atoms = ["x0 -> N(v, n)"] if k else []
            if k:
                callee = rng.choice(sorted(arity))
                args = ["n"] + [rng.choice([f"x{j}" if j < n else "n", *params, "n", "v",
                                            "null", "3", "v + 1"])
                                for j in range(1, arity[callee])]
                atoms.append(f"{callee}({', '.join(args)})")
            pure = []
            for _ in range(rng.randrange(0, 3)):
                a = rng.choice(params + binders)
                b = rng.choice(params + binders + ["null", "0"])
                pure.append(rng.choice([f"{a} = {b}", f"{a} != {b}", f"{a} <= {b}",
                                        f"{a} < {b} + 1"]))
            body = (" * ".join(atoms) or "emp") + " & " + (" & ".join(pure) or "true")
            bodies.append(f"(exists v, n . {body})" if k else f"({body})")
        lines.append(f"pred {name}({', '.join(params)}) == " + " \\/ ".join(bodies) + " ;")
    return "\n".join(lines)


def random_specs_and_queries():
    """40 seeded random specs that parse (ill-sorted ones are redrawn),
    with 10 random queries each: instances whose arguments are variables,
    null, a constant or a + 1, under random literals."""
    rng, out = random.Random(3), []
    while len(out) < 40:
        try:
            spec = F.parse_spec(random_spec_text(rng))
        except (F.SpecError, F.SortError):
            continue
        queries = []
        names, args = ["a", "b", "c"], ["a", "b", "c", "null", "1", "a + 1"]
        for _ in range(10):
            preds = [rng.choice(sorted(spec.preds)) for _ in range(rng.randrange(1, 3))]
            atoms = [f"{pred}({', '.join(rng.choice(args) for _ in spec.preds[pred].params)})"
                     for pred in preds]
            lits = [rng.choice([f"{x} = {y}", f"{x} != {y}", f"{x} <= 2", f"{x} = null"])
                    for x, y in ((rng.choice(names), rng.choice(names))
                                 for _ in range(rng.randrange(0, 3)))]
            queries.append(heap(" * ".join(atoms) + " & " + (" & ".join(lits) or "true")))
        out.append((spec, queries))
    return out


def run_random_specs():
    decisions = set()
    for spec, queries in random_specs_and_queries():
        for d in queries:
            try:
                decisions.add(S.sat(d, spec, Budget(max_depth=3)).decision)
            except F.SortError:
                decisions.add("SortError")
    return decisions


def test_random_specs_cover_the_shapes_they_are_for():
    texts, only_instance, unsorted_eq = [], 0, 0
    for spec, queries in random_specs_and_queries():
        sorts = F.infer_sorts(spec)
        for pred in spec.preds.values():
            for d in pred.body.disjuncts:
                texts.append(F.print_heap(d))
                placed = {v for c in d.pure for v in F.pure_vars(c)} | {
                    p.var for p in d.points_tos()} | {
                    v for p in d.points_tos() for a in p.args for v in F.term_vars(a)}
                given = [(s, a.name) for i in d.instances()
                         for s, a in zip(sorts[i.pred], i.args) if isinstance(a, Var)]
                only_instance += any(s and v in pred.params and v not in placed
                                     for s, v in given)
                unsorted = {p for p, s in zip(pred.params, sorts[pred.name]) if s is None}
                unsorted_eq += any(isinstance(c, Atom) and c.op == "=" and c.left != c.right
                                   and {F.print_term(c.left), F.print_term(c.right)} <= unsorted
                                   for c in d.pure)
        texts += [F.print_heap(d) for d in queries]
    for shape in [r"\(n, null", r"\(n, 3", r"\(n, v \+ 1", r"exists", r"\w\(null",
                  r"\(a \+ 1"]:
        assert any(re.search(shape, text) for text in texts), shape
    # A parameter sorted only by an instance it is passed to, and an
    # equality between two parameters that nothing sorts.
    assert only_instance >= 5 and unsorted_eq >= 2


def test_query_memo_matches_scratch_on_random_specs(monkeypatch):
    pairs = compare_query_memo(monkeypatch)
    assert run_random_specs() >= {"sat", "unsat", "SortError"}
    assert len(pairs) > 100 and [p for p in pairs if p[1] != p[2]] == []


def test_carried_cube_state_matches_scratch_on_random_specs(monkeypatch):
    extended = compare_carried_state(monkeypatch)
    run_random_specs()
    assert sum(cube is not None for cube in extended) > 200


def test_frontier_check_matches_saturate_definition_on_random_specs(monkeypatch):
    checks = record_checks(monkeypatch)
    run_random_specs()
    assert sum(verdict for _, verdict, _ in checks) > 20
    assert [c for c in checks if c[1] != c[2]] == []


def random_query_sets():
    """The seeded random query sets, each query with its spec and depth:
    the LOOSE heaps, the random specs' queries, the chain heaps of
    test_lazy_frontier_check_matches_eager_loop[4], and MOVING heaps (chain
    heaps whose instances are p(x, y))."""
    chain, loose = F.parse_spec(CHAIN), F.parse_spec(LOOSE)
    rng, moving = random.Random(44), random.Random(26)

    def p(m):
        return f"p({m.group(1)}, {moving.choice(['p', 'q', 'r', 'null'])})"

    return {
        "loose": [(loose, d, 4) for d in loose_random_heaps()],
        "specs": [(spec, d, 3) for spec, queries in random_specs_and_queries() for d in queries],
        "chain": [(chain, heap(_random_heap_text(rng)), 4) for _ in range(500)],
        "moving": [(MOVING, heap(re.sub(r"chain\((\w+)\)", p, _random_heap_text(moving))), 4)
                   for _ in range(200)],
    }


# Per set: its query count, the digest of every query's outcome but its
# rounds, and each query's rounds, pinned when a child's check still took
# its unfolded instance's uses out of the sort table.
PINNED_SAT = {
    "loose": (600, "e3778d33156fff1d",
            "210112122121221000221011011022121021012111012422110010221110022020100110"
            "102122121011312112121210221110211001110220231211002121201001110022120002"
            "101111022001012120000102121101121121011111202020112241202122200102111001"
            "021120012011101210112012100302120021200211101111102121002100120222301012"
            "111020023121011000200021112122110210212200010111111220101201120011012212"
            "221221141210200101122122001212111102220101020110112121130200000022121011"
            "022201212220211122210212201001211010211120011111212002022102211211101220"
            "121100200100112101211021020001221021120012101212121210112120202012300111"
            "120201111213220021000111"),
    "specs": (400, "ed99ed17f0c10661",
            "000100000230300300000000000030002100200200000000001110000000201112000100"
            "000012011021000121000000000100110010111010200011002000200020000330301000"
            "001000002002201011112002000011101010100000000012001100000010000100000000"
            "100000001000020220200200020000012211100200011100002000000202000000000000"
            "000010010000000000101010112000012000011001002000103000110102200003000000"
            "0002002000021202222010221002001100102100"),
    "chain": (500, "6b5ca1d2f9d8410f",
            "210200020101101212102332012010102001100123012101103112210212021222122211"
            "021112112113210110010002121121201022011200021102122021220020221121110021"
            "222000121210120113211101114121021112100211000003010020100220122201012220"
            "101101100122042110202111123211202010102012212110010222212010101021101100"
            "021000100001021112221220111121110000201221111221021110120200101110221222"
            "221101210020212212101112122213022011221322002221201020222002242211120102"
            "20021122201102211200010010212120404120001113110211111210001012103000"),
    "moving": (200, "1f79759fe994a699",
            "111211100112001122100022121220120122122121010412121111041200122100002122"
            "210001112000120202102012201211422002120012011121041211120122112202010212"
            "11202102024000022121101102202211212012200022122202220010"),
}


def test_sat_answers_on_random_query_sets_are_pinned():
    # Decisions, models, model sorts, pure_nodes and bounded stay as
    # pinned; a query's rounds may only fall, where a check rules out more.
    for name, runs in random_query_sets().items():
        h, rounds = hashlib.sha256(), []
        for spec, d, depth in runs:
            F.reset_names()
            try:
                result = sat(d, spec, Budget(max_depth=depth))
            except F.SortError as error:
                line, n = ("SortError", str(error)), 0
            else:
                model, stats = result.model, result.stats
                line = (result.decision, model and F.print_heap(model.heap),
                        model and sorted(model.sorts.items()), stats.pure_nodes, stats.bounded)
                n = stats.rounds
            h.update(f"{line!r}\n".encode())
            rounds.append(n)
        count, digest, pinned = PINNED_SAT[name]
        assert (len(runs), h.hexdigest()[:16]) == (count, digest), name
        assert [i for i, (n, m) in enumerate(zip(rounds, pinned)) if n > int(m)] == [], name


def test_binder_that_shadows_a_parameter_is_checked_from_scratch(monkeypatch):
    # In shadow's second disjunct x is the binder, not the parameter, so its
    # child leaves a unsorted, and a = b is an integer literal there.
    spec = F.parse_spec(CHAIN + """
    pred shadow(x) == (emp & x = null) \\/ (exists x . x -> N(1, null) * chain(x)) ;
    """)
    pairs, extended = compare_query_memo(monkeypatch), compare_carried_state(monkeypatch)
    for text in ["shadow(a) * chain(c) & a = b", "shadow(a) & a != null", "shadow(a) & 1 <= b"]:
        S.sat(heap(text), spec, Budget(max_depth=3))
    assert len(pairs) == 3 and [p for p in pairs if p[1] != p[2]] == []


def test_null_points_to_head_leaves_the_disjunct_out():
    # sll(null) cannot unfold to a cell headed by null; its emp disjunct
    # is a model, as the oracle finds too.
    spec = F.parse_spec(corpus_path("sll.sl").read_text())
    d = heap("sll(null) & true")
    assert [F.print_heap(kid) for kid in S.unfold_at(d, 0, spec)] == ["emp & null = null"]
    result = sat(d, spec)
    assert result.is_sat and model_check(result.model, d, spec)
    assert T.oracle_sat(d, spec, 2, range(-2, 3))
    # One shape, two disjuncts: the one with a variable head stays.
    assert len(S.unfold_at(heap("sll(p) & true"), 0, spec)) == 2
    # A head named like a parameter but bound by the disjunct is a fresh
    # cell, whatever the argument: that disjunct stays and has a model (y
    # roots the cell, so that the oracle enumerates stores that hold it).
    spec = F.parse_spec(CHAIN + """
    pred shadow(x, y) == (emp & x != x) \\/ (exists x . x -> N(1, null) & x = y) ;
    """)
    d = heap("shadow(null, p) & true")
    assert len(S.unfold_at(d, 0, spec)) == 2
    result = sat(d, spec)
    assert result.is_sat and model_check(result.model, d, spec)
    assert T.oracle_sat(d, spec, 2, range(-2, 3))


def test_binder_named_like_a_parameter_leaves_its_sort_alone():
    # The binder x of shadow's second disjunct is a cell; the parameter x is
    # unsorted, so 3 is a fine argument, and both the solver and the oracle
    # find the cell that y points to.
    spec = F.parse_spec(CHAIN + """
    pred shadow(x, y) == (emp & x != x) \\/ (exists x . x -> N(1, null) & x = y) ;
    """)
    d = heap("shadow(3, p) & true")
    result = sat(d, spec)
    assert result.is_sat and model_check(result.model, d, spec)
    assert T.oracle_sat(d, spec, 3, range(-2, 3))


# ------------------------------------------------------------------ sat


def test_sat_emp_true(bst_spec):
    result = sat(heap("emp & true"), bst_spec)
    assert result.is_sat
    assert not result.model.heap.points_tos()


def test_sat_pure_contradiction_unsat(bst_spec):
    result = sat(heap("emp & x = null & !(x = null)"), bst_spec)
    assert result.decision == "unsat"


def test_sat_item2_one_node_model(bst_spec):
    item2 = heap("""exists elt, l, r . this_root -> BinaryNode(elt, l, r)
                    * bst(l, minE, elt) * bst(r, elt, maxE)
                    & minE < elt & maxE > elt""")
    result = sat(item2, bst_spec)
    assert result.is_sat
    assert len(result.model.heap.points_tos()) == 1
    assert model_check(result.model, item2, bst_spec)
    test = T.to_unit_test(result.model, [("this_root", "BinaryNode")], bst_spec)
    assert len(test.objects) == 1
    (obj,) = test.objects.values()
    assert obj.fields["left"] is None and obj.fields["right"] is None


def test_sat_respects_explicit_disequalities(bst_spec):
    d = heap("""exists elt, l, r . this_root -> BinaryNode(elt, l, r)
                * bst(l, minE, elt) * bst(r, elt, maxE)
                & minE < elt & maxE > elt & !(l = null) & !(r = null)""")
    result = sat(d, bst_spec, Budget(max_depth=8))
    assert result.is_sat
    assert len(result.model.heap.points_tos()) == 3
    assert model_check(result.model, d, bst_spec)
    # separation: concretized heads denote pairwise-distinct objects
    _, env = S.concretize_model(result.model, bst_spec)
    heads = [env[p.var] for p in result.model.heap.points_tos()]
    assert len(set(heads)) == len(heads)


def test_sat_unsat_shape_conflict(bst_spec):
    d = heap("bst(this_root, minE, maxE) & !(this_root = null) & this_root = null")
    result = sat(d, bst_spec)
    assert result.decision == "unsat"


def test_sat_budget_exhaustion_is_unknown(bst_spec):
    d = heap("""exists elt, l, r . this_root -> BinaryNode(elt, l, r)
                * bst(l, minE, elt) * bst(r, elt, maxE)
                & minE < elt & maxE > elt & !(l = null) & !(r = null)""")
    result = sat(d, bst_spec, Budget(max_depth=2))
    assert result.decision == "unknown"


def test_sat_determinism(bst_spec):
    d = heap("""exists elt, l, r . this_root -> BinaryNode(elt, l, r)
                * bst(l, minE, elt) * bst(r, elt, maxE)
                & minE < elt & maxE > elt""")
    first = sat(d, bst_spec)
    F.reset_names()
    second = sat(d, bst_spec)
    assert first.decision == second.decision
    assert F.alpha_equal(first.model.heap, second.model.heap)
    assert first.stats == second.stats


def test_sat_unchanged_on_ambiguous_predicate():
    # Two disjuncts derive the same heap; the spec keeps the first of them,
    # and the decisions and models stay those of the repeated frontier.
    spec = F.parse_spec(CHAIN.replace("chain", "twice").replace(
        "(emp & x = null)", "(emp & x = null) \\/ (emp & x = null)", 1))
    results = []
    for query in ["twice(p) & p != null",
                  "twice(p) * twice(q) & p != null & q != null",
                  "twice(p) & p != null & p = q & q = null"]:
        F.reset_names()
        result = sat(heap(query), spec, Budget(max_depth=5))
        results.append((result.decision, result.model and str(result.model)))
    assert results == [("sat", "p -> N(v1, n1) & n1 = null & v1 = 0"),
                       ("sat", "p -> N(v1, n1) * q -> N(v2, n2) & n1 = null & n2 = null"
                               " & v1 = 0 & v2 = 0"),
                       ("unsat", None)]


def test_sat_long_conjunction_needs_no_deep_recursion():
    # A long path condition is a conjunction of 1,500 literals; DNF
    # conversion must not recurse once per conjunct.
    d = heap("emp & " + " & ".join(f"x{i % 20} <= {100 + i}" for i in range(1500)))
    assert sat(d, EMPTY_SPEC).is_sat


def test_sat_many_integer_variables_need_no_deep_recursion():
    # The integer search assigns 1,500 variables one level deeper each.
    d = heap("emp & " + " & ".join(f"x{i} <= {i}" for i in range(1500)))
    result = sat(d, EMPTY_SPEC)
    assert result.is_sat
    assert result.stats.pure_nodes == 1501


def test_sat_time_limit_bounds_integer_search():
    # The p = q / p != q clash shows only once a, r, c and b are assigned,
    # so without a deadline the search visits 128^4 integer assignments.
    d = heap("emp & a = r & c = b & p = q & !(p = q)")
    start = time.monotonic()
    result = sat(d, EMPTY_SPEC, Budget(time_limit=0.5))
    assert result.decision == "unknown"
    assert time.monotonic() - start < 5


def test_sat_alpha_equal_disjuncts_count_once():
    # amb's two recursive disjuncts differ only in binder names; the spec
    # keeps one, so the frontier does not double each round.
    text = CHAIN.replace("chain", "amb").replace(
        " ;", " \\/ (exists w, m . x -> N(w, m) * amb(m)) ;")
    amb, plain = F.parse_spec(text), F.parse_spec(CHAIN.replace("chain", "amb"))
    assert len(amb.preds["amb"].body.disjuncts) == 2
    query = heap("amb(p) & 100 <= x")
    got, want = sat(query, amb, Budget(max_depth=6)), sat(query, plain, Budget(max_depth=6))
    assert (got.decision, got.stats.pure_nodes) == (want.decision, want.stats.pure_nodes)


LOOSE = CHAIN + """
pred loose(x) == (emp & true) \\/ (exists v, n . x -> N(v, n) * loose(n)) ;
pred same(x, y) == (emp & x = y) ;
"""
def loose_random_heaps():
    """600 seeded chain, loose and same heaps over mixed location and
    integer literals, many of them ill-sorted once unfolded."""
    rng = random.Random(5)

    def substitute(m):
        x = m.group(1)
        return rng.choice([f"chain({x})", f"loose({x})", f"same({rng.choice('abcpqr')}, {x})"])

    return [heap(re.sub(r"chain\((\w+)\)", substitute, _random_heap_text(rng)))
            for _ in range(600)]


def test_disequality_over_pinned_variables_fails_propagation():
    # same(q, r) unfolds to q = r, which pins r once q is assigned; the
    # search must refute r != q there, not at the leaves of the other
    # variables' values.
    spec = F.parse_spec(LOOSE)
    query = heap("same(q, r) & p != r & c < 1 & b <= c & r != q")
    result = sat(query, spec, Budget(max_depth=1))
    assert result.decision == "unsat" and result.stats.pure_nodes < 1000
    # A disequality between constants is refuted too, not read as a model.
    assert sat(heap("emp & 3 != 3"), EMPTY_SPEC).decision == "unsat"
    result = sat(heap("emp & x = 3 & x != 3"), EMPTY_SPEC)
    assert result.decision == "unsat" and not result.stats.bounded


def test_sat_location_inside_arithmetic_is_a_sort_error():
    # same(c, p) makes c a location; !(r = p & b <= c) makes it an int.
    spec = F.parse_spec(LOOSE)
    query = heap("loose(p) * loose(p) * same(c, p) & p = r & !(r = p & b <= c) & !(r != null)")
    # Every unfolding of same(c, p) clashes, and sat reads each as no model.
    assert sat(query, spec).decision == "unsat"


def test_unconstrained_reference_prefers_null(bst_spec):
    result = sat(heap("bst(this_root, minE, maxE) & true"), bst_spec)
    assert result.is_sat
    assert Atom("=", Var("this_root"), Null()) in list(F.conjuncts(result.model.heap.pure))


def test_self_alias_for_headless_nonnull_class():
    spec = F.parse_spec("data C { C next; }\ndata SNode { int v; SNode next; }\n"
                        "pred p(x) == emp & x = null ;")
    # The first member of the headless class keeps the self-alias; the
    # others alias it, so the whole class denotes one object.
    for text, data, first, others in [("x -> C(y) & !(y = null)", "C", "y", []),
                                      ("x -> SNode(0, p) & p = b & p != null", "SNode", "p", ["b"])]:
        d = F.parse_heap(text)
        result = sat(d, spec)
        assert result.is_sat
        pure = list(F.conjuncts(result.model.heap.pure))
        assert Atom("=", Var(first), Var(first)) in pure
        assert all(Atom("=", Var(v), Var(first)) in pure for v in others)
        # The oracle reads the self-alias as a dangling pointer...
        assert model_check(result.model, d, spec)
        # ...while the input builder materializes a compatibly-typed object.
        params = [(v, data) for v in ["x", first, *others]]
        test = T.to_unit_test(result.model, params, spec)
        assert len(test.objects) == 2
        assert test.bindings[first] in test.objects
        assert all(test.bindings[v] == test.bindings[first] for v in others)


def test_sorts_cross_any_number_of_equalities():
    # Sorts once crossed at most three equalities per heap, so a0 stayed
    # unsorted, was solved as an integer, and the model failed.
    spec = F.parse_spec(corpus_path("sll.sl").read_text())
    d = heap("a7 -> SNode(0, null) & " + " & ".join(f"a{i} = a{i + 1}" for i in range(7)))
    result = sat(d, spec)
    assert result.is_sat
    assert model_check(result.model, d, spec)
    params = F.infer_sorts(spec)
    backward = F.SymbolicHeap((), d.atoms, d.pure[::-1])
    assert F.heap_sorts(d, spec, params) == F.heap_sorts(backward, spec, params) \
        == {f"a{i}": "SNode" for i in range(8)}


# ------------------------------------------------------------ model_check


def test_model_check_empty_model_emp(bst_spec):
    m = S.SymbolicModel(heap("emp & true"), {})
    assert model_check(m, heap("emp & true"), bst_spec)


def test_model_check_nonempty_vs_emp(bst_spec):
    m = S.SymbolicModel(
        heap("this_root -> BinaryNode(elt, l, r) & elt = 1 & l = null & r = null"),
        {"elt": "int"})
    assert not model_check(m, heap("emp & true"), bst_spec)


def test_model_check_one_node_against_precondition(bst_spec, bst_pre):
    m = S.SymbolicModel(
        heap("this_root -> BinaryNode(elt, l, r) & elt = 1 & l = null & r = null"
             " & minE = 0 & maxE = 2"),
        {"elt": "int", "minE": "int", "maxE": "int"})
    assert model_check(m, bst_pre.disjuncts[0], bst_spec)


# ----------------------------------------------- randomized soundness


def _random_pure(rng, names):
    atoms = []
    for _ in range(rng.randrange(1, 4)):
        a, b = rng.choice(names), rng.choice(names)
        kind = rng.randrange(3)
        if kind == 0:
            atom = Atom("=", Var(a), Const(rng.randrange(-3, 4)))
        elif kind == 1:
            atom = Atom("<=", Var(a), Var(b))
        else:
            atom = Not(Atom("=", Var(a), Var(b)))
        atoms.append(atom)
    return F.conj(atoms)


def test_sat_models_always_pass_model_check_fuzz():
    spec = F.parse_spec("""
    data N { int v; N next; }
    pred chain(x) == (emp & x = null) \\/ (exists v, n . x -> N(v, n) * chain(n)) ;
    """)
    rng = random.Random(7)
    names = ["a", "b", "c"]
    for i in range(60):
        pure = _random_pure(rng, names)
        atoms = (F.PredInst("chain", (Var(rng.choice(["p", "q"])),)),) \
            if rng.random() < 0.5 else ()
        d = F.SymbolicHeap((), atoms, pure)
        try:
            result = sat(d, spec, Budget(max_depth=3))
        except F.SortError:
            continue  # randomly ill-sorted mixtures are fine to reject
        if result.is_sat:
            assert model_check(result.model, d, spec), F.print_heap(d)


def test_sat_models_pass_model_check_on_random_heaps():
    spec = F.parse_spec(LOOSE)
    models = inputs = 0
    for d in loose_random_heaps():
        try:
            result = sat(d, spec, Budget(max_depth=4))
        except F.SortError:
            continue
        if result.is_sat:
            models += 1
            assert model_check(result.model, d, spec), F.print_heap(d)
            # Every variable of the query is an entry parameter, declared
            # with the sort of its model value (N for a bare reference).
            sorts = result.model.sorts
            params = [(v, {"nullref": "N"}.get(sorts.get(v, "int"), sorts.get(v, "int")))
                      for v in F.heap_vars(d)]
            test = T.to_unit_test(result.model, params, spec)
            # An input fails the query only where the model leaves a class
            # dangling (a self-alias): to_unit_test puts an object there,
            # which the query's exact footprint need not allow.
            dangling = any(c.left == c.right for c in result.model.heap.pure)
            valid = T.input_satisfies(test, F.Formula((d,)), spec)
            assert valid or dangling, F.print_heap(d)
            inputs += valid
    assert models > 300 and inputs > 300


def test_solver_unsat_never_contradicts_oracle():
    spec = F.parse_spec("""
    data N { int v; N next; }
    pred chain(x) == (emp & x = null) \\/ (exists v, n . x -> N(v, n) * chain(n)) ;
    """)
    queries = [
        "chain(p) & true",
        "chain(p) & !(p = null)",
        "chain(p) & p = null & !(p = null)",
        "exists v, n . p -> N(v, n) * chain(n) & v = 2 & 3 <= v",
    ]
    for text in queries:
        d = F.parse_heap(text)
        result = sat(d, spec, Budget(max_depth=4))
        within = T.oracle_sat(d, spec, 3, range(-4, 5))
        if result.decision == "unsat":
            assert not within, text
        if result.is_sat:
            assert within, text


def test_oracle_reads_an_ill_sorted_comparison_as_no_model():
    # same(c, p) equates the integer c with the location p, so every
    # unfolding is a sort clash for sat; the oracle binds c to null, and
    # b <= c then has no truth value, also under the negation.
    spec = F.parse_spec(LOOSE)
    d = heap("loose(p) * loose(p) * same(c, p) & p = r & !(r = p & b <= c) & !(r != null)")
    assert sat(d, spec).decision == "unsat"
    assert not T.oracle_sat(d, spec, 2, range(-2, 3))
    env = {"p": None, "r": None, "c": None}
    assert not T.heap_satisfies({}, env, heap("emp & !(b <= c)"), spec)
    assert not T.heap_satisfies({}, env, heap("emp & !(r = p & b <= c)"), spec)
    assert T.heap_satisfies({}, {**env, "c": 1}, heap("emp & !(r = p & b <= c)"), spec)
