"""Test-input generation and concrete validity checking.

Phase one of the pipeline: unfold the precondition a bounded number of
times, ask the solver for a model of each resulting heap, and build a
fully-initialized concrete input from each model. Inputs are heap graphs
plus scalar bindings; no field is ever left uninitialized, so emitted
tests run as-is.

The dual of generation lives here too: ``heap_satisfies`` decides whether
a concrete input satisfies a symbolic heap by exact footprint matching
(``emp`` demands emptiness, a points-to consumes one object, ``*`` splits
disjointly). A ``<=`` with a null or address side is ill-sorted: it has
no truth value, also under ``!``, and the assignment being tried is no
model (``sat`` reads such a heap as a sort clash). The oracle brute-forces
all small candidate inputs: ``oracle_sat`` decides whether a heap has a
concrete model within bounds (criterion 6's entry point) and
``oracle_enumerate`` lists the inputs that satisfy one predicate instance.
Together they are the ground truth the solver and the generator are tested
against.

The oracle enumerates shapes first and scalars second (``_enum_stores``):
a backtracking walk wires every reference field of up to ``max_objects``
objects, and each shape then gets every combination of its scalar fields.
A query is prepared once, its binders renamed and its candidates listed,
and each store is one ``heap_satisfies`` call that reuses the predicate
bodies the stores before it renamed.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from . import formulas as F
from . import solver as S
from .formulas import (
    Add,
    ArithTerm,
    Atom,
    Const,
    Formula,
    Neg,
    PointsTo,
    PredInst,
    Scale,
    SpecFile,
    SymbolicHeap,
    UNDEFINED,
    Var,
    dedup_heaps,
    eval_ground,
)
from .solver import unfold_at
from .value import Value, setfield

# =====================================================================
# Concrete values and heaps
# =====================================================================


class Addr(Value):
    __slots__ = ("ident", "type_name")

    def __init__(self, ident: int, type_name: str):
        setfield(self, "ident", ident)
        setfield(self, "type_name", type_name)

    def __hash__(self) -> int:
        return hash((self.ident, self.type_name))

    def __eq__(self, other: object) -> bool:
        return (other.__class__ is Addr
                and (self.ident, self.type_name) == (other.ident, other.type_name))

    def __repr__(self) -> str:
        return f"@{self.type_name}{self.ident}"


class HeapObject:
    def __init__(self, addr: Addr, type_name: str, fields: dict[str, object]):
        self.addr, self.type_name, self.fields = addr, type_name, fields


class TestInput:
    def __init__(self, objects: dict[Addr, HeapObject], bindings: dict[str, object],
                 provenance: str = ""):
        self.objects, self.bindings, self.provenance = objects, bindings, provenance

    def describe(self) -> str:
        objs = "; ".join(
            f"{addr!r}({', '.join(f'{k}={v!r}' for k, v in obj.fields.items())})"
            for addr, obj in self.objects.items())
        binds = ", ".join(f"{k}={v!r}" for k, v in self.bindings.items())
        return f"[{objs}] {binds}"


def default_value(type_name: str):
    if type_name == "int":
        return 0
    if type_name == "bool":
        return False
    return None


# =====================================================================
# toUnitTest: symbolic model -> concrete input
# =====================================================================


def to_unit_test(m: S.SymbolicModel, entry_params: Sequence[tuple[str, str]],
                 defs: SpecFile, provenance: str = "") -> TestInput:
    """Build an input on the solver's own reading of the model
    (``solver.concretize_model``): put a default-valued object at each
    dangling address, so the input runs as-is, check the scalars against
    int32, bind the entry parameters (their type's default where the model
    leaves one free), and drop the objects not reachable from them: those
    describe solver-internal values, not part of the input. A dangling
    class sorted only as a reference takes its record type from an entry
    parameter it contains. Raises ``solver.ModelError``."""
    declared = {name: ptype for name, ptype in entry_params
                if m.sorts.get(name) == "nullref"}
    store, env = S.concretize_model(S.SymbolicModel(m.heap, {**m.sorts, **declared}), defs)
    for addr in sorted({a for a in env.values() if isinstance(a, Addr)} - store.keys(),
                       key=lambda a: a.ident):
        if addr.type_name in defs.datas:
            store[addr] = HeapObject(addr, addr.type_name, {
                f: default_value(ft) for f, ft in defs.datas[addr.type_name].fields})
    fields = [kv for obj in store.values() for kv in obj.fields.items()]
    for name, value in [*env.items(), *fields]:
        if type(value) is int and not F.INT32_MIN <= value <= F.INT32_MAX:
            raise S.ModelError(f"scalar {name}={value} outside 32-bit range")
    bindings = {name: env.get(name, default_value(ptype)) for name, ptype in entry_params}
    reachable = _reachable(store, bindings.values())
    kept = {a: store[a] for a in store if a in reachable}
    return TestInput(kept, bindings, provenance)


def _reachable(store: Mapping[Addr, HeapObject], seeds: Iterable[object]) -> set[Addr]:
    seen: set[Addr] = set()
    work = [v for v in seeds if isinstance(v, Addr)]
    while work:
        addr = work.pop()
        if addr in seen or addr not in store:
            continue
        seen.add(addr)
        for value in store[addr].fields.values():
            if isinstance(value, Addr):
                work.append(value)
    return seen


# =====================================================================
# Concrete satisfaction: footprint-exact matching
# =====================================================================


def _values_equal(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return (bool(a) if isinstance(a, (bool, int)) else a) == \
               (bool(b) if isinstance(b, (bool, int)) else b)
    return a == b


# The value of a pure formula in which a ``<=`` has a null or address side.
_ILL_SORTED = "ill-sorted"


def _eval_pure_ground(pure, env: Mapping[str, object]) -> bool | None | str:
    """Three-valued: None when a term has no value yet (see
    ``eval_ground``). ``_ILL_SORTED`` overrides both truth values."""
    if isinstance(pure, F.TruePure):
        return True
    if isinstance(pure, Atom):
        left = eval_ground(pure.left, env)
        right = eval_ground(pure.right, env)
        if pure.op == "=":
            return None if left is UNDEFINED or right is UNDEFINED else _values_equal(left, right)
        if left is None or right is None or isinstance(left, Addr) or isinstance(right, Addr):
            return _ILL_SORTED
        if left is UNDEFINED or right is UNDEFINED:
            return None
        return left <= right
    if isinstance(pure, F.Not):
        inner = _eval_pure_ground(pure.inner, env)
        return inner if inner is None or inner is _ILL_SORTED else not inner
    left = _eval_pure_ground(pure.left, env)
    right = _eval_pure_ground(pure.right, env)
    if left is _ILL_SORTED or right is _ILL_SORTED:
        return _ILL_SORTED
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _int_candidates(store: Mapping[Addr, HeapObject], env: Mapping[str, object],
                    d: SymbolicHeap, defs: SpecFile) -> list[int]:
    pool: set[int] = {0}

    def add(v) -> None:
        if isinstance(v, int) and not isinstance(v, bool):
            pool.update((v - 1, v, v + 1))

    for obj in store.values():
        for value in obj.fields.values():
            add(value)
    for value in env.values():
        add(value)

    def scan_pure(p) -> None:
        if isinstance(p, Atom):
            for t in (p.left, p.right):
                for sub in _term_consts(t):
                    add(sub)
        elif isinstance(p, F.Not):
            scan_pure(p.inner)
        elif isinstance(p, F.And):
            scan_pure(p.left)
            scan_pure(p.right)

    for p in d.pure:
        scan_pure(p)
    for pred in defs.preds.values():
        for disjunct in pred.body.disjuncts:
            for p in disjunct.pure:
                scan_pure(p)
    return sorted(pool)


def _term_consts(term: ArithTerm) -> list[int]:
    if isinstance(term, Const):
        return [term.value]
    if isinstance(term, (Neg, Scale)):
        return _term_consts(term.term)
    if isinstance(term, Add):
        return _term_consts(term.left) + _term_consts(term.right)
    return []


def heap_satisfies(store: Mapping[Addr, HeapObject], env: Mapping[str, object],
                   d: SymbolicHeap, defs: SpecFile,
                   int_candidates: Sequence[int] | None = None,
                   bodies: dict | None = None) -> bool:
    """Does (store, env) satisfy ``d`` with the store as exact footprint?

    Variables of ``d`` missing from ``env`` (its existentials, plus any
    free variables the caller left out) are witnessed by bounded search:
    reference candidates are the store's addresses plus null, integer
    candidates default to the values present in the problem and their
    neighbours. ``bodies`` keeps the renamed predicate bodies
    (``_unfolding``) for later calls on the same spec, under each
    unfolding's number and instance (by identity: the instances come from
    ``d`` and from the kept bodies). The oracle passes one table per query,
    so each store reuses the bodies the stores before it renamed.
    """
    if int_candidates is None:
        int_candidates = _int_candidates(store, env, d, defs)
    candidates = list(int_candidates)
    if d.exists:
        d = _opened(d)
    limit = 2 * len(store) + 16
    for leftover, env2 in _match_atoms(d.atoms, 0, frozenset(store), dict(env), store, defs,
                                       (itertools.count(), {} if bodies is None else bodies),
                                       limit, candidates):
        if leftover:
            continue
        for _ in _satisfy_pure(d.pure, env2, store, candidates):
            return True
    return False


def _opened(d: SymbolicHeap) -> SymbolicHeap:
    """``d`` with its binders renamed ``v#`` and dropped, so that no
    variable of the caller's environment binds them. ``_unfolding`` names
    predicate binders ``v#0``, ``v#1``, ...: the two never meet."""
    renames = {v: Var(f"{v}#") for v in d.exists}
    return SymbolicHeap((), F.subst_spatial(d.atoms, renames),
                        F.subst_pure(d.pure, renames))


def _unfolding(pred: F.PredDef, k: int, args: tuple, n: int) -> SymbolicHeap | None:
    """Disjunct ``k`` of ``pred`` with ``args`` put in and its binders
    renamed ``v#n``; None where a points-to head would become a
    non-variable. It depends on nothing else, so one store's match and the
    next share it."""
    disjunct = pred.body.disjuncts[k]
    renaming = {**dict(zip(pred.params, args)),
                **{v: Var(f"{v}#{n}") for v in disjunct.exists}}
    try:
        return SymbolicHeap((), F.subst_spatial(disjunct.atoms, renaming),
                            F.subst_pure(disjunct.pure, renaming))
    except F.SubstitutionError:
        return None


def _match_atoms(atoms, i, fp, env, store, defs, names, depth,
                 candidates) -> Iterator[tuple[frozenset, dict]]:
    """Match ``atoms[i:]`` on the footprint ``fp``. ``names`` is the call's
    counter of unfoldings and the table of their bodies."""
    if depth < 0:
        return
    if i == len(atoms):
        yield fp, env
        return
    atom = atoms[i]
    if isinstance(atom, PointsTo):
        head = env.get(atom.var, UNDEFINED)
        if head is UNDEFINED:
            choices = sorted((a for a in fp if a.type_name == atom.type_name),
                             key=lambda a: a.ident)
        elif isinstance(head, Addr):
            choices = [head]
        else:
            return
        data = defs.datas.get(atom.type_name)
        if data is None or len(data.fields) != len(atom.args):
            return
        for addr in choices:
            if addr not in fp or addr.type_name != atom.type_name:
                continue
            obj = store[addr]
            env2 = dict(env)
            env2.setdefault(atom.var, addr)
            ok = True
            for (fname, _), arg in zip(data.fields, atom.args):
                slot = obj.fields[fname]
                if isinstance(arg, Var) and arg.name not in env2:
                    env2[arg.name] = slot
                    continue
                got = eval_ground(arg, env2)
                if got is UNDEFINED or not _values_equal(got, slot):
                    ok = False
                    break
            if ok:
                yield from _match_atoms(atoms, i + 1, fp - {addr}, env2, store,
                                        defs, names, depth, candidates)
        return
    # Predicate instance: try each disjunct of the definition on a
    # sub-footprint, propagating bindings outward.
    pred = defs.preds.get(atom.pred)
    if pred is None or len(pred.params) != len(atom.args):
        return
    counter, bodies = names
    n = next(counter)
    for seen, unfolded in bodies.setdefault(n, []):
        if seen is atom:
            break
    else:
        unfolded = []
        bodies[n].append((atom, unfolded))
    for k in range(len(pred.body.disjuncts)):
        if k == len(unfolded):  # renamed when first reached
            unfolded.append(_unfolding(pred, k, atom.args, n))
        body = unfolded[k]
        if body is None:
            continue
        for fp2, env2 in _match_atoms(body.atoms, 0, fp, env, store, defs,
                                      names, depth - 1, candidates):
            for env3 in _satisfy_pure(body.pure, env2, store, candidates):
                yield from _match_atoms(atoms, i + 1, fp2, env3, store, defs,
                                        names, depth, candidates)


def _satisfy_pure(parts, env, store, candidates) -> Iterator[dict]:
    """Check pure conjuncts, binding simple equalities and searching the
    candidate space for any variables that remain unknown."""
    env = dict(env)
    pending = list(parts)
    progress = True
    while progress:
        progress = False
        remaining = []
        for p in pending:
            value = _eval_pure_ground(p, env)
            if value is True:
                progress = True
                continue
            if value is False or value is _ILL_SORTED:
                return
            if isinstance(p, Atom) and p.op == "=":
                lv = eval_ground(p.left, env)
                rv = eval_ground(p.right, env)
                if lv is UNDEFINED and rv is not UNDEFINED and isinstance(p.left, Var):
                    env[p.left.name] = rv
                    progress = True
                    continue
                if rv is UNDEFINED and lv is not UNDEFINED and isinstance(p.right, Var):
                    env[p.right.name] = lv
                    progress = True
                    continue
            remaining.append(p)
        pending = remaining
    if not pending:
        yield env
        return
    unbound: list[str] = []
    for p in pending:
        for v in sorted(F.pure_vars(p)):
            if v not in env and v not in unbound:
                unbound.append(v)
    if not unbound:
        return  # ground but neither true nor false cannot happen
    addrs = sorted(store.keys(), key=lambda a: a.ident)
    options: list[object] = list(candidates) + [None] + list(addrs) + [True, False]
    var = unbound[0]
    for choice in options:
        env[var] = choice
        yield from _satisfy_pure(pending, env, store, candidates)
    del env[var]


def input_satisfies(test: TestInput, formula: Formula, defs: SpecFile) -> bool:
    """Validity of an input against a precondition formula; precondition
    variables that are not entry parameters act as existential ghosts."""
    for d in formula.disjuncts:
        if heap_satisfies(test.objects, test.bindings, d, defs):
            return True
    return False


# =====================================================================
# genFromSpec: bounded unfolding, then solve and build
# =====================================================================


def unfold_round(heaps: list[SymbolicHeap], defs: SpecFile) -> list[SymbolicHeap]:
    """One generation round: base heaps carry forward, the rest unfold
    every instance independently; alpha-equivalent results are dropped."""
    out: list[SymbolicHeap] = []
    for d in heaps:
        if d.is_base():
            out.append(d)
        for i, a in enumerate(d.atoms):
            if isinstance(a, PredInst):
                out.extend(unfold_at(d, i, defs))
    return dedup_heaps(out)


class GenStats:
    def __init__(self):
        self.solver_calls = self.unknown_skipped = 0
        self.unfold_rounds = self.pure_nodes = 0


def gen_from_spec(g: Sequence[SymbolicHeap], n: int, defs: SpecFile,
                  entry_params: Sequence[tuple[str, str]],
                  budget: S.Budget | None = None,
                  stats: GenStats | None = None) -> list[TestInput]:
    """Generate inputs from a heap set: unfold ``n`` rounds (base heaps
    carry forward), then emit one input per satisfiable heap."""
    if not g:
        raise ValueError("the initial heap set must be nonempty")
    budget = budget or S.Budget()
    stats = stats if stats is not None else GenStats()
    heaps = list(g)
    for _ in range(n):
        heaps = unfold_round(heaps, defs)
    tests: list[TestInput] = []
    for i, d in enumerate(heaps):
        result = S.sat(d, defs, budget)
        stats.solver_calls += 1
        stats.unfold_rounds += result.stats.rounds
        stats.pure_nodes += result.stats.pure_nodes
        if result.is_sat:
            tests.append(to_unit_test(result.model, entry_params, defs,
                                      provenance=f"spec:d{n}:h{i}"))
        elif result.decision == "unknown":
            stats.unknown_skipped += 1
    return tests


# =====================================================================
# Brute-force oracle
# =====================================================================


class OracleBudgetError(Exception):
    pass


def _relevant_types(defs: SpecFile, seeds: Iterable[str]) -> list[str]:
    out: list[str] = []
    work = [t for t in seeds if t in defs.datas]
    while work:
        t = work.pop(0)
        if t in out:
            continue
        out.append(t)
        for _, ftype in defs.datas[t].fields:
            if ftype in defs.datas:
                work.append(ftype)
    return out


def _enum_stores(defs: SpecFile, root_sorts: Sequence[str], max_objects: int,
                 scalar_domain: Sequence[int]) -> Iterator[tuple[dict, list]]:
    """All connected stores grown from the given roots, with scalar fields
    over the domain. Yields (store, root value per root sort).

    Shapes come first. One backtracking walk fills each root, then each
    reference field in the order its object joined the shape, with null,
    each object of its type already in the shape, or one new object. Each
    shape's addresses and reference fields are made once; each combination
    of its scalar fields then gets fresh objects and field dicts."""
    objects: list[tuple[Addr, str, dict]] = []  # (address, type, reference fields)
    pending: list[tuple[dict, str, str]] = []   # (its object's fields, name, type)
    roots: list[Addr | None] = []

    def grow(pos: int) -> Iterator[None]:
        filled = len(roots) == len(root_sorts)
        if filled and pos == len(pending):
            yield
            return
        sort = pending[pos][2] if filled else root_sorts[len(roots)]
        size, waiting = len(objects), len(pending)
        targets = [None, *(addr for addr, t, _ in objects if t == sort)]
        if size < max_objects:
            targets.append(Addr(size + 1, sort))
        for target in targets:
            if target is not None and target.ident > size:  # a new object
                refs: dict = {}
                objects.append((target, sort, refs))
                pending.extend((refs, f, ft) for f, ft in defs.datas[sort].fields
                               if ft in defs.datas)
            if filled:
                fields, name, _ = pending[pos]
                fields[name] = target
                yield from grow(pos + 1)
            else:
                roots.append(target)
                yield from grow(pos)
                roots.pop()
        del objects[size:], pending[waiting:]

    domains = {"int": list(scalar_domain), "bool": [False, True]}
    scalars = {}  # type -> every assignment of its scalar fields
    for t, data in defs.datas.items():
        names = [(f, domains[ft]) for f, ft in data.fields if ft in domains]
        scalars[t] = [tuple(zip([f for f, _ in names], combo))
                      for combo in itertools.product(*(dom for _, dom in names))]
    for _ in grow(0):
        at = list(roots)
        for combo in itertools.product(*(scalars[t] for _, t, _ in objects)):
            store = {}
            for (addr, t, refs), assigned in zip(objects, combo):
                store[addr] = HeapObject(addr, t, {**refs, **dict(assigned)})
            yield store, at


def oracle_enumerate(defs: SpecFile, inst: PredInst, max_objects: int,
                     scalar_domain: Sequence[int]) -> list[TestInput]:
    """Exhaustively enumerate inputs (connected stores rooted at the
    instance's reference arguments) that satisfy the instance. Scalar
    arguments of the instance act as existential ghosts."""
    if max_objects > 4:
        raise OracleBudgetError("oracle limited to at most 4 objects")
    sorts = defs.param_sorts.get(inst.pred)
    if sorts is None:
        raise KeyError(inst.pred)
    ref_args = [(i, a.name) for i, (a, s) in enumerate(zip(inst.args, sorts))
                if isinstance(a, Var) and s in defs.datas]
    d, candidates, bodies = SymbolicHeap((), (inst,), ()), list(scalar_domain), {}
    out: list[TestInput] = []
    for store, roots in _enum_stores(defs, [sorts[i] for i, _ in ref_args],
                                     max_objects, scalar_domain):
        env = {name: roots[k] for k, (_, name) in enumerate(ref_args)}
        if heap_satisfies(store, env, d, defs, candidates, bodies):
            out.append(TestInput(store, dict(env), provenance="oracle"))
    return out


def oracle_sat(d: SymbolicHeap, defs: SpecFile, max_objects: int,
               scalar_domain: Sequence[int]) -> bool:
    """Existence of a concrete model of ``d`` within the given bounds. The
    query is opened, and its candidate list and body table made, once;
    each store is one ``heap_satisfies`` call."""
    if max_objects > 4:
        raise OracleBudgetError("oracle limited to at most 4 objects")
    sorts = F.heap_sorts(d, defs, defs.param_sorts)
    free = sorted(F.free_vars(d))
    ref_vars = [v for v in free if sorts.get(v) in defs.datas]
    seed_types = [sorts[v] for v in ref_vars] + [p.type_name for p in d.points_tos()]
    types = _relevant_types(defs, seed_types)
    if not types and not d.points_tos():
        return heap_satisfies({}, {}, d, defs, int_candidates=list(scalar_domain))
    opened, candidates, bodies = _opened(d), list(scalar_domain), {}
    for store, roots in _enum_stores(defs, [sorts[v] for v in ref_vars],
                                     max_objects, scalar_domain):
        env = dict(zip(ref_vars, roots))
        if heap_satisfies(store, env, opened, defs, candidates, bodies):
            return True
    return False
