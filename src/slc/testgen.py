"""Test-input generation and concrete validity checking.

Phase one of the pipeline: unfold the precondition a bounded number of
times, ask the solver for a model of each resulting heap, and build a
fully-initialized concrete input from each model. Inputs are heap graphs
plus scalar bindings; no field is ever left uninitialized, so emitted
tests run as-is.

The dual of generation lives here too: ``heap_satisfies`` decides whether
a concrete input satisfies a symbolic heap by exact footprint matching
(``emp`` demands emptiness, a points-to consumes one object, ``*`` splits
disjointly). The oracle brute-forces all small candidate inputs:
``oracle_sat`` decides whether a heap has a concrete model within bounds
(criterion 6's entry point) and ``oracle_enumerate`` lists the inputs that
satisfy one predicate instance. Together they are the ground truth the
solver and the generator are tested against.
"""

from __future__ import annotations

import itertools
import random
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
    eval_ground,
)
from .unfold import unfold_round
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


def _eval_pure_ground(pure, env: Mapping[str, object]) -> bool | None:
    """Three-valued: None when a term has no value (see ``eval_ground``)."""
    if isinstance(pure, F.TruePure):
        return True
    if isinstance(pure, Atom):
        left = eval_ground(pure.left, env)
        right = eval_ground(pure.right, env)
        if left is UNDEFINED or right is UNDEFINED:
            return None
        if pure.op == "=":
            return _values_equal(left, right)
        if isinstance(left, Addr) or isinstance(right, Addr) or \
                left is None or right is None:
            return False
        return left <= right
    if isinstance(pure, F.Not):
        inner = _eval_pure_ground(pure.inner, env)
        return None if inner is None else not inner
    left = _eval_pure_ground(pure.left, env)
    right = _eval_pure_ground(pure.right, env)
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
                   int_candidates: Sequence[int] | None = None) -> bool:
    """Does (store, env) satisfy ``d`` with the store as exact footprint?

    Variables of ``d`` missing from ``env`` (its existentials, plus any
    free variables the caller left out) are witnessed by bounded search:
    reference candidates are the store's addresses plus null, integer
    candidates default to the values present in the problem and their
    neighbours.
    """
    if int_candidates is None:
        int_candidates = _int_candidates(store, env, d, defs)
    counter = itertools.count()
    binders = {v: f"{v}#{next(counter)}" for v in d.exists}
    renames = {v: Var(n) for v, n in binders.items()}
    atoms = F.subst_spatial(d.atoms, renames)
    pure = F.subst_pure(d.pure, renames)
    fp = frozenset(store.keys())
    limit = 2 * len(store) + 16
    for leftover, env2 in _match_atoms(atoms, 0, fp, dict(env), store,
                                       defs, counter, limit, list(int_candidates)):
        if leftover:
            continue
        for _ in _satisfy_pure(pure, env2, store, list(int_candidates)):
            return True
    return False


def _match_atoms(atoms, i, fp, env, store, defs, counter, depth,
                 candidates) -> Iterator[tuple[frozenset, dict]]:
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
                                        defs, counter, depth, candidates)
        return
    # Predicate instance: try each disjunct of the definition on a
    # sub-footprint, propagating bindings outward.
    pred = defs.preds.get(atom.pred)
    if pred is None or len(pred.params) != len(atom.args):
        return
    binding = dict(zip(pred.params, atom.args))
    for disjunct in pred.body.disjuncts:
        renaming = {**binding, **{v: Var(f"{v}#{next(counter)}") for v in disjunct.exists}}
        try:
            body = SymbolicHeap((), F.subst_spatial(disjunct.atoms, renaming),
                                F.subst_pure(disjunct.pure, renaming))
        except F.SubstitutionError:
            continue
        for fp2, env2 in _match_atoms(body.atoms, 0, fp, env, store, defs,
                                      counter, depth - 1, candidates):
            for env3 in _satisfy_pure(body.pure, env2, store, candidates):
                yield from _match_atoms(atoms, i + 1, fp2, env3, store, defs,
                                        counter, depth, candidates)


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
            if value is False:
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
    over the domain. Yields (store, root value per root sort)."""

    def grow(shape: list[str], wiring: dict, pending: list, roots: list,
             root_idx: int) -> Iterator[tuple[list[str], dict, list]]:
        if root_idx < len(root_sorts):
            sort = root_sorts[root_idx]
            yield from grow(shape, {**wiring}, list(pending), roots + [None], root_idx + 1)
            for i, t in enumerate(shape):
                if t == sort:
                    yield from grow(shape, {**wiring}, list(pending),
                                    roots + [i], root_idx + 1)
            if len(shape) < max_objects:
                new_idx = len(shape)
                shape2 = shape + [sort]
                pend2 = pending + [(new_idx, f, ft)
                                   for f, ft in defs.datas[sort].fields
                                   if ft in defs.datas]
                yield from grow(shape2, {**wiring}, pend2, roots + [new_idx],
                                root_idx + 1)
            return
        if not pending:
            yield shape, wiring, roots
            return
        (obj, fname, ftype), rest = pending[0], pending[1:]
        yield from grow(shape, {**wiring, (obj, fname): None}, rest, roots, root_idx)
        for i, t in enumerate(shape):
            if t == ftype:
                yield from grow(shape, {**wiring, (obj, fname): i}, rest, roots, root_idx)
        if len(shape) < max_objects:
            new_idx = len(shape)
            shape2 = shape + [ftype]
            pend2 = rest + [(new_idx, f, ft) for f, ft in defs.datas[ftype].fields
                            if ft in defs.datas]
            yield from grow(shape2, {**wiring, (obj, fname): new_idx}, pend2,
                            roots, root_idx)

    for shape, wiring, roots in grow([], {}, [], [], 0):
        scalar_slots = [(i, fname, ftype) for i, t in enumerate(shape)
                        for fname, ftype in defs.datas[t].fields
                        if ftype in ("int", "bool")]
        domains = [([False, True] if ftype == "bool" else list(scalar_domain))
                   for _, _, ftype in scalar_slots]
        for combo in itertools.product(*domains):
            addrs = [Addr(i + 1, t) for i, t in enumerate(shape)]
            store: dict[Addr, HeapObject] = {}
            for i, t in enumerate(shape):
                fields: dict[str, object] = {}
                for fname, ftype in defs.datas[t].fields:
                    if ftype in defs.datas:
                        tgt = wiring[(i, fname)]
                        fields[fname] = None if tgt is None else addrs[tgt]
                for (j, fname, _), value in zip(scalar_slots, combo):
                    if j == i:
                        fields[fname] = value
                store[addrs[i]] = HeapObject(addrs[i], t, fields)
            yield store, [None if r is None else addrs[r] for r in roots]


def oracle_enumerate(defs: SpecFile, inst: PredInst, max_objects: int,
                     scalar_domain: Sequence[int]) -> list[TestInput]:
    """Exhaustively enumerate inputs (connected stores rooted at the
    instance's reference arguments) that satisfy the instance. Scalar
    arguments of the instance act as existential ghosts."""
    if max_objects > 4:
        raise OracleBudgetError("oracle limited to at most 4 objects")
    sorts = F.infer_sorts(defs).get(inst.pred)
    if sorts is None:
        raise KeyError(inst.pred)
    ref_args = [(i, a.name) for i, (a, s) in enumerate(zip(inst.args, sorts))
                if isinstance(a, Var) and s in defs.datas]
    out: list[TestInput] = []
    for store, roots in _enum_stores(defs, [sorts[i] for i, _ in ref_args],
                                     max_objects, scalar_domain):
        env = {name: roots[k] for k, (_, name) in enumerate(ref_args)}
        d = SymbolicHeap((), (inst,), ())
        if heap_satisfies(store, env, d, defs, int_candidates=list(scalar_domain)):
            out.append(TestInput(store, dict(env), provenance="oracle"))
    return out


def oracle_sat(d: SymbolicHeap, defs: SpecFile, max_objects: int,
               scalar_domain: Sequence[int]) -> bool:
    """Existence of a concrete model of ``d`` within the given bounds."""
    if max_objects > 4:
        raise OracleBudgetError("oracle limited to at most 4 objects")
    sorts = F.heap_sorts(d, defs, F.infer_sorts(defs))
    free = sorted(F.free_vars(d))
    ref_vars = [v for v in free if sorts.get(v) in defs.datas]
    seed_types = [sorts[v] for v in ref_vars] + [p.type_name for p in d.points_tos()]
    types = _relevant_types(defs, seed_types)
    if not types and not d.points_tos():
        return heap_satisfies({}, {}, d, defs, int_candidates=list(scalar_domain))
    for store, roots in _enum_stores(defs, [sorts[v] for v in ref_vars],
                                     max_objects, scalar_domain):
        env = dict(zip(ref_vars, roots))
        if heap_satisfies(store, env, d, defs, int_candidates=list(scalar_domain)):
            return True
    return False


# =====================================================================
# Random-scalar baseline
# =====================================================================


def random_baseline(entry_params: Sequence[tuple[str, str]], count: int,
                    int_min: int = -64, int_max: int = 63,
                    seed: int = 0) -> list[TestInput]:
    """Reference-typed parameters stay null; scalars are drawn uniformly.
    The weak baseline spec-driven generation is compared against."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        bindings: dict[str, object] = {}
        for name, ptype in entry_params:
            if ptype == "int":
                bindings[name] = rng.randint(int_min, int_max)
            elif ptype == "bool":
                bindings[name] = rng.random() < 0.5
            else:
                bindings[name] = None
        out.append(TestInput({}, bindings, provenance=f"baseline:{i}"))
    return out
