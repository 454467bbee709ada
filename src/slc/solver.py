"""Bounded satisfiability for symbolic heaps, with model extraction.

``sat`` runs an iterative-deepening search: predicate instances are
unfolded breadth-first up to a depth budget, and every fully-base heap
reached is closed by a two-sorted ground solver, one DNF cube at a time.
Location variables are solved by union-find over the equalities, with
null and every points-to head marked: separation makes the heads non-null
and pairwise distinct, so a cube in which two marks share a class, or a
disequality joins a class to itself, has no model. Each head's class gets
its own abstract address, and every other class is null unless a
disequality with a null class forbids it. Integer variables are solved by
interval propagation followed by backtracking search over a finite
domain. The frontier check of ``sat`` is the same per-cube check without
the integer search.

One query checks each heap once, by extending its parent's check state.
A heap's state is the sort-walk state of its points-to atoms and pure
part, and per cube each variable's kind (unsorted, location or integer),
the alias classes, the disequalities, the linear forms and, if
propagation reached its fixpoint, the bounds. ``sat``'s frontier carries
each heap that ``unfold_at`` made with its parent and the parent's state,
so a state lives until the last of its children has been checked. A child
is its parent minus the instance plus the body, its conjuncts the
parent's followed by the body's, so it extends the parent's walk by the
body and then its own instances for its sorts, and each child cube shares
its parent cube's state, copying what the body adds to: it splits and
merges only the body's literals, checks the marks and disequalities over
the merged classes, and propagates from the parent's fixpoint, starting
from the body's linear forms. The query, and a child of a sort clash,
begin with the sort walk of the query's conjuncts, made once. A cube
starts from scratch when its parent cube was contradictory or a variable
changed kind (dropping the instance can unsort one), and from fresh
bounds when its parent's stopped at the round cap. This is exact: sort
joins do not depend on order, literals split by their variables' kinds,
and merging gives the partition from scratch (only base heaps, solved
from scratch, read representatives). Narrowing is monotone, so a
converged run from a parent's fixpoint reaches the fixpoint from scratch;
a contradiction or a cap met that way is confirmed from fresh bounds.

The solver trades the completeness of a full decision procedure for
bounded search: outside its budgets it answers UNKNOWN, which for a test
generator costs missed tests but never invalid ones. An UNSAT that was
only established by exhausting the integer domain is flagged ``bounded``
in the statistics, so a caller does not read it as infeasible.

Every SAT answer carries a symbolic model: a quantifier-free base heap in
which each reference variable is resolved by a points-to atom, an alias
equation, or ``= null``, and each scalar variable by an integer or boolean
constant; a non-null class with no points-to is a self-alias of its first
member. ``concretize_model`` is the one reader of that format: it gives
each points-to head an object and each such class a dangling address
outside the store. ``model_check`` independently re-evaluates the queried
formula on that reading and is the soundness oracle for ``sat``; the
input builder (``testgen.to_unit_test``) puts a default-valued object at
each dangling address.
"""

from __future__ import annotations

import time
from bisect import insort
from typing import Iterable, NamedTuple, Sequence

from . import formulas as F
from .formulas import (
    Add,
    ArithTerm,
    Atom,
    Const,
    Neg,
    Not,
    Null,
    PointsTo,
    PureFormula,
    Scale,
    SpecFile,
    SymbolicHeap,
    Var,
)
from .unfold import unfold_at
from .value import Value, setfield

_SCALARS = ("int", "bool")


class Budget:
    def __init__(self, max_depth: int = 6, time_limit: float = 10.0,
                 int_min: int = -64, int_max: int = 63):
        self.max_depth, self.time_limit = max_depth, time_limit
        self.int_min, self.int_max = int_min, int_max


class Timeout(Exception):
    """The query's deadline passed during the integer search."""


class SolverStats:
    def __init__(self):
        self.rounds, self.pure_nodes, self.bounded = 0, 0, False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SolverStats) and vars(self) == vars(other)


class SymbolicModel:
    """SAT witness: a base heap binding every variable to a symbolic value."""

    def __init__(self, heap: SymbolicHeap, sorts: dict[str, str] | None = None):
        self.heap, self.sorts = heap, {} if sorts is None else sorts

    def __str__(self) -> str:
        return F.print_heap(self.heap)


class SatResult:
    def __init__(self, decision: str, model: SymbolicModel | None, stats: SolverStats):
        self.decision = decision  # 'sat' | 'unsat' | 'unknown'
        self.model, self.stats = model, stats

    @property
    def is_sat(self) -> bool:
        return self.decision == "sat"


# =====================================================================
# Literals: negation-normal ground atoms
# =====================================================================


class Lit(Value):
    __slots__ = ("op", "left", "right")  # op: 'eq' | 'le' | 'ne'

    def __init__(self, op: str, left: ArithTerm, right: ArithTerm):
        setfield(self, "op", op)
        setfield(self, "left", left)
        setfield(self, "right", right)


def _nnf_cubes(pure: PureFormula | F.Conjunction, positive: bool = True) -> list[list[Lit]]:
    """Disjunctive normal form as a list of literal cubes. A conjunction (an
    ``And`` or a heap's conjunct tuple) is folded over its flattened
    conjuncts, so a long one costs no recursion."""
    if isinstance(pure, F.TruePure):
        return [[]] if positive else []
    if isinstance(pure, Atom):
        if positive:
            return [[Lit("eq" if pure.op == "=" else "le", pure.left, pure.right)]]
        if pure.op == "=":
            return [[Lit("ne", pure.left, pure.right)]]
        # not (a <= b)  <=>  b + 1 <= a   (integer comparison only)
        return [[Lit("le", Add(pure.right, Const(1)), pure.left)]]
    if isinstance(pure, Not):
        return _nnf_cubes(pure.inner, not positive)
    if not isinstance(pure, (F.And, tuple)):
        raise TypeError(f"not a pure formula: {pure!r}")
    parts = [_nnf_cubes(part, positive) for part in F.conjuncts(pure)]
    if not positive:
        return [cube for part in parts for cube in part]
    cubes: list[list[Lit]] = [[]]  # the earlier conjuncts' cubes vary slowest
    for part in parts:
        if len(part) == 1:
            for cube in cubes:
                cube.extend(part[0])
        else:
            cubes = [cube + other for cube in cubes for other in part]
    return cubes


def _kind(sorts: dict[str, str], v: str) -> bool | None:
    """Whether ``v`` is a location under ``sorts``; None when it is unsorted."""
    sort = sorts.get(v)
    return None if sort is None else sort not in _SCALARS


def _term_is_loc(term: ArithTerm, sorts: dict[str, str]) -> bool | None:
    if isinstance(term, Var):
        return _kind(sorts, term.name)
    if isinstance(term, Null):
        return True
    if any(sorts.get(v, "int") not in _SCALARS for v in F.term_vars(term)):
        raise F.SortError("arithmetic over reference values")
    return False


def _split_cube(cube: list[Lit], sorts: dict[str, str]) -> tuple[list[Lit], list[Lit]]:
    locs: list[Lit] = []
    ints: list[Lit] = []
    for lit in cube:
        lk = _term_is_loc(lit.left, sorts)
        rk = _term_is_loc(lit.right, sorts)
        lk, rk = (rk if lk is None else lk), (lk if rk is None else rk)
        if lk or rk:
            if lit.op == "le" or not (isinstance(lit.left, (Var, Null))
                                      and isinstance(lit.right, (Var, Null))):
                raise F.SortError("arithmetic over reference values")
            locs.append(lit)
        else:
            ints.append(lit)
    return locs, ints


# =====================================================================
# Location solving: marked alias classes
# =====================================================================

NULL_KEY = "\x00null"


def _loc_key(term: ArithTerm) -> str:
    return NULL_KEY if isinstance(term, Null) else term.name


def merge_alias(uf: F.UnionFind, left: ArithTerm, right: ArithTerm) -> None:
    """Merge the classes of an equality between variables or null; an
    equality with any other term says nothing about aliasing."""
    if isinstance(left, (Var, Null)) and isinstance(right, (Var, Null)):
        uf.union(_loc_key(left), _loc_key(right))


def alias_classes(eqs: Iterable[tuple[ArithTerm, ArithTerm]],
                  names: Iterable[str] = ()) -> F.UnionFind:
    """Alias classes of the equalities ``eqs`` (pairs of terms).

    Null and then ``names`` are added before any merge, so each class is
    represented by its earliest-added member.
    """
    uf = F.UnionFind()
    for name in (NULL_KEY, *names):
        uf.find(name)
    for left, right in eqs:
        merge_alias(uf, left, right)
    return uf


def pure_equalities(pure: F.Conjunction) -> list[tuple[ArithTerm, ArithTerm]]:
    return [(c.left, c.right) for c in pure
            if isinstance(c, Atom) and c.op == "="]


class LocSolution:
    """The alias classes of one cube's location literals."""

    def __init__(self, uf: F.UnionFind, marked: set[str], diseqs: list[tuple[str, str]]):
        self.uf = uf
        self.marked = marked  # roots of null and of every points-to head
        self.diseqs = diseqs  # the roots each disequality keeps apart

    def null_roots(self) -> set[str]:
        """The classes a model makes null: null's own, and every unmarked
        class that no disequality keeps apart from an earlier null one, in
        the order the classes were added."""
        null_roots = {self.uf.find(NULL_KEY)}
        for r in dict.fromkeys([self.uf.find(name) for name in self.uf.parent]):
            if r not in self.marked and not any(
                    (x == r and y in null_roots) or (y == r and x in null_roots)
                    for x, y in self.diseqs):
                null_roots.add(r)
        return null_roots


# =====================================================================
# Integer solving: interval propagation + backtracking
# =====================================================================


class _Lin(Value):
    """Normalized literal: sum of coeff*var plus const, related to zero."""

    __slots__ = ("coeffs", "const", "rel")  # rel: 'le' | 'eq' | 'ne'


def _linearize(term: ArithTerm, sign: int, coeffs: dict[str, int]) -> int:
    if isinstance(term, Const):
        return sign * term.value
    if isinstance(term, Var):
        coeffs[term.name] = coeffs.get(term.name, 0) + sign
        return 0
    if isinstance(term, Neg):
        return _linearize(term.term, -sign, coeffs)
    if isinstance(term, Add):
        return _linearize(term.left, sign, coeffs) + _linearize(term.right, sign, coeffs)
    if isinstance(term, Scale):
        inner: dict[str, int] = {}
        const = _linearize(term.term, sign * term.coeff, inner)
        for v, k in inner.items():
            coeffs[v] = coeffs.get(v, 0) + k
        return const
    raise F.SortError("null inside an arithmetic constraint")


def _lin_of(lit: Lit) -> _Lin:
    coeffs: dict[str, int] = {}
    const = _linearize(lit.left, 1, coeffs)
    const += _linearize(lit.right, -1, coeffs)
    coeffs = {v: k for v, k in coeffs.items() if k != 0}
    return _Lin(tuple(sorted(coeffs.items())), const, lit.op)


_INF = None
_TOP = (_INF, _INF)


def _propagate(lins: list[_Lin], uses: dict[str, tuple[int, ...]], bounds: dict[str, tuple],
               start: Iterable[int] | None = None,
               trail: list[tuple[str, int, int]] | None = None) -> bool | None:
    """Tighten variable intervals; False on a proven empty interval, None
    when the round cap stops it short of a fixpoint, else True. Each change
    is first logged to ``trail``, if given, as (variable, lo, hi). A round
    runs its forms in list order: the first those ``start`` lists in
    ascending order (default: all), then every form over a variable
    (``uses``: variable -> form indexes) that changed, this round if it
    comes later, else the next. A form whose variables did not change since
    it last ran narrows nothing, so from a fixpoint of the other forms this
    is the loop that runs every form each round, under the same cap."""
    if start is None:
        start = range(len(lins))
        if any(_INF not in b and b[0] > b[1] for b in bounds.values()):
            return False
    todo = list(start)
    for _ in range(4 * max(1, len(bounds)) + 8):
        if not todo:
            return True
        later, last, at = [], -1, 0
        while at < len(todo):
            i, at = todo[at], at + 1
            if i == last:
                continue  # queued twice; sorted, so twins sit side by side
            lin, last = lins[i], i
            if lin.rel == "ne":
                # Only a disequality over pinned variables says anything.
                if all(bounds[v][0] is not _INF and bounds[v][0] == bounds[v][1]
                       for v, _ in lin.coeffs) \
                        and lin.const + sum(k * bounds[v][0] for v, k in lin.coeffs) == 0:
                    return False
                continue
            if not lin.coeffs and (lin.const > 0 if lin.rel == "le" else lin.const != 0):
                return False
            for direction in ((1,) if lin.rel == "le" else (1, -1)):
                # direction * (sum + const) <= 0
                for v, k in lin.coeffs:
                    kk = direction * k
                    rest = direction * lin.const
                    for w, kw in lin.coeffs:
                        if w == v:
                            continue
                        kkw = direction * kw
                        b = bounds[w][0 if kkw > 0 else 1]
                        if b is _INF:
                            break
                        rest += kkw * b
                    else:
                        lo, hi = bounds[v]
                        if kk > 0:
                            limit = -rest // kk  # v <= floor(-rest / kk)
                            if hi is not _INF and limit >= hi:
                                continue
                            narrowed = (lo, limit)
                        else:
                            limit = -((-rest) // (-kk))  # v >= ceil(rest / -kk)
                            if lo is not _INF and limit <= lo:
                                continue
                            narrowed = (limit, hi)
                        if trail is not None:
                            trail.append((v, lo, hi))
                        bounds[v] = narrowed
                        if _INF not in narrowed and narrowed[0] > narrowed[1]:
                            return False
                        for j in uses[v]:  # j > i lands past the forms already run
                            insort(todo if j > i else later, j)
        todo = later
    return None if todo else True


def _lin_value(lin: _Lin, assign: dict[str, int]) -> int | None:
    total = lin.const
    for v, k in lin.coeffs:
        if v not in assign:
            return None
        total += k * assign[v]
    return total


def _lit_holds(lin: _Lin, value: int) -> bool:
    if lin.rel == "le":
        return value <= 0
    if lin.rel == "eq":
        return value == 0
    return value != 0


def _value_order(lo: int, hi: int) -> Iterable[int]:
    """The values of ``[lo, hi]`` smallest first, negative before positive
    (0, -1, 1, -2, 2, ...), made one at a time, so a wide domain costs
    nothing up front."""
    if lo >= 0:
        return range(lo, hi + 1)
    if hi <= 0:
        return range(hi, lo - 1, -1)
    return (v for n in range(max(-lo, hi) + 1) for v in ((-n, n) if n else (0,))
            if lo <= v <= hi)


def _search_ints(lins: list[_Lin], uses: dict, order: list[str], sorts: dict[str, str],
                 bounds: dict[str, tuple], budget: Budget, stats: SolverStats,
                 deadline: float | None = None) -> dict[str, int] | None:
    """Backtracking search for integer values within the propagated
    ``bounds``, clamped to the finite domain of each variable. Raises
    Timeout once ``time.monotonic()`` passes ``deadline``.

    Depth-first over ``order``, each variable's values smallest first. A
    loop over a stack of frames, one per assigned variable, replaces the
    recursion, and one ``bounds`` map with a trail of changes, undone on
    backtracking, replaces a copy per frame; so a long variable list costs
    neither call depth nor quadratic memory. Propagation runs once over
    every literal after the domain clamp, and after each assignment only
    from the literals of the variable it pinned."""
    for v in order:
        lo, hi = bounds[v]
        dlo, dhi = (0, 1) if sorts.get(v) == "bool" else (budget.int_min, budget.int_max)
        bounds[v] = (dlo if lo is _INF else max(lo, dlo), dhi if hi is _INF else min(hi, dhi))
    stats.pure_nodes += 1
    if not order:
        return {}
    if _propagate(lins, uses, bounds) is False:
        return None
    # Each literal is checked once, when the last of its variables in
    # ``order`` is assigned; literals without variables at the first.
    position = {v: i for i, v in enumerate(order)}
    checks: list[list[_Lin]] = [[] for _ in order]
    for lin in lins:
        if all(v in position for v, _ in lin.coeffs):
            checks[max((position[v] for v, _ in lin.coeffs), default=0)].append(lin)
    assign: dict[str, int] = {}
    trail: list[tuple[str, int, int]] = []
    # A frame: the values its variable has left to try, and the trail
    # length that restores the bounds the frame started from.
    frames = [(iter(_value_order(*bounds[order[0]])), 0)]
    while frames:
        if deadline is not None and time.monotonic() > deadline:
            raise Timeout()
        values, mark = frames[-1]
        v = order[len(frames) - 1]
        while len(trail) > mark:
            w, lo, hi = trail.pop()
            bounds[w] = (lo, hi)
        value = next(values, None)
        if value is None:
            frames.pop()
            assign.pop(v, None)
            continue
        assign[v] = value
        if any(not _lit_holds(lin, _lin_value(lin, assign))
               for lin in checks[len(frames) - 1]):
            continue
        trail.append((v, *bounds[v]))
        bounds[v] = (value, value)
        if _propagate(lins, uses, bounds, uses.get(v, ()), trail) is False:
            continue
        stats.pure_nodes += 1
        if len(frames) == len(order):
            return dict(assign)
        frames.append((iter(_value_order(*bounds[order[len(frames)]])), len(trail)))
    return None


# =====================================================================
# Pure solving
# =====================================================================


class PureSolution:
    def __init__(self, scalars: dict[str, int | bool], locs: LocSolution):
        self.scalars, self.locs = scalars, locs


def _lit_vars(lit: Lit) -> list[str]:
    return _term_var_order(lit.left) + _term_var_order(lit.right)


def _term_var_order(term: ArithTerm) -> list[str]:
    if isinstance(term, Var):
        return [term.name]
    if isinstance(term, (Scale, Neg)):
        return _term_var_order(term.term)
    if isinstance(term, Add):
        return _term_var_order(term.left) + _term_var_order(term.right)
    return []


def pure_solve(cube: list[Lit], sorts: dict[str, str], budget: Budget | None = None,
               universe: list[str] | None = None, stats: SolverStats | None = None,
               deadline: float | None = None,
               heads: Sequence[str] = ()) -> tuple[PureSolution | None, bool]:
    """Solve one cube, a conjunction of literals, in a heap whose points-to
    heads are ``heads``.

    Returns ``(solution, domain_independent)``: on success the second
    component is meaningless; on failure it reports whether unsatisfiability
    was proven without appealing to the finite integer domain. Raises
    Timeout when the integer search runs past ``deadline``.
    """
    budget = budget or Budget()
    stats = stats if stats is not None else SolverStats()
    propagated = _propagated(cube, sorts, universe, heads)
    if propagated is None:
        return None, True
    state, loc_solution, bounds = propagated
    int_vars = list(bounds)
    values = _search_ints(state.lins, state.uses, int_vars, sorts, bounds, budget, stats,
                          deadline)
    if values is None:
        return None, False
    scalars = {v: bool(values[v]) if sorts.get(v) == "bool" else values[v] for v in int_vars}
    return PureSolution(scalars, loc_solution), False


class _Cube(NamedTuple):
    """A cube's check state, which an extending cube shares and copies where
    its literals add to it: each variable's kind (``_kind``) in first-
    occurrence order, the alias classes, the disequalities' class keys, the
    integer linear forms with each variable's forms, and the bounds if they
    are a fixpoint (None when the round cap stopped propagation)."""

    kinds: dict[str, bool | None]
    uf: F.UnionFind
    diseqs: list[tuple[str, str]]
    lins: list[_Lin]
    uses: dict[str, tuple[int, ...]]
    bounds: dict[str, tuple] | None


def _propagated(lits: list[Lit], sorts: dict[str, str], universe: Sequence[str] | None,
                heads: Sequence[str], parent: _Cube | None = None,
                ) -> tuple[_Cube, LocSolution, dict[str, tuple]] | None:
    """The steps of ``pure_solve`` before the integer search, on the cube
    ``parent``'s literals (none by default) followed by ``lits``, with the
    variables of ``universe`` leading and null and the points-to ``heads``
    marked: the cube's ``_Cube``, alias classes and propagated integer
    bounds, or None when no integer domain satisfies it (a sort clash, a
    location clash, or empty bounds). ``parent`` must give its variables
    the kinds ``sorts`` gives them, so that its literals split the same
    way. Only ``lits`` are split and merged, and propagation starts from
    ``parent``'s fixpoint and ``lits``' linear forms, so the verdict, the
    classes (not their representatives) and any fixpoint are the ones from
    scratch (see the module notes)."""
    try:
        locs, ints = _split_cube(lits, sorts)
    except F.SortError:
        return None
    kinds, uf, diseqs, lins, uses, bounds = parent or _Cube({}, alias_classes(()), [], [], {}, {})
    new = {v: _kind(sorts, v) for v in (*(universe or ()), *(
        v for lit in lits for v in _lit_vars(lit))) if v not in kinds}
    kinds = {**kinds, **new} if new else kinds
    eqs = [l for l in locs if l.op == "eq"]
    pairs = [(_loc_key(l.left), _loc_key(l.right)) for l in locs if l.op != "eq"]
    names = [v for v, k in new.items() if k]
    if eqs or any(n not in uf.parent for n in (*names, *heads, *(n for p in pairs for n in p))):
        uf = uf.copy()
        for name in names:
            uf.find(name)
        for l in eqs:
            merge_alias(uf, l.left, l.right)
    marked = {uf.find(name) for name in (NULL_KEY, *heads)}
    if len(marked) <= len(heads):
        return None
    diseqs = diseqs + pairs if pairs else diseqs
    roots = [(uf.find(a), uf.find(b)) for a, b in diseqs]
    if any(a == b for a, b in roots):
        return None
    start, fresh = len(lins), [v for v, k in new.items() if not k]
    if ints:
        lins = lins + [_lin_of(l) for l in ints]
        uses = dict(uses)
        for i in range(start, len(lins)):
            for v, _ in lins[i].coeffs:
                uses[v] = uses.get(v, ()) + (i,)
    converged = None
    if bounds is not None:
        if ints or fresh:
            bounds = {**bounds, **dict.fromkeys(fresh, _TOP)}
        converged = _propagate(lins, uses, bounds, range(start, len(lins)))
    if converged is not True and start:  # confirmed, or the parent was capped
        bounds = {v: _TOP for v, k in kinds.items() if not k}
        converged = _propagate(lins, uses, bounds)
    if converged is False:
        return None
    return (_Cube(kinds, uf, diseqs, lins, uses, bounds if converged else None),
            LocSolution(uf, marked, roots), bounds)


class _HeapState:
    """A checked heap: the sort-walk state of its points-to atoms and pure
    part (None after a sort clash), and each cube's ``_Cube`` under the
    heap's sorts (None when the cube is contradictory)."""

    def __init__(self, walked: tuple[dict, F.UnionFind] | None, cubes: list[_Cube | None]):
        self.walked, self.cubes = walked, cubes

    @property
    def contradictory(self) -> bool:
        return all(cube is None for cube in self.cubes)


class _QueryMemo:
    """One ``sat`` query's sort walk of its own conjuncts, made on first
    use, and the check of each of its heaps (see the module notes)."""

    def __init__(self, defs: SpecFile | None = None, param_sorts: dict | None = None,
                 query_pure: F.Conjunction = ()):
        self.defs, self.param_sorts = defs, param_sorts
        self.query_pure, self.prefix = query_pure, len(query_pure)
        self.prefix_walk: tuple[dict, F.UnionFind] | None = None

    def _walk(self, env: dict, classes: F.UnionFind, atoms, pure) -> tuple[dict, F.UnionFind]:
        F._sort_walk(env, classes, SymbolicHeap((), tuple(atoms), tuple(pure)), self.defs,
                     self.param_sorts, "heap")
        return env, classes

    def state(self, d: SymbolicHeap,
              above: tuple[SymbolicHeap, _HeapState | None] | None = None) -> _HeapState:
        """``d``'s check state. ``above`` is ``(parent, its state)`` when
        ``unfold_at`` made ``d`` from ``parent``, and ``d``'s state extends
        the parent's unless a sort clash ruled the parent out; otherwise
        ``d`` begins with the query's conjuncts."""
        parent, up = above or (None, None)
        if up is None or up.walked is None:
            if self.prefix_walk is None:
                self.prefix_walk = self._walk({}, F.UnionFind(), (), self.query_pure)
            up, walked, atoms, pure = None, self.prefix_walk, 0, self.prefix
        else:
            walked, atoms, pure = up.walked, len(parent.atoms) - 1, len(parent.pure)
        try:
            walked = self._walk(dict(walked[0]), walked[1].copy(),
                                [a for a in d.atoms[atoms:] if isinstance(a, PointsTo)],
                                d.pure[pure:])
            # Instances merge no classes, and _class_sorts only compresses paths.
            sorts = F._class_sorts(*self._walk(dict(walked[0]), walked[1], d.instances(), ()),
                                   "heap")
        except F.SortError:
            return _HeapState(None, [])
        heads = [p.var for p in d.points_tos()]
        if up is None:
            found = [_propagated(lits, sorts, None, heads) for lits in _nnf_cubes(d.pure)]
        else:
            # A child's cubes are each parent cube followed by each body cube
            # (_nnf_cubes is parent-major).
            body = _nnf_cubes(d.pure[pure:])
            keep = [cube is not None and all(_kind(sorts, v) == kind
                                             for v, kind in cube.kinds.items())
                    for cube in up.cubes]
            whole = None if all(keep) else _nnf_cubes(d.pure)
            found = [_propagated(new, sorts, None, heads, cube) if kept else
                     _propagated(whole[i * len(body) + j], sorts, None, heads)
                     for i, (cube, kept) in enumerate(zip(up.cubes, keep))
                     for j, new in enumerate(body)]
        return _HeapState(walked, [result and result[0] for result in found])


# =====================================================================
# sat: iterative-deepening satisfiability
# =====================================================================


def _open_heap(d: SymbolicHeap) -> SymbolicHeap:
    """Drop the existential binder. A name is either bound or free in one
    heap, so the opened variables cannot clash with free ones."""
    return SymbolicHeap((), d.atoms, d.pure) if d.exists else d


def _try_base(d: SymbolicHeap, defs: SpecFile, param_sorts: dict, budget: Budget,
              stats: SolverStats, extra_sorts: dict[str, str],
              universe_hint: list[str], deadline: float) -> tuple[SymbolicModel | None, bool]:
    """Solve one base heap. Returns (model, bounded_flag)."""
    opened = _open_heap(d)
    try:
        sorts = F.heap_sorts(opened, defs, param_sorts, seed=extra_sorts)
    except F.SortError:
        return None, False
    heads = [p.var for p in opened.points_tos()]
    order = list(dict.fromkeys([*_heap_var_order(opened), *universe_hint]))
    bounded = False
    for cube in _nnf_cubes(opened.pure):
        solution, independent = pure_solve(cube, sorts, budget, order, stats, deadline, heads)
        if solution is not None:
            return _assemble_model(opened, solution, sorts, order), False
        if not independent:
            bounded = True
    return None, bounded


def _heap_var_order(d: SymbolicHeap) -> list[str]:
    names: list[str] = []
    for c in d.pure:
        stack = [c]
        while stack:
            p = stack.pop()
            if isinstance(p, Atom):
                names += _term_var_order(p.left) + _term_var_order(p.right)
            elif isinstance(p, Not):
                stack.append(p.inner)
            elif isinstance(p, F.And):
                stack.append(p.right)
                stack.append(p.left)
    for atom in d.atoms:
        if isinstance(atom, PointsTo):
            names.append(atom.var)
        for a in atom.args:
            names += _term_var_order(a)
    return list(dict.fromkeys(names))


def _assemble_model(opened: SymbolicHeap, solution: PureSolution,
                    sorts: dict[str, str], universe: list[str]) -> SymbolicModel:
    pts = opened.points_tos()
    uf, null_roots = solution.locs.uf, solution.locs.null_roots()
    target: dict[str, str] = {}  # class representative -> the member others alias
    for p in pts:
        target.setdefault(uf.find(p.var), p.var)
    parts: list[PureFormula] = []
    for v in universe:
        if v in solution.scalars:
            value = solution.scalars[v]
            parts.append(Atom("=", Var(v), Const(int(value))))
            continue
        rep = uf.find(v)
        if rep in null_roots:
            parts.append(Atom("=", Var(v), Null()))
        elif rep in target and target[rep] != v:
            parts.append(Atom("=", Var(v), Var(target[rep])))
        elif rep not in target:
            # Non-null class with no points-to: a dangling address, recorded
            # as a self-alias of the class's first member; the other
            # members alias that member.
            target[rep] = v
            parts.append(Atom("=", Var(v), Var(v)))
    heap = SymbolicHeap((), tuple(pts), tuple(parts))
    return SymbolicModel(heap, dict(sorts))


def _pure_contradictory(d: SymbolicHeap, defs: SpecFile, param_sorts: dict) -> bool:
    """Domain-independent contradiction check for a frontier heap: whether
    a sort clash rules ``d`` out, or ``_propagated`` fails on every DNF cube
    of ``d``'s pure part, with ``d``'s points-to heads marked in the alias
    classes as in base-heap solving. No integer search is run: one that
    failed would only say the finite domain is too small, which does not
    make the heap contradictory. It derives everything from scratch, which
    ``sat``'s checks, each extending its parent's state, must match."""
    return _QueryMemo(defs, param_sorts).state(d).contradictory


def sat(d: SymbolicHeap, defs: SpecFile, budget: Budget | None = None) -> SatResult:
    """Satisfiability of one symbolic heap under the given budget.

    Search strategy: iterative deepening where each round replaces the
    first remaining predicate instance of every frontier heap by its
    definition disjuncts (base cases first, so small models surface
    first). Expanding instances one at a time reaches every combination
    of disjunct choices without the duplication that expanding all
    instances per round would create. A round takes its base heaps first,
    then its inductive ones, and checks each heap when it reaches it, just
    before solving or unfolding it: one whose pure part is already
    contradictory is dropped, so the children left behind by an early
    answer are never checked. That check (``_QueryMemo.state``, as
    ``_pure_contradictory`` makes it from scratch) is base-heap solving's
    own per-cube check of the marked alias classes and the integer bounds,
    without the integer search. The query itself is checked only when it is
    inductive and ``max_depth`` is 0. ``stats.rounds`` is the last round in
    which a heap passed the check. ``budget.time_limit`` bounds the whole
    query, the integer search included; past it the answer is UNKNOWN.
    Each frontier entry is a heap and its parent with the parent's check
    state (both None for the query), which the heap's check extends; an
    unchecked query gets a state when it is unfolded. Entries are popped
    as they are processed, so a state goes once the last of its heap's
    children has been checked (see the module notes).
    """
    budget = budget or Budget()
    stats = SolverStats()
    deadline = time.monotonic() + budget.time_limit
    param_sorts = F.infer_sorts(defs)
    opened_query = _open_heap(d)
    universe = _heap_var_order(opened_query)
    query_sorts = F.heap_sorts(opened_query, defs, param_sorts)
    memo = _QueryMemo(defs, param_sorts, d.pure)
    todo, round_no = [(d, (None, None))], 0
    while todo:
        # Popped from the end: base heaps first, then inductive ones, each
        # in the order unfold_at made them.
        todo, children = sorted(reversed(todo), key=lambda entry: entry[0].is_base()), []
        while todo:
            h, above = todo.pop()
            if time.monotonic() > deadline:
                return SatResult("unknown", None, stats)
            base, last, state = h.is_base(), round_no == budget.max_depth, None
            if round_no > 0 or (last and not base):
                state = memo.state(h, above)
                if state.contradictory:
                    continue
            stats.rounds = round_no
            if not base:
                if last:
                    return SatResult("unknown", None, stats)
                first = next(i for i, a in enumerate(h.atoms) if isinstance(a, F.PredInst))
                link = (h, state or memo.state(h))  # an unchecked query's state
                children += [(kid, link) for kid in unfold_at(h, first, defs)]
                continue
            try:
                model, bounded = _try_base(h, defs, param_sorts, budget, stats,
                                           query_sorts, universe, deadline)
            except Timeout:
                return SatResult("unknown", None, stats)
            if model is not None:
                return SatResult("sat", model, stats)
            stats.bounded = stats.bounded or bounded
        todo, round_no = children, round_no + 1
    return SatResult("unsat", None, stats)


# =====================================================================
# Model checking (independent soundness oracle)
# =====================================================================


def model_check(m: SymbolicModel, d: SymbolicHeap, defs: SpecFile) -> bool:
    """Concretize a model and evaluate ``d`` on it under concrete semantics.

    Existentials of ``d`` are witnessed by bounded search over the model's
    objects and scalars.
    """
    from . import testgen

    store, env = concretize_model(m, defs)
    return testgen.heap_satisfies(store, env, d, defs)


class ModelError(Exception):
    """A symbolic model that does not read as a concrete heap."""


def concretize_model(m: SymbolicModel, defs: SpecFile):
    """Direct reading of a symbolic model as (store, environment).

    Each points-to head gets an object of its own, in atom order; each
    alias class takes the value of a member bound to null, to a constant or
    to a head. A reference class with no such member gets a dangling
    address outside the store, of the class's record sort (``<external>``
    when it has none), in the order the alias equations meet the classes.
    Raises ModelError on a conjunct that is not a binding, on a class with
    two values, on a class with no value that is not a reference, and on a
    points-to slot with no value.
    """
    from .testgen import Addr, HeapObject

    store: dict = {}
    bound: list[tuple[str, object]] = []  # (variable, value) from heads and constants
    for p in m.heap.points_tos():
        addr = Addr(len(store) + 1, p.type_name)
        store[addr] = HeapObject(addr, p.type_name, {})
        bound.append((p.var, addr))
    aliases: list[tuple[Var, Var | Null]] = []
    for c in m.heap.pure:
        if not (isinstance(c, Atom) and c.op == "=" and isinstance(c.left, Var)
                and isinstance(c.right, (Var, Null, Const))):
            raise ModelError(f"model pure part is not a binding: {F.print_pure(c)}")
        if isinstance(c.right, Const):
            v, value = c.left.name, c.right.value
            bound.append((v, bool(value) if m.sorts.get(v) == "bool" else value))
        else:
            aliases.append((c.left, c.right))
    uf = alias_classes(aliases)
    values = {uf.find(NULL_KEY): None}
    for v, value in bound:
        if values.setdefault(uf.find(v), value) != value:
            raise ModelError(f"conflicting aliases for {v}")
    next_id = len(store) + 1
    for v, _ in aliases:
        rep = uf.find(v.name)
        if rep in values:
            continue
        sorts = [m.sorts.get(u) for u in uf.parent if uf.find(u) == rep]
        record = next((sort for sort in sorts if sort in defs.datas), None)
        if record is None and "nullref" not in sorts:
            raise ModelError(f"model gives {v.name} no value")
        values[rep] = Addr(next_id, record or "<external>")
        next_id += 1
    env = {v: values[uf.find(v)] for v in uf.parent if v != NULL_KEY}
    for p, obj in zip(m.heap.points_tos(), store.values()):
        for (fname, ftype), arg in zip(defs.datas[p.type_name].fields, p.args):
            value = F.eval_ground(arg, env)
            if value is F.UNDEFINED:
                raise ModelError(f"model slot {F.print_term(arg)} has no value")
            if ftype == "bool" and isinstance(value, int) and not isinstance(value, bool):
                value = bool(value)
            obj.fields[fname] = value
    return store, env
