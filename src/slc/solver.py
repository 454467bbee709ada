"""Bounded satisfiability for symbolic heaps, with model extraction.

``sat`` runs a best-first search: predicate instances are unfolded up to
a depth budget, the heaps that can be base soonest first, and every
fully-base heap reached is closed by a two-sorted ground solver, one DNF
cube at a time. Location variables are solved by union-find over the
equalities, with null and every points-to head marked: separation makes
the heads non-null and pairwise distinct, so a cube in which two marks
share a class, or a disequality joins a class to itself, has no model.
Each head's class gets its own abstract address, and every other class
is null unless a disequality with a null class forbids it. Integer
variables are solved by interval propagation followed by backtracking
search over a finite domain, in which propagation alone decides the
literals and the search only picks values. The frontier check of ``sat``
is the same per-cube check without the integer search, and a base heap
is solved from its own check.

One query checks each heap once, by extending its parent's check state,
and a child's check costs its body, not its heap. Each predicate disjunct
is compiled once per spec and argument shape (``_bodies``, kept on the
``SpecFile``, made at first use): its sort uses and equalities over its
own names, and its DNF cubes of ``Lit``s, each with its variables and
the shape of its sides, and its linear form made the first time the
check files it as an integer literal; null and constant arguments are
put in first. A heap's state is its ``F.SortTable``, the sort table
``F.heap_sorts`` and ``F.infer_sorts`` also build, and per cube each
variable's kind (``F.is_location``), the alias classes, the
disequalities, the linear forms and, if propagation reached its fixpoint,
the bounds. ``sat``'s frontier carries each heap that ``unfold_at`` made
with its parent, the parent's state, the instance and the compiled body,
so a state lives until the last of its children has been checked. A
child is its parent minus the instance plus the body, its conjuncts the
parent's followed by the body's.

Sorts are the spec's static types. A child's sort table is its parent's
with the body's renamed uses joined in and the classes its equalities
join merged; the instance's uses of its arguments stay, and they join
every use the body makes of them, since ``infer_sorts`` joins each
parameter's sort over all disjuncts. So a table only grows, the child of
a sort clash is one, and a variable changes kind only when its unsorted
class joins the locations (a body merges it into a location class, or
equates it with a null argument). Each child cube shares its parent
cube's state, copying what the body adds to: it merges the body's split
and linearised literals, checks the marks and disequalities over the
merged classes, and propagates from the parent's fixpoint, starting from
the body's linear forms, or from fresh bounds when the round cap stopped
the parent's or stops this run. A cube that its parent ruled out stays
ruled out, and a live cube with a variable that changed kind is checked
from scratch. The query, and a child of a general body (``_Body``), walk
their new atoms and conjuncts into the table and check every cube from
scratch. A base heap, the query included, is solved from its state
(``_try_base``): each live cube is extended by no literals, with the
variables of the universe, the heap's own followed by the query's,
leading. The integer search runs over the universe's integers in
universe order, from the cube's bounds, and the model reads the cube's
alias classes in that order.

Against a check from scratch under the sorts of the heap and the
instances unfolded on its path, this keeps the same live cubes, with the
same classes and any fixpoint both reach, and may rule out more, never
fewer: literals and sorts only grow, a variable that joins the locations
only turns integer literals into location literals or sort clashes, a
clash of sorts or marks only grows with the literals, and narrowing from
a parent's fixpoint narrows from consequences of the cube, so a clash or
an empty interval reached that way proves that the cube has no model,
where from scratch the round cap may stop first. So no model is lost, and
as base heaps leave the frontier in (round, path) order, the first model
is the one the check from scratch leads to; only a heap that the check
from scratch would leave live at the depth limit can turn an UNKNOWN
into UNSAT.

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
from heapq import heappop, heappush
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
    is_location,
)
from .value import Value

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


class Lit:
    """A DNF literal ``left op right`` (op: 'eq' | 'le' | 'ne') as ``_split``
    reads it: its variables in order, its sides' shapes (``_side``) and,
    from the first time ``_split`` files it as an integer literal, its
    linear form (``lin``, else None). A location literal is never
    linearised, and a compiled body's literal at most once."""

    __slots__ = ("op", "left", "right", "vars", "sides", "lin")

    def __init__(self, op: str, left: ArithTerm, right: ArithTerm):
        self.op, self.left, self.right, self.lin = op, left, right, None
        self.vars = F.term_vars(left) + F.term_vars(right)
        self.sides = (_side(left), _side(right))


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


def _side(term: ArithTerm) -> str | tuple[str, ...]:
    """A literal side's shape: a variable's name, ``NULL_KEY`` for null, or
    the variables of any other term (none for a constant)."""
    if isinstance(term, Var):
        return term.name
    return NULL_KEY if isinstance(term, Null) else tuple(F.term_vars(term))


def _is_loc(op: str, sides: tuple, sorts) -> bool:
    """Whether a literal ``op`` over ``sides`` (``_side``s) is a location
    literal under ``sorts``: null or a location on either side. Raises
    SortError when it puts a location in arithmetic or an inequality."""
    kinds = []
    for side in sides:
        if side.__class__ is str:
            kinds.append(side == NULL_KEY or is_location(sorts, side))
        elif any(is_location(sorts, v) for v in side):
            raise F.SortError("arithmetic over reference values")
        else:
            kinds.append(False)
    if not (kinds[0] or kinds[1]):
        return False
    if op == "le" or not (sides[0].__class__ is str and sides[1].__class__ is str):
        raise F.SortError("arithmetic over reference values")
    return True


# =====================================================================
# Location solving: marked alias classes
# =====================================================================

NULL_KEY = "\x00null"


def merge_alias(uf: F.UnionFind, left: ArithTerm, right: ArithTerm) -> str | None:
    """Merge the classes of an equality between variables or null; an
    equality with any other term says nothing about aliasing. The merged
    class's representative, or None when no two classes became one."""
    if isinstance(left, (Var, Null)) and isinstance(right, (Var, Null)):
        return uf.union(_side(left), _side(right))
    return None


def alias_classes(eqs: Iterable[tuple[ArithTerm, ArithTerm]]) -> F.UnionFind:
    """Alias classes of the equalities ``eqs`` (pairs of terms). Null is
    added first, so it represents its class."""
    uf = F.UnionFind()
    uf.find(NULL_KEY)
    for left, right in eqs:
        merge_alias(uf, left, right)
    return uf


def pure_equalities(pure: F.Conjunction) -> list[tuple[ArithTerm, ArithTerm]]:
    return [(c.left, c.right) for c in pure
            if isinstance(c, Atom) and c.op == "="]


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
    loop over a stack of frames, one per pinned variable, replaces the
    recursion, and one ``bounds`` map with a trail of changes, undone on
    backtracking, replaces a copy per frame; so a long variable list costs
    neither call depth nor quadratic memory. The search only picks values:
    propagation, once over every form after the domain clamp and after each
    pin from the pinned variable's forms (its first round runs them all),
    decides the literals, since a form over pinned variables narrows to an
    empty interval or is refuted (``!=``) exactly when it fails."""
    for v in order:
        lo, hi = bounds[v]
        dlo, dhi = (0, 1) if sorts.get(v) == "bool" else (budget.int_min, budget.int_max)
        bounds[v] = (dlo if lo is _INF else max(lo, dlo), dhi if hi is _INF else min(hi, dhi))
    stats.pure_nodes += 1
    if not order:
        return {}
    if _propagate(lins, uses, bounds) is False:
        return None
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
            continue
        trail.append((v, *bounds[v]))
        bounds[v] = (value, value)
        if _propagate(lins, uses, bounds, uses.get(v, ()), trail) is False:
            continue
        stats.pure_nodes += 1
        if len(frames) == len(order):
            return {w: bounds[w][0] for w in order}
        frames.append((iter(_value_order(*bounds[order[len(frames)]])), len(trail)))
    return None


# =====================================================================
# Cube checks
# =====================================================================


class _Cube(NamedTuple):
    """A cube's check state, which an extending cube shares and copies where
    its literals add to it: each variable's kind (``F.is_location``) in
    first-occurrence order, the alias classes, the disequalities' class
    keys, the integer linear forms with each variable's forms, the bounds if
    they are a fixpoint (None when the round cap stopped propagation), and
    the roots of null's and the points-to heads' classes."""

    kinds: dict[str, bool]
    uf: F.UnionFind
    diseqs: list[tuple[str, str]]
    lins: list[_Lin]
    uses: dict[str, tuple[int, ...]]
    bounds: dict[str, tuple] | None
    marked: set[str]


class _Prepared(NamedTuple):
    """A cube's literals split and linearised: their variables in order,
    the class keys of the location (dis)equalities, the linear forms."""

    order: list[str]
    eqs: list[tuple[str, str]]
    pairs: list[tuple[str, str]]
    lins: list[_Lin]


def _split(literals: Sequence[Lit], names: dict[str, str] | None, sorts) -> _Prepared:
    """``literals`` with their variables renamed by ``names`` (None: kept
    as they are), split under ``sorts`` and linearised; raises SortError."""
    order, eqs, pairs, lins = [], [], [], []
    for t in literals:
        sides = t.sides
        if names is None:
            order += t.vars
        else:
            order += [names[v] for v in t.vars]
            sides = tuple([side if side == NULL_KEY else names[side] if side.__class__ is str
                           else tuple([names[v] for v in side]) for side in sides])
        if _is_loc(t.op, sides, sorts):
            (eqs if t.op == "eq" else pairs).append(sides)
            continue
        lin = t.lin = t.lin or _lin_of(t)  # made once; raises on null in arithmetic
        if names is None:
            lins.append(lin)
        else:
            coeffs: dict[str, int] = {}
            for v, k in lin.coeffs:
                coeffs[names[v]] = coeffs.get(names[v], 0) + k
            lins.append(_Lin(tuple(sorted((v, k) for v, k in coeffs.items() if k)),
                             lin.const, lin.rel))
    return _Prepared(order, eqs, pairs, lins)


_NO_LITERALS = _Prepared([], [], [], [])


def _checked(lits: list[Lit] | _Prepared, sorts, heads: Sequence[str],
             parent: _Cube | None = None) -> tuple[_Cube, dict[str, tuple]] | None:
    """The check of the cube ``parent``'s literals (none by default)
    followed by ``lits`` (split here under ``sorts`` unless ``_Prepared``),
    with null and the points-to ``heads`` marked: the cube's ``_Cube`` and
    propagated integer bounds, which the integer search starts from, or
    None when the cube has no model: a sort or location clash, or an empty
    interval. See ``_extended``."""
    try:
        return _extended(lits if isinstance(lits, _Prepared) else _split(lits, None, sorts),
                         sorts, (), heads, parent)
    except F.SortError:
        return None


def _extended(lits: _Prepared, sorts, universe: Sequence[str], heads: Sequence[str],
              parent: _Cube | None = None) -> tuple[_Cube, dict[str, tuple]] | None:
    """``_checked`` on literals already split and linearised, with the
    variables of ``universe`` leading. ``parent`` must split its variables
    between locations and integers as ``sorts`` does, so that its literals
    split the same way, and its heads must lead ``heads``. Only ``lits`` are
    merged; unless they merge classes, only the new heads and disequalities
    are checked against the parent's marks. Propagation starts from
    ``parent``'s fixpoint and ``lits``' linear forms, and again from fresh
    bounds when that stops at the round cap (see the module notes)."""
    kinds, uf, diseqs, lins, uses, bounds, marked = \
        parent or _Cube({}, alias_classes(()), [], [], {}, {}, set())
    new = {v: is_location(sorts, v) for v in (*universe, *lits.order) if v not in kinds}
    kinds = {**kinds, **new} if new else kinds
    pairs = lits.pairs
    names = [v for v, k in new.items() if k]
    if lits.eqs or any(n not in uf.parent
                       for n in (*names, *heads, *(n for p in pairs for n in p))):
        uf = uf.copy()
        for name in names:
            uf.find(name)
        for a, b in lits.eqs:
            uf.union(a, b)
    if parent is None or lits.eqs:
        marked, check = {uf.find(name) for name in (NULL_KEY, *heads)}, diseqs + pairs
    else:  # the parent's classes, marks and disequalities stand
        marked, check = marked | {uf.find(h) for h in heads[len(marked) - 1:]}, pairs
    if len(marked) <= len(heads):
        return None
    diseqs = diseqs + pairs if pairs else diseqs
    if any(uf.find(a) == uf.find(b) for a, b in check):
        return None
    start, fresh = len(lins), [v for v, k in new.items() if not k]
    if lits.lins:
        lins = lins + lits.lins
        uses = dict(uses)
        for i in range(start, len(lins)):
            for v, _ in lins[i].coeffs:
                uses[v] = uses.get(v, ()) + (i,)
    converged = None
    if bounds is not None:
        if lits.lins or fresh:
            bounds = {**bounds, **dict.fromkeys(fresh, _TOP)}
        converged = _propagate(lins, uses, bounds, range(start, len(lins)))
    if converged is None and start:  # the round cap, here or in the parent
        bounds = {v: _TOP for v, k in kinds.items() if not k}
        converged = _propagate(lins, uses, bounds)
    if converged is False:
        return None
    return _Cube(kinds, uf, diseqs, lins, uses, bounds if converged else None, marked), bounds


# =====================================================================
# Compiled predicate bodies and the per-heap check state
# =====================================================================


class _Body:
    """One predicate disjunct, compiled once per spec and argument shape: a
    shape binds each parameter to a variable, to null or a constant, or to
    any other term (then the body is ``general``). ``unfold_at`` renames
    the disjunct's atoms and conjuncts. The check compiles it with the null
    and constant arguments put in, unless it is general (a general child's
    cubes are checked from scratch): over the disjunct's own names, the
    joined sort of each binder and unsorted parameter it sorts (None when
    the arguments make a sort clash), the pairs its equalities merge, the
    unsorted parameters whose classes those touch, and its DNF cubes of
    ``Lit``s. An instance renames the names to variables."""

    def __init__(self, pred: F.PredDef, disjunct: SymbolicHeap, shape: tuple, defs: SpecFile):
        self.params, self.exists = pred.params, disjunct.exists
        self.atoms, self.pure = disjunct.atoms, disjunct.pure
        self.vars = [(i, p) for i, (p, a) in enumerate(zip(pred.params, shape)) if a is None]
        # A binder that shadows a parameter makes the disjunct general too.
        self.general = False in shape or not set(disjunct.exists).isdisjoint(pred.params)
        self.uses = None
        if self.general:
            return
        bound = {p: a for p, a in zip(pred.params, shape) if a is not None}
        pure = F.subst_pure(disjunct.pure, bound)
        self.cubes = _nnf_cubes(pure)
        try:
            uses, self.merges = F.sort_facts(F.subst_spatial(disjunct.atoms, bound), pure, defs,
                                             defs.param_sorts)
            sorts = F.SortTable().extended(uses)[0].classes
        except F.SortError:
            return
        # A sorted parameter's argument already has a class of that sort,
        # which joins the body's uses of it; only the rest can change.
        changing = set(disjunct.exists).union(
            p for i, p in self.vars if defs.param_sorts[pred.name][i] is None)
        self.uses = [(v, sort) for v, sort in sorts.items() if v in changing]
        touched = {v for pair in self.merges for v in pair} | {v for v, _ in self.uses}
        self.touched = [p for _, p in self.vars if p in touched and p in changing]

    def names(self, args: tuple[ArithTerm, ...], fresh: Sequence[str]) -> dict[str, str]:
        """The renaming of an instance with arguments ``args`` whose binders
        got the names ``fresh``."""
        names = {p: args[i].name for i, p in self.vars}
        names.update(zip(self.exists, fresh))
        return names


def _bodies(defs: SpecFile, inst: F.PredInst) -> list[_Body]:
    """The ``_Body``s ``inst`` unfolds to, compiled once per spec, predicate
    and argument shape and kept on the spec: a disjunct whose points-to
    head is a parameter (not a binder of the same name) bound to a term
    other than a variable (null, say) has no model, so it is left out."""
    shape = tuple([None if a.__class__ is Var else a if a.__class__ in (Null, Const)
                   else False for a in inst.args])
    found = defs.compiled.get((inst.pred, shape))
    if found is None:
        pred = defs.preds[inst.pred]
        found = defs.compiled[inst.pred, shape] = [
            _Body(pred, d, shape, defs) for d in pred.body.disjuncts
            if all(shape[pred.params.index(p.var)] is None for p in d.points_tos()
                   if p.var in pred.params and p.var not in d.exists)]
    return found


def unfold_at(d: SymbolicHeap, inst_index: int, defs: SpecFile) -> list[SymbolicHeap]:
    """Unfold the instance at position ``inst_index`` of ``d``'s atom list.

    Each child is the separating conjunction of the context (``d`` without
    the instance) and one body: the context's atoms, conjuncts and binders
    come first, the body's after them. One substitution maps each parameter
    to its argument and each binder to a globally fresh name (taken in
    binder order), which can neither clash with nor capture another name.
    A disjunct that binds a points-to head to null or another non-variable
    term has no model and yields no child (``_bodies``).
    """
    inst = d.atoms[inst_index]
    if not isinstance(inst, F.PredInst):
        raise ValueError(f"atom {inst_index} is not a predicate instance")
    context = d.atoms[:inst_index] + d.atoms[inst_index + 1:]
    out: list[SymbolicHeap] = []
    for body in _bodies(defs, inst):
        fresh = tuple([F.fresh_var(v) for v in body.exists])
        renaming = dict(zip(body.params, inst.args))
        renaming.update(zip(body.exists, map(Var, fresh)))
        out.append(SymbolicHeap(d.exists + fresh,
                                context + F.subst_spatial(body.atoms, renaming),
                                d.pure + F.subst_pure(body.pure, renaming)))
    return out


class _HeapState:
    """A checked heap: its sort table (None after a sort clash), and each
    cube's ``_Cube`` under it (None when the cube has no model), from the
    cube's check (``_checked``)."""

    def __init__(self, sorts: F.SortTable | None, checked: Iterable[tuple | None]):
        self.sorts, self.cubes = sorts, [c and c[0] for c in checked]

    @property
    def contradictory(self) -> bool:
        return all(cube is None for cube in self.cubes)


def _state(d: SymbolicHeap, defs: SpecFile, above: tuple | None = None) -> _HeapState:
    """``d``'s check state. ``above`` is ``(parent, its state, the instance
    unfolded, its _Body)`` when ``unfold_at`` made ``d`` from ``parent``.
    Then ``d``'s sort table extends the parent's, a clash if that is one,
    by the body's renamed uses, and ``d``'s cubes extend the parent's by the
    body's, unless the body is general; otherwise the table adds the sort
    facts of ``d``'s new atoms and conjuncts, and every cube of ``d`` is
    checked from scratch (see the module notes)."""
    parent, up, inst, body = above or (None, None, None, None)
    if up is not None and up.sorts is None:
        return _HeapState(None, [])
    if up is None or body.general:
        table, atoms, pure = F.SortTable(), d.atoms, d.pure
        if up is not None:  # the body's atoms and conjuncts come last
            table, atoms, pure = up.sorts, atoms[len(parent.atoms) - 1:], pure[len(parent.pure):]
        try:
            sorts = table.extended(*F.sort_facts(atoms, pure, defs, defs.param_sorts))[0]
        except F.SortError:
            return _HeapState(None, [])
        heads = [p.var for p in d.points_tos()]
        return _HeapState(sorts, [_checked(lits, sorts, heads) for lits in _nnf_cubes(d.pure)])
    if body.uses is None:
        return _HeapState(None, [])
    names = body.names(inst.args, d.exists[len(parent.exists):])
    try:
        # Only the classes of the parameters' arguments can change kind; the
        # binders are new.
        sorts, changed = up.sorts.extended(
            [(names[v], sort) for v, sort in body.uses],
            [(names[a], names[b]) for a, b in body.merges], [names[p] for p in body.touched])
    except F.SortError:
        return _HeapState(None, [])
    new = []
    for cube in body.cubes:
        try:
            new.append(_split(cube, names, sorts))
        except F.SortError:
            new.append(None)
    return _HeapState(sorts, _extend(d, up, sorts, changed, new))


def _extend(d: SymbolicHeap, up: _HeapState, sorts: F.SortTable, changed: bool,
            bodies: Sequence[_Prepared | None]):
    """The checks (``_checked``) of ``d``'s cubes, one at a time: each cube
    of ``up``, the check of ``d``'s parent, followed by each of ``bodies``
    (None for one that is a sort clash), as ``_nnf_cubes`` orders them, under
    ``sorts``. ``changed`` says whether a class changed kind between ``up``'s
    sorts and ``sorts``. A cube that ``up`` ruled out stays ruled out, and a
    live one is extended, or checked from scratch when one of its variables
    changed kind (see the module notes)."""
    heads, whole = [p.var for p in d.points_tos()], None
    for i, cube in enumerate(up.cubes):
        scratch = changed and cube is not None and any(
            is_location(sorts, v) != k for v, k in cube.kinds.items())
        for j, lits in enumerate(bodies):
            if cube is None or lits is None:
                yield None
            elif scratch:
                whole = whole or _nnf_cubes(d.pure)
                yield _checked(whole[i * len(bodies) + j], sorts, heads)
            else:
                yield _checked(lits, sorts, heads, cube)


# =====================================================================
# sat: best-first satisfiability
# =====================================================================


def _try_base(d: SymbolicHeap, state: _HeapState, universe: list[str], budget: Budget,
              stats: SolverStats, deadline: float) -> tuple[SymbolicModel | None, bool]:
    """Solve the base heap ``d`` from its check ``state``: the model of its
    first cube that has one, and whether only the integer domain ruled its
    cubes out. Each live cube is extended by no literals, with the
    variables of ``universe`` leading (``d``'s own, then the query's), and
    its integers are searched in that order."""
    sorts, heads = state.sorts, [p.var for p in d.points_tos()]
    universe = list(dict.fromkeys([*F.heap_vars(d), *universe]))
    bounded = False
    for cube in state.cubes:
        checked = cube and _extended(_NO_LITERALS, sorts, universe, heads, cube)
        if checked is None:
            continue
        cube, bounds = checked
        values = _search_ints(cube.lins, cube.uses, [v for v in universe if not cube.kinds[v]],
                              sorts, dict(bounds), budget, stats, deadline)
        if values is not None:
            return _assemble_model(d, cube, values, sorts, universe), False
        bounded = True
    return None, bounded


def _assemble_model(d: SymbolicHeap, cube: _Cube, values: dict[str, int], sorts,
                    universe: list[str]) -> SymbolicModel:
    """The model of ``d`` in which the integers take ``values`` and the
    location classes are ``cube``'s, read in ``universe`` order: null's
    class, and every unmarked class that no disequality keeps apart from an
    earlier null one, is null; any other class aliases its points-to head,
    or else its first member."""
    uf, pts = cube.uf, d.points_tos()
    apart = [(uf.find(a), uf.find(b)) for a, b in cube.diseqs]
    null_roots = {uf.find(NULL_KEY)}
    for r in dict.fromkeys([uf.find(v) for v in universe if v not in values]):
        if r not in cube.marked and not any(
                (x == r and y in null_roots) or (y == r and x in null_roots) for x, y in apart):
            null_roots.add(r)
    target: dict[str, str] = {}  # class representative -> the member others alias
    for p in pts:
        target.setdefault(uf.find(p.var), p.var)
    parts: list[PureFormula] = []
    for v in universe:
        if v in values:
            parts.append(Atom("=", Var(v), Const(values[v])))
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
    return SymbolicModel(heap, {v: sort for v in universe
                                if (sort := sorts.get(v)) is not None})


def sat(d: SymbolicHeap, defs: SpecFile, budget: Budget | None = None) -> SatResult:
    """Satisfiability of one symbolic heap under the given budget.

    Search strategy: each unfolding replaces a heap's first predicate
    instance by its definition disjuncts, which reaches every combination
    of disjunct choices without duplicates. A heap at round j has a path,
    the ``_bodies`` index taken at each unfolding, and the frontier is a
    priority queue keyed by (j + the heap's instances, path): an unfolding
    takes out one instance, so the heap is base no earlier than that round,
    and a child's key is above its parent's. So base heaps come off in
    (round, path) order, as in the breadth-first loop that takes each
    round's base heaps, then its inductive ones, in path order; every heap
    taken before the answer is one that loop checks too, and the decision,
    the first model (up to fresh-binder numbering) and the statistics are
    the same, but no heap keyed past the answer is unfolded. Each heap is
    checked as it comes off (``_state``: the per-cube check of
    the marked alias classes and the integer bounds, without the integer
    search) and dropped if contradictory; a base heap is solved from its
    check (``_try_base``). The query is checked unless it is inductive and
    ``max_depth`` is above 0. An inductive heap at round ``max_depth`` that
    passes the check answers UNKNOWN, as does any query past
    ``budget.time_limit``, the integer search included. ``stats.rounds`` is
    the deepest round in which a heap passed the check. A frontier entry
    carries its heap's parent with the parent's check state, the instance
    unfolded and its compiled body (all None for the query), which the
    heap's check extends, so a state goes once its heap's last child has
    been checked.
    """
    budget = budget or Budget()
    stats = SolverStats()
    deadline = time.monotonic() + budget.time_limit
    universe = F.heap_vars(d)
    state = _state(d, defs)  # round 0 checks or unfolds the query from it
    if state.sorts is None:
        F.heap_sorts(d, defs, defs.param_sorts)  # raises the query's sort clash, named
    # Entries are (key, heap, link, body); paths are unique, so no keys tie.
    todo = [((len(d.instances()), ()), d, (None, None, None), None)]
    while todo:
        (_, path), h, link, body = heappop(todo)
        if time.monotonic() > deadline:
            return SatResult("unknown", None, stats)
        base, last = h.is_base(), len(path) == budget.max_depth
        if path:
            state = _state(h, defs, (*link, body))
        if (path or base or last) and state.contradictory:
            continue
        stats.rounds = max(stats.rounds, len(path))
        if not base:
            if last:
                return SatResult("unknown", None, stats)
            first = next(i for i, a in enumerate(h.atoms) if isinstance(a, F.PredInst))
            link = (h, state, h.atoms[first])
            kids = zip(unfold_at(h, first, defs), _bodies(defs, h.atoms[first]))
            for i, (kid, body) in enumerate(kids):
                key = (len(path) + len(kid.instances()) + 1, (*path, i))
                heappush(todo, (key, kid, link, body))
            continue
        try:
            model, bounded = _try_base(h, state, universe, budget, stats, deadline)
        except Timeout:
            return SatResult("unknown", None, stats)
        if model is not None:
            return SatResult("sat", model, stats)
        stats.bounded = stats.bounded or bounded
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
