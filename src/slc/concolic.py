"""Concolic execution: concrete runs that grow a constraint tree.

Each tree node is a concolic state: statement table, path condition,
program counter, an explored flag, and the current statement; the stack
(the concrete valuation) lives only on the path being executed. The root
carries the precondition. Straight-line statements extend the current
path; a conditional creates both children, conjoining the condition to
the then-child and its negation to the else-child, and the concretely
taken side is flagged explored.

Path conditions are append-only, in SSA style: a child's heaps and atoms
extend its parent's, and nothing is rewritten once made. An assignment or
allocation names the new value with a fresh symbol and maps the variable to
it; every later expression reads variables through that map, and a
variable outside it still holds its entry value, under its own name.

Each path atom is converted to the assertion language once, when its node
is made (``PCAtom``): a field read ``v.f`` (or the target of a field write
``v.f := e``) stays in it as the placeholder variable ``v.f``. Field
elimination removes these before solving: it maps each read to a points-to
slot and substitutes the slot's term for its placeholder (an atom that
left the fragment with placeholders is converted with the slot terms in
place instead), discards a branch whose base pointer is entailed null,
and unfolds an inductive predicate when the pointer is only constrained
by one, going on depth-first in each result from the read that needed it. ``field_free_heaps`` yields the
resulting heaps on demand, one per pull; ``preprocess`` is the same heaps
as a list. The output heaps under-approximate the input condition, so any
model of one drives execution down the intended path.

Each heap state of field elimination (``_Elimination``) costs only its own
reads. The alias equalities of the read-free atoms join the heap's when a
state starts. A read finds its base's alias root once and scans only its
field's slot heads, kept in slot order, then the predicate instances'
arguments. An unfolded child is built from its parent's state and resumes
at the read that needed the unfold. It starts over from the first atom when
its body repeats a slot or could change an earlier read; only a read whose
alias class grew since the parent's check is checked again.

``explore`` repeatedly picks the shallowest unexplored node and pulls its
heaps one at a time: it solves each, builds a new input from the model
and runs it, and stops pulling once the run flips the node's flag. A node
that no heap covers is pruned only when every heap was proven to have no
model. Otherwise it is parked as unresolved: when field elimination
dropped a branch (unfolding budget or a term outside the solvable
fragment), when ``sat`` answered unknown or unsat only within the finite
integer domain (``SolverStats.bounded``), or when a model missed the node.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Iterator, Sequence

from . import formulas as F
from . import ir
from . import solver as S
from . import testgen as T
from .formulas import (
    Add,
    ArithTerm,
    Atom,
    Const,
    Neg,
    Not,
    Null,
    PointsTo,
    PredInst,
    PureFormula,
    Scale,
    SpecFile,
    SymbolicHeap,
    Var,
)
from .ir import (
    EBin,
    EConst,
    EField,
    ENull,
    EUn,
    EVar,
    ElabProgram,
    Expr,
    SAssert,
    SAssign,
    SCond,
    SFree,
    SGoto,
    SNew,
    SStore,
    wrap32,
)
from .testgen import Addr, TestInput
from .solver import unfold_at
from .value import Value, setfield

# =====================================================================
# Run outcomes
# =====================================================================


class RunOutcome(Value):
    # kind: 'ok' | 'assertion' | 'error' | 'budget'; error (of kind 'error'):
    # null-deref | dangling | goto-out-of-range | free-of-null
    __slots__ = ("kind", "error", "pc")

    def __init__(self, kind: str, error: str | None = None, pc: ir.PC = ()):
        super().__init__(kind, error, pc)

    def __str__(self) -> str:
        if self.kind == "ok":
            return "OK"
        if self.kind == "assertion":
            return f"assertion violation at {ir.pc_label(self.pc)}"
        if self.kind == "budget":
            return "step budget exceeded"
        return f"runtime error ({self.error}) at {ir.pc_label(self.pc)}"


class ExecError(Exception):
    def __init__(self, error: str):
        super().__init__(error)
        self.error = error


# =====================================================================
# Path conditions
# =====================================================================


class PCAtom(Value):
    """A path atom in the assertion language. ``pure`` is its conjunct, or
    for a field write the written term, with each field read ``v.f`` as the
    variable ``v.f`` (no other name has a ``.``). When the atom leaves the
    solvable fragment, it is the ``ConversionError`` message, or with reads
    the expression, which field elimination converts with the slot terms in
    place (a constant slot makes a product linear). ``reads`` are the
    ``(symbol, field)`` reads left to right, and ``store`` the written
    ``(symbol, field)`` or None."""

    __slots__ = ("pure", "reads", "store")


class PathCondition(Value):
    """Append-only: each step adds a heap atom or a path atom and rewrites
    none. ``current`` maps a program variable to the symbol of its latest
    value, which an assignment or allocation makes fresh; every expression a
    step adds reads its variables through it. A variable not in ``current``
    holds its entry value under its own name, as the parameters in a model."""

    __slots__ = ("heaps", "atoms", "current")  # heaps: the precondition's, plus allocations

    def __init__(self, heaps: tuple[SymbolicHeap, ...], atoms: tuple[PCAtom, ...],
                 current: dict[str, str] | None = None):  # var -> latest symbol
        setfield(self, "heaps", heaps)
        setfield(self, "atoms", atoms)
        setfield(self, "current", {} if current is None else current)

    def _now(self, var: str) -> str:
        return self.current.get(var, var)

    def _read(self, expr: Expr) -> Expr:
        return ir.rename_expr(expr, self._now)

    def _bind(self, var: str) -> tuple[str, dict[str, str]]:
        new = F.fresh_var(var)
        return new, {**self.current, var: new}

    def conjoin(self, expr: Expr) -> "PathCondition":
        return PathCondition(self.heaps, self.atoms + (path_atom(self._read(expr)),),
                             self.current)

    def assign(self, var: str, expr: Expr) -> "PathCondition":
        """Assignment rule: conjoin ``new = expr`` for a fresh symbol."""
        new, current = self._bind(var)
        atom = path_atom(EBin("=", EVar(new), self._read(expr)))
        return PathCondition(self.heaps, self.atoms + (atom,), current)

    def allocate(self, var: str, type_name: str, args: Sequence[str]) -> "PathCondition":
        """Allocation rule: like assignment, but the new value is described
        by a separating points-to atom on every disjunct."""
        new, current = self._bind(var)
        atom = PointsTo(new, type_name, tuple(Var(self._now(a)) for a in args))
        heaps = tuple(SymbolicHeap(d.exists, d.atoms + (atom,), d.pure)
                      for d in self.heaps)
        return PathCondition(heaps, self.atoms, current)

    def store(self, var: str, fieldname: str, expr: Expr) -> "PathCondition":
        atom = path_atom(self._read(expr), (self._now(var), fieldname))
        return PathCondition(self.heaps, self.atoms + (atom,), self.current)


def initial_path_condition(pre: F.Formula) -> PathCondition:
    # Binders are freshened so program variables can never be captured.
    return PathCondition(tuple(F.freshen_heap(d) for d in pre.disjuncts), ())


# =====================================================================
# Expression conversion: IR expressions -> pure formulas
# =====================================================================


class ConversionError(Exception):
    """The expression leaves the solvable fragment (e.g. nonlinear)."""


def path_atom(e: Expr, store: tuple[str, str] | None = None) -> PCAtom:
    """The atom of the condition ``e``, or of writing ``e`` to the slot
    ``store``."""
    reads = tuple(_reads(e))
    try:
        pure = _expr_to_term(e) if store else expr_to_pure(e)
    except ConversionError as err:
        pure = e if reads else str(err)
    return PCAtom(pure, reads, store)


def _reads(e: Expr) -> list[tuple[str, str]]:
    """The field reads of ``e``, left to right."""
    if isinstance(e, EField):
        return [(e.var, e.fieldname)]
    if isinstance(e, EBin):
        return _reads(e.left) + _reads(e.right)
    return _reads(e.operand) if isinstance(e, EUn) else []


def _expr_to_term(e: Expr, slots: dict[str, ArithTerm] | None = None) -> ArithTerm:
    """``e`` as a term; a field read ``v.f`` is its placeholder, or ``slots[v.f]``."""
    if isinstance(e, EConst):
        if isinstance(e.value, bool):
            return Const(int(e.value))
        return Const(e.value)
    if isinstance(e, ENull):
        return Null()
    if isinstance(e, EVar):
        return Var(e.name)
    if isinstance(e, EField):
        name = f"{e.var}.{e.fieldname}"
        return slots[name] if slots else Var(name)
    if isinstance(e, EUn) and e.op == "-":
        return Neg(_expr_to_term(e.operand, slots))
    if isinstance(e, EBin) and e.op in ("+", "-", "*"):
        left, right = _expr_to_term(e.left, slots), _expr_to_term(e.right, slots)
        if e.op != "*":
            return Add(left, right if e.op == "+" else Neg(right))
        if isinstance(left, Const):
            return Scale(left.value, right)
        if isinstance(right, Const):
            return Scale(right.value, left)
        raise ConversionError(f"nonlinear product: {ir.print_expr(e)}")
    raise ConversionError(f"not an arithmetic term: {ir.print_expr(e)}")


def _boolish(e: Expr) -> bool:
    if isinstance(e, EConst):
        return isinstance(e.value, bool)
    if isinstance(e, EUn):
        return e.op == "!"
    if isinstance(e, EBin):
        return e.op in ("<", "<=", ">", ">=", "=", "!=", "&", "|")
    return False


def _iff(p: PureFormula, q: PureFormula) -> PureFormula:
    return F.And(Not(F.And(p, Not(q))), Not(F.And(q, Not(p))))


def expr_to_pure(e: Expr, slots: dict[str, ArithTerm] | None = None) -> PureFormula:
    """Boolean-context conversion to the fragment; ``slots`` as in ``_expr_to_term``."""
    if isinstance(e, EConst):
        if e.value is True:
            return F.TRUE
        if e.value is False:
            return Not(F.TRUE)
        raise ConversionError(f"integer in boolean position: {e.value}")
    if isinstance(e, (EVar, EField)):
        return Atom("=", _expr_to_term(e, slots), Const(1))  # boolean variable as 0/1
    if isinstance(e, EUn) and e.op == "!":
        return Not(expr_to_pure(e.operand, slots))
    if isinstance(e, EBin):
        if e.op == "&":
            return F.And(expr_to_pure(e.left, slots), expr_to_pure(e.right, slots))
        if e.op == "|":
            return Not(F.And(Not(expr_to_pure(e.left, slots)), Not(expr_to_pure(e.right, slots))))
        if e.op in ("<", "<=", ">", ">="):
            left, right = _expr_to_term(e.left, slots), _expr_to_term(e.right, slots)
            if e.op == "<":
                return Not(Atom("<=", right, left))
            if e.op == "<=":
                return Atom("<=", left, right)
            if e.op == ">":
                return Not(Atom("<=", left, right))
            return Atom("<=", right, left)
        if e.op in ("=", "!="):
            if _boolish(e.left) or _boolish(e.right):
                eq: PureFormula = _iff(expr_to_pure(e.left, slots), expr_to_pure(e.right, slots))
            else:
                eq = Atom("=", _expr_to_term(e.left, slots), _expr_to_term(e.right, slots))
            return eq if e.op == "=" else Not(eq)
    raise ConversionError(f"not a boolean expression: {ir.print_expr(e)}")


# =====================================================================
# preprocess: eliminate field forms from a path condition
# =====================================================================


class Unresolvable(Exception):
    """Field elimination dropped every branch: each ran out of unfolding
    budget or left the solvable fragment."""


class _Discard(Exception):
    """The branch is dropped: a field's base pointer is entailed null, or
    nothing in the heap describes it."""


class _NeedUnfold(Exception):
    def __init__(self, inst_index: int):
        self.inst_index = inst_index


def _slots(atoms: Sequence, defs: SpecFile) -> list[tuple[tuple[str, str], ArithTerm]]:
    """The points-to slots among ``atoms``: ((head, field), value) pairs."""
    return [((p.var, fname), arg) for p in atoms if isinstance(p, PointsTo)
            for (fname, _), arg in zip(defs.datas[p.type_name].fields, p.args)]


class _Elimination:
    """Field elimination over the heap ``d`` after the first ``done`` of the
    path's ``atoms``. The state holds the heads of each field's points-to
    slots in slot order (``heads``), each slot's current value (``slots``; a
    field write overrides it), the alias classes, the conjuncts those atoms
    resolved to, and each field read among them as ``(base var, field, slot
    chosen)``. ``grown`` names the classes merged since the reads were last
    checked: by an equality absorbed from a resolved read here, or by the
    unfolded body's equalities in ``resumed``."""

    def __init__(self, d: SymbolicHeap, atoms: Sequence[PCAtom],
                 heads: dict[str, tuple[str, ...]], slots: dict[tuple[str, str], ArithTerm],
                 uf: F.UnionFind, pure: list[PureFormula],
                 reads: list[tuple[str, str, tuple[str, str]]], done: int):
        self.d, self.atoms, self.heads, self.slots, self.uf = d, atoms, heads, slots, uf
        self.pure, self.reads, self.done = pure, reads, done
        self.grown: list[str] = []

    @classmethod
    def start(cls, d: SymbolicHeap, atoms: Sequence[PCAtom], defs: SpecFile) -> "_Elimination":
        """The state before the first atom: the alias classes of the
        equalities of ``d`` and of the read-free atoms."""
        uf = S.alias_classes(S.pure_equalities(d.pure + tuple(a.pure for a in atoms
                                                              if not a.reads)))
        state = cls(d, atoms, {}, {}, uf, [], [], 0)
        state._add_slots(_slots(d.atoms, defs))
        return state

    def _add_slots(self, slots: list[tuple[tuple[str, str], ArithTerm]]) -> None:
        for key, arg in slots:
            self.heads[key[1]] = self.heads.get(key[1], ()) + (key[0],)
            self.slots[key] = arg

    def resumed(self, child: SymbolicHeap, defs: SpecFile) -> "_Elimination | None":
        """This state carried into ``child``, which ``unfold_at`` made from
        ``d``: the body's points-to slots go after the context's and its
        pure equalities join the alias classes. None when the body has a
        slot that is already there, or could change a resolved read: its
        base now entailed null or first aliased to another slot. Only a read
        whose class grew since this state's reads were checked can change."""
        body = _slots(child.atoms[len(self.d.atoms) - 1:], defs)
        if any(key in self.slots for key, _ in body):
            return None
        new = _Elimination(child, self.atoms, dict(self.heads), dict(self.slots),
                           self.uf.copy(), list(self.pure), list(self.reads), self.done)
        grown = list(self.grown)
        for left, right in S.pure_equalities(child.pure[len(self.d.pure):]):
            if root := S.merge_alias(new.uf, left, right):
                grown.append(root)
        find = new.uf.find
        dirty = {find(name) for name in grown}
        for var, fieldname, key in self.reads:
            root = find(var)
            if root in dirty and (root == S.NULL_KEY or new._first_slot(root, fieldname) != key):
                return None
        new._add_slots(body)
        return new

    def _first_slot(self, root: str, fieldname: str) -> tuple[str, str] | None:
        find = self.uf.find
        for head in self.heads.get(fieldname, ()):
            if find(head) == root:
                return head, fieldname
        return None

    def _slot(self, var: str, fieldname: str) -> tuple[str, str]:
        """The points-to slot that ``var.fieldname`` denotes; raise when
        there is none (null base, unfolding needed, or no information)."""
        find = self.uf.find
        root = find(var)
        if root == S.NULL_KEY:  # null is added first, so it is its class's root
            raise _Discard()
        key = self._first_slot(root, fieldname)
        if key is None:
            for idx, atom in enumerate(self.d.atoms):
                if isinstance(atom, PredInst):
                    for arg in atom.args:
                        if isinstance(arg, Var) and find(arg.name) == root:
                            raise _NeedUnfold(idx)
            raise _Discard()
        return key

    def resolve(self, atom: PCAtom) -> None:
        """Resolve the next atom into a conjunct: look up its reads, then
        its written slot, and put each read's slot value in for its
        placeholder (or convert the atom's kept expression with them). The
        state is left as it was when a read raises."""
        wanted = atom.reads + (atom.store,) if atom.store else atom.reads
        reads = [(var, fieldname, self._slot(var, fieldname)) for var, fieldname in wanted]
        fresh = atom.store and F.fresh_var(atom.store[1])
        pure = atom.pure
        if isinstance(pure, str):
            raise ConversionError(pure)
        if reads:
            binding = {f"{var}.{fieldname}": self.slots[key] for var, fieldname, key in reads}
            if isinstance(pure, ir.Expr):  # outside the fragment with placeholders
                pure = (_expr_to_term if fresh else expr_to_pure)(pure, binding)
            else:
                pure = (F.subst_term if fresh else F.subst_pure)(pure, binding)
            if fresh:
                self.slots[reads[-1][2]] = Var(fresh)  # overrides the original slot value
                pure = Atom("=", Var(fresh), pure)
            # A read put in as its slot value can equate two variables.
            for left, right in S.pure_equalities((pure,)):
                if root := S.merge_alias(self.uf, left, right):
                    self.grown.append(root)
            self.reads += reads
        self.pure.append(pure)
        self.done += 1


def _preprocess_heap(d: SymbolicHeap, atoms: Sequence[PCAtom], defs: SpecFile,
                     budget: int, drops: list[str],
                     state: _Elimination | None = None) -> Iterator[SymbolicHeap]:
    """The field-free heaps of ``d`` under the path's ``atoms``, depth-first,
    from ``state`` (which has resolved a prefix of the atoms over ``d``) or
    else from the first atom. When a read in atom i needs an unfold, each
    child of ``unfold_at`` resumes at atom i from a state built from this
    one; when the child's body repeats a slot or could change a read of
    atoms before i (``resumed``), the child starts over from the first atom
    instead. Both yield the same heaps, up to the names of fresh slot
    variables."""
    state = state or _Elimination.start(d, atoms, defs)
    try:
        for atom in atoms[state.done:]:
            state.resolve(atom)
    except _Discard:
        return
    except _NeedUnfold as need:
        index = need.inst_index
    except ConversionError as err:
        drops.append(str(err))
        return
    else:
        yield SymbolicHeap(d.exists, d.atoms, F.conj([d.pure, *state.pure]))
        return
    if budget <= 0:
        drops.append("unfolding budget exhausted in preprocess")
        return
    for unfolded in unfold_at(d, index, defs):
        yield from _preprocess_heap(unfolded, atoms, defs, budget - 1, drops,
                                    state.resumed(unfolded, defs))


def field_free_heaps(delta: PathCondition, defs: SpecFile, unfold_budget: int,
                     drops: list[str]) -> Iterator[SymbolicHeap]:
    """Field-access-free heaps covering the path condition, depth-first,
    each built only when it is pulled. A branch that runs out of unfolding
    budget or leaves the solvable fragment is dropped, and its reason
    appended to ``drops``. A branch whose field base is entailed null or
    described by nothing in the heap is discarded without a trace. A heap
    unfolded for a field read resumes at the atom of that read; it starts
    over from the first atom only when the unfolding could change an
    earlier read (see ``_preprocess_heap``)."""
    for d in delta.heaps:
        yield from _preprocess_heap(d, delta.atoms, defs, unfold_budget, drops)


def preprocess(delta: PathCondition, defs: SpecFile,
               unfold_budget: int = 6) -> list[SymbolicHeap]:
    """Every heap of ``field_free_heaps``, built eagerly; ``explore`` pulls
    them one at a time instead. Raises Unresolvable when there is none and
    a branch was dropped."""
    drops: list[str] = []
    heaps = list(field_free_heaps(delta, defs, unfold_budget, drops))
    if drops and not heaps:
        raise Unresolvable(drops[0])
    return heaps


# =====================================================================
# Concrete expression evaluation
# =====================================================================

Stack = dict  # variable name -> value, plus (Addr, field) -> value


def _deref(s: Stack, var: str, fieldname: str) -> tuple[Addr, str]:
    """The stack key of the field ``var.fieldname``; raise when ``var`` is
    unset, null or not an object with that field."""
    if var not in s:
        raise ExecError("dangling")
    base = s[var]
    if base is None:
        raise ExecError("null-deref")
    if not isinstance(base, Addr) or (base, fieldname) not in s:
        raise ExecError("dangling")
    return base, fieldname


def eval_expr(s: Stack, e: Expr):
    if isinstance(e, EConst):
        return e.value
    if isinstance(e, ENull):
        return None
    if isinstance(e, EVar):
        if e.name not in s:
            raise ExecError("dangling")
        return s[e.name]
    if isinstance(e, EField):
        return s[_deref(s, e.var, e.fieldname)]
    if isinstance(e, EUn):
        value = eval_expr(s, e.operand)
        if e.op == "!":
            return not value
        return wrap32(-value)
    left = eval_expr(s, e.left)
    right = eval_expr(s, e.right)
    op = e.op
    if op == "+":
        return wrap32(left + right)
    if op == "-":
        return wrap32(left - right)
    if op == "*":
        return wrap32(left * right)
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op in ("<", "<=", ">", ">="):
        if not isinstance(left, int) or not isinstance(right, int) \
                or isinstance(left, bool) or isinstance(right, bool):
            raise ExecError("dangling")
        return {"<": left < right, "<=": left <= right,
                ">": left > right, ">=": left >= right}[op]
    if op == "&":
        return bool(left) and bool(right)
    if op == "|":
        return bool(left) or bool(right)
    raise ExecError("dangling")


# =====================================================================
# Constraint tree
# =====================================================================


class ConcolicNode:
    def __init__(self, nid: int, parent: int | None, edge: str, depth: int, pc: ir.PC,
                 delta: PathCondition, flag: bool = False,
                 branch: tuple[str, int, str] | None = None, path: tuple[int, ...] = ()):
        self.nid, self.parent, self.depth, self.pc, self.delta = nid, parent, depth, pc, delta
        self.edge = edge  # rule label on the incoming edge ('then'/'else' for branches)
        self.flag, self.status = flag, "open"  # status: 'open' | 'pruned' | 'unresolved'
        self.outcome: RunOutcome | None = None
        self.children: dict[str, int] = {}
        self.branch = branch  # (source proc, source pc, side)
        self.path = path  # child-creation indices from the root


class ConstraintTree:
    """The pair (V, E): nodes are concolic states, edges are rule labels."""

    def __init__(self, program: ElabProgram, pre: F.Formula):
        self.program = program
        self.nodes: list[ConcolicNode] = []
        root = ConcolicNode(0, None, "", 0, program.start, initial_path_condition(pre),
                            flag=True)
        self.nodes.append(root)

    @property
    def root(self) -> ConcolicNode:
        return self.nodes[0]

    def child(self, parent: ConcolicNode, edge: str, pc: ir.PC,
              delta_thunk: Callable[[], PathCondition],
              branch: tuple[str, int, str] | None = None) -> ConcolicNode:
        if edge in parent.children:
            node = self.nodes[parent.children[edge]]
            if node.pc != pc:
                raise RuntimeError(f"tree got inconsistent: node {node.nid} "
                                   f"pc {ir.pc_label(node.pc)} vs {ir.pc_label(pc)}")
            return node
        node = ConcolicNode(len(self.nodes), parent.nid, edge, parent.depth + 1,
                            pc, delta_thunk(), branch=branch,
                            path=parent.path + (len(parent.children),))
        parent.children[edge] = node.nid
        self.nodes.append(node)
        return node

    def unexplored(self) -> list[ConcolicNode]:
        return [n for n in self.nodes if not n.flag and n.status == "open"]

    def edges(self) -> list[tuple[int, str, int]]:
        out = []
        for node in self.nodes:
            for label, cid in node.children.items():
                out.append((node.nid, label, cid))
        return out

    def statement(self, node: ConcolicNode) -> ir.Statement | None:
        return self.program.statement(node.pc)

    def to_dot(self) -> str:
        lines = ["digraph constraint_tree {", "  node [shape=box, fontsize=9];"]
        for node in self.nodes:
            st = self.statement(node)
            label = f"{node.nid}: pc={ir.pc_label(node.pc)}"
            if st is not None:
                label += "\\n" + ir.print_statement(st).replace('"', "'")
            marks = []
            if not node.flag and node.status == "open":
                marks.append("?")
            if node.status == "pruned":
                marks.append("pruned")
            if node.status == "unresolved":
                marks.append("unresolved")
            if node.outcome is not None:
                marks.append(str(node.outcome))
            if marks:
                label += "\\n[" + ", ".join(marks) + "]"
            style = ' style=dashed' if node.status != "open" else ""
            fill = ' color=gray' if not node.flag else ""
            lines.append(f'  n{node.nid} [label="{label}"{style}{fill}];')
        for parent, label, child in self.edges():
            lines.append(f'  n{parent} -> n{child} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


# =====================================================================
# Concrete run: grows and annotates the tree
# =====================================================================

DEFAULT_STEP_BUDGET = 1_000_000


def _init_stack(test: TestInput) -> Stack:
    s: Stack = {}
    for addr, obj in test.objects.items():
        for fname, value in obj.fields.items():
            s[(addr, fname)] = value
    s.update(test.bindings)
    return s


def run_test(test: TestInput, tree: ConstraintTree,
             step_budget: int = DEFAULT_STEP_BUDGET) -> RunOutcome:
    """Execute one input, walking existing tree nodes where the path is
    already known and creating new ones where it is not."""
    program = tree.program
    s = _init_stack(test)
    addr_counter = itertools.count(10_000)
    node = tree.root
    node.flag = True
    steps = 0
    prev = node.pc
    while True:
        pc = node.pc
        for level in range(program.entered(prev, pc), len(pc)):
            for name in program.frame_locals[level]:
                s.pop(name, None)
        prev = pc
        st = program.statement(pc)
        if st is None:
            outcome = RunOutcome("ok")
            node.outcome = outcome
            return outcome
        if steps >= step_budget:
            outcome = RunOutcome("budget", pc=pc)
            node.outcome = outcome
            return outcome
        steps += 1
        try:
            if isinstance(st, SAssign):
                value = eval_expr(s, st.expr)
                node = tree.child(node, "assign", program.next(pc),
                                  lambda: node.delta.assign(st.var, st.expr))
                s[st.var] = value
            elif isinstance(st, SNew):
                values = []
                for name in st.args:
                    if name not in s:
                        raise ExecError("dangling")
                    values.append(s[name])
                addr = Addr(next(addr_counter), st.type_name)
                node = tree.child(node, "new", program.next(pc),
                                  lambda: node.delta.allocate(st.var, st.type_name,
                                                              st.args))
                data = program.source.datas[st.type_name]
                for (fname, _), value in zip(data.fields, values):
                    s[(addr, fname)] = value
                s[st.var] = addr
            elif isinstance(st, SStore):
                key = _deref(s, st.var, st.fieldname)  # before the value
                value = eval_expr(s, st.expr)
                node = tree.child(node, "store", program.next(pc),
                                  lambda: node.delta.store(st.var, st.fieldname,
                                                           st.expr))
                s[key] = value
            elif isinstance(st, SFree):
                base = s.get(st.var)
                if st.var not in s:
                    raise ExecError("dangling")
                if base is None:
                    raise ExecError("free-of-null")
                if not isinstance(base, Addr):
                    raise ExecError("dangling")
                data = program.source.datas[base.type_name]
                if data.fields and (base, data.fields[0][0]) not in s:
                    raise ExecError("dangling")
                node = tree.child(node, "free", program.next(pc), lambda: node.delta)
                for fname, _ in data.fields:
                    s.pop((base, fname), None)
            elif isinstance(st, SAssert):
                value = eval_expr(s, st.expr)
                if not value:
                    outcome = RunOutcome("assertion", pc=pc)
                    node.outcome = outcome
                    return outcome
                node = tree.child(node, "assert", program.next(pc),
                                  lambda: node.delta.conjoin(st.expr))
            elif isinstance(st, SGoto):
                target = eval_expr(s, st.target)
                dest = program.jump(pc, target)
                if dest is None:
                    raise ExecError("goto-out-of-range")
                node = tree.child(node, f"goto:{target}", dest, lambda: node.delta)
            elif isinstance(st, SCond):
                value = eval_expr(s, st.cond)
                dests = [program.jump(pc, eval_expr(s, k))
                         for k in (st.then_target, st.else_target)]
                if None in dests:
                    raise ExecError("goto-out-of-range")
                then_child = tree.child(node, "then", dests[0],
                                        lambda: node.delta.conjoin(st.cond),
                                        branch=(*pc[-1], "then"))
                else_child = tree.child(node, "else", dests[1],
                                        lambda: node.delta.conjoin(EUn("!", st.cond)),
                                        branch=(*pc[-1], "else"))
                node = then_child if value else else_child
            else:
                raise RuntimeError(f"unhandled statement {st!r}")
        except ExecError as err:
            outcome = RunOutcome("error", error=err.error, pc=pc)
            node.outcome = outcome
            return outcome
        node.flag = True


# =====================================================================
# Exploration driver
# =====================================================================


class ExploreStats:
    def __init__(self):
        self.solver_calls = self.runs = self.pruned = self.unresolved = 0
        self.unfold_rounds = self.pure_nodes = 0
        self.stopped_by: str | None = None  # "node budget" | "timeout"


class ExploreResult:
    def __init__(self, tree: ConstraintTree, tests: list[TestInput],
                 log: list[tuple[str, RunOutcome]], stats: ExploreStats):
        self.tree, self.tests, self.log, self.stats = tree, tests, log, stats


def explore(program: ElabProgram, pre: F.Formula, seeds: Sequence[TestInput],
            defs: SpecFile, budget: S.Budget | None = None,
            max_nodes: int = 10_000, step_budget: int = DEFAULT_STEP_BUDGET,
            spec_only: bool = False,
            time_limit: float | None = None) -> ExploreResult:
    """Run all seeds, then solve unexplored branches until none remain or
    a budget is hit. ``spec_only`` stops after the seed runs."""
    if not seeds:
        raise ValueError("need at least one initial test input")
    budget = budget or S.Budget()
    deadline = None if time_limit is None else time.monotonic() + time_limit
    tree = ConstraintTree(program, pre)
    stats = ExploreStats()
    log: list[tuple[str, RunOutcome]] = []
    tests: list[TestInput] = []
    for seed in seeds:
        outcome = run_test(seed, tree, step_budget)
        stats.runs += 1
        log.append((seed.provenance, outcome))
    if spec_only:
        return ExploreResult(tree, tests, log, stats)
    iteration = itertools.count(1)
    while True:
        candidates = tree.unexplored()
        if not candidates:
            break
        if len(tree.nodes) >= max_nodes:
            stats.stopped_by = "node budget"
        elif deadline is not None and time.monotonic() > deadline:
            stats.stopped_by = "timeout"
        if stats.stopped_by:
            break
        node = min(candidates, key=lambda n: (n.depth, n.path))
        drops: list[str] = []
        unproven = False  # some heap is not shown to have no model
        for d in field_free_heaps(node.delta, defs, budget.max_depth, drops):
            result = S.sat(d, defs, budget)
            stats.solver_calls += 1
            stats.unfold_rounds += result.stats.rounds
            stats.pure_nodes += result.stats.pure_nodes
            if not result.is_sat:
                # Unknown, or unsat only within the finite integer domain.
                unproven = unproven or result.decision == "unknown" or result.stats.bounded
                continue
            test = T.to_unit_test(result.model, program.params, defs,
                                  provenance=f"concolic:i{next(iteration)}:n{node.nid}")
            tests.append(test)
            outcome = run_test(test, tree, step_budget)
            stats.runs += 1
            log.append((test.provenance, outcome))
            if node.flag:
                break
            unproven = True  # a model that missed the node
        if not node.flag:
            if unproven or drops:
                # The branch is beyond this solver or this unfolding budget,
                # which does not make it infeasible.
                node.status = "unresolved"
                stats.unresolved += 1
            else:
                node.status = "pruned"
                stats.pruned += 1
    return ExploreResult(tree, tests, log, stats)
