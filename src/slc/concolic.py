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

Path conditions keep field reads (``v.f``) and field assignments
(``v.f := e``) in their raw form; field elimination removes them before
solving by mapping points-to slots to their symbolic names, discarding
branches whose base pointer is entailed null, and unfolding an inductive
predicate when the pointer is only constrained by one, going on depth-first
in each result from the read that needed it. ``field_free_heaps`` yields
the resulting heaps on demand, one per pull; ``preprocess`` is the same
heaps as a list. The output heaps under-approximate the input condition,
so any model of one drives execution down the intended path.

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

import copy
import itertools
import time
from typing import Callable, Iterator, Sequence, Union

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


class PCExpr(Value):
    __slots__ = ("expr",)


class PCAssign(Value):
    __slots__ = ("var", "fieldname", "expr")


PCAtom = Union[PCExpr, PCAssign]


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
        return PathCondition(self.heaps, self.atoms + (PCExpr(self._read(expr)),),
                             self.current)

    def assign(self, var: str, expr: Expr) -> "PathCondition":
        """Assignment rule: conjoin ``new = expr`` for a fresh symbol."""
        new, current = self._bind(var)
        atom = PCExpr(EBin("=", EVar(new), self._read(expr)))
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
        atom = PCAssign(self._now(var), fieldname, self._read(expr))
        return PathCondition(self.heaps, self.atoms + (atom,), self.current)


def initial_path_condition(pre: F.Formula) -> PathCondition:
    # Binders are freshened so program variables can never be captured.
    return PathCondition(tuple(F.freshen_heap(d) for d in pre.disjuncts), ())


# =====================================================================
# Expression conversion: IR expressions -> pure formulas
# =====================================================================


class ConversionError(Exception):
    """The expression leaves the solvable fragment (e.g. nonlinear)."""


def _expr_to_term(e: Expr) -> ArithTerm:
    if isinstance(e, EConst):
        if isinstance(e.value, bool):
            return Const(int(e.value))
        return Const(e.value)
    if isinstance(e, ENull):
        return Null()
    if isinstance(e, EVar):
        return Var(e.name)
    if isinstance(e, EUn) and e.op == "-":
        return Neg(_expr_to_term(e.operand))
    if isinstance(e, EBin) and e.op == "+":
        return Add(_expr_to_term(e.left), _expr_to_term(e.right))
    if isinstance(e, EBin) and e.op == "-":
        return Add(_expr_to_term(e.left), Neg(_expr_to_term(e.right)))
    if isinstance(e, EBin) and e.op == "*":
        left, right = e.left, e.right
        if isinstance(left, EConst) and isinstance(left.value, int):
            return Scale(left.value, _expr_to_term(right))
        if isinstance(right, EConst) and isinstance(right.value, int):
            return Scale(right.value, _expr_to_term(left))
        raise ConversionError(f"nonlinear product: {ir.print_expr(e)}")
    if isinstance(e, EField):
        raise ConversionError(f"unresolved field access: {ir.print_expr(e)}")
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


def expr_to_pure(e: Expr) -> PureFormula:
    """Boolean-context conversion to the assertion-language fragment."""
    if isinstance(e, EConst):
        if e.value is True:
            return F.TRUE
        if e.value is False:
            return Not(F.TRUE)
        raise ConversionError(f"integer in boolean position: {e.value}")
    if isinstance(e, EVar):
        return Atom("=", Var(e.name), Const(1))  # boolean variable as 0/1
    if isinstance(e, EUn) and e.op == "!":
        return Not(expr_to_pure(e.operand))
    if isinstance(e, EBin):
        if e.op == "&":
            return F.And(expr_to_pure(e.left), expr_to_pure(e.right))
        if e.op == "|":
            return Not(F.And(Not(expr_to_pure(e.left)), Not(expr_to_pure(e.right))))
        if e.op in ("<", "<=", ">", ">="):
            left, right = _expr_to_term(e.left), _expr_to_term(e.right)
            if e.op == "<":
                return Not(Atom("<=", right, left))
            if e.op == "<=":
                return Atom("<=", left, right)
            if e.op == ">":
                return Not(Atom("<=", left, right))
            return Atom("<=", right, left)
        if e.op in ("=", "!="):
            if _boolish(e.left) or _boolish(e.right):
                eq: PureFormula = _iff(expr_to_pure(e.left), expr_to_pure(e.right))
            else:
                eq = Atom("=", _expr_to_term(e.left), _expr_to_term(e.right))
            return eq if e.op == "=" else Not(eq)
    raise ConversionError(f"not a boolean expression: {ir.print_expr(e)}")


def _term_to_expr(t: ArithTerm) -> Expr:
    if isinstance(t, Var):
        return EVar(t.name)
    if isinstance(t, Const):
        return EConst(t.value)
    if isinstance(t, Null):
        return ENull()
    if isinstance(t, Neg):
        return EUn("-", _term_to_expr(t.term))
    if isinstance(t, Scale):
        return EBin("*", EConst(t.coeff), _term_to_expr(t.term))
    return EBin("+", _term_to_expr(t.left), _term_to_expr(t.right))


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
    """Field elimination over the heap ``d`` after its first ``done`` path
    condition atoms: the points-to slot of each (head, field) pair, the
    alias classes, the conjuncts those atoms resolved to, and each field
    read among them as ``(base var, field, slot chosen)``."""

    def __init__(self, d: SymbolicHeap, atoms: Sequence[PCAtom], defs: SpecFile):
        self.d = d
        self.slot_map = dict(_slots(d.atoms, defs))
        self.uf = S.alias_classes(S.pure_equalities(d.pure))
        for atom in atoms:
            if isinstance(atom, PCExpr):
                self.absorb(atom.expr)
        self.pure: list[PureFormula] = []
        self.reads: list[tuple[str, str, tuple[str, str]]] = []
        self.done = 0

    def resumed(self, child: SymbolicHeap, defs: SpecFile) -> "_Elimination | None":
        """This state carried into ``child``, which ``unfold_at`` made from
        ``d``: the body's points-to slots go after the context's and its
        pure equalities join the alias classes. None when the body could
        change a resolved read (its base now entailed null or first aliased
        to another slot) or has a slot that is already there."""
        new = copy.copy(self)
        new.d, new.slot_map, new.uf = child, dict(self.slot_map), self.uf.copy()
        new.pure, new.reads = list(self.pure), list(self.reads)
        for left, right in S.pure_equalities(child.pure[len(self.d.pure):]):
            S.merge_alias(new.uf, left, right)
        body = _slots(child.atoms[len(self.d.atoms) - 1:], defs)
        if any(key in new.slot_map for key, _ in body) or any(
                new.aliased(var, S.NULL_KEY) or new._first_slot(var, fname) != key
                for var, fname, key in new.reads):
            return None
        new.slot_map.update(body)
        return new

    def absorb(self, e: Expr) -> None:
        """Record an equality learned while resolving a conjunct (a field
        read rewritten to its slot name turns into a variable equality)."""
        if isinstance(e, EBin) and e.op == "=" and isinstance(e.left, (EVar, ENull)) \
                and isinstance(e.right, (EVar, ENull)):
            S.merge_alias(self.uf, _expr_to_term(e.left), _expr_to_term(e.right))

    def aliased(self, a: str, b: str) -> bool:
        return self.uf.find(a) == self.uf.find(b)

    def _first_slot(self, var: str, fieldname: str) -> tuple[str, str] | None:
        root, find = self.uf.find(var), self.uf.find
        return next((key for key in self.slot_map
                     if key[1] == fieldname and find(key[0]) == root), None)

    def _slot(self, var: str, fieldname: str, reads: list) -> tuple[str, str]:
        """The points-to slot that ``var.fieldname`` denotes, recorded in
        ``reads``; raise when there is none (null base, unfolding needed,
        or no information)."""
        if self.aliased(var, S.NULL_KEY):
            raise _Discard()
        key = self._first_slot(var, fieldname)
        if key is None:
            for idx, atom in enumerate(self.d.atoms):
                if isinstance(atom, PredInst) and any(
                        isinstance(arg, Var) and self.aliased(arg.name, var)
                        for arg in atom.args):
                    raise _NeedUnfold(idx)
            raise _Discard()
        reads.append((var, fieldname, key))
        return key

    def _resolved(self, e: Expr, reads: list) -> Expr:
        """``e`` with every field access rewritten via the slot map."""
        if isinstance(e, EField):
            return _term_to_expr(self.slot_map[self._slot(e.var, e.fieldname, reads)])
        if isinstance(e, EBin):
            return EBin(e.op, self._resolved(e.left, reads), self._resolved(e.right, reads))
        if isinstance(e, EUn):
            return EUn(e.op, self._resolved(e.operand, reads))
        return e

    def resolve(self, atom: PCAtom) -> None:
        """Resolve the next atom into a conjunct. The state is left as it
        was when a read raises."""
        reads: list = []
        resolved = self._resolved(atom.expr, reads)
        if isinstance(atom, PCAssign):
            key = self._slot(atom.var, atom.fieldname, reads)
            fresh = F.fresh_var(atom.fieldname)
            self.slot_map[key] = Var(fresh)  # overrides the original slot name
            self.pure.append(Atom("=", Var(fresh), _expr_to_term(resolved)))
            resolved = EBin("=", EVar(fresh), resolved)
        else:
            self.pure.append(expr_to_pure(resolved))
        self.absorb(resolved)
        self.reads += reads
        self.done += 1


def _preprocess_heap(d: SymbolicHeap, atoms: Sequence[PCAtom], defs: SpecFile,
                     budget: int, drops: list[str],
                     state: _Elimination | None = None) -> Iterator[SymbolicHeap]:
    """The field-free heaps of ``d`` under ``atoms``, depth-first, from
    ``state`` (which has resolved a prefix of ``atoms`` over ``d``) or else
    from the first atom. When a read in atom i needs an unfold, each child
    of ``unfold_at`` resumes at atom i from a copy of the state; when the
    child's body could change a read of atoms before i, the child starts
    over from the first atom instead. Both yield the same heaps, up to the
    names of fresh slot variables."""
    state = state or _Elimination(d, atoms, defs)
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
        base = eval_expr(s, EVar(e.var))
        if base is None:
            raise ExecError("null-deref")
        if not isinstance(base, Addr) or (base, e.fieldname) not in s:
            raise ExecError("dangling")
        return s[(base, e.fieldname)]
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
                base = s.get(st.var)
                if st.var not in s:
                    raise ExecError("dangling")
                if base is None:
                    raise ExecError("null-deref")
                if not isinstance(base, Addr) or (base, st.fieldname) not in s:
                    raise ExecError("dangling")
                value = eval_expr(s, st.expr)
                node = tree.child(node, "store", program.next(pc),
                                  lambda: node.delta.store(st.var, st.fieldname,
                                                           st.expr))
                s[(base, st.fieldname)] = value
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
