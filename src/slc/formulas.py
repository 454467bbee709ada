"""Separation-logic assertion language: AST, parser, and manipulation.

The assertion language describes linked heap structures. A *symbolic heap*
pairs a spatial part (``emp``, points-to atoms ``x -> c(a1..an)``, inductive
predicate instances ``p(a1..an)``, joined by the separating conjunction
``*``) with a pure arithmetic part, under an optional existential binder.
A formula is a disjunction of symbolic heaps. Inductive predicates and the
record types they constrain are declared in ``.sl`` files together with
named procedure preconditions.

Design notes:

* A symbolic heap is flat: its spatial part is a tuple of points-to and
  predicate-instance atoms (``emp`` is the empty tuple) and its pure part
  a tuple of conjuncts (``true`` is the empty tuple), none of them itself
  a conjunction or ``true``. The parser builds this shape and the printer
  reads it, so the two separating-conjunction laws need no rewriting
  step: ``(k1 & p1) * (k2 & p2)`` is the concatenation of the atom and
  conjunct tuples, and ``(ex w . D1) * (ex v . D2)`` concatenates the
  binders once ``v`` is fresh, which freshening before substitution
  guarantees (see ``solver.unfold_at``).
* The pure fragment is kept minimal: atoms are ``=`` and ``<=`` only, and
  the surface comparisons ``<``, ``>``, ``>=``, ``!=`` are desugared at
  parse time (``a < b`` becomes ``!(b <= a)`` and so on). Printing re-sugars
  the two negated shapes so round-trips stay readable.
* Variables are untyped in assertions; ``infer_sorts`` and ``heap_sorts``
  recover int/bool/record sorts by unification, in one ``SortTable``: a
  union-find merges the two sides of every variable equality, each class
  has the join of the sorts of its members' positions as its sort, and a
  clash is a ``SortError`` that names the position of the use or the class
  that makes it. The solver's check extends the same table one predicate
  body at a time and takes no use out, so a class's sort only grows: an
  unfolded instance's arguments keep their parameter sorts, which
  ``infer_sorts`` joins over every disjunct.
* AST nodes are immutable values (``value.Value``) and may be shared
  freely.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping, Union

from .lexer import TokenStream
from .value import Value, setfield

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1

# =====================================================================
# Terms
# =====================================================================


class Null(Value):
    __slots__ = ()


class Const(Value):
    __slots__ = ("value",)

    def __init__(self, value: int):
        if not (INT32_MIN <= value <= INT32_MAX):
            raise ValueError(f"constant {value} outside 32-bit range")
        setfield(self, "value", value)


class Var(Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        setfield(self, "name", name)

    def __hash__(self) -> int:
        return hash((self.name,))


class Scale(Value):
    __slots__ = ("coeff", "term")  # coeff: a constant; linearity is part of the grammar


class Add(Value):
    __slots__ = ("left", "right")


class Neg(Value):
    __slots__ = ("term",)


ArithTerm = Union[Null, Const, Var, Scale, Add, Neg]

NULL = Null()
TRUE = None  # placeholder replaced below once PureFormula exists


# =====================================================================
# Pure formulas
# =====================================================================


class TruePure(Value):
    __slots__ = ()


class Atom(Value):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: ArithTerm, right: ArithTerm):
        if op not in ("=", "<="):
            raise ValueError(f"pure atom operator must be = or <=, got {op!r}")
        setfield(self, "op", op)
        setfield(self, "left", left)
        setfield(self, "right", right)


class Not(Value):
    __slots__ = ("inner",)

    def __init__(self, inner: PureFormula):
        setfield(self, "inner", inner)


class And(Value):
    __slots__ = ("left", "right")


PureFormula = Union[TruePure, Atom, Not, And]

TRUE = TruePure()


Conjunction = tuple[PureFormula, ...]  # a heap's flat pure part


def conjuncts(pure: PureFormula | Conjunction) -> list[PureFormula]:
    """The conjuncts of ``pure`` left to right: a heap's flat pure tuple as
    it is, any other formula with its conjunctions flattened and redundant
    ``true`` dropped. Iterative, so a long parenthesized conjunction costs
    no recursion."""
    if isinstance(pure, tuple):
        return list(pure)
    if not isinstance(pure, And):
        return [] if isinstance(pure, TruePure) else [pure]
    out: list[PureFormula] = []
    stack = [pure]
    while stack:
        p = stack.pop()
        if isinstance(p, And):
            stack.append(p.right)
            stack.append(p.left)
        elif not isinstance(p, TruePure):
            out.append(p)
    return out


def conj(parts: Iterable[PureFormula | Conjunction]) -> Conjunction:
    """The flat conjunct tuple of ``parts``, each a formula or a tuple."""
    return tuple(c for part in parts for c in conjuncts(part))


# =====================================================================
# Spatial formulas
# =====================================================================


class PointsTo(Value):
    __slots__ = ("var", "type_name", "args")  # var: the address of exactly one record

    def __init__(self, var: str, type_name: str, args: tuple[ArithTerm, ...]):
        setfield(self, "var", var)
        setfield(self, "type_name", type_name)
        setfield(self, "args", args)


class PredInst(Value):
    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple[ArithTerm, ...]):
        setfield(self, "pred", pred)
        setfield(self, "args", args)


SpatialAtom = Union[PointsTo, PredInst]


# =====================================================================
# Symbolic heaps, formulas, definitions
# =====================================================================


class SymbolicHeap(Value):
    """``exists`` binders over the separating conjunction of ``atoms`` and
    the conjunction of ``pure`` (see the module notes)."""

    __slots__ = ("exists", "atoms", "pure")

    def __init__(self, exists: tuple[str, ...], atoms: tuple[SpatialAtom, ...],
                 pure: Conjunction):
        setfield(self, "exists", exists)
        setfield(self, "atoms", atoms)
        setfield(self, "pure", pure)

    def points_tos(self) -> list[PointsTo]:
        return [a for a in self.atoms if isinstance(a, PointsTo)]

    def instances(self) -> list[PredInst]:
        return [a for a in self.atoms if isinstance(a, PredInst)]

    def is_base(self) -> bool:
        return not any(isinstance(a, PredInst) for a in self.atoms)


class Formula(Value):
    __slots__ = ("disjuncts",)

    def __init__(self, disjuncts: tuple[SymbolicHeap, ...]):
        if not disjuncts:
            raise ValueError("a formula needs at least one disjunct")
        setfield(self, "disjuncts", disjuncts)


class DataDef(Value):
    __slots__ = ("name", "fields")  # fields: (name, type) pairs in declaration order

    def field_type(self, name: str) -> str:
        for f, t in self.fields:
            if f == name:
                return t
        raise KeyError(name)


class PredDef(Value):
    __slots__ = ("name", "params", "body")  # body: a Formula


class SpecFile:
    def __init__(self):
        self.datas: dict[str, DataDef] = {}
        self.preds: dict[str, PredDef] = {}
        self.preconditions: dict[str, Formula] = {}
        self.param_sorts: dict[str, tuple[str | None, ...]] = {}  # infer_sorts', when validated
        self.compiled: dict = {}  # the solver's compiled predicate bodies, made on first use


# =====================================================================
# Fresh names
# =====================================================================


class _NameSession:
    """Session-wide fresh-name source.

    Every parsed variable name is registered so a fresh name can never
    collide with one in play. A fresh name is the hint without trailing
    digits (its base) and that base's next count (``elt1``, ``elt2``, ...);
    it splits back one way only, so issued names need no record.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._seen: set[str] = set()
        self._counters: dict[str, int] = {}

    def register(self, name: str) -> None:
        with self._lock:
            self._seen.add(name)

    def fresh(self, hint: str) -> str:
        base = hint.rstrip("0123456789") or "v"
        with self._lock:
            n = self._counters.get(base, 0)
            while True:
                n += 1
                name = f"{base}{n}"
                if name not in self._seen:
                    self._counters[base] = n
                    return name

    def reset(self) -> None:
        with self._lock:
            self._seen.clear()
            self._counters.clear()


_session = _NameSession()


def fresh_var(hint: str = "v") -> str:
    return _session.fresh(hint)


def register_name(name: str) -> None:
    _session.register(name)


def reset_names() -> None:
    """Start a new naming session (used by the CLI and by tests)."""
    _session.reset()


# =====================================================================
# Free variables and substitution
# =====================================================================


def term_vars(term: ArithTerm) -> list[str]:
    """The variables of ``term`` left to right, repeats kept."""
    if isinstance(term, Var):
        return [term.name]
    if isinstance(term, (Scale, Neg)):
        return term_vars(term.term)
    if isinstance(term, Add):
        return term_vars(term.left) + term_vars(term.right)
    return []


def _var_walk(pures: Iterable[PureFormula], atoms: Iterable[SpatialAtom] = ()) -> list[str]:
    """The variables of ``pures`` and then of ``atoms``, left to right,
    repeats kept: each atom's left side before its right, each
    conjunction's left part before its right, each points-to head before
    its arguments."""
    names: list[str] = []
    stack = list(pures)[::-1]
    while stack:
        p = stack.pop()
        if isinstance(p, Atom):
            names += term_vars(p.left)
            names += term_vars(p.right)
        elif isinstance(p, Not):
            stack.append(p.inner)
        elif isinstance(p, And):
            stack.append(p.right)
            stack.append(p.left)
    for atom in atoms:
        if isinstance(atom, PointsTo):
            names.append(atom.var)
        for arg in atom.args:
            names += term_vars(arg)
    return names


def pure_vars(pure: PureFormula) -> list[str]:
    """The variables of ``pure``, each once, in first-occurrence order."""
    return list(dict.fromkeys(_var_walk((pure,))))


def heap_vars(d: SymbolicHeap) -> list[str]:
    """The variables of ``d``, binders included, each once, in first-
    occurrence order: its conjuncts' before its atoms' (``_var_walk``)."""
    return list(dict.fromkeys(_var_walk(d.pure, d.atoms)))


def free_vars(d: SymbolicHeap) -> set[str]:
    return set(heap_vars(d)).difference(d.exists)


UNDEFINED = object()  # the value of a term that has none; see eval_ground


def eval_ground(term: ArithTerm, env: Mapping[str, object]):
    """Value of ``term`` with its variables read from ``env``.

    Arithmetic is over integers, with booleans as 0 and 1. The result is
    ``UNDEFINED`` when a variable is unbound or an arithmetic operand is
    null or an address; each caller decides what that means.
    """
    if isinstance(term, Var):
        return env.get(term.name, UNDEFINED)
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Null):
        return None
    if isinstance(term, Add):
        left = eval_ground(term.left, env)
        right = eval_ground(term.right, env)
        if not (isinstance(left, int) and isinstance(right, int)):
            return UNDEFINED
        return left + right
    inner = eval_ground(term.term, env)
    if not isinstance(inner, int):
        return UNDEFINED
    return -inner if isinstance(term, Neg) else term.coeff * inner


class SubstitutionError(Exception):
    """A head position required a variable but the binding supplied a term."""


def subst_term(term: ArithTerm, binding: Mapping[str, ArithTerm]) -> ArithTerm:
    if isinstance(term, Var):
        return binding.get(term.name, term)
    if isinstance(term, Scale):
        return Scale(term.coeff, subst_term(term.term, binding))
    if isinstance(term, Add):
        return Add(subst_term(term.left, binding), subst_term(term.right, binding))
    if isinstance(term, Neg):
        return Neg(subst_term(term.term, binding))
    return term


def subst_pure(pure: PureFormula | Conjunction,
               binding: Mapping[str, ArithTerm]) -> PureFormula | Conjunction:
    if isinstance(pure, tuple):
        return tuple([subst_pure(c, binding) for c in pure])
    if isinstance(pure, Atom):
        left, right = [binding.get(t.name, t) if t.__class__ is Var else subst_term(t, binding)
                       for t in (pure.left, pure.right)]
        return Atom(pure.op, left, right)
    if isinstance(pure, Not):
        return Not(subst_pure(pure.inner, binding))
    if isinstance(pure, And):
        return And(subst_pure(pure.left, binding), subst_pure(pure.right, binding))
    return pure


def subst_spatial(atoms: tuple[SpatialAtom, ...],
                  binding: Mapping[str, ArithTerm]) -> tuple[SpatialAtom, ...]:
    out: list[SpatialAtom] = []
    for atom in atoms:
        args = tuple([binding.get(a.name, a) if a.__class__ is Var else subst_term(a, binding)
                      for a in atom.args])
        if atom.__class__ is PredInst:
            out.append(PredInst(atom.pred, args))
            continue
        head = binding.get(atom.var)
        if head is None:
            out.append(PointsTo(atom.var, atom.type_name, args))
        elif head.__class__ is Var:
            out.append(PointsTo(head.name, atom.type_name, args))
        else:
            raise SubstitutionError(f"points-to head {atom.var} substituted by non-variable term")
    return tuple(out)


def freshen_heap(d: SymbolicHeap) -> SymbolicHeap:
    """Rename all bound variables of ``d`` to globally fresh names."""
    if not d.exists:
        return d
    renames = {v: Var(fresh_var(v)) for v in d.exists}
    return SymbolicHeap(tuple(r.name for r in renames.values()),
                        subst_spatial(d.atoms, renames),
                        subst_pure(d.pure, renames))


# =====================================================================
# Alpha-equivalence
# =====================================================================


def _term_skeleton(term: ArithTerm, bound: set[str]) -> str:
    if isinstance(term, Var):
        return "?" if term.name in bound else term.name
    if isinstance(term, Const):
        return str(term.value)
    if isinstance(term, Null):
        return "null"
    if isinstance(term, Scale):
        return f"{term.coeff}*{_term_skeleton(term.term, bound)}"
    if isinstance(term, Add):
        return f"({_term_skeleton(term.left, bound)}+{_term_skeleton(term.right, bound)})"
    return f"-{_term_skeleton(term.term, bound)}"


def canonical_heap(d: SymbolicHeap) -> SymbolicHeap:
    """Canonical form for comparison up to bound-variable renaming.

    Spatial atoms are ordered points-to first, then predicate instances,
    each group sorted by a binder-independent skeleton (ties keep source
    order); binders are renamed in first-use order; pure conjuncts are
    sorted by their printed form. Heaps that differ only in bound names
    or conjunct order map to equal canonical forms.
    """
    bound = set(d.exists)
    pts = d.points_tos()
    insts = d.instances()

    def atom_key(atom: SpatialAtom) -> str:
        if isinstance(atom, PointsTo):
            head = "?" if atom.var in bound else atom.var
            return f"{atom.type_name}({head};" + ",".join(
                _term_skeleton(t, bound) for t in atom.args) + ")"
        return f"{atom.pred}(" + ",".join(_term_skeleton(t, bound) for t in atom.args) + ")"

    atoms = sorted(pts, key=atom_key) + sorted(insts, key=atom_key)

    renames: dict[str, Var] = {}
    for v in _var_walk((), atoms) + [v for c in d.pure for v in sorted(pure_vars(c))]:
        if v in bound and v not in renames:
            renames[v] = Var(f".b{len(renames)}")

    return SymbolicHeap(tuple(r.name for r in renames.values()),
                        subst_spatial(atoms, renames),
                        tuple(sorted(subst_pure(d.pure, renames), key=print_pure)))


def alpha_equal(a: SymbolicHeap, b: SymbolicHeap) -> bool:
    return canonical_heap(a) == canonical_heap(b)


def dedup_heaps(heaps: Iterable[SymbolicHeap]) -> list[SymbolicHeap]:
    """Drop later heaps alpha-equivalent to earlier ones, keeping order."""
    seen: set = set()
    out: list[SymbolicHeap] = []
    for d in heaps:
        key = canonical_heap(d)
        if key not in seen:
            seen.add(key)
            out.append(d)
    return out


# =====================================================================
# Printing
# =====================================================================


def print_term(term: ArithTerm) -> str:
    if isinstance(term, Null):
        return "null"
    if isinstance(term, Const):
        return str(term.value)
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Scale):
        return f"{term.coeff} * {_paren_term(term.term)}"
    if isinstance(term, Add):
        if isinstance(term.right, Neg):
            return f"{print_term(term.left)} - {_paren_term(term.right.term)}"
        return f"{print_term(term.left)} + {_paren_term(term.right)}"
    return f"-{_paren_term(term.term)}"


def _paren_term(term: ArithTerm) -> str:
    text = print_term(term)
    return f"({text})" if isinstance(term, (Add, Scale, Neg)) else text


def print_pure(pure: PureFormula) -> str:
    if isinstance(pure, TruePure):
        return "true"
    if isinstance(pure, Atom):
        return f"{print_term(pure.left)} {pure.op} {print_term(pure.right)}"
    if isinstance(pure, Not):
        inner = pure.inner
        # Re-sugar the two desugared comparison shapes.
        if isinstance(inner, Atom) and inner.op == "=":
            return f"{print_term(inner.left)} != {print_term(inner.right)}"
        if isinstance(inner, Atom) and inner.op == "<=":
            return f"{print_term(inner.right)} < {print_term(inner.left)}"
        return f"!({print_pure(inner)})"
    return f"{print_pure(pure.left)} & {print_pure(pure.right)}"


def print_heap(d: SymbolicHeap) -> str:
    prefix = f"exists {', '.join(d.exists)} . " if d.exists else ""
    parts = []
    for atom in d.atoms:
        args = ", ".join(print_term(a) for a in atom.args)
        if isinstance(atom, PointsTo):
            parts.append(f"{atom.var} -> {atom.type_name}({args})")
        else:
            parts.append(f"{atom.pred}({args})")
    spatial = " * ".join(parts) or "emp"
    pure = " & ".join(print_pure(c) for c in d.pure) or "true"
    return f"{prefix}{spatial} & {pure}"


# =====================================================================
# Parser
# =====================================================================

_KEYWORDS = {"data", "pred", "pre", "emp", "null", "true", "exists", "bool", "int"}


def _parse_term(ts: TokenStream) -> ArithTerm:
    left = _parse_term_factor(ts)
    while ts.at("+") or ts.at("-"):
        op = ts.next().text
        right = _parse_term_factor(ts)
        left = Add(left, right if op == "+" else Neg(right))
    return left


def _parse_term_factor(ts: TokenStream) -> ArithTerm:
    if ts.accept("-"):
        return Neg(_parse_term_factor(ts))
    return _parse_term_primary(ts)


def _parse_term_primary(ts: TokenStream) -> ArithTerm:
    if ts.at_kind("int"):
        err = ts.error("constant outside 32-bit signed range")
        value = ts.expect_int()
        if not (INT32_MIN <= value <= INT32_MAX):
            raise err
        if ts.accept("*"):
            return Scale(value, _parse_term_factor(ts))
        return Const(value)
    if ts.accept("("):
        term = _parse_term(ts)
        ts.expect(")")
        return term
    if ts.at("null"):
        ts.next()
        return NULL
    tok = ts.expect_ident("term")
    register_name(tok.text)
    return Var(tok.text)


_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


def _desugar_cmp(op: str, a: ArithTerm, b: ArithTerm) -> PureFormula:
    if op == "=":
        return Atom("=", a, b)
    if op == "!=":
        return Not(Atom("=", a, b))
    if op == "<=":
        return Atom("<=", a, b)
    if op == "<":
        return Not(Atom("<=", b, a))
    if op == ">":
        return Not(Atom("<=", a, b))
    return Atom("<=", b, a)  # a >= b


def _parse_pure_atom(ts: TokenStream) -> PureFormula:
    if ts.at("true"):
        ts.next()
        return TRUE
    left = _parse_term(ts)
    tok = ts.peek()
    if tok.text not in _CMP_OPS:
        raise ts.error(f"expected comparison operator, found {tok.text!r}")
    ts.next()
    right = _parse_term(ts)
    return _desugar_cmp(tok.text, left, right)


def _parse_pure_primary(ts: TokenStream) -> PureFormula:
    if ts.accept("!"):
        return Not(_parse_pure_primary(ts))
    if ts.at("(") :
        # Parenthesized pure group; may contain conjunction.
        ts.expect("(")
        inner = _parse_pure_full(ts)
        ts.expect(")")
        return inner
    return _parse_pure_atom(ts)


def _parse_pure_full(ts: TokenStream) -> PureFormula:
    left = _parse_pure_primary(ts)
    while ts.accept("&"):
        left = And(left, _parse_pure_primary(ts))
    return left


class _Chunk:
    def __init__(self, exists: list[str], atoms: list[SpatialAtom],
                 pures: list[PureFormula], saw_emp: bool = False):
        self.exists, self.atoms, self.pures, self.saw_emp = exists, atoms, pures, saw_emp


def _parse_args(ts: TokenStream) -> tuple[ArithTerm, ...]:
    ts.expect("(")
    args: list[ArithTerm] = []
    if not ts.at(")"):
        args.append(_parse_term(ts))
        while ts.accept(","):
            args.append(_parse_term(ts))
    ts.expect(")")
    return tuple(args)


def _parse_chunk(ts: TokenStream) -> _Chunk:
    if ts.at("(") and ts.peek(1).text == "exists":
        ts.expect("(")
        inner = _parse_disjunct_body(ts)
        ts.expect(")")
        return inner
    if ts.at("exists"):
        ts.next()
        binders = [ts.expect_ident("bound variable").text]
        while ts.accept(","):
            binders.append(ts.expect_ident("bound variable").text)
        ts.expect(".")
        for b in binders:
            register_name(b)
        rest = _parse_disjunct_body(ts)
        rest.exists = binders + rest.exists
        return rest
    if ts.at("emp"):
        ts.next()
        return _Chunk([], [], [], saw_emp=True)
    if ts.at_kind("ident") and ts.peek(1).text == "->":
        head = ts.expect_ident().text
        register_name(head)
        ts.expect("->")
        type_name = ts.expect_ident("record type name").text
        args = _parse_args(ts)
        return _Chunk([], [PointsTo(head, type_name, args)], [])
    if ts.at_kind("ident") and ts.peek(1).text == "(" and ts.peek().text not in ("true",):
        name = ts.expect_ident().text
        args = _parse_args(ts)
        return _Chunk([], [PredInst(name, args)], [])
    return _Chunk([], [], [_parse_pure_primary(ts)])


def _parse_disjunct_body(ts: TokenStream, chunk: _Chunk | None = None) -> _Chunk:
    """Chunks joined by ``&`` or ``*``, after ``chunk`` if one is given."""
    chunk = _parse_chunk(ts) if chunk is None else chunk
    while ts.accept("&") or ts.accept("*"):
        more = _parse_chunk(ts)
        chunk.exists += more.exists
        chunk.atoms += more.atoms
        chunk.pures += more.pures
        chunk.saw_emp = chunk.saw_emp or more.saw_emp
    return chunk


def _parse_disjunct(ts: TokenStream) -> SymbolicHeap:
    chunk = None
    if ts.accept("("):
        chunk = _parse_disjunct_body(ts)
        ts.expect(")")
    chunk = _parse_disjunct_body(ts, chunk)
    if not chunk.atoms and not chunk.pures and not chunk.saw_emp:
        raise ts.error("empty disjunct")
    return SymbolicHeap(tuple(chunk.exists), tuple(chunk.atoms), conj(chunk.pures))


def _parse_formula(ts: TokenStream) -> Formula:
    disjuncts = [_parse_disjunct(ts)]
    while ts.accept("\\/"):
        disjuncts.append(_parse_disjunct(ts))
    return Formula(tuple(disjuncts))


def parse_formula(text: str) -> Formula:
    ts = TokenStream(text)
    f = _parse_formula(ts)
    if not ts.at_kind("eof"):
        raise ts.error(f"trailing input {ts.peek().text!r}")
    return f


def parse_heap(text: str) -> SymbolicHeap:
    f = parse_formula(text)
    if len(f.disjuncts) != 1:
        raise ValueError("expected a single symbolic heap")
    return f.disjuncts[0]


def _parse_data(ts: TokenStream) -> DataDef:
    ts.expect("data")
    name = ts.expect_ident("record type name").text
    ts.expect("{")
    fields: list[tuple[str, str]] = []
    while not ts.at("}"):
        ftype = ts.expect_ident("field type").text
        fname = ts.expect_ident("field name").text
        ts.expect(";")
        if fname in [f for f, _ in fields]:
            raise ts.error(f"duplicate field {fname!r} in data {name}")
        fields.append((fname, ftype))
    ts.expect("}")
    return DataDef(name, tuple(fields))


def parse_spec(text: str) -> SpecFile:
    """Parse and validate a ``.sl`` specification file."""
    ts = TokenStream(text)
    spec = SpecFile()
    while not ts.at_kind("eof"):
        if ts.at("data"):
            data = _parse_data(ts)
            if data.name in spec.datas:
                raise ts.error(f"duplicate data definition {data.name!r}")
            spec.datas[data.name] = data
        elif ts.at("pred"):
            ts.next()
            name = ts.expect_ident("predicate name").text
            ts.expect("(")
            params: list[str] = []
            if not ts.at(")"):
                params.append(ts.expect_ident("parameter").text)
                while ts.accept(","):
                    params.append(ts.expect_ident("parameter").text)
            ts.expect(")")
            for p in params:
                register_name(p)
            ts.expect("==")
            body = _parse_formula(ts)
            ts.expect(";")
            if name in spec.preds:
                raise ts.error(f"duplicate predicate definition {name!r}")
            if len(set(params)) != len(params):
                raise ts.error(f"duplicate parameter in predicate {name!r}")
            # An alpha-equal disjunct repeats its twin's unfoldings.
            body = Formula(tuple(dedup_heaps(body.disjuncts)))
            spec.preds[name] = PredDef(name, tuple(params), body)
        elif ts.at("pre"):
            ts.next()
            name = ts.expect_ident("procedure name").text
            ts.expect("==")
            formula = _parse_formula(ts)
            ts.expect(";")
            if name in spec.preconditions:
                raise ts.error(f"duplicate precondition for {name!r}")
            spec.preconditions[name] = formula
        else:
            raise ts.error(f"expected data, pred or pre, found {ts.peek().text!r}")
    validate_spec(spec)
    return spec


class SpecError(Exception):
    """Well-formedness violation in a parsed specification."""


def validate_spec(spec: SpecFile) -> None:
    for data in spec.datas.values():
        for fname, ftype in data.fields:
            if ftype not in ("int", "bool") and ftype not in spec.datas:
                raise SpecError(f"data {data.name}: unknown field type {ftype!r}")

    def check_heap(d: SymbolicHeap, where: str) -> None:
        if len(set(d.exists)) != len(d.exists):
            raise SpecError(f"{where}: duplicate bound variable")
        unused = set(d.exists).difference(heap_vars(d))
        if unused:
            raise SpecError(f"{where}: bound variables never used: {sorted(unused)}")
        for atom in d.atoms:
            if isinstance(atom, PointsTo):
                data = spec.datas.get(atom.type_name)
                if data is None:
                    raise SpecError(f"{where}: unknown record type {atom.type_name!r}")
                if len(atom.args) != len(data.fields):
                    raise SpecError(
                        f"{where}: {atom.type_name} expects {len(data.fields)} "
                        f"fields, got {len(atom.args)}")
            else:
                pred = spec.preds.get(atom.pred)
                if pred is None:
                    raise SpecError(f"{where}: unknown predicate {atom.pred!r}")
                if len(atom.args) != len(pred.params):
                    raise SpecError(
                        f"{where}: {atom.pred} expects {len(pred.params)} "
                        f"arguments, got {len(atom.args)}")

    for pred in spec.preds.values():
        base = 0
        for i, d in enumerate(pred.body.disjuncts):
            check_heap(d, f"pred {pred.name} disjunct {i}")
            loose = free_vars(d) - set(pred.params)
            if loose:
                raise SpecError(f"pred {pred.name}: free variables {sorted(loose)} "
                                f"are not parameters")
            if d.is_base():
                base += 1
        if base == 0:
            raise SpecError(f"pred {pred.name}: no base disjunct; "
                            f"unfolding could not terminate")
    for name, formula in spec.preconditions.items():
        for i, d in enumerate(formula.disjuncts):
            check_heap(d, f"pre {name} disjunct {i}")
    spec.param_sorts = infer_sorts(spec)


# =====================================================================
# Sort inference
# =====================================================================

Sort = str  # 'int' | 'bool' | record type name | 'nullref' | 'scalar'

# A term compared only with null has sort 'nullref', one compared only with
# an integer constant 'scalar': the weak sort of its kind, which refines to
# a record type or to int or bool. A class left at 'scalar' reads as int.
_SCALAR_SORTS = ("int", "bool", "scalar")
_KIND = dict.fromkeys(_SCALAR_SORTS, "scalar")  # any other sort: 'nullref'


class SortError(Exception):
    pass


class UnionFind:
    """Classes of names, each represented by its earliest-added member."""

    def __init__(self):
        self.parent: dict[str, str] = {}
        self.index: dict[str, int] = {}  # insertion order of each name

    def find(self, x: str) -> str:
        """The representative of ``x``'s class; adds ``x`` if it is new."""
        parent = self.parent
        if x not in parent:
            parent[x] = x
            self.index[x] = len(self.index)
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def copy(self) -> "UnionFind":
        other = UnionFind()
        other.parent, other.index = dict(self.parent), dict(self.index)
        return other

    def union(self, a: str, b: str) -> str | None:
        """Merge the classes of ``a`` and ``b``; the merged class's
        representative, or None when they were one class already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        # Deterministic: keep the earlier-added name as representative.
        if self.index[ra] > self.index[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return ra


def join_sorts(have: Sort | None, sort: Sort, where: str = "heap", var: str = "") -> Sort:
    """The join of ``have`` (None: no sort yet) and ``sort``; a clash of the
    uses of ``var`` raises SortError."""
    if have is None or have == _KIND.get(sort, "nullref"):
        return sort
    if have == sort or sort == _KIND.get(have, "nullref"):
        return have
    raise SortError(f"{where}: variable {var} used both as {have} and as {sort}")


def _term_sort(term: ArithTerm) -> Sort | None:
    """The sort a term has by its shape alone; None for a variable."""
    return {Var: None, Null: "nullref", Const: "scalar"}.get(type(term), "int")


def _term_facts(term: ArithTerm, sort: Sort, where: str, out: list) -> None:
    """Append to ``out`` the (variable, sort, where) uses that putting
    ``term`` in a position of sort ``sort`` makes; raise when the term's
    shape clashes with it."""
    if isinstance(term, Var):
        out.append((term.name, sort, where))
    elif isinstance(term, (Scale, Add, Neg)):
        if sort not in ("int", "scalar"):
            raise SortError(f"{where}: arithmetic term in non-int position")
        for sub in ([term.term] if not isinstance(term, Add) else [term.left, term.right]):
            _term_facts(sub, "int", where, out)
    elif isinstance(term, Null):
        if sort in _SCALAR_SORTS:
            raise SortError(f"{where}: null in scalar position")
    elif sort not in _SCALAR_SORTS:
        raise SortError(f"{where}: integer constant in reference position")


def sort_facts(atoms: Iterable[SpatialAtom], pure: Conjunction, spec: SpecFile,
               param_sorts: Mapping[str, tuple[Sort | None, ...]], where: str = "heap",
               ) -> tuple[list[tuple[str, Sort, str]], list[tuple[str, str]]]:
    """The sort facts of ``atoms`` and ``pure``: the (variable, sort, where)
    uses of the positions their variables occupy, in order, and the pairs
    of variables they equate, both at any depth under ``!`` and ``&``."""
    uses: list[tuple[str, Sort, str]] = []
    merges: list[tuple[str, str]] = []
    for atom in atoms:
        if isinstance(atom, PointsTo):
            uses.append((atom.var, atom.type_name, where))
            for (fname, ftype), arg in zip(spec.datas[atom.type_name].fields, atom.args):
                _term_facts(arg, ftype, f"{where}.{fname}", uses)
        else:
            for sort, arg in zip(param_sorts.get(atom.pred, ()), atom.args):
                if sort is not None:
                    _term_facts(arg, sort, where, uses)
    stack = list(pure)
    while stack:
        c = stack.pop()
        if isinstance(c, Not):
            stack.append(c.inner)
        elif isinstance(c, And):
            stack += (c.left, c.right)
        elif isinstance(c, Atom) and c.op == "<=":
            _term_facts(c.left, "int", where, uses)
            _term_facts(c.right, "int", where, uses)
        elif isinstance(c, Atom) and isinstance(c.left, Var) and isinstance(c.right, Var):
            merges.append((c.left.name, c.right.name))
        elif isinstance(c, Atom):
            ls, rs = _term_sort(c.left), _term_sort(c.right)
            _term_facts(c.left, rs or ls, where, uses)
            _term_facts(c.right, ls or rs, where, uses)
    return uses, merges


def is_location(sorts, v: str) -> bool:
    """Whether ``v`` is a location under ``sorts`` (an unsorted one is not)."""
    return sorts.get(v, "int") not in ("int", "bool")


class SortTable:
    """Sort classes: the union-find of the variable equalities (a variable
    in none is a class of its own) and the join of each class's sorts (none
    for a class whose members' positions give it none). ``heap_sorts`` and
    ``infer_sorts`` build one from ``sort_facts``; the solver's check
    extends its parent's, so a class's sort only grows. ``get`` reads a
    table as ``heap_sorts``' dict."""

    def __init__(self, uf: UnionFind | None = None, classes: dict[str, Sort] | None = None):
        self.uf, self.classes = uf or UnionFind(), classes or {}

    def root(self, v: str) -> str:
        return self.uf.find(v) if v in self.uf.parent else v

    def get(self, v: str, default: Sort | None = None) -> Sort | None:
        sort = self.classes.get(self.root(v), default)
        return "int" if sort == "scalar" else sort

    def extended(self, uses: Iterable[tuple], merges: Iterable[tuple[str, str]] = (),
                 old: Iterable[str] = ()) -> tuple[SortTable, bool]:
        """This table with the sort of each (variable, sort, ...) of ``uses``
        joined into its variable's class, and then the classes of each pair
        in ``merges`` merged; and whether the class of a variable in ``old``
        changed kind (``is_location``). Copies only what it changes; raises
        SortError on a clash, naming no position."""
        uf, classes = self.uf, dict(self.classes)
        before = [(r, is_location(self, r)) for r in map(self.root, old)]
        for v, sort, *_ in uses:  # before any merge, so the roots are this table's
            r = self.root(v)
            classes[r] = join_sorts(classes.get(r), sort)
        for a, b in merges:
            ra, rb = (uf.find(x) if x in uf.parent else x for x in (a, b))
            if ra != rb:
                uf = uf.copy() if uf is self.uf else uf
                keep = uf.union(ra, rb)
                gone = rb if keep == ra else ra
                if gone in classes:
                    classes[keep] = join_sorts(classes.get(keep), classes.pop(gone))
        table = SortTable(uf, classes)
        return table, any(kind != is_location(table, r) for r, kind in before)


def _sort_table(uses: list[tuple[str, Sort, str]], merges: list[tuple[str, str]],
                where: str) -> SortTable:
    """The sort table of ``sort_facts``' ``uses`` and ``merges``. A clash
    raises SortError named as a walk in order meets it: the first use
    whose sort clashes with its variable's earlier ones, at that use's
    position, else the class whose members' sorts clash, under its
    representative, at ``where``."""
    try:
        return SortTable().extended(uses, merges)[0]
    except SortError:  # named by the walk below, which meets the same clash
        env: dict[str, Sort] = {}
        for var, sort, at in uses:
            env[var] = join_sorts(env.get(var), sort, at, var)
        classes, joined = UnionFind(), {}
        for a, b in merges:
            classes.union(a, b)
        for v in [v for v in classes.parent if v in env]:
            root = classes.find(v)
            joined[root] = join_sorts(joined.get(root), env[v], where, root)
        raise


def infer_sorts(spec: SpecFile) -> dict[str, tuple[Sort | None, ...]]:
    """Parameter sorts of every predicate. Each predicate's disjuncts are
    read into one sort table, given the parameter sorts found so far, until
    no parameter sort changes. The parameters are shared by all disjuncts;
    the binders of disjunct ``i`` are keyed ``x@i``, which no parsed name
    can be, so that a binder named like a parameter never joins its class.
    ``validate_spec`` keeps the result as the spec's ``param_sorts``."""
    param_sorts: dict[str, tuple[Sort | None, ...]] = {
        name: (None,) * len(p.params) for name, p in spec.preds.items()}
    while True:
        before = dict(param_sorts)
        for name, pred in spec.preds.items():
            uses, merges = [], []
            for i, d in enumerate(pred.body.disjuncts):
                key = {v: f"{v}@{i}" for v in d.exists}.get
                more, equal = sort_facts(d.atoms, d.pure, spec, param_sorts, f"pred {name}[{i}]")
                uses += [(key(v, v), sort, at) for v, sort, at in more]
                merges += [(key(a, a), key(b, b)) for a, b in equal]
            table = _sort_table(uses, merges, f"pred {name}")
            param_sorts[name] = tuple(table.get(p) or old
                                      for p, old in zip(pred.params, param_sorts[name]))
        if param_sorts == before:
            return param_sorts


def heap_sorts(d: SymbolicHeap, spec: SpecFile,
               param_sorts: Mapping[str, tuple[Sort | None, ...]]) -> dict[str, Sort]:
    """Sorts for every variable of one heap, given the predicates'
    parameter sorts (the spec's ``param_sorts``), from one sort table of the
    heap, so they do not depend on the order of atoms or conjuncts.
    Unconstrained variables stay absent; solvers treat them as ints."""
    table = _sort_table(*sort_facts(d.atoms, d.pure, spec, param_sorts), "heap")
    return {v: sort for v in heap_vars(d) if (sort := table.get(v)) is not None}
