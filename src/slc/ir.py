"""Core intermediate language: numbered statements over procedures.

A procedure body is a dense table of statements indexed from 0; index m
(one past the last statement) means normal termination. Statements are
assignment, field store, (conditional) goto, assert, allocation, and
deallocation. Expressions are side-effect free: constants, variables,
field loads, binary and unary operators over 32-bit wrapping integers
and booleans.

The surface syntax adds ``call v := p(args)``, which runs in a frame of
its own. ``elaborate`` renames each procedure reachable from the entry
once per call depth (locals of a callee at depth k become ``x@k``);
past a configurable depth a call becomes ``assert false``, marking those
paths out of bound. A procedure returns a value by assigning the
distinguished variable ``ret``. A program counter names the active call
sites; goto targets are local to their procedure, so a computed goto may
sit in a procedure that calls.

Programs need not be in single-assignment form: the executor's
substitution rule for assignment handles reassignment soundly, within a
frame and across calls alike.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Sequence, Union

from .formulas import INT32_MAX, INT32_MIN, DataDef, _parse_data, register_name
from .lexer import TokenStream
from .value import Value, setfield


def wrap32(value: int) -> int:
    return (value - INT32_MIN) % (2**32) + INT32_MIN


# =====================================================================
# Expressions
# =====================================================================


class EConst(Value):
    __slots__ = ("value",)  # an int or a bool


class ENull(Value):
    __slots__ = ()


class EVar(Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        setfield(self, "name", name)


class EField(Value):
    __slots__ = ("var", "fieldname")


class EBin(Value):
    __slots__ = ("op", "left", "right")  # op: + - * = != < <= > >= & |

    def __init__(self, op: str, left: Expr, right: Expr):
        setfield(self, "op", op)
        setfield(self, "left", left)
        setfield(self, "right", right)


class EUn(Value):
    __slots__ = ("op", "operand")  # op: ! or -


Expr = Union[EConst, ENull, EVar, EField, EBin, EUn]

_ARITH = ("+", "-", "*")
_CMP = ("=", "!=", "<", "<=", ">", ">=")
_LOGIC = ("&", "|")


def rename_expr(e: Expr, rename: Callable[[str], str]) -> Expr:
    if isinstance(e, EVar):
        return EVar(rename(e.name))
    if isinstance(e, EField):
        return EField(rename(e.var), e.fieldname)
    if isinstance(e, EBin):
        return EBin(e.op, rename_expr(e.left, rename), rename_expr(e.right, rename))
    if isinstance(e, EUn):
        return EUn(e.op, rename_expr(e.operand, rename))
    return e


def print_expr(e: Expr) -> str:
    return _print_expr(e, 0)


_PREC = {"|": 1, "&": 2, "=": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
         "+": 4, "-": 4, "*": 5}


def _print_expr(e: Expr, parent: int) -> str:
    if isinstance(e, EConst):
        return str(e.value).lower() if isinstance(e.value, bool) else str(e.value)
    if isinstance(e, ENull):
        return "null"
    if isinstance(e, EVar):
        return e.name
    if isinstance(e, EField):
        return f"{e.var}.{e.fieldname}"
    if isinstance(e, EUn):
        return f"{e.op}{_print_expr(e.operand, 6)}"
    prec = _PREC[e.op]
    text = f"{_print_expr(e.left, prec)} {e.op} {_print_expr(e.right, prec + 1)}"
    return f"({text})" if prec < parent else text


# =====================================================================
# Statements and procedures
# =====================================================================


class SAssign(Value):
    __slots__ = ("var", "expr")


class SStore(Value):
    __slots__ = ("var", "fieldname", "expr")


class SGoto(Value):
    __slots__ = ("target",)


class SAssert(Value):
    __slots__ = ("expr",)


class SCond(Value):
    __slots__ = ("cond", "then_target", "else_target")


class SNew(Value):
    __slots__ = ("var", "type_name", "args")  # args: one variable per field


class SFree(Value):
    __slots__ = ("var",)


class SCall(Value):
    __slots__ = ("result", "proc", "args")  # result: a variable or None


Statement = Union[SAssign, SStore, SGoto, SAssert, SCond, SNew, SFree, SCall]


class Procedure(Value):
    __slots__ = ("name", "params", "stmts")  # params: (name, type) pairs


class Program:
    def __init__(self, datas: dict[str, DataDef]):
        self.datas = datas
        self.procs: dict[str, Procedure] = {}


PC = tuple[tuple[str, int], ...]


def local_name(name: str, level: int) -> str:
    return f"{name}@{level}" if level else name


def pc_label(pc: PC) -> str:
    return "/".join(f"{name}:{i}" for name, i in pc)


class ElabProgram:
    """An entry procedure with the procedures it reaches, ready to run.

    ``procs[name][level]`` is the body of ``name`` as a callee at call
    depth ``level``, locals renamed by ``local_name``; the entry runs at
    level 0. Dict order is the order of first call, for coverage tables.

    A pc is a tuple of ``(procedure, statement index)`` frames, outermost
    first; every frame but the innermost sits at a call. A call steps
    through one parameter copy per argument (indices -n..-1 of the
    callee's frame), the callee body, and, when it has a result, the
    result copy (the callee's end index). ``frame_locals[level]`` names
    every local of every body at ``level``; a new frame starts without them.
    """

    def __init__(self, entry: str, params: tuple[tuple[str, str], ...],
                 procs: dict[str, dict[int, tuple[Statement, ...]]],
                 source: Program, frame_locals: dict[int, set[str]]):
        self.entry, self.params, self.procs = entry, params, procs
        self.source, self.frame_locals = source, frame_locals

    @property
    def stmts(self) -> tuple[Statement, ...]:
        return self.procs[self.entry][0]

    @property
    def start(self) -> PC:
        return self._enter(((self.entry, 0),))

    def _body(self, pc: PC) -> tuple[Statement, ...]:
        return self.procs[pc[-1][0]][len(pc) - 1]

    def statement(self, pc: PC) -> Statement | None:
        """The statement at ``pc``; None once the entry has finished."""
        name, i = pc[-1]
        body = self._body(pc)
        if 0 <= i < len(body):
            return body[i]
        if len(pc) == 1:
            return None
        call = self.statement(pc[:-1])
        level = len(pc) - 1
        if i < 0:  # parameter and argument lists align from the end too
            param = self.source.procs[name].params[i][0]
            return SAssign(local_name(param, level), call.args[i])
        return SAssign(call.result, EVar(local_name("ret", level)))

    def next(self, pc: PC) -> PC:
        """The pc after the statement at ``pc`` completes without a jump."""
        name, i = pc[-1]
        if i == len(self._body(pc)):  # the result copy returns to the caller
            return self.next(pc[:-1])
        return self._enter(pc[:-1] + ((name, i + 1),))

    def jump(self, pc: PC, target: object) -> PC | None:
        """The pc after ``goto target`` at ``pc``; None when the target is
        not a statement index of the innermost procedure or its end."""
        if type(target) is not int or not 0 <= target <= len(self._body(pc)):
            return None
        return self._enter(pc[:-1] + ((pc[-1][0], target),))

    def entered(self, old: PC, new: PC) -> int:
        """The depth of the outermost frame of ``new`` that a call began
        after ``old``; ``len(new)`` when all of them were active at ``old``."""
        k = 1
        while k < min(len(old), len(new)) and old[k - 1] == new[k - 1]:
            k += 1
        return k

    def _enter(self, pc: PC) -> PC:
        """Enter the call at ``pc``, or leave a callee that has ended with
        no result to copy; neither is a step of its own."""
        name, i = pc[-1]
        body = self._body(pc)
        if 0 <= i < len(body) and isinstance(body[i], SCall):
            return self._enter(pc + ((body[i].proc, -len(body[i].args)),))
        if i == len(body) and len(pc) > 1 and self.statement(pc[:-1]).result is None:
            return self.next(pc[:-1])
        return pc


def print_statement(st: Statement) -> str:
    if isinstance(st, SAssign):
        return f"{st.var} := {print_expr(st.expr)}"
    if isinstance(st, SStore):
        return f"{st.var}.{st.fieldname} := {print_expr(st.expr)}"
    if isinstance(st, SGoto):
        return f"goto {print_expr(st.target)}"
    if isinstance(st, SAssert):
        return f"assert {print_expr(st.expr)}"
    if isinstance(st, SCond):
        return (f"if {print_expr(st.cond)} then goto {print_expr(st.then_target)} "
                f"else goto {print_expr(st.else_target)}")
    if isinstance(st, SNew):
        return f"{st.var} := new {st.type_name}({', '.join(st.args)})"
    if isinstance(st, SFree):
        return f"free {st.var}"
    return (f"call {st.result + ' := ' if st.result else ''}{st.proc}"
            f"({', '.join(print_expr(a) for a in st.args)})")


def print_program(program: Program) -> str:
    lines: list[str] = []
    for data in program.datas.values():
        lines.append(f"data {data.name} {{")
        for fname, ftype in data.fields:
            lines.append(f"  {ftype} {fname};")
        lines.append("}")
        lines.append("")
    for proc in program.procs.values():
        params = ", ".join(f"{n}: {t}" for n, t in proc.params)
        lines.append(f"proc {proc.name}({params}) {{")
        for i, st in enumerate(proc.stmts):
            lines.append(f"  {i}: {print_statement(st)}")
        lines.append("}")
        lines.append("")
    return "\n".join(lines)


# =====================================================================
# Parsing
# =====================================================================


def _parse_expr(ts: TokenStream) -> Expr:
    return _parse_or(ts)


def _parse_or(ts: TokenStream) -> Expr:
    left = _parse_and(ts)
    while ts.at("|"):
        ts.next()
        left = EBin("|", left, _parse_and(ts))
    return left


def _parse_and(ts: TokenStream) -> Expr:
    left = _parse_cmp(ts)
    while ts.at("&"):
        ts.next()
        left = EBin("&", left, _parse_cmp(ts))
    return left


def _parse_cmp(ts: TokenStream) -> Expr:
    left = _parse_add(ts)
    if ts.peek().text in _CMP and ts.peek().kind == "sym":
        op = ts.next().text
        return EBin(op, left, _parse_add(ts))
    return left


def _parse_add(ts: TokenStream) -> Expr:
    left = _parse_mul(ts)
    while ts.at("+") or ts.at("-"):
        op = ts.next().text
        left = EBin(op, left, _parse_mul(ts))
    return left


def _parse_mul(ts: TokenStream) -> Expr:
    left = _parse_unary(ts)
    while ts.at("*"):
        ts.next()
        left = EBin("*", left, _parse_unary(ts))
    return left


def _parse_unary(ts: TokenStream) -> Expr:
    if ts.accept("!"):
        return EUn("!", _parse_unary(ts))
    if ts.accept("-"):
        return EUn("-", _parse_unary(ts))
    return _parse_primary(ts)


def _parse_primary(ts: TokenStream) -> Expr:
    if ts.at_kind("int"):
        value = ts.expect_int()
        if not (INT32_MIN <= value <= INT32_MAX):
            raise ts.error(f"constant {value} outside 32-bit range")
        return EConst(value)
    if ts.accept("("):
        e = _parse_expr(ts)
        ts.expect(")")
        return e
    tok = ts.expect_ident("expression")
    if tok.text == "null":
        return ENull()
    if tok.text == "true":
        return EConst(True)
    if tok.text == "false":
        return EConst(False)
    register_name(tok.text)
    if ts.accept("."):
        fld = ts.expect_ident("field name")
        return EField(tok.text, fld.text)
    return EVar(tok.text)


def _parse_statement(ts: TokenStream) -> Statement:
    if ts.accept("goto"):
        return SGoto(_parse_expr(ts))
    if ts.accept("assert"):
        return SAssert(_parse_expr(ts))
    if ts.accept("free"):
        return SFree(ts.expect_ident("variable").text)
    if ts.accept("if"):
        cond = _parse_expr(ts)
        ts.expect("then")
        ts.expect("goto")
        then_target = _parse_expr(ts)
        ts.expect("else")
        ts.expect("goto")
        else_target = _parse_expr(ts)
        return SCond(cond, then_target, else_target)
    if ts.accept("call"):
        first = ts.expect_ident("procedure or result variable").text
        result = None
        name = first
        if ts.accept(":="):
            result = first
            register_name(result)
            name = ts.expect_ident("procedure name").text
        ts.expect("(")
        args: list[Expr] = []
        if not ts.at(")"):
            args.append(_parse_expr(ts))
            while ts.accept(","):
                args.append(_parse_expr(ts))
        ts.expect(")")
        return SCall(result, name, tuple(args))
    var = ts.expect_ident("variable").text
    register_name(var)
    if ts.accept("."):
        fld = ts.expect_ident("field name").text
        ts.expect(":=")
        return SStore(var, fld, _parse_expr(ts))
    ts.expect(":=")
    if ts.at("new"):
        ts.next()
        type_name = ts.expect_ident("record type").text
        ts.expect("(")
        args = []
        if not ts.at(")"):
            args.append(ts.expect_ident("argument variable").text)
            while ts.accept(","):
                args.append(ts.expect_ident("argument variable").text)
        ts.expect(")")
        return SNew(var, type_name, tuple(args))
    return SAssign(var, _parse_expr(ts))


def parse_program(text: str, datas: Mapping[str, DataDef] | None = None) -> Program:
    """Parse and validate an ``.ir`` file. Record types may come from the
    file itself or be supplied (typically from the companion ``.sl``)."""
    ts = TokenStream(text)
    program = Program(dict(datas or {}))
    while not ts.at_kind("eof"):
        if ts.at("data"):
            data = _parse_data(ts)
            if program.datas.get(data.name, data) != data:
                raise ts.error(f"conflicting definition of data {data.name!r}")
            program.datas[data.name] = data
        elif ts.at("proc"):
            ts.next()
            name = ts.expect_ident("procedure name").text
            ts.expect("(")
            params: list[tuple[str, str]] = []
            if not ts.at(")"):
                while True:
                    pname = ts.expect_ident("parameter name").text
                    ts.expect(":")
                    ptype = ts.expect_ident("parameter type").text
                    register_name(pname)
                    params.append((pname, ptype))
                    if not ts.accept(","):
                        break
            ts.expect(")")
            ts.expect("{")
            stmts: list[Statement] = []
            while not ts.at("}"):
                idx = ts.expect_int()
                ts.expect(":")
                if idx != len(stmts):
                    raise ts.error(f"statement index {idx} out of order "
                                   f"(expected {len(stmts)})")
                stmts.append(_parse_statement(ts))
            ts.expect("}")
            if name in program.procs:
                raise ts.error(f"duplicate procedure {name!r}")
            program.procs[name] = Procedure(name, tuple(params), tuple(stmts))
        else:
            raise ts.error(f"expected data or proc, found {ts.peek().text!r}")
    validate_program(program)
    return program


# =====================================================================
# Validation and typing
# =====================================================================


class ProgramError(Exception):
    pass


def _join(a: str | None, b: str | None, where: str) -> str | None:
    if a is None:
        return b
    if b is None or a == b:
        return a
    if a == "nullref" and b not in ("int", "bool"):
        return b
    if b == "nullref" and a not in ("int", "bool"):
        return a
    raise ProgramError(f"{where}: type mismatch ({a} vs {b})")


def _expr_type(e: Expr, env: dict[str, str | None], program: Program,
               where: str) -> str | None:
    if isinstance(e, EConst):
        return "bool" if isinstance(e.value, bool) else "int"
    if isinstance(e, ENull):
        return "nullref"
    if isinstance(e, EVar):
        return env.get(e.name)
    if isinstance(e, EField):
        base = env.get(e.var)
        if base is None or base == "nullref":
            return None
        data = program.datas.get(base)
        if data is None:
            raise ProgramError(f"{where}: {e.var} has non-record type {base}")
        try:
            return data.field_type(e.fieldname)
        except KeyError:
            raise ProgramError(f"{where}: unknown field {base}.{e.fieldname}") from None
    if isinstance(e, EUn):
        inner = _expr_type(e.operand, env, program, where)
        want = "bool" if e.op == "!" else "int"
        if inner is not None and inner != want:
            raise ProgramError(f"{where}: operator {e.op} needs {want}, got {inner}")
        return want
    left = _expr_type(e.left, env, program, where)
    right = _expr_type(e.right, env, program, where)
    if e.op in _ARITH or e.op in ("<", "<=", ">", ">="):
        for t in (left, right):
            if t is not None and t != "int":
                raise ProgramError(f"{where}: operator {e.op} needs int, got {t}")
        return "int" if e.op in _ARITH else "bool"
    if e.op in ("&", "|"):
        for t in (left, right):
            if t is not None and t != "bool":
                raise ProgramError(f"{where}: operator {e.op} needs bool, got {t}")
        return "bool"
    # = and != : operands of one type (references compare with null)
    _join(left, right, where)
    return "bool"


def _check_const_target(e: Expr, end: int, where: str) -> None:
    if isinstance(e, EConst):
        if not isinstance(e.value, int) or isinstance(e.value, bool) \
                or not (0 <= e.value <= end):
            raise ProgramError(f"{where}: goto target {e.value} outside [0, {end}]")


def validate_program(program: Program) -> None:
    for data in program.datas.values():
        for fname, ftype in data.fields:
            if ftype not in ("int", "bool") and ftype not in program.datas:
                raise ProgramError(f"data {data.name}: unknown field type {ftype!r}")
    assigns_ret = {
        proc.name for proc in program.procs.values()
        if any((isinstance(st, (SAssign, SNew)) and st.var == "ret")
               or (isinstance(st, SCall) and st.result == "ret")
               for st in proc.stmts)
    }
    ret_types: dict[str, str | None] = {name: None for name in program.procs}
    for _ in range(len(program.procs) + 2):
        changed = False
        for proc in program.procs.values():
            env = _type_proc(proc, program, ret_types, assigns_ret)
            new_ret = env.get("ret")
            if new_ret is not None and ret_types[proc.name] != new_ret:
                ret_types[proc.name] = _join(ret_types[proc.name], new_ret,
                                             f"proc {proc.name} result")
                changed = True
        if not changed:
            break
    # Final strict pass: unresolved expression types are rejected.
    for proc in program.procs.values():
        _type_proc(proc, program, ret_types, assigns_ret, strict=True)


def _type_proc(proc: Procedure, program: Program,
               ret_types: dict[str, str | None],
               assigns_ret: set[str] | None = None,
               strict: bool = False) -> dict[str, str | None]:
    env: dict[str, str | None] = {}
    for pname, ptype in proc.params:
        if ptype not in ("int", "bool") and ptype not in program.datas:
            raise ProgramError(f"proc {proc.name}: unknown parameter type {ptype!r}")
        env[pname] = ptype
    end = len(proc.stmts)
    for _ in range(len(proc.stmts) + 2):
        changed = False
        for i, st in enumerate(proc.stmts):
            where = f"proc {proc.name}:{i}"
            if isinstance(st, SAssign):
                t = _expr_type(st.expr, env, program, where)
                joined = _join(env.get(st.var), t, where)
                if joined != env.get(st.var):
                    env[st.var] = joined
                    changed = True
            elif isinstance(st, SNew):
                data = program.datas.get(st.type_name)
                if data is None:
                    raise ProgramError(f"{where}: unknown record type {st.type_name!r}")
                if len(st.args) != len(data.fields):
                    raise ProgramError(f"{where}: new {st.type_name} expects "
                                       f"{len(data.fields)} arguments, got {len(st.args)}")
                for arg, (fname, ftype) in zip(st.args, data.fields):
                    joined = _join(env.get(arg), ftype, f"{where} ({fname})")
                    if joined != env.get(arg):
                        env[arg] = joined
                        changed = True
                if env.get(st.var) != st.type_name:
                    env[st.var] = _join(env.get(st.var), st.type_name, where)
                    changed = True
            elif isinstance(st, SCall):
                callee = program.procs.get(st.proc)
                if callee is None:
                    raise ProgramError(f"{where}: unknown procedure {st.proc!r}")
                if len(st.args) != len(callee.params):
                    raise ProgramError(f"{where}: {st.proc} expects "
                                       f"{len(callee.params)} arguments, got {len(st.args)}")
                for arg, (_, ptype) in zip(st.args, callee.params):
                    t = _expr_type(arg, env, program, where)
                    _join(t, ptype, where)
                if st.result is not None:
                    rt = ret_types.get(st.proc)
                    if rt is None and strict and st.proc not in (assigns_ret or ()):
                        raise ProgramError(f"{where}: {st.proc} returns no value "
                                           f"(never assigns ret)")
                    if rt is not None:
                        joined = _join(env.get(st.result), rt, where)
                        if joined != env.get(st.result):
                            env[st.result] = joined
                            changed = True
        if not changed:
            break
    for i, st in enumerate(proc.stmts):
        where = f"proc {proc.name}:{i}"
        if isinstance(st, (SAssign,)):
            _expr_type(st.expr, env, program, where)
        elif isinstance(st, SStore):
            base = env.get(st.var)
            if base is None or base == "nullref":
                continue  # untypeable base: the runtime null/dangling checks apply
            data = program.datas.get(base)
            if data is None:
                raise ProgramError(f"{where}: store into non-record {st.var}:{base}")
            try:
                ftype = data.field_type(st.fieldname)
            except KeyError:
                raise ProgramError(f"{where}: unknown field {base}.{st.fieldname}") from None
            _join(_expr_type(st.expr, env, program, where), ftype, where)
        elif isinstance(st, SFree):
            base = env.get(st.var)
            if base in ("int", "bool"):
                raise ProgramError(f"{where}: free of scalar {st.var}")
        elif isinstance(st, SGoto):
            t = _expr_type(st.target, env, program, where)
            if t not in (None, "int"):
                raise ProgramError(f"{where}: goto target must be int, got {t}")
            _check_const_target(st.target, end, where)
        elif isinstance(st, SAssert):
            t = _expr_type(st.expr, env, program, where)
            if t not in (None, "bool"):
                raise ProgramError(f"{where}: assert needs bool, got {t}")
        elif isinstance(st, SCond):
            t = _expr_type(st.cond, env, program, where)
            if t not in (None, "bool"):
                raise ProgramError(f"{where}: condition must be bool, got {t}")
            for target in (st.then_target, st.else_target):
                tt = _expr_type(target, env, program, where)
                if tt not in (None, "int"):
                    raise ProgramError(f"{where}: goto target must be int, got {tt}")
                _check_const_target(target, end, where)
    return env


# =====================================================================
# Call frames
# =====================================================================


def elaborate(program: Program, entry: str, inline_depth: int = 8) -> ElabProgram:
    """Rename ``entry`` and each procedure it reaches once per call depth.

    The entry keeps its own variable names so path conditions read
    naturally; a callee at depth k gets ``x@k`` for each local ``x``. All
    these names are registered, so a fresh name never captures one. A call
    with no depth left becomes ``assert false``: the path is out of bound.
    """
    if entry not in program.procs:
        raise ProgramError(f"unknown entry procedure {entry!r}")
    procs: dict[str, dict[int, tuple[Statement, ...]]] = {}
    frame_locals: dict[int, set[str]] = {}

    def visit(name: str, level: int) -> None:
        if level in procs.setdefault(name, {}):
            return
        proc = program.procs[name]

        def local(v: str) -> str:
            v = local_name(v, level)
            register_name(v)
            frame_locals.setdefault(level, set()).add(v)
            return v

        def expr(e: Expr) -> Expr:
            return rename_expr(e, local)

        for v in [p for p, _ in proc.params] + ["ret"]:
            local(v)
        body: list[Statement] = []
        for st in proc.stmts:
            if isinstance(st, SAssign):
                st = SAssign(local(st.var), expr(st.expr))
            elif isinstance(st, SStore):
                st = SStore(local(st.var), st.fieldname, expr(st.expr))
            elif isinstance(st, SNew):
                st = SNew(local(st.var), st.type_name, tuple(map(local, st.args)))
            elif isinstance(st, SFree):
                st = SFree(local(st.var))
            elif isinstance(st, SGoto):
                st = SGoto(expr(st.target))
            elif isinstance(st, SAssert):
                st = SAssert(expr(st.expr))
            elif isinstance(st, SCond):
                st = SCond(expr(st.cond), expr(st.then_target), expr(st.else_target))
            elif level >= inline_depth:
                st = SAssert(EConst(False))
            else:
                st = SCall(st.result and local(st.result), st.proc,
                           tuple(map(expr, st.args)))
                visit(st.proc, level + 1)
            body.append(st)
        procs[name][level] = tuple(body)

    visit(entry, 0)
    return ElabProgram(entry, program.procs[entry].params, procs, program, frame_locals)


def source_conditionals(program: Program, procs: Sequence[str]) -> Iterator[tuple[str, int]]:
    """Conditional statements of the named source procedures, in order."""
    for name in procs:
        proc = program.procs[name]
        for i, st in enumerate(proc.stmts):
            if isinstance(st, SCond):
                yield name, i
