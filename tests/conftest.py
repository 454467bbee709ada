import random

import pytest

from slc import formulas as F
from slc.cli import corpus_path
from slc.testgen import TestInput


@pytest.fixture(autouse=True)
def fresh_names():
    F.reset_names()
    yield


@pytest.fixture
def bst_spec():
    return F.parse_spec(corpus_path("bst.sl").read_text())


@pytest.fixture
def bst_pre(bst_spec):
    return bst_spec.preconditions["remove"]


def _random_baseline(entry_params, count, int_min=-64, int_max=63, seed=0):
    """Reference-typed parameters stay null; scalars are drawn uniformly.
    The weak baseline spec-driven generation is compared against."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        bindings = {}
        for name, ptype in entry_params:
            if ptype == "int":
                bindings[name] = rng.randint(int_min, int_max)
            elif ptype == "bool":
                bindings[name] = rng.random() < 0.5
            else:
                bindings[name] = None
        out.append(TestInput({}, bindings, provenance=f"baseline:{i}"))
    return out


@pytest.fixture
def random_baseline():
    """The random-scalar baseline generator: (entry parameters, count,
    int_min, int_max, seed) -> that many TestInputs."""
    return _random_baseline


CORPUS_DATAS = {
    name: data
    for subject in ("sll", "dll", "stack", "bst", "tll", "sortedlist")
    for name, data in F.parse_spec(corpus_path(f"{subject}.sl").read_text()).datas.items()
}

# Data blocks a program may add: a record over corpus types, one with an
# unknown field type, and a corpus type redefined.
_EXTRA_DATAS = ["data Pair { int key; SNode rest; }", "data Box { int v; Thing t; }",
                "data SNode { int element; }"]


class _ProgramGen:
    """One random program: 1-3 procedures that may call each other and
    themselves, over one or two corpus record types, int and bool. Each
    local and each result has an intended type; a statement keeps to it
    unless it draws noise (probability ``noise``), so some programs type
    and the rest fail in every way the checker reports."""

    def __init__(self, rng, noise):
        self.rng, self.noise = rng, noise
        self.records = rng.sample(sorted(CORPUS_DATAS), rng.randint(1, 2))
        self.types = ["int", "bool"] + self.records
        self.procs = {}  # name -> (params, intended result type or None)
        for name in ["f", "g", "h"][:rng.randint(1, 3)]:
            params = [(p, self.pick_type()) for p in ["x", "y", "z"][:rng.randint(0, 3)]]
            if rng.random() < 0.03:
                params.append(("w", "Thing"))
            self.procs[name] = (params, rng.choice([None] + self.types))

    def pick_type(self):
        return self.rng.choice(self.types)

    def noisy(self):
        return self.rng.random() < self.noise

    def expr(self, ty, env, depth=2):
        rng = self.rng
        if self.noisy():
            ty = self.pick_type()
        named = [v for v, t in env.items() if t == ty]
        choice = rng.randrange(5 if depth else 2)
        if choice == 0 and named:
            return rng.choice(named)
        if choice in (0, 1):
            return {"int": str(rng.randint(-3, 9)), "bool": rng.choice(["true", "false"])
                    }.get(ty, "null")
        if choice == 2 and self.noisy():
            return f"{rng.choice(list(env))}.{rng.choice(['element', 'next', 'nope'])}"
        fields = [f"{v}.{f}" for v, t in env.items() if t in CORPUS_DATAS
                  for f, ft in CORPUS_DATAS[t].fields if ft == ty]
        if choice == 2 and fields:
            return rng.choice(fields)
        sub = depth - 1
        if ty == "int":
            if rng.random() < 0.2:
                return f"-{self.expr('int', env, sub)}"
            left = self.expr("int", env, sub)
            return f"({left} {rng.choice('+-*')} {self.expr('int', env, sub)})"
        if ty == "bool":
            k = rng.randrange(4)
            if k == 0:
                return f"!{self.expr('bool', env, sub)}"
            if k == 1:
                left = self.expr("bool", env, sub)
                return f"({left} {rng.choice('&|')} {self.expr('bool', env, sub)})"
            if k == 2:
                op = rng.choice(["<", "<=", ">", ">=", "=", "!="])
                return f"({self.expr('int', env, sub)} {op} {self.expr('int', env, sub)})"
            other = rng.choice(self.types)
            left = self.expr(other, env, sub)
            return f"({left} {rng.choice(['=', '!='])} {self.expr(other, env, sub)})"
        return "null"

    def var(self, env, ty):
        named = [v for v, t in env.items() if t == ty and v != "ret"]
        return self.rng.choice(named if named and not self.noisy() else list(env))

    def target(self, m):
        rng = self.rng
        if not self.noisy():
            return str(rng.randint(0, m))
        return rng.choice([str(m + rng.randint(1, 3)), "true", "x", "(1 + 1)"])

    def statement(self, env, m):
        rng = self.rng
        kind = rng.choice(["assign", "assign", "store", "goto", "assert", "cond", "new",
                           "free", "call", "call"])
        if kind == "assign":
            v = rng.choice(list(env))
            return f"{v} := {self.expr(env[v], env)}"
        refs = [v for v, t in env.items() if t in CORPUS_DATAS] or list(env)
        if kind == "store":
            v = rng.choice(refs)
            f, ft = rng.choice(CORPUS_DATAS[env[v]].fields if env[v] in CORPUS_DATAS
                               else [("element", "int")])
            return f"{v}.{f if not self.noisy() else 'nope'} := {self.expr(ft, env)}"
        if kind == "goto":
            return f"goto {self.target(m)}"
        if kind == "assert":
            return f"assert {self.expr('bool', env)}"
        if kind == "cond":
            cond = self.expr("bool", env)
            return f"if {cond} then goto {self.target(m)} else goto {self.target(m)}"
        if kind == "new":
            v = rng.choice(refs)
            rec = env[v] if env[v] in CORPUS_DATAS and not self.noisy() else \
                rng.choice(self.records + ["Thing"])
            fields = CORPUS_DATAS[rec].fields if rec in CORPUS_DATAS else [("a", "int")]
            args = [self.var(env, ft) for _, ft in fields]
            if self.noisy():
                args = args[1:]
            return f"{v} := new {rec}({', '.join(args)})"
        if kind == "free":
            return f"free {rng.choice(refs) if not self.noisy() else rng.choice(list(env))}"
        callee = rng.choice(list(self.procs))
        cparams, cresult = self.procs[callee]
        args = [self.expr(t, env, 1) for _, t in cparams]
        if self.noisy():
            args, callee = rng.choice([(args + ["1"], callee), (args, "nowhere")])
        call = f"{callee}({', '.join(args)})"
        if cresult is None and not self.noisy():
            return f"call {call}"
        return f"call {self.var(env, cresult)} := {call}"

    def program(self):
        rng, lines = self.rng, []
        if rng.random() < 0.05:
            lines.append(rng.choice(_EXTRA_DATAS))
        for name, (params, result) in self.procs.items():
            env = dict(params)
            for local in ["a", "b", "c"][:rng.randint(1, 3)]:
                env[local] = self.pick_type()
            if result is not None:
                env["ret"] = result
            m = rng.randint(1, 6)
            body = [f"{i}: {self.statement(env, m)}" for i in range(m)]
            if result is not None and rng.random() < 0.8:
                body[-1] = f"{m - 1}: ret := {self.expr(result, env)}"
            lines.append(f"proc {name}({', '.join(f'{p}: {t}' for p, t in params)}) {{\n  "
                         + "\n  ".join(body) + "\n}")
        return "\n".join(lines) + "\n"


def _random_programs(count, seed=0, noise=0.04):
    rng = random.Random(seed)
    return [_ProgramGen(rng, noise).program() for _ in range(count)]


@pytest.fixture
def random_programs():
    """The random program generator: (count, seed, noise) -> that many
    ``.ir`` texts over the record types of ``corpus_datas``."""
    return _random_programs


@pytest.fixture
def corpus_datas():
    """The record types of the six gated subjects' specifications."""
    return CORPUS_DATAS
