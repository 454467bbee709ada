"""Value classes (``slc.value``), and what importing slc costs."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from slc import cli
from slc import concolic as C
from slc import formulas as F
from slc import ir
from slc import lexer
from slc import solver as S
from slc import testgen as T
from slc.value import Value

X = F.Var("x")
TWO = F.Const(2)
ATOM = F.Atom("<=", X, TWO)
HEAP = F.SymbolicHeap(("u",), (F.PointsTo("x", "N", (F.Var("u"), F.NULL)),), (ATOM,))
E = ir.EBin("+", ir.EVar("x"), ir.EConst(1))

# Fields for one instance of every value class.
SAMPLES = {
    F.Null: (),
    F.Const: (2,),
    F.Var: ("x",),
    F.Scale: (3, X),
    F.Add: (X, TWO),
    F.Neg: (X,),
    F.TruePure: (),
    F.Atom: ("<=", X, TWO),
    F.Not: (ATOM,),
    F.And: (ATOM, F.Not(ATOM)),
    F.PointsTo: ("x", "N", (TWO, F.NULL)),
    F.PredInst: ("p", (X, F.NULL)),
    F.SymbolicHeap: (("u",), HEAP.atoms, (ATOM,)),
    F.Formula: ((HEAP,),),
    F.DataDef: ("N", (("v", "int"), ("next", "N"))),
    F.PredDef: ("p", ("x",), F.Formula((HEAP,))),
    ir.EConst: (True,),
    ir.ENull: (),
    ir.EVar: ("x",),
    ir.EField: ("x", "next"),
    ir.EBin: ("+", ir.EVar("x"), ir.EConst(1)),
    ir.EUn: ("-", ir.EVar("x")),
    ir.SAssign: ("x", E),
    ir.SStore: ("x", "v", E),
    ir.SGoto: (ir.EConst(3),),
    ir.SAssert: (E,),
    ir.SCond: (E, ir.EConst(1), ir.EConst(2)),
    ir.SNew: ("x", "N", ("a", "b")),
    ir.SFree: ("x",),
    ir.SCall: (None, "f", (E,)),
    ir.Procedure: ("f", (("x", "int"),), (ir.SFree("x"),)),
    lexer.Token: ("ident", "x", 1, 2),
    S._Lin: ((("x", 1),), -2, "le"),
    T.Addr: (1, "N"),
    C.RunOutcome: ("error", "null-deref", (("f", 2),)),
    C.PCAtom: (ATOM, (("x", "v"),), ("y", "v")),
    C.PathCondition: ((HEAP,), (C.PCAtom(ATOM, (), None),), {"x": "x1"}),
    cli.Benchmark: ("b", "b.sl", "b.ir", "f", 2, 3, 4),
}


def all_value_classes():
    out, work = [], [Value]
    while work:
        cls = work.pop()
        out.extend(cls.__subclasses__())
        work.extend(cls.__subclasses__())
    return out


def test_every_value_class_has_a_sample():
    assert set(all_value_classes()) == set(SAMPLES)


# Both kinds of path atom, each under the id its own class once had: a
# conjunct whose field read is a placeholder, and a field write of a term.
PATH_ATOMS = {
    "slc.concolic.PCExpr": (F.Not(F.Atom("=", F.Var("x.v"), TWO)), (("x", "v"),), None),
    "slc.concolic.PCAssign": (F.Add(X, TWO), (), ("y", "v")),
}

CASES = [pytest.param(cls, fields, id=f"{cls.__module__}.{cls.__name__}")
         for cls, fields in SAMPLES.items()]
CASES += [pytest.param(C.PCAtom, fields, id=name) for name, fields in PATH_ATOMS.items()]


@pytest.mark.parametrize("cls, fields", CASES)
def test_value_semantics(cls, fields):
    a, b = cls(*fields), cls(*copy.deepcopy(fields))
    assert tuple(getattr(a, name) for name in cls.__slots__) == fields
    assert a == b and not a != b
    try:
        expected = hash(fields)
    except TypeError:  # a dict field, as in PathCondition
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected
    assert not hasattr(a, "__dict__")
    for name in cls.__slots__ or ("anything",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert copy.copy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a
    if cls.__slots__ and cls is not F.Const:
        assert cls(*fields[:-1], "changed") != a


def test_values_of_different_classes_are_unequal():
    assert F.Var("x") != ir.EVar("x")
    assert F.TRUE != F.NULL
    assert F.TruePure() == F.TRUE and F.Null() == F.NULL
    assert len({F.Var("x"), ir.EVar("x"), F.Var("x")}) == 2


def test_value_reprs():
    assert repr(F.Var("x")) == "Var(name='x')"
    assert repr(F.NULL) == "Null()"
    assert repr(ATOM) == "Atom(op='<=', left=Var(name='x'), right=Const(value=2))"
    assert repr(T.Addr(3, "N")) == "@N3"


def test_value_checks_still_raise():
    with pytest.raises(ValueError):
        F.Const(2**31)
    with pytest.raises(ValueError):
        F.Atom("<", X, TWO)
    with pytest.raises(ValueError):
        F.Formula(())
    with pytest.raises(TypeError):
        F.Scale(1)


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    src = Path(cli.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import slc.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(src)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
