"""The benchmark's tracer (bench/tracer.py) installs on the package.

It replaces public functions by name in the modules their callers look
them up in; a name it patches that the package no longer has fails here.
"""

import sys
from pathlib import Path

from slc import concolic, solver

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    names = [(solver, "sat"), (solver, "model_check"), (solver, "unfold_at"),
             (concolic, "unfold_at"), (concolic, "preprocess")]
    before = [getattr(owner, name) for owner, name in names]
    installed = tracer.install(tracer.Tracer())
    try:
        assert all(getattr(owner, name) is not was
                   for (owner, name), was in zip(names, before))
    finally:
        installed.uninstall()
    assert [getattr(owner, name) for owner, name in names] == before
    # Read only when preprocess raises.
    assert issubclass(concolic.Unresolvable, Exception)
