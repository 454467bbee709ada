"""Spans around calls into slc's public functions, installed from outside.

A span covers one call of a patched function. Its *self time* is its
duration minus the durations of the spans it directly encloses, so the
self times of all spans add up to the time covered by the outermost ones.
Counters are recorded at the same boundaries, from the values the calls
return. Nothing under ``src/`` changes: functions are replaced in the
module namespaces their callers look them up in, and ``uninstall``
restores them.

Private helpers (``_try_base``, ``_pure_contradictory``, ``_write_atomic``)
are not wrapped; their time stays in the public function that calls them.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # One [name, time covered by direct children] per open span.
        self.stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def enclosing(self, *names: str) -> str | None:
        """The innermost open span among ``names``, if any."""
        for name, _ in reversed(self.stack):
            if name in names:
                return name
        return None

    def span(self, owner, attr: str, name: str, *, after=None, error=None,
             reentrant: bool = False) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``.

        ``after(result, args, kwargs)`` and ``error(exc)`` record counters.
        With ``reentrant``, a call made while a span of the same name is
        open is not a span of its own (a recursive function counts once).
        """
        fn = getattr(owner, attr)
        stack, self_s, clock = self.stack, self.self_s, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if reentrant and any(frame[0] == name for frame in stack):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error is not None:
                    error(exc)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(result, args, kwargs)
            return result

        self._patch(owner, attr, traced)

    def count(self, owner, attr: str, on_call) -> None:
        """Replace ``owner.attr`` by a wrapper that only calls ``on_call()``.

        For functions called too often for a span to be cheap."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            on_call()
            return fn(*args, **kwargs)

        self._patch(owner, attr, counted)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Tracer:
    """Wrap every public entry point the benchmark's workloads reach."""
    from slc import cli, concolic, formulas, ir, solver, testgen

    counts = tracer.counts

    def add(key: str, n: int = 1) -> None:
        counts[key] += n

    def after_sat(result, args, kwargs) -> None:
        phase = {"testgen.gen_from_spec": "gen", "concolic.explore": "concolic"}
        caller = tracer.enclosing(*phase)
        add(f"solver.sat_calls.{phase.get(caller, 'direct')}")
        add(f"solver.decisions.{result.decision}")
        add("solver.pure_nodes", result.stats.pure_nodes)
        add("solver.unfold_rounds", result.stats.rounds)

    def after_preprocess(result, args, kwargs) -> None:
        add("concolic.preprocess_calls")
        add("concolic.preprocess_heaps", len(result))

    def preprocess_error(exc) -> None:
        if isinstance(exc, concolic.Unresolvable):
            add("concolic.preprocess_calls")
            add("concolic.unresolvable")

    def after_explore(result, args, kwargs) -> None:
        add("concolic.tree_nodes", len(result.tree.nodes))
        add("concolic.nodes_pruned", result.stats.pruned)
        add("concolic.nodes_unresolved", result.stats.unresolved)

    def oracle_store() -> None:
        if tracer.stack and tracer.stack[-1][0] == "testgen.oracle_sat":
            counts["testgen.oracle_stores"] += 1

    tracer.span(cli, "run_pipeline", "cli.run_pipeline")
    for attr in ("suite_json_payload", "coverage_json_payload",
                 "render_coverage_text"):
        tracer.span(cli, attr, "cli.artifacts")
    tracer.span(concolic.ConstraintTree, "to_dot", "cli.artifacts")
    tracer.span(formulas, "parse_spec", "formulas.parse_spec")
    tracer.span(ir, "parse_program", "ir.parse_program")
    tracer.span(ir, "elaborate", "ir.elaborate",
                after=lambda r, a, k: add("ir.elab_stmts", len(r.stmts)))
    tracer.span(testgen, "gen_from_spec", "testgen.gen_from_spec",
                reentrant=True)
    # unfold_round and unfold_at are looked up in the namespaces that
    # imported them by name; calls inside the unfold module stay in the
    # calling span's self time.
    tracer.span(testgen, "unfold_round", "unfold.unfold_round")
    for owner in (solver, concolic):
        tracer.span(owner, "unfold_at", "unfold.unfold_at",
                    after=lambda r, a, k: add("unfold.unfold_at_calls"))
    tracer.span(testgen, "to_unit_test", "testgen.to_unit_test")
    tracer.span(testgen, "input_satisfies", "testgen.input_satisfies")
    tracer.span(concolic, "explore", "concolic.explore", after=after_explore)
    tracer.span(concolic, "run_test", "concolic.run_test",
                after=lambda r, a, k: add("concolic.runs"))
    tracer.span(concolic, "preprocess", "concolic.preprocess",
                after=after_preprocess, error=preprocess_error)
    tracer.span(solver, "sat", "solver.sat", after=after_sat)
    tracer.span(solver, "model_check", "solver.model_check")
    tracer.span(testgen, "oracle_sat", "testgen.oracle_sat",
                after=lambda r, a, k: add("testgen.oracle_queries"))
    tracer.count(testgen, "heap_satisfies", oracle_store)
    return tracer
