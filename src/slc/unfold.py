"""Predicate unfolding.

Unfolding replaces one inductive predicate instance by its definition body
with the actual arguments substituted for the parameters, yielding one
symbolic heap per disjunct of the definition. Unfolding a whole heap takes
the union over its instances; a base heap (no instances) passes through
unchanged. Every output heap entails its input, so models found below are
models of the original formula.
"""

from __future__ import annotations

from .formulas import (
    PredInst,
    SpecFile,
    SymbolicHeap,
    Var,
    dedup_heaps,
    fresh_var,
    subst_pure,
    subst_spatial,
)


def unfold_at(d: SymbolicHeap, inst_index: int, defs: SpecFile) -> list[SymbolicHeap]:
    """Unfold the instance at position ``inst_index`` of ``d``'s atom list.

    Each child is the separating conjunction of the context (``d`` without
    the instance) and one body: the context's atoms, conjuncts and binders
    come first, the body's after them. One substitution maps each parameter
    to its argument and each binder to a globally fresh name (taken in
    binder order), which can neither clash with nor capture another name.
    """
    inst = d.atoms[inst_index]
    if not isinstance(inst, PredInst):
        raise ValueError(f"atom {inst_index} is not a predicate instance")
    pred = defs.preds[inst.pred]
    context = d.atoms[:inst_index] + d.atoms[inst_index + 1:]
    binding = dict(zip(pred.params, inst.args))
    out: list[SymbolicHeap] = []
    for disjunct in pred.body.disjuncts:
        fresh = tuple(fresh_var(v) for v in disjunct.exists)
        renaming = {**binding, **{v: Var(name) for v, name in zip(disjunct.exists, fresh)}}
        out.append(SymbolicHeap(d.exists + fresh,
                                context + subst_spatial(disjunct.atoms, renaming),
                                d.pure + subst_pure(disjunct.pure, renaming)))
    return out


def unfold_round(heaps: list[SymbolicHeap], defs: SpecFile) -> list[SymbolicHeap]:
    """One generation round: base heaps carry forward, the rest unfold
    every instance independently; alpha-equivalent results are dropped."""
    out: list[SymbolicHeap] = []
    for d in heaps:
        if d.is_base():
            out.append(d)
        for i, a in enumerate(d.atoms):
            if isinstance(a, PredInst):
                out.extend(unfold_at(d, i, defs))
    return dedup_heaps(out)


def unfold_closure(initial: list[SymbolicHeap], n: int, defs: SpecFile) -> list[SymbolicHeap]:
    """All heaps produced within ``n`` unfolding rounds, first-seen order.

    This is the cumulative view of the search: heaps that become fully base
    at round r stay in every later round, and partially unfolded heaps from
    earlier rounds are kept alongside their descendants.
    """
    frontier = list(initial)
    seen: list[SymbolicHeap] = []
    for _ in range(n):
        frontier = unfold_round(frontier, defs)
        seen = dedup_heaps(seen + frontier)
    return seen
