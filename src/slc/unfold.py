"""Predicate unfolding.

Unfolding replaces one inductive predicate instance by its definition body
with the actual arguments substituted for the parameters, yielding one
symbolic heap per disjunct of the definition. Unfolding a whole heap takes
the union over its instances; a base heap (no instances) passes through
unchanged. Every output heap entails its input, so models found below are
models of the original formula. ``unfold_at`` lives in ``solver``, next to
the compiled predicate bodies it instantiates.
"""

from __future__ import annotations

from .formulas import PredInst, SpecFile, SymbolicHeap, dedup_heaps
from .solver import unfold_at


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
