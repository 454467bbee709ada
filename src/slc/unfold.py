"""Predicate unfolding, cumulatively.

``unfold_at`` (in ``solver``, next to the compiled predicate bodies it
instantiates) replaces one predicate instance by its definition's
disjuncts, and ``testgen.unfold_round`` unfolds every instance of a heap
set once. ``unfold_closure`` collects the heaps of several rounds.
"""

from __future__ import annotations

from .formulas import SpecFile, SymbolicHeap, dedup_heaps
from .testgen import unfold_round


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
