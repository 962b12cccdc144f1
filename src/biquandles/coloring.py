"""Colorings of a Gauss code by a finite biquandle.

Two independent enumeration strategies, kept deliberately separate so each
can check the other:

  enumerate_colorings        reduce the presentation, backtrack over the
                             surviving generators, checking each reduced
                             relation as soon as its generators are
                             assigned, then rebuild eliminated generators
                             by replaying the reduction trace backwards
                             (scan_reduction does all but the reduction,
                             for callers that have one already);
  enumerate_colorings_oracle depth-first fill-and-propagate directly on the
                             unreduced presentation, on the constraint
                             engine of the search module, which the table
                             search shares.  The reduced scan does not use
                             the engine, so an engine fault shows up as a
                             disagreement between the two.

Both return colorings as tuples indexed by semi-arc (entry k-1 is the color
of semi-arc k), sorted lexicographically.
"""

from __future__ import annotations

from .core import Biquandle, compile_sides
from .gauss import GaussCode
from .presentation import (Gen, Presentation, eval_word, knot_presentation,
                           reduce_with_trace, word_generators)
from .search import Engine

CANDIDATE_LIMIT = 10 ** 8


class SearchLimitError(RuntimeError):
    pass


Coloring = tuple  # color of semi-arc k at index k-1


def _scan(T: Biquandle, reduced: Presentation, trace,
          n_semi_arcs: int) -> list[tuple[int, ...]]:
    # Backtrack over the survivors in order, checking each relation once
    # the last of its generators (the isolated one included) is assigned.
    survivors = reduced.generators
    k = len(survivors)
    position = {g: i for i, g in enumerate(survivors)}
    checks: list[list] = [[] for _ in range(k)]
    for r in reduced.relations:
        checks[max(position[g] for g in word_generators(r.lhs) | {r.rhs})].append(r)
    values = range(1, T.n + 1)
    asg: dict[int, int] = {}
    found = []

    def extend(i: int) -> None:
        if i == k:
            # each eliminated word reads only generators replayed before it
            for g, w in reversed(trace):
                asg[g] = eval_word(w, T, asg)
            found.append(tuple(asg[a] for a in range(1, n_semi_arcs + 1)))
            return
        g = survivors[i]
        for v in values:
            asg[g] = v
            if all(eval_word(r.lhs, T, asg) == asg[r.rhs] for r in checks[i]):
                extend(i + 1)

    extend(0)
    return found


def check_search_size(n: int, survivors: int) -> None:
    """Raise SearchLimitError if n^survivors candidates exceed the cap."""
    total = n ** survivors
    if total > CANDIDATE_LIMIT:
        raise SearchLimitError(
            f"search too large: {n}^{survivors} = {total} candidate assignments")


def enumerate_colorings(code: GaussCode, T: Biquandle) -> list[tuple[int, ...]]:
    """All colorings, via reduction plus a backtracking scan of the survivors."""
    reduced, trace = reduce_with_trace(knot_presentation(code))
    return scan_reduction(T, reduced, trace, code.n_semi_arcs)


def scan_reduction(T: Biquandle, reduced: Presentation, trace,
                   n_semi_arcs: int) -> list[tuple[int, ...]]:
    """All colorings, by a backtracking scan of the survivors of a
    reduction (as reduce_with_trace returns it) of a code's knot
    presentation."""
    check_search_size(T.n, len(reduced.generators))
    found = _scan(T, reduced, trace, n_semi_arcs)
    found.sort()
    return found


def enumerate_colorings_oracle(code: GaussCode, T: Biquandle) -> list[tuple[int, ...]]:
    """All colorings, via fill-and-propagate on the unreduced presentation.

    Runs on the search module's engine with the table cells as constants
    and the semi-arcs as unknowns.  Branches on the lowest unassigned
    semi-arc; a relation whose left side is fully assigned either forces
    its isolated generator or, if that is already assigned, must check out.
    """
    pres = knot_presentation(code)
    n = T.n
    first = 4 * n * n  # slot of semi-arc 1, after the cells

    def place(w):
        if isinstance(w, Gen):
            return first + w.index - 1
        return (w.kind, place(w.left), place(w.right))

    arcs = len(pres.generators)
    sides, scratch = compile_sides(
        [(place(r.lhs), first + r.rhs - 1) for r in pres.relations], n, first + arcs)
    cells = [v for t in T.tables for row in t for v in row]
    engine = Engine(n, cells + [0] * (arcs + scratch), sides)
    val = engine.val
    trail = engine.trail
    found: list[tuple[int, ...]] = []

    def descend(a: int):
        while a < arcs and val[first + a]:
            a += 1
        if a == arcs:
            found.append(tuple(val[first:first + arcs]))
            return
        for v in range(1, n + 1):
            mark = len(trail)
            engine.assign(first + a, v)
            if engine.propagate():
                descend(a + 1)
            engine.undo(mark)

    if engine.start():
        descend(0)
    found.sort()
    return found


def counting_invariant(code: GaussCode, T: Biquandle) -> int:
    """Number of colorings of the code by T."""
    return len(enumerate_colorings(code, T))
