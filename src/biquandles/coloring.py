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
                             search shares.  The reduced scan uses neither
                             the engine nor core.compile_sides, so a fault
                             in either shows up as a disagreement between
                             the two.

Both return colorings as tuples indexed by semi-arc (entry k-1 is the color
of semi-arc k), sorted lexicographically.

The scan is staged.  Tietze substitution pastes whole words in for
generators, so the reduced relations are trees that repeat the same
subwords many times (Conway's five are 811 nodes holding 22 distinct
subwords).  Once per scan they are compiled into a hash-consed DAG with
one value slot per distinct subword, and each subword is placed at the
level of the last survivor it reads.
Survivors are ordered greedily: next comes the one that completes the
most relations not yet complete, ties going to the lowest generator.  At
each level the scan assigns that survivor, fills the level's subwords by
one table lookup each, then checks the relations the survivor completes.
"""

from __future__ import annotations

from .core import Biquandle, compile_sides
from .gauss import GaussCode
from .presentation import (Gen, Presentation, eval_word, knot_presentation,
                           reduce_with_trace)
from .search import Engine

CANDIDATE_LIMIT = 10 ** 8


class SearchLimitError(RuntimeError):
    pass


Coloring = tuple  # color of semi-arc k at index k-1


def _stage(reduced: Presentation):
    """Compile the reduced relations into one hash-consed DAG, staged by
    survivor.

    Returns (order, slots, steps, checks, n_slots): the survivors in scan
    order, the value slot of each, and per scan level the table lookups
    (dst, kind, left, right) and the relation checks (word, rhs) that the
    level's survivor completes.  Slots 0..k-1 hold the survivors; every
    distinct subword above them gets the next free slot.
    """
    survivors = reduced.generators
    slot_of = {g: i for i, g in enumerate(survivors)}
    gens: list[frozenset] = [frozenset((g,)) for g in survivors]
    nodes: list[tuple[int, int, int]] = []  # (kind, left, right) of slot k+i
    interned: dict[tuple[int, int, int], int] = {}
    seen: dict[int, int] = {}  # id of a shared OpWord -> its slot

    def intern(w) -> int:
        if isinstance(w, Gen):
            return slot_of[w.index]
        slot = seen.get(id(w))
        if slot is None:
            key = (int(w.kind), intern(w.left), intern(w.right))
            slot = interned.get(key)
            if slot is None:
                slot = interned[key] = len(gens)
                nodes.append(key)
                gens.append(gens[key[1]] | gens[key[2]])
            seen[id(w)] = slot
        return slot

    relations = [(intern(r.lhs), slot_of[r.rhs]) for r in reduced.relations]

    # Greedy order: next, the survivor that completes the most relations
    # not yet complete; ties go to the lowest generator number.
    pending = [set(gens[w] | gens[r]) for w, r in relations]
    order: list[int] = []
    left = sorted(survivors)
    while left:
        g = max(left, key=lambda g: sum(p == {g} for p in pending))
        order.append(g)
        left.remove(g)
        for p in pending:
            p.discard(g)
        pending = [p for p in pending if p]

    # A slot's level is the scan position of its last survivor.
    k = len(survivors)
    level = [0] * len(gens)
    for i, g in enumerate(order):
        level[slot_of[g]] = i
    steps: list[list] = [[] for _ in range(k)]
    for dst, (kind, a, b) in enumerate(nodes, start=k):
        level[dst] = max(level[a], level[b])
        steps[level[dst]].append((dst, kind, a, b))
    checks: list[list] = [[] for _ in range(k)]
    for w, r in relations:
        checks[max(level[w], level[r])].append((w, r))
    return order, [slot_of[g] for g in order], steps, checks, len(gens)


def _padded(table) -> list[list[int]]:
    # 1-based lookups without index arithmetic: row 0 and column 0 unused
    return [[0] * (len(table) + 1)] + [[0, *row] for row in table]


def _scan(T: Biquandle, reduced: Presentation, trace,
          n_semi_arcs: int) -> list[tuple[int, ...]]:
    # Backtrack over the survivors in staged order.  Level i assigns
    # survivor i, evaluates each distinct subword that survivor completes
    # with one table lookup, then checks the relations it completes; a
    # full assignment is rebuilt by replaying the trace.
    order, slots, steps, checks, n_slots = _stage(reduced)
    tables = [_padded(t) for t in T.tables]
    levels = [(slot, [(dst, tables[kind], a, b) for dst, kind, a, b in step], check)
              for slot, step, check in zip(slots, steps, checks)]
    k = len(levels)
    values = range(1, T.n + 1)
    val = [0] * n_slots
    found = []

    def extend(i: int) -> None:
        if i == k:
            asg = dict(zip(order, (val[s] for s in slots)))
            # each eliminated word reads only generators replayed before it
            for g, w in reversed(trace):
                asg[g] = eval_word(w, T, asg)
            found.append(tuple(asg[a] for a in range(1, n_semi_arcs + 1)))
            return
        slot, lookups, tests = levels[i]
        for v in values:
            val[slot] = v
            for dst, tab, a, b in lookups:
                val[dst] = tab[val[a]][val[b]]
            for w, r in tests:
                if val[w] != val[r]:
                    break
            else:
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
