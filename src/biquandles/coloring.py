"""Colorings of a Gauss code by a finite biquandle.

Two independent enumeration strategies, kept deliberately separate so each
can check the other:

  enumerate_colorings        reduce the crossing relations to learn which
                             semi-arcs survive, then backtrack over the
                             survivors, computing every other semi-arc
                             from the crossing relations and checking each
                             relation that isolates a survivor as soon as
                             its inputs are known (scan_relations runs the
                             same scan on given relations and survivors);
  enumerate_colorings_oracle depth-first fill-and-propagate directly on the
                             unreduced crossing relations, on the
                             constraint engine of the search module, which
                             the table search shares, branching in an order
                             read off the relations alone (_branch_order).
                             The reduced scan uses neither the engine nor
                             core.compile_sides, and the oracle uses
                             neither the reduction nor the compiled scan,
                             so a fault in any of them shows up as a
                             disagreement between the two.

Both read the list of presentation.crossing_relations, building no word,
and return colorings as tuples indexed by semi-arc (entry k-1 is the color
of semi-arc k), sorted lexicographically.

A code keeps its plan.  Everything the scan needs that no table changes is
worked out once per GaussCode object and kept in its __dict__: the
crossings, their relations and the survivors (search_plan, built on the
code's first search), and the scan of them compiled to a Python function
(built on its first scan, so a search refused at the candidate cap
compiles nothing).  Every later table, cocycle and call reuses them:
checked_search and enumerate_colorings read the plan, scan_code runs the
kept scan, and scan_relations compiles its own arguments; both scans pass
through _scan.  The cap is checked per (code, table), before validation.

The scan is staged on the crossing relations themselves.  Tietze reduction
eliminates a semi-arc only when its word no longer contains it, so the
relations isolating the eliminated semi-arcs form no cycle: each of their
colors is one table lookup of colors known before it (dependency_order).
The reduction only picks the survivors, and presentation.survivors_of
picks them on leaf counts without building a word: the substituted words
(Conway's five are 811 nodes) would only repeat these same lookups.
Survivors are ordered most constrained first, by one sort: the more
survivor relations (those isolating a survivor) read one, the earlier it
comes, ties going to the lowest generator.  At each level the scan assigns
that survivor, fills in by one table lookup each the semi-arcs whose last
survivor it is, then checks the relations the survivor completes, looking
up the padded tables that the Biquandle keeps (Biquandle.padded).
_compile writes all this out as Python source, which runs about 4 times
faster than a loop interpreting it (tests/conftest.py, reference_scan),
for a one-time cost of about 0.4 ms on Conway's knot.
"""

from __future__ import annotations

import sys
from collections import Counter

from .core import Biquandle, OpKind, SearchLimitError, compile_sides
from .gauss import GaussCode, crossings_of
from .presentation import crossing_relations, dependency_order, survivors_of

CANDIDATE_LIMIT = 10 ** 8


def _stage(relations, arcs: int, survivors):
    """Stage the crossing relations of semi-arcs 1..arcs for a scan of the
    survivors of a Tietze reduction of them.

    Returns (order, steps, checks, n_slots): the survivors in scan order,
    and per scan level the table lookups (dst, kind, left, right) and the
    relation checks (slot, survivor) that the level's survivor completes.
    Semi-arc g has value slot g; the left side of each relation that
    isolates a survivor gets a spare slot after the semi-arcs.  Raises
    ValueError as dependency_order does.
    """
    inputs = {out: (a, b) for out, _kind, a, b in relations}
    placed = dependency_order(range(1, arcs + 1), survivors, inputs)
    reads = {g: {g} for g in survivors}  # the survivors a color depends on
    checked = [r for r in relations if r[0] in reads]
    for g in placed:
        a, b = inputs[g]
        reads[g] = reads[a] | reads[b]

    # Most constrained first: by how many survivor relations read each.
    uses = Counter(g for s, _kind, a, b in checked for g in reads[a] | reads[b] | {s})
    order = sorted(survivors, key=lambda g: (-uses[g], g))

    # A color's level is the scan position of the last survivor it reads.
    level = [0] * (arcs + 1)
    for i, g in enumerate(order):
        level[g] = i
    steps: list[list] = [[] for _ in order]
    checks: list[list] = [[] for _ in order]
    isolating = {r[0]: r for r in relations}
    for g in placed:
        a, b = inputs[g]
        level[g] = max(level[a], level[b])
        steps[level[g]].append(isolating[g])
    for spare, (s, kind, a, b) in enumerate(checked, start=arcs + 1):
        at = max(level[a], level[b])
        steps[at].append((spare, kind, a, b))
        checks[max(at, level[s])].append((spare, s))
    n_slots = arcs + 1 + len(checked)
    return tuple(order), tuple(map(tuple, steps)), tuple(map(tuple, checks)), n_slots


def scan_relations(T: Biquandle, relations, arcs: int, survivors) -> list[tuple[int, ...]]:
    """All colorings of semi-arcs 1..arcs under these crossing relations,
    by a backtracking scan of the survivors of a Tietze reduction of them."""
    check_search_size(T.n, len(survivors))
    return _scan(T, _compile(_stage(relations, arcs, survivors), arcs))


def _scan(T: Biquandle, kernel) -> list[tuple[int, ...]]:
    """The colorings by T, found by a _compile result."""
    # One nested `for` per survivor, calling on to the next function every
    # CHUNK levels: a scan of k levels is ceil(k / CHUNK) frames deep.
    found: list[tuple[int, ...]] = []
    kernel(*T.padded, range(1, T.n + 1), found.append, {})
    found.sort()
    return found


CHUNK = 16  # levels per generated function: CPython nests at most 20 blocks


def _compile(staging, arcs: int):
    """The scan of semi-arcs 1..arcs on a _stage result, generated as
    kernel(t0, t1, t2, t3, values, append, {}) on the padded tables.  Slot
    s is the local v{s}; each CHUNK levels are one function, which puts in
    the dict the slots later ones read.  Only ints and OpKinds, by :d,
    reach the source: anything else raises ValueError before exec.  A scan
    deeper than half the recursion limit raises SearchLimitError first."""
    order, steps, checks, _n_slots = staging
    k = len(order)
    depth, limit = -(-k // CHUNK), sys.getrecursionlimit()
    if depth > limit // 2:
        raise SearchLimitError(f"scan too deep: {k} levels need {depth} nested calls, "
                               f"over half the recursion limit {limit}")
    levels = [[f"for v{g:d} in R:"]
              + [f"    v{d:d} = t{OpKind(op):d}[v{a:d}][v{b:d}]" for d, op, a, b in step]
              + [f"    if v{w:d} != v{r:d}: continue" for w, r in check]
              for g, step, check in zip(order, steps, checks)]
    born = {}  # per slot, the level that sets it
    reads = [set() for _ in range(0, k or 1, CHUNK)]  # per function, the slots it reads
    for i, (g, step, check) in enumerate(zip(order, steps, checks)):
        born[g] = i
        for d, _op, a, b in step:
            born[d] = i
            reads[i // CHUNK] |= {a, b}
        reads[i // CHUNK].update(*check)
    reads[-1].update(range(1, arcs + 1))  # every semi-arc is in the coloring
    last = {s: f for f, read in enumerate(reads) for s in read}  # the last function reading s
    src = []
    for lo in range(0, k or 1, CHUNK):
        src.append(f"def k{lo:d}(t0, t1, t2, t3, R, app, live):")
        src += [f"    v{s:d} = live[{s:d}]" for s in reads[lo // CHUNK] if born[s] < lo]
        pad = "    "
        for i in range(lo, min(lo + CHUNK, k)):
            src += [pad + line for line in levels[i]]
            pad += "    "
        hi = lo + CHUNK
        if hi < k:
            src += [f"{pad}live[{s:d}] = v{s:d}" for s in born
                    if lo <= born[s] < hi and last[s] > lo // CHUNK]
            src.append(f"{pad}k{hi:d}(t0, t1, t2, t3, R, app, live)")
        else:
            src.append(f"{pad}app(({''.join(f'v{g:d}, ' for g in range(1, arcs + 1))}))")
    namespace: dict = {}
    exec("\n".join(src), namespace)
    return namespace["k0"]


def check_search_size(n: int, survivors: int) -> None:
    """Raise SearchLimitError if n^survivors candidates exceed the cap."""
    total = n ** survivors
    if total > CANDIDATE_LIMIT:
        raise SearchLimitError(
            f"search too large: {n}^{survivors} = {total} candidate assignments")


def search_plan(code: GaussCode) -> tuple[tuple, tuple, tuple[int, ...]]:
    """(crossings, crossing relations, survivors) of code, worked out on the
    code's first search and kept in its __dict__ for every later one."""
    kept = vars(code)
    if "plan" not in kept:
        crossings = tuple(crossings_of(code))
        relations = tuple(crossing_relations(crossings))
        kept["plan"] = crossings, relations, survivors_of(relations, code.n_semi_arcs)
    return kept["plan"]


def checked_search(code: GaussCode, T: Biquandle) -> tuple[tuple, tuple, tuple[int, ...]]:
    """The search_plan of code, once the scan by T is known to be under the
    candidate cap and then T to be valid."""
    plan = search_plan(code)
    check_search_size(T.n, len(plan[2]))
    if not T.is_valid:
        raise ValueError("biquandle fails validation")
    return plan


def scan_code(code: GaussCode, T: Biquandle) -> list[tuple[int, ...]]:
    """All colorings of code by T, with no check: the scan of the
    search_plan is compiled on the code's first scan and kept beside it."""
    kept = vars(code)
    if "scan" not in kept:
        _crossings, relations, survivors = search_plan(code)
        arcs = code.n_semi_arcs
        kept["scan"] = _compile(_stage(relations, arcs, survivors), arcs)
    return _scan(T, kept["scan"])


def enumerate_colorings(code: GaussCode, T: Biquandle) -> list[tuple[int, ...]]:
    """All colorings, via reduction plus a backtracking scan of the
    survivors, once the scan is known to be under the candidate cap; T is
    not validated."""
    check_search_size(T.n, len(search_plan(code)[2]))
    return scan_code(code, T)


def _branch_order(relations, arcs: int) -> list[int]:
    """Every semi-arc, in the order the oracle comes to it.

    Greedy on the crossing relations alone: next comes the blank semi-arc
    whose assignment makes the largest forward closure, ties going to the
    lowest; the closure is what the relations whose two inputs are known
    then determine, transitively.  Each pick is followed by its closure,
    in the order it is found, so a semi-arc that propagation fills comes
    after the semi-arcs it is computed from.
    """
    inputs = {out: (a, b) for out, _kind, a, b in relations}
    readers: dict[int, list[int]] = {g: [] for g in range(1, arcs + 1)}
    for s, (a, b) in inputs.items():
        readers[a].append(s)
        readers[b].append(s)
    known: set[int] = set()

    def closure(g: int) -> list[int]:
        new = [g]
        seen = {g}
        for h in new:  # grows while it is walked
            for s in readers[h]:
                if s in known or s in seen:
                    continue
                a, b = inputs[s]
                if (a in known or a in seen) and (b in known or b in seen):
                    seen.add(s)
                    new.append(s)
        return new

    order: list[int] = []
    while len(order) < arcs:
        best = max((closure(g) for g in readers if g not in known), key=len)
        order += best
        known.update(best)
    return order


def enumerate_colorings_oracle(code: GaussCode, T: Biquandle) -> list[tuple[int, ...]]:
    """All colorings, via fill-and-propagate on the unreduced crossing
    relations.

    Runs on the search module's engine with the table cells as constants
    and the semi-arcs as unknowns.  Branches on the first unassigned
    semi-arc of _branch_order, so that the relations fire as early as they
    can; a relation whose inputs are both assigned either forces its
    isolated semi-arc or, if that is already assigned, must check out.
    """
    from .search import Engine  # the module's only use of search
    relations = crossing_relations(crossings_of(code))
    arcs = code.n_semi_arcs
    n = T.n
    first = 4 * n * n  # slot of semi-arc 1, after the cells
    sides, scratch = compile_sides(
        [((kind, first + a - 1, first + b - 1), first + out - 1)
         for out, kind, a, b in relations], n, first + arcs)
    cells = [v for t in T.tables for row in t for v in row]
    engine = Engine(n, cells + [0] * (arcs + scratch), sides)
    val = engine.val
    trail = engine.trail
    order = [first + g - 1 for g in _branch_order(relations, arcs)]
    found: list[tuple[int, ...]] = []

    def descend(i: int):
        while i < arcs and val[order[i]]:
            i += 1
        if i == arcs:
            found.append(tuple(val[first:first + arcs]))
            return
        slot = order[i]
        for v in range(1, n + 1):
            mark = len(trail)
            engine.assign(slot, v)
            if engine.propagate():
                descend(i + 1)
            engine.undo(mark)

    if engine.start():
        descend(0)
    found.sort()
    return found


def counting_invariant(code: GaussCode, T: Biquandle) -> int:
    """Number of colorings of the code by T."""
    return len(enumerate_colorings(code, T))
