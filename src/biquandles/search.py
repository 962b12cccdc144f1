"""Fill-and-propagate searches on one compiled, trail-based engine.

The engine (``Engine``) holds every unknown and every constant of a search
in one int array of slots, with 0 marking a blank slot.  Each equation is
compiled once, by ``core.compile_sides``, into two sides of flat steps.  A
side blocked on a blank slot sits in that slot's watch list, so filling a
slot re-checks only the sides waiting for it.  A side that evaluates
completely against another blocked exactly at its outermost read forces
that slot; two complete sides that differ are a contradiction.  Every
assignment and every watch entry goes on a trail, and backtracking pops
the trail back to a mark.

Two searches run on it:

  the table search   (``TableSearch``, ``complete_partial``,
                     ``enumerate_biquandles``): the 4n^2 table cells are
                     the unknowns and the equational axioms (1 and 3) the
                     equations, one per instance.  Every blocked side is
                     watched until it completes, so a completed table
                     satisfies all of them, and only the existential
                     axioms (2 and 4) are left to check there;
  the coloring oracle (``coloring.enumerate_colorings_oracle``): the table
                     cells are known constants, the semi-arcs the unknowns,
                     and the crossing relations the equations.

The table search branches on the blank cell with the most sides waiting on
it, ties to the lowest (table, row, column).  At a propagated node every
incomplete side sits in the watch list of exactly one blank cell, the
first blank it reads, so that count is the length of the cell's watch
list: the engine keeps it for free, and backtracking restores it with the
watch entries (the most-constrained-variable rule of Haralick & Elliott,
Artif. Intell. 14 (1980)).

The table search's slots are the 4n^2 cells, cell (k, a, b) at
k*n*n + (a-1)*n + (b-1), then n constant slots holding 1..n (the values
of an instance's variables), then scratch.  An axiom instance's subterm of
two variables always reads one cell, so it compiles to that cell's slot
and runs no step.  The one exception is a left operand whose right operand
still needs steps: compile_sides emits the left operand's steps first, so
folding that pair would move its read after the right operand's, a side
could then wait on another cell, and the branching, with its node counts,
would change.  That pair keeps its step.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .core import (AXIOM_PAIR_EQS, AXIOM_TRIPLE_EQS, Biquandle, OpKind,
                   Record, check_tables, compile_sides, existential_failures,
                   write_biquandle)

Cell = tuple[OpKind, int, int]  # (table, row element, column element), 1-based


class PartialBiquandle(Record, frozen=False):
    """Four n x n tables with 0 marking a blank cell."""

    __slots__ = ("tables",)

    def __init__(self, tables: list[list[list[int]]]):
        self.tables = tables

    @staticmethod
    def blank(n: int) -> "PartialBiquandle":
        return PartialBiquandle([[[0] * n for _ in range(n)] for _ in range(4)])

    @staticmethod
    def from_biquandle(T: Biquandle) -> "PartialBiquandle":
        return PartialBiquandle([[list(row) for row in t] for t in T.tables])

    @property
    def n(self) -> int:
        return len(self.tables[0])

    def copy(self) -> "PartialBiquandle":
        return PartialBiquandle([[row[:] for row in t] for t in self.tables])

    def _row(self, cell: Cell) -> tuple[list[int], int]:
        """The row holding cell and the cell's index in it; raises
        ValueError for a table that is no OpKind or elements outside 1..n."""
        k, a, b = cell
        n = self.n
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"elements ({a},{b}) outside 1..{n}")
        return self.tables[OpKind(k)][a - 1], b - 1

    def get(self, cell: Cell) -> int:
        row, j = self._row(cell)
        return row[j]

    def set(self, cell: Cell, value: int) -> None:
        row, j = self._row(cell)
        row[j] = value

    def blanks(self) -> list[Cell]:
        n = self.n
        return [(OpKind(k), a, b)
                for k in range(4)
                for a in range(1, n + 1)
                for b in range(1, n + 1)
                if self.tables[k][a - 1][b - 1] == 0]

    def is_complete(self) -> bool:
        return all(v for t in self.tables for row in t for v in row)

    def to_biquandle(self) -> Biquandle:
        return Biquandle(tuple(tuple(tuple(row) for row in t) for t in self.tables))


def axiom_instances(n: int):
    """Every equational axiom instance: (axiom id, lhs, rhs, variable values)."""
    return [(eq_id, lhs, rhs, vals)
            for arity, eqs in ((2, AXIOM_PAIR_EQS), (3, AXIOM_TRIPLE_EQS))
            for vals in itertools.product(range(1, n + 1), repeat=arity)
            for eq_id, lhs, rhs in eqs]


# ---------------------------------------------------------------------------
# The engine.

class Engine:
    """Fill-and-propagate over one int array; see the module docstring.

    values is the slot array (0 = blank), sides come from compile_sides.
    Call start() once, then assign() and propagate() for each branch, and
    undo() back to a mark taken from len(trail) before the branch.
    """

    def __init__(self, n: int, values: list[int], sides):
        self.n = n
        self.val = values
        self.sides = sides
        self.watch: list[list[int]] = [[] for _ in range(len(values) + 1)]
        # slot s >= 0 was assigned; ~s < 0 had a watch entry appended
        self.trail: list[int] = []
        self.queue: list[int] = []

    def assign(self, slot: int, value: int) -> None:
        self.val[slot] = value
        self.trail.append(slot)
        self.queue.append(slot)

    def start(self) -> bool:
        """Check every side once and propagate; False on a contradiction.

        The extra last watch list holds every side, so this is one
        propagation from it."""
        self.watch[-1] = list(range(len(self.sides)))
        self.queue.append(-1)
        return self.propagate()

    def propagate(self) -> bool:
        """Re-check the sides watching each newly filled slot, to the
        fixpoint; False on a contradiction.

        A side evaluates to r: its value 1..n; ~s if it is blocked only at
        its outermost read, blank slot s; n + 1 + s if blocked deeper, at
        blank slot s.  A blocked side q goes on the watch list of its
        blocking slot; blocked deeper, it needs no other side.  Otherwise,
        with r2 the other side: two values must agree, and a value against
        a side blocked at its outermost read fills that slot.
        """
        val = self.val
        n = self.n
        deep = n + 1
        sides = self.sides
        watch = self.watch
        trail = self.trail
        queue = self.queue
        while queue:
            for q in watch[queue.pop()]:
                # evaluate side q into r (inlined, as is side q ^ 1 below:
                # a call per side doubles the oracle's time on Conway)
                steps, out = sides[q]
                for o, x, y, t in steps:
                    u = val[x]
                    if not u:
                        r = deep + x
                        break
                    v = val[y]
                    if not v:
                        r = deep + y
                        break
                    c = o + u * n + v
                    w = val[c]
                    if not w:
                        r = ~c if t == out else deep + c
                        break
                    val[t] = w
                else:
                    r = val[out] or ~out
                if r > n:
                    s = r - deep
                    watch[s].append(q)
                    trail.append(~s)
                    continue
                if r < 0:
                    watch[~r].append(q)
                    trail.append(r)
                steps, out = sides[q ^ 1]
                for o, x, y, t in steps:
                    u = val[x]
                    if not u:
                        r2 = deep + x
                        break
                    v = val[y]
                    if not v:
                        r2 = deep + y
                        break
                    c = o + u * n + v
                    w = val[c]
                    if not w:
                        r2 = ~c if t == out else deep + c
                        break
                    val[t] = w
                else:
                    r2 = val[out] or ~out
                if r > 0:
                    if 0 < r2 <= n:
                        if r != r2:
                            queue.clear()
                            return False
                        continue
                    if r2 > 0:
                        continue
                    s = ~r2
                    val[s] = r
                elif r < 0 and 0 < r2 <= n:
                    s = ~r
                    val[s] = r2
                else:
                    continue
                trail.append(s)
                queue.append(s)
        return True

    def undo(self, mark: int) -> None:
        """Pop the trail back to mark: blank the slots, drop the watches."""
        trail = self.trail
        val = self.val
        watch = self.watch
        while len(trail) > mark:
            s = trail.pop()
            if s >= 0:
                val[s] = 0
            else:
                watch[~s].pop()


# ---------------------------------------------------------------------------
# The table search.

@lru_cache(maxsize=8)
def _axiom_sides(n: int):
    """Compiled axiom instances on order n, in axiom_instances order.

    Slots: the 4n^2 cells, then n constant slots holding 1..n (the values
    of the instance variables), then scratch.  A subterm (k, a, b) of two
    instance variables compiles to the slot of the one cell it reads,
    k*n*n + (a-1)*n + (b-1), not to a step.  As the left operand of a
    subterm whose right operand compiles to steps it keeps its step, so
    the side still reads that cell first and waits where it did (folding
    it too gives the same tables, but 73 nodes for the order-2 census, not
    67).
    """
    first_constant = 4 * n * n

    def place(e, vals, fold=True):
        if isinstance(e, int):
            return first_constant + vals[e] - 1
        kind, left, right = e
        if fold and isinstance(left, int) and isinstance(right, int):
            return kind * n * n + (vals[left] - 1) * n + vals[right] - 1
        y = place(right, vals)
        return (kind, place(left, vals, isinstance(y, int)), y)

    return compile_sides([(place(lhs, vals), place(rhs, vals))
                          for _eq_id, lhs, rhs, vals in axiom_instances(n)], n, first_constant + n)


class TableSearch(Engine):
    """Every valid completion of a partial table, by propagation and
    branching on the most-watched blank cell; run() returns them, and
    nodes counts the propagations (the root and one per branch tried).
    Raises ValueError unless P is four n x n tables of ints in 0..n."""

    def __init__(self, P: PartialBiquandle):
        check_tables(P.tables, 0)
        n = P.n
        sides, scratch = _axiom_sides(n)
        values = [v for t in P.tables for row in t for v in row]
        super().__init__(n, values + list(range(1, n + 1)) + [0] * scratch, sides)
        self.cells = len(values)
        self.nodes = 0
        self.found: list[Biquandle] = []

    def run(self) -> list[Biquandle]:
        """All valid completions, sorted by serialized matrix."""
        self.nodes = 1
        if self.start():
            self._descend()
        self.found.sort(key=write_biquandle)
        return self.found

    def _descend(self) -> None:
        """Search below a propagated node."""
        if 0 not in self.val[:self.cells]:
            T = self.to_biquandle()
            if not existential_failures(T):
                self.found.append(T)
            return
        cell = self._branch_cell()
        for v in range(1, self.n + 1):
            mark = len(self.trail)
            self.nodes += 1
            self.assign(cell, v)
            if self.propagate():
                self._descend()
            self.undo(mark)

    def _branch_cell(self) -> int:
        """The blank cell with the most sides waiting on it, ties to the
        lowest."""
        val = self.val
        watch = self.watch
        cell = -1
        top = -1
        for c in range(self.cells):
            if not val[c] and len(watch[c]) > top:
                top = len(watch[c])
                cell = c
        return cell

    def to_partial(self) -> PartialBiquandle:
        n = self.n
        val = self.val
        return PartialBiquandle([[val[k * n * n + a * n:k * n * n + (a + 1) * n]
                                  for a in range(n)] for k in range(4)])

    def to_biquandle(self) -> Biquandle:
        return self.to_partial().to_biquandle()


CONTRADICTION = "CONTRADICTION"


def propagate(P: PartialBiquandle):
    """Fixpoint of forced fills from axioms 1 and 3.

    An instance with one side fully evaluated and the other blocked exactly
    at its outermost blank cell forces that cell.  Returns the propagated
    copy, or CONTRADICTION when a fully determined instance fails.
    """
    search = TableSearch(P)
    if not search.start():
        return CONTRADICTION
    return search.to_partial()


def waiting(P: PartialBiquandle):
    """Each blank cell of propagate(P), with the number of axiom sides
    waiting on it: the sides whose first blank read, in step order, is
    that cell.  The table search branches on the cell with the most.
    CONTRADICTION when propagation finds one."""
    search = TableSearch(P)
    if not search.start():
        return CONTRADICTION
    n = P.n
    cells = itertools.product(OpKind, range(1, n + 1), range(1, n + 1))
    return {c: len(w) for c, v, w in zip(cells, search.val, search.watch) if not v}


def complete_partial(P: PartialBiquandle) -> list[Biquandle]:
    """All valid biquandles extending P, sorted by serialized matrix."""
    return TableSearch(P).run()


ENUMERATION_LIMIT = 4


def enumerate_biquandles(n: int, limit: int = ENUMERATION_LIMIT) -> list[Biquandle]:
    """Every biquandle on {1..n}, sorted by serialized matrix."""
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 1:
        raise ValueError("n must be positive")
    if n > limit:
        raise ValueError(f"n = {n} exceeds the enumeration limit {limit}")
    return complete_partial(PartialBiquandle.blank(n))
