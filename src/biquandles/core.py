"""Finite biquandles as explicit operation tables.

A biquandle on {1, ..., n} carries four binary operations, written here as

    UP       a ^ b        (a passes under b, positive sense)
    DOWN     a _ b        (a passes over b, positive sense)
    UPBAR    a ^ bbar     (a passes under b, reversed sense)
    DOWNBAR  a _ bbar     (a passes over b, reversed sense)

subject to the biquandle axioms (numbered 1-4 below, with roman parts).
The switch map S(a,b) = (b_a, a^b) is then an invertible solution of the
set-theoretic Yang-Baxter equation; its inverse is
S^-1(a,b) = (b^abar, a_bbar).
"""

from __future__ import annotations

import itertools
import math
from enum import IntEnum
from functools import cached_property, lru_cache
from operator import attrgetter


class OpKind(IntEnum):
    """Canonical operation order; used wherever a deterministic order matters."""

    UP = 0
    DOWN = 1
    UPBAR = 2
    DOWNBAR = 3


class BlockConvention(IntEnum):
    """Layout of the four n x n blocks inside a 2n x 2n biquandle matrix.

    DEFINITION reads [[B1, B2], [B3, B4]] as B1=UPBAR, B2=UP, B3=DOWNBAR,
    B4=DOWN.  LISTING reads B1=UP, B2=DOWN, B3=UPBAR, B4=DOWNBAR.
    """

    DEFINITION = 0
    LISTING = 1

    @staticmethod
    def from_name(name: str) -> "BlockConvention":
        try:
            return BlockConvention[name.upper()]
        except KeyError:
            raise ValueError(f"unknown block convention {name!r}") from None


# Block position (quadrant index 0..3, reading order) of each OpKind.
_BLOCK_OF_OP = {
    BlockConvention.DEFINITION: {
        OpKind.UPBAR: 0, OpKind.UP: 1, OpKind.DOWNBAR: 2, OpKind.DOWN: 3,
    },
    BlockConvention.LISTING: {
        OpKind.UP: 0, OpKind.DOWN: 1, OpKind.UPBAR: 2, OpKind.DOWNBAR: 3,
    },
}


class ParseError(ValueError):
    """Input text rejected; carries 1-based line and column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class SearchLimitError(RuntimeError):
    """A coloring search over more candidate assignments than the cap."""


setfield = object.__setattr__  # how a frozen Record's __init__ stores a field


class Record:
    """Base of the value classes: a subclass's fields are its slots not
    starting with "_".  Equal fields make equal records of one class, with
    equal hashes; the repr reads Name(field=value, ...).  Unless declared
    frozen=False, a record refuses to assign or delete a field, so its
    __init__ stores each one with setfield.  This replaces dataclasses to
    save start-up: every CLI command is a fresh process that creates each
    class once, and dataclasses import inspect and ast, then exec six
    generated methods per class, costing more than most commands compute.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True):
        super().__init_subclass__()
        own = tuple(s for s in cls.__dict__.get("__slots__", ()) if s[0] != "_")
        cls._fields = cls.__match_args__ = cls._fields + own
        cls._values = attrgetter(*cls._fields)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = cls._refuse_write
        else:
            cls.__hash__ = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def _refuse_write(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen "
                             f"{type(self).__name__}")


class ValidationReport(Record):
    """Outcome of validate_biquandle: ok iff no axiom instance failed.

    failures holds (axiom id, witness tuple) pairs, sorted, capped at 100.
    """

    __slots__ = ("ok", "failures")

    def __init__(self, ok: bool, failures: tuple[tuple[str, tuple[int, ...]], ...]):
        setfield(self, "ok", ok)
        setfield(self, "failures", failures)


def check_tables(tables, low: int) -> None:
    """Raise ValueError unless tables is four n x n tables of ints in
    low..n: 1 for a biquandle, 0 for a partial table (0 is a blank).  An
    int subclass, bool among them, is no entry."""
    if len(tables) != 4:
        raise ValueError("expected four operation tables")
    n = len(tables[0])
    for t in tables:
        if len(t) != n or any(len(row) != n for row in t):
            raise ValueError("operation tables must all be n x n")
        for row in t:
            for v in row:
                if type(v) is not int or not low <= v <= n:
                    raise ValueError(f"table entry {v!r} outside {low}..{n}" if type(v) is int
                                     else f"table entry {v!r} is not an int")


class Biquandle(Record):
    """Operation tables over {1..n}; tables[k][a-1][b-1] = a op_k b.

    Immutable after construction.  Construction checks only shape and
    entry range; axiom validity is checked by validate_biquandle and
    cached on first use, in the instance __dict__, as are the padded
    tables the coloring scan looks up.
    """

    __slots__ = ("tables", "__dict__")

    def __init__(self, tables: tuple[tuple[tuple[int, ...], ...], ...]):
        setfield(self, "tables", tables)
        check_tables(tables, 1)

    @staticmethod
    def from_tables(up, down, upbar, downbar) -> "Biquandle":
        as_tuple = lambda t: tuple(tuple(row) for row in t)
        return Biquandle((as_tuple(up), as_tuple(down), as_tuple(upbar), as_tuple(downbar)))

    @property
    def n(self) -> int:
        return len(self.tables[0])

    def up(self, a: int, b: int) -> int:
        return self.tables[0][a - 1][b - 1]

    def down(self, a: int, b: int) -> int:
        return self.tables[1][a - 1][b - 1]

    def upbar(self, a: int, b: int) -> int:
        return self.tables[2][a - 1][b - 1]

    def downbar(self, a: int, b: int) -> int:
        return self.tables[3][a - 1][b - 1]

    @cached_property
    def validation(self) -> ValidationReport:
        return validate_biquandle(self)

    @cached_property
    def padded(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """padded[k][a][b] = a op_k b for 1-based lookups (row and column 0 unused)."""
        return tuple(((0,) * (self.n + 1), *((0, *row) for row in t)) for t in self.tables)

    @property
    def is_valid(self) -> bool:
        return self.validation.ok


def apply_op(T: Biquandle, kind: OpKind, a: int, b: int) -> int:
    """Look up a op b in the given table; arguments are 1-based elements."""
    if not (1 <= a <= T.n and 1 <= b <= T.n):
        raise ValueError(f"elements ({a},{b}) outside 1..{T.n}")
    return T.tables[kind][a - 1][b - 1]


def switch(T: Biquandle, a: int, b: int) -> tuple[int, int]:
    """S(a,b) = (b_a, a^b)."""
    return T.down(b, a), T.up(a, b)


def switch_inv(T: Biquandle, a: int, b: int) -> tuple[int, int]:
    """S^-1(a,b) = (b^abar, a_bbar); axiom 1 makes this invert switch."""
    return T.upbar(b, a), T.downbar(a, b)


# ---------------------------------------------------------------------------
# Axiom equations as expression trees.
#
# An expression is either a variable index (int: 0=a, 1=b, 2=c) or a tuple
# (OpKind, left, right).  compile_sides turns the trees into flat steps:
# validate_biquandle runs one compiled copy of each equation for every
# choice of variables, and the search module compiles one copy per axiom
# instance for blank-cell propagation.

Expr = "int | tuple"

_U, _D, _UB, _DB = OpKind.UP, OpKind.DOWN, OpKind.UPBAR, OpKind.DOWNBAR
_a, _b, _c = 0, 1, 2

# Axiom 1, over all pairs (a, b): composing a crossing with its reverse
# restores both colors.
AXIOM_PAIR_EQS: tuple[tuple[str, "Expr", "Expr"], ...] = (
    ("1.i", (_UB, (_U, _a, _b), (_D, _b, _a)), _a),
    ("1.ii", (_DB, (_D, _b, _a), (_U, _a, _b)), _b),
    ("1.iii", (_U, (_UB, _a, _b), (_DB, _b, _a)), _a),
    ("1.iv", (_D, (_DB, _b, _a), (_UB, _a, _b)), _b),
)

# Axiom 3, over all triples (a, b, c): the two sides of the third
# Reidemeister move, direct (i-iii) and reversed (iv-vi).
AXIOM_TRIPLE_EQS: tuple[tuple[str, "Expr", "Expr"], ...] = (
    ("3.i", (_U, (_U, _a, _b), _c), (_U, (_U, _a, (_D, _c, _b)), (_U, _b, _c))),
    ("3.ii", (_D, (_D, _c, _b), _a), (_D, (_D, _c, (_U, _a, _b)), (_D, _b, _a))),
    ("3.iii",
     (_U, (_D, _b, _a), (_D, _c, (_U, _a, _b))),
     (_D, (_U, _b, _c), (_U, _a, (_D, _c, _b)))),
    ("3.iv", (_UB, (_UB, _a, _b), _c), (_UB, (_UB, _a, (_DB, _c, _b)), (_UB, _b, _c))),
    ("3.v", (_DB, (_DB, _c, _b), _a), (_DB, (_DB, _c, (_UB, _a, _b)), (_DB, _b, _a))),
    ("3.vi",
     (_UB, (_DB, _b, _a), (_DB, _c, (_UB, _a, _b))),
     (_DB, (_UB, _b, _c), (_UB, _a, (_DB, _c, _b)))),
)


# Compiled equations work on one int array of slots.  The four n x n tables
# come first, cell (k, a, b) at slot k*n*n + (a-1)*n + (b-1); a step reading
# table k therefore has offset k*n*n - n - 1.  Each user puts its own slots
# after the cells, and the scratch slots that steps write go last.

def compile_sides(equations, n: int, first_scratch: int):
    """Compile (lhs, rhs) expression pairs into a flat tuple of sides.

    An expression is a slot number or a tuple (OpKind, left, right).  Each
    tuple becomes a step (offset, x, y, out): when slots x and y hold u and
    v, the step reads the table cell at slot offset + u*n + v into the
    scratch slot out.  Side 2e is the left side of equation e and side
    2e + 1 its right side; a side is (steps, out), where out is the slot
    holding its value once every step has run (for a bare slot, the slot
    itself).  The two sides of an equation write the same scratch slots.
    Returns the sides and the number of scratch slots they use.
    """
    sides = []
    scratch = 0
    shared: dict = {}  # one object per distinct step and side, to save memory
    for pair in equations:
        for expr in pair:
            steps: list[tuple[int, int, int, int]] = []

            def emit(e):
                if isinstance(e, int):
                    return e
                kind, left, right = e
                x, y = emit(left), emit(right)
                out = first_scratch + len(steps)
                step = (kind * n * n - n - 1, x, y, out)
                steps.append(shared.setdefault(step, step))
                return out

            out = emit(expr)
            scratch = max(scratch, len(steps))
            side = (tuple(steps), out)
            sides.append(shared.setdefault(side, side))
    return tuple(sides), scratch


def place_variables(expr, slots):
    """The expression with each variable index i replaced by slots[i]."""
    if isinstance(expr, int):
        return slots[expr]
    kind, left, right = expr
    return (kind, place_variables(left, slots), place_variables(right, slots))


@lru_cache(maxsize=8)
def _compiled_axioms(n: int):
    """The ten axiom 1 and 3 equations compiled once for order n, on the
    4n^2 cells, then the variables a, b, c, then scratch.  Returns
    ((arity, [(axiom id, lhs steps, lhs out, rhs steps, rhs out)]) for the
    pair and the triple equations, number of slots after the cells)."""
    slots = range(4 * n * n, 4 * n * n + 3)
    eqs = AXIOM_PAIR_EQS + AXIOM_TRIPLE_EQS
    sides, scratch = compile_sides([(place_variables(lhs, slots), place_variables(rhs, slots))
                                    for _id, lhs, rhs in eqs], n, slots[-1] + 1)
    compiled = [(eq_id, *sides[2 * e], *sides[2 * e + 1]) for e, (eq_id, _l, _r) in enumerate(eqs)]
    pairs = len(AXIOM_PAIR_EQS)
    return ((2, compiled[:pairs]), (3, compiled[pairs:])), 3 + scratch


def existential_failures(T: Biquandle) -> list[tuple[str, tuple[int, ...]]]:
    """Failures of the existential axioms, as (axiom id, witness): axiom 2
    asks at every pair (a, b) for solutions x and y of the two systems
    below, axiom 4 for kink witnesses at every a."""
    rng = range(1, T.n + 1)
    failures = []
    for a in rng:
        for b in rng:
            if not any(T.up(a, T.downbar(b, x)) == x and T.upbar(x, b) == a
                       and T.down(T.downbar(b, x), a) == b for x in rng):
                failures.append(("2.i-iii", (a, b)))
            if not any(T.upbar(a, T.down(b, y)) == y and T.up(y, b) == a
                       and T.downbar(T.down(b, y), a) == b for y in rng):
                failures.append(("2.iv-vi", (a, b)))
    for a, (xs, ys) in kink_witnesses(T).items():
        if not xs:
            failures.append(("4.i-ii", (a,)))
        if not ys:
            failures.append(("4.iii-iv", (a,)))
    return failures


def kink_witnesses(T: Biquandle) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Axiom 4 witnesses for every element a.

    Returns a -> (xs, ys) with xs = all x satisfying x = a_x and a = x^a,
    ys = all y satisfying y = a^ybar and a = y_abar.  These are exactly the
    colors sitting on a kink next to an arc colored a, hence the name; the
    Reidemeister-I reduction of cohomology constrains cocycles at them.
    """
    out = {}
    n = T.n
    for a in range(1, n + 1):
        xs = tuple(x for x in range(1, n + 1) if T.down(a, x) == x and T.up(x, a) == a)
        ys = tuple(y for y in range(1, n + 1) if T.upbar(a, y) == y and T.downbar(y, a) == a)
        out[a] = (xs, ys)
    return out


def validate_biquandle(T: Biquandle) -> ValidationReport:
    """Check every axiom instance exhaustively.

    Also cross-checks the set-theoretic Yang-Baxter equation for the switch
    map on all triples and invertibility of the switch on all pairs; these
    are consequences of axioms 1 and 3 and must agree with them.
    Failures are reported as (axiom id, witness), sorted, first 100 only.
    """
    n = T.n
    first_var = 4 * n * n
    groups, extra = _compiled_axioms(n)
    val = [v for t in T.tables for row in t for v in row] + [0] * extra
    failures = existential_failures(T)

    for arity, eqs in groups:
        for vals in itertools.product(range(1, n + 1), repeat=arity):
            val[first_var:first_var + arity] = vals
            for eq_id, lsteps, lout, rsteps, rout in eqs:
                for o, x, y, t in lsteps:
                    val[t] = val[o + val[x] * n + val[y]]
                left = val[lout]  # the right side reuses the scratch slots
                for o, x, y, t in rsteps:
                    val[t] = val[o + val[x] * n + val[y]]
                if val[rout] != left:
                    failures.append((eq_id, vals))

    # Yang-Baxter equation: (SxId)(IdxS)(SxId) = (IdxS)(SxId)(IdxS).
    for a, b, c in itertools.product(range(1, n + 1), repeat=3):
        p, q = switch(T, a, b)
        q2, r2 = switch(T, q, c)
        p3, q3 = switch(T, p, q2)
        left = (p3, q3, r2)
        q4, r4 = switch(T, b, c)
        p5, q5 = switch(T, a, q4)
        q6, r6 = switch(T, q5, r4)
        right = (p5, q6, r6)
        if left != right:
            failures.append(("yang-baxter", (a, b, c)))

    for a, b in itertools.product(range(1, n + 1), repeat=2):
        if switch_inv(T, *switch(T, a, b)) != (a, b) or \
                switch(T, *switch_inv(T, a, b)) != (a, b):
            failures.append(("switch-inverse", (a, b)))

    failures.sort()
    return ValidationReport(ok=not failures, failures=tuple(failures[:100]))


def alexander_biquandle(n: int, s: int, t: int) -> Biquandle:
    """Linear biquandle on {1..n}: with 0-based x, y,

        x ^ y    = t*x + (1 - s*t)*y      x _ y    = s*x
        x ^ ybar = t'*x + (1 - s'*t')*y   x _ ybar = s'*x      (mod n)

    where s', t' are the inverses of s, t mod n.  Requires gcd(s, n) =
    gcd(t, n) = 1.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if math.gcd(s, n) != 1:
        raise ValueError(f"s = {s} is not invertible modulo {n}")
    if math.gcd(t, n) != 1:
        raise ValueError(f"t = {t} is not invertible modulo {n}")
    si = pow(s, -1, n)
    ti = pow(t, -1, n)
    rng = range(n)
    up = [[(t * x + (1 - s * t) * y) % n + 1 for y in rng] for x in rng]
    down = [[(s * x) % n + 1 for _y in rng] for x in rng]
    upbar = [[(ti * x + (1 - si * ti) * y) % n + 1 for y in rng] for x in rng]
    downbar = [[(si * x) % n + 1 for _y in rng] for x in rng]
    return Biquandle.from_tables(up, down, upbar, downbar)


# ---------------------------------------------------------------------------
# File format: '#' starts a comment, then 2n rows of 2n whitespace-separated
# integers forming the block matrix [[B1, B2], [B3, B4]].


def read_biquandle(text: str, convention: BlockConvention = BlockConvention.DEFINITION) -> Biquandle:
    """Parse a 2n x 2n block matrix into a Biquandle.

    Rejects non-square input, odd dimension, and out-of-range entries,
    reporting 1-based line/column positions.
    """
    rows: list[list[int]] = []
    row_pos: list[list[int]] = []  # column of each entry, for error reports
    row_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        vals, cols = [], []
        col = 1
        for piece in line.split():
            start = line.index(piece, col - 1) + 1
            col = start + len(piece)
            try:
                vals.append(int(piece))
            except ValueError:
                raise ParseError(f"expected integer, got {piece!r}", lineno, start) from None
            cols.append(start)
        rows.append(vals)
        row_pos.append(cols)
        row_lines.append(lineno)

    if not rows:
        raise ParseError("empty biquandle matrix")
    size = len(rows)
    for i, r in enumerate(rows):
        if len(r) != size:
            raise ParseError(f"matrix is not square: row has {len(r)} entries, expected {size}",
                             row_lines[i])
    if size % 2 != 0:
        raise ParseError(f"matrix dimension {size} is odd; expected 2n x 2n", row_lines[0])
    n = size // 2
    for i, r in enumerate(rows):
        for j, v in enumerate(r):
            if not 1 <= v <= n:
                raise ParseError(f"entry {v} outside 1..{n}", row_lines[i], row_pos[i][j])

    blocks = [
        [rows[i][:n] for i in range(n)],
        [rows[i][n:] for i in range(n)],
        [rows[i][:n] for i in range(n, size)],
        [rows[i][n:] for i in range(n, size)],
    ]
    placement = _BLOCK_OF_OP[convention]
    tables = tuple(tuple(tuple(row) for row in blocks[placement[kind]]) for kind in OpKind)
    return Biquandle(tables)


def write_biquandle(T: Biquandle, convention: BlockConvention = BlockConvention.DEFINITION) -> str:
    """Serialize to the canonical block-matrix text (no comments)."""
    n = T.n
    placement = _BLOCK_OF_OP[convention]
    quadrant = {pos: T.tables[kind] for kind, pos in placement.items()}
    lines = []
    for i in range(n):
        lines.append(" ".join(str(v) for v in quadrant[0][i] + quadrant[1][i]))
    for i in range(n):
        lines.append(" ".join(str(v) for v in quadrant[2][i] + quadrant[3][i]))
    return "\n".join(lines) + "\n"
