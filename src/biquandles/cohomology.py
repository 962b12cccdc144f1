"""Second Yang-Baxter cohomology of a finite biquandle, exact over Q or GF(p).

A 2-cochain assigns a field value to every ordered pair (x, y); it is stored
as a vector of length n^2 indexed by (x-1)*n + (y-1).  The cocycle condition
comes from the third Reidemeister move: for all triples (x, y, z),

    phi(x,y) + phi(x^y, z) + phi(y_x, z_(x^y))
        = phi(x, z_y) + phi(y, z) + phi(x^(z_y), y^z).

The coboundary of a 1-cochain lam is

    (d lam)(x, y) = lam(x) + lam(y) - lam(x^y) - lam(y_x),

which vanishing-tested against the cocycle matrix gives d2 = 0.  Cocycles
that also vanish at every kink witness pair are insensitive to the first
Reidemeister move ("RI-reduced"); the reduced second cohomology is spanned
by such cocycles modulo coboundaries.  Both bases read the kernel once off
one elimination (linalg.row_reduce, RankTracker.kernel) as sparse vectors,
integer multiples over Q, tested against the coboundary span as they are.
"""

from __future__ import annotations

from enum import Enum
from math import isqrt

from .core import Biquandle, ParseError, Record, kink_witnesses, setfield
from .linalg import ExactMatrix, FieldSpec, RankTracker, dense, matvec, primitive, row_reduce


class Cochain2(Record):
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: tuple):  # coeffs[(x-1)*n + (y-1)]
        setfield(self, "field", field)
        setfield(self, "coeffs", coeffs)
        if isqrt(len(self.coeffs)) ** 2 != len(self.coeffs):
            raise ValueError(f"{len(self.coeffs)} coefficients is not n^2 for any n")

    @property
    def n(self) -> int:
        return isqrt(len(self.coeffs))

    def value(self, x: int, y: int):
        n = self.n
        if not (1 <= x <= n and 1 <= y <= n):
            raise ValueError(f"pair ({x},{y}) outside 1..{n}")
        return self.coeffs[(x - 1) * n + (y - 1)]

    def nonzero(self) -> list[tuple[int, int, object]]:
        """The (x, y, coefficient) triples of the nonzero coefficients, in
        lexicographic order of (x, y)."""
        n = self.n
        return [(k // n + 1, k % n + 1, c) for k, c in enumerate(self.coeffs) if c]


def _check_size(T: Biquandle, v: Cochain2) -> None:
    if v.n != T.n:
        raise ValueError(f"cochain is over {v.n} elements, biquandle over {T.n}")


def cochain2_from_pairs(n: int, field: FieldSpec, pairs: dict) -> Cochain2:
    """Build a 2-cochain from {(x, y): coefficient}."""
    coeffs = [field.zero()] * (n * n)
    for (x, y), v in pairs.items():
        if not (1 <= x <= n and 1 <= y <= n):
            raise ValueError(f"pair ({x},{y}) outside 1..{n}")
        coeffs[(x - 1) * n + (y - 1)] = field.coerce(v)
    return Cochain2(field, tuple(coeffs))


def zero_cochain(n: int, field: FieldSpec) -> Cochain2:
    return Cochain2(field, tuple(field.zero() for _ in range(n * n)))


def cocycle_matrix(T: Biquandle) -> ExactMatrix:
    """n^3 x n^2 integer matrix of the cocycle condition (the coboundary
    map on 2-cochains over Z), one sparse row per triple (x, y, z) in
    lexicographic order; contributions accumulate.  The elimination takes
    the int entries into GF(p) by one remainder each, and over Q as they
    are, since it runs on integer rows there."""
    n = T.n
    up = [[v - 1 for v in row] for row in T.tables[0]]  # 0-based
    down = [[v - 1 for v in row] for row in T.tables[1]]
    down_of = list(zip(*down))  # down_of[y][z] = down[z][y]
    rows = []
    for x in range(n):
        ux, xn = up[x], x * n
        for y in range(n):  # one (x, y) block: its offsets, then a row per z
            xy, yx = ux[y], down[y][x]
            a, b, c, d, uy = xn + y, xy * n, yx * n, y * n, up[y]
            for z, zy, zxy in zip(range(n), down_of[y], down_of[xy]):
                k2, k3, k4, k5, k6 = b + z, c + zxy, xn + zy, d + z, ux[zy] * n + uy[z]
                row = {a: 1, k2: 1, k3: 1, k4: -1, k5: -1, k6: -1}
                if len(row) < 6:  # a repeated column: its coefficients accumulate
                    row = {}
                    for k, delta in zip((a, k2, k3, k4, k5, k6), (1, 1, 1, -1, -1, -1)):
                        row[k] = row.get(k, 0) + delta
                    row = {k: v for k, v in row.items() if v}
                rows.append(row)
    return ExactMatrix(n ** 3, n * n, rows)


def is_cocycle(T: Biquandle, v: Cochain2) -> bool:
    _check_size(T, v)
    return not any(matvec(cocycle_matrix(T), v.coeffs, v.field))


def _coboundary_span(T: Biquandle, field: FieldSpec) -> RankTracker:
    """The span of the 2-coboundaries: a tracker fed the coboundaries of the
    indicator 1-cochains, so add(v) is False exactly when v is a coboundary
    (or depends on what was added since)."""
    n = T.n
    up, down = T.tables[0], T.tables[1]
    images = [[0] * (n * n) for _ in range(n)]  # all n images, in one pass
    for x in range(n):
        for y in range(n):
            for a, d in ((x, 1), (y, 1), (up[x][y] - 1, -1), (down[y][x] - 1, -1)):
                images[a][x * n + y] += d
    span = RankTracker(field, n * n)
    for image in images:
        span.add(image)
    return span


def coboundary_basis(T: Biquandle, field: FieldSpec) -> list[Cochain2]:
    """Canonical basis of the space of 2-coboundaries: the nonzero rows of
    the reduced row echelon form of the indicator images, in pivot order."""
    zero, cols = field.zero(), T.n ** 2
    return [Cochain2(field, tuple(row.get(k, zero) for k in range(cols)))
            for row in _coboundary_span(T, field).rows()]


def _representatives(T: Biquandle, field: FieldSpec, rows: list[dict]) -> list[tuple]:
    """The canonical kernel basis vectors of the sparse rows that extend the
    coboundary span, in order, as RankTracker.kernel's (m, m * vector) pairs."""
    span = _coboundary_span(T, field)
    M = ExactMatrix(len(rows), T.n ** 2, rows)
    return [(m, w) for m, w in row_reduce(M, field).kernel() if span._insert(w.items())]


def cohomology_basis(T: Biquandle, field: FieldSpec) -> list[Cochain2]:
    """Representatives of H2: kernel basis vectors of the cocycle matrix
    that extend the span of the coboundaries, in canonical order."""
    return [Cochain2(field, dense(field, T.n ** 2, m, w))
            for m, w in _representatives(T, field, cocycle_matrix(T).entries)]


def ri_constraint_pairs(T: Biquandle) -> list[tuple[int, int]]:
    """Pairs where an RI-reduced cocycle must vanish, from every axiom 4
    witness: (x, a) for each witness x of a, and (a, y) for each witness y."""
    pairs = set()
    for a, (xs, ys) in kink_witnesses(T).items():
        for x in xs:
            pairs.add((x, a))
        for y in ys:
            pairs.add((a, y))
    return sorted(pairs)


def is_ri_reduced(T: Biquandle, v: Cochain2) -> bool:
    _check_size(T, v)
    return all(not v.value(x, y) for x, y in ri_constraint_pairs(T))


def reduced_cohomology_basis(T: Biquandle, field: FieldSpec) -> list[Cochain2]:
    """Representatives of the RI-reduced second cohomology.

    W = cocycles vanishing at all RI constraint pairs; representatives of
    W mod (W meet coboundaries) are found by rank extension over the
    coboundary basis.  Over Q each representative is normalized to a
    primitive integer vector with positive leading entry.
    """
    n = T.n
    rows = cocycle_matrix(T).entries
    rows += [{(x - 1) * n + (y - 1): 1} for x, y in ri_constraint_pairs(T)]
    reps = _representatives(T, field, rows)
    if field.is_rational:
        reps = [(1, primitive(w)) for _, w in reps]
    return [Cochain2(field, dense(field, n * n, m, w)) for m, w in reps]


class CochainClass(Enum):
    NOT_COCYCLE = "not-cocycle"
    COBOUNDARY = "coboundary"
    NONTRIVIAL_COCYCLE = "nontrivial-cocycle"


class ClassifiedCochain(Record):
    __slots__ = ("kind", "ri_reduced")

    def __init__(self, kind: CochainClass, ri_reduced: bool):
        setfield(self, "kind", kind)
        setfield(self, "ri_reduced", ri_reduced)


def classify_cochain(T: Biquandle, v: Cochain2) -> ClassifiedCochain:
    ri = is_ri_reduced(T, v)
    if not is_cocycle(T, v):
        return ClassifiedCochain(CochainClass.NOT_COCYCLE, ri)
    if not _coboundary_span(T, v.field).add(v.coeffs):
        return ClassifiedCochain(CochainClass.COBOUNDARY, ri)
    return ClassifiedCochain(CochainClass.NONTRIVIAL_COCYCLE, ri)


# ---------------------------------------------------------------------------
# Display and file format.


def format_cochain(v: Cochain2) -> str:
    """Chi-notation, pairs in lexicographic order: -X(1,3)-X(2,1)+2*X(3,3)."""
    parts = []
    for x, y, c in v.nonzero():
        if c == 1:
            parts.append(f"+X({x},{y})")
        elif c == -1:
            parts.append(f"-X({x},{y})")
        else:
            text = str(c)
            parts.append(f"{text if text.startswith('-') else '+' + text}*X({x},{y})")
    return "".join(parts).removeprefix("+") or "0"


def write_cochain(v: Cochain2) -> str:
    """One 'x y value' line per nonzero coefficient, after a field header."""
    lines = [f"field {v.field.name()}"] + [f"{x} {y} {c}" for x, y, c in v.nonzero()]
    return "\n".join(lines) + "\n"


def read_cochain(text: str, n: int) -> Cochain2:
    """Parse the cocycle file format; the pair range is checked against n."""
    field = None
    pairs: dict[tuple[int, int], object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if field is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "field":
                raise ParseError("expected 'field Q' or 'field Zp:<prime>' header", lineno)
            try:
                field = FieldSpec.from_name(parts[1])
            except ValueError as e:
                raise ParseError(str(e), lineno) from None
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'x y value', got {line!r}", lineno)
        try:
            x, y = int(parts[0]), int(parts[1])
            value = field.coerce(parts[2])
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad coefficient line {line!r}", lineno) from None
        if not (1 <= x <= n and 1 <= y <= n):
            raise ParseError(f"pair ({x},{y}) outside 1..{n}", lineno)
        if (x, y) in pairs:
            raise ParseError(f"duplicate pair ({x},{y})", lineno)
        pairs[(x, y)] = value
    if field is None:
        raise ParseError("missing field header")
    return cochain2_from_pairs(n, field, pairs)
