"""Exact linear algebra over Q and GF(p).

Rational arithmetic uses fractions.Fraction (always in lowest terms);
prime-field arithmetic uses integer residues 0..p-1.  No floating point
anywhere, so reduced forms and kernel bases are bit-for-bit reproducible.

Matrices are sparse: row i of an ExactMatrix is a dict {column: nonzero
value}.  One elimination kernel serves every entry point: RankTracker
keeps its rows fully reduced (each row is 1 at its leading column, its
pivot, and every other row is 0 there), so feeding it the rows of a matrix
one at a time builds the reduced row echelon form.  rref and kernel_basis
read their answers off that form, and an independence or membership test
is one RankTracker.add.  The work follows the nonzeros rather than rows x
columns; the cocycle matrices of cohomology.py are n^3 x n^2 with at most
6 nonzeros per row.  The RREF is unique, so the order rows are fed in
changes no result, only the work.  rref feeds them by descending leading
column: a stored row is 0 left of its pivot, so a new pivot left of every
stored one updates no stored row, and the stored rows do not fill in.

Over Q, kernel_basis of an integer matrix first eliminates modulo the
prime 2^61 - 1, lifts the kernel vectors by rational reconstruction and
certifies each of them by an exact product with the matrix (the argument
is in _modular_kernel_basis).  Whatever does not pass goes to exact
Fraction elimination, so no result depends on the prime.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from .core import Record, setfield

# Miller-Rabin with the first twelve prime bases is a proof of primality
# below this bound (Y. Jiang and Y. Deng, "Strong pseudoprimes to the first
# eight prime bases", Math. Comp. 83 (2014)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def _is_prime(p: int) -> bool:
    """Deterministic primality; ValueError at or above _MR_BOUND, where
    these bases prove nothing and no other test is quick."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if p >= _MR_BOUND:
        raise ValueError(f"modulus {p} is above the proven Miller-Rabin range "
                         f"(below {_MR_BOUND})")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldSpec(Record):
    """The rationals (p None) or the prime field of order p."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        setfield(self, "p", p)
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def name(self) -> str:
        return "Q" if self.p is None else f"Zp:{self.p}"

    @staticmethod
    def from_name(name: str) -> "FieldSpec":
        if name == "Q":
            return FieldSpec()
        if name.startswith("Zp:"):
            try:
                p = int(name[3:])
            except ValueError:
                raise ValueError(f"bad field name {name!r}") from None
            return FieldSpec(p)
        raise ValueError(f"bad field name {name!r}; expected Q or Zp:<prime>")

    # -- element arithmetic ------------------------------------------------

    def coerce(self, v):
        """Accept int, Fraction, or a 'p/q' string; an int goes into GF(p) by one remainder."""
        if type(v) is int and self.p is not None:
            return v % self.p
        if isinstance(v, str):
            v = Fraction(v)
        if self.p is None:
            return Fraction(v)
        if isinstance(v, Fraction):
            return v.numerator * pow(v.denominator, -1, self.p) % self.p
        return v % self.p

    def zero(self):
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a) if self.p is None else pow(a, -1, self.p)


QQ = FieldSpec()


class ExactMatrix(Record, frozen=False):
    """Sparse matrix with exact entries: entries[i] maps the column
    (0-based) of every nonzero entry of row i to its value.  Entries are
    field elements or integers: the elimination (rref, kernel_basis)
    coerces them into its field, and matvec's field arithmetic takes
    integers as they are."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: list[dict]):
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @staticmethod
    def from_rows(rows: list, field: FieldSpec) -> "ExactMatrix":
        """Build from dense rows."""
        data = [[field.coerce(v) for v in row] for row in rows]
        r = len(data)
        c = len(data[0]) if data else 0
        if any(len(row) != c for row in data):
            raise ValueError("ragged rows")
        return ExactMatrix(r, c, [{j: v for j, v in enumerate(row) if v} for row in data])

    @property
    def data(self) -> list[list]:
        """Dense rows, zeros included."""
        return [[row.get(j, 0) for j in range(self.cols)] for row in self.entries]


def _axpy(w: dict, f, row: dict, p: int | None) -> None:
    """w -= f * row in place, dropping entries that cancel; p None is Q."""
    get = w.get
    if p is None:
        for c, x in row.items():
            y = get(c, 0) - f * x
            if y:
                w[c] = y
            else:
                del w[c]
    else:
        for c, x in row.items():
            y = (get(c, 0) - f * x) % p
            if y:
                w[c] = y
            else:
                del w[c]


class RankTracker:
    """Incremental independence test: feed vectors, learn which extend the span.

    The stored rows are the reduced row echelon form of everything fed so
    far: each is 1 at its pivot, its leading column, and 0 at every other
    row's pivot.  This is the elimination kernel behind rref.
    """

    def __init__(self, field: FieldSpec, dim: int):
        self.field = field
        self.dim = dim
        self._rows: dict[int, dict] = {}  # pivot column -> reduced sparse row

    @property
    def rank(self) -> int:
        return len(self._rows)

    def rows(self) -> list[dict]:
        """The stored sparse rows in ascending pivot order: the nonzero rows
        of the reduced row echelon form of everything fed so far."""
        return [self._rows[c] for c in sorted(self._rows)]

    def add(self, v) -> bool:
        """Reduce v against the stored rows; True iff v was independent."""
        coerce = self.field.coerce
        return self._insert({c: y for c, x in enumerate(v) if x and (y := coerce(x))})

    def _insert(self, w: dict) -> bool:
        """add for a sparse row of nonzero field elements; w is consumed."""
        p = self.field.p
        rows = self._rows
        # Stored rows are 0 at each other's pivots, so one pass clears every pivot of w.
        for c in [c for c in w if c in rows]:
            _axpy(w, w[c], rows[c], p)
        if not w:
            return False
        lead = min(w)
        inv = self.field.inv(w[lead])
        if inv != 1:
            w = {c: x * inv for c, x in w.items()} if p is None else \
                {c: x * inv % p for c, x in w.items()}
        # w is 0 at every stored pivot, and a stored row that is nonzero at lead
        # has its pivot left of lead, so clearing lead keeps every row reduced.
        for row in rows.values():
            f = row.get(lead)
            if f:
                _axpy(row, f, w, p)
        rows[lead] = w
        return True


def rref(M: ExactMatrix, F: FieldSpec) -> tuple[ExactMatrix, list[int]]:
    """Reduced row echelon form of M over F (entries are coerced into F).

    Returns (R, pivot columns 1-based ascending): the nonzero rows of R come
    first in pivot order, then zero rows up to M.rows.  Rows are fed by
    descending leading column (a stable sort), so a new pivot mostly lands
    left of the stored ones, where no stored row has an entry to clear.
    """
    tracker = RankTracker(F, M.cols)
    coerce = F.coerce
    for row in sorted(filter(None, M.entries), key=min, reverse=True):
        tracker._insert({c: y for c, x in row.items() if (y := coerce(x))})
    reduced = tracker.rows()
    pivots = [min(row) + 1 for row in reduced]
    reduced += [{} for _ in range(M.rows - len(reduced))]
    return ExactMatrix(M.rows, M.cols, reduced), pivots


def _free_parts(R: ExactMatrix, pivots: list[int], F: FieldSpec) -> dict[int, dict]:
    """{free column f: {pivot column c: entry c of the kernel vector of f}}.

    The kernel vector of f is 1 at f, 0 at the other free columns, and
    -R[row of c][f] at each pivot column c, which is nonzero only left of f.
    """
    pivot_cols = [p - 1 for p in pivots]
    is_pivot = set(pivot_cols)
    parts: dict[int, dict] = {c: {} for c in range(R.cols) if c not in is_pivot}
    for pc, row in zip(pivot_cols, R.entries):
        for c, x in row.items():
            if c != pc:
                parts[c][pc] = F.neg(x)
    return parts


def _dense_vectors(parts: dict[int, dict], cols: int, F: FieldSpec) -> list[tuple]:
    basis = []
    for fc, part in parts.items():
        v = [F.zero()] * cols
        v[fc] = F.one()
        for c, x in part.items():
            v[c] = x
        basis.append(tuple(v))
    return basis


def kernel_basis(M: ExactMatrix, F: FieldSpec) -> list[tuple]:
    """Canonical basis of the right null space.

    One vector per free column, in ascending column order; each vector has
    a 1 at its own free column and 0 at every other free column.  Over Q an
    integer matrix is solved modulo a prime first (_modular_kernel_basis).
    """
    if F.is_rational and all(x.denominator == 1 for row in M.entries for x in row.values()):
        basis = _modular_kernel_basis(M)
        if basis is not None:
            return basis
    R, pivots = rref(M, F)
    return _dense_vectors(_free_parts(R, pivots, F), M.cols, F)


MODULAR_PRIME = 2 ** 61 - 1


def _rational(u: int, m: int) -> Fraction | None:
    """The a/b with |a|, b <= sqrt(m/2) and a = b*u mod m, if there is one
    (Wang's rational reconstruction by the half-extended Euclidean algorithm)."""
    bound = isqrt(m // 2)
    if u <= bound:
        return Fraction(u)
    if m - u <= bound:
        return Fraction(u - m)
    r0, r1 = m, u
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if not s1 or abs(s1) > bound:
        return None
    q = Fraction(r1, s1)
    return q if q.denominator == abs(s1) else None


def _modular_kernel_basis(M: ExactMatrix) -> list[tuple] | None:
    """kernel_basis(M, QQ) for an integer matrix, computed modulo
    MODULAR_PRIME; None when the result cannot be certified.

    Eliminate modulo p = MODULAR_PRIME and rationally reconstruct every
    entry of the kernel vectors v_f, one per free column f mod p.  Each v_f
    is 1 at f, 0 at the other free columns, and otherwise nonzero only at
    pivot columns left of f.  Certify each by M v_f = 0, exactly over Q.

    Why that suffices: the v_f are independent (they restrict to unit
    vectors on the free columns), so if all pass, rank_Q(M) <= rank_p(M);
    and rank_Q(M) >= rank_p(M) for every integer matrix, since a minor
    nonzero mod p is nonzero over Q.  So the ranks agree and the v_f span
    the kernel over Q.  Each v_f shows column f to be a combination of the
    columns left of it, so f is free over Q as well: the free columns
    agree, and a kernel vector is fixed by its free coordinates, so the v_f
    are exactly the canonical basis that exact elimination returns.  For
    the same reason a full rank mod p needs no reconstruction: the rank
    over Q can only be larger, so the kernel is zero.
    """
    GF = FieldSpec(MODULAR_PRIME)
    R, pivots = rref(M, GF)
    parts = _free_parts(R, pivots, GF)
    ints = [{c: x.numerator for c, x in row.items()} for row in M.entries]
    lifted = {}
    for fc, part in parts.items():
        v = {}
        for c, x in part.items():
            q = _rational(x, MODULAR_PRIME)
            if q is None:
                return None
            v[c] = q
        scale = lcm(*(q.denominator for q in v.values()))
        u = {c: q.numerator * (scale // q.denominator) for c, q in v.items()}
        u[fc] = scale
        for row in ints:
            if sum(a * u[c] for c, a in row.items() if c in u):
                return None
        lifted[fc] = v
    return _dense_vectors(lifted, M.cols, QQ)


def matvec(M: ExactMatrix, v, F: FieldSpec):
    out = []
    for row in M.entries:
        s = F.zero()
        for c, a in row.items():
            if v[c]:
                s = F.add(s, F.mul(a, v[c]))
        out.append(s)
    return tuple(out)
