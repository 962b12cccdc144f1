"""Exact linear algebra over Q and GF(p).

Rational answers are fractions.Fraction (always in lowest terms);
prime-field arithmetic uses integer residues 0..p-1.  No floating point
anywhere, so reduced forms and kernel bases are bit-for-bit reproducible.

Matrices are sparse: row i of an ExactMatrix is a dict {column: nonzero
value}.  There is one elimination path: RankTracker keeps its rows fully
reduced (each row is nonzero at its leading column, its pivot, and every
other row is 0 there), and row_reduce feeds it a matrix's rows by
descending leading column, building the reduced row echelon form without
fill-in: a stored row is 0 left of its pivot, so a new pivot left of
every stored one updates no stored row.  The RREF is unique, so the feed
order changes the work, not the result.  rref reads the stored rows, and
the kernel is read once off them (RankTracker.kernel, one sparse vector
per free column; kernel_basis is its dense form).  An independence or
membership test is one RankTracker.add.  The work follows the nonzeros;
a cocycle matrix is n^3 x n^2 with at most 6 nonzeros per row.

Over GF(p) a stored row is 1 at its pivot, and for p >= 3 a new row is
reduced in a dense scratch list (the sparse accumulator of Gilbert, Moler
and Schreiber, SIAM J. Matrix Anal. Appl. 13 (1992)), so a row that
depends on the stored ones builds no dict.  Over Q the elimination is
fraction-free (cf. E. H. Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22 (1968)): a
stored row is a primitive integer row whose pivot entry d is positive,
and it stands for itself divided by d.  A row with Fraction entries is
scaled by the lcm of its denominators on entry, and a kernel vector is
kept as an integer multiple until output, so Fractions are built only
for the vectors returned: the elimination runs on integers alone, with
no prime, no reconstruction and nothing to certify.  Over GF(2) a stored
row is an int with bit c set for column c, so a row update is one XOR
(cf. M. Albrecht et al., "Algorithm 898", ACM TOMS 37 (2010)); the rows
and kernel read out are the same dicts as over any other prime.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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
            if not v.denominator % self.p:
                raise ZeroDivisionError(f"{v} has no value in {self.name()}")
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
        if not (a if self.p is None else a % self.p):
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a) if self.p is None else pow(a, -1, self.p)


QQ = FieldSpec()


class ExactMatrix(Record, frozen=False):
    """Sparse matrix with exact entries: entries[i] maps the column (0-based)
    of every nonzero entry of row i to its value, a field element or an int
    (row_reduce takes ints into GF(p) by one remainder and into Q as integer
    rows; matvec's field arithmetic takes them as they are)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: list[dict]):
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @staticmethod
    def from_rows(rows: list, field: FieldSpec) -> "ExactMatrix":
        """Build from dense rows."""
        data = [[field.coerce(v) for v in row] for row in rows]
        r, c = len(data), len(data[0]) if data else 0
        if any(len(row) != c for row in data):
            raise ValueError("ragged rows")
        return ExactMatrix(r, c, [{j: v for j, v in enumerate(row) if v} for row in data])

    @property
    def data(self) -> list[list]:
        """Dense rows, zeros included."""
        return [[row.get(j, 0) for j in range(self.cols)] for row in self.entries]


def _axpy(w: dict, f, row: dict, p: int) -> None:
    """w -= f * row in place over GF(p), dropping entries that cancel."""
    get = w.get
    for c, x in row.items():
        y = (get(c, 0) - f * x) % p
        if y:
            w[c] = y
        else:
            del w[c]


def _combine(a: int, w: dict, b: int, row: dict) -> None:
    """w = a * w - b * row in place over Z, dropping entries that cancel."""
    if a != 1:
        for c in w:
            w[c] *= a
    get = w.get
    for c, x in row.items():
        y = get(c, 0) - b * x
        if y:
            w[c] = y
        else:
            del w[c]


def _bits(w: int) -> list[int]:
    """The columns of the set bits of w, ascending."""
    s, out = bin(w)[:1:-1], []
    c = s.find("1")
    while c >= 0:
        out.append(c)
        c = s.find("1", c + 1)
    return out


def primitive(w: dict) -> dict:
    """The integer row w over the gcd of its entries, its first entry positive."""
    g = gcd(*w.values())
    if w[min(w)] < 0:
        g = -g
    return w if g == 1 else {c: x // g for c, x in w.items()}


class RankTracker:
    """Incremental independence test: feed vectors, learn which extend the span.

    The stored rows are the reduced row echelon form of everything fed so
    far, each nonzero at its pivot, its leading column, and 0 at every
    other row's pivot: over GF(p) a row that is 1 at its pivot, over Q a
    primitive integer row with a positive pivot entry, standing for itself
    divided by that entry; over GF(2) an int with bit c set for column c,
    the pivots the bits of one int.  Over GF(p), p >= 3, the dense list _acc
    holds the row being reduced, all 0 between calls.  row_reduce feeds it
    a whole matrix.
    """

    def __init__(self, field: FieldSpec, dim: int):
        self.field = field
        self.dim = dim
        self._rows: dict[int, dict | int] = {}  # pivot column -> reduced row
        self._pivots = 0  # over GF(2): bit c set for each pivot column c
        self._acc = [0] * dim if field.p not in (None, 2) else None  # the row being reduced

    @property
    def rank(self) -> int:
        return len(self._rows)

    def rows(self) -> list[dict]:
        """The stored sparse rows in ascending pivot order: the nonzero rows
        of the reduced row echelon form of everything fed so far."""
        p = self.field.p
        if p == 2:
            return [dict.fromkeys(_bits(row), 1) for _, row in sorted(self._rows.items())]
        return [{c: x if p else Fraction(x, row[lead]) for c, x in row.items()}
                for lead, row in sorted(self._rows.items())]

    def kernel(self) -> list[tuple[int, dict]]:
        """The canonical null space basis of the stored rows R, sparse: per free
        column f, ascending, the vector v that is 1 at f, 0 at the other free
        columns and -R[row of c][f] at each pivot column c, as (m, m * v), m the
        lcm of the pivot entries v uses (so 1 over GF(p)) and m * v integers."""
        rows = self._rows
        uses: dict[int, list] = {f: [] for f in range(self.dim) if f not in rows}
        if self.field.p == 2:  # every bit of a row but its pivot is a free column
            for lead, row in rows.items():
                for c in _bits(row)[1:]:
                    uses[c].append(lead)
            return [(1, dict.fromkeys(used, -1) | {f: 1}) for f, used in uses.items()]
        for lead, row in rows.items():
            for c, x in row.items():
                if c != lead:
                    uses[c].append((lead, x, row[lead]))
        return [(m, {c: -x * (m // d) for c, x, d in used} | {f: m})
                for f, used in uses.items() for m in [lcm(*(d for _, _, d in used))]]

    def add(self, v) -> bool:
        """Reduce v against the stored rows; True iff v was independent.
        ValueError if v is longer than the tracker's dimension."""
        if len(v) > self.dim:
            raise ValueError(f"a vector of length {len(v)} does not fit dimension {self.dim}")
        return self._insert(enumerate(v))

    def _insert(self, items) -> bool:
        """add for a row given as its (column, value) pairs; over GF(p), p >= 3,
        scattered into _acc, cleared there by stored rows, gathered back."""
        p = self.field.p
        if p is None:
            return self._insert_integer(items)
        if p == 2:
            return self._insert_bits(items)
        coerce = self.field.coerce  # an int goes into GF(p) by one remainder
        acc, rows = self._acc, self._rows
        touched, hits = [], []
        try:
            for c, x in items:
                if x and (y := x % p if type(x) is int else coerce(x)):
                    acc[c] = y
                    touched.append(c)
                    if c in rows:
                        hits.append(c)
        except BaseException:  # a refused entry: leave acc all 0, as between calls
            for c in touched:
                acc[c] = 0
            raise
        # Stored rows are 0 at each other's pivots, so acc[c] still holds the
        # row's entry when the row with pivot c clears it: one pass clears all.
        for c in hits:
            f = acc[c]
            for k, x in rows[c].items():
                y = acc[k]
                if not y:
                    touched.append(k)
                acc[k] = (y - f * x) % p
        w = {}
        for c in touched:  # gather, leaving acc all 0
            if y := acc[c]:
                w[c] = y
                acc[c] = 0
        if not w:
            return False
        lead = min(w)
        inv = self.field.inv(w[lead])
        if inv != 1:
            w = {c: x * inv % p for c, x in w.items()}
        # w is 0 at every stored pivot, and a stored row that is nonzero at lead
        # has its pivot left of lead, so clearing lead keeps every row reduced.
        for row in rows.values():
            f = row.get(lead)
            if f:
                _axpy(row, f, w, p)
        rows[lead] = w
        return True

    def _insert_bits(self, items) -> bool:
        """_insert over GF(2), on int rows: clearing a column is one XOR."""
        coerce = self.field.coerce
        rows = self._rows
        get = rows.get
        w = 0
        for c, x in items:  # set bit c, then clear it by the row with pivot c, if any
            if (x if type(x) is int else coerce(x)) & 1:
                w ^= get(c, 0) ^ 1 << c
        if not w:
            return False
        bit = w & -w
        if self._pivots & (bit - 1):  # only a row whose pivot is left of bit can hold it
            for k, row in rows.items():
                if row & bit:
                    rows[k] = row ^ w
        rows[bit.bit_length() - 1] = w
        self._pivots |= bit
        return True

    def _insert_integer(self, items) -> bool:
        """_insert over Q: the same steps on integer rows.  A row of ints
        goes in as it is, any other row times the lcm of its denominators,
        and clearing column c of w with the row r, r[c] = d > 0, is
        w = (d * w - w[c] * r) / gcd(d, w[c])."""
        w = {c: x for c, x in items if x}
        if not all(type(x) is int for x in w.values()):
            coerce = self.field.coerce
            w = {c: y for c, x in w.items() if (y := coerce(x))}
            m = lcm(*(x.denominator for x in w.values()))
            w = {c: x.numerator * (m // x.denominator) for c, x in w.items()}
        rows = self._rows
        for c in [c for c in w if c in rows]:
            row = rows[c]
            d, f = row[c], w[c]
            g = gcd(d, f)
            _combine(d // g, w, f // g, row)
        if not w:
            return False
        w = primitive(w)
        lead = min(w)
        a = w[lead]
        for k, row in rows.items():
            f = row.get(lead)
            if f:
                g = gcd(a, f)
                _combine(a // g, row, f // g, w)
                rows[k] = primitive(row)
        rows[lead] = w
        return True


def row_reduce(M: ExactMatrix, F: FieldSpec) -> RankTracker:
    """A tracker fed the rows of M by descending leading column (a stable
    sort), so a new pivot mostly lands left of the stored ones, where no
    stored row has an entry to clear."""
    tracker = RankTracker(F, M.cols)
    for row in sorted(filter(None, M.entries), key=min, reverse=True):
        tracker._insert(row.items())
    return tracker


def _check_columns(M: ExactMatrix) -> None:
    """Raise ValueError unless every entry of M lies in columns 0..cols-1
    (row_reduce trusts them: cohomology feeds it matrices it built)."""
    for row in M.entries:
        if row:
            low, high = min(row), max(row)
            if low < 0 or high >= M.cols:
                raise ValueError(f"column {low if low < 0 else high} outside 0..{M.cols - 1}")


def rref(M: ExactMatrix, F: FieldSpec) -> tuple[ExactMatrix, list[int]]:
    """Reduced row echelon form of M over F (entries are taken into F).

    Returns (R, pivot columns 1-based ascending): the nonzero rows of R come
    first in pivot order, then zero rows up to M.rows.  Raises ValueError
    for an entry outside columns 0..cols-1.
    """
    _check_columns(M)
    reduced = row_reduce(M, F).rows()
    pivots = [min(row) + 1 for row in reduced]
    reduced += [{} for _ in range(M.rows - len(reduced))]
    return ExactMatrix(M.rows, M.cols, reduced), pivots


def dense(F: FieldSpec, cols: int, m: int, w: dict) -> tuple:
    """The vector w / m over F as a tuple of length cols, zeros included."""
    v = [F.zero()] * cols
    for c, x in w.items():
        v[c] = Fraction(x, m) if F.p is None else x % F.p
    return tuple(v)


def kernel_basis(M: ExactMatrix, F: FieldSpec) -> list[tuple]:
    """Canonical basis of the right null space of M: the dense form of
    RankTracker.kernel after eliminating M (see there).  Raises ValueError
    for an entry outside columns 0..cols-1."""
    _check_columns(M)
    return [dense(F, M.cols, m, w) for m, w in row_reduce(M, F).kernel()]


def matvec(M: ExactMatrix, v, F: FieldSpec):
    out = []
    for row in M.entries:
        s = F.zero()
        for c, a in row.items():
            if v[c]:
                s = F.add(s, F.mul(a, v[c]))
        out.append(s)
    return tuple(out)
