"""Second cohomology: cocycle condition, coboundaries, reduced basis, files."""

import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from conftest import Cochain1, coboundary_of, random_alexander, reference_cocycle_rows, relabel
from test_linalg import reference_kernel, reference_rref

from biquandles import linalg
from biquandles.cohomology import (Cochain2, ClassifiedCochain, CochainClass,
                                   classify_cochain, coboundary_basis,
                                   cochain2_from_pairs,
                                   cocycle_matrix, cohomology_basis,
                                   format_cochain, is_cocycle, is_ri_reduced,
                                   read_cochain, reduced_cohomology_basis,
                                   ri_constraint_pairs, write_cochain,
                                   zero_cochain)
from biquandles.core import ParseError, alexander_biquandle
from biquandles.linalg import FieldSpec, RankTracker, kernel_basis

Q = FieldSpec.from_name("Q")
F2 = FieldSpec.from_name("Zp:2")
F3 = FieldSpec.from_name("Zp:3")
F5 = FieldSpec.from_name("Zp:5")
FBIG = FieldSpec(2 ** 61 - 1)
FIELDS = [Q, F2, F3, F5]

# Alexander tables (n, s, t) of orders 3-8, with s = t and s != t
ALEXANDER = [(3, 1, 2), (3, 2, 2), (4, 1, 3), (4, 3, 3), (5, 2, 3), (5, 4, 2),
             (6, 1, 5), (6, 5, 5), (7, 2, 3), (7, 3, 5), (8, 3, 5), (8, 5, 7)]


@pytest.fixture(scope="module")
def tables(kishino_T):
    return [("kishinoT", kishino_T)] + [
        (f"A({n},{s},{t})", alexander_biquandle(n, s, t)) for n, s, t in ALEXANDER]


def reference_coboundary_basis(T, field):
    """Dense images of the indicator 1-cochains, row-reduced by the dense
    reference elimination; the reference for the coboundary span."""
    n = T.n
    images = []
    for a in range(1, n + 1):
        lam = Cochain1(field, tuple(field.one() if i == a - 1 else field.zero()
                                    for i in range(n)))
        images.append(list(coboundary_of(T, lam).coeffs))
    R, pivots = reference_rref(images, field)
    return [Cochain2(field, tuple(R[i])) for i in range(len(pivots))]


def reference_primitive(coeffs: tuple) -> tuple:
    """Scale a rational vector to primitive integers, first nonzero positive."""
    denoms = [c.denominator for c in coeffs]
    scale = lcm(*denoms) if denoms else 1
    ints = [int(c * scale) for c in coeffs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g:
        ints = [v // g for v in ints]
    first = next((v for v in ints if v), 0)
    if first < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints)


def reference_h2_basis(T, field, reduced: bool) -> list[Cochain2]:
    """H^2 representatives the dense way: the reference kernel of the
    reference cocycle rows (and, if reduced, the RI indicator rows), each
    vector kept if it raises the rank of the reference coboundary basis and
    the vectors kept so far, made primitive over Q when reduced."""
    n = T.n
    rows = [[row.get(k, 0) for k in range(n * n)] for row in reference_cocycle_rows(T)]
    if reduced:
        rows += [[int(k == (x - 1) * n + y - 1) for k in range(n * n)]
                 for x, y in ri_constraint_pairs(T)]
    kept = [list(b.coeffs) for b in reference_coboundary_basis(T, field)]
    reps = []
    for v in reference_kernel(rows, n * n, field):
        if len(reference_rref(kept + [list(v)], field)[1]) > len(kept):
            kept.append(list(v))
            reps.append(v)
    if reduced and field.is_rational:
        reps = [reference_primitive(v) for v in reps]
    return [Cochain2(field, v) for v in reps]


REDUCED_BASIS_TEXT = [
    "X(1,3)+X(2,1)+X(2,2)+X(3,2)",
    "X(1,3)+X(1,4)+X(2,1)-X(2,3)+X(3,1)-X(3,4)",
]


def test_reduced_basis_over_q(kishino_T):
    basis = reduced_cohomology_basis(kishino_T, Q)
    assert len(basis) == 2
    assert [format_cochain(v) for v in basis] == REDUCED_BASIS_TEXT
    for v in basis:
        assert is_cocycle(kishino_T, v)
        assert is_ri_reduced(kishino_T, v)


def test_reduced_basis_is_primitive(kishino_T):
    from math import gcd
    for v in reduced_cohomology_basis(kishino_T, Q):
        assert all(c.denominator == 1 for c in v.coeffs)
        ints = [c.numerator for c in v.coeffs]
        g = 0
        for c in ints:
            g = gcd(g, c)
        assert g == 1
        assert next(c for c in ints if c) > 0


def test_shipped_cocycles_match_basis(data_dir, kishino_T):
    phi1 = read_cochain((data_dir / "phi1.cyc").read_text(), 4)
    phi2 = read_cochain((data_dir / "phi2.cyc").read_text(), 4)
    psi1, psi2 = reduced_cohomology_basis(kishino_T, Q)
    assert tuple(Q.neg(c) for c in psi1.coeffs) == phi1.coeffs
    assert psi2.coeffs == phi2.coeffs
    for phi in (phi1, phi2):
        got = classify_cochain(kishino_T, phi)
        assert got == ClassifiedCochain(CochainClass.NONTRIVIAL_COCYCLE, True)


def test_reduced_dims_mod_p(kishino_T):
    assert len(reduced_cohomology_basis(kishino_T, F5)) == 2
    assert len(reduced_cohomology_basis(kishino_T, F2)) == 4
    for v in reduced_cohomology_basis(kishino_T, F5):
        assert is_cocycle(kishino_T, v)
        assert is_ri_reduced(kishino_T, v)


@pytest.mark.parametrize("n,s,t,reduced,unreduced", [
    (7, 2, 3, 0, 1), (9, 2, 4, 0, 1), (10, 3, 7, 22, 28), (13, 5, 8, 36, 43),
    (17, 3, 6, 16, 19)])
def test_alexander_h2_dimensions_over_q(n, s, t, reduced, unreduced):
    A = alexander_biquandle(n, s, t)
    assert len(reduced_cohomology_basis(A, Q)) == reduced
    assert len(cohomology_basis(A, Q)) == unreduced


def test_elimination_work_pinned(monkeypatch):
    # Entry updates made by the elimination in each field.  Over Q and over
    # GF(p), p >= 3, a stored row read by its pivot to clear that pivot from
    # the row being reduced makes len(row) in the accumulator, and each
    # update of a stored row by a new one, linalg._combine(a, row, b, w)
    # over Q and linalg._axpy(row, f, w, p) over GF(p), makes len(w).  Feeding
    # the cocycle rows top to bottom instead of by descending leading column
    # fills the stored rows in: 486,973 over Q on A(13,2,3), 13,688,785
    # (thirty times as long) on A(23,2,3).  Over GF(2) a row update is an
    # XOR of int rows, and neither function is called.
    A13, A23 = alexander_biquandle(13, 2, 3), alexander_biquandle(23, 2, 3)
    with monkeypatch.context() as m:
        for name in ("_axpy", "_combine"):
            m.setattr(linalg, name, None)
        assert reduced_cohomology_basis(A13, F2) == []
    updates = 0

    def counted(update, row_arg):
        def update_counted(*args):
            nonlocal updates
            updates += len(args[row_arg])
            update(*args)
        return update_counted

    class CountedRows(dict):
        def __getitem__(self, c):
            nonlocal updates
            row = super().__getitem__(c)
            updates += len(row)
            return row

    init = RankTracker.__init__

    def init_counted(self, field, dim):
        init(self, field, dim)
        self._rows = CountedRows()

    for A, F, pin in ((A13, Q, 50390), (A13, FieldSpec(13), 57537), (A13, F3, 43091),
                      (A23, Q, 561636), (A23, FieldSpec(23), 538485)):
        updates = 0
        with monkeypatch.context() as m:
            if F.is_rational:
                m.setattr(linalg, "_combine", counted(linalg._combine, 3))
            else:
                m.setattr(linalg, "_axpy", counted(linalg._axpy, 2))
            m.setattr(RankTracker, "__init__", init_counted)
            assert reduced_cohomology_basis(A, F) == []
        assert updates == pin, (A.n, F.name())


def test_cocycle_matrix_matches_reference_rows(kishino_T):
    # kishinoT, every Alexander table with unit parameters up to order 10
    # (A(6,5,5) and A(8,3,5) among them have rows with a repeated column,
    # whose coefficients accumulate or cancel), and a seeded relabelling of each
    def units(n):
        return [u for u in range(1, n) if gcd(u, n) == 1] or [1]

    tables = [("kishinoT", kishino_T)] + [
        (f"A({n},{s},{t})", alexander_biquandle(n, s, t))
        for n in range(1, 11) for s in units(n) for t in units(n)]
    rng = random.Random(20261020)
    tables += [(f"{name} relabelled", relabel(T, rng.sample(range(1, T.n + 1), T.n)))
               for name, T in tables]
    short = {}  # rows with a repeated column, per table
    for name, T in tables:
        want = reference_cocycle_rows(T)
        M = cocycle_matrix(T)
        assert (M.rows, M.cols) == (T.n ** 3, T.n ** 2), name
        assert M.entries == want, name
        short[name] = sum(len(row) < 6 for row in want)
    assert len(tables) == 270
    assert min(short["A(6,5,5)"], short["A(8,3,5)"], short["A(8,3,5) relabelled"]) > 0
    assert sum(short.values()) < sum(T.n ** 3 for _, T in tables)


@pytest.mark.parametrize("key", ["kishinoT", (5, 2, 3), (6, 5, 5), (7, 3, 5)], ids=str)
def test_bases_match_dense_reference(key, kishino_T):
    # The bases themselves, entry types included (Fraction over Q, int
    # over Z_p), on a seeded relabelling of each table.
    T = kishino_T if key == "kishinoT" else alexander_biquandle(*key)
    T = relabel(T, random.Random(20261020 + T.n).sample(range(1, T.n + 1), T.n))
    nonzero = 0
    for F in (Q, F2, F3, F5, FieldSpec(7), FBIG):
        for fn, reduced in ((cohomology_basis, False), (reduced_cohomology_basis, True)):
            got, want = fn(T, F), reference_h2_basis(T, F, reduced)
            assert got == want, f"{fn.__name__} over {F.name()}"
            types = [type(c) for v in got for c in v.coeffs]
            assert types == [type(c) for v in want for c in v.coeffs]
            assert set(types) <= {Fraction if F.is_rational else int}
            nonzero += bool(got)
    assert nonzero >= 6


def test_gf2_bases_match_dense_reference(blank_search):
    # The Z2 bases come off int rows (linalg.RankTracker over GF(2)); they
    # must equal the dense reference, entry types included, on A(8,3,5),
    # A(10,3,7), all 36 order-3 tables and a seeded relabelling of each.
    tables = [alexander_biquandle(8, 3, 5), alexander_biquandle(10, 3, 7)]
    tables += blank_search(3).found
    rng = random.Random(20261021)
    tables += [relabel(T, rng.sample(range(1, T.n + 1), T.n)) for T in tables]
    assert len(tables) == 76
    dims = []
    for T in tables:
        got = [cohomology_basis(T, F2), reduced_cohomology_basis(T, F2), coboundary_basis(T, F2)]
        want = [reference_h2_basis(T, F2, False), reference_h2_basis(T, F2, True),
                reference_coboundary_basis(T, F2)]
        assert got == want, T.tables
        assert {type(c) for basis in got for v in basis for c in v.coeffs} <= {int}
        dims.append(tuple(map(len, got)))
    assert (8, 6) == dims[0][:2] and (28, 22) == dims[1][:2]
    assert len(set(dims)) > 3


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cocycle_kernel_matches_dense_reference(n):
    T = random_alexander(random.Random(n), n)
    M = cocycle_matrix(T)
    dense = M.data
    for F in (Q, F2, F5, FBIG):
        assert kernel_basis(M, F) == reference_kernel(dense, n * n, F), F.name()


def test_unreduced_h2(kishino_T):
    basis = cohomology_basis(kishino_T, Q)
    assert len(basis) == 3
    assert sum(1 for v in basis if not is_ri_reduced(kishino_T, v)) == 1
    span = RankTracker(Q, 16)
    for b in coboundary_basis(kishino_T, Q):
        span.add(b.coeffs)
    for v in basis:
        assert is_cocycle(kishino_T, v)
        assert span.add(v.coeffs)  # independent of the coboundaries and the others


def test_cocycle_matrix_shape(kishino_T):
    M = cocycle_matrix(kishino_T)
    assert (M.rows, M.cols) == (64, 16)
    assert all(len(row) <= 6 and all(row.values()) for row in M.entries)
    A = alexander_biquandle(3, 1, 2)
    M3 = cocycle_matrix(A)
    assert (M3.rows, M3.cols) == (27, 9)


def test_coboundaries_are_cocycles(kishino_T):
    # d2 = 0: the coboundary of any 1-cochain satisfies the cocycle rows.
    rng = random.Random(20260814)
    structures = [(kishino_T, Q), (kishino_T, F5),
                  (alexander_biquandle(3, 1, 2), Q),
                  (alexander_biquandle(5, 2, 3), F5)]
    for T, F in structures:
        for _ in range(5):
            lam = Cochain1(F, tuple(F.coerce(rng.randrange(-9, 10))
                                    for _ in range(T.n)))
            cb = coboundary_of(T, lam)
            assert is_cocycle(T, cb)
            assert classify_cochain(T, cb).kind is CochainClass.COBOUNDARY


def test_constant_cochain_has_zero_coboundary(kishino_T):
    lam = Cochain1(Q, tuple(Q.coerce(7) for _ in range(4)))
    assert not any(coboundary_of(kishino_T, lam).coeffs)


def test_coboundary_basis_dimension(kishino_T):
    assert len(coboundary_basis(kishino_T, Q)) == 3


def test_coboundary_basis_matches_reference(tables):
    for name, T in tables:
        for F in FIELDS:
            got = coboundary_basis(T, F)
            want = reference_coboundary_basis(T, F)
            assert got == want, f"{name} over {F.name()}"
            leads = [next(k for k, c in enumerate(v.coeffs) if c) for v in got]
            assert leads == sorted(set(leads))  # echelon form, in pivot order
            assert [type(c) for v in got for c in v.coeffs] == \
                [type(c) for v in want for c in v.coeffs]


def test_universal_coefficients(tables):
    # H^2 of an integer cochain complex: dim over Z_p = free rank + p-torsion
    # terms >= free rank = dim over Q.
    for name, T in tables:
        over_q = len(cohomology_basis(T, Q))
        for F in (F2, F3, F5):
            assert len(cohomology_basis(T, F)) >= over_q, f"{name} over {F.name()}"


@pytest.mark.parametrize("n", [5, 8, 11, 13])
def test_universal_coefficients_on_relabelled_tables(n):
    # The same check on seeded Alexander tables nobody picked, in two
    # labellings; relabelling must not move either dimension.
    rng = random.Random(20261019 + n)
    T = random_alexander(rng, n)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    U = relabel(T, perm)
    over_q = len(cohomology_basis(T, Q)), len(reduced_cohomology_basis(T, Q))
    for F in [Q] + [FieldSpec(p) for p in (2, 3, 5, 7, 11, 13)] + [FBIG]:
        dims = len(cohomology_basis(T, F)), len(reduced_cohomology_basis(T, F))
        assert dims == (len(cohomology_basis(U, F)), len(reduced_cohomology_basis(U, F)))
        assert dims[0] >= over_q[0], F.name()
        if F is FBIG:
            # no torsion of these tables has order 2^61 - 1, so the GF(p)
            # elimination must give Q's dimensions, reduced ones included
            assert dims == over_q


def test_order_4_census_h2(blank_search):
    # Over Q and over GF(2^61 - 1) every census table has the same reduced
    # and unreduced H^2 dimensions, and over Z2, Z3 and Z5 its unreduced
    # dimension is never below Q's.  Every reduced basis vector over Q is
    # primitive integers with a positive leading entry, and classify_cochain
    # (whose coboundary test is RankTracker.add, not the bases' sparse span
    # test) calls it a nontrivial RI-reduced cocycle.
    nontrivial = ClassifiedCochain(CochainClass.NONTRIVIAL_COCYCLE, True)

    def primitive(v):
        c = [x for x in v.coeffs if x]
        return all(x.denominator == 1 for x in c) and c[0] > 0 and \
            gcd(*(x.numerator for x in c)) == 1

    start = time.perf_counter()
    found = blank_search(4).found
    bad, bad_basis = [], []
    for i, T in enumerate(found):
        basis = reduced_cohomology_basis(T, Q)
        q = len(cohomology_basis(T, Q)), len(basis)
        if (len(cohomology_basis(T, FBIG)), len(reduced_cohomology_basis(T, FBIG))) != q or \
                any(len(cohomology_basis(T, F)) < q[0] for F in (F2, F3, F5)):
            bad.append(i)
        if not all(primitive(v) and classify_cochain(T, v) == nontrivial for v in basis):
            bad_basis.append(i)
    assert (len(found), bad, bad_basis) == (744, [], [])
    assert time.perf_counter() - start < 120


def test_classify_random_sums(tables):
    # A nonzero combination of H^2 representatives plus any coboundary is
    # a nontrivial cocycle; a coboundary alone is a coboundary.
    rng = random.Random(20261018)
    nontrivial = 0
    for name, T in tables:
        for F in FIELDS:
            basis = cohomology_basis(T, F)
            for _ in range(3):
                lam = Cochain1(F, tuple(F.coerce(rng.randrange(-9, 10)) for _ in range(T.n)))
                cb = coboundary_of(T, lam).coeffs
                got = classify_cochain(T, Cochain2(F, cb))
                assert got.kind is CochainClass.COBOUNDARY, f"{name} over {F.name()}"
                if not basis:
                    continue
                coeffs = [F.coerce(rng.randrange(-9, 10)) for _ in basis]
                if not any(coeffs):
                    coeffs[rng.randrange(len(coeffs))] = F.one()
                v = cb
                for c, b in zip(coeffs, basis):
                    v = tuple(F.add(x, F.mul(c, y)) for x, y in zip(v, b.coeffs))
                got = classify_cochain(T, Cochain2(F, v))
                assert got.kind is CochainClass.NONTRIVIAL_COCYCLE, f"{name} over {F.name()}"
                nontrivial += 1
    assert nontrivial >= 30


def test_ri_constraint_pairs(kishino_T):
    assert ri_constraint_pairs(kishino_T) == [(1, 1), (2, 4), (3, 3), (4, 2)]


@pytest.mark.parametrize("n,t", [(3, 2), (5, 2), (5, 4)])
def test_ri_pairs_diagonal_when_down_trivial(n, t):
    # s = 1 makes the downward operations trivial, so each element is its
    # own kink witness and the constraints collapse to the diagonal.
    A = alexander_biquandle(n, 1, t)
    assert ri_constraint_pairs(A) == [(a, a) for a in range(1, n + 1)]


def test_classify_non_cocycle(kishino_T):
    v = cochain2_from_pairs(4, Q, {(1, 2): 1})
    assert classify_cochain(kishino_T, v).kind is CochainClass.NOT_COCYCLE


def test_classify_zero_cochain(kishino_T):
    got = classify_cochain(kishino_T, zero_cochain(4, Q))
    assert got == ClassifiedCochain(CochainClass.COBOUNDARY, True)


def test_ri_pair_indicator_is_unreduced_cocycle(kishino_T):
    # The indicator of the four constraint pairs happens to be a genuine
    # cocycle for this biquandle, but by construction not an RI-reduced one.
    v = cochain2_from_pairs(4, Q, {(1, 1): 1, (2, 4): 1, (3, 3): 1, (4, 2): 1})
    got = classify_cochain(kishino_T, v)
    assert got == ClassifiedCochain(CochainClass.NONTRIVIAL_COCYCLE, False)


def test_cochain_accessors():
    v = cochain2_from_pairs(3, Q, {(2, 3): "5/3"})
    assert v.n == 3
    assert v.value(2, 3) == Q.coerce("5/3")
    assert v.value(1, 1) == 0
    with pytest.raises(ValueError, match="outside"):
        cochain2_from_pairs(3, Q, {(0, 1): 1})


@pytest.mark.parametrize("x,y", [(1, 0), (0, 1), (3, 1), (1, 3), (-1, 2)])
def test_cochain_value_checks_its_pair(x, y):
    # (1, 0) once read coefficient (2, 2) through a negative index
    v = cochain2_from_pairs(2, Q, {(2, 2): 5})
    with pytest.raises(ValueError, match=rf"pair \({x},{y}\) outside 1\.\.2"):
        v.value(x, y)
    assert v.value(2, 2) == 5


def test_cochain_length_must_be_a_square():
    assert Cochain2(Q, (Q.zero(),) * 16).n == 4
    assert Cochain2(Q, ()).n == 0
    for length in (2, 5, 15, 17):
        with pytest.raises(ValueError, match="not n\\^2"):
            Cochain2(Q, (Q.zero(),) * length)


def test_format_cochain_cases():
    assert format_cochain(zero_cochain(2, Q)) == "0"
    v = cochain2_from_pairs(2, Q, {(1, 1): -1, (1, 2): 2, (2, 1): "1/2"})
    assert format_cochain(v) == "-X(1,1)+2*X(1,2)+1/2*X(2,1)"


@pytest.mark.parametrize("name,text,file", [
    ("Q", "X(1,1)-X(1,3)-3/2*X(2,2)+5*X(3,1)+2*X(3,3)",
     "field Q\n1 1 1\n1 3 -1\n2 2 -3/2\n3 1 5\n3 3 2\n"),
    ("Zp:7", "X(1,1)+6*X(1,3)+2*X(2,2)+5*X(3,1)+2*X(3,3)",
     "field Zp:7\n1 1 1\n1 3 6\n2 2 2\n3 1 5\n3 3 2\n"),
], ids=["Q", "Zp:7"])
def test_format_and_write_cochain_pinned(name, text, file):
    field = FieldSpec.from_name(name)
    v = cochain2_from_pairs(3, field, {(1, 1): 1, (1, 3): -1, (2, 2): "-3/2",
                                       (3, 1): "5/1", (3, 3): 2})
    assert (format_cochain(v), write_cochain(v)) == (text, file)
    pairs = [(1, 1), (1, 3), (2, 2), (3, 1), (3, 3)]
    assert v.nonzero() == [(x, y, v.value(x, y)) for x, y in pairs]


def test_nonzero_terms():
    assert zero_cochain(3, Q).nonzero() == []
    v = cochain2_from_pairs(3, F5, {(3, 2): 4, (1, 3): "1/2", (2, 1): 5})
    assert v.nonzero() == [(1, 3, 3), (3, 2, 4)]


def test_write_read_roundtrip(data_dir, kishino_T):
    for name in ("phi1.cyc", "phi2.cyc"):
        text = (data_dir / name).read_text()
        v = read_cochain(text, 4)
        assert write_cochain(v) == text
        assert read_cochain(write_cochain(v), 4) == v
    w = cochain2_from_pairs(3, F5, {(1, 2): 3, (3, 3): "1/2"})
    assert read_cochain(write_cochain(w), 3) == w
    assert "field Zp:5" in write_cochain(w)


def test_read_cochain_errors():
    with pytest.raises(ParseError, match="missing field header"):
        read_cochain("# nothing here\n", 4)
    with pytest.raises(ParseError, match="field"):
        read_cochain("hello\n1 1 1\n", 4)
    with pytest.raises(ParseError, match="expected 'x y value'"):
        read_cochain("field Q\n1 1\n", 4)
    with pytest.raises(ParseError, match="bad coefficient"):
        read_cochain("field Q\n1 1 x\n", 4)
    with pytest.raises(ParseError, match=r"outside 1\.\.4"):
        read_cochain("field Q\n5 1 1\n", 4)
    with pytest.raises(ParseError, match=r"duplicate pair \(1,2\)"):
        read_cochain("field Q\n1 2 1\n1 2 2\n", 4)
