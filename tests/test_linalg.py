import random
from fractions import Fraction

import pytest

from conftest import ReferenceTracker

from biquandles.linalg import (QQ, ExactMatrix, FieldSpec, _MR_BOUND, RankTracker,
                               _is_prime, dense, kernel_basis, matvec, rref)

F2 = FieldSpec(2)
F5 = FieldSpec(5)
FBIG = FieldSpec(2 ** 61 - 1)


# -- dense reference ----------------------------------------------------------


def reference_rref(rows: list, F: FieldSpec) -> tuple[list[list], list[int]]:
    """Dense Gauss-Jordan elimination, the reference for the sparse kernel.

    Pivot selection is the first nonzero entry top-down in each column,
    left to right.  Returns (dense R, pivot columns 1-based ascending).
    """
    data = [[F.coerce(v) for v in row] for row in rows]
    n_rows, n_cols = len(data), len(data[0]) if data else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        pr = next((i for i in range(r, n_rows) if data[i][c]), None)
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        inv = F.inv(data[r][c])
        data[r] = [F.mul(inv, v) for v in data[r]]
        for i in range(n_rows):
            if i != r and data[i][c]:
                f = data[i][c]
                data[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(data[i], data[r])]
        pivots.append(c + 1)
        r += 1
    return data, pivots


def reference_kernel(rows: list, n_cols: int, F: FieldSpec) -> list[tuple]:
    R, pivots = reference_rref(rows, F)
    basis = []
    for fc in (c for c in range(n_cols) if c + 1 not in pivots):
        v = [F.zero()] * n_cols
        v[fc] = F.one()
        for r, pc in enumerate(pivots):
            v[pc - 1] = F.neg(R[r][fc])
        basis.append(tuple(v))
    return basis


def span_of(vectors: list, F: FieldSpec, dim: int) -> RankTracker:
    tracker = RankTracker(F, dim)
    for w in vectors:
        tracker.add(w)
    return tracker


def random_rows(rng: random.Random, F: FieldSpec, n_rows: int, n_cols: int) -> list[list]:
    """Sparse random rows over F, with zero rows and rows that are
    combinations of earlier ones mixed in."""
    def entry():
        if rng.random() < 0.6:
            return 0
        if F.is_rational:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return rng.randrange(F.p)

    rows: list[list] = []
    for _ in range(n_rows):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * n_cols)
        elif kind < 0.45 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            f, g = F.coerce(entry() or 1), F.coerce(entry() or 1)
            rows.append([F.add(F.mul(f, F.coerce(x)), F.mul(g, F.coerce(y)))
                         for x, y in zip(a, b)])
        else:
            rows.append([entry() for _ in range(n_cols)])
    return rows


FIELDS = [QQ, F2, F5, FBIG]
SEEDS = range(12)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.name())
@pytest.mark.parametrize("seed", SEEDS)
def test_sparse_elimination_matches_reference(F, seed):
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(1, 9), rng.randint(1, 9)
    rows = random_rows(rng, F, n_rows, n_cols)
    M = ExactMatrix.from_rows(rows, F)
    ref_R, ref_pivots = reference_rref(rows, F)

    R, pivots = rref(M, F)
    assert (R.rows, R.cols) == (n_rows, n_cols)
    assert (R.data, pivots) == (ref_R, ref_pivots)
    assert kernel_basis(M, F) == reference_kernel(rows, n_cols, F)

    tracker = RankTracker(F, n_cols)
    prefix_ranks = [len(reference_rref(rows[:k], F)[1]) for k in range(n_rows + 1)]
    for k, row in enumerate(rows):
        assert tracker.add(row) == (prefix_ranks[k + 1] > prefix_ranks[k])
    assert tracker.rank == len(ref_pivots)
    dense = [[row.get(c, 0) for c in range(n_cols)] for row in tracker.rows()]
    assert dense == ref_R[:len(ref_pivots)]

    # membership: add(v) on the span of the rows is False iff v is in it
    for v in (rows[-1], random_rows(rng, F, 1, n_cols)[0]):
        expected = len(reference_rref(rows + [v], F)[1]) == len(ref_pivots)
        assert (not span_of(rows, F, n_cols).add(v)) == expected


def gf2_rows(rng: random.Random, n_rows: int, n_cols: int) -> list[list]:
    """Sparse random rows for GF(2), not reduced into it: odd and even ints
    of either sign and Fractions with odd denominators, with zero rows,
    repeated rows and sums of two earlier rows mixed in."""
    def entry():
        if rng.random() < 0.7:
            return 0
        return rng.choice((rng.randint(-5, 5), 2 * rng.randint(-3, 3),
                           Fraction(rng.randint(-5, 5), rng.choice((1, 3, 5, 7)))))

    rows: list[list] = []
    for _ in range(n_rows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * n_cols)
        elif kind < 0.2 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.35 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            rows.append([x + y for x, y in zip(a, b)])
        else:
            rows.append([entry() for _ in range(n_cols)])
    return rows


@pytest.mark.parametrize("seed", range(8))
def test_bitset_elimination_matches_reference(seed):
    # Over GF(2) the tracker keeps its rows as ints; what it gives back, and
    # when, must equal the dense reference on the same raw entries.
    rng = random.Random(3100 + seed)
    n_rows, n_cols = rng.randint(20, 40), rng.randint(10, 30)
    rows = gf2_rows(rng, n_rows, n_cols)
    M = ExactMatrix(n_rows, n_cols, [{c: x for c, x in enumerate(row) if x} for row in rows])
    ref_R, ref_pivots = reference_rref(rows, F2)
    R, pivots = rref(M, F2)
    assert (R.data, pivots) == (ref_R, ref_pivots)
    assert {type(x) for row in R.entries for x in row.values()} <= {int}
    assert kernel_basis(M, F2) == reference_kernel(rows, n_cols, F2)

    # add, with rows and kernel read between adds
    tracker, fed, rank = RankTracker(F2, n_cols), 0, 0
    for k in sorted({rng.randrange(1, n_rows) for _ in range(4)} | {n_rows}):
        rank += sum(tracker.add(row) for row in rows[fed:k])
        fed = k
        ref_R, ref_pivots = reference_rref(rows[:k], F2)
        assert tracker.rank == rank == len(ref_pivots)
        assert [[row.get(c, 0) for c in range(n_cols)] for row in tracker.rows()] \
            == ref_R[:rank]
        assert [dense(F2, n_cols, m, w) for m, w in tracker.kernel()] \
            == reference_kernel(rows[:k], n_cols, F2)
    for v in (rows[0], gf2_rows(rng, 1, n_cols)[0]):
        expected = len(reference_rref(rows + [v], F2)[1]) == rank
        assert (not tracker.add(v)) == expected


def gfp_rows(rng: random.Random, p: int, n_rows: int, n_cols: int) -> list[list]:
    """Sparse random rows for GF(p), not reduced into it: negative ints,
    ints at or above p, Fractions and 'a/b' strings with denominators p
    does not divide, with zero rows, repeated rows and combinations of
    earlier rows mixed in."""
    dens = [d for d in (1, 2, 3, 4, 5, 7) if d % p]

    def entry():
        if rng.random() < 0.7:
            return 0
        return rng.choice((rng.randint(-9, -1), rng.randint(1, 3) * p + rng.randint(0, 9),
                           rng.randrange(p), Fraction(rng.randint(-9, 9), rng.choice(dens)),
                           f"{rng.randint(-9, 9)}/{rng.choice(dens)}"))

    rows: list[list] = []
    for _ in range(n_rows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * n_cols)
        elif kind < 0.2 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.5 and len(rows) >= 2:
            (a, b), f, g = rng.sample(rows, 2), rng.randint(-5, 5), rng.randint(-5, 5)
            rows.append([f * Fraction(x) + g * Fraction(y) for x, y in zip(a, b)])
        else:
            rows.append([entry() for _ in range(n_cols)])
    return rows


def assert_tracks_reference(tracker: RankTracker, ref: ReferenceTracker, v) -> None:
    """Add v to both trackers; they must answer alike and then hold the same
    rows, rank and kernel, with the tracker's accumulator all 0."""
    assert tracker.add(v) == ref.add(v)
    assert tracker._rows == ref._rows
    assert tracker.rank == ref.rank
    assert tracker.rows() == ref.rows()
    assert tracker.kernel() == ref.kernel()
    assert not any(tracker._acc)


@pytest.mark.parametrize("p", [3, 5, 13, 2 ** 61 - 1])
@pytest.mark.parametrize("seed", range(4))
def test_accumulator_matches_dict_reference(p, seed):
    # Over GF(p), p >= 3, the tracker reduces each row in a dense scratch
    # list; after every add it must hold what the dict elimination holds,
    # with the list all 0 again.
    rng = random.Random(3200 + seed)
    F = FieldSpec(p)
    n_rows, n_cols = rng.randint(30, 60), rng.randint(10, 30)
    tracker, ref = RankTracker(F, n_cols), ReferenceTracker(F, n_cols)
    for row in gfp_rows(rng, p, n_rows, n_cols):
        assert_tracks_reference(tracker, ref, row)
    assert {type(x) for row in tracker.rows() for x in row.values()} <= {int}


def test_tracker_sound_after_refused_entry():
    # 1/5 has no value over Zp:5; a refused row leaves nothing behind.
    tracker = RankTracker(F5, 3)
    with pytest.raises(ZeroDivisionError, match="1/5 has no value in Zp:5"):
        tracker.add((1, Fraction(1, 5), 0))
    assert tracker.add((1, 0, 0))
    assert tracker.rows() == [{0: 1}]
    tracker = span_of([(1, 1, 0)], F5, 3)
    with pytest.raises(ZeroDivisionError, match="1/5 has no value in Zp:5"):
        tracker.add((0, 1, "1/5"))
    assert not any(tracker._acc)
    assert tracker.add((1, 0, 0))  # clearing column 0 fills in column 1
    assert tracker.rows() == [{0: 1}, {1: 1}]


def q_rows(rng: random.Random, n_rows: int, n_cols: int) -> list[list]:
    """Random rows over Q spanning at most n_cols - 2 dimensions, so the
    stored primitive rows have free columns and pivot entries other than
    1: sparse integer base rows, then integer combinations of them, some
    of them divided into Fractions or 'a/b' strings, and zero rows."""
    base = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 5, 6)) for _ in range(n_cols)]
            for _ in range(rng.randint(1, n_cols - 2))]
    rows: list[list] = []
    for _ in range(n_rows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * n_cols)
            continue
        row = [0] * n_cols
        for b in rng.sample(base, rng.randint(1, min(3, len(base)))):
            f = rng.choice((-3, -2, -1, 1, 2, 4))
            row = [x + f * y for x, y in zip(row, b)]
        if kind < 0.2:
            row = [Fraction(x, 6) for x in row]
        elif kind < 0.25:
            row = [f"{x}/4" if x else 0 for x in row]
        rows.append(row)
    return rows


@pytest.mark.parametrize("seed", range(8))
def test_integer_accumulator_matches_dict_reference(seed):
    # Over Q the tracker reduces each row in the same dense scratch list,
    # scaling it by d / gcd(d, f) before it subtracts a stored row whose
    # pivot entry is d; after every add it must hold what the dict
    # elimination holds.
    rng = random.Random(3400 + seed)
    n_rows, n_cols = rng.randint(30, 60), rng.randint(6, 20)
    tracker, ref = RankTracker(QQ, n_cols), ReferenceTracker(QQ, n_cols)
    pivot_entries = set()
    for row in q_rows(rng, n_rows, n_cols):
        assert_tracks_reference(tracker, ref, row)
        pivot_entries |= {r[lead] for lead, r in tracker._rows.items()}
    assert max(pivot_entries) > 1
    assert {type(x) for row in tracker._rows.values() for x in row.values()} <= {int}


def test_integer_accumulator_scales_a_refilled_column_once():
    # Adding v clears pivot 0 (column 4 cancels to 0), then pivot 1
    # (column 4 fills again, so it is listed twice among the touched
    # columns), then pivot 2, whose entry 2 scales the row by 2 first.
    tracker, ref = RankTracker(QQ, 5), ReferenceTracker(QQ, 5)
    for v in ((1, 0, 0, 0, 1), (0, 1, 0, 0, 1), (0, 0, 2, 1, 0), (1, -1, 1, 0, 1)):
        assert_tracks_reference(tracker, ref, v)
    assert tracker._rows == {0: {0: 1, 4: 1}, 1: {1: 1, 4: 1},
                             2: {2: 1, 4: 1}, 3: {3: 1, 4: -2}}


def test_integer_accumulator_takes_a_late_fraction():
    # add passes a one-shot enumerate: the Fraction and the string come
    # after two ints are already in the accumulator, and the whole row is
    # scaled by 6.
    tracker, ref = RankTracker(QQ, 4), ReferenceTracker(QQ, 4)
    for v in ((0, 2, 0, 1), [1, 2, Fraction(1, 3), "1/2"], (1, 0, 0, 0)):
        assert_tracks_reference(tracker, ref, v)
    assert tracker.rows() == [{0: 1}, {1: 1, 3: Fraction(1, 2)}, {2: 1, 3: Fraction(-3, 2)}]


def test_integer_accumulator_sound_after_refused_entry():
    # A refused entry raises after earlier entries are in the accumulator;
    # it leaves the accumulator all 0 and the stored rows as they were.
    tracker = span_of([(1, 1)], QQ, 2)
    with pytest.raises(ValueError, match="Invalid literal for Fraction: 'x'"):
        tracker.add([1, "x"])
    assert not any(tracker._acc)
    with pytest.raises(ZeroDivisionError):
        tracker.add(["1/0"])
    assert not any(tracker._acc)
    assert tracker.rows() == [{0: 1, 1: 1}]
    assert tracker.add((1, 0))
    assert tracker.rows() == [{0: 1}, {1: 1}]


@pytest.mark.parametrize("F", [QQ, F2, F5], ids=lambda F: F.name())
def test_tracker_refuses_vector_longer_than_dim(F):
    tracker = RankTracker(F, 2)
    with pytest.raises(ValueError, match="length 3 does not fit dimension 2"):
        tracker.add((1, 0, 1))
    assert tracker.rank == 0
    assert tracker.add((0, 1))
    assert [dense(F, 2, m, w) for m, w in tracker.kernel()] == [(F.one(), F.zero())]


def raw_int_rows(rng: random.Random, F: FieldSpec, n_rows: int, n_cols: int) -> list[list]:
    """Sparse random rows of raw integers, not reduced into F: negatives,
    multiples of p and entries above p (p = 2^61 - 1 over Q), with
    zero rows and combinations of earlier rows mixed in."""
    p = F.p or 2 ** 61 - 1

    def entry():
        if rng.random() < 0.6:
            return 0
        return rng.choice((rng.randint(-9, 9), rng.randint(-3, 3) * p,
                           rng.randint(1, 3) * p + rng.randint(-9, 9)))

    rows: list[list] = []
    for _ in range(n_rows):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * n_cols)
        elif kind < 0.45 and len(rows) >= 2:
            (a, b), f, g = rng.sample(rows, 2), rng.randint(-5, 5), rng.randint(-5, 5)
            rows.append([f * x + g * y for x, y in zip(a, b)])
        else:
            rows.append([entry() for _ in range(n_cols)])
    return rows


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.name())
@pytest.mark.parametrize("seed", SEEDS)
def test_row_order_changes_no_result(F, seed):
    # rref feeds rows by descending leading column, whatever order M has
    # them in; the RREF and the canonical kernel basis must not notice.
    rng = random.Random(1000 + seed)
    n_rows, n_cols = rng.randint(1, 12), rng.randint(1, 10)
    rows = raw_int_rows(rng, F, n_rows, n_cols)
    want = reference_rref(rows, F), reference_kernel(rows, n_cols, F)
    for _ in range(3):
        rng.shuffle(rows)
        M = ExactMatrix(n_rows, n_cols, [{c: x for c, x in enumerate(row) if x} for row in rows])
        R, pivots = rref(M, F)
        assert ((R.data, pivots), kernel_basis(M, F)) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_basis_over_q_matches_dense_reference_on_integer_matrices(seed):
    # The kernel over Q of a small integer matrix with a dependent row is
    # the dense reference's, exactly.
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(1, 8), rng.randint(2, 9)
    rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 7)) for _ in range(n_cols)]
            for _ in range(n_rows)]
    rows.append([sum(r[c] for r in rows) for c in range(n_cols)])  # a dependent row
    M = ExactMatrix.from_rows(rows, QQ)
    assert kernel_basis(M, QQ) == reference_kernel(rows, n_cols, QQ)


def test_kernel_basis_over_q_has_fraction_entries():
    # An integer matrix whose kernel vector has non-integer entries.
    rows = [[2, 1, 0], [0, 3, 1]]
    basis = kernel_basis(ExactMatrix.from_rows(rows, QQ), QQ)
    assert basis == [(Fraction(1, 6), Fraction(-1, 3), 1)]
    assert basis == reference_kernel(rows, 3, QQ)


@pytest.mark.parametrize("rows", [
    [[2 ** 40 + 1, 1]],                   # a kernel entry -1/(2^40+1)
    [[2 ** 61 - 1, 0], [0, 1]],           # rank 2 over Q, 1 mod 2^61 - 1
    [[1, 1], [1, 1 + 2 ** 61 - 1]],       # (-1, 1) is a kernel vector only mod 2^61 - 1
])
def test_kernel_basis_over_q_on_large_entries(rows):
    # Large integer entries, and answers over Q that no prime may change.
    M = ExactMatrix.from_rows(rows, QQ)
    assert kernel_basis(M, QQ) == reference_kernel(rows, len(rows[0]), QQ)


def test_kernel_of_non_integer_matrix_is_exact():
    rows = [[Fraction(1, 2), Fraction(1, 3), 0], [0, 0, Fraction(5, 7)]]
    assert kernel_basis(ExactMatrix.from_rows(rows, QQ), QQ) == reference_kernel(rows, 3, QQ)


def test_field_names():
    assert QQ.name() == "Q"
    assert F5.name() == "Zp:5"
    assert FieldSpec.from_name("Q") == QQ
    assert FieldSpec.from_name("Zp:7") == FieldSpec(7)
    with pytest.raises(ValueError):
        FieldSpec.from_name("R")
    with pytest.raises(ValueError):
        FieldSpec.from_name("Zp:x")


def test_prime_check():
    with pytest.raises(ValueError, match="not prime"):
        FieldSpec(6)
    with pytest.raises(ValueError, match="not prime"):
        FieldSpec(1)
    FieldSpec(2)
    FieldSpec(97)


def test_large_primes_and_pseudoprimes():
    FieldSpec(100000000000031)
    FieldSpec(2 ** 61 - 1)
    # 561 is a Carmichael number; 3215031751 a strong pseudoprime to 2, 3, 5, 7
    for composite in (1, 561, 3215031751, 10007 ** 2):
        with pytest.raises(ValueError, match="not prime"):
            FieldSpec(composite)


def test_moduli_above_the_proven_range_are_refused():
    # Miller-Rabin on these bases proves nothing from _MR_BOUND up (the bound
    # itself is a strong pseudoprime to all twelve); refusing is immediate
    # where trial division would not end.
    for p in (_MR_BOUND, 10 ** 30 + 57, 2 ** 127 - 1):
        with pytest.raises(ValueError, match="above the proven Miller-Rabin range"):
            FieldSpec(p)
    with pytest.raises(ValueError, match="not prime"):
        FieldSpec(2 * 10 ** 30)  # a small factor still proves it composite
    assert _is_prime(_MR_BOUND - 2) is False  # just below: answered, not refused


def test_is_prime_matches_sieve():
    limit = 20000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    assert [_is_prime(k) for k in range(limit)] == sieve


def test_coerce():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.coerce("2/6") == Fraction(1, 3)
    assert QQ.coerce(Fraction(-1, 2)) == Fraction(-1, 2)
    assert F5.coerce(7) == 2
    assert F5.coerce("-1") == 4
    assert F5.coerce("1/2") == 3  # 2^{-1} = 3 mod 5


def test_field_arithmetic_mod_p():
    assert F5.add(3, 4) == 2
    assert F5.mul(3, 4) == 2
    assert F5.inv(3) == 2
    assert F5.neg(2) == 3
    # a zero of the field is a zero however it is written
    for zero in (0, 5, 10):
        with pytest.raises(ZeroDivisionError, match="inverse of zero"):
            F5.inv(zero)
    with pytest.raises(ZeroDivisionError, match="1/5 has no value in Zp:5"):
        F5.coerce("1/5")
    with pytest.raises(ZeroDivisionError, match="1/2 has no value in Zp:2"):
        RankTracker(F2, 2).add((Fraction(1, 2), 1))


def test_rref_identity():
    I3 = ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], QQ)
    R, pivots = rref(I3, QQ)
    assert R.data == I3.data
    assert pivots == [1, 2, 3]


def test_rref_zero_matrix():
    Z = ExactMatrix.from_rows([[0, 0], [0, 0]], QQ)
    R, pivots = rref(Z, QQ)
    assert R.data == Z.data
    assert pivots == []


def test_rref_rank_one():
    M = ExactMatrix.from_rows([[2, 4], [1, 2]], QQ)
    R, pivots = rref(M, QQ)
    assert R.data == [[1, 2], [0, 0]]
    assert pivots == [1]


def test_rref_mod_p():
    M = ExactMatrix.from_rows([[2, 1], [1, 1]], F5)
    R, pivots = rref(M, F5)
    assert pivots == [1, 2]
    assert R.data == [[1, 0], [0, 1]]
    singular = ExactMatrix.from_rows([[2, 1], [1, 3]], F5)  # det = 5 = 0
    assert span_of(singular.data, F5, 2).rank == 1


def test_kernel_identity_empty():
    I2 = ExactMatrix.from_rows([[1, 0], [0, 1]], QQ)
    assert kernel_basis(I2, QQ) == []


def test_kernel_zero_matrix_standard_basis():
    Z = ExactMatrix.from_rows([[0, 0], [0, 0]], QQ)
    assert kernel_basis(Z, QQ) == [(1, 0), (0, 1)]


def test_kernel_canonical_form():
    M = ExactMatrix.from_rows([[1, 1], [0, 0]], QQ)
    assert kernel_basis(M, QQ) == [(-1, 1)]


def test_kernel_vectors_annihilate():
    M = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]], QQ)
    for v in kernel_basis(M, QQ):
        assert all(x == 0 for x in matvec(M, v, QQ))
    # free-column pattern: 1 at own free column, 0 at others
    basis = kernel_basis(ExactMatrix.from_rows([[1, 1, 1]], QQ), QQ)
    assert basis == [(-1, 1, 0), (-1, 0, 1)]


def test_rank_and_span():
    assert span_of([(1, 2), (2, 4)], QQ, 2).rank == 1
    assert not span_of([(1, 0), (0, 1)], QQ, 2).add((5, -3))
    assert span_of([(1, 1)], QQ, 2).add((1, 2))
    assert not span_of([], QQ, 2).add((0, 0))
    assert span_of([], QQ, 2).add((1, 0))


def test_rank_tracker_rows_in_pivot_order():
    tracker = span_of([(0, 1, 1), (1, 2, 3), (0, 2, 2)], QQ, 3)
    assert tracker.rows() == [{0: 1, 2: 1}, {1: 1, 2: 1}]
    assert span_of([], F5, 3).rows() == []


def test_rank_tracker_matches_batch_rank():
    vectors = [(1, 2, 3), (2, 4, 6), (0, 1, 1), (1, 3, 4)]
    tracker = RankTracker(QQ, 3)
    added = [tracker.add(v) for v in vectors]
    assert added == [True, False, True, False]
    assert tracker.rank == len(rref(ExactMatrix.from_rows([list(v) for v in vectors], QQ), QQ)[1])


def test_rank_tracker_mod_p():
    tracker = RankTracker(F5, 2)
    assert tracker.add((2, 4))
    assert not tracker.add((1, 2))   # 3*(2,4) = (1,2) mod 5
    assert tracker.add((0, 1))


@pytest.mark.parametrize("F", [QQ, F2, F5], ids=lambda F: F.name())
@pytest.mark.parametrize("row,column", [({5: 1}, 5), ({-1: 1}, -1), ({0: 1, 2: 3}, 2)])
def test_columns_outside_the_matrix_are_refused(F, row, column):
    # {5: 1} once gave pivot [6] over Q and Zp:2 and an IndexError over
    # Zp:5; {-1: 1} gave pivot [0] over Q and Zp:5 and a negative shift
    # count over Zp:2
    M = ExactMatrix(2, 2, [{1: 1}, row])
    for f in (rref, kernel_basis):
        with pytest.raises(ValueError, match=rf"column {column} outside 0\.\.1"):
            f(M, F)


@pytest.mark.parametrize("F", [QQ, F2, F5], ids=lambda F: F.name())
@pytest.mark.parametrize("rows", [1, 3])
def test_entry_rows_must_match_row_count(F, rows):
    # rows=1 once gave an rref with two entry rows and pivots [1, 2], a
    # rank above the row count
    M = ExactMatrix(rows, 2, [{0: 1}, {1: 1}])
    for f in (rref, kernel_basis):
        with pytest.raises(ValueError, match=f"2 entry rows in a matrix of {rows} rows"):
            f(M, F)


@pytest.mark.parametrize("v", [(1,), (1, 0, 1)])
def test_matvec_refuses_vector_of_wrong_length(v):
    # (1,) once raised a bare IndexError; (1, 0, 1) was taken silently
    M = ExactMatrix(1, 2, [{1: 1}])
    with pytest.raises(ValueError, match=f"length {len(v)} for a matrix of 2 columns"):
        matvec(M, v, QQ)
    assert matvec(M, (1, 3), QQ) == (3,)


def test_ragged_rows_rejected():
    with pytest.raises(ValueError, match="ragged"):
        ExactMatrix.from_rows([[1, 2], [3]], QQ)
