import copy
import itertools
import math
import random
from fractions import Fraction

import pytest

from biquandles.core import (AXIOM_PAIR_EQS, AXIOM_TRIPLE_EQS, Biquandle,
                             BlockConvention, OpKind, ParseError,
                             ValidationReport, alexander_biquandle, apply_op,
                             kink_witnesses, read_biquandle, switch,
                             switch_inv, validate_biquandle, write_biquandle)

ONE = Biquandle((((1,),), ((1,),), ((1,),), ((1,),)))


# --- the tree-walking reference validator -----------------------------------
#
# Validation as it was before the axioms were compiled: every instance walks
# the expression trees again, and axioms 2 and 4 are checked by their own
# loops.  validate_biquandle must give the same report.


def eval_axiom_expr(tables, expr, vals) -> int:
    """Evaluate an axiom expression tree on complete tables.

    tables is Biquandle.tables; vals assigns elements to variable slots.
    """
    if isinstance(expr, int):
        return vals[expr]
    kind, left, right = expr
    u = eval_axiom_expr(tables, left, vals)
    v = eval_axiom_expr(tables, right, vals)
    return tables[kind][u - 1][v - 1]


def _axiom2_witnesses(T, a, b):
    """Solutions (x, y) of the axiom 2 systems at the pair (a, b)."""
    xs = []
    ys = []
    for x in range(1, T.n + 1):
        bx = T.downbar(b, x)
        if T.up(a, bx) == x and T.upbar(x, b) == a and T.down(bx, a) == b:
            xs.append(x)
    for y in range(1, T.n + 1):
        by = T.down(b, y)
        if T.upbar(a, by) == y and T.up(y, b) == a and T.downbar(by, a) == b:
            ys.append(y)
    return xs, ys


def _kink_witnesses(T):
    """Axiom 4 witnesses for every element a."""
    out = {}
    n = T.n
    for a in range(1, n + 1):
        xs = tuple(x for x in range(1, n + 1) if T.down(a, x) == x and T.up(x, a) == a)
        ys = tuple(y for y in range(1, n + 1) if T.upbar(a, y) == y and T.downbar(y, a) == a)
        out[a] = (xs, ys)
    return out


def reference_failures(T):
    """Every failing axiom instance of T, sorted, without the cap."""
    n = T.n
    tables = T.tables
    failures = []

    for a in range(1, n + 1):
        for b in range(1, n + 1):
            vals = (a, b)
            for eq_id, lhs, rhs in AXIOM_PAIR_EQS:
                if eval_axiom_expr(tables, lhs, vals) != eval_axiom_expr(tables, rhs, vals):
                    failures.append((eq_id, vals))
            xs, ys = _axiom2_witnesses(T, a, b)
            if not xs:
                failures.append(("2.i-iii", vals))
            if not ys:
                failures.append(("2.iv-vi", vals))

    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                vals = (a, b, c)
                for eq_id, lhs, rhs in AXIOM_TRIPLE_EQS:
                    if eval_axiom_expr(tables, lhs, vals) != eval_axiom_expr(tables, rhs, vals):
                        failures.append((eq_id, vals))

    for a, (xs, ys) in _kink_witnesses(T).items():
        if not xs:
            failures.append(("4.i-ii", (a,)))
        if not ys:
            failures.append(("4.iii-iv", (a,)))

    # Yang-Baxter equation: (SxId)(IdxS)(SxId) = (IdxS)(SxId)(IdxS).
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
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

    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if switch_inv(T, *switch(T, a, b)) != (a, b) or \
                    switch(T, *switch_inv(T, a, b)) != (a, b):
                failures.append(("switch-inverse", (a, b)))

    failures.sort()
    return failures


def reference_validate(T):
    failures = reference_failures(T)
    return ValidationReport(ok=not failures, failures=tuple(failures[:100]))


def order_2_table(vals):
    """The order-2 table with the 16 entries vals, table by table, row by row."""
    return Biquandle(tuple(((vals[4 * k], vals[4 * k + 1]), (vals[4 * k + 2], vals[4 * k + 3]))
                           for k in range(4)))


def test_validate_matches_reference_on_order_2():
    # every 16th of the 65,536 order-2 tables
    checked = 0
    for vals in itertools.islice(itertools.product((1, 2), repeat=16), 0, None, 16):
        T = order_2_table(vals)
        assert validate_biquandle(T) == reference_validate(T), vals
        checked += 1
    assert checked == 4096


def perturbed(T, rng, cells):
    """T with the given number of random cells set to random values."""
    tables = [[list(row) for row in t] for t in T.tables]
    for _ in range(cells):
        k, a, b = rng.randrange(4), rng.randrange(T.n), rng.randrange(T.n)
        tables[k][a][b] = rng.randint(1, T.n)
    return Biquandle.from_tables(*tables)


def test_validate_matches_reference_on_perturbed_tables(kishino_T):
    rng = random.Random("validate")
    bases = [kishino_T] + [alexander_biquandle(*p) for p in
                           [(3, 1, 2), (3, 2, 2), (4, 1, 3), (4, 3, 3), (5, 2, 3), (5, 1, 4)]]
    tables = [Biquandle(tuple(tuple((1,) * n for _ in range(n)) for _ in range(4)))
              for n in range(1, 6)]
    for T in bases:
        tables.append(T)
        tables += [perturbed(T, rng, cells) for cells in (1, 1, 2, 3, 5, 8, 4 * T.n * T.n)]
    ids = set()
    capped = 0
    for T in tables:
        report = validate_biquandle(T)
        assert report == reference_validate(T), write_biquandle(T)
        ids.update(axiom for axiom, _ in report.failures)
        capped += len(reference_failures(T)) > 100
    # the sample reaches the cap and every kind of failure
    assert capped >= 5
    assert {axiom.split(".")[0] for axiom in ids} == {"1", "2", "3", "4", "switch-inverse",
                                                      "yang-baxter"}


@pytest.mark.parametrize("n,leaves,found", [(2, 5, 2), (3, 73, 36)])
def test_search_leaves_satisfy_the_equational_axioms(blank_search, n, leaves, found):
    # Propagation alone guarantees axioms 1 and 3 (and so the switch
    # checks) on a complete table: the search checks only axioms 2 and 4.
    search = blank_search(n)
    assert len(search.found) == found
    assert len(search.leaves) == leaves
    for T in search.leaves:
        failed = {axiom for axiom, _ in reference_failures(T)}
        assert all(axiom[:2] in ("2.", "4.") for axiom in failed), failed
        assert (T in search.found) == (not failed)


def test_opkind_order():
    assert [OpKind.UP, OpKind.DOWN, OpKind.UPBAR, OpKind.DOWNBAR] == sorted(OpKind)


def test_apply_op_one_element():
    for k in OpKind:
        assert apply_op(ONE, k, 1, 1) == 1


def test_apply_op_reads_table_blocks(kishino_T):
    # with the default convention the UP table is the top-right block
    assert kishino_T.up(1, 2) == 3
    assert kishino_T.upbar(1, 2) == 4
    assert kishino_T.down(2, 3) == 1
    assert kishino_T.downbar(4, 4) == 3


def test_apply_op_range_check():
    with pytest.raises(ValueError):
        apply_op(ONE, OpKind.UP, 1, 2)
    with pytest.raises(ValueError):
        apply_op(ONE, OpKind.UP, 0, 1)


def test_alexander_formulas_n5():
    T = alexander_biquandle(5, 2, 3)
    for x in range(1, 6):
        for y in range(1, 6):
            # 0-based formula a^b = t*a + (1-s*t)*b mod n
            assert T.up(x, y) == (3 * (x - 1) + (1 - 6) * (y - 1)) % 5 + 1
            assert T.down(x, y) == (2 * (x - 1)) % 5 + 1


def test_alexander_trivial_when_s_t_one():
    T = alexander_biquandle(2, 1, 1)
    for k in OpKind:
        for a in (1, 2):
            for b in (1, 2):
                assert apply_op(T, k, a, b) == a


def test_alexander_rejects_non_units():
    with pytest.raises(ValueError, match="s = 2 is not invertible"):
        alexander_biquandle(4, 2, 1)
    with pytest.raises(ValueError, match="t = 3 is not invertible"):
        alexander_biquandle(9, 1, 3)


def test_alexander_all_units_validate_small():
    for n in range(1, 7):
        units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]
        for s in units:
            for t in units:
                assert alexander_biquandle(n, s, t).is_valid


def test_validate_kishino(kishino_T):
    assert validate_biquandle(kishino_T).ok


def test_validate_all_ones_fails_axiom_4():
    T = Biquandle(tuple(((1, 1), (1, 1)) for _ in range(4)))
    report = validate_biquandle(T)
    assert not report.ok
    assert any(axiom.startswith("1.") or axiom.startswith("4.")
               for axiom, _ in report.failures)


def test_validation_report_deterministic(kishino_T):
    bad = Biquandle(tuple(((1, 1), (1, 1)) for _ in range(4)))
    assert validate_biquandle(bad) == validate_biquandle(bad)
    assert validate_biquandle(kishino_T) == validate_biquandle(kishino_T)


def test_switch_inverse_roundtrip(kishino_T):
    for T in (kishino_T, alexander_biquandle(5, 2, 3), ONE):
        n = T.n
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                assert switch_inv(T, *switch(T, a, b)) == (a, b)
                assert switch(T, *switch_inv(T, a, b)) == (a, b)


def test_switch_is_yang_baxter_solution(kishino_T):
    # componentwise S-composition identity on all triples
    T = kishino_T
    n = T.n

    def s12(t):
        a, b = switch(T, t[0], t[1])
        return (a, b, t[2])

    def s23(t):
        a, b = switch(T, t[1], t[2])
        return (t[0], a, b)

    for triple in itertools.product(range(1, n + 1), repeat=3):
        assert s12(s23(s12(triple))) == s23(s12(s23(triple)))


def test_axiom_trees_cover_expected_ids():
    assert [eq[0] for eq in AXIOM_PAIR_EQS] == ["1.i", "1.ii", "1.iii", "1.iv"]
    assert [eq[0] for eq in AXIOM_TRIPLE_EQS] == ["3.i", "3.ii", "3.iii",
                                                  "3.iv", "3.v", "3.vi"]


def test_eval_axiom_expr_matches_direct(kishino_T):
    # 1.i lhs is UPBAR(UP(a,b), DOWN(b,a))
    _, lhs, rhs = AXIOM_PAIR_EQS[0]
    T = kishino_T
    for a in range(1, 5):
        for b in range(1, 5):
            want = T.upbar(T.up(a, b), T.down(b, a))
            assert eval_axiom_expr(T.tables, lhs, (a, b)) == want
            assert eval_axiom_expr(T.tables, rhs, (a, b)) == a


def test_kink_witnesses_are_switch_fixed_points(kishino_T):
    for T in (kishino_T, alexander_biquandle(4, 1, 3)):
        wit = kink_witnesses(T)
        for a in range(1, T.n + 1):
            xs, ys = wit[a]
            assert xs and ys
            for x in xs:
                assert T.down(a, x) == x and T.up(x, a) == a
            for y in ys:
                assert T.upbar(a, y) == y and T.downbar(y, a) == a


def test_read_write_roundtrip(data_dir, kishino_T):
    text = (data_dir / "kishinoT.bq").read_text()
    T = read_biquandle(text, BlockConvention.DEFINITION)
    canonical = write_biquandle(T, BlockConvention.DEFINITION)
    assert read_biquandle(canonical, BlockConvention.DEFINITION) == T
    assert write_biquandle(
        read_biquandle(canonical, BlockConvention.DEFINITION),
        BlockConvention.DEFINITION) == canonical


def test_listing_convention_swaps_blocks(data_dir):
    text = (data_dir / "kishinoT.bq").read_text()
    Td = read_biquandle(text, BlockConvention.DEFINITION)
    Tl = read_biquandle(text, BlockConvention.LISTING)
    # same file, blocks reinterpreted: definition B2=UP equals listing B2=DOWN
    assert Td.tables[OpKind.UP] == Tl.tables[OpKind.DOWN]
    assert Td.tables[OpKind.UPBAR] == Tl.tables[OpKind.UP]
    assert write_biquandle(Tl, BlockConvention.LISTING) == \
        write_biquandle(Td, BlockConvention.DEFINITION)


def test_one_element_file():
    assert read_biquandle("1 1\n1 1", BlockConvention.DEFINITION) == ONE


def test_read_biquandle_errors():
    with pytest.raises(ParseError, match="odd"):
        read_biquandle("1 1 1\n1 1 1\n1 1 1", BlockConvention.DEFINITION)
    with pytest.raises(ParseError, match="square"):
        read_biquandle("1 1\n1 1\n1 1", BlockConvention.DEFINITION)
    err = None
    try:
        read_biquandle("1 1\n1 9", BlockConvention.DEFINITION)
    except ParseError as e:
        err = e
    # column is the character position of the offending token
    assert err is not None and err.line == 2 and err.column == 3


def test_block_convention_from_name():
    assert BlockConvention.from_name("definition") is BlockConvention.DEFINITION
    assert BlockConvention.from_name("listing") is BlockConvention.LISTING
    with pytest.raises(ValueError):
        BlockConvention.from_name("rowmajor")


# --- records ------------------------------------------------------------------
#
# Every value class is a core.Record with its own __init__.  Records compare
# and hash by their fields and show as Name(field=value, ...); all but the
# two tables filled in place are frozen.  A presentation word's generators
# are plain ints, not records, so a word shows them bare.

def _records():
    from conftest import Cochain1

    from biquandles.cohomology import ClassifiedCochain, Cochain2, CochainClass
    from biquandles.gauss import Crossing, GaussCode, GaussEntry, Role
    from biquandles.invariant import LaurentMultiset
    from biquandles.linalg import ExactMatrix, FieldSpec
    from biquandles.presentation import OpWord, Presentation, Relation
    from biquandles.search import PartialBiquandle
    over, under = GaussEntry(1, Role.OVER, 1), GaussEntry(1, Role.UNDER, 1)
    return [  # (class, positional arguments, the dataclass repr)
        (ValidationReport, (False, (("1.i", (1, 1)),)),
         "ValidationReport(ok=False, failures=(('1.i', (1, 1)),))"),
        (Biquandle, (ONE.tables,), "Biquandle(tables=(((1,),), ((1,),), ((1,),), ((1,),)))"),
        (GaussEntry, (1, Role.OVER, -1),
         "GaussEntry(crossing=1, role=<Role.OVER: 'over'>, sign=-1)"),
        (Crossing, (1, 1, 2, 3, 4, 1),
         "Crossing(index=1, sign=1, under_in=2, over_in=3, under_out=4, over_out=1)"),
        (GaussCode, (((over, under),), ((5, 1),)),
         "GaussCode(components=((GaussEntry(crossing=1, role=<Role.OVER: 'over'>, sign=1), "
         "GaussEntry(crossing=1, role=<Role.UNDER: 'under'>, sign=1)),), renaming=((5, 1),))"),
        (OpWord, (OpKind.UPBAR, 1, 2), "OpWord(kind=<OpKind.UPBAR: 2>, left=1, right=2)"),
        (Relation, (1, 2), "Relation(lhs=1, rhs=2)"),
        (Presentation, ((1, 2), (Relation(1, 2),)),
         "Presentation(generators=(1, 2), relations=(Relation(lhs=1, rhs=2),))"),
        (FieldSpec, (7,), "FieldSpec(p=7)"),
        (ExactMatrix, (1, 2, [{0: 1}]), "ExactMatrix(rows=1, cols=2, entries=[{0: 1}])"),
        (Cochain1, (FieldSpec(), (Fraction(1), Fraction(-1, 2))),
         "Cochain1(field=FieldSpec(p=None), coeffs=(Fraction(1, 1), Fraction(-1, 2)))"),
        (Cochain2, (FieldSpec(5), (1, 0, 0, 4)),
         "Cochain2(field=FieldSpec(p=5), coeffs=(1, 0, 0, 4))"),
        (ClassifiedCochain, (CochainClass.COBOUNDARY, True),
         "ClassifiedCochain(kind=<CochainClass.COBOUNDARY: 'coboundary'>, ri_reduced=True)"),
        (LaurentMultiset, (((-1, 2), (0, 4)),), "LaurentMultiset(terms=((-1, 2), (0, 4)))"),
        (PartialBiquandle, ([[[0]], [[1]], [[0]], [[1]]],),
         "PartialBiquandle(tables=[[[0]], [[1]], [[0]], [[1]]])"),
    ]


RECORDS = _records()
MUTABLE_RECORDS = {"ExactMatrix", "PartialBiquandle"}


@pytest.mark.parametrize("cls, args, shown", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, args, shown):
    a, b = cls(*args), cls(*copy.deepcopy(args))
    assert a == b and not a != b
    assert repr(a) == shown
    assert cls(**dict(zip(cls._fields, args))) == a
    frozen = cls.__name__ not in MUTABLE_RECORDS
    twin = type("Twin", (cls,), {"__slots__": ()}, frozen=frozen)(*args)
    assert a != twin and twin != a
    assert a != args and a.__eq__(args) is NotImplemented
    assert copy.copy(a) == a
    if not frozen:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(b)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b and repr(a) == shown


def test_record_fields_and_errors():
    from conftest import Cochain1

    from biquandles.cohomology import Cochain2
    from biquandles.linalg import FieldSpec
    assert FieldSpec() == FieldSpec(p=None) and FieldSpec().is_rational
    assert Cochain1(FieldSpec(), (1, 2, 3, 4)) != Cochain2(FieldSpec(), (1, 2, 3, 4))
    with pytest.raises(ValueError, match="four"):
        Biquandle(ONE.tables[:3])
    with pytest.raises(ValueError, match="n x n"):
        Biquandle((((1, 1),),) * 4)
    with pytest.raises(ValueError, match="outside"):
        Biquandle((((2,),),) * 4)
    with pytest.raises(ValueError, match="table entry True is not an int"):
        Biquandle((((True,),),) * 4)
    with pytest.raises(ValueError, match="n\\^2"):
        Cochain2(FieldSpec(), (1, 2, 3))
    with pytest.raises(ValueError, match="not prime"):
        FieldSpec(4)


def test_validation_runs_once_per_table(monkeypatch):
    import biquandles.core as core
    calls = []
    real = core.validate_biquandle
    monkeypatch.setattr(core, "validate_biquandle", lambda T: calls.append(T) or real(T))
    T = Biquandle(ONE.tables)
    assert T.validation.ok and T.is_valid and T.validation is T.validation
    assert len(calls) == 1
    assert Biquandle(ONE.tables).is_valid and len(calls) == 2
