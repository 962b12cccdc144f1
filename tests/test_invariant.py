"""State-sum invariants: frozen values, laws, and input checking."""

import random
from fractions import Fraction

import pytest
from conftest import Cochain1, coboundary_of, count_calls, reference_state_sum

from biquandles import cohomology, coloring, core, invariant, presentation
from biquandles.cohomology import (Cochain2, cochain2_from_pairs, read_cochain,
                                   reduced_cohomology_basis, zero_cochain)
from biquandles.core import (Biquandle, BlockConvention, SearchLimitError, alexander_biquandle,
                             read_biquandle)
from biquandles.coloring import (checked_search, counting_invariant, enumerate_colorings,
                                 scan_relations)
from biquandles.gauss import crossings_of, insert_r_move, parse_gauss_code, serialize_gauss_code
from biquandles.invariant import LaurentMultiset, boltzmann_sum, yb_invariant, yb_invariant_suite
from biquandles.linalg import FieldSpec
from biquandles.presentation import crossing_relations, eliminate, knot_presentation

Q = FieldSpec.from_name("Q")
F5 = FieldSpec.from_name("Zp:5")


@pytest.fixture(scope="module")
def phi1(data_dir):
    return read_cochain((data_dir / "phi1.cyc").read_text(), 4)


@pytest.fixture(scope="module")
def phi2(data_dir):
    return read_cochain((data_dir / "phi2.cyc").read_text(), 4)


# --- the multiset container ------------------------------------------------


def test_laurent_from_exponents():
    m = LaurentMultiset.from_exponents([0, 1, 1, -2, 0, 0])
    assert m.as_dict() == {-2: 1, 0: 3, 1: 2}
    assert m.size == 6
    assert str(m) == "1*t^-2 + 3 + 2*t"


def test_laurent_empty_and_fraction_exponents():
    assert str(LaurentMultiset.from_exponents([])) == "0"
    m = LaurentMultiset.from_exponents([Fraction(1, 2), Fraction(2, 2), Fraction(0, 5)])
    assert str(m) == "1 + 1*t^1/2 + 1*t"
    m = LaurentMultiset(((Fraction(-2), 1), (0, 2), (Fraction(1, 2), 1), (1, 3)))
    assert str(m) == "1*t^-2 + 2 + 1*t^1/2 + 3*t"


# --- frozen values ----------------------------------------------------------


def test_kishino_values(kishino_code, kishino_T, phi1, phi2):
    v1 = yb_invariant(kishino_code, kishino_T, phi1)
    v2 = yb_invariant(kishino_code, kishino_T, phi2)
    assert v1.as_dict() == {-1: 2, 0: 12, 1: 2}
    assert v2.as_dict() == {-2: 2, 0: 12, 2: 2}
    assert str(v1) == "2*t^-1 + 12 + 2*t"
    assert str(v2) == "2*t^-2 + 12 + 2*t^2"


def test_trivial_values_elsewhere(unknot_code, trefoil_code, conway_code,
                                  kishino_T, phi1, phi2):
    # Both cocycles are blind to these: every coloring contributes t^0.
    for code in (unknot_code, trefoil_code, conway_code):
        for phi in (phi1, phi2):
            v = yb_invariant(code, kishino_T, phi)
            assert v.as_dict() == {0: 4}
            assert str(v) == "4"


def test_link_values(link_code, kishino_T, phi1, phi2):
    assert yb_invariant(link_code, kishino_T, phi1).as_dict() == \
        {-2: 4, -1: 4, 0: 4, 1: 4}
    assert yb_invariant(link_code, kishino_T, phi2).as_dict() == \
        {-3: 2, -1: 4, 0: 2, 1: 4, 2: 2, 3: 2}


def test_kishino_mod_five(kishino_code, kishino_T, data_dir):
    text = (data_dir / "phi1.cyc").read_text().replace("field Q", "field Zp:5")
    phi = read_cochain(text, 4)
    v = yb_invariant(kishino_code, kishino_T, phi)
    assert v.as_dict() == {0: 12, 1: 2, 4: 2}
    assert str(v) == "12 + 2*t + 2*t^4"


def test_suite(kishino_code, unknot_code, kishino_T):
    suite = yb_invariant_suite(kishino_code, kishino_T, Q)
    assert [v.as_dict() for _phi, v in suite] == \
        [{-1: 2, 0: 12, 1: 2}, {-2: 2, 0: 12, 2: 2}]
    assert [str(v) for _phi, v in yb_invariant_suite(unknot_code, kishino_T, Q)] == \
        ["4", "4"]


def test_suite_scans_colorings_once(data_dir, monkeypatch):
    # A(5,2,3) over Z5 has four basis cocycles, and one scan serves them all.
    A = alexander_biquandle(5, 2, 3)
    scans = []
    real = coloring._scan
    monkeypatch.setattr(coloring, "_scan", lambda *a, **k: scans.append(a) or real(*a, **k))
    suite = yb_invariant_suite(parse_gauss_code((data_dir / "conway.gauss").read_text()), A, F5)
    assert len(suite) == 4 and len(scans) == 1


def test_oversized_search_refused_before_validation(data_dir, monkeypatch):
    # Conway keeps 5 survivors, and 50^5 candidates are over the cap: both
    # functions refuse before the table's n^3 validation (1.4 s here) and
    # the suite before its H^2 (minutes), and neither stages a scan.
    A = alexander_biquandle(50, 3, 7)
    conway_code = parse_gauss_code((data_dir / "conway.gauss").read_text())

    def never(*args):
        raise AssertionError("validated or staged an oversized search")
    monkeypatch.setattr(core, "validate_biquandle", never)
    monkeypatch.setattr(coloring, "_stage", never)
    with pytest.raises(SearchLimitError, match=r"50\^5"):
        yb_invariant(conway_code, A, zero_cochain(50, Q))
    with pytest.raises(SearchLimitError, match=r"50\^5"):
        yb_invariant_suite(conway_code, A, Q)


def test_one_plan_serves_every_invariant(data_dir, kishino_T, phi1, monkeypatch):
    # Two tables' suites, an invariant and the state sums of one code object
    # reduce and stage it once; every value equals that of a fresh parse.
    text = (data_dir / "kishino.gauss").read_text()
    A = alexander_biquandle(5, 2, 3)

    def values(code):  # code() gives the code object for each call
        return [yb_invariant_suite(code(), kishino_T, Q), yb_invariant_suite(code(), A, F5),
                yb_invariant(code(), kishino_T, phi1),
                [boltzmann_sum(code(), kishino_T, phi1, c)
                 for c in enumerate_colorings(code(), kishino_T)]]

    calls = count_calls(monkeypatch, (presentation, "_eliminate"), (coloring, "_stage"),
                        (coloring, "_compile"))
    code = parse_gauss_code(text)
    got = values(lambda: code)
    assert calls == {"_eliminate": 1, "_stage": 1, "_compile": 1}
    assert got == values(lambda: parse_gauss_code(text))


def test_suite_matches_one_invariant_per_cocycle(kishino_T, random_code):
    rng = random.Random(11)
    A = alexander_biquandle(5, 2, 3)
    for i in range(6):
        code = random_code(rng, 4, 1 + i % 2)
        for T, F in ((kishino_T, Q), (A, F5)):
            expected = [(phi, yb_invariant(code, T, phi))
                        for phi in reduced_cohomology_basis(T, F)]
            assert yb_invariant_suite(code, T, F) == expected


def test_suite_rejects_invalid_biquandle(unknot_code):
    bad = Biquandle(tuple(((1, 1), (1, 1)) for _ in range(4)))
    with pytest.raises(ValueError, match="fails validation"):
        yb_invariant_suite(unknot_code, bad, Q)


def test_suite_computes_one_basis_per_table_and_field(data_dir, kishino_T, unknot_code,
                                                     trefoil_code, kishino_code, monkeypatch):
    computed = []
    real = cohomology._representatives
    monkeypatch.setattr(cohomology, "_representatives",
                        lambda T, F, rows: computed.append((T, F)) or real(T, F, rows))
    invariant._suite_basis.cache_clear()
    # the same table read from its file again: equal, but a separate object
    reread = read_biquandle((data_dir / "kishinoT.bq").read_text(), BlockConvention.DEFINITION)
    assert reread == kishino_T and reread is not kishino_T
    bases = {}
    for F in (Q, F5):
        for T in (kishino_T, reread):
            for code in (unknot_code, trefoil_code, kishino_code):
                bases.setdefault(F, []).append([phi for phi, _v in yb_invariant_suite(code, T, F)])
    assert computed == [(kishino_T, Q), (kishino_T, F5)]
    for F, seen in bases.items():
        assert seen[0] and all(phi.field == F for phi in seen[0])
        assert all(basis == seen[0] for basis in seen)

    bad = Biquandle(tuple(((1, 1), (1, 1)) for _ in range(4)))
    for _ in range(2):
        with pytest.raises(ValueError, match="fails validation"):
            yb_invariant_suite(unknot_code, bad, Q)
    assert len(computed) == 2

    # the cohomology functions themselves keep no cache
    direct = [reduced_cohomology_basis(kishino_T, Q) for _ in range(2)]
    assert computed[2:] == [(kishino_T, Q)] * 2
    assert direct == [bases[Q][0]] * 2


# --- invariance laws --------------------------------------------------------


def test_zero_cocycle_recovers_counting(trefoil_code, link_code, kishino_code,
                                        kishino_T):
    z = zero_cochain(4, Q)
    for code in (trefoil_code, link_code, kishino_code):
        v = yb_invariant(code, kishino_T, z)
        assert v.as_dict() == {0: counting_invariant(code, kishino_T)}


def test_coboundary_shift_is_invisible(kishino_code, kishino_T, phi2):
    rng = random.Random(7)
    base = yb_invariant(kishino_code, kishino_T, phi2)
    for _ in range(3):
        lam = Cochain1(Q, tuple(Q.coerce(rng.randrange(-5, 6)) for _ in range(4)))
        shifted = Cochain2(Q, tuple(
            Q.add(a, b) for a, b in zip(phi2.coeffs,
                                        coboundary_of(kishino_T, lam).coeffs)))
        assert yb_invariant(kishino_code, kishino_T, shifted) == base


def test_reidemeister_moves_preserve_value(kishino_code, kishino_T, phi2):
    base = yb_invariant(kishino_code, kishino_T, phi2)
    for move, site in [("R1+", (0, 2)), ("R1-", (0, 0)),
                       ("R2", ((0, 1), (0, 5)))]:
        moved = insert_r_move(kishino_code, move, site)
        assert yb_invariant(moved, kishino_T, phi2) == base


def test_half_exponents(kishino_code, kishino_T, phi1):
    # Scaling a cocycle halves every exponent but changes nothing else.
    half = Cochain2(Q, tuple(Q.coerce(Fraction(1, 2)) * c for c in phi1.coeffs))
    v = yb_invariant(kishino_code, kishino_T, half)
    assert v.as_dict() == {Fraction(-1, 2): 2, 0: 12, Fraction(1, 2): 2}
    assert str(v) == "2*t^-1/2 + 12 + 2*t^1/2"


def test_boltzmann_sum_of_constant_coloring(kishino_code, kishino_T, phi1, phi2):
    # Neither shipped cocycle has a (1,1) term, so the all-ones coloring
    # contributes zero at every crossing.
    ones = (1,) * kishino_code.n_semi_arcs
    assert boltzmann_sum(kishino_code, kishino_T, phi1, ones) == 0
    assert boltzmann_sum(kishino_code, kishino_T, phi2, ones) == 0


def test_boltzmann_sum_refuses_what_is_no_coloring(kishino_code, kishino_T, phi1):
    # Color 0 and a 7-entry tuple once summed to 0, reading the padding row
    # or wrapping to the last entry, and color 5 raised a bare IndexError.
    for bad in ((0,) * 8, (1,) * 7, (5,) * 8, (1,) * 7 + (2,)):
        with pytest.raises(ValueError, match=r"not a coloring of the 8 semi-arcs by 1\.\.4"):
            boltzmann_sum(kishino_code, kishino_T, phi1, bad)
    real = (1, 1, 1, 1, 1, 2, 3, 2)
    assert real in enumerate_colorings(kishino_code, kishino_T)
    assert boltzmann_sum(kishino_code, kishino_T, phi1, real) == \
        reference_state_sum(crossings_of(kishino_code), 4, phi1, real)


# --- the int sums against field arithmetic ----------------------------------


def _typed(values):
    return [(type(v), v) for v in values]


@pytest.fixture(scope="module")
def summed_cocycles(kishino_T, phi1):
    """(table, cocycles) pairs whose sums take every scaling: kishinoT's
    basis over Q (m = 1), phi1 over 2 and over 3 (m = 2, 3), A(5,2,3)'s
    basis over Z5 and kishinoT's over Z2."""
    A = alexander_biquandle(5, 2, 3)
    return [(kishino_T, reduced_cohomology_basis(kishino_T, Q)),
            (kishino_T, [Cochain2(Q, tuple(c / k for c in phi1.coeffs)) for k in (2, 3)]),
            (A, reduced_cohomology_basis(A, F5)),
            (kishino_T, reduced_cohomology_basis(kishino_T, FieldSpec(2)))]


def _seeded_codes(random_code):
    rng = random.Random(23)
    return [random_code(rng, rng.randint(2, 7), 1 + i % 3) for i in range(12)]


def test_state_sums_match_field_arithmetic(summed_cocycles, random_code):
    # One scan serves all the cocycles of a pair, as in the suite.  Equal
    # terms in the same order, exponent types included: Fraction over Q,
    # an int in 0..p-1 over Z_p.
    for code in _seeded_codes(random_code):
        crossings = crossings_of(code)
        for T, cocycles in summed_cocycles:
            colorings = enumerate_colorings(code, T)
            got = invariant._invariants(code, T, checked_search(code, T),
                                        [invariant._scaled(phi) for phi in cocycles])
            for phi, value in zip(cocycles, got, strict=True):
                want = LaurentMultiset.from_exponents(
                    reference_state_sum(crossings, T.n, phi, c) for c in colorings)
                assert [(type(e), e, m) for e, m in value.terms] == \
                    [(type(e), e, m) for e, m in want.terms]


def test_boltzmann_sum_matches_field_arithmetic(summed_cocycles, random_code):
    for code in _seeded_codes(random_code)[:6]:
        crossings = crossings_of(code)
        for T, cocycles in summed_cocycles:
            for phi in cocycles:
                colorings = enumerate_colorings(code, T)
                assert _typed(boltzmann_sum(code, T, phi, c) for c in colorings) == \
                    _typed(reference_state_sum(crossings, T.n, phi, c) for c in colorings)


# --- the relation list against the word path -------------------------------


def test_relation_path_matches_word_path(data_dir, kishino_T, random_code):
    # enumerate_colorings and the suite read the crossing relations as
    # tuples; the public word path builds the presentation, eliminates and
    # scans on its words, and sums in the field's arithmetic.  The codes are
    # the shipped ones and 20 seeded knots and links, one with a
    # zero-crossing component and one with an R1 kink.
    names = ("unknot", "trefoil", "kishino", "link-two-component", "conway")
    codes = [parse_gauss_code((data_dir / f"{name}.gauss").read_text()) for name in names]
    rng = random.Random(24)
    codes += [random_code(rng, rng.randint(1, 7), 1 + i % 2) for i in range(18)]
    codes.append(parse_gauss_code(serialize_gauss_code(codes[-1]) + ",0"))
    codes.append(insert_r_move(codes[-2], "R1-", (0, 1)))
    pairs = [(kishino_T, Q), (alexander_biquandle(5, 2, 3), F5),
             (alexander_biquandle(7, 2, 3), FieldSpec(7))]

    def typed(value):  # exponent types included
        return [(type(e), e, m) for e, m in value.terms]
    for i, code in enumerate(codes):
        pres, crossings = knot_presentation(code), crossings_of(code)
        for T, F in pairs:
            colorings = scan_relations(T, crossing_relations(crossings), code.n_semi_arcs,
                                       eliminate(pres)[0])
            assert enumerate_colorings(code, T) == colorings, f"code {i} by order {T.n}"
            want = [(phi, typed(LaurentMultiset.from_exponents(
                reference_state_sum(crossings, T.n, phi, c) for c in colorings)))
                for phi in reduced_cohomology_basis(T, F)]
            assert [(phi, typed(v)) for phi, v in yb_invariant_suite(code, T, F)] == want, \
                f"code {i} by order {T.n}"


def test_invariants_build_no_words(data_dir, kishino_T, phi1, monkeypatch):
    # Words are for display and the reduction API: the colorings and both
    # invariant functions run with every word record refused, on a code
    # parsed here, whose plan is worked out under the refusal.
    def refuse(*args, **kwargs):
        raise AssertionError("built a presentation word")

    for name in ("OpWord", "Relation", "Presentation"):
        monkeypatch.setattr(presentation, name, refuse)
    kishino_code = parse_gauss_code((data_dir / "kishino.gauss").read_text())
    assert len(enumerate_colorings(kishino_code, kishino_T)) == 16
    assert str(yb_invariant(kishino_code, kishino_T, phi1)) == "2*t^-1 + 12 + 2*t"
    assert [str(v) for _phi, v in yb_invariant_suite(kishino_code, kishino_T, Q)] == \
        ["2*t^-1 + 12 + 2*t", "2*t^-2 + 12 + 2*t^2"]


# --- input checking ---------------------------------------------------------


def test_invalid_biquandle_rejected(unknot_code):
    bad = Biquandle(tuple(((1, 1), (1, 1)) for _ in range(4)))
    with pytest.raises(ValueError, match="fails validation"):
        yb_invariant(unknot_code, bad, zero_cochain(2, Q))


def test_size_mismatch_rejected(unknot_code, kishino_T):
    with pytest.raises(ValueError, match="cochain is over 2 elements, biquandle over 4"):
        yb_invariant(unknot_code, kishino_T, zero_cochain(2, Q))
    with pytest.raises(ValueError, match="cochain is over 2 elements, biquandle over 4"):
        boltzmann_sum(unknot_code, kishino_T, zero_cochain(2, Q), (1,))


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("entry", ["is_cocycle", "is_ri_reduced", "classify_cochain",
                                   "boltzmann_sum", "yb_invariant"])
def test_size_checked_at_every_entry_point(trefoil_code, kishino_T, entry, n):
    # a 5-element cochain was once classified not-cocycle, a 3-element one
    # raised IndexError
    phi = cochain2_from_pairs(n, Q, {(1, 1): 1})
    calls = {"is_cocycle": lambda: cohomology.is_cocycle(kishino_T, phi),
             "is_ri_reduced": lambda: cohomology.is_ri_reduced(kishino_T, phi),
             "classify_cochain": lambda: cohomology.classify_cochain(kishino_T, phi),
             "boltzmann_sum": lambda: boltzmann_sum(trefoil_code, kishino_T, phi,
                                                    (1,) * trefoil_code.n_semi_arcs),
             "yb_invariant": lambda: yb_invariant(trefoil_code, kishino_T, phi)}
    with pytest.raises(ValueError, match=f"^cochain is over {n} elements, biquandle over 4$"):
        calls[entry]()


def test_non_cocycle_rejected(unknot_code, kishino_T):
    v = cochain2_from_pairs(4, Q, {(1, 2): 1})
    with pytest.raises(ValueError, match="not a cocycle"):
        yb_invariant(unknot_code, kishino_T, v)


def test_unreduced_cocycle_warns(unknot_code, kishino_T):
    v = cochain2_from_pairs(4, Q, {(1, 1): 1, (2, 4): 1, (3, 3): 1, (4, 2): 1})
    with pytest.warns(UserWarning, match="not RI-reduced"):
        got = yb_invariant(unknot_code, kishino_T, v)
    assert got.as_dict() == {0: 4}
