import random

import pytest

from biquandles.gauss import (Crossing, GaussEntry, Role, crossings_of,
                              insert_r_move, parse_gauss_code,
                              serialize_gauss_code)

EX2 = "-1-I,2,-3,1+I,-4-I,5,-6,4+I,0,3,-2,6,-5,0"


def test_two_component_link_structure():
    code = parse_gauss_code(EX2)
    assert len(code.components) == 2
    assert [len(c) for c in code.components] == [8, 4]
    assert code.n_crossings == 6
    signs = {x.index: x.sign for x in crossings_of(code)}
    assert signs == {1: -1, 2: 1, 3: 1, 4: -1, 5: 1, 6: 1}


def test_unknot():
    code = parse_gauss_code("0")
    assert len(code.components) == 1
    assert code.components[0] == ()
    assert code.n_crossings == 0
    assert code.n_semi_arcs == 1


def test_trefoil_crossing_structure(trefoil_code):
    xs = crossings_of(trefoil_code)
    assert xs[0] == Crossing(1, 1, under_in=1, over_in=4, under_out=2, over_out=5)
    assert [x.index for x in xs] == [1, 2, 3]
    assert trefoil_code.n_semi_arcs == 6


def test_kink_wraps_cyclically():
    code = parse_gauss_code("+1,-1,0")
    (x,) = crossings_of(code)
    assert (x.under_in, x.over_in, x.under_out, x.over_out) == (2, 1, 1, 2)


def test_wrap_across_component_boundary():
    code = parse_gauss_code(EX2)
    x1 = crossings_of(code)[0]
    # entry 1 of component 1 is UNDER; its in-arc is arc 1, predecessor wraps from entry 8
    assert x1.under_in == 1
    assert x1.under_out == 2


def test_missing_under_occurrence():
    with pytest.raises(ValueError, match="appears only once"):
        parse_gauss_code("1,2,0")


def test_role_mismatch():
    with pytest.raises(ValueError, match="twice as over"):
        parse_gauss_code("1,2,1,2,0")


def test_sign_mismatch():
    with pytest.raises(ValueError, match="sign"):
        parse_gauss_code("1,-1-I,0")


def test_bad_token():
    with pytest.raises(ValueError, match="bad token"):
        parse_gauss_code("1,x,-1,0")
    with pytest.raises(ValueError, match="bad token"):
        parse_gauss_code("+0,0")


def test_crossing_thrice():
    with pytest.raises(ValueError, match="expected twice"):
        parse_gauss_code("1,-1,1,-2,2,0")


def test_renumbering_first_occurrence():
    code = parse_gauss_code("7,-9,-7,9,0")
    assert dict(code.renaming) == {7: 1, 9: 2}
    assert serialize_gauss_code(code) == "1,-2,-1,2,0"


def test_parse_serialize_roundtrip(data_dir):
    for name in ("trefoil", "kishino", "conway", "link-two-component", "unknot"):
        canonical = (data_dir / f"{name}.gauss").read_text().strip()
        code = parse_gauss_code(canonical)
        assert serialize_gauss_code(code) == canonical
        assert serialize_gauss_code(parse_gauss_code(serialize_gauss_code(code))) \
            == canonical


def test_trailing_zero_optional():
    assert serialize_gauss_code(parse_gauss_code("-1,2,-3,1,-2,3")) == \
        "-1,2,-3,1,-2,3,0"


def test_comments_and_whitespace():
    text = "# a trefoil\n -1, 2,\t-3,\n1,-2,3,0\n"
    assert serialize_gauss_code(parse_gauss_code(text)) == "-1,2,-3,1,-2,3,0"


def test_imaginary_marker_case_insensitive():
    a = parse_gauss_code("1+i,-1+I,0")
    b = parse_gauss_code("1+I,-1+I,0")
    assert a.components == b.components


def test_insert_r1_on_unknot(unknot_code):
    for move in ("R1+", "R1-"):
        out = insert_r_move(unknot_code, move, (0, 0))
        assert out.n_crossings == 1
        (x,) = crossings_of(out)
        assert x.sign == (1 if move == "R1+" else -1)


def test_insert_r1_under_first(trefoil_code):
    out = insert_r_move(trefoil_code, "R1+", (0, 2), under_first=True)
    assert out.n_crossings == 4
    entries = out.components[0]
    kink = [e for e in entries if e.crossing == 4]
    assert len(kink) == 2


def test_insert_r2_into_trefoil(trefoil_code):
    out = insert_r_move(trefoil_code, "R2", ((0, 1), (0, 4)))
    assert out.n_crossings == 5
    signs = {x.index: x.sign for x in crossings_of(out)}
    assert sorted(signs.values()).count(1) >= 2  # one new +, one new -


def test_insert_r2_same_position_rejected(trefoil_code):
    with pytest.raises(ValueError):
        insert_r_move(trefoil_code, "R2", ((0, 2), (0, 2)))


def test_insert_r2_across_components(link_code):
    out = insert_r_move(link_code, "R2", ((0, 0), (1, 0)))
    assert out.n_crossings == 8
    assert len(out.components) == 2


def test_invalid_site_rejected(trefoil_code):
    with pytest.raises(ValueError):
        insert_r_move(trefoil_code, "R1+", (5, 0))
    with pytest.raises(ValueError):
        insert_r_move(trefoil_code, "R1+", (0, 99))
    with pytest.raises(ValueError):
        insert_r_move(trefoil_code, "R3", (0, 0))


def test_entry_fields():
    code = parse_gauss_code("1,-1,0")
    first, second = code.components[0]
    assert first == GaussEntry(1, Role.OVER, 1)
    assert second == GaussEntry(1, Role.UNDER, 1)


def test_crossing_signs_match_their_passages(random_code):
    # crossings_of reads each sign in the pass that collects the passages.
    rng = random.Random(4)
    for i in range(20):
        code = random_code(rng, rng.randint(1, 7), 1 + i % 2)
        signs = {e.crossing: e.sign for comp in code.components for e in comp}
        crossings = crossings_of(code)
        assert [x.index for x in crossings] == list(range(1, code.n_crossings + 1))
        assert [x.sign for x in crossings] == [signs[x.index] for x in crossings]
