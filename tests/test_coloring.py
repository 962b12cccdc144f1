"""Coloring enumeration: both strategies, counting values, and validity."""

import random

import pytest

from biquandles.coloring import (SearchLimitError, counting_invariant,
                                 enumerate_colorings, enumerate_colorings_oracle,
                                 scan_reduction)
from biquandles.core import alexander_biquandle
from biquandles.gauss import crossings_of, insert_r_move, parse_gauss_code
from biquandles.presentation import knot_presentation, reduce_with_trace


def test_unknot_colorings(unknot_code, kishino_T):
    assert enumerate_colorings(unknot_code, kishino_T) == [(1,), (2,), (3,), (4,)]
    assert counting_invariant(unknot_code, kishino_T) == 4


def test_trefoil_three_colorings(trefoil_code):
    # s = 1, t = n - 1 is the dihedral quandle; the trefoil famously has
    # nine colorings by it (three constant, six not).
    D3 = alexander_biquandle(3, 1, 2)
    cols = enumerate_colorings(trefoil_code, D3)
    assert len(cols) == 9
    assert sum(1 for c in cols if len(set(c)) == 1) == 3


def test_counting_values(trefoil_code, kishino_code, link_code, conway_code, kishino_T):
    assert counting_invariant(trefoil_code, kishino_T) == 4
    assert counting_invariant(kishino_code, kishino_T) == 16
    assert counting_invariant(link_code, kishino_T) == 16
    assert counting_invariant(conway_code, kishino_T) == 4


@pytest.mark.parametrize("name", ["trefoil", "kishino", "link-two-component", "conway"])
def test_strategies_agree(data_dir, kishino_T, name):
    code = parse_gauss_code((data_dir / f"{name}.gauss").read_text())
    assert enumerate_colorings(code, kishino_T) == enumerate_colorings_oracle(code, kishino_T)


def test_strategies_agree_on_moved_code(kishino_code, kishino_T):
    moved = insert_r_move(kishino_code, "R2", ((0, 1), (0, 5)))
    assert enumerate_colorings(moved, kishino_T) == enumerate_colorings_oracle(moved, kishino_T)


def test_colorings_satisfy_crossing_relations(kishino_code, link_code, kishino_T):
    T = kishino_T
    for code in (kishino_code, link_code):
        cols = enumerate_colorings(code, T)
        assert cols, "expected at least one coloring"
        for c in cols:
            for x in crossings_of(code):
                ui, oi = c[x.under_in - 1], c[x.over_in - 1]
                if x.sign > 0:
                    assert c[x.under_out - 1] == T.up(ui, oi)
                    assert c[x.over_out - 1] == T.down(oi, ui)
                else:
                    assert c[x.under_out - 1] == T.upbar(ui, oi)
                    assert c[x.over_out - 1] == T.downbar(oi, ui)


def test_coloring_shape(link_code, kishino_T):
    cols = enumerate_colorings(link_code, kishino_T)
    assert all(len(c) == link_code.n_semi_arcs for c in cols)
    assert cols == sorted(set(cols))


def test_parallel_matches_serial(conway_code):
    # 5 survivors over a 5-element biquandle: 3125 candidates, enough to
    # split across workers.
    A = alexander_biquandle(5, 2, 3)
    serial = enumerate_colorings(conway_code, A, jobs=1)
    assert enumerate_colorings(conway_code, A, jobs=2) == serial
    assert enumerate_colorings(conway_code, A, jobs=3) == serial
    assert len(serial) == 5


def test_jobs_validation(unknot_code, kishino_T):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        enumerate_colorings(unknot_code, kishino_T, jobs=0)


@pytest.mark.parametrize("jobs", [0, -3])
def test_scan_reduction_checks_jobs(unknot_code, conway_code, kishino_T, jobs):
    # Checked before any work, on a one-candidate search as on one large
    # enough to split across workers (7^5 candidates).
    for code, T in ((unknot_code, kishino_T), (conway_code, alexander_biquandle(7, 2, 3))):
        reduced, trace = reduce_with_trace(knot_presentation(code))
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            scan_reduction(T, reduced, trace, code.n_semi_arcs, jobs=jobs)


def test_search_limit(conway_code):
    # 100^5 candidate assignments is over the 10^8 cap.
    big = alexander_biquandle(100, 1, 3)
    with pytest.raises(SearchLimitError, match=r"100\^5"):
        enumerate_colorings(conway_code, big)


def test_strategies_agree_on_random_codes(kishino_T, random_code):
    # Any signed Gauss code is a virtual diagram, so seeded random codes
    # make test cases nobody picked by hand.
    rng = random.Random(20261018)
    tables = [kishino_T, alexander_biquandle(3, 1, 2), alexander_biquandle(5, 2, 3)]
    for i in range(30):
        code = random_code(rng, rng.randint(2, 6), 1 + i % 3)
        for T in tables:
            assert enumerate_colorings_oracle(code, T) == enumerate_colorings(code, T), \
                f"code {i} by order {T.n}"
