"""Enumeration by propagation: forced fills, waiting counts, and full searches."""

import itertools
import math
import random

import pytest

from conftest import relabel

from biquandles.core import (OpKind, alexander_biquandle,
                             validate_biquandle, write_biquandle)
from biquandles.search import (CONTRADICTION, PartialBiquandle, TableSearch,
                               _axiom_sides, axiom_instances, complete_partial,
                               enumerate_biquandles, propagate, waiting)


def all_cells(n):
    return [(k, a, b) for k in OpKind
            for a in range(1, n + 1) for b in range(1, n + 1)]


# --- the full-sweep reference ------------------------------------------------
#
# Propagation as it was computed before the compiled engine, and the
# waiting counts the same way: every axiom instance's expression trees are
# walked again, to a fixpoint, on every call.  The engine must agree with
# them exactly.


def _eval_partial(P, expr, vals):
    """Evaluate bottom-up, left then right; returns ('val', v), ('blank',
    cell) when only the outermost cell is blank, or ('deep', cell) when an
    inner read blocked first, at the blank cell."""
    if isinstance(expr, int):
        return "val", vals[expr]
    kind, left, right = expr
    lk, lv = _eval_partial(P, left, vals)
    if lk != "val":
        return "deep", lv
    rk, rv = _eval_partial(P, right, vals)
    if rk != "val":
        return "deep", rv
    v = P.tables[kind][lv - 1][rv - 1]
    if v == 0:
        return "blank", (OpKind(kind), lv, rv)
    return "val", v


def reference_propagate(P):
    P = P.copy()
    instances = axiom_instances(P.n)
    changed = True
    while changed:
        changed = False
        for _eq_id, lhs, rhs, vals in instances:
            lk, lv = _eval_partial(P, lhs, vals)
            rk, rv = _eval_partial(P, rhs, vals)
            if lk == "val" and rk == "val":
                if lv != rv:
                    return CONTRADICTION
            elif lk == "val" and rk == "blank":
                P.set(rv, lv)
                changed = True
            elif lk == "blank" and rk == "val":
                P.set(lv, rv)
                changed = True
    return P


def reference_waiting(P):
    """Each blank cell of P with the number of sides whose first blank
    read, in compile_sides' step order, is that cell."""
    counts = {c: 0 for c in P.blanks()}
    for _eq_id, lhs, rhs, vals in axiom_instances(P.n):
        for side in (lhs, rhs):
            kind, cell = _eval_partial(P, side, vals)
            if kind != "val":
                counts[cell] += 1
    return counts


def random_partials(T, rng, count):
    """Random blank subsets of T, of every size; every third one has at
    most a quarter of its cells blank and one filled cell changed, which
    usually makes it contradictory."""
    cells = all_cells(T.n)
    for i in range(count):
        P = PartialBiquandle.from_biquandle(T)
        wrong = i % 3 == 2
        blank = rng.randint(1, len(cells) // 4 if wrong else len(cells))
        for cell in rng.sample(cells, blank):
            P.set(cell, 0)
        if wrong:
            cell = rng.choice([c for c in cells if P.get(c)])
            P.set(cell, rng.choice([v for v in range(1, T.n + 1) if v != P.get(cell)]))
        yield P


DIFFERENTIAL_TABLES = [("kishinoT", None, 16), ("A(2,1,1)", (2, 1, 1), 24),
                       ("A(3,1,2)", (3, 1, 2), 24), ("A(3,2,2)", (3, 2, 2), 24),
                       ("A(4,3,3)", (4, 3, 3), 16), ("A(4,1,3)", (4, 1, 3), 16),
                       ("A(5,2,3)", (5, 2, 3), 8), ("A(5,2,2)", (5, 2, 2), 8)]


@pytest.mark.parametrize("name,params,count", DIFFERENTIAL_TABLES,
                         ids=[t[0] for t in DIFFERENTIAL_TABLES])
def test_engine_matches_full_sweep(kishino_T, name, params, count):
    T = kishino_T if params is None else alexander_biquandle(*params)
    rng = random.Random(f"engine {name}")
    contradictions = 0
    for P in random_partials(T, rng, count):
        before = P.copy()
        expected = reference_propagate(P)
        got = propagate(P)
        if expected is CONTRADICTION:
            contradictions += 1
            assert got is CONTRADICTION
            assert waiting(P) is CONTRADICTION
        else:
            assert got is not CONTRADICTION and got.tables == expected.tables
            assert waiting(P) == reference_waiting(expected)
        assert P == before, "propagate and waiting must not touch their input"
    if T.n > 2:
        assert contradictions, "the sample should reach a contradiction"


def slot(n, cell):
    k, a, b = cell
    return k * n * n + (a - 1) * n + (b - 1)


def test_branch_cell_matches_full_sweep(kishino_T):
    # Most sides waiting, ties to the lowest (table, row, column).
    checked = 0
    for name, params, count in DIFFERENTIAL_TABLES:
        T = kishino_T if params is None else alexander_biquandle(*params)
        rng = random.Random(f"branch {name}")
        for P in random_partials(T, rng, count):
            search = TableSearch(P)
            if not search.start():
                continue
            Q = reference_propagate(P)
            if Q.is_complete():
                assert search._branch_cell() == -1
                continue
            counts = reference_waiting(Q)
            best = max(counts, key=lambda c: (counts[c], [-x for x in c]))
            assert search._branch_cell() == slot(T.n, best)
            checked += 1
    assert checked > 50


class CheckedSearch(TableSearch):
    """A search that checks the rating it branches on, each blank cell's
    watch count, against the full sweep at every branch, and keeps a copy
    of the watch lists as they were after the root propagation."""

    checked = 0

    def start(self):
        ok = super().start()
        self.root = [w[:] for w in self.watch[:self.cells]]
        return ok

    def _branch_cell(self):
        P = self.to_partial()
        assert reference_propagate(P).tables == P.tables, "not a fixpoint"
        expected = reference_waiting(P)
        assert {c: len(self.watch[slot(self.n, c)]) for c in expected} == expected
        self.checked += 1
        return super()._branch_cell()


@pytest.mark.parametrize("blank_tables", [None, (0, 2), (1, 3),
                                          pytest.param("A(3,1,2)", id="A(3,1,2)")])
def test_incremental_ratings_match_full_sweep(kishino_T, blank_tables):
    # None: the blank order-2 table; a pair: kishinoT with those two tables
    # blanked; "A(3,1,2)": that table with its UP and UPBAR tables blanked
    if blank_tables is None:
        P, expected = PartialBiquandle.blank(2), enumerate_biquandles(2)
    else:
        T = kishino_T
        if blank_tables == "A(3,1,2)":
            T, blank_tables = alexander_biquandle(3, 1, 2), (0, 2)
        P = PartialBiquandle.from_biquandle(T)
        for k in blank_tables:
            P.tables[k] = [[0] * T.n for _ in range(T.n)]
        expected = complete_partial(P)
    search = CheckedSearch(P)
    assert search.run() == expected
    assert search.nodes > 10
    # every branching node was checked, and each tried n values
    assert search.nodes == 1 + search.n * search.checked
    # backtracking pops every watch entry a branch added, back to the root
    assert [w[:] for w in search.watch[:search.cells]] == search.root


def test_search_tree_size_is_pinned(blank_search):
    # Nodes are propagations: the root and one per branch value tried.
    # The counts follow from the branch rule: a change of rule changes
    # them, and so must change this pin.
    for n, count, nodes in [(1, 1, 3), (2, 2, 67), (3, 36, 2761), (4, 744, 194521)]:
        search = blank_search(n)
        assert len(search.found) == count
        assert search.nodes == nodes


@pytest.mark.parametrize("params,blank_tables,count,nodes",
                         [((4, 3, 3), (OpKind.UP, OpKind.UPBAR), 8, 277),
                          ((4, 1, 3), (OpKind.DOWN, OpKind.DOWNBAR), 4, 169)],
                         ids=["A(4,3,3)", "A(4,1,3)"])
def test_completion_tree_size_is_pinned(params, blank_tables, count, nodes):
    # the propagation workload's heaviest completions, unrelabelled
    P = PartialBiquandle.from_biquandle(alexander_biquandle(*params))
    for k in blank_tables:
        P.tables[k] = [[0] * 4 for _ in range(4)]
    search = TableSearch(P)
    assert len(search.run()) == count
    assert search.nodes == nodes


def test_axiom_sides_fold_constant_pairs():
    # A subterm of two instance variables reads one fixed cell and compiles
    # to it, except as the left operand of a subterm whose right operand
    # has steps of its own (one such step in each side of 3.iii and 3.vi).
    for n in range(1, 5):
        sides, _scratch = _axiom_sides(n)
        constants = range(4 * n * n, 4 * n * n + n)
        kept = 0
        for steps, _out in sides:
            for i, (_o, x, y, t) in enumerate(steps):
                if x in constants and y in constants:
                    kept += 1
                    assert any(x2 == t and y2 > constants[-1] for _o2, x2, y2, _t2 in steps[i:])
        assert kept == 4 * n ** 3
    assert sum(len(steps) for steps, _out in _axiom_sides(4)[0]) == 1600


def test_search_leaves_its_input_alone(kishino_T):
    P = PartialBiquandle.from_biquandle(kishino_T)
    for cell in all_cells(4)[:20]:
        P.set(cell, 0)
    before = P.copy()
    first = complete_partial(P)
    assert P == before
    assert complete_partial(P) == first == [kishino_T]


def test_partial_helpers(kishino_T):
    P = PartialBiquandle.blank(3)
    assert P.n == 3
    assert not P.is_complete()
    assert len(P.blanks()) == 36
    assert P.blanks()[0] == (OpKind.UP, 1, 1)
    assert P.blanks()[-1] == (OpKind.DOWNBAR, 3, 3)

    F = PartialBiquandle.from_biquandle(kishino_T)
    assert F.is_complete() and not F.blanks()
    assert F.to_biquandle() == kishino_T
    F.set((OpKind.UP, 1, 2), 0)
    assert F.blanks() == [(OpKind.UP, 1, 2)]
    assert F.get((OpKind.UP, 1, 2)) == 0
    # a copy is independent: filling its blank leaves the original blank
    G = F.copy()
    G.set((OpKind.UP, 1, 2), kishino_T.tables[OpKind.UP][0][1])
    assert F.blanks() == [(OpKind.UP, 1, 2)]
    assert G != F and G.to_biquandle() == kishino_T


def test_axiom_instance_counts():
    # 4 pair equations on n^2 pairs plus 6 triple equations on n^3 triples.
    assert len(axiom_instances(1)) == 10
    assert len(axiom_instances(2)) == 64
    assert len(axiom_instances(3)) == 198


def test_waiting_on_blank_single_element():
    # Nothing is forced on one blank element.  Of the 20 sides, the 4 bare
    # variables are complete and the other 16 wait on their first read,
    # 4 on each table.
    assert waiting(PartialBiquandle.blank(1)) == {(k, 1, 1): 4 for k in OpKind}


def test_propagation_detects_contradiction():
    allones = PartialBiquandle([[[1, 1], [1, 1]] for _ in range(4)])
    assert propagate(allones) is CONTRADICTION
    assert waiting(allones) is CONTRADICTION


def test_propagation_restores_blanked_cell(kishino_T):
    P = PartialBiquandle.from_biquandle(kishino_T)
    P.set((OpKind.DOWN, 4, 4), 0)
    forced = propagate(P)
    assert forced is not CONTRADICTION
    assert forced.get((OpKind.DOWN, 4, 4)) == kishino_T.down(4, 4)
    assert waiting(P) == {}, "no blank cell is left to wait on"


def test_every_single_blank_completes_uniquely(kishino_T):
    for cell in all_cells(4):
        P = PartialBiquandle.from_biquandle(kishino_T)
        P.set(cell, 0)
        assert complete_partial(P) == [kishino_T], f"cell {cell}"


def test_damaged_cells_complete_uniquely(kishino_T):
    # The three historically unreliable entries of the shipped table: blank
    # them all and the search still has exactly one valid completion.
    P = PartialBiquandle.from_biquandle(kishino_T)
    for cell in [(OpKind.UPBAR, 2, 4), (OpKind.DOWN, 4, 3), (OpKind.DOWN, 4, 4)]:
        P.set(cell, 0)
    assert complete_partial(P) == [kishino_T]


def test_larger_blank_subset_still_finds_original(kishino_T):
    rng = random.Random(5)
    cells = rng.sample(all_cells(4), 12)
    P = PartialBiquandle.from_biquandle(kishino_T)
    for cell in cells:
        P.set(cell, 0)
    completions = complete_partial(P)
    assert kishino_T in completions
    assert all(validate_biquandle(T).ok for T in completions)


def orbit_census(found):
    """(number of isomorphism classes, sum of n!/|Aut(T)| over the classes)
    of a list of order-n tables closed under relabelling."""
    tables = set(found)
    classes = {}
    for T in found:
        images = [relabel(T, perm) for perm in itertools.permutations(range(1, T.n + 1))]
        assert all(image in tables for image in images)
        autos = sum(image == T for image in images)
        classes[min(write_biquandle(image) for image in images)] = \
            math.factorial(T.n) // autos
    return len(classes), sum(classes.values())


def test_enumerate_one_element():
    (T,) = enumerate_biquandles(1)
    assert T.tables == tuple(((1,),) for _ in range(4))
    assert orbit_census([T]) == (1, 1)


def test_enumerate_two_elements():
    # Exactly two structures: every operation keeps the left element, or
    # every operation flips it.  Neither has a relabelled twin.
    keep, flip = enumerate_biquandles(2)
    assert keep.tables == tuple(((1, 1), (2, 2)) for _ in range(4))
    assert flip.tables == tuple(((2, 2), (1, 1)) for _ in range(4))
    assert orbit_census([keep, flip]) == (2, 2)


def test_enumerate_three_elements(blank_search):
    # the full table search that enumerate_biquandles(3) runs, shared
    found = blank_search(3).found
    assert len(found) == 36
    assert all(validate_biquandle(T).ok for T in found)
    keys = [write_biquandle(T) for T in found]
    assert keys == sorted(keys) and len(set(keys)) == 36
    # orbit-stabilizer: 15 classes whose orbits make up all 36 tables
    assert orbit_census(found) == (15, 36)


def test_enumerate_four_elements(blank_search, kishino_T):
    # the order-4 census: 98 classes whose orbits make up all 744 tables
    found = blank_search(4).found
    assert len(found) == 744
    assert all(validate_biquandle(T).ok for T in found)
    keys = [write_biquandle(T) for T in found]
    assert keys == sorted(keys) and len(set(keys)) == 744
    assert orbit_census(found) == (98, 744)
    tables = set(found)
    assert kishino_T in tables
    # every Alexander table of order 4 (s and t are units mod 4)
    assert all(alexander_biquandle(4, s, t) in tables for s in (1, 3) for t in (1, 3))


def test_enumerate_is_deterministic():
    assert enumerate_biquandles(2) == enumerate_biquandles(2)


def test_enumerate_bounds():
    with pytest.raises(ValueError, match="must be positive"):
        enumerate_biquandles(0)
    with pytest.raises(ValueError, match="exceeds the enumeration limit"):
        enumerate_biquandles(5)
    with pytest.raises(ValueError, match="n = 2 exceeds the enumeration limit 1"):
        enumerate_biquandles(2, limit=1)
    # True once returned the order-1 census
    with pytest.raises(ValueError, match="n must be an int, got True"):
        enumerate_biquandles(True)


@pytest.mark.parametrize("bad", [-1, 7, 3])
@pytest.mark.parametrize("entry", [complete_partial, propagate, waiting, TableSearch],
                         ids=lambda f: f.__name__)
def test_table_search_checks_its_input(entry, bad):
    # -1 once came back as a "completion" with UP[1,1] = 2, 7 raised
    # IndexError, 3 failed only at a search leaf, and propagate and waiting
    # handed all three back
    P = PartialBiquandle.blank(2)
    P.set((OpKind.UP, 1, 1), bad)
    with pytest.raises(ValueError, match=rf"table entry {bad} outside 0\.\.2"):
        entry(P)


@pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (3, 1), (1, 3), (-1, 1)])
def test_partial_cell_access_checks_its_elements(a, b):
    # element 0 once wrapped to n: set((UP, 0, 1), 1) wrote UP[2,1]
    P = PartialBiquandle.blank(2)
    for access in (lambda cell: P.get(cell), lambda cell: P.set(cell, 1)):
        with pytest.raises(ValueError, match=rf"elements \({a},{b}\) outside 1\.\.2"):
            access((OpKind.UP, a, b))
    assert P == PartialBiquandle.blank(2)


@pytest.mark.parametrize("k", [-1, 4, 7])
def test_partial_cell_access_checks_its_table(k):
    # table -1 once wrote the DOWNBAR table, 7 raised a bare IndexError
    P = PartialBiquandle.blank(2)
    for access in (lambda cell: P.get(cell), lambda cell: P.set(cell, 2)):
        with pytest.raises(ValueError, match=f"{k} is not a valid OpKind"):
            access((k, 1, 1))
    assert P == PartialBiquandle.blank(2)


@pytest.mark.parametrize("entry", [complete_partial, propagate, waiting, TableSearch],
                         ids=lambda f: f.__name__)
def test_table_search_refuses_bool_entries(entry):
    # True once completed to tables of bools, which write_biquandle printed
    # as "True" and read_biquandle refused
    P = PartialBiquandle([[[True]] for _ in range(4)])
    with pytest.raises(ValueError, match="table entry True is not an int"):
        entry(P)


@pytest.mark.parametrize("entry", [complete_partial, propagate, waiting])
def test_table_search_rejects_ragged_tables(entry):
    P = PartialBiquandle.blank(2)
    P.tables[2][1] = [0]
    with pytest.raises(ValueError, match="n x n"):
        entry(P)
    with pytest.raises(ValueError, match="four"):
        entry(PartialBiquandle(P.tables[:3]))
