"""Coloring enumeration: both strategies, counting values, and validity."""

import copy
import pickle
import random
import time

import pytest
from conftest import count_calls, eval_word, reference_scan

from biquandles import coloring, core, presentation, search
from biquandles.coloring import (SearchLimitError, checked_search, counting_invariant,
                                 enumerate_colorings, enumerate_colorings_oracle,
                                 scan_code, scan_relations)
from biquandles.core import Biquandle, OpKind, alexander_biquandle
from biquandles.gauss import crossings_of, insert_r_move, parse_gauss_code, serialize_gauss_code
from biquandles.presentation import (OpWord, Presentation, Relation,
                                     crossing_relations, knot_presentation, reduce_to,
                                     reduce_with_trace, word_nodes)

SHIPPED_CODES = ["unknot", "trefoil", "kishino", "link-two-component", "conway"]


# --- the odometer reference --------------------------------------------------
#
# The reduced scan as it was before backtracking: every one of the n^k
# assignments of the k survivors, in odometer order, checked against every
# reduced relation.  The backtracking scan must find exactly its colorings.


def _decode(index: int, n: int, k: int) -> tuple[int, ...]:
    # odometer order: last generator varies fastest
    digits = []
    for _ in range(k):
        digits.append(index % n + 1)
        index //= n
    return tuple(reversed(digits))


def _scan_chunk(T, reduced, trace, n_semi_arcs: int,
                start: int, stop: int) -> list[tuple[int, ...]]:
    n = T.n
    survivors = reduced.generators
    k = len(survivors)
    found = []
    for index in range(start, stop):
        values = _decode(index, n, k)
        asg = dict(zip(survivors, values))
        if all(eval_word(r.lhs, T, asg) == asg[r.rhs] for r in reduced.relations):
            for g, w in reversed(trace):
                asg[g] = eval_word(w, T, asg)
            found.append(tuple(asg[a] for a in range(1, n_semi_arcs + 1)))
    return found


def odometer_scan(T, reduced, trace, n_semi_arcs: int) -> list[tuple[int, ...]]:
    total = T.n ** len(reduced.generators)
    return sorted(_scan_chunk(T, reduced, trace, n_semi_arcs, 0, total))


def odometer_colorings(code, T) -> list[tuple[int, ...]]:
    reduced, trace = reduce_with_trace(knot_presentation(code))
    return odometer_scan(T, reduced, trace, code.n_semi_arcs)


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
    assert counting_invariant(conway_code, alexander_biquandle(5, 2, 3)) == 5


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


def test_search_limit(conway_code):
    # 100^5 candidate assignments is over the 10^8 cap.
    big = alexander_biquandle(100, 1, 3)
    with pytest.raises(SearchLimitError, match=r"100\^5"):
        enumerate_colorings(conway_code, big)


def test_strategies_agree_on_random_codes(kishino_T, random_code):
    # Any signed Gauss code is a virtual diagram, so seeded random codes
    # make test cases nobody picked by hand.
    rng = random.Random(20261018)
    tables = [kishino_T] + [alexander_biquandle(n, s, t) for n, s, t in
                            [(3, 1, 2), (4, 1, 3), (5, 2, 3), (7, 2, 3)]]
    for i in range(30):
        code = random_code(rng, rng.randint(2, 6), 1 + i % 3)
        for T in tables:
            assert enumerate_colorings_oracle(code, T) == enumerate_colorings(code, T), \
                f"code {i} by order {T.n}"


# kishinoT and Alexander tables of orders 3 to 7
def reference_tables(kishino_T):
    return [kishino_T] + [alexander_biquandle(n, s, t) for n, s, t in
                          [(3, 1, 2), (4, 1, 3), (5, 2, 3), (6, 1, 5), (7, 2, 3)]]


def test_oracle_matches_scan_on_conway_across_tables(conway_code, kishino_T):
    # Branching on the lowest blank semi-arc would take 9 s at order 5
    # alone: semi-arcs are numbered along each strand, so the over-strand
    # input of a crossing stays blank and its relations cannot fire.
    for T in reference_tables(kishino_T):
        assert enumerate_colorings_oracle(conway_code, T) == \
            enumerate_colorings(conway_code, T), f"order {T.n}"


def test_oracle_propagations_pinned(link_code, monkeypatch):
    # Every Engine.propagate call, the one in start() included.  Branching
    # on the lowest blank semi-arc would make 97,656 here, 5^0 + ... + 5^7:
    # a full tree on 8 of the 14 semi-arcs with no pruning.
    calls = 0
    propagate = search.Engine.propagate

    def counted(engine):
        nonlocal calls
        calls += 1
        return propagate(engine)

    monkeypatch.setattr(search.Engine, "propagate", counted)
    assert len(enumerate_colorings_oracle(link_code, alexander_biquandle(5, 2, 3))) == 25
    assert calls == 281


def test_oracle_uses_neither_reduction_nor_scan(data_dir, kishino_T, monkeypatch):
    # The oracle checks the reduction and the scan, so it must not run them.
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran a part of the reduced scan")

    for module, name in ((presentation, "_eliminate"), (coloring, "survivors_of"),
                         (coloring, "_stage"), (coloring, "_compile"),
                         (coloring, "scan_relations")):
        monkeypatch.setattr(module, name, refuse)
    for name in SHIPPED_CODES:
        code = parse_gauss_code((data_dir / f"{name}.gauss").read_text())
        assert enumerate_colorings_oracle(code, kishino_T), name


@pytest.mark.parametrize("text", ["0", "0,0", "-1,2,-3,1,-2,3,0,0", "0,-1,2,-3,1,-2,3,0"])
def test_oracle_on_zero_crossing_components(kishino_T, text):
    # A zero-crossing component's semi-arc is read by no relation, so no
    # closure reaches it; the order must still pick it.
    code = parse_gauss_code(text)
    for T in (kishino_T, alexander_biquandle(3, 1, 2), alexander_biquandle(5, 2, 3)):
        cols = enumerate_colorings_oracle(code, T)
        assert cols == enumerate_colorings(code, T), f"order {T.n}"
        assert all(0 not in c for c in cols), f"order {T.n}"


@pytest.mark.parametrize("name", SHIPPED_CODES)
def test_scan_matches_odometer_on_shipped_codes(data_dir, kishino_T, name):
    code = parse_gauss_code((data_dir / f"{name}.gauss").read_text())
    for T in reference_tables(kishino_T):
        assert enumerate_colorings(code, T) == odometer_colorings(code, T), f"order {T.n}"


def test_scan_matches_odometer_on_random_codes(kishino_T, random_code):
    # Knots and two-component links of 1 to 7 crossings; each code meets
    # two of the tables, so every table sees every size.
    rng = random.Random(20261019)
    tables = reference_tables(kishino_T)
    i = 0
    for crossings in range(1, 8):
        for components in (1, 2):
            for _ in range(3):
                code = random_code(rng, crossings, components)
                for T in (tables[i % len(tables)], tables[(i + 3) % len(tables)]):
                    assert enumerate_colorings(code, T) == odometer_colorings(code, T), \
                        f"code {i} by order {T.n}"
                i += 1


def test_scan_matches_odometer_on_partial_reductions(trefoil_code, kishino_code, kishino_T,
                                                     monkeypatch):
    # A reduction cut short by its word budget leaves relations whose
    # isolated generator is not in their word, so the scan must wait for
    # that generator too before checking them.  With no elimination at all
    # every semi-arc survives and every crossing relation is a check.
    tables = (alexander_biquandle(3, 1, 2), kishino_T)
    for code in (trefoil_code, kishino_code):
        pres = knot_presentation(code)
        relations, arcs = crossing_relations(crossings_of(code)), code.n_semi_arcs
        for budget in (0, 24):
            with monkeypatch.context() as m, \
                    pytest.warns(UserWarning, match="reduction stopped early"):
                m.setattr(presentation, "NODE_BUDGET", budget)
                reduced, trace = reduce_with_trace(pres)
            for T in tables:
                assert scan_relations(T, relations, arcs, reduced.generators) == \
                    odometer_scan(T, reduced, trace, arcs), \
                    f"budget {budget} by order {T.n}"
        for T in tables:
            assert scan_relations(T, relations, arcs, pres.generators) == \
                enumerate_colorings(code, T), f"no elimination by order {T.n}"


def test_scan_matches_odometer_on_larger_random_codes(kishino_T, random_code):
    # Knots and two-component links of 8 to 10 crossings: the most
    # eliminated semi-arcs, with the longest chains of lookups between a
    # survivor and the semi-arcs that depend on it.
    rng = random.Random(20261020)
    tables = (kishino_T, alexander_biquandle(3, 1, 2))
    for crossings in range(8, 11):
        for components in (1, 2):
            for i in range(3):
                code = random_code(rng, crossings, components)
                for T in tables:
                    assert enumerate_colorings(code, T) == odometer_colorings(code, T), \
                        f"{crossings} crossings, {components} components, code {i}, order {T.n}"


def test_scan_ignores_relation_order(conway_code, kishino_T, random_code):
    rng = random.Random(20261021)
    codes = [conway_code] + [random_code(rng, rng.randint(5, 9), 1 + i % 2) for i in range(6)]
    for i, code in enumerate(codes):
        pres = knot_presentation(code)
        survivors = reduce_with_trace(pres)[0].generators
        relations, arcs = crossing_relations(crossings_of(code)), code.n_semi_arcs
        order = list(range(len(relations)))
        rng.shuffle(order)
        for T in (kishino_T, alexander_biquandle(5, 2, 3)):
            assert scan_relations(T, [relations[j] for j in order], arcs, survivors) == \
                scan_relations(T, relations, arcs, survivors), f"code {i} by order {T.n}"
        # nor do the reduced presentation and the words, built in another
        # walk order when the generators are listed backwards too
        permuted = Presentation(pres.generators[::-1],
                                tuple(pres.relations[j] for j in order))
        assert reduce_to(permuted, survivors) == reduce_to(pres, survivors), f"code {i}"


class CountingTable(list):
    """A padded operation table that counts its row lookups."""

    lookups = 0

    def __getitem__(self, i):
        CountingTable.lookups += 1
        return super().__getitem__(i)


def counting(T):
    """A copy of T whose scan looks up CountingTables."""
    copy = Biquandle(T.tables)
    vars(copy)["padded"] = tuple(map(CountingTable, T.padded))
    return copy


def test_scan_evaluates_each_subword_once(data_dir, monkeypatch):
    # Tietze substitution pastes whole words in for generators, so
    # Conway's 5 reduced relations are trees of 811 nodes.  They hold 22
    # distinct subwords, one per crossing relation (17 eliminated semi-arcs
    # and 5 survivor checks), and the scan stages the crossing relations
    # themselves: each is looked up once per assignment of the survivors it
    # reads.  Checking each reduced relation with the recursive eval_word
    # instead would make 201,880 calls here.  The code is parsed here, so
    # that no plan an earlier test kept can change the count.
    conway_code = parse_gauss_code((data_dir / "conway.gauss").read_text())
    pres = knot_presentation(conway_code)
    reduced = reduce_with_trace(pres)[0]
    assert sum(word_nodes(r.lhs) for r in reduced.relations) == 811
    order, steps, checks, n_slots = coloring._stage(
        crossing_relations(crossings_of(conway_code)), conway_code.n_semi_arcs,
        reduced.generators)
    # slot 0 is unused and the survivors are assigned; each other slot is one lookup
    assert n_slots - 1 - len(order) == sum(map(len, steps)) == 22
    assert sum(map(len, checks)) == len(reduced.relations) == 5

    monkeypatch.setattr(CountingTable, "lookups", 0)
    assert len(enumerate_colorings(conway_code, counting(alexander_biquandle(7, 2, 3)))) == 7
    assert CountingTable.lookups == 36_358


def test_kept_kernel_makes_the_pinned_lookups(data_dir, monkeypatch):
    # The kernel compiled on a code's first scan serves its second: each
    # scan by a fresh counting table makes the pinned 36,358 lookups.
    conway_code = parse_gauss_code((data_dir / "conway.gauss").read_text())
    calls = count_calls(monkeypatch, (coloring, "_compile"))
    for _ in range(2):
        monkeypatch.setattr(CountingTable, "lookups", 0)
        assert len(enumerate_colorings(conway_code, counting(alexander_biquandle(7, 2, 3)))) == 7
        assert CountingTable.lookups == 36_358
    assert calls == {"_compile": 1}


def test_scan_orders_survivors_most_constrained_first(kishino_T, random_code, monkeypatch):
    # 12 survivors, where completing relations one pick at a time made
    # 119,578,624 table lookups: its early picks completed none.
    code = random_code(random.Random(3), 20, 1)
    pres = knot_presentation(code)
    survivors = presentation.eliminate(pres)[0]
    assert len(survivors) == 12
    monkeypatch.setattr(CountingTable, "lookups", 0)
    found = scan_relations(counting(kishino_T), crossing_relations(crossings_of(code)),
                           code.n_semi_arcs, survivors)
    assert CountingTable.lookups == 99_552
    assert len(found) == 8
    assert found == enumerate_colorings_oracle(code, kishino_T)


def test_stage_walks_long_chains_without_recursion(trefoil_code):
    # Semi-arc g < N is (g+1)^(g+1) and semi-arc 1 checks the survivor N:
    # a chain of N - 1 eliminated semi-arcs, far past the recursion limit.
    N = 5_000
    relations = [(g, OpKind.UP, g + 1, g + 1) for g in range(1, N)] + [(N, OpKind.UP, 1, 1)]
    assert len(scan_relations(alexander_biquandle(3, 1, 2), relations, N, (N,))) == 3
    # the word builder gives each link one word, reading the next link's
    chain = Presentation(tuple(range(1, N + 1)), tuple(
        Relation(OpWord(kind, a, b), out) for out, kind, a, b in relations))
    reduced, word = reduce_to(chain, (N,))
    assert word[N - 1] == OpWord(OpKind.UP, N, N)
    assert all(word[g].left is word[g].right is word[g + 1] for g in range(1, N - 1))
    assert reduced.relations[0].lhs.left is word[1] and len(reduced.relations) == 1
    # with no survivors the crossing relations form cycles, which no walk finishes
    with pytest.raises(ValueError, match="cycle"):
        scan_relations(alexander_biquandle(3, 1, 2),
                       crossing_relations(crossings_of(trefoil_code)), 6, ())
    with pytest.raises(ValueError, match="cycle"):
        reduce_to(knot_presentation(trefoil_code), ())


def test_generator_neither_survivor_nor_isolated_rejected():
    # Such a generator has no color to look up and no word to substitute:
    # the scan would leave its color 0 and the word builder would read it
    # as if it survived.
    A = alexander_biquandle(3, 1, 2)
    with pytest.raises(ValueError, match="generator 1 is neither"):
        scan_relations(A, [], 1, ())
    with pytest.raises(ValueError, match="generator 2 is neither"):
        scan_relations(A, [(1, OpKind.UP, 2, 2)], 2, (1,))
    with pytest.raises(ValueError, match="generator 1 is neither"):
        reduce_to(Presentation((1, 2), (Relation(OpWord(OpKind.UP, 1, 1), 2),)), ())
    # nor may a survivor lie outside the generators or come twice: the scan
    # would index past its levels, or scan every coloring once per copy, and
    # the reduced presentation would list a non-generator or one twice
    with pytest.raises(ValueError, match="survivor 5 is not a generator"):
        scan_relations(A, [], 1, (1, 5))
    with pytest.raises(ValueError, match="survivor 1 is repeated"):
        scan_relations(A, [], 1, (1, 1))
    with pytest.raises(ValueError, match="survivor 5 is not a generator"):
        reduce_to(Presentation((1,), ()), (1, 5))
    with pytest.raises(ValueError, match="survivor 1 is repeated"):
        reduce_to(Presentation((1,), ()), (1, 1))


def test_scan_walks_long_survivor_chains_without_recursion():
    # T(2,1001)'s reduction stops at its budget with 1,005 survivors, one
    # scan level each, far past the recursion limit
    n = 1001
    code = parse_gauss_code(",".join(f"{'-' * (i % 2)}{i % n + 1}" for i in range(2 * n)) + ",0")
    with pytest.warns(UserWarning, match="stopped early"):
        assert len(enumerate_colorings(code, alexander_biquandle(1, 1, 1))) == 1
    # no semi-arcs make no scan levels and the one empty coloring
    assert scan_relations(alexander_biquandle(3, 1, 2), [], 0, ()) == [()]


# --- the compiled kernel against the interpreting reference ---------------------


def test_kernel_matches_reference_on_random_codes(blank_search, kishino_T, random_code):
    # Knots and two-component links of 3 to 8 crossings, each code's kept
    # kernel run by all 36 order-3 tables and kishinoT.
    rng = random.Random(30)
    tables = blank_search(3).found + [kishino_T]
    for crossings in range(3, 9):
        for components in (1, 2):
            code = random_code(rng, crossings, components)
            arcs = code.n_semi_arcs
            _crossings, relations, survivors = coloring.search_plan(code)
            staging = coloring._stage(relations, arcs, survivors)
            for i, T in enumerate(tables):
                assert scan_code(code, T) == reference_scan(T, staging, arcs), \
                    f"{crossings} crossings, {components} components, table {i}"


@pytest.mark.parametrize("levels", [15, 16, 17, 32, 33])
def test_kernel_matches_reference_across_chunks(levels):
    # Survivor i > 1 must equal (i - 1) op (i - 16, or 1), so each level
    # checks a survivor up to one generated function back and keeps one
    # value of n, and there are n colorings.  Semi-arc levels + j is looked
    # up from survivors j and levels + 1 - j, at levels in every function.
    # The cap stops a code at 26 levels for n >= 2, so the staging is
    # built here: 16 levels are one function, 17 and 32 two, 33 three.
    relations = [(i, i % 4, i - 1, max(1, i - 16)) for i in range(2, levels + 1)]
    relations += [(levels + j, j % 4, j, levels + 1 - j) for j in range(1, levels + 1)]
    arcs = 2 * levels
    staging = coloring._stage(relations, arcs, tuple(range(1, levels + 1)))
    assert staging[0] == tuple(range(1, levels + 1))
    kernel = coloring._compile(staging, arcs)
    for T in (alexander_biquandle(2, 1, 1), alexander_biquandle(3, 1, 2)):
        found = coloring._scan(T, kernel)
        assert len(found) == T.n and found == reference_scan(T, staging, arcs), f"order {T.n}"


def test_kernel_of_no_semi_arcs():
    staging = coloring._stage([], 0, ())
    T = alexander_biquandle(3, 1, 2)
    assert coloring._scan(T, coloring._compile(staging, 0)) == reference_scan(T, staging, 0) == [()]


def test_kernel_source_grows_linearly_with_levels():
    # 4,000 survivors by the one-element table make 250 generated
    # functions.  Each stores a slot once, for the later functions that
    # read it, and loads only what it reads.  Passing every semi-arc on
    # through every call would make the source quadratic: 4.5 s here, not 0.2.
    t0 = time.perf_counter()
    found = scan_relations(alexander_biquandle(1, 1, 1), [], 4000, tuple(range(1, 4001)))
    assert found == [(1,) * 4000] and time.perf_counter() - t0 < 2


def test_scan_deeper_than_the_stack_is_refused(monkeypatch):
    # 17,000 levels would nest 1,063 generated calls, past the default
    # recursion limit of 1,000: refused before any source is generated.
    monkeypatch.setattr(coloring, "exec", None, raising=False)
    t0 = time.perf_counter()
    with pytest.raises(SearchLimitError, match="17000 levels need 1063 nested calls"):
        scan_relations(alexander_biquandle(1, 1, 1), [], 17000, tuple(range(1, 17001)))
    assert time.perf_counter() - t0 < 0.5


def test_compile_refuses_a_non_int_slot(monkeypatch):
    # Only ints reach the generated source: anything else in a staging is
    # refused before exec runs, and so is a kind that names no table.
    def never(*args):
        raise AssertionError("exec ran on a staging with a non-int slot")
    monkeypatch.setattr(coloring, "exec", never, raising=False)
    order, ((lookup, spare),), checks, n_slots = coloring._stage(
        [(2, OpKind.UP, 1, 1), (1, OpKind.DOWN, 2, 2)], 2, (1,))
    for bad in ((("__import__('os')",), ((lookup, spare),), checks, n_slots),
                (order, ((lookup, (3, "0][0] + t1[0", 2, 2)),), checks, n_slots),
                (order, ((lookup, spare),), (((3.0, 1),),), n_slots)):
        with pytest.raises(ValueError):
            coloring._compile(bad, 2)
    # nor may a relation name a fifth table: kind 7 indexed past the four
    # tables and kind -1 read the last one
    for kind in (7, -1):
        with pytest.raises(ValueError, match="not a valid OpKind"):
            scan_relations(alexander_biquandle(3, 1, 2), [(2, kind, 1, 1)], 2, (1,))


# --- the plan a code keeps -----------------------------------------------------


def test_one_plan_serves_every_table(blank_search, random_code, monkeypatch):
    # One code object scanned by all 36 order-3 tables, unchecked and
    # checked, reduces, stages and compiles once; each table's colorings
    # equal a scan of a fresh parse of it.
    code = random_code(random.Random(29), 6, 2)
    tables = blank_search(3).found
    assert len(tables) == 36
    calls = count_calls(monkeypatch, (presentation, "_eliminate"), (coloring, "_stage"),
                        (coloring, "_compile"))
    got = []
    for T in tables:
        checked_search(code, T)
        got.append((enumerate_colorings(code, T), scan_code(code, T)))
    assert calls == {"_eliminate": 1, "_stage": 1, "_compile": 1}
    text = serialize_gauss_code(code)
    for T, (unchecked, checked) in zip(tables, got):
        assert unchecked == checked == enumerate_colorings(parse_gauss_code(text), T)
    assert len({len(cols) for cols, _c in got}) > 1  # the tables do not all agree


def test_refused_search_stages_nothing(data_dir, kishino_T, random_code, monkeypatch):
    # Over the candidate cap the plan is worked out, but no staging is
    # built or compiled and the table is not validated.
    def never(*args):
        raise AssertionError("staged, compiled or validated a refused search")
    monkeypatch.setattr(coloring, "_stage", never)
    monkeypatch.setattr(coloring, "_compile", never)
    monkeypatch.setattr(core, "validate_biquandle", never)
    conway = parse_gauss_code((data_dir / "conway.gauss").read_text())
    with pytest.warns(UserWarning, match="stopped early"):
        long_knot = random_code(random.Random(5), 150, 1)
        coloring.search_plan(long_knot)
    for code, T, total in ((conway, alexander_biquandle(50, 3, 7), r"50\^5"),
                           (long_knot, kishino_T, r"4\^93")):
        for refused in (checked_search, enumerate_colorings, counting_invariant):
            with pytest.raises(SearchLimitError, match=total):
                refused(code, T)
        assert set(vars(code)) == {"plan"}


def test_kept_plan_leaves_the_record_alone(data_dir):
    # The plan is no field: equality, hash and repr are a fresh parse's, and
    # a copy or a pickled code is rebuilt from the fields, holding no plan.
    text = (data_dir / "link-two-component.gauss").read_text()
    code = parse_gauss_code(text)
    assert len(enumerate_colorings(code, alexander_biquandle(5, 2, 3))) == 25
    assert set(vars(code)) == {"plan", "scan"}
    fresh = parse_gauss_code(text)
    assert vars(fresh) == {}
    assert code == fresh and hash(code) == hash(fresh) and repr(code) == repr(fresh)
    for twin in (copy.copy(code), copy.deepcopy(code), pickle.loads(pickle.dumps(code))):
        assert twin == code and twin is not code and vars(twin) == {}
    assert all(isinstance(piece, tuple) for piece in coloring.search_plan(code))
    with pytest.raises(AttributeError, match="frozen"):
        code.plan = None
