import random
import warnings

import pytest
from conftest import eval_word

from biquandles import presentation
from biquandles.core import OpKind, alexander_biquandle
from biquandles.gauss import parse_gauss_code
from biquandles.presentation import (NODE_BUDGET, OpWord, Presentation,
                                     Relation, _leaf_counts, eliminate,
                                     format_presentation, format_relation,
                                     format_word, knot_presentation,
                                     reduce_presentation, reduce_with_trace,
                                     word_nodes)

# the 22 crossing relations of an 11-crossing virtual knot diagram,
# two per crossing, one per semi-arc
CONWAY_RELATIONS = [
    "1^16=2", "2_15=3", "3_8=4", "4^9=5", "5_22=6", "6^-11=7", "7_-20=8",
    "8^3=9", "9_4=10", "10^-21=11", "11_-6=12", "12_-17=13", "13^-18=14",
    "14_-19=15", "15^2=16", "16_1=17", "17^-12=18", "18_-13=19", "19^-14=20",
    "20^-7=21", "21_-10=22", "22^5=1",
]


# --- the tree-walking reference ---------------------------------------------
#
# The reduction as it was before leaf counts: every round walks every word
# to find the first eliminable relation, substitutes into every word (the
# trace's too, so that each trace word reads only survivors), and walks them
# all again to count nodes.  reduce_with_trace must return equal
# presentations and traces and warn with the same messages.


def substitute(w, gen: int, replacement):
    if isinstance(w, int):
        return replacement if w == gen else w
    return OpWord(w.kind, substitute(w.left, gen, replacement),
                  substitute(w.right, gen, replacement))


def word_generators(w) -> set[int]:
    if isinstance(w, int):
        return {w}
    return word_generators(w.left) | word_generators(w.right)


def tree_reduce_with_trace(p):
    max_nodes = presentation.NODE_BUDGET
    rhs_seen = [r.rhs for r in p.relations]
    if len(set(rhs_seen)) != len(rhs_seen):
        raise ValueError("isolated generators must be distinct")
    relations = {r.rhs: r.lhs for r in p.relations}
    alive = set(p.generators)
    trace = []
    while True:
        g = next((g for g, lhs in relations.items()
                  if g not in word_generators(lhs)), None)
        if g is None:
            break
        word = relations.pop(g)
        alive.discard(g)
        trace = [(h, substitute(w, g, word)) for h, w in trace]
        trace.append((g, word))
        relations = {rhs: substitute(lhs, g, word) for rhs, lhs in relations.items()}
        total = sum(word_nodes(lhs) for lhs in relations.values())
        if total > max_nodes:
            warnings.warn(f"reduction stopped early: {total} word nodes exceeds "
                          f"budget {max_nodes}")
            break
    generators = tuple(g for g in p.generators if g in alive)
    rels = tuple(Relation(lhs, rhs) for rhs, lhs in sorted(relations.items()))
    return Presentation(generators, rels), trace


def _with_warnings(reduce, pres, budget):
    """reduce(pres) with the word budget presentation.NODE_BUDGET set to
    budget, and the warnings it gave."""
    with pytest.MonkeyPatch.context() as m, warnings.catch_warnings(record=True) as caught:
        m.setattr(presentation, "NODE_BUDGET", budget)
        warnings.simplefilter("always")
        result = reduce(pres)
    return result, [str(w.message) for w in caught]


BUDGETS = (0, 24, 40, 200, NODE_BUDGET)


def test_reduction_matches_tree_walk_on_random_codes(random_code):
    # 69 seeded knots and links of 2 to 24 crossings, each cut short at
    # four budgets (the warning fires at the same step) and run in full
    rng = random.Random(20261018)
    for crossings in range(2, 25):
        for components in (1, 2, 3):
            pres = knot_presentation(random_code(rng, crossings, components))
            for budget in BUDGETS:
                assert _with_warnings(reduce_with_trace, pres, budget) == \
                    _with_warnings(tree_reduce_with_trace, pres, budget), \
                    f"{crossings} crossings, {components} components, budget {budget}"


def test_reduction_matches_tree_walk_on_bare_generators():
    # 4=5 has a bare generator on the left and goes first: it pastes the
    # leaf 4 into three words, one of which then holds its own isolated
    # generator; 3=3 is bare and never eliminable
    rels = (Relation(4, 5),
            Relation(OpWord(OpKind.UP, 1, 5), 2),
            Relation(OpWord(OpKind.DOWN, 5, 2), 4),
            Relation(3, 3),
            Relation(OpWord(OpKind.UPBAR, 5, 5), 1))
    pres = Presentation((1, 2, 3, 4, 5), rels)
    for budget in BUDGETS:
        result, caught = _with_warnings(reduce_with_trace, pres, budget)
        assert (result, caught) == _with_warnings(tree_reduce_with_trace, pres, budget)
    reduced, trace = result
    assert [g for g, _w in trace] == [5, 2, 1]
    assert reduced.generators == (3, 4)
    assert [format_relation(r) for r in reduced.relations] == ["3=3", "4_((4^-4)^4)=4"]


def torus_code(n: int):
    """The (2, n) torus knot, n odd: n crossings passed over, under, over..."""
    return parse_gauss_code(",".join(f"{'-' * (i % 2)}{i % n + 1}" for i in range(2 * n)) + ",0")


def _survivors(pres):
    return eliminate(pres)[0]


def test_eliminate_gives_the_reductions_survivors(random_code):
    # eliminate alone must stop where the reduction stops, with its warning
    rng = random.Random(20261019)
    codes = [random_code(rng, rng.randint(2, 24), rng.randint(1, 3)) for _ in range(16)]
    codes += [torus_code(n) for n in (101, 301, 601, 901)]
    for i, code in enumerate(codes):
        pres = knot_presentation(code)
        for budget in BUDGETS:
            (reduced, _trace), caught = _with_warnings(reduce_with_trace, pres, budget)
            assert _with_warnings(_survivors, pres, budget) == (reduced.generators, caught), \
                f"code {i}, budget {budget}"


def rounds_eliminate(p):
    """eliminate as a loop of rounds, each rescanning the relations from
    the start for the first whose isolated generator is not in its word."""
    max_nodes = presentation.NODE_BUDGET
    leaves = {r.rhs: _leaf_counts(r.lhs) for r in p.relations}
    total = sum(2 * sum(c.values()) - 1 for c in leaves.values())
    order = []
    while (g := next((g for g, c in leaves.items() if g not in c), None)) is not None:
        sub = leaves.pop(g)
        order.append(g)
        size = sum(sub.values())
        total -= 2 * size - 1
        for c in leaves.values():
            if k := c.pop(g, 0):
                for h, m in sub.items():
                    c[h] = c.get(h, 0) + k * m
                total += 2 * k * (size - 1)
        if total > max_nodes:
            warnings.warn(f"reduction stopped early: {total} word nodes exceeds "
                          f"budget {max_nodes}")
            break
    gone = set(order)
    return tuple(g for g in p.generators if g not in gone), order


def test_one_pass_makes_the_rounds_picks(random_code):
    # survivors, elimination order and warnings, cut short at each budget
    # and run in full; the 150-crossing knot stops at its budget
    rng = random.Random(20261020)
    codes = [random_code(rng, rng.randint(2, 24), rng.randint(1, 3)) for _ in range(24)]
    codes.append(random_code(random.Random(5), 150, 1))
    for i, code in enumerate(codes):
        pres = knot_presentation(code)
        for budget in BUDGETS:
            assert _with_warnings(eliminate, pres, budget) == \
                _with_warnings(rounds_eliminate, pres, budget), f"code {i}, budget {budget}"
    assert "1186571 word nodes" in _with_warnings(eliminate, pres, NODE_BUDGET)[1][0]


def test_reduction_builds_each_word_once(random_code, monkeypatch):
    # This knot's reduction stops at its budget with words of 1,186,571
    # nodes as trees; substituting tree into tree built 3,443,559 OpWords.
    pres = knot_presentation(random_code(random.Random(5), 150, 1))
    built = 0
    init = OpWord.__init__

    def counted(self, *args):
        nonlocal built
        built += 1
        init(self, *args)
    monkeypatch.setattr(OpWord, "__init__", counted)
    with pytest.warns(UserWarning, match="1186571 word nodes"):
        kept = _survivors(pres)
    assert (len(kept), built) == (93, 0)
    with pytest.warns(UserWarning, match="1186571 word nodes"):
        reduced = reduce_presentation(pres)
    assert reduced.generators == kept
    assert built == len(pres.relations) == 300


def test_long_chains_reduce_without_recursion():
    # T(2,1001)'s words nest about a thousand deep: the words are built
    # without recursing along them
    with pytest.warns(UserWarning, match="stopped early"):
        reduced, trace = reduce_with_trace(knot_presentation(torus_code(1001)))
    assert (len(reduced.generators), len(trace)) == (1005, 997)


def test_trefoil_relations(trefoil_code):
    pres = knot_presentation(trefoil_code)
    assert [format_relation(r) for r in pres.relations] == [
        "1^4=2", "2_5=3", "3^6=4", "4_1=5", "5^2=6", "6_3=1",
    ]
    assert pres.generators == tuple(range(1, 7))


def test_conway_relations_verbatim(conway_code):
    pres = knot_presentation(conway_code)
    assert [format_relation(r) for r in pres.relations] == CONWAY_RELATIONS


def test_two_relations_per_crossing(kishino_code):
    pres = knot_presentation(kishino_code)
    assert len(pres.relations) == 2 * kishino_code.n_crossings
    # every semi-arc is the isolated side of exactly one relation
    assert sorted(r.rhs for r in pres.relations) == list(range(1, 9))


def test_conway_reduction_keeps_five(conway_code):
    reduced = reduce_presentation(knot_presentation(conway_code))
    assert sorted(reduced.generators) == [1, 8, 15, 16, 21]


def test_trefoil_reduction(trefoil_code):
    reduced = reduce_presentation(knot_presentation(trefoil_code))
    assert len(reduced.generators) <= 3


def test_reduce_idempotent(conway_code, trefoil_code):
    for code in (conway_code, trefoil_code):
        once = reduce_presentation(knot_presentation(code))
        assert reduce_presentation(once).relations == once.relations


def test_reduce_empty():
    empty = Presentation((), ())
    assert reduce_presentation(empty) == empty


def test_trace_words_reference_later_survivors(trefoil_code, conway_code):
    for code in (trefoil_code, conway_code):
        reduced, trace = reduce_with_trace(knot_presentation(code))
        for _g, word in trace:
            assert word_generators(word) <= set(reduced.generators)


def test_duplicate_isolated_generator_rejected():
    rel = Relation(1, 2)
    with pytest.raises(ValueError, match="distinct"):
        reduce_with_trace(Presentation((1, 2), (rel, rel)))


def test_node_budget_warning(conway_code, monkeypatch):
    monkeypatch.setattr(presentation, "NODE_BUDGET", 10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reduce_presentation(knot_presentation(conway_code))
    assert any("stopped early" in str(w.message) for w in caught)


def test_eval_word_basics():
    one = alexander_biquandle(1, 1, 1)
    assert eval_word(3, one, {3: 1}) == 1
    assert eval_word(OpWord(OpKind.UP, 1, 2), one, {1: 1, 2: 1}) == 1


def test_eval_word_unassigned():
    with pytest.raises(ValueError, match="unassigned"):
        eval_word(2, alexander_biquandle(1, 1, 1), {1: 1})


def test_eval_word_matches_manual_lookup():
    T = alexander_biquandle(5, 2, 3)
    # the word 1^(2_(3_2 barred)) evaluated stepwise
    word = OpWord(OpKind.UP, 1,
                  OpWord(OpKind.DOWN, 2,
                         OpWord(OpKind.DOWNBAR, 3, 2)))
    for a in range(1, 6):
        for b in range(1, 6):
            for c in range(1, 6):
                inner = T.downbar(c, b)
                mid = T.down(b, inner)
                assert eval_word(word, T, {1: a, 2: b, 3: c}) == T.up(a, mid)


def test_format_word_barred_notation():
    w = OpWord(OpKind.UPBAR, 6, 11)
    assert format_word(w) == "6^-11"
    w2 = OpWord(OpKind.DOWNBAR, 11, 6)
    assert format_word(w2) == "11_-6"
    nested = OpWord(OpKind.UP, w, 2)
    assert format_word(nested) == "(6^-11)^2"


def test_format_presentation_lists_generators(trefoil_code):
    text = format_presentation(knot_presentation(trefoil_code))
    assert text.splitlines()[0] == "generators: 1,2,3,4,5,6"
    assert "1^4=2" in text
