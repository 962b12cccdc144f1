"""Biquandle presentations read off a Gauss code, and their reduction.

A knot with n crossings yields 2n generators (one per semi-arc) and 2n
relations, each with a single generator isolated on the right:

    positive crossing:  under_in ^ over_in = under_out
                        over_in _ under_in = over_out
    negative crossing:  under_in ^-over_in = under_out
                        over_in _-under_in = over_out

(the barred operations carry a '-' in printed form).  Tietze reduction
repeatedly eliminates a relation whose isolated generator does not occur on
its other side, substituting the word for the generator everywhere.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

from .core import Biquandle, OpKind
from .gauss import GaussCode, crossings_of


@dataclass(frozen=True)
class Gen:
    index: int


@dataclass(frozen=True)
class OpWord:
    kind: OpKind
    left: "Word"
    right: "Word"


Word = "Gen | OpWord"


@dataclass(frozen=True)
class Relation:
    """lhs word = isolated generator."""

    lhs: "Word"
    rhs: int


@dataclass(frozen=True)
class Presentation:
    generators: tuple[int, ...]
    relations: tuple[Relation, ...]


def word_nodes(w) -> int:
    if isinstance(w, Gen):
        return 1
    return 1 + word_nodes(w.left) + word_nodes(w.right)


def _leaf_counts(w) -> Counter:
    if isinstance(w, Gen):
        return Counter((w.index,))
    return _leaf_counts(w.left) + _leaf_counts(w.right)


def substitute(w, gen: int, replacement):
    if isinstance(w, Gen):
        return replacement if w.index == gen else w
    return OpWord(w.kind, substitute(w.left, gen, replacement),
                  substitute(w.right, gen, replacement))


def eval_word(w, T: Biquandle, assignment: dict[int, int]) -> int:
    """Evaluate a word in T under a generator assignment."""
    if isinstance(w, Gen):
        try:
            return assignment[w.index]
        except KeyError:
            raise ValueError(f"generator {w.index} unassigned") from None
    u = eval_word(w.left, T, assignment)
    v = eval_word(w.right, T, assignment)
    return T.tables[w.kind][u - 1][v - 1]


_OP_TEXT = {OpKind.UP: "^", OpKind.DOWN: "_", OpKind.UPBAR: "^-", OpKind.DOWNBAR: "_-"}


def format_word(w) -> str:
    if isinstance(w, Gen):
        return str(w.index)
    left = format_word(w.left)
    right = format_word(w.right)
    if isinstance(w.left, OpWord):
        left = f"({left})"
    if isinstance(w.right, OpWord):
        right = f"({right})"
    return f"{left}{_OP_TEXT[w.kind]}{right}"


def format_relation(r: Relation) -> str:
    return f"{format_word(r.lhs)}={r.rhs}"


def format_presentation(p: Presentation) -> str:
    gens = ",".join(str(g) for g in p.generators)
    lines = [f"generators: {gens}"]
    lines.extend(format_relation(r) for r in p.relations)
    return "\n".join(lines)


def knot_presentation(code: GaussCode) -> Presentation:
    """Generators 1..N (semi-arcs) and one relation per crossing passage,
    listed in order of the incoming semi-arc."""
    by_arc: dict[int, Relation] = {}
    for x in crossings_of(code):
        up_kind = OpKind.UP if x.sign > 0 else OpKind.UPBAR
        down_kind = OpKind.DOWN if x.sign > 0 else OpKind.DOWNBAR
        by_arc[x.under_in] = Relation(OpWord(up_kind, Gen(x.under_in), Gen(x.over_in)),
                                      x.under_out)
        by_arc[x.over_in] = Relation(OpWord(down_kind, Gen(x.over_in), Gen(x.under_in)),
                                     x.over_out)
    generators = tuple(range(1, code.n_semi_arcs + 1))
    return Presentation(generators, tuple(by_arc[a] for a in sorted(by_arc)))


NODE_BUDGET = 10 ** 6


def reduce_with_trace(p: Presentation, max_nodes: int = NODE_BUDGET
                      ) -> tuple[Presentation, list[tuple[int, "Word"]]]:
    """Tietze reduction; returns the reduced presentation and the list of
    (eliminated generator, substituted word) in elimination order.

    Each round scans the relations in their listed order and eliminates the
    first one whose isolated generator does not occur in its word.  (On knot
    presentations, listed order means ascending incoming semi-arc; this order
    reproduces published reductions.)  Each eliminated generator's word
    involves only generators that survive longer, so colorings extend by
    replaying the trace in reverse.  If total word size exceeds max_nodes,
    reduction stops early with a warning and the partially reduced
    presentation is returned.

    Eliminations are decided on leaf counts, not by walking the words: each
    relation keeps {generator: occurrences in its word}.  Substituting the
    word of g for its k occurrences adds k times that word's counts, and a
    word of L leaves has 2L - 1 nodes, so the budget is checked exactly.
    Only the words that hold g are rebuilt.
    """
    rhs_seen = [r.rhs for r in p.relations]
    if len(set(rhs_seen)) != len(rhs_seen):
        raise ValueError("isolated generators must be distinct")

    relations = {r.rhs: r.lhs for r in p.relations}
    leaves = {r.rhs: _leaf_counts(r.lhs) for r in p.relations}
    total = sum(2 * c.total() - 1 for c in leaves.values())
    alive = set(p.generators)
    trace: list[tuple[int, Word]] = []
    while True:
        g = next((g for g, c in leaves.items() if g not in c), None)
        if g is None:
            break
        word, sub = relations.pop(g), leaves.pop(g)
        alive.discard(g)
        trace.append((g, word))
        size = sub.total()
        total -= 2 * size - 1
        for rhs, c in leaves.items():
            k = c.pop(g, 0)
            if k:
                relations[rhs] = substitute(relations[rhs], g, word)
                for h, m in sub.items():
                    c[h] += k * m
                total += 2 * k * (size - 1)
        if total > max_nodes:
            warnings.warn(f"reduction stopped early: {total} word nodes exceeds "
                          f"budget {max_nodes}")
            break

    generators = tuple(g for g in p.generators if g in alive)
    rels = tuple(Relation(lhs, rhs) for rhs, lhs in sorted(relations.items()))
    return Presentation(generators, rels), trace


def reduce_presentation(p: Presentation, max_nodes: int = NODE_BUDGET) -> Presentation:
    return reduce_with_trace(p, max_nodes)[0]
