"""Biquandle presentations read off a Gauss code, and their reduction.

A knot with n crossings yields 2n generators (one per semi-arc) and 2n
relations, each with a single generator isolated on the right:

    positive crossing:  under_in ^ over_in = under_out
                        over_in _ under_in = over_out
    negative crossing:  under_in ^-over_in = under_out
                        over_in _-under_in = over_out

(the barred operations carry a '-' in printed form).  crossing_relations
lists them as tuples (out, kind, left, right), which the coloring searches
read; words are built from that list only for display and the reduction
API (knot_presentation, reduce_to, reduce_with_trace), a word being an int
(a generator) or an OpWord of two words.  Tietze reduction repeatedly
eliminates a relation whose isolated generator does not occur on its other
side, substituting the word for the generator everywhere.  One loop decides
it on leaf counts alone, which is all the coloring scan needs, read off the
relation list (survivors_of) or the words (eliminate); one walk
(dependency_order) orders the eliminated generators for the scan's lookups
and for the words reduce_to builds.
"""

from __future__ import annotations

import warnings

from .core import OpKind, Record, setfield
from .gauss import GaussCode, crossings_of


class OpWord(Record):
    __slots__ = ("kind", "left", "right")

    def __init__(self, kind: OpKind, left: Word, right: Word):
        setfield(self, "kind", kind)
        setfield(self, "left", left)
        setfield(self, "right", right)


Word = "int | OpWord"  # a generator, or an operation on two words


class Relation(Record):
    """lhs word = isolated generator."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Word, rhs: int):
        setfield(self, "lhs", lhs)
        setfield(self, "rhs", rhs)


class Presentation(Record):
    __slots__ = ("generators", "relations")

    def __init__(self, generators: tuple[int, ...], relations: tuple[Relation, ...]):
        setfield(self, "generators", generators)
        setfield(self, "relations", relations)


def _leaf_counts(w) -> dict[int, int]:
    """{generator: occurrences} of a word, by an iterative walk."""
    counts: dict[int, int] = {}
    stack = [w]
    while stack:
        if isinstance(w := stack.pop(), int):
            counts[w] = counts.get(w, 0) + 1
        else:
            stack += (w.left, w.right)
    return counts


def word_nodes(w) -> int:
    return 2 * sum(_leaf_counts(w).values()) - 1  # a binary tree of L leaves


_OP_TEXT = {OpKind.UP: "^", OpKind.DOWN: "_", OpKind.UPBAR: "^-", OpKind.DOWNBAR: "_-"}


def format_word(w) -> str:
    out, stack = [], [w]  # no recursion, so words nested past its limit print
    while stack:
        if isinstance(w := stack.pop(), OpWord):  # pushed right to left
            stack += [")", w.right, "("] if isinstance(w.right, OpWord) else [w.right]
            stack.append(_OP_TEXT[w.kind])
            stack += [")", w.left, "("] if isinstance(w.left, OpWord) else [w.left]
        else:
            out.append(str(w))  # a generator or a piece of text
    return "".join(out)


def format_relation(r: Relation) -> str:
    return f"{format_word(r.lhs)}={r.rhs}"


def format_presentation(p: Presentation) -> str:
    gens = ",".join(str(g) for g in p.generators)
    lines = [f"generators: {gens}"]
    lines.extend(format_relation(r) for r in p.relations)
    return "\n".join(lines)


def crossing_relations(crossings) -> list[tuple[int, OpKind, int, int]]:
    """The crossing relations (out, kind, left, right), each saying
    left op_kind right = out, in order of the incoming semi-arc left."""
    relations = []
    for x in crossings:
        up, down = (OpKind.UP, OpKind.DOWN) if x.sign > 0 else (OpKind.UPBAR, OpKind.DOWNBAR)
        relations += ((x.under_out, up, x.under_in, x.over_in),
                      (x.over_out, down, x.over_in, x.under_in))
    relations.sort(key=lambda r: r[2])
    return relations


def knot_presentation(code: GaussCode) -> Presentation:
    """Generators 1..N (semi-arcs) and one relation per crossing passage,
    listed in order of the incoming semi-arc."""
    return Presentation(tuple(range(1, code.n_semi_arcs + 1)), tuple(
        Relation(OpWord(kind, a, b), out)
        for out, kind, a, b in crossing_relations(crossings_of(code))))


NODE_BUDGET = 10 ** 6


def eliminate(p: Presentation) -> tuple[tuple[int, ...], list[int]]:
    """Tietze reduction on leaf counts alone; returns (survivors, the
    eliminated generators in order).

    Each round eliminates the first relation, in listed order, whose
    isolated generator does not occur in its word.  (On knot presentations,
    listed order means ascending incoming semi-arc; this order reproduces
    published reductions.)  If total word size exceeds NODE_BUDGET, it
    stops with a warning.
    """
    leaves = {r.rhs: _leaf_counts(r.lhs) for r in p.relations}
    if len(leaves) != len(p.relations):
        raise ValueError("isolated generators must be distinct")
    return _eliminate(p.generators, leaves)


def survivors_of(relations, arcs: int) -> tuple[int, ...]:
    """The survivors of eliminate on the knot presentation of these crossing
    relations of semi-arcs 1..arcs, each word two distinct leaves."""
    leaves = {out: {a: 1, b: 1} for out, _kind, a, b in relations}
    return _eliminate(range(1, arcs + 1), leaves)[0]


def _eliminate(generators, leaves: dict[int, dict[int, int]]
               ) -> tuple[tuple[int, ...], list[int]]:
    # leaves: {isolated generator: its word's leaf counts}, in listed order,
    # used up.  A word that reads its own generator always will, so one pass
    # makes the same picks as rounds.  Substituting the word of g for its k
    # occurrences adds k times g's counts; a word of L leaves has 2L - 1 nodes.
    total = sum(2 * sum(c.values()) - 1 for c in leaves.values())
    order: list[int] = []
    for g in list(leaves):
        if g in leaves[g]:
            continue
        sub = leaves.pop(g)
        order.append(g)
        size = sum(sub.values())
        total -= 2 * size - 1
        for c in leaves.values():
            if k := c.pop(g, 0):
                for h, m in sub.items():
                    c[h] = c.get(h, 0) + k * m
                total += 2 * k * (size - 1)
        if total > NODE_BUDGET:
            warnings.warn(f"reduction stopped early: {total} word nodes exceeds "
                          f"budget {NODE_BUDGET}")
            break
    gone = set(order)
    return tuple(g for g in generators if g not in gone), order


def dependency_order(generators, survivors, reads) -> list[int]:
    """The generators that are not survivors, each after those its relation
    reads; reads maps each isolated generator to the generators it reads.
    Raises ValueError naming a survivor that is repeated or not among the
    generators, or a generator that is neither a survivor nor isolated, and
    if the relations of the others form a cycle.
    """
    done: set[int] = set()
    for g in survivors:
        if g in done:
            raise ValueError(f"survivor {g} is repeated")
        done.add(g)
    missing = done.difference(generators)
    if missing:
        raise ValueError(f"survivor {min(missing)} is not a generator")
    order: list[int] = []
    for g in generators:  # post-order on a stack that holds one path
        stack = [] if g in done else [g]
        while stack:
            top = stack[-1]
            try:
                ins = reads[top]
            except KeyError:
                raise ValueError(f"generator {top} is neither a survivor nor isolated") from None
            for h in ins:
                if h not in done:
                    if len(stack) > len(reads):  # a path past all of reads repeats one
                        raise ValueError("the eliminated generators' relations form a cycle")
                    stack.append(h)
                    break
            else:
                done.add(top)
                order.append(stack.pop())
    return order


def reduce_to(p: Presentation, survivors) -> tuple[Presentation, dict[int, "Word"]]:
    """The presentation left when every relation not isolating a survivor
    is eliminated, and {eliminated generator: its word over the survivors}.

    The words do not depend on the order of elimination.  Each is built
    once, after the words it reads, sharing them as a DAG.  Raises
    ValueError as dependency_order does.
    """
    survivors = tuple(survivors)
    lhs = {r.rhs: r.lhs for r in p.relations}
    kept = set(survivors)
    reads = {g: _leaf_counts(w) for g, w in lhs.items() if g not in kept}
    word: dict[int, Word] = {}

    def build(w):
        if isinstance(w, int):
            return word.get(w, w)
        return OpWord(w.kind, build(w.left), build(w.right))

    # every generator, and every isolated one even if p.generators omits it
    for g in dependency_order((*p.generators, *reads), survivors, reads):
        word[g] = build(lhs[g])
    rels = tuple(Relation(build(lhs[g]), g) for g in sorted(lhs) if g in kept)
    return Presentation(survivors, rels), word


def reduce_with_trace(p: Presentation) -> tuple[Presentation, list[tuple[int, "Word"]]]:
    """Tietze reduction: eliminate, then reduce_to; the trace lists each
    (eliminated generator, its word over the survivors) in elimination order."""
    kept, order = eliminate(p)
    reduced, word = reduce_to(p, kept)
    return reduced, [(g, word[g]) for g in order]


def reduce_presentation(p: Presentation) -> Presentation:
    return reduce_with_trace(p)[0]
