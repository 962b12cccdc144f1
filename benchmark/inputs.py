"""Seeded inputs for the benchmark, built without the program's parsers.

A Gauss code is kept here as a tuple of components, each a tuple of
passages (crossing id, is_over, sign).  The benchmark writes the text the
program parses and derives the crossing structure itself, so the output
checks do not lean on the program's reading of the code.
"""

from __future__ import annotations

import random

SHIPPED_CODES = ("trefoil", "kishino", "conway", "link-two-component", "unknot")


def random_code(rng: random.Random, crossings: int, components: int) -> tuple:
    """A random signed Gauss code: every such code is a virtual diagram.

    Each crossing gets one over and one under passage and a random sign;
    the passages are shuffled and, for two components, cut in two
    non-empty pieces.
    """
    passages = [(c, over) for c in range(1, crossings + 1) for over in (True, False)]
    rng.shuffle(passages)
    signs = {c: rng.choice((1, -1)) for c in range(1, crossings + 1)}
    marked = [(c, over, signs[c]) for c, over in passages]
    if components == 1:
        return (tuple(marked),)
    cut = rng.randint(1, len(marked) - 1)
    return (tuple(marked[:cut]), tuple(marked[cut:]))


def code_text(code: tuple) -> str:
    """The documented text form: '-c' under, 'c' over, '+I'/'-I' negative."""
    tokens = []
    for comp in code:
        for c, over, sign in comp:
            tok = str(c) if over else f"-{c}"
            if sign < 0:
                tok += "+I" if over else "-I"
            tokens.append(tok)
        tokens.append("0")
    return ",".join(tokens)


def parse_code_text(text: str) -> tuple:
    """Read the text form back into components of passages."""
    comps, current = [], []
    for raw in text.split("#", 1)[0].replace("\n", ",").split(","):
        tok = raw.strip().replace(" ", "")
        if not tok:
            continue
        sign = 1
        if tok.endswith(("+I", "-I", "+i", "-i")):
            sign, tok = -1, tok[:-2]
        value = int(tok)
        if value == 0:
            comps.append(tuple(current))
            current = []
            continue
        current.append((abs(value), value > 0, sign))
    if current:
        comps.append(tuple(current))
    return tuple(comps)


def crossing_structure(code: tuple) -> tuple[int, list[tuple[int, int, int, int, int]]]:
    """(number of semi-arcs, [(sign, under_in, over_in, under_out, over_out)]).

    Semi-arcs are numbered from 1 in traversal order; passage i of a
    component with m passages starting at arc s enters on arc s+i and
    leaves on arc s+(i+1) mod m.  A component without passages is one arc.
    """
    ends: dict[int, dict[bool, tuple[int, int]]] = {}
    sign_of: dict[int, int] = {}
    start = 1
    for comp in code:
        m = len(comp)
        for i, (c, over, sign) in enumerate(comp):
            ends.setdefault(c, {})[over] = (start + i, start + (i + 1) % m)
            sign_of[c] = sign
        start += max(m, 1)
    out = []
    for c in sorted(ends):
        u_in, u_out = ends[c][False]
        o_in, o_out = ends[c][True]
        out.append((sign_of[c], u_in, o_in, u_out, o_out))
    return start - 1, out


def permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    """perm[a-1] is the new label of element a."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return tuple(labels)


def relabel_tables(tables, perm) -> tuple:
    """Tables of the isomorphic copy: new(perm a, perm b) = perm(old(a, b))."""
    n = len(perm)
    inv = [0] * n
    for a, image in enumerate(perm, start=1):
        inv[image - 1] = a
    return tuple(
        tuple(tuple(perm[t[inv[x] - 1][inv[y] - 1] - 1] for y in range(n)) for x in range(n))
        for t in tables)


def alexander_tables(n: int, s: int, t: int) -> tuple:
    """Operation tables (UP, DOWN, UPBAR, DOWNBAR) of the Alexander
    biquandle x^y = tx + (1-st)y, x_y = sx, and the inverse pair, on 1..n."""
    si, ti = pow(s, -1, n), pow(t, -1, n)
    rng = range(n)
    return (
        tuple(tuple((t * x + (1 - s * t) * y) % n + 1 for y in rng) for x in rng),
        tuple(tuple((s * x) % n + 1 for _y in rng) for x in rng),
        tuple(tuple((ti * x + (1 - si * ti) * y) % n + 1 for y in rng) for x in rng),
        tuple(tuple((si * x) % n + 1 for _y in rng) for x in rng),
    )
