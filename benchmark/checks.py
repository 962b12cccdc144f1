"""Output checks that do not reuse the program's code.

Every fact here is computed from the operation tables and the crossing
structure by the benchmark itself: ranks by its own sparse elimination
modulo a prime, the cocycle equation and the kink pairs by direct
evaluation, colorings by its own search.  Over Q, ranks are taken modulo
the prime Q_PRIME = 2^61 - 1; a rank modulo a prime never exceeds the
rank over Q, so an independence check that passes modulo Q_PRIME holds
over Q as well.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product

Q_PRIME = (1 << 61) - 1

UP, DOWN, UPBAR, DOWNBAR = 0, 1, 2, 3


def mod_rank(rows, p: int) -> int:
    """Rank modulo p of sparse rows ({column: value}), by Gauss-Jordan on
    dict rows with the lowest column as pivot."""
    pivots: dict[int, dict[int, int]] = {}
    for raw in set(tuple(sorted((c, v % p) for c, v in r.items() if v % p)) for r in rows):
        row = dict(raw)
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {c: v * inv % p for c, v in row.items()}
                break
            f = row[col]
            for c, v in pivot.items():
                w = (row.get(c, 0) - f * v) % p
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
    return len(pivots)


def to_mod(value, p: int) -> int:
    if isinstance(value, Fraction):
        return value.numerator * pow(value.denominator, -1, p) % p
    return value % p


# ---------------------------------------------------------------------------
# Yang-Baxter cohomology, from the tables.


def _pair(n: int, a: int, b: int) -> int:
    return (a - 1) * n + (b - 1)


def cocycle_terms(tables, x: int, y: int, z: int):
    """The six (pair, sign) terms of the cocycle equation at (x, y, z):

    phi(x,y) + phi(x^y, z) + phi(y_x, z_(x^y))
        - phi(x, z_y) - phi(y, z) - phi(x^(z_y), y^z) = 0.
    """
    up = lambda a, b: tables[UP][a - 1][b - 1]
    down = lambda a, b: tables[DOWN][a - 1][b - 1]
    return (((x, y), 1), ((up(x, y), z), 1), ((down(y, x), down(z, up(x, y))), 1),
            ((x, down(z, y)), -1), ((y, z), -1), ((up(x, down(z, y)), up(y, z)), -1))


def cocycle_rows(tables) -> list[dict[int, int]]:
    n = len(tables[0])
    rows = []
    for x, y, z in product(range(1, n + 1), repeat=3):
        row: dict[int, int] = {}
        for (a, b), sign in cocycle_terms(tables, x, y, z):
            k = _pair(n, a, b)
            row[k] = row.get(k, 0) + sign
        rows.append(row)
    return rows


def coboundary_rows(tables) -> list[dict[int, int]]:
    """Image of each indicator 1-cochain under
    (d lam)(x, y) = lam(x) + lam(y) - lam(x^y) - lam(y_x)."""
    n = len(tables[0])
    rows = []
    for a in range(1, n + 1):
        row: dict[int, int] = {}
        for x, y in product(range(1, n + 1), repeat=2):
            hits = (x == a) + (y == a) - (tables[UP][x - 1][y - 1] == a) \
                - (tables[DOWN][y - 1][x - 1] == a)
            if hits:
                row[_pair(n, x, y)] = hits
        rows.append(row)
    return rows


def kink_pairs(tables) -> list[tuple[int, int]]:
    """Pairs where an RI-reduced cocycle vanishes: (x, a) for x = a_x with
    a = x^a, and (a, y) for y = a^ybar with a = y_abar."""
    n = len(tables[0])
    pairs = set()
    for a, x in product(range(1, n + 1), repeat=2):
        if tables[DOWN][a - 1][x - 1] == x and tables[UP][x - 1][a - 1] == a:
            pairs.add((x, a))
        if tables[UPBAR][a - 1][x - 1] == x and tables[DOWNBAR][x - 1][a - 1] == a:
            pairs.add((a, x))
    return sorted(pairs)


def h2_dimensions(tables, p: int) -> tuple[int, int]:
    """(dim H^2, dim reduced H^2) over GF(p), from ranks alone.

    dim H^2 = n^2 - rank C - rank D, and the reduced quotient
    W / (W meet B), W the cocycles vanishing at the kink pairs, has
    dimension n^2 - rank [C; R] - rank D + rank (D restricted to R).
    """
    n = len(tables[0])
    cocycles = cocycle_rows(tables)
    cob = coboundary_rows(tables)
    kinks = [_pair(n, a, b) for a, b in kink_pairs(tables)]
    unit_rows = [{k: 1} for k in kinks]
    restricted = [{k: row[k] for k in kinks if k in row} for row in cob]
    r_c, r_d = mod_rank(cocycles, p), mod_rank(cob, p)
    unreduced = n * n - r_c - r_d
    reduced = n * n - mod_rank(cocycles + unit_rows, p) - r_d + mod_rank(restricted, p)
    return unreduced, reduced


def check_basis(tables, vectors, p: int | None, dimension: int, reduced: bool) -> str | None:
    """None if the vectors are a basis of H^2 (or of its reduced quotient)
    over Q (p None) or GF(p); otherwise the first reason they are not.

    Each vector must satisfy the cocycle equation exactly, vanish at the
    kink pairs when reduced, and the set must stay independent modulo the
    coboundaries; there must be exactly `dimension` of them.
    """
    n = len(tables[0])
    if len(vectors) != dimension:
        return f"{len(vectors)} basis vectors, expected dimension {dimension}"
    kinks = kink_pairs(tables)
    for k, v in enumerate(vectors, start=1):
        if len(v) != n * n:
            return f"vector {k} has {len(v)} coordinates, expected {n * n}"
        for x, y, z in product(range(1, n + 1), repeat=3):
            total = sum(sign * v[_pair(n, a, b)] for (a, b), sign in cocycle_terms(tables, x, y, z))
            if (total % p if p else total) != 0:
                return f"vector {k} fails the cocycle equation at {(x, y, z)}"
        if reduced and any(v[_pair(n, a, b)] for a, b in kinks):
            return f"vector {k} does not vanish at the kink pairs"
    q = p or Q_PRIME
    cob = coboundary_rows(tables)
    rows = cob + [{i: to_mod(c, q) for i, c in enumerate(v) if c} for v in vectors]
    if mod_rank(rows, q) != mod_rank(cob, q) + len(vectors):
        return "basis vectors are dependent modulo the coboundaries"
    return None


# ---------------------------------------------------------------------------
# Biquandle tables.


def switch_problem(tables) -> str | None:
    """None if S(a,b) = (b_a, a^b) satisfies the Yang-Baxter equation, is a
    bijection, and S^-1(a,b) = (b^abar, a_bbar) inverts it."""
    n = len(tables[0])
    S = lambda a, b: (tables[DOWN][b - 1][a - 1], tables[UP][a - 1][b - 1])
    S_inv = lambda a, b: (tables[UPBAR][b - 1][a - 1], tables[DOWNBAR][a - 1][b - 1])
    pairs = list(product(range(1, n + 1), repeat=2))
    if len({S(a, b) for a, b in pairs}) != n * n:
        return "switch map is not a bijection"
    for a, b in pairs:
        if S_inv(*S(a, b)) != (a, b) or S(*S_inv(a, b)) != (a, b):
            return f"barred tables do not invert the switch at {(a, b)}"
    for a, b, c in product(range(1, n + 1), repeat=3):
        p, q = S(a, b)
        q2, r2 = S(q, c)
        left = S(p, q2) + (r2,)
        q4, r4 = S(b, c)
        p5, q5 = S(a, q4)
        right = (p5,) + S(q5, r4)
        if left != right:
            return f"Yang-Baxter equation fails at {(a, b, c)}"
    return None


def axiom_problem(tables) -> str | None:
    """switch_problem plus the existential axioms: for every pair (a, b)
    an x with a^(b_xbar) = x, x^bbar = a, (b_xbar)_a = b and a y with
    a^(b_y)bar = y, y^b = a, (b_y)_abar = b; for every a a kink witness on
    each side.  Axioms 1 and 3 are the switch conditions."""
    problem = switch_problem(tables)
    if problem:
        return problem
    n = len(tables[0])
    op = lambda k, a, b: tables[k][a - 1][b - 1]
    for a, b in product(range(1, n + 1), repeat=2):
        if not any(op(UP, a, op(DOWNBAR, b, x)) == x and op(UPBAR, x, b) == a
                   and op(DOWN, op(DOWNBAR, b, x), a) == b for x in range(1, n + 1)):
            return f"axiom 2 (first system) fails at {(a, b)}"
        if not any(op(UPBAR, a, op(DOWN, b, y)) == y and op(UP, y, b) == a
                   and op(DOWNBAR, op(DOWN, b, y), a) == b for y in range(1, n + 1)):
            return f"axiom 2 (second system) fails at {(a, b)}"
    for a in range(1, n + 1):
        if not any(op(DOWN, a, x) == x and op(UP, x, a) == a for x in range(1, n + 1)):
            return f"axiom 4 (positive kink) fails at {a}"
        if not any(op(UPBAR, a, y) == y and op(DOWNBAR, y, a) == a for y in range(1, n + 1)):
            return f"axiom 4 (negative kink) fails at {a}"
    return None


def all_biquandles(n: int) -> list[tuple]:
    """Every biquandle on 1..n by brute force over the UP and DOWN tables;
    the barred tables are then fixed by S^-1.  Usable for n = 2."""
    pairs = list(product(range(1, n + 1), repeat=2))
    found = []
    for up_vals in product(range(1, n + 1), repeat=n * n):
        for down_vals in product(range(1, n + 1), repeat=n * n):
            up = {pr: v for pr, v in zip(pairs, up_vals)}
            down = {pr: v for pr, v in zip(pairs, down_vals)}
            image = {(down[(b, a)], up[(a, b)]): (a, b) for a, b in pairs}
            if len(image) != n * n:
                continue
            upbar, downbar = {}, {}
            for (a, b), (c, d) in image.items():
                # S^-1(a, b) = (c, d) reads upbar(b, a) = c, downbar(a, b) = d
                upbar[(b, a)], downbar[(a, b)] = c, d
            as_table = lambda m: tuple(tuple(m[(a, b)] for b in range(1, n + 1))
                                       for a in range(1, n + 1))
            tables = (as_table(up), as_table(down), as_table(upbar), as_table(downbar))
            if axiom_problem(tables) is None:
                found.append(tables)
    return found


# ---------------------------------------------------------------------------
# Colorings and state sums.


def coloring_problem(coloring, crossings, tables) -> str | None:
    """None if the coloring (entry k-1 colors semi-arc k) satisfies
    under_in ^ over_in = under_out and over_in _ under_in = over_out at
    every crossing, barred at negative ones."""
    for sign, ui, oi, uo, oo in crossings:
        up, down = (UP, DOWN) if sign > 0 else (UPBAR, DOWNBAR)
        cu, co = coloring[ui - 1], coloring[oi - 1]
        if tables[up][cu - 1][co - 1] != coloring[uo - 1] or \
                tables[down][co - 1][cu - 1] != coloring[oo - 1]:
            return f"coloring {tuple(coloring)} breaks a crossing relation"
    return None


def colorings(n_arcs: int, crossings, tables) -> list[tuple[int, ...]]:
    """Every coloring, by depth-first search over the arcs in order; once
    both incoming arcs of a crossing are colored, its outgoing arcs are
    forced (watch lists fire only the crossings an arc enters)."""
    n = len(tables[0])
    rules = []
    watch: list[list[int]] = [[] for _ in range(n_arcs)]
    for sign, ui, oi, uo, oo in crossings:
        up, down = (UP, DOWN) if sign > 0 else (UPBAR, DOWNBAR)
        for arc in {ui - 1, oi - 1}:
            watch[arc].append(len(rules))
        rules.append((ui - 1, oi - 1, uo - 1, oo - 1, tables[up], tables[down]))
    found = []

    def assign(col, arc, value):
        col[arc] = value
        queue = [arc]
        while queue:
            for r in watch[queue.pop()]:
                ui, oi, uo, oo, up, down = rules[r]
                cu, co = col[ui], col[oi]
                if not cu or not co:
                    continue
                for out, want in ((uo, up[cu - 1][co - 1]), (oo, down[co - 1][cu - 1])):
                    if col[out] == 0:
                        col[out] = want
                        queue.append(out)
                    elif col[out] != want:
                        return False
        return True

    def descend(col, start):
        free = next((i for i in range(start, n_arcs) if col[i] == 0), None)
        if free is None:
            found.append(tuple(col))
            return
        for v in range(1, n + 1):
            trial = col[:]
            if assign(trial, free, v):
                descend(trial, free + 1)

    descend([0] * n_arcs, 0)
    return sorted(found)


def _alexander_rows(crossings, n: int, s: int, t: int) -> list[dict[int, int]]:
    """The GF(n) system x_uo = t x_ui + (1-st) x_oi, x_oo = s x_oi (with
    the inverses of s and t at negative crossings), arcs 0-based."""
    def row(*terms):  # an arc may occur twice in one relation
        acc: dict[int, int] = {}
        for arc, coeff in terms:
            acc[arc - 1] = (acc.get(arc - 1, 0) + coeff) % n
        return {k: v for k, v in acc.items() if v}

    rows = []
    for sign, ui, oi, uo, oo in crossings:
        ss, tt = (s, t) if sign > 0 else (pow(s, -1, n), pow(t, -1, n))
        rows.append(row((uo, 1), (ui, -tt), (oi, -(1 - ss * tt))))
        rows.append(row((oo, 1), (oi, -ss)))
    return rows


def alexander_coloring_count(n_arcs: int, crossings, n: int, s: int, t: int) -> int:
    """Colorings by the Alexander biquandle over prime n: n ** nullity of
    its linear coloring system."""
    return n ** (n_arcs - mod_rank(_alexander_rows(crossings, n, s, t), n))


def alexander_colorings(n_arcs: int, crossings, n: int, s: int, t: int) -> list[tuple[int, ...]]:
    """Every coloring by the Alexander biquandle over prime n: the null
    space of its coloring system, by Gauss-Jordan on dict rows (colors
    1..n)."""
    pivots: dict[int, dict[int, int]] = {}  # fully reduced rows by pivot arc
    for row in _alexander_rows(crossings, n, s, t):
        for col, prow in pivots.items():
            f = row.get(col, 0)
            if f:
                for c, v in prow.items():
                    row[c] = (row.get(c, 0) - f * v) % n
                row = {c: v for c, v in row.items() if v}
        if not row:
            continue
        col = min(row)
        inv = pow(row[col], -1, n)
        row = {c: v * inv % n for c, v in row.items()}
        for other in pivots.values():
            f = other.get(col, 0)
            if f:
                for c, v in row.items():
                    other[c] = (other.get(c, 0) - f * v) % n
                for c in [c for c, v in other.items() if not v]:
                    del other[c]
        pivots[col] = row
    free = [a for a in range(n_arcs) if a not in pivots]
    out = []
    for values in product(range(n), repeat=len(free)):
        x = [0] * n_arcs
        for a, v in zip(free, values):
            x[a] = v
        for col, prow in pivots.items():
            x[col] = -sum(v * x[c] for c, v in prow.items() if c != col) % n
        out.append(tuple(v + 1 for v in x))
    return sorted(out)


def state_sum(colorings_, crossings, coeffs, n: int, p: int | None) -> dict:
    """Exponent -> multiplicity of the cocycle state sum:
    +phi(under_in, over_in) at positive crossings, -phi(under_out,
    over_out) at negative ones."""
    out: dict = {}
    for col in colorings_:
        total = 0
        for sign, ui, oi, uo, oo in crossings:
            if sign > 0:
                total += coeffs[_pair(n, col[ui - 1], col[oi - 1])]
            else:
                total -= coeffs[_pair(n, col[uo - 1], col[oo - 1])]
        if p:
            total %= p
        out[total] = out.get(total, 0) + 1
    return out


_CHI_TERM = re.compile(r"([+-]?)(?:([0-9/]+)\*)?X\((\d+),(\d+)\)")


def parse_chi(text: str, n: int, p: int | None) -> list:
    """Coefficients of a cochain printed as '-X(1,3)+2*X(3,3)'."""
    coeffs = [0] * (n * n)
    if text.strip() == "0":
        return coeffs
    pos = 0
    for m in _CHI_TERM.finditer(text):
        if m.start() != pos:
            raise ValueError(f"cannot read cochain {text!r}")
        pos = m.end()
        c = Fraction(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
        coeffs[_pair(n, int(m.group(3)), int(m.group(4)))] = to_mod(c, p) if p else c
    if pos != len(text.strip()):
        raise ValueError(f"cannot read cochain {text!r}")
    return coeffs
