"""Signed Gauss codes for oriented virtual knots and links.

Text form: comma-separated tokens, one per crossing passage, '#' starting a
comment.  A token is a Gaussian integer: the real part's sign says over
(positive) or under (negative), a nonzero imaginary part (written +I / -I)
marks a negative crossing, a bare integer a positive one.  A '0' token ends
a component; a component with no passages is a zero-crossing unknot.

Example: the trefoil is  -1,2,-3,1,-2,3,0  and a two-component link may be
written  -1-I,2,-3,1+I,-4-I,5,-6,4+I,0,3,-2,6,-5,0.

Semi-arcs (the edges between consecutive passages) are numbered 1..N in
traversal order across components; semi-arc k terminates at passage k and
its successor wraps cyclically within the component.
"""

from __future__ import annotations

import re
from enum import Enum

from .core import ParseError, Record, setfield


class Role(Enum):
    OVER = "over"
    UNDER = "under"


class GaussEntry(Record):
    """One crossing passage: renumbered crossing id, role, crossing sign (+1 or -1)."""

    __slots__ = ("crossing", "role", "sign")

    def __init__(self, crossing: int, role: Role, sign: int):
        setfield(self, "crossing", crossing)
        setfield(self, "role", role)
        setfield(self, "sign", sign)


class Crossing(Record):
    """A crossing with its four incident semi-arcs (global numbers)."""

    __slots__ = ("index", "sign", "under_in", "over_in", "under_out", "over_out")

    def __init__(self, index: int, sign: int, under_in: int, over_in: int,
                 under_out: int, over_out: int):
        setfield(self, "index", index)
        setfield(self, "sign", sign)
        setfield(self, "under_in", under_in)
        setfield(self, "over_in", over_in)
        setfield(self, "under_out", under_out)
        setfield(self, "over_out", over_out)


class GaussCode(Record):
    """Validated, renumbered code: components of passages plus the renaming
    that maps original input ids to 1..n (first-occurrence order).

    Immutable after construction.  The coloring searches keep the code's
    search plan in the instance __dict__, built on first use
    (coloring.search_plan); it is no field, so equality, hashing, repr,
    copy and pickle see the components and renaming only.
    """

    __slots__ = ("components", "renaming", "__dict__")

    def __init__(self, components: tuple[tuple[GaussEntry, ...], ...],
                 renaming: tuple[tuple[int, int], ...]):
        setfield(self, "components", components)
        setfield(self, "renaming", renaming)

    @property
    def n_crossings(self) -> int:
        return len(self.renaming)

    @property
    def n_semi_arcs(self) -> int:
        return sum(max(len(c), 1) for c in self.components)


_TOKEN_RE = re.compile(r"^([+-]?\d+)(?:([+-])[iI])?$")


def _scan_tokens(text: str) -> list[tuple[str, int, int]]:
    """Split into (token, line, column) triples; commas separate tokens."""
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        col = 1
        for piece in line.split(","):
            stripped = piece.strip()
            if stripped:
                offset = col + len(piece) - len(piece.lstrip())
                tokens.append((stripped, lineno, offset))
            col += len(piece) + 1
    return tokens


def parse_gauss_code(text: str) -> GaussCode:
    """Parse and validate a signed Gauss code.

    Every crossing id must occur exactly twice, once over and once under,
    with the same crossing sign both times.  Ids are renumbered to 1..n in
    first-occurrence order.  A missing final 0 is tolerated.
    """
    tokens = _scan_tokens(text)
    if not tokens:
        raise ParseError("empty Gauss code")

    components: list[list[tuple[int, Role, int]]] = []
    current: list[tuple[int, Role, int]] = []
    closed = False
    for tok, line, col in tokens:
        m = _TOKEN_RE.match(tok.replace(" ", ""))
        if not m:
            raise ParseError(f"bad token {tok!r}", line, col)
        try:
            real = int(m.group(1))
        except ValueError:  # past int()'s digit limit
            raise ParseError(f"token of {len(tok)} characters is too long", line, col) from None
        imag = m.group(2)
        if real == 0:
            if imag or m.group(1) != "0":
                raise ParseError(f"bad token {tok!r}: zero real part", line, col)
            components.append(current)
            current = []
            closed = True
            continue
        closed = False
        role = Role.OVER if real > 0 else Role.UNDER
        sign = -1 if imag else 1
        current.append((abs(real), role, sign))
    if current or not closed and not components:
        components.append(current)

    seen: dict[int, list[tuple[Role, int]]] = {}
    order: list[int] = []
    for comp in components:
        for cid, role, sign in comp:
            if cid not in seen:
                seen[cid] = []
                order.append(cid)
            seen[cid].append((role, sign))

    for cid in order:
        uses = seen[cid]
        if len(uses) == 1:
            raise ParseError(f"crossing {cid} appears only once")
        if len(uses) > 2:
            raise ParseError(f"crossing {cid} appears {len(uses)} times; expected twice")
        (r1, s1), (r2, s2) = uses
        if r1 == r2:
            raise ParseError(f"crossing {cid} appears twice as {r1.value}")
        if s1 != s2:
            raise ParseError(f"crossing {cid} has mismatched signs")

    renaming = {cid: i + 1 for i, cid in enumerate(order)}
    new_components = tuple(
        tuple(GaussEntry(renaming[cid], role, sign) for cid, role, sign in comp)
        for comp in components
    )
    return GaussCode(new_components, tuple(sorted(renaming.items())))


def _token_of(e: GaussEntry) -> str:
    if e.role is Role.OVER:
        return f"{e.crossing}+I" if e.sign < 0 else f"{e.crossing}"
    return f"-{e.crossing}-I" if e.sign < 0 else f"-{e.crossing}"


def serialize_gauss_code(code: GaussCode) -> str:
    """Canonical text: renumbered ids, each component ending in its 0."""
    parts = []
    for comp in code.components:
        parts.extend(_token_of(e) for e in comp)
        parts.append("0")
    return ",".join(parts)


def crossings_of(code: GaussCode) -> list[Crossing]:
    """Crossing structure with global semi-arc numbers, sorted by index.

    Semi-arc k ends at passage k; its successor is k+1 wrapping at the
    component boundary.
    """
    # keyed by crossing id alone: hashing a Role member is a Python-level call
    under: dict[int, tuple[int, int]] = {}
    over: dict[int, tuple[int, int]] = {}
    signs: dict[int, int] = {}
    pos = 1
    for comp in code.components:
        size = len(comp)
        for i, e in enumerate(comp):
            (under if e.role is Role.UNDER else over)[e.crossing] = (pos + i, pos + (i + 1) % size)
            signs[e.crossing] = e.sign
        pos += max(size, 1)
    return [Crossing(cid, signs[cid], under[cid][0], over[cid][0], under[cid][1], over[cid][1])
            for cid in sorted(signs)]


def insert_r_move(code: GaussCode, move: str, site, *, under_first: bool = False) -> GaussCode:
    """Insert a Reidemeister move, returning a new valid code.

    move "R1+" or "R1-": site is (component, position); a kink with a fresh
    crossing of that sign is inserted there, both passages adjacent, over
    passage first unless under_first.

    move "R2": site is ((comp_over, pos_over), (comp_under, pos_under));
    a cancelling pair is inserted, the first new crossing positive and the
    second negative, the moving strand passing over at both.  The two sites
    must be distinct positions.

    Positions are 0-based insertion points, 0..len(component).
    """
    comps = [list(c) for c in code.components]
    fresh = code.n_crossings + 1

    def check_site(ci, pos):
        if not 0 <= ci < len(comps):
            raise ValueError(f"no component {ci}")
        if not 0 <= pos <= len(comps[ci]):
            raise ValueError(f"position {pos} outside component {ci}")

    if move in ("R1+", "R1-"):
        ci, pos = site
        check_site(ci, pos)
        sign = 1 if move == "R1+" else -1
        pair = [GaussEntry(fresh, Role.OVER, sign), GaussEntry(fresh, Role.UNDER, sign)]
        if under_first:
            pair.reverse()
        comps[ci][pos:pos] = pair
    elif move == "R2":
        (c1, p1), (c2, p2) = site
        check_site(c1, p1)
        check_site(c2, p2)
        if c1 == c2 and p1 == p2:
            raise ValueError("R2 sites must be distinct")
        over_pair = [GaussEntry(fresh, Role.OVER, 1), GaussEntry(fresh + 1, Role.OVER, -1)]
        under_pair = [GaussEntry(fresh, Role.UNDER, 1), GaussEntry(fresh + 1, Role.UNDER, -1)]
        # the later site first, so the earlier position stays where it was
        for c, p, pair in sorted(((c1, p1, over_pair), (c2, p2, under_pair)),
                                 key=lambda s: s[:2], reverse=True):
            comps[c][p:p] = pair
    else:
        raise ValueError(f"unknown move {move!r}; expected R1+, R1- or R2")

    rebuilt = GaussCode(tuple(tuple(c) for c in comps),
                        tuple((i + 1, i + 1) for i in range(fresh + (move == "R2"))))
    return parse_gauss_code(serialize_gauss_code(rebuilt))
