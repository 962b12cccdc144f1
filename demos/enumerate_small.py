"""Census of small biquandles.

Enumerates every biquandle on 1, 2, and 3 elements by constraint
propagation, then shows how many axiom sides wait on a blank cell, the
count the search branches on, as a table fills in.

Run from the repository root:  python3 demos/enumerate_small.py
"""

from biquandles.core import OpKind, write_biquandle
from biquandles.search import PartialBiquandle, enumerate_biquandles, propagate, waiting


def main():
    print("biquandles by order:")
    found = {}
    for n in (1, 2, 3):
        found[n] = enumerate_biquandles(n)
        print(f"  {n} element(s): {len(found[n])}")

    print("\nthe two order-2 structures (upper blocks shown side by side):")
    for T in found[2]:
        print("  " + write_biquandle(T).splitlines()[0]
              + ("   (every operation keeps the left element)"
                 if T.up(1, 2) == 1 else "   (every operation flips it)"))

    print("\nhow constrained is a blank cell?")
    P = PartialBiquandle.blank(2)
    cell = (OpKind.UP, 1, 1)
    counts = waiting(P)
    print(f"  empty 2x2 tables: {counts[cell]} axiom sides wait on cell UP[1,1]"
          f" (the most on any cell: {max(counts.values())})")
    P.set((OpKind.DOWN, 1, 1), 1)
    P.set((OpKind.DOWN, 2, 2), 2)
    counts = waiting(P)
    print(f"  after fixing DOWN[1,1] = 1 and DOWN[2,2] = 2: {counts[cell]}"
          f" (the most on any cell: {max(counts.values())})")

    P.set(cell, 1)
    forced = propagate(P)
    filled = sorted(set(P.blanks()) - set(forced.blanks()))
    print("  and once UP[1,1] = 1 as well, propagation forces "
          + ", ".join(f"{k.name}[{a},{b}] = {forced.get((k, a, b))}"
                      for k, a, b in filled)
          + " from the inversion axioms")


if __name__ == "__main__":
    main()
