"""Realize every depth-2 color over a random inner surjection.

For each of the 16 colors the driver prints the row of realize_all_colors'
report: the witness tuple found in the inner map's max-set and the depth it
was found at.  The library certifies every witness before it reports it:
one tuple_to_factors batch checks that each composite's fingerprint is its
witness.
"""

import argparse
import random

from cantorsurj.experiments import realize_all_colors
from cantorsurj.randgen import random_filtering
from cantorsurj.surjections import from_filtering, identity


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=None, help="random inner map; identity if omitted")
    ap.add_argument("--depth", type=int, default=3, help="support of the random inner map")
    ap.add_argument("--cap", type=int, default=20)
    args = ap.parse_args()

    if args.seed is None:
        h, label = identity(2), "identity"
    else:
        h = from_filtering(random_filtering(random.Random(args.seed), 2, args.depth))
        label = f"random(seed={args.seed}, depth={args.depth})"

    rep = realize_all_colors(h, 2, args.cap)
    print(f"inner map: {label}")
    print(f"colors: {rep.colors}  combos scanned: {rep.combos}  complete to depth {rep.deepest_full}")
    for r in rep.realizations:
        if r.witness is None:
            print(f"  color {r.color:2d}  MISSING within cap {rep.depth_cap}")
        else:
            stems = " ".join("".join(map(str, p.stem)) for p in r.witness)
            print(f"  color {r.color:2d}  depth {r.depth}  stems {stems}")
    print("all realized and verified" if rep.complete and all(r.verified for r in rep.realizations)
          else "INCOMPLETE")


if __name__ == "__main__":
    main()
