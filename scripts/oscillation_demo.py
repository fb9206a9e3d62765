"""Read off a coloring's exact range on a cube of composites.

With --collapse the 16 type classes are relabeled onto a handful of values
and the range is provably small; with --table the coloring is a lookup on
fingerprints, no longer factors through types, and its range is the
default label plus the label of every key.
"""

import argparse
from fractions import Fraction

from cantorsurj.experiments import ColoringSpec, oscillation_search


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--collapse", type=int, default=0, help="relabel the 16 classes mod this")
    ap.add_argument("--table", action="store_true", help="use an ad-hoc lookup coloring instead")
    ap.add_argument("--eps", default="0.3")
    ap.add_argument("--budget", type=int, default=120_000)
    args = ap.parse_args()

    if args.table:
        spec = ColoringSpec(2, 2, 4, "table", table=(("00|0|10", 3),), constant=1)
    elif args.collapse:
        spec = ColoringSpec(2, 2, 16, "relabeled_types",
                            relabel=tuple(i % args.collapse for i in range(16)))
    else:
        spec = ColoringSpec(2, 2, 16, "relabeled_types", relabel=tuple(range(16)))

    rep = oscillation_search(spec, Fraction(args.eps), budget=args.budget)
    keys = {key for key, _ in spec.table}
    print(f"regime: {rep.regime}  guaranteed: {rep.guaranteed}  "
          f"labels achieved: {rep.labels}")
    for w in rep.witnesses:
        stems = ["".join(map(str, p.stem)) for p in w.points]
        if w.type_index is not None:
            kind = f"type {w.type_index:2d}"
        else:
            kind = "key" if "|".join(stems) in keys else "default"
        print(f"  label {w.label:2d}  {kind}  stems {' '.join(stems)}")


if __name__ == "__main__":
    main()
