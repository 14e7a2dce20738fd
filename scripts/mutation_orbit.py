#!/usr/bin/env python3
"""Print the full mutation orbit of a window module around one wall.

For each left-mutation step the atom multiset and its split virtual class
are shown; the orbit closes after d_F^+ + d_F*^+ - 2 steps.
"""
import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qswindows import catalog, mutation
from qswindows.windows import Context


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--weights", default="1,1,1,-1,-1,-1",
                        help="rank-one weight list, comma separated")
    parser.add_argument("--delta", default="0", type=Fraction)
    parser.add_argument("--delta2", default="1", type=Fraction)
    args = parser.parse_args()

    weights = [(int(w),) for w in args.weights.split(",")]
    rep = catalog.torus_rep(*weights)
    ctx = Context(rep)
    wall = mutation.toric_wall(rep, (args.delta,), (args.delta2,), ctx)
    start = mutation.module_of_window(rep, (args.delta,), ctx)

    print(f"weights {args.weights}; wall between {args.delta} and {args.delta2}")
    print(f"pivot {wall.pivot().atoms}; period {wall.period}")
    for step, spec in enumerate(wall.walk(start, wall.period)):
        cls = mutation.virtual_class(spec, rep, wall.faces)
        print(f"step {step}: {list(spec.atoms)}  class {cls}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
