#!/usr/bin/env python3
"""Survey a seeded random corpus: rep sizes, wall spacing, window widths,
and exchange counts across sampled adjacent pairs."""
import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qswindows import catalog, mutation
from qswindows.windows import Context


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--per-rank", type=int, default=10)
    args = parser.parse_args()

    counts = {1: args.per_rank, 2: args.per_rank, 3: max(1, args.per_rank // 3)}
    corpus = catalog.random_corpus(args.seed, counts)
    exchange_tally: Counter = Counter()
    print(f"{'rank':>4} {'d':>3} {'pairs':>5} {'|C|':>4} {'periods':>8}")
    for rep in corpus:
        ctx = Context(rep)
        pairs = catalog.adjacent_pairs(ctx, periods=1, per_wall=1, max_pairs=6)
        widths = set()
        periods = set()
        for delta, delta_prime in pairs:
            widths.add(len(ctx.window(delta).chars))
            wall = mutation.toric_wall(rep, delta, delta_prime, ctx)
            periods.add(wall.period)
            exchange_tally.update(mutation.per_face_counts(rep, wall.crossing).values())
        print(f"{rep.rank:>4} {rep.dim:>3} {len(pairs):>5} "
              f"{','.join(map(str, sorted(widths))):>4} "
              f"{','.join(map(str, sorted(periods))):>8}")
    print("exchange count histogram:", dict(sorted(exchange_tally.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
