#!/usr/bin/env python3
"""Print the ``Fraction``s made, the fraction-free eliminations
(``linalg._bareiss`` calls) and the crossings (``windows.wall_crossing``
calls) run per op on each benchmark workload: seed 1, one pass over the
schedule from ``fresh_state()``, probes included, with the ops of the pass
and how many of them failed.  Counters wrap ``Fraction.__new__``, and
``_bareiss`` and ``wall_crossing`` under each name the package imports
them by, while each op runs, so the workload's set-up and each op's check
are not counted.  The workloads and the program come from
``benchmark/``, which this script only imports.  Takes a few seconds.
Run from anywhere: ``python scripts/fraction_count.py``."""
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))

import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


def count_pass(qs, wl) -> tuple[int, int, int, int]:
    """The ``Fraction``s made, the eliminations and the crossings run by
    the ops of one pass over the schedule, and the ops that failed: an op
    that raises or fails its check is counted and passed over, as the
    benchmark does."""
    made = eliminations = crossings = failed = 0
    real, bareiss, wall_crossing = Fraction.__new__, qs.linalg._bareiss, qs.windows.wall_crossing
    holders = (qs.linalg, qs.geometry, qs.root_data)
    crossers = (qs.windows, qs.mutation)

    def counted(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return real(cls, *args, **kwargs)

    def eliminated(*args):
        nonlocal eliminations
        eliminations += 1
        return bareiss(*args)

    def crossed(*args):
        nonlocal crossings
        crossings += 1
        return wall_crossing(*args)

    state = wl.fresh_state()
    for op in wl.schedule:
        Fraction.__new__ = counted
        for m in holders:
            m._bareiss = eliminated
        for m in crossers:
            m.wall_crossing = crossed
        try:
            out = wl.run(op, state)
        except Exception:  # a failed op, as in the benchmark's run loop
            failed += 1
            continue
        finally:
            Fraction.__new__ = real
            for m in holders:
                m._bareiss = bareiss
            for m in crossers:
                m.wall_crossing = wall_crossing
        try:
            wl.check(op, out, state)
        except Exception:
            failed += 1
    return made, eliminations, crossings, failed


def main() -> int:
    qs = worker.load_program()
    print(f"{'workload':<16} {'ops':>5} {'failed':>6} {'Fractions':>10} {'per op':>8}"
          f" {'eliminations':>12} {'per op':>8} {'crossings':>9} {'per op':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, cls in WORKLOADS.items():
            wl = cls(qs, SEED, Path(tmp) / name)
            wl.setup()
            made, eliminations, crossings, failed = count_pass(qs, wl)
            ops = len(wl.schedule)
            print(f"{name:<16} {ops:>5} {failed:>6} {made:>10} {made / ops:>8.2f}"
                  f" {eliminations:>12} {eliminations / ops:>8.2f}"
                  f" {crossings:>9} {crossings / ops:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
