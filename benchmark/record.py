"""Record the run digests that benchmark runs are checked against.

    PYTHONHASHSEED=0 python3 benchmark/record.py [--workloads a,b] [--seeds 0-10]

For each workload and seed this sets up the workload and runs, untimed,
the schedule prefix that every run covers, then stores the number of
positions and the run digest over them in digests.json.  A run with a
recorded seed whose digest differs counts every op it covers as failed.
Re-record only when a change to the program is meant to change its output.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    """``0-10`` or ``0,3,7``."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="0-10")
    args = ap.parse_args(argv)
    qs = worker.load_program()
    path = HERE / "digests.json"
    workdir = worker.ROOT / ".bench_tmp" / "record"
    try:
        for name in args.workloads.split(","):
            for seed in seed_list(args.seeds):
                wl = WORKLOADS[name](qs, seed, workdir)
                wl.setup()
                upto = worker.digest_positions(wl)
                records, _ = worker.run_loop(wl, wl.state0, 0, positions=upto)
                bad = [r for r in records if not r.ok and not r.probe]
                if bad:
                    raise SystemExit(f"{name} seed {seed}: op {bad[0].position} failed: "
                                     f"{bad[0].reason}")
                digest = worker.run_digest(records, upto)
                table = json.loads(path.read_text())
                table.setdefault(name, {})[str(seed)] = [upto, digest]
                path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
                print(f"{name} seed {seed}: output digest {digest} over {upto} positions",
                      flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
