"""Benchmark entry point.

    python3 benchmark/run.py --workload corpus-build --seed 0 --seconds 15 --trace 0

Runs one workload single-threaded and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The lines before it give the sample count,
p99 (not gated), failures per op kind, the input fingerprint and
the output digest.

With ``--trace 0`` the workload is set up ``SETUP_SAMPLES`` times, each
in a new process (the last one also runs the measured phase), and
``setup_s`` is their median.  The program is imported from ``src/`` of
the checkout this file sits in; without it the run fails with exit code 2.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus-build", "crossing-sweep", "groupoid-paths", "cli-oneshot")
SETUP_SAMPLES = 3
BUDGET_S = 170


class ChildFailed(Exception):
    pass


def child(args, phase: str, deadline: float) -> tuple[list[str], dict]:
    """Run worker.py once; return its human-readable lines and result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--phase", phase]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{phase} process ran past the {BUDGET_S} s budget") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{phase} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qswindows" / "__init__.py").is_file():
        print(f"benchmark: no program source at {ROOT / 'src' / 'qswindows'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(child(args, "setup", deadline)[1])
        lines, result = child(args, "run", deadline)
    except ChildFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    if not args.trace:
        setups.append({"setup_s": result["metrics"]["setup_s"],
                       "setup_raw_s": result["metrics"].pop("setup_raw_s")})
        print("setup_s samples (unscaled): " + ", ".join(
            f"{s['setup_s']:.4f} ({s['setup_raw_s']:.4f})" for s in setups))
        result["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        units = {m["name"]: m["unit"]
                 for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
        result["metrics"] = {k: {"value": v, "unit": units[k]}
                             for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
