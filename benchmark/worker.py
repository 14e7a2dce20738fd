"""One benchmark process: set up one workload, run it, check it, report.

``run.py`` starts this file once per set-up sample and once for the
measured run, so ``setup_s`` (measured from the moment the process was
spawned) and ``peak_rss_mib`` belong to one workload alone.  The last line
of standard output is a JSON object for ``run.py``; the lines before it
are for people.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import per_layer  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


def load_program():
    """Import qswindows from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        pkg = importlib.import_module("qswindows")
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import qswindows from {src}: {exc}")
    if Path(pkg.__file__).resolve().parent != (src / "qswindows").resolve():
        raise SystemExit(f"benchmark: qswindows resolved to {pkg.__file__}, not {src}")
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"qswindows.{m}") for m in MODULES + ("errors",)})


@dataclass
class Record:
    position: int
    label: str
    seconds: float
    probe: bool
    digest: str
    started: float = 0.0  # perf_counter() at the start of the op
    failure: str = ""     # "", "raised", "check" or "digest"
    reason: str = ""

    @property
    def ok(self) -> bool:
        return not self.failure


def digest_positions(wl) -> int:
    """Schedule positions covered by the run digest: enough for min_ops
    measured ops, rounded up to whole rounds.  Every run reaches it."""
    n = 0
    pos = 0
    while n < wl.min_ops or pos % wl.round_size:
        if not wl.is_probe(wl.schedule[pos % len(wl.schedule)]):
            n += 1
        pos += 1
    return pos


# -- machine speed -------------------------------------------------------------
#
# On a shared 2-core VM, other tenants changed the speed of pure-Python
# code by up to a factor of two, in spells from a second to minutes long:
# far more than the run-to-run differences a benchmark must resolve.  Every run therefore times a fixed
# pure-Python reference computation (Fraction arithmetic and tuple
# hashing, like the program's inner loops; it calls no program code)
# between ops, and scales each op's time by the median reference time
# within REFERENCE_WINDOW_S of it, to the speed at which the reference
# takes REFERENCE_NOMINAL_S.  Raw times and the factor are printed too.

REFERENCE_NOMINAL_S = 0.002
REFERENCE_EVERY_S = 0.05
REFERENCE_WINDOW_S = 0.5
SETUP_REFERENCE_SAMPLES = 60


def reference_work():
    f = Fraction(0)
    seen: dict = {}
    for i in range(1, 160):
        f = (f + Fraction(i, i + 7)) * Fraction(3, 5)
        key = tuple(j * i % 11 for j in range(6))
        seen[key] = seen.get(key, 0) + 1
    return f, len(seen)


def time_reference(samples: list, n: int = 1) -> None:
    """Append (start, seconds) of ``n`` reference computations."""
    for _ in range(n):
        t0 = time.perf_counter()
        reference_work()
        samples.append((t0, time.perf_counter() - t0))


def slowdown(samples) -> float:
    """How much slower than nominal the machine ran while these were taken."""
    return statistics.median(s for _, s in samples) / REFERENCE_NOMINAL_S


def scale_to_nominal(records, refs) -> None:
    """Divide each op's time by the slowdown the references measured
    around it."""
    starts = [t for t, _ in refs]
    for r in records:
        lo = bisect.bisect_left(starts, r.started - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(starts, r.started + r.seconds + REFERENCE_WINDOW_S)
        r.seconds /= slowdown(refs[lo:hi] or refs)


def run_loop(wl, state, seconds, tracer=None, positions=None, refs=None):
    """Run ops until ``seconds`` of timed work and ``wl.min_ops`` measured
    ops are done, stopping at a round boundary; or exactly ``positions`` ops.

    Only ``wl.run`` is timed (and traced).  Checks, digests, the reference
    timings (appended to ``refs``) and the fresh state a new pass over the
    schedule needs run outside the interval.
    """
    records = []
    timed = 0.0
    measured = 0
    since_ref = REFERENCE_EVERY_S
    length = len(wl.schedule)
    pos = 0
    while True:
        if positions is None:
            if pos % wl.round_size == 0 and timed >= seconds and measured >= wl.min_ops:
                break
        elif pos >= positions:
            break
        if pos and pos % length == 0:
            state = wl.fresh_state()
        op = wl.schedule[pos % length]
        probe = wl.is_probe(op)
        err = None
        if tracer is not None:
            tracer.op = pos
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out = wl.run(op, state)
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            err = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
            tracer.settle()
        text = ""
        failure = "raised" if err else ""
        if err is None:
            try:
                text = wl.check(op, out, state)
            except CheckFailed as exc:
                failure, err = "check", f"check failed: {exc}"
            except Exception as exc:  # a check that crashes fails its op
                failure, err = "check", f"check raised {type(exc).__name__}: {exc}"
        records.append(Record(pos, wl.op_label(op), dt, probe,
                              inputs.digest(text) if text else "", t0, failure, err or ""))
        if not probe:
            timed += dt
            measured += 1
        since_ref += dt
        if refs is not None and since_ref >= REFERENCE_EVERY_S:
            time_reference(refs)
            since_ref = 0.0
        pos += 1
    return records, timed


def run_digest(records, upto: int) -> str:
    return inputs.digest(",".join(r.digest for r in records[:upto] if not r.probe))


def check_recorded(wl, seed, records) -> str:
    """Compare the run digest with the one digests.json records for this
    workload and seed; on a mismatch mark every op it covers as failed."""
    known = json.loads((HERE / "digests.json").read_text()).get(wl.name, {}).get(str(seed))
    upto, want = known or (digest_positions(wl), None)
    if len(records) < upto:
        return f"{len(records)} schedule positions, fewer than the {upto} recorded: not compared"
    got = run_digest(records, upto)
    line = f"output digest {got} over the first {upto} schedule positions"
    if want is None:
        return line + " (none recorded for this seed)"
    if got == want:
        return line + " (as recorded)"
    for r in records[:upto]:
        if r.ok and not r.probe:
            r.failure, r.reason = "digest", f"run digest {got} differs from recorded {want}"
    return line + f" DIFFERS from the recorded {want}"


def percentile(sorted_values, q):
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def summarize(wl, records, timed):
    ops = [r for r in records if not r.probe]
    lat = sorted(r.seconds * 1e3 for r in ops)
    failed = [r for r in ops if not r.ok]
    beyond = sum(1 for x in lat if x > percentile(lat, 95))
    print(f"samples: {len(ops)} ops over {timed:.3f} s timed (scaled), {beyond} beyond p95; "
          f"p99 (not gated) {percentile(lat, 99):.3f} ms")
    by_label: dict = {}
    for r in ops:
        row = by_label.setdefault(r.label, [0, 0])
        row[0] += 1
        row[1] += 0 if r.ok else 1
    print("failures by op: " + ", ".join(f"{k} {v[1]}/{v[0]}" for k, v in sorted(by_label.items())))
    for r in failed[:5]:
        print(f"  failed op {r.position} ({r.label}): {r.reason[:200]}")
    probes = [r for r in records if r.probe]
    if probes:
        still = sum(1 for r in probes if not r.ok)
        print(f"known failure {probes[0].label}: {still}/{len(probes)} calls still fail "
              f"({probes[0].reason[:120] or 'exit 0'}); known_failure_frac "
              f"{still / len(records):.6f} of all calls")
    return {
        "ops_per_s": len(ops) / timed,
        "op_p50_ms": statistics.median(lat),
        "op_p95_ms": percentile(lat, 95),
    }, len(ops), len(failed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("setup", "run"), default="run")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    args = ap.parse_args(argv)

    # half the set-up references before the program is imported, half
    # after set-up; their own time is not set-up time, nor is the time the
    # workload spends in the benchmark's own input generators
    setup_refs: list = []
    time_reference(setup_refs, SETUP_REFERENCE_SAMPLES // 2)
    refs_s = sum(s for _, s in setup_refs)
    qs = load_program()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
    workdir = ROOT / ".bench_tmp" / str(os.getpid())
    try:
        wl = WORKLOADS[args.workload](qs, args.seed, workdir)
        wl.setup()
        setup_s = time.monotonic() - args.spawned - refs_s - wl.input_s
        if tracer is not None:
            tracer.enabled = False
        time_reference(setup_refs, SETUP_REFERENCE_SAMPLES // 2)
        if args.phase == "setup":
            print(json.dumps({"setup_s": setup_s / slowdown(setup_refs), "setup_raw_s": setup_s}))
            return 0
        print(f"workload {wl.name} seed {args.seed}: input fingerprint {wl.fingerprint()}, "
              f"schedule of {len(wl.schedule)} ops")
        if tracer is None:
            result = untraced(wl, args, setup_s, slowdown(setup_refs))
        else:
            result = traced(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


def untraced(wl, args, setup_s, setup_slowdown):
    refs: list = []
    time_reference(refs, SETUP_REFERENCE_SAMPLES)
    records, raw_timed = run_loop(wl, wl.state0, args.seconds, refs=refs)
    time_reference(refs, SETUP_REFERENCE_SAMPLES)
    factor = slowdown(refs)
    print(f"machine speed: {len(refs)} reference samples, median {factor:.4f}x nominal; "
          f"{raw_timed:.3f} s timed before scaling")
    scale_to_nominal(records, refs)
    timed = sum(r.seconds for r in records if not r.probe)
    print(check_recorded(wl, args.seed, records))
    metrics, attempted, failed = summarize(wl, records, timed)
    extra = wl.finish()
    for label, secs, ok, note in extra:
        print(f"{label}: {secs:.3f} s raw, {'ok' if ok else 'FAILED'} ({note})")
        attempted += 1
        failed += 0 if ok else 1
    if extra:
        print(f"verify_s (median of {len(extra)} cold `qswindows verify` calls, scaled): "
              f"{statistics.median(e[1] for e in extra) / factor:.4f}")
    print(f"failed_ops_frac: {failed / attempted:.6f} ({failed}/{attempted})")
    metrics["ok_ops_frac"] = 1 - failed / attempted
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["setup_s"] = setup_s / setup_slowdown
    metrics["setup_raw_s"] = setup_s
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def traced(wl, seconds, tracer):
    """Trace the measured loop, then replay the same ops untraced on fresh
    state to measure the tracing overhead and compare digests.  Both
    passes are scaled to nominal machine speed; per-layer seconds are
    scaled by the traced pass's median slowdown."""
    refs: list = []
    records, _ = run_loop(wl, wl.state0, seconds, tracer=tracer, refs=refs)
    factor = slowdown(refs)
    scale_to_nominal(records, refs)
    tracer.op = -2
    tracer.enabled = True
    extra = wl.finish()
    tracer.enabled = False
    tracer.settle()
    replay_refs: list = []
    replay, _ = run_loop(wl, wl.fresh_state(), 0, positions=len(records), refs=replay_refs)
    scale_to_nominal(replay, replay_refs)
    traced_s = sum(r.seconds for r in records)
    untraced_s = sum(r.seconds for r in replay)
    upto = digest_positions(wl)
    same = [a.digest for a in records] == [b.digest for b in replay]
    print(f"traced digest {run_digest(records, upto)}, untraced digest "
          f"{run_digest(replay, upto)}: {'equal' if same else 'DIFFERENT'}")
    print(check_recorded(wl, wl.seed, records))
    overhead = traced_s / untraced_s - 1
    print(f"tracing overhead: {traced_s:.3f} s traced vs {untraced_s:.3f} s untraced "
          f"(scaled) over the same {len(records)} ops ({100 * overhead:.1f}%); "
          f"{tracer.span_count()} spans; traced pass ran at {factor:.4f}x nominal")
    metrics = per_layer.compute(tracer, records, overhead, factor)
    failed = sum(1 for r in records if not r.ok and not r.probe)
    failed += sum(1 for e in extra if not e[2])
    attempted = sum(1 for r in records if not r.probe) + len(extra)
    return {"correct": same and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
