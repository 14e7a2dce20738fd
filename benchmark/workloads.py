"""The four benchmark workloads.

Each workload builds its inputs from a seed in ``setup``, then exposes a
schedule of ops.  ``run`` is the timed part of one op; ``check`` runs
outside the timed interval, verifies the op's invariants and returns the
canonical text of its output, whose hash feeds the run digest.  Library
functions are always reached through their module attribute so that the
tracer's wrappers see every call.

The workload seed offsets each default seed, so ``--seed 0`` is the
acceptance corpus (20250810), criterion 6's paths (11) and the first CLI
query draw.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import time
from fractions import Fraction
from pathlib import Path

import inputs

F = Fraction


class CheckFailed(Exception):
    """An op's output broke one of its invariants."""


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


class Workload:
    """Base class; subclasses set the class attributes and override the hooks."""

    name = ""
    min_ops = 200        # 10 samples beyond p95
    round_size = 1       # a run stops only at a multiple of this many ops

    def __init__(self, qs, seed: int, workdir: Path):
        self.qs = qs
        self.seed = seed
        self.workdir = workdir
        self.schedule: list = []
        self.state0 = None     # state for the first pass, built in setup
        self.fingerprint_items: list = []
        self.input_s = 0.0     # time spent in generate(), left out of setup_s

    def generate(self, fn, *args):
        """Call one of the benchmark's own input generators.

        Its time is not the program's, so it is left out of ``setup_s``.
        """
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.input_s += time.perf_counter() - t0

    def setup(self) -> None:
        raise NotImplementedError

    def fresh_state(self):
        """State for one pass over the schedule, built untimed."""
        return None

    def run(self, op, state):
        raise NotImplementedError

    def check(self, op, out, state) -> str:
        raise NotImplementedError

    def is_probe(self, op) -> bool:
        """A probe runs a known defect; it is reported apart from the ops."""
        return False

    def finish(self) -> list:
        """Calls made once after the loop, as (label, seconds, ok, note)."""
        return []

    def fingerprint(self) -> str:
        return inputs.digest(inputs.canonical(self.fingerprint_items))

    def op_label(self, op) -> str:
        return self.name


# -- corpus-build ------------------------------------------------------------------


class CorpusBuild(Workload):
    """One op is QSRep.build over one seeded generic torus weight list.

    Time goes to geometry, linalg and rep (vertex enumeration, zonotope,
    the build_nabla cross-check) and none to windows or groupoid.  A run
    covers the whole 210-rep corpus, so rank-1 ops (a few ms) and rank-3
    ops (about 0.5 s) split the median from the tail.
    """

    name = "corpus-build"

    def setup(self):
        weights = self.generate(inputs.stratified_corpus, inputs.ACCEPTANCE_SEED + self.seed)
        self.round_size = len(weights)
        self.min_ops = len(weights)
        self.schedule = inputs.interleave(weights, inputs.stratum)
        self.fingerprint_items = sorted(weights)

    def run(self, op, state):
        rank = len(op[0])
        return self.qs.rep.QSRep.build(self.qs.root_data.RootDatum.torus(rank), op)

    def check(self, op, rep, state) -> str:
        payload = rep.to_json()
        _require(payload["weights"] == [list(w) for w in op], "weights round-trip")
        _require(payload["generic"] == "yes", "corpus reps are generic")
        nabla = rep.nabla
        verts = set(nabla.vertices)
        _require(verts == {tuple(-x for x in v) for v in verts},
                 "torus window polytope is centrally symmetric")
        for h in nabla.halfspaces:
            values = [sum(a * b for a, b in zip(v, h.normal)) for v in verts]
            _require(min(values) == h.offset, "every facet is tight on a vertex")
            _require(sum(1 for x in values if x == h.offset) >= rep.rank,
                     "every facet holds at least rank vertices")
        return json.dumps(payload, sort_keys=True)

    def op_label(self, op) -> str:
        return f"rank{len(op[0])}"


# -- crossing-sweep ------------------------------------------------------------------

# Eight rank-3 reps with six pairs each: the slowest ops are rank-3
# crossings, and their cost varies by a factor of two or more from one
# rep to the next.  On seeds 1-8 the p95 spread was 0.30 with four reps
# of twelve pairs and 0.10 with eight of six.
CROSSING_COUNTS = {1: 40, 2: 16, 3: 8}
RANK3_PAIRS = 6


class CrossingSweep(Workload):
    """One op is one ordered adjacent pair, as in acceptance criteria 2-5.

    The op crosses its pair once (``toric_wall`` holds the crossing that
    ``mu_map``, ``complex_terms`` and ``summand_sets`` read).  Each chamber
    pair comes up once per pass and every pass starts from fresh Contexts,
    so a crossing cache has nothing to reuse here.
    """

    name = "crossing-sweep"
    min_ops = 1200

    def setup(self):
        qs = self.qs
        weights = self.generate(inputs.stratified_corpus, inputs.ACCEPTANCE_SEED + self.seed,
                                CROSSING_COUNTS)
        self.reps = [qs.rep.QSRep.build(qs.root_data.RootDatum.torus(len(w[0])), w)
                     for w in weights]
        state = self.fresh_state()
        ops = []
        for i, (rep, ctx) in enumerate(zip(self.reps, state)):
            if rep.rank == 1:
                pairs = qs.catalog.adjacent_pairs(ctx, periods=2)
            else:
                pairs = qs.catalog.adjacent_pairs(
                    ctx, periods=2, per_wall=2, max_pairs=12 if rep.rank == 2 else RANK3_PAIRS)
            ops.extend((i, d, d2) for d, d2 in pairs)
        self.schedule = inputs.interleave(ops, lambda op: op[0])
        self.state0 = state
        self.forward: dict = {}
        self.fingerprint_items = [sorted(weights), sorted(ops)]

    def fresh_state(self):
        return [self.qs.windows.Context(rep) for rep in self.reps]

    def run(self, op, state):
        qs = self.qs
        i, delta, delta_prime = op
        rep, ctx = self.reps[i], state[i]
        wall = qs.mutation.toric_wall(rep, delta, delta_prime, ctx)
        crossing = wall.crossing
        mapping = qs.windows.mu_map(rep, crossing)
        terms = {}
        sums = {}
        for key, fd in crossing.faces.items():
            terms[key] = [qs.complexes.complex_terms(rep, fd, chi)
                          for chi in crossing.chars_by_face[key]]
            sums[key] = qs.complexes.summand_sets(rep, crossing, fd, ctx)
        spec = qs.mutation.module_of_window(rep, delta, ctx)
        orbit = [spec]
        for _ in range(wall.period):
            spec = wall.mutate(spec, "left")
            orbit.append(spec)
        return crossing, mapping, terms, sums, wall.period, orbit

    def check(self, op, out, state) -> str:
        crossing, mapping, terms, sums, period, orbit = out
        i, delta, delta_prime = op
        win, win_p = crossing.window.chars, crossing.window_prime.chars
        _require(len(win) == len(win_p), "window sizes match")
        seen = set(crossing.common)
        total = len(crossing.common)
        for chars in crossing.chars_by_face.values():
            _require(not seen & set(chars), "face parts are disjoint")
            seen |= set(chars)
            total += len(chars)
        _require(seen == set(win) and total == len(win), "window partition")
        _require(set(mapping) == set(crossing.outgoing), "mu is defined on the outgoing part")
        back = self.forward.get((i, delta_prime, delta))
        if back is not None:
            _require(all(back[img] == chi for chi, img in mapping.items()), "mu involution")
        self.forward[(i, delta, delta_prime)] = mapping
        _require(orbit[-1] == orbit[0] and len(orbit) == period + 1, "mutation periodicity")
        return inputs.canonical({
            "common": crossing.common,
            "faces": {k: v for k, v in sorted(crossing.chars_by_face.items())},
            "mu": sorted(mapping.items()),
            "terms": {k: [t.to_json() for t in v] for k, v in sorted(terms.items())},
            "sums": {k: v for k, v in sorted(sums.items())},
            "orbit": [s.to_json() for s in orbit],
        })

    def op_label(self, op) -> str:
        return f"rank{self.reps[op[0]].rank}"


# -- groupoid-paths --------------------------------------------------------------------

BUNDLED = {
    "torus-1x2pairs": ("torus", 1, ((1,), (1,), (-1,), (-1,))),
    "torus-1x3pairs": ("torus", 1, ((1,), (1,), (1,), (-1,), (-1,), (-1,))),
    "gl2-cube-pair": ("gl", 2, ((3, 0), (2, 1), (1, 2), (0, 3),
                                (-3, 0), (-2, -1), (-1, -2), (0, -3))),
}
PATH_SEED = 11
PATHS_PER_REP = 200


class GroupoidPaths(Workload):
    """One op is one seeded positive path on one of the three bundled reps.

    Few chamber pairs are crossed very often, so this exercises
    arrangement queries, GL(2) dominant representatives, and any window or
    crossing cache.  Each rep keeps one Context for the whole pass.
    """

    name = "groupoid-paths"
    min_ops = 540
    round_size = len(BUNDLED)

    def setup(self):
        qs = self.qs
        self.reps = []
        for kind, n, weights in BUNDLED.values():
            datum = qs.root_data.RootDatum.torus(n) if kind == "torus" else qs.root_data.RootDatum.gl(n)
            self.reps.append(qs.rep.QSRep.build(datum, weights))
        state = self.fresh_state()
        per_rep = []
        drawn = []
        for i, (rep, ctx) in enumerate(zip(self.reps, state)):
            arr = ctx.arrangement
            rng = random.Random(PATH_SEED + self.seed)
            paths = []
            for _ in range(PATHS_PER_REP):
                got = inputs.random_positive_path(
                    arr, rng, qs.groupoid.Cross, qs.groupoid.split_into_hops,
                    qs.errors.QSWindowsError)
                if got is None:
                    continue
                start, arrows = got
                drawn.append((i, start, arrows))
                paths.append(qs.groupoid.make_path(
                    arr, [qs.groupoid.Cross(*a) for a in arrows], start=start))
            per_rep.append(paths)
        self.schedule = [(i, paths[j]) for j in range(min(map(len, per_rep)))
                         for i, paths in enumerate(per_rep)]
        self.state0 = state
        self.fingerprint_items = [sorted(BUNDLED.items()), drawn]

    def fresh_state(self):
        return [self.qs.windows.Context(rep) for rep in self.reps]

    def run(self, op, state):
        g = self.qs.groupoid
        i, path = op
        rep, ctx = self.reps[i], state[i]
        arr = ctx.arrangement
        minimal = g.is_minimal(arr, path)
        reduced = word = None
        if arr.dim == 1:
            reduced = g.reduce_rank1(arr, path)
            word = g.normal_form_word(arr, path)
        mapping = g.transcript_window_map(rep, path, ctx)
        entries = g.mutation_transcript(rep, path, ctx)
        return minimal, reduced, word, mapping, entries

    def check(self, op, out, state) -> str:
        minimal, reduced, word, mapping, entries = out
        i, path = op
        arr = state[i].arrangement
        if reduced is not None:
            again = self.qs.groupoid.reduce_rank1(arr, reduced)
            _require([repr(a) for a in again.arrows] == [repr(a) for a in reduced.arrows],
                     "rank-one reduction is idempotent")
        _require(len(set(mapping.values())) == len(mapping), "transcript map is a bijection")
        return inputs.canonical({
            "minimal": minimal,
            "reduced": None if reduced is None else [repr(a) for a in reduced.arrows],
            "word": word,
            "map": sorted(mapping.items()),
            "transcript": [e.to_json() for e in entries],
        })

    def op_label(self, op) -> str:
        return list(BUNDLED)[op[0]]


# -- cli-oneshot ----------------------------------------------------------------------

CLI_REPS = {
    "t2": {"root_datum": {"builtin": "torus", "rank": 1}, "weights": [[1], [1], [-1], [-1]]},
    "t3": {"root_datum": {"builtin": "torus", "rank": 1},
           "weights": [[1], [1], [1], [-1], [-1], [-1]]},
    "gl2": {"root_datum": {"builtin": "gl", "n": 2},
            "weights": [list(w) for w in BUNDLED["gl2-cube-pair"][2]]},
    "gl3": {"root_datum": {"builtin": "gl", "n": 3},
            "weights": [[s if j == i else 0 for j in range(3)]
                        for _ in range(4) for i in range(3) for s in (1, -1)]},
}
# The median call takes a few ms, and its scaled time still moves with the
# machine's state; over ten seeds op_p50_ms spread 0.17 with 9 rounds
# and 0.12 and 0.20 in two sets with 12.
CLI_ROUNDS = 16
VERIFY_RUNS = 2
# The GL(3) 4x(std+dual) wallcross exits 2 ("dagger is defined only for
# dominant faces").  It runs every round as a probe and is reported on its
# own line, so a fix shows as a lower known-failure share.
KNOWN_FAILURE = ("wallcross", "gl3")


def _pt(*xs) -> str:
    return ",".join(str(F(x)) for x in xs)


class CliOneshot(Workload):
    """One op is one in-process ``cli.main([...])`` call with captured stdout.

    Every call parses its rep JSON afresh, so every query is cold.  This is
    the only workload through cli, cy_ci, verify and svg.  Query points
    are seeded lattice translates of known off-wall points; negative
    vectors use the ``--delta=-1/4,-1/4`` form because argparse reads
    ``--delta -1/4,-1/4`` as an option.
    """

    name = "cli-oneshot"

    def setup(self):
        self.dir = self.workdir / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        files = {}
        for key, payload in CLI_REPS.items():
            files[key] = str(self.dir / f"{key}.json")
            Path(files[key]).write_text(json.dumps(payload))
        self.svg_dir = self.dir / "svg"
        rng = random.Random(self.seed)
        rounds = []
        for _ in range(CLI_ROUNDS):
            k = rng.randint(-3, 3)
            a = rng.randint(-3, 3)
            m = rng.randint(1, 2)
            tw = rng.randint(-2, 2)
            steps = rng.randint(1, 3)
            pick = rng.randrange(3)
            gl2_out = [(-2 + k, -2 + k), (-1 + k, -2 + k), (k, -2 + k)][pick]
            rounds.append(self._round(files, k, a, m, tw, steps, gl2_out))
        self.round_size = len(rounds[0])
        self.schedule = [call for r in rounds for call in r]
        self.min_ops = sum(1 for op in self.schedule if not self.is_probe(op))
        local = {path: key for key, path in files.items()}
        self.fingerprint_items = [sorted(CLI_REPS.items()),
                                  [[local.get(a, a) for a in op if a != str(self.svg_dir)]
                                   for op in self.schedule]]

    def _round(self, f, k, a, m, tw, steps, chi):
        svg = str(self.svg_dir)
        half = F(1, 2)
        quarter = F(1, 4)
        return [
            ("rep", "--input", f["t2"]),
            ("rep", "--input", f["gl2"]),
            ("arrangement", "--input", f["t3"], "--box", "3"),
            ("arrangement", "--input", f["gl2"]),
            ("window", "--input", f["t2"], f"--delta={_pt(half + k)}"),
            ("window", "--input", f["t3"], f"--delta={_pt(k)}"),
            ("window", "--input", f["gl2"], f"--delta={_pt(k - quarter, k - quarter)}"),
            ("window", "--input", f["gl3"], f"--delta={_pt(*(3 * [k + quarter]))}"),
            ("window", "--input", f["gl3"], f"--delta={_pt(*(3 * [k + 3 * quarter]))}"),
            ("wallcross", "--input", f["t2"], f"--delta={_pt(half + k)}",
             f"--delta2={_pt(half + k + 1)}"),
            ("wallcross", "--input", f["t3"], f"--delta={_pt(k)}", f"--delta2={_pt(k + 1)}"),
            ("wallcross", "--input", f["gl2"], f"--delta={_pt(k, k)}",
             f"--delta2={_pt(k + 1, k + 1)}"),
            ("wallcross", "--input", f["gl3"], f"--delta={_pt(*(3 * [k + quarter]))}",
             f"--delta2={_pt(*(3 * [k + 1 + quarter]))}"),
            ("faces", "--input", f["t2"], f"--delta={_pt(k)}"),
            ("faces", "--input", f["gl2"], f"--delta={_pt(k, k)}"),
            ("complex", "--input", f["t2"], f"--delta={_pt(half + k)}",
             f"--delta2={_pt(half + k + 1)}", f"--chi={k}"),
            ("complex", "--input", f["gl2"], f"--delta={_pt(k, k)}",
             f"--delta2={_pt(k + 1, k + 1)}", f"--chi={_pt(*chi)}"),
            ("mutate", "--input", f["t3"], f"--delta={_pt(k)}", f"--delta2={_pt(k + 1)}"),
            ("mutate", "--input", f["t2"], f"--delta={_pt(half + k)}",
             f"--delta2={_pt(half + k + 1)}", "--steps", str(steps)),
            ("groupoid", "--input", f["t2"], "--path", f"x({a},+);t({m});x({a + m},-)"),
            ("groupoid", "--input", f["t3"], "--path",
             f"x({half + a},+);t({m});x({half + a + m},-)"),
            ("cy", "--a", "1,1,1,1,1", "--d", "5", f"--twist={tw}"),
            ("cy", "--a", "1,1,1,1,1,1", "--d", "3,3", f"--twist={tw}"),
            ("export-svg", "--input", f["gl2"], f"--delta={_pt(k, k)}",
             f"--delta2={_pt(k + 1, k + 1)}", "--out", svg),
            ("export-svg", "--input", f["t2"], f"--delta={_pt(half + k)}", "--out", svg),
        ]

    def fresh_state(self):
        shutil.rmtree(self.svg_dir, ignore_errors=True)
        return None

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.qs.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue(), err.getvalue()

    def run(self, op, state):
        return self.call(op)

    def is_probe(self, op) -> bool:
        return (op[0], Path(op[2]).stem) == KNOWN_FAILURE

    def check(self, op, out, state) -> str:
        code, stdout, stderr = out
        files = {}
        if op[0] == "export-svg":
            for p in sorted(self.svg_dir.glob("*.svg")):
                files[p.name] = p.read_text()
                p.unlink()
        _require(code == 0, f"exit {code}: {stderr.strip()[:120]}")
        if op[0] == "export-svg":
            _require(files and all(t.startswith("<svg") for t in files.values()), "svg written")
        else:
            json.loads(stdout)
        return inputs.canonical({"code": code, "stdout": stdout, "files": files})

    def op_label(self, op) -> str:
        return f"{op[0]}:{Path(op[2]).stem}" if op[1] == "--input" else op[0]

    def finish(self) -> list:
        out = []
        for _ in range(VERIFY_RUNS):
            t0 = time.perf_counter()
            code, stdout, stderr = self.call(["verify"])
            dt = time.perf_counter() - t0
            last = stdout.strip().splitlines()[-1] if stdout.strip() else stderr.strip()
            out.append(("verify", dt, code == 0, last))
        return out


WORKLOADS = {w.name: w for w in (CorpusBuild, CrossingSweep, GroupoidPaths, CliOneshot)}
