"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest -q benchmark/test_benchmark.py

They pin the generator to the acceptance corpus, check that the traced
run sees every per-layer metric on the workload that should move it, and
that the benchmark refuses to run without the program.
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import per_layer  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

qs = worker.load_program()


def test_generator_reproduces_acceptance_corpus():
    reps = qs.catalog.random_corpus(inputs.ACCEPTANCE_SEED, inputs.ACCEPTANCE_COUNTS)
    corpus = inputs.plain_corpus(inputs.ACCEPTANCE_SEED, inputs.ACCEPTANCE_COUNTS)
    assert [r.weights for r in reps] == corpus


def test_stratified_corpus_is_the_acceptance_corpus_at_its_seed():
    corpus = inputs.plain_corpus(inputs.ACCEPTANCE_SEED)
    assert Counter(map(inputs.stratum, corpus)) == inputs.ACCEPTANCE_STRATA
    assert inputs.stratified_corpus(inputs.ACCEPTANCE_SEED) == corpus
    other = inputs.stratified_corpus(inputs.ACCEPTANCE_SEED + 1)
    assert other != corpus
    assert Counter(map(inputs.stratum, other)) == inputs.ACCEPTANCE_STRATA


def test_generator_filters_agree_with_the_library():
    rng = random.Random(5)
    verdicts = Counter()
    for _ in range(300):
        rank = rng.randint(1, 3)
        weights = []
        for _ in range(rng.randint(1, 3)):
            v = tuple(rng.randint(-2, 2) for _ in range(rank))
            if any(v):
                c = rng.randint(1, 2)
                weights += [tuple(c * x for x in v), tuple(-c * x for x in v)]
        if not weights or inputs._rank(weights) < rank:
            continue
        assert inputs.is_quasi_symmetric(weights) == qs.rep.check_quasi_symmetric(weights)
        mine = inputs.is_generic_torus(weights, rank)
        lib = qs.rep.check_generic(qs.root_data.RootDatum.torus(rank), weights)
        assert mine == (lib is qs.rep.Ternary.YES)
        verdicts[mine] += 1
    assert verdicts[True] and verdicts[False]


# Row of the prediction table -> workload on which its metrics must be nonzero.
EXPECTED = {
    "corpus-build": [
        "linalg.rref.calls", "linalg.rref.self_s", "linalg.solve.calls",
        "linalg.kernel_basis.calls", "geometry.from_halfspaces.calls",
        "geometry.from_halfspaces.total_s", "geometry.from_halfspaces.self_s",
        "geometry.zonotope.total_s", "geometry.vertices_per_solve",
        "rep.QSRep.build.total_s", "rep.build_nabla.calls", "rep.build_nabla.total_s",
        "rep.build_nabla.self_s", "rep.slab_candidates.total_s", "rep.check_generic.total_s",
        "layer.linalg.self_s", "layer.geometry.self_s", "layer.rep.self_s",
        "linalg.rref.in.geometry.from_halfspaces.calls",
        "linalg.rref.in.geometry.from_halfspaces.self_s",
        "linalg.rref.in.geometry.zonotope.calls", "linalg.rref.in.geometry.zonotope.self_s",
        "linalg.rref.in.rep.slab_candidates.calls", "linalg.rref.in.rep.slab_candidates.self_s",
    ],
    "crossing-sweep": [
        "geometry.Polytope.face_at.calls", "geometry.Polytope.face_at.self_s",
        "geometry.Polytope.tight_indices.calls", "geometry.Polytope.lattice_points.calls",
        "geometry.Polytope.lattice_points.total_s",
        "windows.Context.window.calls", "windows.Context.window.total_s",
        "windows.wall_crossing.calls", "windows.wall_crossing.total_s",
        "windows.wall_crossing.self_s", "windows.crossings_per_chamber_pair",
        "windows.face_of.calls", "windows.face_of.total_s", "windows.mu_of_crossing.total_s",
        "windows.dagger.calls", "complexes.complex_terms.calls",
        "complexes.complex_terms.total_s", "complexes.summand_sets.total_s",
        "mutation.toric_wall.calls", "mutation.toric_wall.total_s",
        "mutation.ToricWall.mutate.calls", "mutation.ToricWall.mutate.total_s",
        "catalog.adjacent_pairs.total_s", "layer.windows.self_s", "layer.complexes.self_s",
        "layer.mutation.self_s", "layer.catalog.self_s",
        "arrangement.Arrangement.separating_walls.calls",
        "linalg.rref.in.geometry.Polytope.face_at.calls",
        "linalg.rref.in.geometry.Polytope.face_at.self_s",
    ],
    "groupoid-paths": [
        "root_data.RootDatum.dominant_representative.calls",
        "root_data.RootDatum.dominant_representative.total_s", "root_data.RootDatum.apply.calls",
        "arrangement.Arrangement.separating_walls.calls",
        "arrangement.Arrangement.separating_walls.total_s",
        "arrangement.Arrangement.chamber_of.calls", "arrangement.Arrangement.chamber_of.total_s",
        "arrangement.Arrangement.to_coords.calls", "arrangement.Arrangement.to_coords.total_s",
        "windows.window_cache_hit_ratio", "windows.crossings_per_chamber_pair",
        "groupoid.is_minimal.total_s", "groupoid.reduce_rank1.total_s",
        "groupoid.transcript_window_map.calls", "groupoid.transcript_window_map.total_s",
        "groupoid.transcript_window_map.self_s", "groupoid.mutation_transcript.total_s",
        "groupoid.split_into_hops.calls", "layer.arrangement.self_s", "layer.root_data.self_s",
        "layer.groupoid.self_s", "linalg.rref.in.arrangement.Arrangement.to_coords.calls",
        "linalg.rref.in.arrangement.Arrangement.to_coords.self_s",
    ],
    "cli-oneshot": [
        "cy_ci.build.total_s", "cy_ci.spherical_twist_word.total_s",
        "svg.window_figure.total_s", "svg.crossing_figure.total_s", "svg.faces_figure.total_s",
        "cli.main.calls", "cli.main.self_s", "cli.known_failure_frac",
        "verify.check_rep_invariants.total_s", "verify.check_wall_crossing.total_s",
        "verify.check_complexes.total_s", "verify.check_mutation.total_s",
        "verify.check_groupoid.total_s", "verify.check_cy_models.total_s",
        "arrangement.build_arrangement.total_s", "layer.cy_ci.self_s", "layer.svg.self_s",
        "layer.cli.self_s", "layer.verify.self_s",
    ],
}
# ops per workload in the short traced runs below; corpus-build's first
# 21 interleaved ops include three rank-3 builds
SHORT = {"corpus-build": 21, "crossing-sweep": 40, "groupoid-paths": 30, "cli-oneshot": 24}


@pytest.fixture(scope="module")
def tracer():
    t = Tracer()
    t.install()
    return t


def test_every_per_layer_metric_belongs_to_a_row():
    listed = set(per_layer.names())
    expected = {name for names in EXPECTED.values() for name in names}
    assert expected <= listed
    assert {n for n in listed - expected
            if not n.startswith(("layer.", "trace.", "linalg.rref.in."))} == set()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_traced_run_covers_its_rows_and_keeps_the_digest(name, tracer, tmp_path):
    tracer.reset()
    wl = WORKLOADS[name](qs, 0, tmp_path)
    tracer.enabled = True
    wl.setup()
    tracer.enabled = False
    wl.min_ops = SHORT[name]
    wl.round_size = 1 if name != "cli-oneshot" else wl.round_size
    result = worker.traced(wl, 0, tracer)
    assert result["correct"], result
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(per_layer.names())
    missing = [m for m in EXPECTED[name] if not metrics[m] > 0]
    assert not missing, f"zero on {name}: {missing}"


class _Tiny(Workload):
    """Three ops; op ``raises`` raises inside the program call."""

    name = "tiny"
    min_ops = 3
    raises = None

    def setup(self):
        self.schedule = [0, 1, 2]

    def run(self, op, state):
        if op == self.raises:
            raise qs.errors.InternalInconsistencyError("boom")
        return op

    def check(self, op, out, state) -> str:
        return str(out)


def _untraced(wl):
    wl.setup()
    result = worker.untraced(wl, types.SimpleNamespace(seconds=0, seed=0), 1.0, 1.0)
    return result["correct"], result["attempted"], result["failed"]


def test_an_op_that_raises_makes_the_run_incorrect(tmp_path):
    wl = _Tiny(qs, 0, tmp_path)
    wl.raises = 1
    assert _untraced(wl) == (False, 3, 1)


def test_a_digest_mismatch_fails_every_op_it_covers(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "HERE", tmp_path)
    (tmp_path / "digests.json").write_text(json.dumps({"tiny": {"0": [3, "0" * 16]}}))
    assert _untraced(_Tiny(qs, 0, tmp_path)) == (False, 3, 3)
    (tmp_path / "digests.json").write_text(json.dumps({}))
    assert _untraced(_Tiny(qs, 0, tmp_path)) == (True, 3, 0)


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    command = json.loads((HERE.parent / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run([sys.executable, *command[1:], "--workload", "corpus-build",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
