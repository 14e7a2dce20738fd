"""Per-layer metrics of a traced run, by the names BENCHMARK.json lists.

Plain names ``<module>.<function>.{calls,total_s,self_s}`` come straight
from the spans.  The others:

* ``layer.<module>.self_s``: self time of every span of one module.
* ``linalg.<fn>.in.<span>.{calls,self_s}``: linalg spans grouped by the
  nearest enclosing span outside linalg.
* ``geometry.vertices_per_solve``: vertices returned by from_halfspaces
  per ``linalg.solve`` call beneath it (the useful-work ratio of vertex
  enumeration).
* ``windows.window_cache_hit_ratio``: 1 - lattice scans under
  ``Context.window`` / ``Context.window`` calls.
* ``windows.crossings_per_chamber_pair``: ``wall_crossing`` calls per
  distinct (source, target) chamber sign-vector pair, worked out from each
  call's arguments between ops.
* ``cli.known_failure_frac``: share of calls that hit a known defect.
* ``trace.overhead_frac``: traced / untraced seconds - 1 over the same ops,
  both scaled to nominal machine speed.
* ``trace.spans``: spans recorded.
"""
from __future__ import annotations

import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def names() -> list[str]:
    return [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]


def units() -> dict:
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}


def compute(tracer, records, overhead, slowdown) -> dict:
    """Every per-layer metric; seconds are divided by the run's slowdown."""
    agg = tracer.aggregate()
    unit = units()
    splits: dict = {}
    out = {}
    for name in names():
        if name.startswith("layer."):
            module = name.split(".")[1]
            value = sum(row["self_s"] for key, row in agg.items()
                        if key.startswith(module + "."))
        elif ".in." in name:
            fn, rest = name.split(".in.", 1)
            parent, field = rest.rsplit(".", 1)
            if fn not in splits:
                splits[fn] = tracer.by_outer_parent(fn)
            value = splits[fn].get(parent, {"calls": 0, "self_s": 0.0})[field]
        elif name == "geometry.vertices_per_solve":
            solves = tracer.count_under("linalg.solve", "geometry.from_halfspaces")
            value = tracer.vertices_built / solves if solves else 0.0
        elif name == "windows.window_cache_hit_ratio":
            windows = agg["windows.Context.window"]["calls"]
            scans = tracer.count_under("geometry.Polytope.lattice_points",
                                       "windows.Context.window")
            value = 1 - scans / windows if windows else 0.0
        elif name == "windows.crossings_per_chamber_pair":
            distinct = len(tracer.chamber_pairs)
            value = tracer.crossings / distinct if distinct else 0.0
        elif name == "cli.known_failure_frac":
            value = sum(1 for r in records if r.probe and not r.ok) / len(records)
        elif name == "trace.overhead_frac":
            value = overhead
        elif name == "trace.spans":
            value = tracer.span_count()
        else:
            fn, field = name.rsplit(".", 1)
            value = agg[fn][field]
        if unit[name] == "s":
            value /= slowdown
        out[name] = {"value": value, "unit": unit[name]}
    return out
