"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions and methods of every
``qswindows`` module and rebinds every name that refers to them: modules
that import a function by name (``groupoid`` and ``mutation`` import
``wall_crossing``, ``windows`` imports ``build_arrangement``) and module
level dicts such as ``cli.HANDLERS``.  Per-element helpers are left
unwrapped; their cost shows as the caller's self time.

Each span records its name, start, end, parent span and op id in flat
arrays that stay in memory until the run ends.  Self time is a span's
duration minus the time its direct children cover.  A span nested in a
span of the same name counts in ``calls`` but not again in ``total_s``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

MODULES = ("linalg", "geometry", "rep", "root_data", "arrangement", "windows",
           "complexes", "mutation", "groupoid", "cy_ci", "svg", "cli", "verify", "catalog")

# per-element helpers: called hundreds of thousands of times per run
UNWRAPPED = {
    "linalg": {"vec", "add", "sub", "neg", "scale", "dot", "is_zero", "mat_vec", "mat_mul",
               "identity_matrix", "transpose", "vec_gcd", "primitive", "sign_normalized"},
    "geometry": {"HalfSpace.value", "HalfSpace.contains", "HalfSpace.tight",
                 "HalfSpace.translate", "Polytope.contains", "Polytope.in_interior",
                 "floor_frac", "ceil_frac"},
    "arrangement": {"WallFamily.value", "WallFamily.nearest_offsets",
                    "WallFamily.interval_index", "WallFamily.offsets_between",
                    "Arrangement.walls_at", "Arrangement.on_wall", "Arrangement.to_ambient"},
    "root_data": {"RootDatum.pair", "RootDatum.is_dominant", "RootDatum.is_strictly_dominant",
                  "RootDatum.length", "parse_weight"},
    "cli": {"build_parser"},
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = -1
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.s_name = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_nested = array("b")
        self.active: list[int] = []
        self.stack: list[int] = []
        self.vertices_built = 0
        self.crossings = 0
        self.chamber_pairs: set = set()
        self._pending_crossings: list = []

    def reset(self) -> None:
        """Forget recorded spans and counts; the wrappers stay installed."""
        for arr in (self.s_name, self.s_start, self.s_end, self.s_parent, self.s_op,
                    self.s_nested):
            del arr[:]
        self.stack.clear()
        self.active[:] = [0] * len(self.active)
        self.op = -1
        self.vertices_built = 0
        self.crossings = 0
        self.chamber_pairs.clear()
        self._pending_crossings.clear()

    # -- installation -------------------------------------------------------

    def install(self, package: str = "qswindows") -> int:
        """Wrap every target; returns the number of wrapped callables."""
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        replaced: dict[int, object] = {}
        for short, mod in mods.items():
            skip = UNWRAPPED.get(short, set())
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if attr not in skip:
                        replaced[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj, skip)
        # rebind names imported elsewhere and functions held in dicts
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in replaced:
                            obj[k] = replaced[id(v)]
        return len(self.names)

    def _wrap_class(self, short, cls, skip):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or f"{cls.__name__}.{attr}" in skip:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(name, obj))

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.name_id[name] = nid
        self.active.append(0)
        tracer = self
        stack, active = self.stack, self.active
        s_name, s_start, s_end = self.s_name, self.s_start, self.s_end
        s_parent, s_op, s_nested = self.s_parent, self.s_op, self.s_nested
        clock = time.perf_counter_ns
        on_return = {"geometry.from_halfspaces": self._count_vertices,
                     "windows.wall_crossing": self._record_crossing}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_op.append(tracer.op)
            s_start.append(0)
            s_end.append(0)
            s_nested.append(active[nid] > 0)
            active[nid] += 1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[nid] -= 1
                s_start[idx] = t0
                s_end[idx] = t1
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def _count_vertices(self, args, kwargs, result):
        self.vertices_built += len(result.vertices)

    def _record_crossing(self, args, kwargs, result):
        ctx = args[3] if len(args) > 3 else kwargs.get("ctx")
        if ctx is not None:
            self._pending_crossings.append((ctx.arrangement, result.delta, result.delta_prime))

    def settle(self) -> None:
        """Turn the crossings recorded during the last op into chamber pairs.

        Called between ops with tracing off, so the chamber lookups add no
        span time and no arrangement outlives its op.  Arrangements are
        keyed by their weights and wall families, so fresh Contexts for the
        same representation count as one.
        """
        for arr, delta, delta_prime in self._pending_crossings:
            src = arr.chamber_of(arr.to_coords(delta)).sign_vector
            dst = arr.chamber_of(arr.to_coords(delta_prime)).sign_vector
            self.chamber_pairs.add((arr.rep.weights, arr.families, src, dst))
        self.crossings += len(self._pending_crossings)
        self._pending_crossings.clear()

    # -- metrics ---------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.s_name)

    def _ancestors(self, idx):
        p = self.s_parent[idx]
        while p >= 0:
            yield p
            p = self.s_parent[p]

    def aggregate(self) -> dict:
        """name -> {calls, total_s, self_s}, plus per-module self time."""
        n_names = len(self.names)
        calls = [0] * n_names
        total = [0] * n_names
        self_ns = [0] * n_names
        child = [0] * len(self.s_name)
        s_name, s_parent = self.s_name, self.s_parent
        durations = [e - s for s, e in zip(self.s_start, self.s_end)]
        for idx in range(len(s_name) - 1, -1, -1):
            p = s_parent[idx]
            if p >= 0:
                child[p] += durations[idx]
        for idx, nid in enumerate(s_name):
            calls[nid] += 1
            self_ns[nid] += durations[idx] - child[idx]
            if not self.s_nested[idx]:
                total[nid] += durations[idx]
        out = {}
        for nid, name in enumerate(self.names):
            out[name] = {"calls": calls[nid], "total_s": total[nid] / 1e9,
                         "self_s": self_ns[nid] / 1e9}
        return out

    def by_outer_parent(self, name: str) -> dict:
        """For spans of ``name``: calls and self seconds grouped by the nearest
        enclosing span from another module."""
        nid = self.name_id[name]
        module = name.split(".")[0]
        s_name = self.s_name
        child = {}
        for idx in range(len(s_name)):
            p = self.s_parent[idx]
            if p >= 0 and s_name[p] == nid:
                child[p] = child.get(p, 0) + self.s_end[idx] - self.s_start[idx]
        out: dict = {}
        for idx, k in enumerate(s_name):
            if k != nid:
                continue
            parent = "top"
            for a in self._ancestors(idx):
                if not self.names[s_name[a]].startswith(module + "."):
                    parent = self.names[s_name[a]]
                    break
            row = out.setdefault(parent, {"calls": 0, "self_ns": 0})
            row["calls"] += 1
            row["self_ns"] += self.s_end[idx] - self.s_start[idx] - child.get(idx, 0)
        return {p: {"calls": r["calls"], "self_s": r["self_ns"] / 1e9} for p, r in out.items()}

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans of ``name`` with a span of ``ancestor`` somewhere above them."""
        nid, aid = self.name_id[name], self.name_id[ancestor]
        s_name = self.s_name
        return sum(1 for idx, k in enumerate(s_name)
                   if k == nid and any(s_name[a] == aid for a in self._ancestors(idx)))
