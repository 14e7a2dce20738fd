"""Deterministic SVG diagrams for rank-1 and rank-2 weight lattices.

Three figure styles: a window diagram (shifted window polytope, its lattice
characters, wall points on the invariant line), a wall-face diagram (the
half-zonotope at the wall point with the outgoing faces and their daggers
highlighted), and a crossing diagram (two shifted windows and the arrows of
the wall-crossing bijection).  Rank-1 representations render as number
lines.  Everything above rank 2 is rejected.
"""
from __future__ import annotations

from fractions import Fraction

from . import linalg, windows
from .errors import UnsupportedDimensionError
from .rep import QSRep
from .windows import Context

SCALE = 40
PAD = 60


def _f(x) -> str:
    return f"{float(x):.3f}"


class _Canvas:
    def __init__(self, width, height):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]
        self.height = height

    def point(self, xy, color, r=4, cls="pt"):
        x, y = xy
        self.parts.append(
            f'<circle class="{cls}" cx="{_f(x)}" cy="{_f(y)}" r="{r}" fill="{color}"/>')

    def line(self, a, b, color, width=1.5, cls="ln"):
        self.parts.append(
            f'<line class="{cls}" x1="{_f(a[0])}" y1="{_f(a[1])}" x2="{_f(b[0])}" '
            f'y2="{_f(b[1])}" stroke="{color}" stroke-width="{width}"/>')

    def polygon(self, pts, color, cls="poly"):
        coords = " ".join(f"{_f(x)},{_f(y)}" for x, y in pts)
        self.parts.append(
            f'<polygon class="{cls}" points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>')

    def arrow(self, a, b, color, cls="arrow"):
        self.line(a, b, color, width=1.2, cls=cls)
        dx, dy = b[0] - a[0], b[1] - a[1]
        norm = (dx * dx + dy * dy) ** 0.5 or 1.0
        ux, uy = dx / norm, dy / norm
        left = (b[0] - 8 * ux + 4 * uy, b[1] - 8 * uy - 4 * ux)
        right = (b[0] - 8 * ux - 4 * uy, b[1] - 8 * uy + 4 * ux)
        self.parts.append(
            f'<polygon class="{cls}-head" points="{_f(b[0])},{_f(b[1])} '
            f'{_f(left[0])},{_f(left[1])} {_f(right[0])},{_f(right[1])}" fill="{color}"/>')

    def text(self, xy, s, color="black"):
        self.parts.append(
            f'<text x="{_f(xy[0])}" y="{_f(xy[1])}" font-size="12" fill="{color}">{s}</text>')

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"])


def _project(rank):
    if rank == 1:
        return lambda v: (float(v[0]), 0.0)
    if rank == 2:
        return lambda v: (float(v[0]), float(v[1]))
    raise UnsupportedDimensionError(
        f"SVG export supports weight lattices of rank <= 2, got {rank}")


def _extent(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return min(xs), max(xs), min(ys), max(ys)


def _mapper(points):
    x0, x1, y0, y1 = _extent(points)
    width = (x1 - x0) * SCALE + 2 * PAD
    height = (y1 - y0) * SCALE + 2 * PAD

    def to_px(p):
        return (PAD + (p[0] - x0) * SCALE, height - PAD - (p[1] - y0) * SCALE)

    return to_px, max(width, 2 * PAD), max(height, 2 * PAD)


def _wall_points(ctx: Context, box: int):
    arr = ctx.arrangement
    pts = []
    if arr.dim != 1:
        return pts
    for wall in arr.walls_in_box(box):
        f = arr.families[wall.family_index]
        coords = (Fraction(wall.offset) / f.normal[0],)
        pts.append(arr.to_ambient(coords))
        neg = (-Fraction(wall.offset) / f.normal[0],)
        pts.append(arr.to_ambient(neg))
    return sorted(set(map(tuple, pts)))


def window_figure(rep: QSRep, ctx: Context, delta, box: int = 3) -> str:
    proj = _project(rep.rank)
    win = ctx.window(delta)
    shifted = rep.nabla.translate(linalg.vec(delta))
    walls = _wall_points(ctx, box)
    pts = [proj(v) for v in shifted.vertices] + [proj(c) for c in win.chars]
    pts += [proj(w) for w in walls] or pts
    to_px, w, h = _mapper(pts)
    canvas = _Canvas(w, h)
    if rep.rank == 1:
        y = h / 2
        canvas.line((0, y), (w, y), "#999", cls="axis")
        lo, hi = proj(shifted.vertices[0]), proj(shifted.vertices[-1])
        canvas.line((to_px(lo)[0], y), (to_px(hi)[0], y), "black", width=3, cls="window")
        for c in win.chars:
            canvas.point((to_px(proj(c))[0], y), "black", cls="char")
        for wp in walls:
            canvas.point((to_px(proj(wp))[0], y), "red", r=3, cls="wall")
    else:
        hull = _cyclic(shifted.vertices)
        canvas.polygon([to_px(proj(v)) for v in hull], "black", cls="window")
        for c in win.chars:
            canvas.point(to_px(proj(c)), "black", cls="char")
        for wp in walls:
            canvas.point(to_px(proj(wp)), "red", r=3, cls="wall")
        canvas.point(to_px(proj(delta)), "#007700", r=3, cls="delta")
    canvas.text((10, 16), f"window at {[str(Fraction(x)) for x in delta]}")
    return canvas.render()


def crossing_figure(rep: QSRep, ctx: Context, delta, delta_prime) -> str:
    proj = _project(rep.rank)
    crossing = windows.wall_crossing(rep, delta, delta_prime, ctx)
    mapping = windows.mu_map(rep, crossing)
    near = rep.nabla.translate(crossing.delta)
    far = rep.nabla.translate(crossing.delta_prime)
    pts = [proj(v) for v in near.vertices] + [proj(v) for v in far.vertices]
    to_px, w, h = _mapper(pts)
    canvas = _Canvas(w, h)
    y_mid = h / 2
    for poly, color in ((near, "#cc0000"), (far, "#0000cc")):
        if rep.rank == 1:
            lo, hi = poly.vertices[0], poly.vertices[-1]
            canvas.line((to_px(proj(lo))[0], y_mid), (to_px(proj(hi))[0], y_mid),
                        color, width=3, cls="window")
        else:
            canvas.polygon([to_px(proj(v)) for v in _cyclic(poly.vertices)], color, cls="window")
    def place(c):
        p = to_px(proj(c))
        return (p[0], y_mid) if rep.rank == 1 else p
    for c in crossing.common:
        canvas.point(place(c), "#555555", cls="common")
    for src, dst in sorted(mapping.items()):
        canvas.point(place(src), "#cc0000", cls="src")
        canvas.point(place(dst), "#0000cc", cls="dst")
        canvas.arrow(place(src), place(dst), "black", cls="mu")
    canvas.text((10, 16), "wall crossing")
    return canvas.render()


def faces_figure(rep: QSRep, ctx: Context, delta, delta_prime) -> str:
    proj = _project(rep.rank)
    crossing = windows.wall_crossing(rep, delta, delta_prime, ctx)
    half = ctx.half_sigma.translate(crossing.delta0)
    pts = [proj(v) for v in half.vertices]
    to_px, w, h = _mapper(pts)
    canvas = _Canvas(w, h)
    y_mid = h / 2
    def place(v):
        p = to_px(proj(v))
        return (p[0], y_mid) if rep.rank == 1 else p
    if rep.rank == 1:
        lo, hi = half.vertices[0], half.vertices[-1]
        canvas.line(place(lo), place(hi), "black", width=2, cls="polytope")
    else:
        canvas.polygon([to_px(proj(v)) for v in _cyclic(half.vertices)], "black", cls="polytope")
    from .windows import dagger
    for fd in crossing.faces.values():
        for idx in fd.face.vertex_indices:
            canvas.point(place(half.vertices[idx]), "#cc0000", r=5, cls="face")
        dag = dagger(rep, fd, ctx)
        for idx in dag.face.vertex_indices:
            canvas.point(place(half.vertices[idx]), "#0000cc", r=5, cls="dagger")
    canvas.text((10, 16), "wall faces and daggers")
    return canvas.render()


def _cyclic(vertices):
    """Vertices of a 2-d polytope in boundary order (angle sort)."""
    import math
    cx = sum(float(v[0]) for v in vertices) / len(vertices)
    cy = sum(float(v[1]) for v in vertices) / len(vertices)
    return sorted(vertices, key=lambda v: math.atan2(float(v[1]) - cy, float(v[0]) - cx))
