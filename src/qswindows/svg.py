"""Deterministic SVG diagrams for rank-1 and rank-2 weight lattices.

Three figure styles: a window diagram (shifted window polytope, its lattice
characters, wall points on the invariant line), a wall-face diagram (the
half-zonotope at the wall point with the outgoing faces and their daggers
highlighted), and a crossing diagram (two shifted windows and the arrows of
the wall-crossing bijection).  Rank-1 representations render as number
lines.  Everything above rank 2 is rejected.
"""
from __future__ import annotations

import math
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


def _placement(proj, points):
    """Project, then map to pixels: the place function and the canvas size.

    A rank-one number line has an empty y-extent, so its points sit at
    y = PAD, half the canvas height.
    """
    xs, ys = zip(*map(proj, points))
    x0, y0 = min(xs), min(ys)
    width = (max(xs) - x0) * SCALE + 2 * PAD
    height = (max(ys) - y0) * SCALE + 2 * PAD

    def place(v):
        x, y = proj(v)
        return (PAD + (x - x0) * SCALE, height - PAD - (y - y0) * SCALE)

    return place, width, height


def _outline(canvas, place, poly, color, cls, width):
    """A segment in rank one, a polygon in boundary order in rank two."""
    if poly.dim == 1:
        canvas.line(place(poly.vertices[0]), place(poly.vertices[-1]), color,
                    width=width, cls=cls)
    else:
        canvas.polygon([place(v) for v in _cyclic(poly.vertices)], color, cls=cls)


def _wall_points(ctx: Context, box: int):
    arr = ctx.arrangement
    pts = []
    if arr.dim != 1:
        return pts
    for wall in arr.walls_in_box(box):
        x = Fraction(wall.offset) / arr.families[wall.family_index].normal[0]
        pts += [arr.to_ambient((x,)), arr.to_ambient((-x,))]
    return sorted(set(map(tuple, pts)))


def window_figure(rep: QSRep, ctx: Context, delta, box: int = 3) -> str:
    proj = _project(rep.rank)
    win = ctx.window(delta)
    shifted = rep.nabla.translate(linalg.vec(delta))
    walls = _wall_points(ctx, box)
    place, w, h = _placement(proj, [*shifted.vertices, *win.chars, *walls])
    canvas = _Canvas(w, h)
    if rep.rank == 1:
        canvas.line((0, h / 2), (w, h / 2), "#999", cls="axis")
    _outline(canvas, place, shifted, "black", "window", 3)
    for c in win.chars:
        canvas.point(place(c), "black", cls="char")
    for wp in walls:
        canvas.point(place(wp), "red", r=3, cls="wall")
    if rep.rank == 2:
        canvas.point(place(delta), "#007700", r=3, cls="delta")
    canvas.text((10, 16), f"window at {[str(Fraction(x)) for x in delta]}")
    return canvas.render()


def crossing_figure(rep: QSRep, ctx: Context, delta, delta_prime) -> str:
    proj = _project(rep.rank)
    crossing = windows.wall_crossing(rep, delta, delta_prime, ctx)
    mapping = windows.mu_map(rep, crossing)
    near = rep.nabla.translate(crossing.delta)
    far = rep.nabla.translate(crossing.delta_prime)
    place, w, h = _placement(proj, [*near.vertices, *far.vertices])
    canvas = _Canvas(w, h)
    for poly, color in ((near, "#cc0000"), (far, "#0000cc")):
        _outline(canvas, place, poly, color, "window", 3)
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
    place, w, h = _placement(proj, half.vertices)
    canvas = _Canvas(w, h)
    _outline(canvas, place, half, "black", "polytope", 2)
    for fd in crossing.faces.values():
        for idx in fd.face.vertex_indices:
            canvas.point(place(half.vertices[idx]), "#cc0000", r=5, cls="face")
        for idx in windows.dagger(rep, fd, ctx).face.vertex_indices:
            canvas.point(place(half.vertices[idx]), "#0000cc", r=5, cls="dagger")
    canvas.text((10, 16), "wall faces and daggers")
    return canvas.render()


def _cyclic(vertices):
    """Vertices of a 2-d polytope in boundary order (angle sort)."""
    cx = sum(float(v[0]) for v in vertices) / len(vertices)
    cy = sum(float(v[1]) for v in vertices) / len(vertices)
    return sorted(vertices, key=lambda v: math.atan2(float(v[1]) - cy, float(v[0]) - cx))
