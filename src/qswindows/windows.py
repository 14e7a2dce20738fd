"""Dominant-weight windows, face data on the shifted half-zonotope, the
wall-crossing bijection, and the per-face window partition.

Conventions fixed here:
  * delta parameters are ambient rational vectors lying in the invariant
    subspace, never on a wall;
  * for an adjacent pair the wall point delta_0 is where the connecting
    segment meets the wall (the exact midpoint for symmetric pairs);
  * faces are keyed by their tight facet-index sets on delta_0 + half the
    zonotope, which makes partitions and atom identities deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .arrangement import Arrangement, Wall, build_arrangement
from .errors import InputError, InternalInconsistencyError
from .geometry import Face, Polytope
from .linalg import IntVec, Vec
from .rep import QSRep
from .root_data import SINGULAR, Weight


@dataclass(frozen=True)
class Window:
    delta: Vec
    chars: tuple[Weight, ...]

    def __contains__(self, chi) -> bool:
        return tuple(chi) in set(self.chars)

    def to_json(self) -> dict:
        return {"delta": [str(Fraction(x)) for x in self.delta],
                "chars": [list(c) for c in self.chars]}


@dataclass(frozen=True)
class FaceData:
    """A face of delta_0 + (1/2)Sigma with its weight-index partition."""

    face: Face
    delta0: Vec
    inward_normals: tuple[IntVec, ...]
    plus_indices: tuple[int, ...]
    minus_indices: tuple[int, ...]
    zero_indices: tuple[int, ...]
    beta_plus: Weight
    beta_minus: Weight
    dominant: bool

    @property
    def key(self) -> tuple[int, ...]:
        return self.face.key

    @property
    def d_plus(self) -> int:
        return len(self.plus_indices)

    @property
    def d_minus(self) -> int:
        return len(self.minus_indices)

    @property
    def codim(self) -> int:
        return self.face.codim

    def to_json(self) -> dict:
        return {
            "key": list(self.key),
            "codim": self.codim,
            "inward_normals": [list(n) for n in self.inward_normals],
            "plus_indices": list(self.plus_indices),
            "minus_indices": list(self.minus_indices),
            "zero_indices": list(self.zero_indices),
            "beta_plus": list(self.beta_plus),
            "d_plus": self.d_plus,
            "d_minus": self.d_minus,
            "dominant": self.dominant,
        }


class Context:
    """Caches the arrangement and shifted polytopes for one representation."""

    def __init__(self, rep: QSRep, arr: Arrangement | None = None):
        self.rep = rep
        self.arrangement = arr if arr is not None else build_arrangement(rep)
        self._dominant = rep.dominant_halfspaces()
        self._half_sigma_cache: dict = {}
        self._window_cache: dict = {}

    def half_sigma_at(self, delta0) -> Polytope:
        key = tuple(Fraction(x) for x in delta0)
        if key not in self._half_sigma_cache:
            self._half_sigma_cache[key] = self.rep.sigma.scale(Fraction(1, 2)).translate(key)
        return self._half_sigma_cache[key]

    def check_off_wall(self, delta) -> Vec:
        coords = self.arrangement.to_coords(delta)
        self.arrangement.chamber_of(coords)
        return linalg.vec(delta)

    def window(self, delta) -> Window:
        delta = self.check_off_wall(delta)
        key = tuple(delta)
        if key not in self._window_cache:
            shifted = self.rep.nabla.translate(delta)
            chars = tuple(shifted.lattice_points(extra=self._dominant))
            boundary = [c for c in chars if shifted.tight_indices(c)]
            if boundary:
                raise InternalInconsistencyError(
                    f"window characters {boundary} on the boundary at off-wall {delta}")
            self._window_cache[key] = Window(delta=key, chars=chars)
        return self._window_cache[key]


def face_data_from_face(rep: QSRep, poly: Polytope, face: Face, delta0) -> FaceData:
    normals = tuple(sorted(poly.halfspaces[i].normal for i in face.facet_indices))
    plus, minus, zero = [], [], []
    for i, b in enumerate(rep.weights):
        values = [linalg.dot(b, n) for n in normals]
        if any(v > 0 for v in values):
            plus.append(i)
        if any(v < 0 for v in values):
            minus.append(i)
        if all(v == 0 for v in values):
            zero.append(i)
    if set(plus) & set(minus):
        raise InternalInconsistencyError("a weight pairs both ways with a face's normals")
    beta_plus = _index_sum(rep, plus)
    beta_minus = _index_sum(rep, minus)
    dominant = all(
        rep.root_datum.is_dominant(poly.vertices[i]) for i in face.vertex_indices
    )
    return FaceData(
        face=face,
        delta0=linalg.vec(delta0),
        inward_normals=normals,
        plus_indices=tuple(plus),
        minus_indices=tuple(minus),
        zero_indices=tuple(zero),
        beta_plus=beta_plus,
        beta_minus=beta_minus,
        dominant=dominant,
    )


def _index_sum(rep: QSRep, indices) -> Weight:
    if not indices:
        return (0,) * rep.rank
    return tuple(sum(rep.weights[i][j] for i in indices) for j in range(rep.rank))


def face_of(rep: QSRep, chi, delta0, ctx: Context | None = None) -> FaceData:
    """The maximal-codimension face of delta_0 + (1/2)Sigma through rho+chi."""
    ctx = ctx or Context(rep)
    poly = ctx.half_sigma_at(delta0)
    point = linalg.add(linalg.vec(chi), rep.root_datum.rho)
    face = poly.face_at(point)
    return face_data_from_face(rep, poly, face, delta0)


def dagger(rep: QSRep, fd: FaceData, ctx: Context | None = None) -> FaceData:
    """w0 applied to the central-symmetry dual face; dominant again."""
    if not fd.dominant:
        raise InputError("dagger is defined only for dominant faces")
    ctx = ctx or Context(rep)
    poly = ctx.half_sigma_at(fd.delta0)
    dual_sample = poly.dual_point(fd.face.sample)
    image = rep.root_datum.apply(rep.root_datum.w0, dual_sample)
    face = poly.face_at(image)
    out = face_data_from_face(rep, poly, face, fd.delta0)
    if out.codim != fd.codim or not out.dominant:
        raise InternalInconsistencyError("dagger face must stay dominant with equal codim")
    return out


@dataclass(frozen=True)
class WallCrossing:
    """Everything attached to one ordered adjacent pair."""

    delta: Vec
    delta_prime: Vec
    delta0: Vec
    wall: Wall
    window: Window
    window_prime: Window
    common: tuple[Weight, ...]
    faces: dict
    chars_by_face: dict
    outgoing: tuple[Weight, ...]

    @property
    def face_keys(self) -> list:
        return sorted(self.faces)

    def face_of_char(self, chi) -> FaceData:
        for key, chars in self.chars_by_face.items():
            if tuple(chi) in chars:
                return self.faces[key]
        raise InputError(f"{chi} does not leave the window across this wall")


def wall_crossing(rep: QSRep, delta, delta_prime, ctx: Context | None = None) -> WallCrossing:
    ctx = ctx or Context(rep)
    arr = ctx.arrangement
    delta = ctx.check_off_wall(delta)
    delta_prime = ctx.check_off_wall(delta_prime)
    wall = arr.require_adjacent(arr.to_coords(delta), arr.to_coords(delta_prime))
    # the wall point is where the segment meets the wall; for a symmetric
    # pair this is the exact midpoint
    family = arr.families[wall.family_index]
    lo = family.value(arr.to_coords(delta))
    hi = family.value(arr.to_coords(delta_prime))
    t = (wall.offset - lo) / (hi - lo)
    delta0 = linalg.add(delta, linalg.scale(t, linalg.sub(delta_prime, delta)))
    if not arr.on_wall(arr.to_coords(delta0)):
        raise InternalInconsistencyError("computed wall point is not on the wall")
    win = ctx.window(delta)
    win_p = ctx.window(delta_prime)
    common = tuple(sorted(set(win.chars) & set(win_p.chars)))
    outgoing = tuple(sorted(set(win.chars) - set(win_p.chars)))
    nabla0 = rep.nabla.translate(delta0)
    faces: dict = {}
    chars_by_face: dict = {}
    for chi in outgoing:
        if not nabla0.on_boundary(chi):
            raise InternalInconsistencyError(
                "an outgoing character must sit on the wall-point window boundary")
        fd = face_of(rep, chi, delta0, ctx)
        faces.setdefault(fd.key, fd)
        chars_by_face.setdefault(fd.key, []).append(chi)
    for key in chars_by_face:
        chars_by_face[key] = tuple(sorted(chars_by_face[key]))
    crossing = WallCrossing(
        delta=delta, delta_prime=delta_prime, delta0=delta0, wall=wall,
        window=win, window_prime=win_p, common=common, faces=faces,
        chars_by_face=chars_by_face, outgoing=outgoing,
    )
    _check_crossing(rep, arr, crossing)
    return crossing


def _check_crossing(rep: QSRep, arr: Arrangement, crossing: WallCrossing) -> None:
    # wall faces carry a dominance flag but are not required to be dominant
    # here: faces of large nonabelian representations can cross Weyl walls
    # even though the crossing bijection below still lands correctly (the
    # per-character checks in mu_of_crossing enforce that).
    direction = linalg.sub(crossing.delta_prime, crossing.delta)
    for fd in crossing.faces.values():
        for lam in fd.inward_normals:
            if linalg.dot(direction, lam) <= 0:
                raise InternalInconsistencyError(
                    "crossing direction must pair positively with inward normals")


def mu(rep: QSRep, delta, delta_prime, chi, ctx: Context | None = None) -> Weight:
    """The wall-crossing image (chi + beta_F^+)^+ of an outgoing character."""
    ctx = ctx or Context(rep)
    crossing = wall_crossing(rep, delta, delta_prime, ctx)
    return mu_of_crossing(rep, crossing, chi)


def mu_of_crossing(rep: QSRep, crossing: WallCrossing, chi) -> Weight:
    chi = tuple(int(x) for x in chi)
    if chi not in set(crossing.outgoing):
        raise InputError(f"{chi} is not in the outgoing part of the window")
    fd = crossing.face_of_char(chi)
    shifted = linalg.add(chi, fd.beta_plus)
    rep_result = rep.root_datum.dominant_representative(shifted)
    if rep_result is SINGULAR:
        raise InternalInconsistencyError("wall-crossing image is never singular")
    image = rep_result.weight
    if image not in set(crossing.window_prime.chars) or image in set(crossing.window.chars):
        raise InternalInconsistencyError("wall-crossing image must land in the far window only")
    return image


def mu_map(rep: QSRep, crossing: WallCrossing) -> dict:
    return {chi: mu_of_crossing(rep, crossing, chi) for chi in crossing.outgoing}


def partition(rep: QSRep, delta, delta_prime, ctx: Context | None = None):
    """(common characters, per-face split of the outgoing characters)."""
    crossing = wall_crossing(rep, delta, delta_prime, ctx or Context(rep))
    return crossing.common, dict(crossing.chars_by_face)
