"""Dominant-weight windows, face data on the shifted half-zonotope, and the
wall-crossing bijection.

Conventions fixed here:
  * delta parameters are ambient rational vectors lying in the invariant
    subspace, never on a wall;
  * for an adjacent pair the wall point delta_0 is where the connecting
    segment meets the wall (the exact midpoint for symmetric pairs);
  * faces are keyed by their tight facet-index sets on delta_0 + half the
    zonotope, which makes partitions and atom identities deterministic.

Chamber-level and per-call data.  A window depends only on the chamber of
delta, and a crossing's characters, faces and mu map depend only on the
ordered pair of chambers, so ``Context`` stores window characters once per
chamber sign vector and crossing data once per ordered pair of sign vectors
(exact chambers, not classes mod the lattice).  The first crossing of a
pair runs every construction and check at its own wall point, the
reference delta_0.  Every later crossing of the pair still locates both
endpoints, checks that they are off-wall and adjacent, that its wall point
lies on the wall and that its direction pairs positively with the inward
normals; it then reuses the pair's data with its own delta, delta', delta_0
and windows: each face takes the new delta_0 as its delta0, and its sample
moves by delta_0 - reference delta_0.  Faces are shared the same way across
pairs: a face is kept once per facet key, and every miss checks that the
kept face, moved to its wall point, equals the face it just computed.

Why that is exact: both wall points lie on the wall the two chambers share
and on no other wall, so they are joined inside the common facet of the two
chambers, and every tight set (of a character rho + chi, or of a vertex, on
delta_0 + (1/2)Sigma) is constant along that facet.  So the facet keys are
too, and a facet key fixes the face of (1/2)Sigma: its vertex indices,
affine basis, normals, beta^+- and index sets.  Translating (1/2)Sigma moves
each vertex, and so each face sample, by the difference of the wall points.
That difference is W-invariant, so it pairs to zero with every coroot and
leaves dominance alone.  The mu map reads only beta_F^+ and the two windows,
which depend only on the chambers.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import linalg
from .arrangement import Arrangement, Chamber, Wall, build_arrangement
from .errors import InputError, InternalInconsistencyError, _require_length
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


@dataclass(frozen=True, slots=True)
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
    """The arrangement of one representation, with windows stored per chamber
    and crossing data per ordered chamber pair (see the module docstring)."""

    def __init__(self, rep: QSRep, arr: Arrangement | None = None):
        self.rep = rep
        self.arrangement = arr if arr is not None else build_arrangement(rep)
        self._dominant = rep.dominant_halfspaces()
        self._half_sigma = rep.sigma.scale(Fraction(1, 2))
        # the last translate: a crossing's faces, daggers and checks all ask
        # for the same wall point in a row
        self._half_sigma_at: tuple = ((), None)
        self._windows: dict = {}    # chamber sign vector -> window characters
        self._crossings: dict = {}  # (sign vector, sign vector') -> _PairCrossing
        self._faces: dict = {}      # facet key -> the first FaceData seen with it

    def half_sigma_at(self, delta0) -> Polytope:
        delta0 = linalg.vec(delta0)
        if self._half_sigma_at[0] != delta0:
            _require_length(delta0, self.rep.rank)
            self._half_sigma_at = (delta0, self._half_sigma.translate(delta0))
        return self._half_sigma_at[1]

    def window(self, delta, chamber: Chamber | None = None) -> Window:
        """The window at an off-wall delta.  A caller that has already
        located delta passes its chamber."""
        delta = linalg.vec(delta)
        if chamber is None:
            chamber = self.arrangement.chamber_of(self.arrangement.to_coords(delta))
        chars = self._windows.get(chamber.sign_vector)
        if chars is None:
            shifted = self.rep.nabla.translate(delta)
            chars = tuple(shifted.lattice_points(extra=self._dominant))
            boundary = [c for c in chars if shifted.tight_indices(c)]
            if boundary:
                raise InternalInconsistencyError(
                    f"window characters {boundary} on the boundary at off-wall {delta}")
            self._windows[chamber.sign_vector] = chars
        return Window(delta=delta, chars=chars)


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
    pair: _PairCrossing = field(compare=False, repr=False)

    @property
    def face_keys(self) -> list:
        return sorted(self.faces)

    def face_of_char(self, chi) -> FaceData:
        for key, chars in self.chars_by_face.items():
            if tuple(chi) in chars:
                return self.faces[key]
        raise InputError(f"{chi} does not leave the window across this wall")


class _PairCrossing:
    """The chamber-pair part of a crossing: the outgoing characters, the wall
    faces at the first crossing's wall point with their characters, and the
    mu images once mu_map has asked for them."""

    __slots__ = ("outgoing", "faces", "face_chars", "mu_images")

    def __init__(self, rep: QSRep, ctx: Context, win: Window, win_p: Window, delta0: Vec):
        self.outgoing = tuple(sorted(set(win.chars) - set(win_p.chars)))
        nabla0 = rep.nabla.translate(delta0)
        faces: dict = {}
        chars_by_face: dict = {}
        for chi in self.outgoing:
            if not nabla0.on_boundary(chi):
                raise InternalInconsistencyError(
                    "an outgoing character must sit on the wall-point window boundary")
            fd = face_of(rep, chi, delta0, ctx)
            if fd.key not in faces:
                shared = _moved(ctx._faces.setdefault(fd.key, fd), delta0)
                if shared != fd:
                    raise InternalInconsistencyError(
                        f"wall face {list(fd.key)} changed with the wall point")
                faces[fd.key] = shared
            chars_by_face.setdefault(fd.key, []).append(chi)
        self.faces = tuple(faces.values())
        self.face_chars = tuple(tuple(sorted(chars)) for chars in chars_by_face.values())
        self.mu_images: tuple | None = None

    def at(self, delta, delta_prime, delta0, wall, win, win_p) -> WallCrossing:
        """The crossing of this chamber pair along the segment delta -> delta'."""
        faces = tuple(_moved(fd, delta0) for fd in self.faces)
        outgoing = set(self.outgoing)
        return WallCrossing(
            delta=delta, delta_prime=delta_prime, delta0=delta0, wall=wall,
            window=win, window_prime=win_p,
            common=tuple(c for c in win.chars if c not in outgoing),
            faces={fd.key: fd for fd in faces},
            chars_by_face={fd.key: chars for fd, chars in zip(faces, self.face_chars)},
            outgoing=self.outgoing, pair=self,
        )


def _moved(fd: FaceData, delta0: Vec) -> FaceData:
    """The same face of (1/2)Sigma on the translate at the wall point delta0."""
    if fd.delta0 == delta0:
        return fd
    move = linalg.sub(delta0, fd.delta0)
    return replace(fd, delta0=delta0,
                   face=replace(fd.face, sample=linalg.add(fd.face.sample, move)))


def wall_crossing(rep: QSRep, delta, delta_prime, ctx: Context | None = None) -> WallCrossing:
    ctx = ctx or Context(rep)
    arr = ctx.arrangement
    delta, delta_prime = linalg.vec(delta), linalg.vec(delta_prime)
    coords = arr.to_coords(delta)
    chamber = arr.chamber_of(coords)
    coords_p = arr.to_coords(delta_prime)
    chamber_p = arr.chamber_of(coords_p)
    wall = arr.require_adjacent(chamber, chamber_p)
    # the wall point is where the segment meets the wall; for a symmetric
    # pair this is the exact midpoint
    (t,) = arr.crossing_times(coords, coords_p, [wall])
    delta0 = linalg.add(delta, linalg.scale(t, linalg.sub(delta_prime, delta)))
    if not arr.on_wall(linalg.add(coords, linalg.scale(t, linalg.sub(coords_p, coords)))):
        raise InternalInconsistencyError("computed wall point is not on the wall")
    win = ctx.window(delta, chamber)
    win_p = ctx.window(delta_prime, chamber_p)
    key = (chamber.sign_vector, chamber_p.sign_vector)
    pair = ctx._crossings.get(key)
    if pair is None:
        pair = ctx._crossings[key] = _PairCrossing(rep, ctx, win, win_p, delta0)
    crossing = pair.at(delta, delta_prime, delta0, wall, win, win_p)
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
    """mu on every outgoing character; worked out once per chamber pair."""
    pair = crossing.pair
    if pair.mu_images is None:
        pair.mu_images = tuple(mu_of_crossing(rep, crossing, chi) for chi in crossing.outgoing)
    return dict(zip(crossing.outgoing, pair.mu_images))
