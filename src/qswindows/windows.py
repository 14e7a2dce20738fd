"""Dominant-weight windows, wall faces of the half-zonotope, and the
wall-crossing bijection.

Conventions fixed here:
  * delta parameters are ambient rational vectors lying in the invariant
    subspace, never on a wall;
  * for an adjacent pair the wall point delta_0 is where the connecting
    segment meets the wall (the exact midpoint for symmetric pairs);
  * wall faces are faces of (1/2)Sigma itself, keyed by their tight
    facet-index sets, which makes partitions and atom identities
    deterministic.  The face seen from delta_0 through a character chi is
    the face of (1/2)Sigma through rho + chi - delta_0: translating by
    delta_0 keeps every tight set, vertex index, normal, beta^+- and index
    set, and moves the sample by delta_0.  Dominance is kept too, since
    delta_0 is W-invariant and every root pairs to zero with the invariant
    lattice (``RootDatum`` rejects any other input).

Chamber-level and per-call data.  A window depends only on the chamber of
delta, and a crossing's wall, characters, faces and mu map depend only on
the ordered pair of chambers, so ``Context`` stores window characters per
chamber sign vector and crossing data per ordered pair of sign vectors.  An
exact miss looks both up by class modulo the W-invariant characters, on
which ``invariant_basis`` is a Z-basis: a sample nums/den, with
m = floor(nums/den), has the sign vector of (nums - den m)/den as class key
and sum_i m_i b_i as shift; a pair reduces both chambers by the first one's
m, each over its own den.  Only a class miss scans the lattice or builds a
pair, with every construction and check at its own wall point.  Each exact
pair is checked adjacent once, and every crossing still has both endpoints
located and off-wall, its wall point (formed over the integers) on the
stored wall and its direction pairing positively with the inward normals.
A dagger depends only on its face of (1/2)Sigma and is stored per face key.

Why that is exact: both wall points lie on the wall the two chambers share
and on no other wall, so they are joined inside the common facet of the two
chambers, and every tight set (of rho + chi - delta_0 on (1/2)Sigma, or of
chi on delta_0 + nabla) is constant along that facet.  So the outgoing
characters on the wall-point window boundary and their faces are the same
at both wall points.  The mu map reads only beta_F^+ and the two windows,
which depend only on the chambers.  The arrangement is periodic under a
W-invariant character s, and two chambers (pairs) with one class key differ
by s, the difference of their shifts.  The window at delta + s is the one
at delta moved by s, in the same lexicographic order, as
M(delta + s + nabla) = M(delta + nabla) (x) O(s) and every root pairs to
zero with s.  The wall point moves by s, so rho + chi - delta_0, and with it
every face and face key, stays; the outgoing characters, their split by
face and the mu images (chi + beta_F^+)^+ move by s.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul

from . import linalg
from .arrangement import Arrangement, Chamber, Wall, build_arrangement
from .errors import InputError, InternalInconsistencyError, _fmt
from .geometry import Face, Polytope
from .linalg import IntVec, Vec
from .rep import QSRep
from .root_data import Weight, _lattice_weight


@dataclass(frozen=True)
class Window:
    delta: Vec
    chars: tuple[Weight, ...]

    def to_json(self) -> dict:
        return {"delta": [str(Fraction(x)) for x in self.delta],
                "chars": [list(c) for c in self.chars]}


@dataclass(frozen=True, slots=True)
class FaceData:
    """A face of (1/2)Sigma with its weight-index partition."""

    face: Face
    inward_normals: tuple[IntVec, ...]
    plus_indices: tuple[int, ...]
    minus_indices: tuple[int, ...]
    zero_indices: tuple[int, ...]
    beta_plus: Weight
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
    """The arrangement and the half-zonotope (1/2)Sigma of one representation,
    with windows and crossing data stored per chamber (pair) and per class
    mod the lattice, and daggers per face (see the module docstring)."""

    def __init__(self, rep: QSRep, arr: Arrangement | None = None):
        self.rep = rep
        self.arrangement = arr if arr is not None else build_arrangement(rep)
        self.half_sigma = rep.sigma.scale(Fraction(1, 2))
        self._dominant = rep.dominant_halfspaces()
        self._windows: dict = {}    # chamber sign vector -> window characters
        self._crossings: dict = {}  # (sign vector, sign vector') -> _PairCrossing
        self._classes: dict = {}    # class key -> (window chars or _PairCrossing, shift)
        self._daggers: dict = {}    # face key -> its dagger FaceData

    def window(self, delta) -> Window:
        """The window at an off-wall ambient delta, or at its chamber."""
        return self._window(_located(self.arrangement, delta), delta)

    def _window(self, chamber: Chamber, delta) -> Window:
        """``window`` of delta, an ambient point or the chamber, in the chamber."""
        arr = self.arrangement
        delta = arr.to_ambient(chamber) if chamber is delta else linalg.vec(delta)
        chars = self._windows.get(chamber.sign_vector)
        if chars is None:
            key, shift = _class_key(arr, (chamber,))
            hit = self._classes.get(key)
            if hit is not None:
                step = linalg.sub(shift, hit[1])
                chars = tuple(tuple(map(add, c, step)) for c in hit[0])
            else:
                shifted = self.rep.nabla.translate(delta)
                chars = tuple(shifted.lattice_points(extra=self._dominant))
                boundary = [c for c in chars if shifted.tight_indices(c)]
                if boundary:
                    raise InternalInconsistencyError(
                        f"window characters {', '.join(map(_fmt, boundary))} on the boundary "
                        f"at off-wall {_fmt(delta)}")
                self._classes[key] = chars, shift
            self._windows[chamber.sign_vector] = chars
        return Window(delta=delta, chars=chars)


def _located(arr: Arrangement, delta) -> Chamber:
    """The chamber of an off-wall ambient point; a chamber is its own."""
    return delta if type(delta) is Chamber else arr.chamber_of(arr.to_coords(delta))


def _class_key(arr: Arrangement, chambers) -> tuple[tuple, IntVec]:
    """The sign vectors of the chambers' samples less m, the integer part of
    the first sample, each over its own denominator; and m's character."""
    m = [x // chambers[0].den for x in chambers[0].nums]
    return tuple(tuple(k for k, _ in arr._indices([x - c.den * y for x, y in zip(c.nums, m)],
                                                   c.den)) for c in chambers), arr.character(m)


def face_data_from_face(rep: QSRep, poly: Polytope, face: Face) -> FaceData:
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
    dominant = all(
        rep.root_datum.is_dominant(poly.vertices[i]) for i in face.vertex_indices
    )
    return FaceData(
        face=face,
        inward_normals=normals,
        plus_indices=tuple(plus),
        minus_indices=tuple(minus),
        zero_indices=tuple(zero),
        beta_plus=_index_sum(rep, plus),
        dominant=dominant,
    )


def _index_sum(rep: QSRep, indices) -> Weight:
    """The sum of the weights with the given indices."""
    return tuple(sum(rep.weights[i][j] for i in indices) for j in range(rep.rank))


def face_of(rep: QSRep, chi, delta0, ctx: Context) -> FaceData:
    """The maximal-codimension face of (1/2)Sigma through rho + chi - delta_0."""
    point = linalg.sub(linalg.add(linalg.vec(chi), rep.root_datum.rho), delta0)
    return face_data_from_face(rep, ctx.half_sigma, ctx.half_sigma.face_at(point))


def dagger(rep: QSRep, fd: FaceData, ctx: Context) -> FaceData:
    """w0 applied to the central-symmetry dual face; dominant again."""
    if not fd.dominant:
        raise InputError("dagger is defined only for dominant faces")
    out = ctx._daggers.get(fd.key)
    if out is None:
        half = ctx.half_sigma
        image = rep.root_datum.apply(rep.root_datum.w0, half.dual_point(fd.face.sample))
        out = face_data_from_face(rep, half, half.face_at(image))
        if out.codim != fd.codim or not out.dominant:
            raise InternalInconsistencyError("dagger face must stay dominant with equal codim")
        ctx._daggers[fd.key] = out
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
    def oriented(self) -> bool:
        """Whether the direction delta -> delta' pairs positively with every
        inward normal of every wall face."""
        # with delta = u/e and delta' = v/e' over positive denominators,
        # <delta' - delta, lam> > 0 exactly when e <v, lam> > e' <u, lam>
        (u, e), (v, e_p) = map(linalg._numerators, (self.delta, self.delta_prime))
        return all(e * sum(map(mul, v, lam)) > e_p * sum(map(mul, u, lam))
                   for fd in self.faces.values() for lam in fd.inward_normals)

    def face_of_char(self, chi) -> FaceData:
        for key, chars in self.chars_by_face.items():
            if tuple(chi) in chars:
                return self.faces[key]
        raise InputError(f"{_fmt(chi)} does not leave the window across this wall")


class _PairCrossing:
    """The chamber-pair part of a crossing: the wall the two chambers share,
    the common and outgoing characters, the outgoing characters' wall faces
    with the characters on each, and the mu images once mu_map has asked
    for them."""

    __slots__ = ("wall", "common", "outgoing", "faces", "chars_by_face", "mu_images")

    def __init__(self, rep: QSRep, ctx: Context, wall: Wall, win: Window, win_p: Window,
                 delta0: Vec):
        self.wall = wall
        outgoing = set(win.chars) - set(win_p.chars)
        self.outgoing = tuple(sorted(outgoing))
        self.common = tuple(c for c in win.chars if c not in outgoing)
        self.faces: dict = {}
        chars_by_face: dict = {}
        shift = linalg.sub(rep.root_datum.rho, delta0)
        for chi in self.outgoing:
            if not rep.nabla.on_boundary(linalg.sub(chi, delta0)):
                raise InternalInconsistencyError(
                    "an outgoing character must sit on the wall-point window boundary")
            # a face's key is the tight set of rho + chi - delta_0, so only a
            # new tight set needs face_of
            key = tuple(sorted(ctx.half_sigma.tight_indices(linalg.add(chi, shift))))
            if key not in self.faces:
                self.faces[key] = face_of(rep, chi, delta0, ctx)
            chars_by_face.setdefault(key, []).append(chi)
        self.chars_by_face = {key: tuple(sorted(chars)) for key, chars in chars_by_face.items()}
        self.mu_images: tuple | None = None

    def translated(self, wall: Wall, win: Window, win_p: Window, shift) -> _PairCrossing:
        """This pair moved by the invariant character ``shift`` onto ``wall``,
        ``win`` and ``win_p``: the same faces, with ``win``'s character tuples."""
        out = _PairCrossing.__new__(_PairCrossing)
        out.wall, out.faces = wall, self.faces
        outgoing = set(win.chars) - set(win_p.chars)
        out.outgoing = tuple(sorted(outgoing))
        out.common = tuple(c for c in win.chars if c not in outgoing)
        if [tuple(map(add, c, shift)) for c in self.outgoing] != list(out.outgoing):
            raise InternalInconsistencyError("a translate must move the outgoing characters")
        # a shift keeps the lexicographic order, so the sorted tuples align
        moved = dict(zip(self.outgoing, out.outgoing))
        out.chars_by_face = {key: tuple(map(moved.__getitem__, chars))
                             for key, chars in self.chars_by_face.items()}
        out.mu_images = None if self.mu_images is None else tuple(
            tuple(map(add, c, shift)) for c in self.mu_images)
        return out


def wall_crossing(rep: QSRep, delta, delta_prime, ctx: Context) -> WallCrossing:
    """The crossing from delta to delta', each an off-wall ambient point,
    kept as given, or its chamber."""
    arr = ctx.arrangement
    chamber, chamber_p = _located(arr, delta), _located(arr, delta_prime)
    key = (chamber.sign_vector, chamber_p.sign_vector)
    pair = ctx._crossings.get(key)
    # adjacency depends only on the two sign vectors: checked once per pair
    wall = arr.require_adjacent(chamber, chamber_p) if pair is None else pair.wall
    win, win_p = ctx._window(chamber, delta), ctx._window(chamber_p, delta_prime)
    delta, delta_prime = win.delta, win_p.delta
    # the wall point is where the segment meets the wall (for a symmetric
    # pair, the exact midpoint), over the integers in invariant coordinates;
    # it lies on no other hyperplane, as both ends are off-wall
    ((p, q),) = arr.crossing_times(chamber, chamber_p, [wall])
    nums, den = arr._on_segment(chamber, chamber_p, p, q)
    if arr._walls_on(arr._indices(nums, den)) != [wall]:
        raise InternalInconsistencyError("computed wall point is not on the wall")
    delta0 = arr._ambient(nums, den)
    if pair is None:
        class_key, shift = _class_key(arr, (chamber, chamber_p))
        hit = ctx._classes.get(class_key)
        if hit is None:
            pair = _PairCrossing(rep, ctx, wall, win, win_p, delta0)
            ctx._classes[class_key] = pair, shift
        else:
            pair = hit[0].translated(wall, win, win_p, linalg.sub(shift, hit[1]))
        ctx._crossings[key] = pair
    crossing = WallCrossing(
        delta=delta, delta_prime=delta_prime, delta0=delta0, wall=wall,
        window=win, window_prime=win_p, common=pair.common, faces=pair.faces,
        chars_by_face=pair.chars_by_face, outgoing=pair.outgoing, pair=pair,
    )
    # wall faces carry a dominance flag but are not required to be dominant
    # here: faces of large nonabelian representations can cross Weyl walls
    # even though the crossing bijection still lands correctly (the
    # per-character checks in mu_of_crossing enforce that).
    if not crossing.oriented:
        raise InternalInconsistencyError(
            "crossing direction must pair positively with inward normals")
    return crossing


def mu_of_crossing(rep: QSRep, crossing: WallCrossing, chi) -> Weight:
    """The wall-crossing image (chi + beta_F^+)^+ of an outgoing character."""
    chi = _lattice_weight(chi)
    if chi not in set(crossing.outgoing):
        raise InputError(f"{_fmt(chi)} is not in the outgoing part of the window")
    fd = crossing.face_of_char(chi)
    shifted = linalg.add(chi, fd.beta_plus)
    rep_result = rep.root_datum.dominant_representative(shifted)
    if rep_result is None:
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
