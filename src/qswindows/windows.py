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
    set.  Dominance is kept too, since delta_0 is W-invariant and every
    root pairs to zero with the invariant lattice (``RootDatum`` rejects
    any other input);
  * the dagger of a dominant face F is w0(-F).  Quasi-symmetric weights
    make Sigma symmetric about 0 and W-invariant weights make w0 keep it,
    so x -> -w0 x permutes the facets of (1/2)Sigma (w0 acts on normals by
    its transpose), and F^dagger is the face tight on the images of F's
    tight set.  ``QSRep.build`` works that permutation out and checks it.

Chamber-level and per-call data.  A ``Context`` holds memo tables only: the
arrangement and (1/2)Sigma are built once per representation.  A window
depends only on the chamber of delta, and a crossing's wall, characters,
faces and mu map depend only on the ordered pair of chambers, so
``Context`` stores window characters per chamber sign vector and crossing
data per ordered pair of sign vectors.  A
window missing there is looked up by class modulo the W-invariant
characters, on which ``invariant_basis`` is a Z-basis: a sample nums/den,
with m = floor(nums/den), has the sign vector of (nums - den m)/den as class
key and sum_i m_i b_i as shift.  Only a class miss scans the lattice, and
it reads nabla's integer half-space table at delta's numerators d over e:
no translated polytope and no ``Fraction`` are made, and the one pass that
finds the characters also finds any on the boundary, which is refused.  A
face of (1/2)Sigma is its tight set, so its data is stored per tight set,
daggers included.  Each exact pair is checked adjacent and built
once, at its first wall point, and every crossing still has both endpoints
located and off-wall, its wall point (formed over the integers) on the
stored wall and its direction pairing positively with the inward normals.

Points stay integers on the crossing path.  An ambient delta is located by
two integer products (``Arrangement`` keeps the inverse of its basis), with
no solve, and the locating makes no ``Fraction`` of its own.  A window keeps
delta, and a crossing its wall point, as ambient integer numerators over one
positive denominator: the character of the chamber sample's numerators, or
of the wall point's invariant numerators, over their denominator.  Invariant
numerators are kept in lowest terms and the basis is independent, so equal
points give equal pairs.  ``delta``, ``delta_prime`` and ``delta0`` make
``Fraction``s only when they are read (for JSON, figures, checks and
messages), and the orientation test reads the numerators.  With the wall
point d over e > 0, an outgoing character chi sits on the boundary of
delta_0 + nabla when the least excess of (e chi - d)/e on nabla is zero,
and its face is read at
rho + chi - delta_0 = (e 2rho + 2e chi - 2d)/2e, where one excess pass gives
both the tight set and containment.  A face's subset sums of positive
weights, which the complexes read, are worked out once per face.

Why that is exact: both wall points lie on the wall the two chambers share
and on no other wall, so they are joined inside the common facet of the two
chambers, and every tight set (of rho + chi - delta_0 on (1/2)Sigma, or of
chi on delta_0 + nabla) is constant along that facet.  So the outgoing
characters on the wall-point window boundary and their faces are the same
at both wall points.  The mu map reads only beta_F^+ and the two windows,
which depend only on the chambers.  The arrangement is periodic under a
W-invariant character s, and two chambers with one class key differ by s,
the difference of their shifts.  The window at delta + s is the one at
delta moved by s, in the same lexicographic order, as
M(delta + s + nabla) = M(delta + nabla) (x) O(s) and every root pairs to
zero with s.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import add, mul

from . import linalg
from .arrangement import Arrangement, Chamber, Wall
from .errors import InputError, InternalInconsistencyError, _fmt
from .geometry import Face, Polytope
from .linalg import IntVec
from .rep import QSRep
from .root_data import Weight, _lattice_weight


@dataclass(frozen=True)
class Window:
    """The window characters at delta, with delta kept as ``point``: its
    ambient integer numerators over one positive denominator.  ``delta``
    reads it as ``Fraction``s."""

    point: tuple[IntVec, int]
    chars: tuple[Weight, ...]

    delta = property(lambda self: linalg._fractions(*self.point))

    def to_json(self) -> dict:
        return {"delta": [str(x) for x in self.delta],
                "chars": [list(c) for c in self.chars]}


@dataclass(frozen=True, slots=True)
class FaceData:
    """A face of (1/2)Sigma with its weight-index partition, and the sums of
    its positive weights once ``subset_sums`` has asked for them."""

    face: Face
    inward_normals: tuple[IntVec, ...]
    plus_indices: tuple[int, ...]
    minus_indices: tuple[int, ...]
    zero_indices: tuple[int, ...]
    beta_plus: Weight
    dominant: bool
    _sums: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def key(self) -> tuple[int, ...]:
        return self.face.key

    def subset_sums(self, rep: QSRep) -> tuple[tuple[Weight, ...], ...]:
        """Per size m = 0..d_F^+, the sums of the weights over the m-subsets
        of ``plus_indices``, in ``itertools.combinations`` order; worked
        out on first use."""
        if self._sums is None:
            object.__setattr__(self, "_sums", tuple(
                tuple(_index_sum(rep, combo) for combo in combinations(self.plus_indices, m))
                for m in range(self.d_plus + 1)))
        return self._sums

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
    """Memo tables of one representation: windows per chamber and per class
    mod the lattice, crossings per chamber pair, and faces, daggers
    included, per tight set; its arrangement and (1/2)Sigma are the rep's
    own."""

    def __init__(self, rep: QSRep):
        self.rep = rep
        self.arrangement = rep.arrangement
        self.half_sigma = rep.half_sigma
        self._windows: dict = {}    # chamber sign vector -> window characters
        self._classes: dict = {}    # class key -> (window characters, shift)
        self._crossings: dict = {}  # (sign vector, sign vector') -> _PairCrossing
        self._faces: dict = {}      # tight set -> FaceData of that face

    def window(self, delta) -> Window:
        """The window at an off-wall ambient delta, or at its chamber's
        sample; either way the point is the sample's character over its
        denominator."""
        arr = self.arrangement
        chamber = _located(arr, delta)
        point = arr.character(chamber.nums), chamber.den
        chars = self._windows.get(chamber.sign_vector)
        if chars is None:
            key, shift = _class_key(arr, chamber)
            hit = self._classes.get(key)
            if hit is not None:
                step = linalg.sub(shift, hit[1])
                chars = tuple(tuple(map(add, c, step)) for c in hit[0])
            else:
                rep = self.rep
                points, boundary = rep.nabla.lattice_points(rep.root_datum.dominant_cone, point)
                if boundary:
                    raise InternalInconsistencyError(
                        f"window characters {', '.join(map(_fmt, boundary))} on the boundary "
                        f"at off-wall {_fmt(linalg._fractions(*point))}")
                chars = tuple(points)
                self._classes[key] = chars, shift
            self._windows[chamber.sign_vector] = chars
        return Window(point, chars)


def _located(arr: Arrangement, delta) -> Chamber:
    """The chamber of an off-wall ambient point, which names the point if it
    is on a wall; a chamber is its own."""
    return delta if type(delta) is Chamber else arr._chamber(*arr._coords(delta), delta)


def _class_key(arr: Arrangement, chamber: Chamber) -> tuple[tuple, IntVec]:
    """The sign vector of the sample's fractional part, and its integer part's character."""
    nums, den = chamber.nums, chamber.den
    return (tuple(k for k, _ in arr._indices([x % den for x in nums], den)),
            arr.character([x // den for x in nums]))


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


def face_of(rep: QSRep, chi, delta0: tuple[IntVec, int], ctx: Context) -> FaceData:
    """The maximal-codimension face of (1/2)Sigma through rho + chi - delta_0,
    for delta_0 = d/e given as integer numerators d over e > 0: the point is
    (e 2rho + 2e chi - 2d) / 2e.  The face is built once per tight set; one
    excess pass gives the tight set and containment."""
    (d, e), two_rho, half = delta0, rep.root_datum.two_rho, ctx.half_sigma
    nums, den = [e * r + 2 * e * c - 2 * x for r, c, x in zip(two_rho, chi, d)], 2 * e
    excess = list(half._excess(nums, den))
    fd = ctx._faces.get(frozenset(i for i, v in enumerate(excess) if not v))
    if fd is None or min(excess) < 0:
        fd = face_data_from_face(rep, half, half.face_at(linalg._fractions(nums, den)))
        ctx._faces[fd.face.facet_indices] = fd
    return fd


def dagger(rep: QSRep, fd: FaceData, ctx: Context) -> FaceData:
    """F^dagger = w0(-F) of a dominant face, dominant again: the face tight
    on the images of F's tight set under ``rep.dagger_facets``, the
    permutation of (1/2)Sigma's half-spaces by x -> -w0 x."""
    if not fd.dominant:
        raise InputError("dagger is defined only for dominant faces")
    tight = frozenset(rep.dagger_facets[i] for i in fd.face.facet_indices)
    out = ctx._faces.get(tight)
    if out is None:
        half = ctx.half_sigma
        out = ctx._faces[tight] = face_data_from_face(rep, half, half._face(tight))
    if out.codim != fd.codim or not out.dominant:
        raise InternalInconsistencyError("dagger face must stay dominant with equal codim")
    return out


@dataclass(frozen=True)
class WallCrossing:
    """One ordered adjacent pair: its windows, wall point and chamber-pair
    data.  The wall point delta_0 is kept as ``wall_point``, ambient integer
    numerators over one positive denominator; ``delta``, ``delta_prime`` and
    ``delta0`` read the points as ``Fraction``s."""

    window: Window
    window_prime: Window
    wall_point: tuple[IntVec, int]
    pair: _PairCrossing

    delta = property(lambda self: self.window.delta)
    delta_prime = property(lambda self: self.window_prime.delta)
    delta0 = property(lambda self: linalg._fractions(*self.wall_point))
    wall = property(lambda self: self.pair.wall)
    common = property(lambda self: self.pair.common)
    outgoing = property(lambda self: self.pair.outgoing)
    faces = property(lambda self: self.pair.faces)
    chars_by_face = property(lambda self: self.pair.chars_by_face)

    @property
    def oriented(self) -> bool:
        """Whether the direction delta -> delta' pairs positively with every
        inward normal of every wall face."""
        # with delta = u/e and delta' = v/e' over positive denominators,
        # <delta' - delta, lam> > 0 exactly when e <v, lam> > e' <u, lam>
        (u, e), (v, e_p) = self.window.point, self.window_prime.point
        return all(e * sum(map(mul, v, lam)) > e_p * sum(map(mul, u, lam))
                   for fd in self.faces.values() for lam in fd.inward_normals)

    def face_of_char(self, chi) -> FaceData:
        for key, chars in self.chars_by_face.items():
            if tuple(chi) in chars:
                return self.faces[key]
        raise InputError(f"{_fmt(chi)} does not leave the window across this wall")


@dataclass(slots=True, init=False)
class _PairCrossing:
    """The chamber-pair part of a crossing: the wall the two chambers share,
    the common and outgoing characters, the outgoing characters' wall faces
    with the characters on each, and the mu images once mu_map has asked
    for them."""

    wall: Wall
    common: tuple[Weight, ...]
    outgoing: tuple[Weight, ...]
    faces: dict
    chars_by_face: dict
    mu_images: tuple | None = field(compare=False)

    def __init__(self, rep: QSRep, ctx: Context, wall: Wall, win: Window, win_p: Window,
                 d: IntVec, e: int):
        """``d`` and ``e`` > 0 are the wall point's ambient numerators and
        denominator."""
        self.wall = wall
        outgoing = set(win.chars) - set(win_p.chars)
        self.outgoing = tuple(sorted(outgoing))
        self.common = tuple(c for c in win.chars if c not in outgoing)
        self.faces, chars_by_face = {}, {}
        for chi in self.outgoing:
            # chi - delta_0 = (e chi - d)/e is on the boundary of nabla
            if min(rep.nabla._excess([e * c - x for c, x in zip(chi, d)], e)) != 0:
                raise InternalInconsistencyError(
                    "an outgoing character must sit on the wall-point window boundary")
            fd = face_of(rep, chi, (d, e), ctx)
            self.faces[fd.key] = fd
            chars_by_face.setdefault(fd.key, []).append(chi)
        self.chars_by_face = {key: tuple(sorted(chars)) for key, chars in chars_by_face.items()}
        self.mu_images = None


def wall_crossing(rep: QSRep, delta, delta_prime, ctx: Context) -> WallCrossing:
    """The crossing from delta to delta', each an off-wall ambient point or
    its chamber."""
    arr = ctx.arrangement
    chamber, chamber_p = _located(arr, delta), _located(arr, delta_prime)
    key = (chamber.sign_vector, chamber_p.sign_vector)
    pair = ctx._crossings.get(key)
    # adjacency depends only on the two sign vectors: checked once per pair
    wall = pair.wall if pair is not None else arr.require_adjacent(chamber, chamber_p)
    win, win_p = ctx.window(chamber), ctx.window(chamber_p)
    # the wall point is where the segment meets the wall (for a symmetric
    # pair, the exact midpoint), over the integers in invariant coordinates;
    # it lies on no other hyperplane, as both ends are off-wall
    ((p, q),) = arr.crossing_times(chamber, chamber_p, [wall])
    nums, den = arr._on_segment(chamber, chamber_p, p, q)
    if arr._walls_on(arr._indices(nums, den)) != [wall]:
        raise InternalInconsistencyError("computed wall point is not on the wall")
    wall_point = arr.character(nums), den
    if pair is None:
        pair = ctx._crossings[key] = _PairCrossing(rep, ctx, wall, win, win_p, *wall_point)
    crossing = WallCrossing(window=win, window_prime=win_p, wall_point=wall_point, pair=pair)
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
