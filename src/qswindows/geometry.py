"""Exact rational convex polytopes: H/V representations, faces, lattice points.

Polytopes are stored as irredundant half-space lists together with their
vertex sets, both exact.  Half-spaces use the standard dot product; callers
working with a nontrivial invariant form convert their normals first.  All
polytopes here are bounded.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import InputError, InternalInconsistencyError
from .linalg import IntVec, Vec


@dataclass(frozen=True)
class HalfSpace:
    """{x : <x, normal> >= offset} with a primitive integer normal."""

    normal: IntVec
    offset: Fraction

    def __post_init__(self):
        if linalg.is_zero(self.normal):
            raise InputError("half-space normal must be nonzero")
        if linalg.vec_gcd(self.normal) != 1:
            raise InputError("half-space normal must be primitive")

    def value(self, point) -> Fraction:
        return linalg.dot(point, self.normal)

    def contains(self, point) -> bool:
        return self.value(point) >= self.offset

    def tight(self, point) -> bool:
        return self.value(point) == self.offset

    def translate(self, v) -> "HalfSpace":
        return HalfSpace(self.normal, self.offset + linalg.dot(v, self.normal))


@dataclass(frozen=True)
class Face:
    """A face keyed by the set of half-space indices tight on it."""

    facet_indices: frozenset[int]
    codim: int
    sample: Vec
    affine_basis: tuple[Vec, ...]
    vertex_indices: tuple[int, ...]

    @property
    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.facet_indices))


@dataclass(frozen=True)
class Polytope:
    dim: int
    halfspaces: tuple[HalfSpace, ...]
    vertices: tuple[Vec, ...]
    center: Vec | None = None

    def contains(self, point) -> bool:
        return all(h.contains(point) for h in self.halfspaces)

    def tight_indices(self, point) -> frozenset[int]:
        return frozenset(i for i, h in enumerate(self.halfspaces) if h.tight(point))

    def on_boundary(self, point) -> bool:
        return self.contains(point) and bool(self.tight_indices(point))

    def translate(self, v) -> "Polytope":
        v = linalg.vec(v)
        return Polytope(
            dim=self.dim,
            halfspaces=tuple(h.translate(v) for h in self.halfspaces),
            vertices=tuple(linalg.add(x, v) for x in self.vertices),
            center=None if self.center is None else linalg.add(self.center, v),
        )

    def scale(self, c) -> "Polytope":
        c = Fraction(c)
        if c <= 0:
            raise InputError("scale factor must be positive")
        return Polytope(
            dim=self.dim,
            halfspaces=tuple(HalfSpace(h.normal, c * h.offset) for h in self.halfspaces),
            vertices=tuple(linalg.scale(c, x) for x in self.vertices),
            center=None if self.center is None else linalg.scale(c, self.center),
        )

    def bounding_box(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if not self.vertices:
            raise InputError("empty polytope has no bounding box")
        lo, hi = [], []
        for j in range(self.dim):
            coords = [Fraction(v[j]) for v in self.vertices]
            lo.append(ceil_frac(min(coords)))
            hi.append(floor_frac(max(coords)))
        return tuple(lo), tuple(hi)

    def lattice_points(self, extra: tuple[HalfSpace, ...] = ()) -> list[IntVec]:
        """All integer points, optionally also satisfying extra half-spaces."""
        lo, hi = self.bounding_box()
        out = []
        ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
        for p in itertools.product(*ranges):
            if self.contains(p) and all(h.contains(p) for h in extra):
                out.append(p)
        out.sort()
        return out

    def boundary_lattice_points(self) -> list[IntVec]:
        return [p for p in self.lattice_points() if self.tight_indices(p)]

    def is_full_dimensional(self) -> bool:
        if not self.vertices:
            return False
        diffs = [linalg.sub(v, self.vertices[0]) for v in self.vertices[1:]]
        return bool(diffs) and linalg.rank(diffs) == self.dim

    # -- faces ---------------------------------------------------------------

    def faces(self, max_codim: int | None = None) -> list[Face]:
        """All faces of codimension 1..max_codim, keyed by tight facet sets.

        Faces are meets of facets, so closing the facet vertex sets under
        pairwise intersection enumerates them all.  Requires a
        full-dimensional polytope.
        """
        if not self.is_full_dimensional():
            raise InputError("face enumeration requires a full-dimensional polytope")
        if max_codim is None:
            max_codim = self.dim
        tight_of_vertex = [self.tight_indices(v) for v in self.vertices]
        known: set[frozenset[int]] = set()
        for i in range(len(self.halfspaces)):
            vs = frozenset(k for k, t in enumerate(tight_of_vertex) if i in t)
            if vs:
                known.add(vs)
        frontier = set(known)
        while frontier:
            new = set()
            for a in frontier:
                for b in known:
                    c = a & b
                    if c and c not in known and c not in new:
                        new.add(c)
            known |= new
            frontier = new
        out = []
        for vs in known:
            face = self._face_from_vertex_set(vs, tight_of_vertex)
            if 1 <= face.codim <= max_codim:
                out.append(face)
        out.sort(key=lambda f: (f.codim, f.key))
        return out

    def _face_from_vertex_set(self, vs, tight_of_vertex) -> Face:
        pts = [self.vertices[i] for i in sorted(vs)]
        base = pts[0]
        basis = _independent(linalg.sub(p, base) for p in pts[1:])
        sample = tuple(sum(Fraction(p[j]) for p in pts) / len(pts) for j in range(self.dim))
        tight = frozenset.intersection(*(tight_of_vertex[i] for i in vs))
        return Face(
            facet_indices=tight,
            codim=self.dim - len(basis),
            sample=sample,
            affine_basis=tuple(basis),
            vertex_indices=tuple(sorted(vs)),
        )

    def face_at(self, point) -> Face:
        """The maximal-codimension face whose relative interior holds the point.

        That face is the intersection of all facets tight at the point; its
        vertices are the polytope vertices tight on the same set.
        """
        if not self.contains(point):
            raise InputError(f"point {point} lies outside the polytope")
        tight = self.tight_indices(point)
        if not tight:
            raise InputError(f"point {point} lies in the interior, not on a face")
        tight_of_vertex = [self.tight_indices(v) for v in self.vertices]
        vs = frozenset(k for k, t in enumerate(tight_of_vertex) if tight <= t)
        if not vs:
            raise InternalInconsistencyError("boundary point with no tight vertices")
        return self._face_from_vertex_set(vs, tight_of_vertex)

    # -- central symmetry ----------------------------------------------------

    def dual_point(self, a) -> Vec:
        if self.center is None:
            raise InputError("polytope has no center")
        return linalg.sub(linalg.scale(2, self.center), linalg.vec(a))

    def dual_face(self, face: Face) -> Face:
        return self.face_at(self.dual_point(face.sample))

    def to_json(self) -> dict:
        return {
            "halfspaces": [
                {"normal": list(h.normal), "offset": str(Fraction(h.offset))}
                for h in self.halfspaces
            ],
            "vertices": sorted([str(Fraction(x)) for x in v] for v in self.vertices),
        }


def floor_frac(x) -> int:
    x = Fraction(x)
    return x.numerator // x.denominator


def ceil_frac(x) -> int:
    return -floor_frac(-Fraction(x))


def _independent(vectors) -> list[Vec]:
    basis: list[Vec] = []
    for v in vectors:
        if linalg.rank(basis + [list(v)]) > len(basis):
            basis.append(linalg.vec(v))
    return basis


def _vertex_enumeration(halfspaces, dim) -> list[Vec]:
    hyperplanes = {}
    for h in halfspaces:
        key = linalg.sign_normalized(h.normal)
        off = Fraction(h.offset) if key == tuple(h.normal) else -Fraction(h.offset)
        hyperplanes[(key, off)] = None
    planes = sorted(hyperplanes)
    verts = set()
    for combo in itertools.combinations(planes, dim):
        rows = [list(k[0]) for k in combo]
        if linalg.rank(rows) < dim:
            continue
        sol = linalg.solve(rows, [k[1] for k in combo])
        if sol is None:
            continue
        if all(h.contains(sol) for h in halfspaces):
            verts.add(sol)
    return sorted(verts)


def from_halfspaces(halfspaces, center=None) -> Polytope:
    """Build a polytope from possibly redundant half-spaces.

    Per normal only the tightest offset is kept; after vertex enumeration a
    half-space survives only if its tight vertex set is (dim-1)-dimensional,
    i.e. it supports a facet.  Lower-dimensional intersections keep every
    tight half-space instead (the facet test is vacuous there).
    """
    best: dict[IntVec, Fraction] = {}
    for h in halfspaces:
        nrm = tuple(h.normal)
        off = Fraction(h.offset)
        if nrm not in best or off > best[nrm]:
            best[nrm] = off
    hs = [HalfSpace(nrm, off) for nrm, off in sorted(best.items())]
    if not hs:
        raise InputError("a polytope needs at least one half-space")
    dim = len(hs[0].normal)
    verts = _vertex_enumeration(hs, dim)
    if not verts:
        raise InputError("half-spaces have empty intersection")
    full_dim = len(verts) > 1 and linalg.rank([linalg.sub(v, verts[0]) for v in verts[1:]]) == dim
    kept = []
    for h in hs:
        tight_verts = [v for v in verts if h.tight(v)]
        if not tight_verts:
            continue
        if full_dim:
            diffs = [linalg.sub(v, tight_verts[0]) for v in tight_verts[1:]]
            tight_dim = linalg.rank(diffs) if diffs else 0
            if tight_dim != dim - 1:
                continue
        kept.append(h)
    kept.sort(key=lambda h: (h.normal, h.offset))
    poly = Polytope(dim=dim, halfspaces=tuple(kept), vertices=tuple(verts), center=center)
    _check_h_v(poly)
    _check_center(poly)
    return poly


def _check_h_v(poly: Polytope) -> None:
    recomputed = _vertex_enumeration(poly.halfspaces, poly.dim)
    if set(map(tuple, recomputed)) != set(map(tuple, poly.vertices)):
        raise InternalInconsistencyError("H and V representations disagree")


def _check_center(poly: Polytope) -> None:
    if poly.center is None:
        return
    vert_set = set(poly.vertices)
    for v in poly.vertices:
        if tuple(poly.dual_point(v)) not in vert_set:
            raise InternalInconsistencyError("claimed center is not a symmetry center")


def zonotope(generators, scale=Fraction(1)) -> Polytope:
    """Minkowski sum of the segments scale*[0,1]*g over the generators.

    Facet normals are the primitive vectors orthogonal to independent
    (r-1)-subsets of the generators, r the rank of their span.  Every
    zonotope is centrally symmetric about scale/2 times the generator sum,
    and that center is recorded.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    if not gens:
        raise InputError("zonotope needs at least one generator")
    scale = Fraction(scale)
    if scale <= 0:
        raise InputError("zonotope scale must be positive")
    dim = len(gens[0])
    nonzero = sorted({g for g in gens if not linalg.is_zero(g)})
    r = linalg.rank(nonzero) if nonzero else 0
    total = tuple(sum(c) for c in zip(*gens))
    center = linalg.scale(scale / 2, total)
    if r == 0:
        point = center
        hs = []
        for e in linalg.identity_matrix(dim):
            c = linalg.dot(point, e)
            hs.append(HalfSpace(tuple(e), c))
            hs.append(HalfSpace(linalg.primitive(linalg.neg(e)), -c))
        return Polytope(dim=dim, halfspaces=tuple(hs), vertices=(point,), center=point)
    span_cuts = _complement_rows(nonzero, dim)
    normals = set()
    for combo in itertools.combinations(nonzero, r - 1):
        rows = [list(v) for v in combo]
        if rows and linalg.rank(rows) < r - 1:
            continue
        rows += [list(v) for v in span_cuts]
        if rows:
            kernel = linalg.kernel_basis(rows)
        else:
            kernel = [(Fraction(1),)] if dim == 1 else []
        if len(kernel) != 1:
            continue
        nrm = linalg.primitive(kernel[0])
        normals.add(nrm)
        normals.add(linalg.primitive(linalg.neg(nrm)))
    halfspaces = []
    for nrm in sorted(normals):
        upper = scale * sum(max(0, linalg.dot(g, nrm)) for g in gens)
        halfspaces.append(HalfSpace(linalg.primitive(linalg.neg(nrm)), -upper))
    for b in span_cuts:
        halfspaces.append(HalfSpace(b, Fraction(0)))
        halfspaces.append(HalfSpace(linalg.primitive(linalg.neg(b)), Fraction(0)))
    return from_halfspaces(halfspaces, center=center)


def _complement_rows(vectors, dim):
    """Primitive normals cutting out the linear span of the vectors."""
    rows = [list(v) for v in vectors]
    if linalg.rank(rows) == dim:
        return []
    return [linalg.primitive(b) for b in linalg.kernel_basis(rows)]


def intersect(poly: Polytope, halfspaces) -> Polytope:
    return from_halfspaces(list(poly.halfspaces) + list(halfspaces))


def polytopes_equal(a: Polytope, b: Polytope) -> bool:
    return all(b.contains(v) for v in a.vertices) and all(a.contains(v) for v in b.vertices)
