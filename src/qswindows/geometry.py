"""Exact rational convex polytopes: H/V representations, faces, lattice points.

Polytopes are stored as irredundant half-space lists together with their
vertex sets, both exact.  Half-spaces use the standard dot product; callers
working with a nontrivial invariant form convert their normals first.  All
polytopes here are bounded.

Vertex enumeration runs over the integers: offsets share one denominator,
and each ``dim``-subset of hyperplane directions costs one fraction-free
(Bareiss) elimination giving its determinant and adjugate, so every vertex
candidate is a vector of Cramer numerators over the determinant, screened
with integer dot products.  Each distinct vertex is re-derived once with
``linalg.solve``, which runs the same elimination but checks its answer
against every equation: the system is nonsingular, so it has one
solution, and a faulty elimination cannot pass.  The result is then
checked against its half-spaces by an incidence test that does not
enumerate vertices: vertices are feasible, tight normals have full rank
at each, kept half-spaces support facets, and every ridge of every facet
lies in exactly two facets.

Queries run over the integers too.  Each polytope holds its half-spaces
once as integer normals n_i and offset numerators o_i over one common
denominator D, and ``translate`` shifts the numerators.  A point enters a
query once, as integer numerators over its own denominator, p = x/e, and
<p, n_i> >= o_i/D becomes <x, n_i> D >= o_i e.  The lattice scan compares
each integer box point with the thresholds ceil(o_i/D).  Faces are read off
one vertex-facet incidence table, worked out on first use.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from . import linalg
from .errors import InputError, InternalInconsistencyError, UnsupportedDimensionError, _fmt
from .linalg import IntVec, Vec, _bareiss, _numerators

# the most integer points a lattice scan's bounding box may hold
LATTICE_SCAN_LIMIT = 10 ** 6


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


@dataclass(frozen=True, slots=True)
class Face:
    """A face keyed by the set of half-space indices tight on it."""

    facet_indices: frozenset[int]
    codim: int
    sample: Vec
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
    # the half-spaces over the integers: (normals, offset numerators, their
    # common denominator); derived from ``halfspaces`` when not given
    _table: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._table is None:
            offsets, den = _numerators([h.offset for h in self.halfspaces])
            object.__setattr__(self, "_table", (tuple(h.normal for h in self.halfspaces),
                                                offsets, den))

    def _excess(self, point):
        """Per half-space, the sign-exact excess den * e * (<p, n> - offset)
        of the point p = x/e: the integer <x, n> den - o e."""
        nums, e = _numerators(point)
        normals, offsets, den = self._table
        return (sum(map(mul, nums, n)) * den - o * e for n, o in zip(normals, offsets))

    def contains(self, point) -> bool:
        return all(v >= 0 for v in self._excess(point))

    def tight_indices(self, point) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self._excess(point)) if not v)

    def on_boundary(self, point) -> bool:
        return min(self._excess(point)) == 0

    @cached_property
    def _incidence(self) -> tuple[frozenset[int], ...]:
        """Per vertex, the indices of the half-spaces tight at it."""
        return tuple(self.tight_indices(x) for x in self.vertices)

    def translate(self, v) -> "Polytope":
        """The polytope moved by v.  The offset numerators move by <v, n>,
        over the least common denominator of theirs and v's."""
        v = linalg.vec(v)
        nums, e = _numerators(v)
        normals, offsets, den = self._table
        common = lcm(den, e)
        a, b = common // den, common // e
        moved = tuple(o * a + sum(map(mul, nums, n)) * b for n, o in zip(normals, offsets))
        return Polytope(
            dim=self.dim,
            halfspaces=tuple(HalfSpace(n, Fraction(o, common)) for n, o in zip(normals, moved)),
            vertices=tuple(linalg.add(x, v) for x in self.vertices),
            center=None if self.center is None else linalg.add(self.center, v),
            _table=(normals, moved, common),
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
        columns = list(zip(*self.vertices))
        return tuple(math.ceil(min(c)) for c in columns), tuple(math.floor(max(c)) for c in columns)

    def lattice_points(self, extra: tuple[HalfSpace, ...] = ()) -> list[IntVec]:
        """All integer points, optionally also satisfying extra half-spaces,
        in lexicographic order.  An integer point meets <p, n> >= o/den
        exactly when <p, n> >= ceil(o/den), so each box point costs one
        integer dot product and comparison per half-space.  A box of more
        than ``LATTICE_SCAN_LIMIT`` points is refused before the scan."""
        normals, offsets, den = self._table
        tests = [(n, -(-o // den)) for n, o in zip(normals, offsets)]
        tests += [(h.normal, math.ceil(h.offset)) for h in extra]
        lo, hi = self.bounding_box()
        count = math.prod(max(0, b - a + 1) for a, b in zip(lo, hi))
        if count > LATTICE_SCAN_LIMIT:
            raise UnsupportedDimensionError(
                f"lattice scan of a box of {count} points exceeds the limit {LATTICE_SCAN_LIMIT}")
        ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
        return [p for p in itertools.product(*ranges)
                if all(sum(map(mul, p, n)) >= t for n, t in tests)]

    def boundary_lattice_points(self) -> list[IntVec]:
        return [p for p in self.lattice_points() if self.tight_indices(p)]

    def is_full_dimensional(self) -> bool:
        if not self.vertices:
            return False
        diffs = [linalg.sub(v, self.vertices[0]) for v in self.vertices[1:]]
        return bool(diffs) and linalg.rank(diffs) == self.dim

    # -- faces ---------------------------------------------------------------

    def faces(self) -> list[Face]:
        """All proper faces, keyed by tight facet sets.

        Faces are meets of facets, so closing the facet vertex sets under
        pairwise intersection enumerates them all.  Requires a
        full-dimensional polytope.
        """
        if not self.is_full_dimensional():
            raise InputError("face enumeration requires a full-dimensional polytope")
        tight_of_vertex = self._incidence
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
            tight = frozenset.intersection(*(tight_of_vertex[i] for i in vs))
            face = self._face(tight, tuple(sorted(vs)))
            if face.codim >= 1:
                out.append(face)
        out.sort(key=lambda f: (f.codim, f.key))
        return out

    def _face(self, tight, vs) -> Face:
        pts = [self.vertices[i] for i in vs]
        sample = tuple(sum(Fraction(p[j]) for p in pts) / len(pts) for j in range(self.dim))
        span = linalg.rank([linalg.sub(p, pts[0]) for p in pts[1:]])
        return Face(facet_indices=tight, codim=self.dim - span, sample=sample, vertex_indices=vs)

    def face_at(self, point) -> Face:
        """The maximal-codimension face whose relative interior holds the point.

        That face is the intersection of all facets tight at the point; its
        vertices are the polytope vertices tight on the same set.  No other
        half-space is tight on all of them, since one tight on every vertex
        of the face is tight on the whole face, the point included.
        """
        if not self.contains(point):
            raise InputError(f"point {_fmt(point)} lies outside the polytope")
        tight = self.tight_indices(point)
        if not tight:
            raise InputError(f"point {_fmt(point)} lies in the interior, not on a face")
        vs = tuple(k for k, t in enumerate(self._incidence) if tight <= t)
        if not vs:
            raise InternalInconsistencyError("boundary point with no tight vertices")
        return self._face(tight, vs)

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


def _scaled(halfspaces, vertices) -> tuple[IntVec, list[IntVec]]:
    """Offsets and vertices as integers over one common denominator."""
    k, d = len(halfspaces), len(vertices[0])
    nums, _ = _numerators([h.offset for h in halfspaces] + [x for v in vertices for x in v])
    return nums[:k], [nums[i:i + d] for i in range(k, len(nums), d)]


def _vertex_enumeration(halfspaces, dim) -> list[Vec]:
    """Vertices of the intersection of the half-spaces, over the integers.

    Offsets are scaled to one common denominator D.  For each ``dim``-subset
    of distinct hyperplane directions one Bareiss elimination gives the
    determinant and the adjugate; a zero determinant skips the subset, and
    every choice of offsets along those directions then costs one
    matrix-vector product for its Cramer numerators.  A candidate survives
    if it satisfies every half-space, tested with integer dot products
    against offset*det.  Each distinct survivor is re-derived once with
    ``linalg.solve`` and must agree; that solve checks its answer against
    every equation, so it does not rest on the elimination being right.
    """
    scaled, denom = _numerators([h.offset for h in halfspaces])
    tests = [(h.normal, off) for h, off in zip(halfspaces, scaled)]
    offsets: dict[IntVec, set[int]] = {}
    for nrm, off in tests:
        key = linalg.sign_normalized(nrm)
        offsets.setdefault(key, set()).add(off if key == tuple(nrm) else -off)
    unit = linalg.identity_matrix(dim)
    found: dict[tuple, tuple] = {}
    for combo in itertools.combinations(sorted(offsets), dim):
        pivots, m = _bareiss([list(n) + list(e) for n, e in zip(combo, unit)], dim)
        if len(pivots) < dim:
            continue
        det = m[-1][dim - 1]
        adj = [row[dim:] for row in m]
        if det < 0:
            det, adj = -det, [[-a for a in row] for row in adj]
        for rhs in itertools.product(*(sorted(offsets[k]) for k in combo)):
            nums = [linalg.dot(row, rhs) for row in adj]
            if all(linalg.dot(nrm, nums) >= off * det for nrm, off in tests):
                g = gcd(det, *nums)
                found.setdefault((det // g, tuple(x // g for x in nums)), (combo, rhs))
    verts = []
    for (det, nums), (combo, rhs) in found.items():
        point = tuple(Fraction(x, det * denom) for x in nums)
        if linalg.solve(combo, [Fraction(b, denom) for b in rhs]) != point:
            raise InternalInconsistencyError(
                f"integer vertex {_fmt(point)} disagrees with the exact solve")
        verts.append(point)
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
    offsets, pts = _scaled(hs, verts)
    full_dim = _affine_rank(pts) == dim
    kept = []
    for h, off in zip(hs, offsets):
        tight = [p for p in pts if linalg.dot(h.normal, p) == off]
        if tight and (not full_dim or _affine_rank(tight) == dim - 1):
            kept.append(h)
    kept.sort(key=lambda h: (h.normal, h.offset))
    poly = Polytope(dim=dim, halfspaces=tuple(kept), vertices=tuple(verts), center=center)
    _check_h_v(poly)
    _check_center(poly)
    return poly


def _check_h_v(poly: Polytope) -> None:
    """Check that the kept half-spaces cut out exactly the hull of the vertices.

    An incidence check over integer coordinates that never enumerates
    vertices: V*F dot products, then a scan of each facet's own vertices
    for its ridges.  With k the affine dimension of the vertices:

    * every vertex satisfies every half-space;
    * the normals tight at each vertex have rank ``dim`` (it is a vertex);
    * the half-spaces tight on every vertex cut out the affine hull: their
      normals have rank dim - k and each one's negative lies in their cone,
      so they hold with equality;
    * for k = dim every half-space is tight on a (dim-1)-dimensional vertex
      set, i.e. supports a facet; for k < dim at least one supports a
      relative facet (a (k-1)-dimensional vertex set) when k >= 1;
    * every ridge of every (relative) facet, found from that facet's own
      vertices, lies in exactly two facets.

    Without the last condition a dropped facet of a non-simple polytope
    goes unseen: the octahedron without one facet still has three tight
    normals of rank 3 at every old vertex.  With it the facets found are
    every facet, as the facet-ridge graph of a polytope is connected.
    """
    dim, hs, verts = poly.dim, poly.halfspaces, poly.vertices
    offsets, pts = _scaled(hs, verts)
    tight_sets: list[list[int]] = [[] for _ in hs]
    for i, p in enumerate(pts):
        tight = []
        for j, (h, off) in enumerate(zip(hs, offsets)):
            value = linalg.dot(h.normal, p)
            if value < off:
                raise InternalInconsistencyError(f"vertex {_fmt(verts[i])} violates a half-space")
            if value == off:
                tight.append(h.normal)
                tight_sets[j].append(i)
        if _rank(tight) != dim:
            raise InternalInconsistencyError(f"{_fmt(verts[i])} is not a vertex of the half-spaces")
    k = _affine_rank(pts)
    equalities = [h.normal for h, ts in zip(hs, tight_sets) if len(ts) == len(pts)]
    if _rank(equalities) != dim - k or not all(
            _in_cone(linalg.neg(n), equalities) for n in equalities):
        raise InternalInconsistencyError("half-spaces do not cut out the affine hull of the vertices")
    facets = set()
    for ts in tight_sets:
        if ts and _affine_rank([pts[i] for i in ts]) == k - 1:
            facets.add(frozenset(ts))
        elif k == dim:
            raise InternalInconsistencyError("a kept half-space does not support a facet")
    if k >= 1 and not facets:
        raise InternalInconsistencyError("no half-space supports a facet of the vertex hull")
    for facet in facets:
        for ridge in _ridges(facet, pts):
            if sum(1 for f in facets if ridge <= f) != 2:
                raise InternalInconsistencyError(
                    "a ridge does not lie in exactly two facets: H and V representations disagree")


def _rank(rows) -> int:
    return len(_bareiss(rows, len(rows[0]))[0]) if rows else 0


def _affine_rank(pts) -> int:
    return _rank([linalg.sub(p, pts[0]) for p in pts[1:]])


def _in_cone(target, gens) -> bool:
    """Whether target is a nonnegative combination of the integer vectors.

    By Caratheodory it suffices to try linearly independent subsets, so
    subsets of at most ``len(target)`` vectors.
    """
    for size in range(1, min(len(gens), len(target)) + 1):
        for sub in itertools.combinations(gens, size):
            rows = [[g[i] for g in sub] + [t] for i, t in enumerate(target)]
            pivots, m = _bareiss(rows, size)
            if len(pivots) < size or any(row[size] for row in m[size:]):
                continue
            p = m[0][pivots[0]]
            if all(row[size] * p >= 0 for row in m[:size]):
                return True
    return False


def _ridges(facet, pts) -> set[frozenset[int]]:
    """Facets of the facet, as vertex-index sets, from its vertices alone.

    The vertices go to integer coordinates in a basis of the facet's
    direction space, where the facet is d-dimensional.  Each affinely
    independent d-subset of them spans a hyperplane; it bounds a ridge
    when all the facet's vertices lie on one side.
    """
    idx = sorted(facet)
    diffs = {i: linalg.sub(pts[i], pts[idx[0]]) for i in idx}
    basis = [row for row in _bareiss(list(diffs.values()), len(pts[0]))[1] if any(row)]
    d = len(basis)
    if d == 0:
        return set()
    coords = {i: tuple(linalg.dot(b, diff) for b in basis) for i, diff in diffs.items()}
    ridges: set[frozenset[int]] = set()
    for combo in itertools.combinations(idx, d):
        if any(set(combo) <= r for r in ridges):
            continue
        base = coords[combo[0]]
        pivots, m = _bareiss([linalg.sub(coords[i], base) for i in combo[1:]], d)
        if len(pivots) < d - 1:
            continue
        free = next(c for c in range(d) if c not in pivots)
        y = [0] * d
        y[free] = m[-1][pivots[-1]] if pivots else 1
        for row, c in zip(m, pivots):
            y[c] = -row[free]
        values = {i: linalg.dot(y, linalg.sub(coords[i], base)) for i in idx}
        if min(values.values()) >= 0 or max(values.values()) <= 0:
            ridges.add(frozenset(i for i, v in values.items() if v == 0))
    return ridges


def _check_center(poly: Polytope) -> None:
    if poly.center is None:
        return
    vert_set = set(poly.vertices)
    for v in poly.vertices:
        if tuple(poly.dual_point(v)) not in vert_set:
            raise InternalInconsistencyError("claimed center is not a symmetry center")


def zonotope(generators) -> Polytope:
    """Minkowski sum of the segments [0,1]*g over the generators.

    Facet normals are the primitive vectors orthogonal to independent
    (r-1)-subsets of the generators and to the normals cutting out their
    span, r the rank of that span.  The subset lies in the span and those
    normals in its orthogonal complement, so their ranks add, and one
    kernel per subset answers both questions: a dependent subset leaves a
    kernel of dimension two or more.  Every zonotope is centrally symmetric
    about half the generator sum, and that center is recorded.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    if not gens:
        raise InputError("zonotope needs at least one generator")
    dim = len(gens[0])
    nonzero = sorted({g for g in gens if not linalg.is_zero(g)})
    center = linalg.scale(Fraction(1, 2), tuple(sum(c) for c in zip(*gens)))
    if not nonzero:
        hs = []
        for e in linalg.identity_matrix(dim):
            c = linalg.dot(center, e)
            hs.append(HalfSpace(tuple(e), c))
            hs.append(HalfSpace(linalg.primitive(linalg.neg(e)), -c))
        return Polytope(dim=dim, halfspaces=tuple(hs), vertices=(center,), center=center)
    span_cuts = _complement_rows(nonzero)
    normals = set()
    for combo in itertools.combinations(nonzero, dim - len(span_cuts) - 1):
        rows = [*combo, *span_cuts]
        # no rows at all only for a spanning set in dimension one
        kernel = linalg.kernel_basis(rows) if rows else [(Fraction(1),)]
        if len(kernel) != 1:
            continue
        nrm = linalg.primitive(kernel[0])
        normals.add(nrm)
        normals.add(linalg.primitive(linalg.neg(nrm)))
    halfspaces = []
    for nrm in sorted(normals):
        upper = sum(max(0, linalg.dot(g, nrm)) for g in gens)
        halfspaces.append(HalfSpace(linalg.primitive(linalg.neg(nrm)), Fraction(-upper)))
    for b in span_cuts:
        halfspaces.append(HalfSpace(b, Fraction(0)))
        halfspaces.append(HalfSpace(linalg.primitive(linalg.neg(b)), Fraction(0)))
    return from_halfspaces(halfspaces, center=center)


def _complement_rows(vectors) -> list[IntVec]:
    """Primitive normals cutting out the linear span of the vectors; none
    when they span the whole space."""
    return [linalg.primitive(b) for b in linalg.kernel_basis(vectors)]


def intersect(poly: Polytope, halfspaces) -> Polytope:
    """The polytope cut by extra half-spaces; with none, the polytope itself."""
    if not halfspaces:
        return poly
    return from_halfspaces(list(poly.halfspaces) + list(halfspaces))


def polytopes_equal(a: Polytope, b: Polytope) -> bool:
    return all(b.contains(v) for v in a.vertices) and all(a.contains(v) for v in b.vertices)
