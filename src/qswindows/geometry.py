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
solution, and a faulty elimination cannot pass.  ``intersect`` enumerates
nothing either: it cuts a polytope from its own vertices and incidence
table, one double-description step per half-space.  Both hand their
vertices and candidate half-spaces to ``_facets``: one integer pass over
candidates and vertices finds every tight set, keeps the facets, and
checks what it kept without enumerating vertices (vertices are feasible,
tight normals have full rank at each, and every ridge of every facet lies
in exactly two facets).  Those tight sets are the polytope's vertex-facet
incidence table, stored at construction.  A facet's ridges come from its
own vertices: a segment's are its endpoints, a simplex's its vertex
subsets, and a polygon's its edges, read off its boundary cycle with
integer cross products, so every facet of a polytope of dimension <= 3
is checked without trying vertex subsets; only facets of dimension >= 3
try them.

Queries run over the integers too.  Each polytope holds its half-spaces
once as integer normals n_i and offset numerators o_i over one common
denominator D, and ``translate`` shifts the numerators.  A point enters a
query once, as integer numerators over its own denominator, p = x/e, and
<p, n_i> >= o_i/D becomes <x, n_i> D >= o_i e.  The lattice scan compares
each integer box point with the thresholds ceil(o_i/D).  Faces are read off
the incidence table; a translate or a scaling carries it over, since
neither changes any vertex's tight set.

Zonotopes are built only from generators that span the space, as the
weights of a representation span its character lattice, so every zonotope
is full-dimensional; ``spanned_normals`` asks the same of its vectors.
Hyperplanes spanned by vectors are found with subsets over lines: the
distinct lines through the vectors, not the vectors, are the subsets'
members, and each subset's normal is one integer kernel (``_line``).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import linalg
from .errors import InputError, InternalInconsistencyError, UnsupportedDimensionError, _fmt
from .linalg import IntVec, Vec, _bareiss, _numerators

# the most integer points a lattice scan's bounding box may hold
LATTICE_SCAN_LIMIT = 10 ** 6
# the most subsets one subset enumeration may try
SUBSET_LIMIT = 10 ** 5


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
        if isinstance(self.offset, (float, bool)):
            linalg._exact(self.offset)  # refuses it with a one-line InputError


@dataclass(frozen=True, slots=True)
class Face:
    """A face keyed by the set of half-space indices tight on it, sorted
    once into ``key``."""

    facet_indices: frozenset[int]
    codim: int
    vertex_indices: tuple[int, ...]
    key: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "key", tuple(sorted(self.facet_indices)))


@dataclass(frozen=True)
class Polytope:
    dim: int
    halfspaces: tuple[HalfSpace, ...]
    vertices: tuple[Vec, ...]
    # the half-spaces over the integers: (normals, offset numerators, their
    # common denominator); derived from ``halfspaces`` when not given
    _table: tuple | None = field(default=None, repr=False, compare=False)
    # per vertex, the indices of the half-spaces tight at it; derived from
    # the vertices when not given
    _incidence: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._table is None:
            offsets, den = _numerators([h.offset for h in self.halfspaces])
            object.__setattr__(self, "_table", (tuple(h.normal for h in self.halfspaces),
                                                offsets, den))
        if self._incidence is None:
            object.__setattr__(self, "_incidence", tuple(map(self.tight_indices, self.vertices)))

    def _excess(self, nums, e: int):
        """Per half-space, the sign-exact excess den * e * (<p, n> - offset)
        of the point p = x/e, given as integer numerators x over e > 0: the
        integer <x, n> den - o e."""
        normals, offsets, den = self._table
        return (sum(map(mul, nums, n)) * den - o * e for n, o in zip(normals, offsets))

    def contains(self, point) -> bool:
        return all(v >= 0 for v in self._excess(*_numerators(point)))

    def tight_indices(self, point) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self._excess(*_numerators(point))) if not v)

    def translate(self, v) -> "Polytope":
        """The polytope moved by v.  The offset numerators move by <v, n>,
        over the least common denominator of theirs and v's.  Each vertex
        keeps its tight set, so the incidence table is carried over."""
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
            _table=(normals, moved, common),
            _incidence=self._incidence,
        )

    def scale(self, c) -> "Polytope":
        """The polytope scaled by c > 0 about the origin.  The offset
        numerators take c's numerator and the denominator c's denominator,
        and the incidence table is carried over."""
        c = linalg._exact(c)
        if c <= 0:
            raise InputError("scale factor must be positive")
        normals, offsets, den = self._table
        return Polytope(
            dim=self.dim,
            halfspaces=tuple(HalfSpace(h.normal, c * h.offset) for h in self.halfspaces),
            vertices=tuple(linalg.scale(c, x) for x in self.vertices),
            _table=(normals, tuple(o * c.numerator for o in offsets), den * c.denominator),
            _incidence=self._incidence,
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
            face = self._face(frozenset.intersection(*(tight_of_vertex[i] for i in vs)))
            if face.codim >= 1:
                out.append(face)
        out.sort(key=lambda f: (f.codim, f.key))
        return out

    def _face(self, tight) -> Face:
        """The face on which the half-spaces of ``tight`` are tight: its
        vertices are the polytope vertices tight on all of them.  ``tight``
        must be the whole tight set of the face."""
        vs = tuple(k for k, t in enumerate(self._incidence) if tight <= t)
        if not vs:
            raise InternalInconsistencyError("boundary point with no tight vertices")
        pts = [self.vertices[i] for i in vs]
        span = linalg.rank([linalg.sub(p, pts[0]) for p in pts[1:]])
        return Face(facet_indices=tight, codim=self.dim - span, vertex_indices=vs)

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
        return self._face(tight)

    def to_json(self) -> dict:
        return {
            "halfspaces": [
                {"normal": list(h.normal), "offset": str(Fraction(h.offset))}
                for h in self.halfspaces
            ],
            "vertices": sorted([str(Fraction(x)) for x in v] for v in self.vertices),
        }


def _subsets(items, k):
    """The k-subsets of the items, refused before the first when there are
    more than ``SUBSET_LIMIT`` of them."""
    count = math.comb(len(items), k)
    if count > SUBSET_LIMIT:
        raise UnsupportedDimensionError(
            f"enumeration of {count} subsets exceeds the limit {SUBSET_LIMIT}")
    return itertools.combinations(items, k)


def _scaled(halfspaces, vertices) -> tuple[IntVec, list[IntVec], int]:
    """Offsets and vertices as integers over one common denominator, and
    that denominator."""
    k, d = len(halfspaces), len(vertices[0])
    nums, den = _numerators([h.offset for h in halfspaces] + [x for v in vertices for x in v])
    return nums[:k], [nums[i:i + d] for i in range(k, len(nums), d)], den


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
    for combo in _subsets(sorted(offsets), dim):
        pivots, m = _bareiss([list(n) + list(e) for n, e in zip(combo, unit)], dim)
        if len(pivots) < dim:
            continue
        det = m[-1][dim - 1]
        adj = [row[dim:] for row in m]
        if det < 0:
            det, adj = -det, [[-a for a in row] for row in adj]
        for rhs in itertools.product(*(sorted(offsets[k]) for k in combo)):
            nums = [sum(map(mul, row, rhs)) for row in adj]
            if all(sum(map(mul, nrm, nums)) >= off * det for nrm, off in tests):
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


def from_halfspaces(halfspaces) -> Polytope:
    """Build a polytope from possibly redundant half-spaces, by vertex
    enumeration and then the facet rule of ``_facets``."""
    hs = _tightest(halfspaces)
    if not hs:
        raise InputError("a polytope needs at least one half-space")
    verts = _vertex_enumeration(hs, len(hs[0].normal))
    if not verts:
        raise InputError("half-spaces have empty intersection")
    return _polytope(hs, verts)


def _tightest(halfspaces) -> list[HalfSpace]:
    """Per normal only the tightest offset, sorted by normal: sorting puts
    the largest offset along each normal last, and the dict keeps it."""
    best = dict(sorted((tuple(h.normal), Fraction(h.offset)) for h in halfspaces))
    return [HalfSpace(nrm, off) for nrm, off in best.items()]


def _polytope(hs, verts) -> Polytope:
    """The polytope with the given vertices whose half-spaces are those of
    ``hs`` (one per normal, sorted, each holding on every vertex) that
    ``_facets`` keeps, with the tight sets it found as the incidence table."""
    verts = tuple(sorted(verts))
    kept, incidence = _facets(hs, verts)
    return Polytope(dim=len(verts[0]), halfspaces=kept, vertices=verts, _incidence=incidence)


def _check_h_v(poly: Polytope) -> None:
    """Check that the half-spaces cut out exactly the hull of the vertices:
    rebuilt from its own H and V by ``_facets``, the polytope keeps every
    half-space."""
    if len(_facets(poly.halfspaces, poly.vertices)[0]) != len(poly.halfspaces):
        raise InternalInconsistencyError("a half-space does not support a facet of the vertex hull")


def _facets(hs, verts) -> tuple[tuple[HalfSpace, ...], tuple[frozenset[int], ...]]:
    """The facet rule and its check: the candidate half-spaces that support
    facets of the hull of the vertices, and per vertex the indices of the
    kept ones tight at it.

    One pass of V*F integer dot products finds each candidate's tight
    vertex set.  With k the affine dimension of the vertices, a candidate
    stays when its tight set is (dim-1)-dimensional, i.e. it supports a
    facet; for k < dim every tight candidate stays (the facet test is
    vacuous there).  What stays is then checked, with no vertex
    enumeration, to cut out exactly the hull:

    * every vertex satisfies every candidate;
    * the kept normals tight at each vertex have rank ``dim`` (it is a vertex);
    * the kept half-spaces tight on every vertex cut out the affine hull:
      their normals have rank dim - k and each one's negative lies in their
      cone, so they hold with equality;
    * for k >= 1 at least one supports a (relative) facet, a
      (k-1)-dimensional vertex set;
    * every ridge of every (relative) facet, found from that facet's own
      vertices by ``_ridges`` (for a polygon, its edges in boundary order;
      vertex subsets only for facets of dimension >= 3), lies in exactly
      two facets.  The vertex-rank check comes first, so each vertex a
      polygon's boundary cycle runs through is extreme.

    Without the last condition a dropped facet of a non-simple polytope
    goes unseen: the octahedron without one facet still has three tight
    normals of rank 3 at every old vertex.  With it the facets found are
    every facet, as the facet-ridge graph of a polytope is connected.
    """
    dim = len(verts[0])
    offsets, pts, _ = _scaled(hs, verts)
    on: list[set[int]] = [set() for _ in hs]
    for i, p in enumerate(pts):
        for j, (h, off) in enumerate(zip(hs, offsets)):
            value = linalg.dot(h.normal, p)
            if value < off:
                raise InternalInconsistencyError(f"vertex {_fmt(verts[i])} violates a half-space")
            if value == off:
                on[j].add(i)
    k = _affine_rank(pts)
    ranks = [_affine_rank([pts[i] for i in ts]) if ts else -1 for ts in on]
    keep = [j for j, r in enumerate(ranks) if r >= 0 and (k < dim or r == dim - 1)]
    kept = tuple(hs[j] for j in keep)
    incidence = tuple(frozenset(a for a, j in enumerate(keep) if i in on[j]) for i in range(len(pts)))
    for v, tight in zip(verts, incidence):
        if _rank([kept[a].normal for a in tight]) != dim:
            raise InternalInconsistencyError(f"{_fmt(v)} is not a vertex of the half-spaces")
    equalities = [hs[j].normal for j in keep if len(on[j]) == len(pts)]
    if _rank(equalities) != dim - k or not all(
            _in_cone(linalg.neg(n), equalities) for n in equalities):
        raise InternalInconsistencyError("half-spaces do not cut out the affine hull of the vertices")
    facets = {frozenset(on[j]) for j in keep if ranks[j] == k - 1}
    if k >= 1 and not facets:
        raise InternalInconsistencyError("no half-space supports a facet of the vertex hull")
    for facet in facets:
        for ridge in _ridges(facet, pts):
            if sum(1 for f in facets if ridge <= f) != 2:
                raise InternalInconsistencyError(
                    "a ridge does not lie in exactly two facets: H and V representations disagree")
    return kept, incidence


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
        for sub in _subsets(gens, size):
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

    A facet of at most two vertices is a point or a segment, whose ridges
    are nothing or its two endpoints.  Otherwise the vertices go to integer
    coordinates in a basis of the facet's direction space, where the facet
    is d-dimensional.  A simplex's ridges are its d-subsets.  A polygon's
    (d = 2) are its edges, read off its boundary cycle: the vertices sorted
    around the lexicographically least one by integer cross products, each
    consecutive turn checked to be strictly convex.  They are in convex
    position, as ``_facets`` checks that each vertex is extreme before it
    asks for ridges; the turn check re-checks it, and a non-extreme point
    fails it.  For d >= 3 each affinely independent d-subset of the
    vertices spans a hyperplane; it bounds a ridge when all the facet's
    vertices lie on one side.
    """
    idx = sorted(facet)
    if len(idx) <= 2:
        return {frozenset((i,)) for i in idx if len(idx) == 2}
    diffs = {i: linalg.sub(pts[i], pts[idx[0]]) for i in idx}
    basis = [row for row in _bareiss(list(diffs.values()), len(pts[0]))[1] if any(row)]
    d = len(basis)
    if len(idx) == d + 1:  # a simplex: every d of its vertices span a ridge
        return {frozenset(c) for c in itertools.combinations(idx, d)}
    coords = {i: tuple(sum(map(mul, b, diff)) for b in basis) for i, diff in diffs.items()}
    if d == 2:  # a polygon: counterclockwise around its least vertex, turning left
        first = min(idx, key=coords.__getitem__)
        ring = [first, *sorted(set(idx) - {first}, key=functools.cmp_to_key(
            lambda i, j: _cross(coords[first], coords[j], coords[i])))]
        for k in range(len(ring)):
            if _cross(coords[ring[k - 2]], coords[ring[k - 1]], coords[ring[k]]) <= 0:
                raise InternalInconsistencyError(
                    "the vertices of a polygonal facet are not in strictly convex position")
        return {frozenset((ring[k - 1], ring[k])) for k in range(len(ring))}
    ridges: set[frozenset[int]] = set()
    for combo in _subsets(idx, d):
        if any(set(combo) <= r for r in ridges):
            continue
        base = coords[combo[0]]
        y = _line([linalg.sub(coords[i], base) for i in combo[1:]], d)
        if y is None:
            continue
        values = {i: linalg.dot(y, linalg.sub(coords[i], base)) for i in idx}
        if min(values.values()) >= 0 or max(values.values()) <= 0:
            ridges.add(frozenset(i for i, v in values.items() if v == 0))
    return ridges


def _cross(o, a, b) -> int:
    """The integer cross product of a - o and b - o in the plane."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _line(rows, dim) -> IntVec | None:
    """The primitive integer vector spanning the kernel of the integer rows,
    read off the free column of one Bareiss elimination, or None when the
    kernel is not a line."""
    pivots, m = _bareiss(rows, dim)
    if len(pivots) != dim - 1:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    y = [0] * dim
    y[free] = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    for row, c in zip(m, pivots):
        y[c] = -row[free]
    g = linalg.vec_gcd(y)
    return tuple(a // g for a in y)


def zonotope(generators) -> Polytope:
    """Minkowski sum of the segments [0,1]*g over the generators, which
    must span the space; any others are refused.

    Its facet normals are the ``spanned_normals`` of the generators, worked
    out over lines.
    """
    gens = linalg.int_rows(generators, "zonotope generators")
    if not gens:
        raise InputError("zonotope needs at least one generator")
    dim = len(gens[0])
    if not dim or any(len(g) != dim for g in gens):
        raise InputError("zonotope generators must share one positive length")
    if linalg.rank(gens) != dim:
        raise InputError("zonotope generators must span the space")
    halfspaces = []
    for nrm in spanned_normals(gens, dim):
        upper = sum(max(0, linalg.dot(g, nrm)) for g in gens)
        halfspaces.append(HalfSpace(linalg.neg(nrm), Fraction(-upper)))
    return from_halfspaces(halfspaces)


def _lines(vectors) -> list[IntVec]:
    """The distinct lines through the nonzero vectors, each as its
    sign-normalized primitive vector, sorted."""
    return sorted({linalg.sign_normalized(linalg.primitive(v))
                   for v in vectors if not linalg.is_zero(v)})


def spanned_normals(vectors, dim) -> list[IntVec]:
    """Both primitive normals, sorted, of each hyperplane that independent
    vectors among them span.  The vectors must span the space.

    Subsets over lines: a subset's kernel depends only on the lines its
    vectors lie on, and a subset that repeats a line is dependent, so each
    (dim-1)-subset of the distinct lines costs one ``_line`` elimination,
    and a dependent subset leaves a kernel of dimension two or more.
    """
    normals = set()
    for combo in _subsets(_lines(vectors), dim - 1):
        nrm = _line(combo, dim)
        if nrm is not None:
            normals.update((nrm, linalg.neg(nrm)))
    return sorted(normals)


def intersect(poly: Polytope, halfspaces) -> Polytope:
    """The polytope cut by extra half-spaces, from its own vertices and
    incidence table: one double-description step per half-space (Motzkin et
    al. 1953; Fukuda and Prodon 1996), with no vertex enumeration.

    A point is integer numerators x over a positive scale e, x/(eD) with D
    the common denominator, and lies s = <x, n> - o e above the cut
    <p, n> >= o/D.  The vertices with s >= 0 stay; each edge from s > 0 to
    s' < 0 gives s (x', e') - s' (x, e), reduced, where the plane meets it.
    Two vertices span an edge when the normals tight at both have rank
    dim - 1, and the new point is tight on those and the cut.  The facet
    rule of ``_facets`` then keeps the facets and checks the result.
    """
    hs = [*poly.halfspaces, *halfspaces]
    offsets, pts, den = _scaled(hs, poly.vertices)
    # each point as (*x, e), tight on the half-spaces of its index set
    rows = [((*x, 1), t) for x, t in zip(pts, poly._incidence)]
    for j in range(len(poly.halfspaces), len(hs)):
        cut = (*hs[j].normal, -offsets[j])
        signed = [(sum(map(mul, p, cut)), p, t) for p, t in rows]
        rows = [(p, t | {j} if s == 0 else t) for s, p, t in signed if s >= 0]
        for (s, p, t), (s2, p2, t2) in itertools.product(
                [r for r in signed if r[0] > 0], [r for r in signed if r[0] < 0]):
            common = t & t2
            if len(common) >= poly.dim - 1 and _rank([hs[i].normal for i in common]) == poly.dim - 1:
                y = [s * b - s2 * a for a, b in zip(p, p2)]
                g = gcd(*y)
                rows.append((tuple(a // g for a in y), common | {j}))
        if not rows:
            raise InputError("half-spaces have empty intersection")
    verts = [tuple(Fraction(a, p[-1] * den) for a in p[:-1]) for p, _ in rows]
    return _polytope(_tightest(hs), verts)
