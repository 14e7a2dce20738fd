import dataclasses
import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qswindows import catalog, geometry, linalg
from qswindows.errors import InputError, InternalInconsistencyError, UnsupportedDimensionError
from qswindows.geometry import HalfSpace, Polytope
from qswindows.rep import QSRep
from qswindows.root_data import RootDatum
from test_acceptance import CORPUS_COUNTS, CORPUS_SEED, box_points
from test_linalg import frac_rref, frac_solve


def interval_oracle(generators, scale=Fraction(1)):
    """All subset sums of a 1-d generator list give the exact endpoints."""
    sums = [Fraction(0)]
    for (g,) in generators:
        sums = [s + c * g * scale for s in sums for c in (0, 1)]
    return min(sums), max(sums)


def hull2d_oracle(points):
    """Monotone-chain convex hull over exact rationals."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return sorted(set(lower[:-1] + upper[:-1]))


GL2_WEIGHTS = [(3, 0), (2, 1), (1, 2), (0, 3), (-3, 0), (-2, -1), (-1, -2), (0, -3)]


def barycenter(poly, face):
    """The mean of a face's vertices, a point of its relative interior."""
    pts = [poly.vertices[i] for i in face.vertex_indices]
    return tuple(sum(Fraction(p[j]) for p in pts) / len(pts) for j in range(poly.dim))


# The Fraction half-space tests that the integer tables replaced, kept as the
# reference they must match exactly.

def frac_value(h, point) -> Fraction:
    return sum((Fraction(x) * c for x, c in zip(point, h.normal, strict=True)), Fraction(0))


def frac_contains(h, point) -> bool:
    return frac_value(h, point) >= h.offset


def frac_tight(h, point) -> bool:
    return frac_value(h, point) == h.offset


def test_zonotope_intervals():
    z = geometry.zonotope([(1,), (1,), (-1,), (-1,)])
    assert sorted(z.vertices) == [(-2,), (2,)]
    z = geometry.zonotope([(1,), (-1,)]).scale(Fraction(1, 2))
    assert sorted(z.vertices) == [(Fraction(-1, 2),), (Fraction(1, 2),)]
    lo, hi = interval_oracle([(1,), (1,), (-1,), (-1,)])
    assert (lo, hi) == (-2, 2)


@pytest.mark.parametrize("gens, message", [
    ([(0,), (0,)], "zonotope generators must span the space"),
    ([(1, 0), (-1, 0), (2, 0)], "zonotope generators must span the space"),
    ([(1, 0), (1,), (-1, 0), (0, 1), (0, -1)], "zonotope generators must share one positive length"),
    ([(), ()], "zonotope generators must share one positive length"),
], ids=["all-zero", "non-spanning", "ragged", "empty-vectors"])
def test_zonotope_refuses_generators_that_do_not_span(gens, message):
    with pytest.raises(InputError) as info:
        geometry.zonotope(gens)
    assert str(info.value) == message


def test_zonotope_matches_hull_oracle():
    z = geometry.zonotope(GL2_WEIGHTS)
    sums = [(Fraction(0), Fraction(0))]
    for g in GL2_WEIGHTS:
        sums = [linalg.add(s, linalg.scale(c, g)) for s in sums for c in (0, 1)]
    hull = hull2d_oracle([tuple(p) for p in sums])
    assert sorted(map(tuple, z.vertices)) == hull
    # vertex enumeration oracle for the outline: 8 facets and 8 vertices
    assert len(z.vertices) == 8
    assert len(z.halfspaces) == 8


@st.composite
def generator_sets(draw):
    """Integer generators in dims 1-3 that span: a random basis and up to
    three combinations of it, so multiples of a basis vector and zero
    vectors can occur, shuffled."""
    dim = draw(st.integers(1, 3))
    coord = st.integers(-3, 3)
    basis = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim, max_size=dim)
                 .filter(lambda b: linalg.rank(b) == dim))
    coeffs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                           max_size=3))
    combos = [tuple(sum(c * b[i] for c, b in zip(cs, basis)) for i in range(dim))
              for cs in coeffs]
    return draw(st.permutations(basis + combos))


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_zonotope_matches_subset_sum_oracle(gens):
    """The zonotope is the hull of the 0/1 subset sums: each vertex is one,
    each one is contained, and it is symmetric about half the generator sum:
    with s the sum, s - v is a vertex for every vertex v."""
    z = geometry.zonotope(gens)
    sums = {tuple(sum(c) for c in zip(*combo)) if combo else (0,) * len(gens[0])
            for k in range(len(gens) + 1) for combo in itertools.combinations(gens, k)}
    assert set(z.vertices) <= sums
    assert all(z.contains(s) for s in sums)
    total = tuple(sum(c) for c in zip(*gens))
    assert {linalg.sub(total, v) for v in z.vertices} == set(z.vertices)


def frac_spanned_normals(vectors, dim):
    """The hyperplane normals the old way: a Fraction kernel basis of every
    (dim-1)-subset of the distinct nonzero vectors; a one-vector basis gives
    both its primitive signs."""
    nonzero = sorted({tuple(v) for v in vectors if any(v)})
    normals = set()
    for combo in itertools.combinations(nonzero, dim - 1):
        kernel = linalg.kernel_basis(combo) if combo else [(Fraction(1),)]
        if len(kernel) == 1:
            nrm = linalg.primitive(kernel[0])
            normals |= {nrm, linalg.neg(nrm)}
    return sorted(normals)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_spanned_normals_match_fraction_kernel_oracle(data):
    """Subsets over lines give the normals of subsets over vectors, with
    parallel generators (b, 2b, -b) and zero vectors, on spanning sets."""
    dim = data.draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-2, 2)] * dim)
    base = data.draw(st.lists(vector, min_size=dim, max_size=max(dim, 4))
                     .filter(lambda b: linalg.rank(b) == dim))
    multiples = st.sampled_from([(1,), (1, 2), (1, -1), (1, 2, -1)])
    vectors = [linalg.scale(c, b) for b in base for c in data.draw(multiples)]
    vectors += data.draw(st.lists(vector, max_size=2))
    assert geometry.spanned_normals(vectors, dim) == frac_spanned_normals(vectors, dim)


def test_zonotope_empty_rejected():
    with pytest.raises(InputError):
        geometry.zonotope([])


def test_zonotope_refuses_non_integer_generators():
    """A float, bool or fraction entry is refused, not truncated to an int."""
    for gens, bad in (([(1.7,), (-1.2,)], "1.7"), ([(1, 0), (0, True)], "True"),
                      ([(Fraction(1, 2),)], "Fraction")):
        with pytest.raises(InputError, match=f"^zonotope generators must hold integers only, "
                                             f"got {bad}"):
            geometry.zonotope(gens)


def test_faces_interval():
    box = geometry.zonotope([(1,), (1,)])
    faces = box.faces()
    assert sorted((f.codim, barycenter(box, f)) for f in faces) == [(1, (0,)), (1, (2,))]


def test_faces_unit_square():
    square = geometry.zonotope([(1, 0), (0, 1)])
    faces = square.faces()
    assert sum(1 for f in faces if f.codim == 1) == 4
    assert sum(1 for f in faces if f.codim == 2) == 4


def test_faces_octagon():
    z = geometry.zonotope(GL2_WEIGHTS).scale(Fraction(1, 2))
    faces = z.faces()
    assert sum(1 for f in faces if f.codim == 1) == 8
    assert sum(1 for f in faces if f.codim == 2) == 8
    for f in faces:
        assert z.tight_indices(barycenter(z, f)) == f.facet_indices


def test_euler_characteristic_spheres():
    cases = [
        geometry.zonotope([(1,), (1,), (-1,)]),
        geometry.zonotope([(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)]),
        geometry.zonotope([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
    ]
    for poly in cases:
        n = poly.dim
        counts = {}
        for f in poly.faces():
            counts[n - f.codim] = counts.get(n - f.codim, 0) + 1
        chi = sum((-1) ** d * counts.get(d, 0) for d in range(n))
        assert chi == 1 + (-1) ** (n - 1)


def test_lattice_points_examples():
    seg = geometry.from_halfspaces([
        HalfSpace((1,), Fraction(-1, 2)), HalfSpace((-1,), Fraction(-3, 2)),
    ])
    assert seg.lattice_points() == ([(0,), (1,)], [])
    seg2 = geometry.from_halfspaces([
        HalfSpace((1,), Fraction(-3, 2)), HalfSpace((-1,), Fraction(-3, 2)),
    ])
    assert seg2.lattice_points() == ([(-1,), (0,), (1,)], [])


def test_lattice_points_non_integral_point():
    half = geometry.from_halfspaces([
        HalfSpace((1,), Fraction(1, 2)), HalfSpace((-1,), Fraction(-1, 2)),
    ])
    assert half.vertices == ((Fraction(1, 2),),)
    assert half.lattice_points() == ([], [])


def test_lattice_points_match_scan_oracle():
    z = geometry.zonotope(GL2_WEIGHTS).scale(Fraction(1, 2))
    oracle = [p for p in box_points(z) if all(frac_contains(h, p) for h in z.halfspaces)]
    assert z.lattice_points()[0] == sorted(oracle)


def test_subset_limit_refuses_before_enumerating():
    # one facet of the 8-cube has 128 vertices, and its ridges would take
    # C(128, 7) vertex subsets
    with pytest.raises(UnsupportedDimensionError,
                       match="enumeration of 94525795200 subsets exceeds the limit"):
        geometry.zonotope(linalg.identity_matrix(8))
    # the count is read before anything is enumerated, up to the limit itself
    assert next(geometry._subsets(range(geometry.SUBSET_LIMIT), 1)) == (0,)
    with pytest.raises(UnsupportedDimensionError, match=f"{geometry.SUBSET_LIMIT + 1} subsets"):
        geometry._subsets(range(geometry.SUBSET_LIMIT + 1), 1)


def test_dual_point_and_face():
    """[0, 2] is symmetric about 1: the dual 2 - x of one end's barycenter
    is the other end, and dualising again comes back."""
    box = geometry.zonotope([(1,), (1,)])
    f0 = box.face_at((Fraction(0),))
    f2 = box.face_at(linalg.sub((2,), barycenter(box, f0)))
    assert barycenter(box, f2) == (2,)
    assert box.face_at(linalg.sub((2,), barycenter(box, f2))).facet_indices == f0.facet_indices


def test_dual_face_involution_octagon():
    """Half the octagon is symmetric about 0: the face through minus a
    face's barycenter has the same codimension, the negated normals, and
    leads back."""
    z = geometry.zonotope(GL2_WEIGHTS).scale(Fraction(1, 2))
    normals = lambda face: {z.halfspaces[i].normal for i in face.facet_indices}
    for f in z.faces():
        g = z.face_at(linalg.neg(barycenter(z, f)))
        assert g.codim == f.codim
        assert normals(g) == {linalg.neg(n) for n in normals(f)}
        assert z.face_at(linalg.neg(barycenter(z, g))).facet_indices == f.facet_indices


def test_h_v_cross_validation():
    z = geometry.zonotope(GL2_WEIGHTS)
    rebuilt = geometry.from_halfspaces(z.halfspaces)
    assert set(rebuilt.vertices) == set(z.vertices)


def test_translate_and_scale():
    z = geometry.zonotope([(1,), (-1,)])
    t = z.translate((Fraction(1, 2),))
    assert sorted(t.vertices) == [(Fraction(-1, 2),), (Fraction(3, 2),)]
    s = z.scale(Fraction(3))
    assert sorted(s.vertices) == [(-3,), (3,)]
    # scaling the zonotope equals cutting it out with halved offsets, which
    # the window-polytope cross-check relies on for half the zonotope
    for gens in ([(1,), (1,), (-1,)],
                 [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)],
                 [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
                 GL2_WEIGHTS):
        z = geometry.zonotope(gens)
        half = geometry.from_halfspaces([HalfSpace(h.normal, h.offset / 2) for h in z.halfspaces])
        scaled = z.scale(Fraction(1, 2))
        assert scaled.halfspaces == half.halfspaces
        assert sorted(scaled.vertices) == sorted(half.vertices)


def test_face_at_sample_matches_faces(small_corpus):
    """face_at, from a point's tight set, agrees with the faces found by
    intersecting facet vertex sets, on half-zonotopes and their translates."""
    gens = [r.weights for r in small_corpus] + [GL2_WEIGHTS]
    for weights in gens:
        half = geometry.zonotope(weights).scale(Fraction(1, 2))
        shift = tuple(Fraction(1, 3 + j) for j in range(half.dim))
        for poly in (half, half.translate(shift)):
            faces = poly.faces()
            assert faces
            for f in faces:
                assert poly.face_at(barycenter(poly, f)) == f


def test_face_at_rejects_interior_and_outside():
    z = geometry.zonotope([(1,), (-1,)])
    with pytest.raises(InputError):
        z.face_at((Fraction(0),))
    with pytest.raises(InputError):
        z.face_at((Fraction(5),))


def test_on_boundary_means_inside_and_tight():
    z = geometry.zonotope([(1,), (-1,)])
    points = [(Fraction(x, 2),) for x in range(-4, 5)]
    assert [p for p in points if z.contains(p) and z.tight_indices(p)] == [(-1,), (1,)]


# -- the integer vertex kernel and the H/V incidence check --------------------


def rref_vertex_enumeration(halfspaces, dim):
    """Reference oracle: a Fraction rank test and solve, by Gauss-Jordan
    over Fraction, for every dim-subset of the distinct hyperplanes, kept if
    the solution satisfies everything."""
    hyperplanes = {}
    for h in halfspaces:
        key = linalg.sign_normalized(h.normal)
        off = Fraction(h.offset) if key == tuple(h.normal) else -Fraction(h.offset)
        hyperplanes[(key, off)] = None
    verts = set()
    for combo in itertools.combinations(sorted(hyperplanes), dim):
        rows = [list(k[0]) for k in combo]
        if any(not any(row) for row in frac_rref(rows)):
            continue
        sol = frac_solve(rows, [k[1] for k in combo])
        if sol is not None and all(frac_contains(h, sol) for h in halfspaces):
            verts.add(sol)
    return sorted(verts)


def halfspace(normal, offset):
    return HalfSpace(tuple(normal), Fraction(offset))


def cube(dim, r=1):
    """|x_i| <= r."""
    return [halfspace(linalg.scale(s, e), -Fraction(r))
            for e in linalg.identity_matrix(dim) for s in (1, -1)]


def cross_polytope(dim, r=1):
    """sum |x_i| <= r: 2^dim facets, each vertex on 2^(dim-1) of them."""
    return [halfspace(signs, -Fraction(r)) for signs in itertools.product((1, -1), repeat=dim)]


def random_halfspaces(rng, dim, count):
    """Random cuts of a box with mixed-denominator offsets; sometimes an
    equality pair, so lower-dimensional intersections occur too."""
    out = [halfspace(h.normal, h.offset / rng.choice((1, 2, 3)) - rng.randint(0, 2))
           for h in cube(dim, 2)]
    for _ in range(count):
        nrm = tuple(rng.randint(-3, 3) for _ in range(dim))
        if linalg.is_zero(nrm):
            continue
        nrm = linalg.primitive(nrm)
        off = Fraction(rng.randint(-9, 3), rng.choice((1, 2, 3, 5, 7)))
        out.append(HalfSpace(nrm, off))
        if rng.random() < 0.15:
            out.append(HalfSpace(linalg.neg(nrm), -off))
    return out


def named_cases():
    zono = [[(1,), (1,), (-1,)], GL2_WEIGHTS,
            [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)],
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]]
    cases = [cube(d) for d in (1, 2, 3, 4)] + [cross_polytope(d) for d in (2, 3, 4)]
    cases += [list(geometry.zonotope(g).scale(Fraction(1, 2)).halfspaces) for g in zono]
    # a triangle whose (1, 1), (1, -1) elimination ends on the pivot -2
    cases.append([halfspace((1, 1), Fraction(-1, 2)), halfspace((1, -1), Fraction(-1, 3)),
                  halfspace((-1, 0), Fraction(-2, 5))])
    return cases


def test_vertex_kernel_matches_rref_oracle():
    rng = random.Random(20250810)
    cases = named_cases()
    for dim, count, sets in ((1, 3, 25), (2, 5, 25), (3, 5, 20), (4, 3, 10)):
        cases += [random_halfspaces(rng, dim, count) for _ in range(sets)]
    nonempty = 0
    for hs in cases:
        dim = len(hs[0].normal)
        verts = geometry._vertex_enumeration(hs, dim)
        assert verts == rref_vertex_enumeration(hs, dim)
        if verts:
            nonempty += 1
            poly = geometry.from_halfspaces(hs)
            assert sorted(poly.vertices) == verts
    assert nonempty > len(cases) // 2


def test_vertex_kernel_empty_intersection():
    for hs in ([halfspace((1,), 1), halfspace((-1,), 0)],
               cube(3) + [halfspace((1, 1, 1), Fraction(7, 2))]):
        dim = len(hs[0].normal)
        assert geometry._vertex_enumeration(hs, dim) == []
        assert rref_vertex_enumeration(hs, dim) == []
        with pytest.raises(InputError):
            geometry.from_halfspaces(hs)


def test_h_v_check_catches_a_dropped_vertex():
    octa = geometry.from_halfspaces(cross_polytope(3))
    bad = Polytope(octa.dim, octa.halfspaces, octa.vertices[1:])
    with pytest.raises(InternalInconsistencyError):
        geometry._check_h_v(bad)


def test_h_v_check_catches_an_added_point():
    octa = geometry.from_halfspaces(cross_polytope(3))
    for extra in ((0, 0, 0), (Fraction(1, 2), Fraction(1, 2), 0)):
        bad = Polytope(octa.dim, octa.halfspaces, octa.vertices + (linalg.vec(extra),))
        with pytest.raises(InternalInconsistencyError):
            geometry._check_h_v(bad)


def test_h_v_check_catches_a_dropped_facet_of_a_non_simple_polytope():
    octa = geometry.from_halfspaces(cross_polytope(3))
    geometry._check_h_v(octa)
    kept = tuple(h for h in octa.halfspaces if h.normal != (-1, -1, -1))
    assert len(kept) == 7
    with pytest.raises(InternalInconsistencyError):
        geometry._check_h_v(Polytope(3, kept, octa.vertices))
    # the remaining half-spaces have the extra vertex (1, 1, 1)
    assert (1, 1, 1) in rref_vertex_enumeration(kept, 3)


def test_h_v_check_refuses_a_supporting_half_space_that_is_no_facet():
    """x + y + z >= -3 holds on the cube |x_i| <= 1 and is tight only at
    (-1, -1, -1): it supports the cube at a vertex, not along a facet, so
    the facet rule drops it and the standalone check refuses it."""
    corner = halfspace((1, 1, 1), -3)
    box = geometry.from_halfspaces(cube(3))
    assert [v for v in box.vertices if sum(v) == -3] == [(-1, -1, -1)]
    assert geometry.from_halfspaces([*cube(3), corner]) == box
    with pytest.raises(InternalInconsistencyError, match="does not support a facet"):
        geometry._check_h_v(Polytope(3, box.halfspaces + (corner,), box.vertices))


def test_h_v_check_on_lower_dimensional_polytopes():
    point = geometry.from_halfspaces([halfspace((1,), Fraction(1, 2)),
                                      halfspace((-1,), Fraction(-1, 2))])
    upper = tuple(h for h in point.halfspaces if h.normal == (1,))
    with pytest.raises(InternalInconsistencyError):
        geometry._check_h_v(Polytope(1, upper, point.vertices))
    segment = geometry.from_halfspaces([halfspace((0, 1), 0), halfspace((0, -1), 0),
                                        halfspace((1, 0), 0), halfspace((-1, 0), -1)])
    assert sorted(segment.vertices) == [(0, 0), (1, 0)]
    with pytest.raises(InternalInconsistencyError):
        geometry._check_h_v(Polytope(2, segment.halfspaces, ((0, 0),)))


def test_h_v_check_catches_a_dropped_triangle_of_the_cuboctahedron():
    """Without one triangle every cuboctahedron vertex keeps a triangle and
    two squares, whose normals have rank 3, so only the ridge check sees
    the gap: each square next to the dropped triangle has an edge that lies
    in no other kept facet.  Triangles meet only squares, so the squares'
    edges, read off their boundary cycles, must catch it."""
    signs = list(itertools.product((1, -1), repeat=3))
    cubo = geometry.from_halfspaces(cube(3) + [halfspace(s, -2) for s in signs])
    assert len(cubo.vertices) == 12 and len(cubo.halfspaces) == 14
    geometry._check_h_v(cubo)
    kept = tuple(h for h in cubo.halfspaces if h.normal != (-1, -1, -1))
    bad = Polytope(3, kept, cubo.vertices)
    assert all(geometry._rank([kept[i].normal for i in t]) == 3 for t in bad._incidence)
    with pytest.raises(InternalInconsistencyError, match="ridge does not lie in exactly two facets"):
        geometry._check_h_v(bad)


# -- facet ridges: the polygon route against the subset route -------------------

def subset_ridges(facet, pts):
    """Reference oracle: the ridges of a facet of any dimension by the
    subset route, as ``geometry._ridges`` found them before polygons read
    their edges off the boundary cycle.  Each affinely independent d-subset
    of the facet's vertices, in integer coordinates on the facet, spans a
    hyperplane that bounds a ridge when every vertex lies on one side."""
    idx = sorted(facet)
    diffs = {i: linalg.sub(pts[i], pts[idx[0]]) for i in idx}
    basis = [row for row in geometry._bareiss(list(diffs.values()), len(pts[0]))[1] if any(row)]
    d = len(basis)
    if d == 0:
        return set()
    if len(idx) == d + 1:
        return {frozenset(c) for c in itertools.combinations(idx, d)}
    coords = {i: tuple(linalg.dot(b, diff) for b in basis) for i, diff in diffs.items()}
    ridges = set()
    for combo in itertools.combinations(idx, d):
        if any(set(combo) <= r for r in ridges):
            continue
        base = coords[combo[0]]
        y = geometry._line([linalg.sub(coords[i], base) for i in combo[1:]], d)
        if y is None:
            continue
        values = {i: linalg.dot(y, linalg.sub(coords[i], base)) for i in idx}
        if min(values.values()) >= 0 or max(values.values()) <= 0:
            ridges.add(frozenset(i for i, v in values.items() if v == 0))
    return ridges


def assert_ridge_routes_agree(poly) -> int:
    """Both routes give the same ridges on every facet of the polytope, in
    the integer coordinates ``_facets`` hands them; returns how many of the
    facets are polygons."""
    _, pts, _ = geometry._scaled(poly.halfspaces, poly.vertices)
    polygons = 0
    for j in range(len(poly.halfspaces)):
        facet = frozenset(i for i, t in enumerate(poly._incidence) if j in t)
        assert geometry._ridges(facet, pts) == subset_ridges(facet, pts)
        polygons += len(facet) > 3 and geometry._affine_rank([pts[i] for i in facet]) == 2
    return polygons


def rep_polytopes(reps):
    return [p for rep in reps for p in (rep.sigma, rep.half_sigma, rep.nabla)]


@pytest.fixture(scope="module")
def corpus_and_ridge_subsets():
    """The acceptance corpus (seed 20250810), built while counting the
    subset enumerations that ``_ridges`` asks for."""
    callers = []
    subsets = geometry._subsets

    def counted(items, k):
        callers.append(sys._getframe(1).f_code.co_name)
        return subsets(items, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_subsets", counted)
        reps = catalog.random_corpus(CORPUS_SEED, CORPUS_COUNTS)
        # a 4-cube's facets are 3-cubes, whose ridges still come from subsets
        geometry.zonotope(linalg.identity_matrix(4))
    return reps, callers


def test_no_corpus_build_enumerates_ridge_subsets(corpus_and_ridge_subsets):
    """Every facet of a rank <= 3 corpus polytope is a point, a segment or a
    polygon, so no build tries vertex subsets for ridges; the one 4-cube
    built after the corpus does."""
    reps, callers = corpus_and_ridge_subsets
    assert max(r.rank for r in reps) == 3
    assert callers[-1] == "_ridges" and callers.count("_ridges") == 8
    assert "_vertex_enumeration" in callers


def test_polygon_ridges_match_the_subset_route_on_the_corpus(corpus_and_ridge_subsets):
    reps, _ = corpus_and_ridge_subsets
    assert len(reps) == 210
    assert sum(map(assert_ridge_routes_agree, rep_polytopes(reps))) > 0


def test_polygon_ridges_match_the_subset_route():
    """The bundled reps, GL(2) on std + dual, GL(3) on 4 x (std + dual) and
    the CY models' g1 reps."""
    from test_windows import _gl3_std_dual  # test_windows imports this module
    reps = [*catalog.bundled_reps().values(), _gl3_std_dual(),
            QSRep.build(RootDatum.gl(2), ((1, 0), (-1, 0), (0, 1), (0, -1))),
            *(model.g1_rep for model in catalog.bundled_cy_models().values())]
    assert sum(map(assert_ridge_routes_agree, rep_polytopes(reps))) > 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=3, max_size=7)
       .filter(lambda gens: linalg.rank(gens) == 3))
def test_polygon_ridges_match_the_subset_route_on_zonotopes(gens):
    """Zonotopes of random integer generators in dimension 3, whose facets
    are centrally symmetric polygons."""
    assert_ridge_routes_agree(geometry.zonotope(gens))


@pytest.mark.parametrize("extra", [(1, 1, 0), (1, 0, 0), (2, 1, 0)])
def test_polygon_ridges_refuse_a_point_that_is_no_vertex(extra):
    """A polygon's vertex list holding its centre, an edge midpoint or a
    point inside fails the turn check."""
    square = [(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)]
    assert geometry._ridges(frozenset(range(4)), square) == {
        frozenset(e) for e in ((0, 1), (1, 2), (2, 3), (3, 0))}
    with pytest.raises(InternalInconsistencyError, match="not in strictly convex position"):
        geometry._ridges(frozenset(range(5)), [*square, extra])


def test_short_facets_have_their_endpoints_as_ridges():
    pts = [(0, 0), (3, 1)]
    assert geometry._ridges(frozenset({0}), pts) == set()
    assert geometry._ridges(frozenset({0, 1}), pts) == {frozenset({0}), frozenset({1})}


def test_scale_and_half_space_offsets_refuse_floats_and_bools():
    """A float's binary value is not the rational it spells, so a float or
    bool scale factor or half-space offset is refused, not coerced; ints
    and Fractions are kept as they are."""
    segment = geometry.zonotope([(1,), (1,)])
    for bad in (0.1, True):
        message = f"^{bad!r} is a {type(bad).__name__}, not an exact rational; give it as p/q$"
        with pytest.raises(InputError, match=message):
            segment.scale(bad)
        with pytest.raises(InputError, match=message):
            geometry.from_halfspaces([HalfSpace((1,), bad), halfspace((-1,), -1)])
        with pytest.raises(InputError, match=message):
            Polytope(1, (HalfSpace((1,), bad),), ((Fraction(1),),))
        with pytest.raises(InputError, match=message):
            segment.lattice_points(extra=(HalfSpace((1,), bad),))
    assert segment.scale(3).vertices == ((0,), (6,))
    assert HalfSpace((1,), 2).offset == 2 and type(HalfSpace((1,), 2).offset) is int
    assert segment.lattice_points(extra=(HalfSpace((1,), Fraction(1, 2)),)) == ([(1,), (2,)], [(2,)])


# -- the integer read side against the Fraction oracle -------------------------

def frac_lattice_points(poly, extra=()):
    """The integer points of the polytope meeting the extra half-spaces, by
    ``Fraction`` tests over the vertices' box, and those of them on the
    polytope's boundary."""
    points = [p for p in box_points(poly)
              if all(frac_contains(h, p) for h in poly.halfspaces + tuple(extra))]
    return points, [p for p in points if any(frac_tight(h, p) for h in poly.halfspaces)]


small_fractions = st.fractions(-3, 3, max_denominator=6)


@st.composite
def rational_polytopes(draw):
    """A box |x_i| <= r_i cut by random half-spaces, all with mixed
    denominators; every cut keeps the origin, and an opposite pair through
    the origin makes it lower-dimensional."""
    dim = draw(st.integers(1, 4))
    hs = []
    for e in linalg.identity_matrix(dim):
        for s in (1, -1):
            hs.append(HalfSpace(linalg.scale(s, e),
                                -draw(st.fractions(Fraction(1, 3), 3, max_denominator=5))))
    for _ in range(draw(st.integers(0, 3))):
        nrm = draw(st.tuples(*[st.integers(-3, 3)] * dim).filter(lambda v: any(v)))
        nrm = linalg.primitive(nrm)
        if draw(st.integers(0, 9)) == 0:
            hs += [HalfSpace(nrm, Fraction(0)), HalfSpace(linalg.neg(nrm), Fraction(0))]
        else:
            hs.append(HalfSpace(nrm, draw(st.fractions(-3, 0, max_denominator=7))))
    return geometry.from_halfspaces(hs)


@settings(deadline=None, max_examples=100)
@given(poly=rational_polytopes(), data=st.data())
def test_integer_half_space_tests_match_fraction_oracle(poly, data):
    shift = data.draw(st.tuples(*[small_fractions] * poly.dim))
    moved = poly.translate(shift)
    assert moved.halfspaces == tuple(HalfSpace(h.normal, h.offset + frac_value(h, shift))
                                     for h in poly.halfspaces)
    _check_against_fraction_oracle(data.draw(st.sampled_from((poly, moved))), data)


def _scan_shift(data, poly):
    """A drawn shift: mixed denominators, or one that moves a vertex onto a
    lattice point, so that the moved polytope has a boundary lattice point."""
    shift = data.draw(st.tuples(*[small_fractions] * poly.dim))
    if data.draw(st.booleans()):
        vertex = data.draw(st.sampled_from(poly.vertices))
        shift = tuple(round(a) - x for a, x in zip(shift, vertex))
    return shift


def _check_shifted_scan(poly, extra, shift, k):
    """``lattice_points`` at (d, e), d/e = shift over a denominator k times
    its least, against the translate route (the moved polytope scanned,
    its boundary read with ``tight_indices``) and the ``Fraction`` oracle."""
    d, e = linalg._numerators(shift)
    moved = poly.translate(shift)
    points = moved.lattice_points(extra)[0]
    route = points, [p for p in points if moved.tight_indices(p)]
    assert poly.lattice_points(extra, (tuple(k * x for x in d), k * e)) == route
    assert route == frac_lattice_points(moved, extra)


@settings(deadline=None, max_examples=150)
@given(poly=rational_polytopes(), data=st.data())
def test_shifted_scan_matches_translate_route(poly, data):
    extra = ()
    if data.draw(st.booleans()):
        nrm = data.draw(st.tuples(*[st.integers(-2, 2)] * poly.dim).filter(any))
        extra = (HalfSpace(linalg.primitive(nrm), data.draw(small_fractions)),)
    _check_shifted_scan(poly, extra, _scan_shift(data, poly), data.draw(st.integers(1, 3)))


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_shifted_scan_on_bundled_nablas(bundled_reps, data):
    """Each bundled nabla with its rep's dominant cone, as a window scans it."""
    rep = data.draw(st.sampled_from(bundled_reps))
    _check_shifted_scan(rep.nabla, rep.root_datum.dominant_cone,
                        _scan_shift(data, rep.nabla), data.draw(st.integers(1, 3)))


@pytest.fixture(scope="module")
def bundled_reps():
    return list(catalog.bundled_reps().values())


@pytest.fixture(scope="module")
def bundled_polytopes(bundled_reps):
    """(1/2)Sigma and nabla of each bundled rep."""
    return [p for rep in bundled_reps for p in (rep.half_sigma, rep.nabla)]


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_translate_carries_the_incidence_table(bundled_polytopes, data):
    """A translation or a positive scaling keeps every vertex's tight set,
    so ``translate`` and ``scale`` carry the table, and it equals one worked
    out afresh."""
    poly = data.draw(st.sampled_from(bundled_polytopes))
    shift = data.draw(st.tuples(*[small_fractions] * poly.dim))
    factor = data.draw(st.fractions(Fraction(1, 5), 5, max_denominator=6))
    for moved in (poly, poly.translate(shift), poly.scale(factor)):
        assert moved._incidence is poly._incidence
        assert moved._incidence == tuple(moved.tight_indices(x) for x in moved.vertices)


def test_built_polytopes_carry_their_tables(monkeypatch):
    """Building the bundled GL(2) rep works out no vertex's tight set with
    ``tight_indices``: each built polytope takes its table from the facet
    rule, and the scaling and translate carry theirs.  ``face_at`` on
    (1/2)Sigma then asks only for its query point."""
    asked = []
    tight_indices = Polytope.tight_indices

    def counted(self, point):
        asked.append(tuple(point))
        return tight_indices(self, point)

    monkeypatch.setattr(Polytope, "tight_indices", counted)
    rep = QSRep.build(RootDatum.gl(2), catalog.GL2_WEIGHTS)
    assert asked == []
    half_sigma = rep.half_sigma
    sample = barycenter(half_sigma, half_sigma.faces()[0])
    assert sample not in half_sigma.vertices
    half_sigma.face_at(sample)
    assert asked == [sample]


def _check_against_fraction_oracle(poly, data):
    dim = poly.dim
    points = [data.draw(st.tuples(*[small_fractions] * dim)),
              data.draw(st.tuples(*[st.integers(-4, 4)] * dim))]
    # vertices and midpoints of vertex pairs sit on faces
    points.append(data.draw(st.sampled_from(poly.vertices)))
    a, b = data.draw(st.sampled_from(poly.vertices)), data.draw(st.sampled_from(poly.vertices))
    points.append(tuple((x + y) / 2 for x, y in zip(a, b)))
    for p in points:
        tight = frozenset(i for i, h in enumerate(poly.halfspaces) if frac_tight(h, p))
        inside = all(frac_contains(h, p) for h in poly.halfspaces)
        assert poly.contains(p) == inside
        assert poly.tight_indices(p) == tight
        assert (poly.contains(p) and bool(poly.tight_indices(p))) == (
            min(frac_value(h, p) - h.offset for h in poly.halfspaces) == 0)
        if inside and tight and poly.is_full_dimensional():
            face = poly.face_at(p)
            assert face.facet_indices == tight
            assert face.vertex_indices == tuple(
                k for k, v in enumerate(poly.vertices)
                if all(frac_tight(poly.halfspaces[i], v) for i in tight))
    nrm = data.draw(st.tuples(*[st.integers(-2, 2)] * dim).filter(lambda v: any(v)))
    extra = (HalfSpace(linalg.primitive(nrm), data.draw(small_fractions)),)
    assert poly.lattice_points() == frac_lattice_points(poly)
    assert poly.lattice_points(extra) == frac_lattice_points(poly, extra)


# -- the double-description cut against vertex enumeration ---------------------

def _cut(data, poly):
    """One drawn cut of the polytope: through a vertex, missing it (at or
    below its minimum), past it (an empty result), anywhere in between, or
    an opposite pair on one plane (a lower-dimensional result)."""
    nrm = linalg.primitive(data.draw(st.tuples(*[st.integers(-3, 3)] * poly.dim).filter(any)))
    values = sorted(frac_value(halfspace(nrm, 0), v) for v in poly.vertices)
    kind = data.draw(st.sampled_from(["vertex", "miss", "empty", "between", "pair"]))
    if kind == "miss":
        off = values[0] - data.draw(st.fractions(0, 2, max_denominator=3))
    elif kind == "empty":
        off = values[-1] + data.draw(st.fractions(Fraction(1, 7), 2, max_denominator=7))
    elif kind == "between":
        off = values[0] + (values[-1] - values[0]) * data.draw(st.fractions(0, 1, max_denominator=7))
    else:
        off = data.draw(st.sampled_from(values))
    if kind == "pair":
        return [HalfSpace(nrm, off), HalfSpace(linalg.neg(nrm), -off)]
    return [HalfSpace(nrm, off)]


@settings(deadline=None, max_examples=80)
@given(poly=rational_polytopes(), data=st.data())
def test_intersect_matches_vertex_enumeration_oracle(poly, data):
    """The cut from the polytope's own vertices is the polytope that vertex
    enumeration gives from all the half-spaces: the same half-spaces,
    vertices and order, or the same refusal of an empty result."""
    cuts = [h for _ in range(data.draw(st.integers(1, 3))) for h in _cut(data, poly)]
    try:
        expected = geometry.from_halfspaces([*poly.halfspaces, *cuts])
    except InputError as exc:
        with pytest.raises(InputError, match=f"^{exc}$"):
            geometry.intersect(poly, cuts)
        return
    assert geometry.intersect(poly, cuts) == expected


@pytest.mark.parametrize("cuts, count", [
    ([halfspace((1, 0, 0), 0)], 5),                      # through four vertices
    ([halfspace((1, 1, 1), 0)], 9),                      # through no vertex
    ([halfspace((1, 0, 0), -1), halfspace((1, 1, 0), -2)], 6),  # touching, missing
    ([halfspace((1, 0, 0), 0), halfspace((-1, 0, 0), 0)], 4),   # a square
    ([halfspace((1, 1, 0), 1), halfspace((1, -1, 0), 1)], 1),   # the vertex e1
])
def test_intersect_cuts_the_octahedron(cuts, count):
    """Cuts of a non-simple polytope, each against vertex enumeration."""
    octa = geometry.from_halfspaces(cross_polytope(3))
    cut = geometry.intersect(octa, cuts)
    assert len(cut.vertices) == count
    assert cut == geometry.from_halfspaces([*octa.halfspaces, *cuts])
    with pytest.raises(InputError, match="^half-spaces have empty intersection$"):
        geometry.intersect(octa, [*cuts, halfspace((1, 1, 1), 2)])
