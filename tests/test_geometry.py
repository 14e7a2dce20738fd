import itertools
from fractions import Fraction

import pytest

from qswindows import geometry, linalg
from qswindows.errors import InputError
from qswindows.geometry import HalfSpace


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


def test_zonotope_intervals():
    z = geometry.zonotope([(1,), (1,), (-1,), (-1,)])
    assert sorted(z.vertices) == [(-2,), (2,)]
    assert z.center == (0,)
    z = geometry.zonotope([(1,), (-1,)], Fraction(1, 2))
    assert sorted(z.vertices) == [(Fraction(-1, 2),), (Fraction(1, 2),)]
    lo, hi = interval_oracle([(1,), (1,), (-1,), (-1,)])
    assert (lo, hi) == (-2, 2)


def test_zonotope_point():
    z = geometry.zonotope([(0,)])
    assert z.vertices == ((0,),)
    assert z.contains((0,))
    assert not z.contains((1,))


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


def test_zonotope_empty_rejected():
    with pytest.raises(InputError):
        geometry.zonotope([])


def test_faces_interval():
    box = geometry.zonotope([(1,), (1,)])
    faces = box.faces()
    assert sorted((f.codim, f.sample) for f in faces) == [(1, (0,)), (1, (2,))]


def test_faces_unit_square():
    square = geometry.zonotope([(1, 0), (0, 1)])
    faces = square.faces()
    assert sum(1 for f in faces if f.codim == 1) == 4
    assert sum(1 for f in faces if f.codim == 2) == 4


def test_faces_octagon():
    z = geometry.zonotope(GL2_WEIGHTS, Fraction(1, 2))
    faces = z.faces()
    assert sum(1 for f in faces if f.codim == 1) == 8
    assert sum(1 for f in faces if f.codim == 2) == 8
    for f in faces:
        assert z.tight_indices(f.sample) == f.facet_indices


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
    assert seg.lattice_points() == [(0,), (1,)]
    seg2 = geometry.from_halfspaces([
        HalfSpace((1,), Fraction(-3, 2)), HalfSpace((-1,), Fraction(-3, 2)),
    ])
    assert seg2.lattice_points() == [(-1,), (0,), (1,)]


def test_lattice_points_non_integral_point():
    half = geometry.from_halfspaces([
        HalfSpace((1,), Fraction(1, 2)), HalfSpace((-1,), Fraction(-1, 2)),
    ])
    assert half.vertices == ((Fraction(1, 2),),)
    assert half.lattice_points() == []


def test_lattice_points_match_scan_oracle():
    z = geometry.zonotope(GL2_WEIGHTS, Fraction(1, 2))
    lo, hi = z.bounding_box()
    oracle = [
        p for p in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        if all(h.contains(p) for h in z.halfspaces)
    ]
    assert z.lattice_points() == sorted(oracle)


def test_dual_point_and_face():
    box = geometry.zonotope([(1,), (1,)])
    assert box.dual_point((0,)) == (2,)
    f0 = box.face_at((Fraction(0),))
    f2 = box.dual_face(f0)
    assert f2.sample == (2,)
    assert box.dual_face(f2).facet_indices == f0.facet_indices


def test_dual_face_involution_octagon():
    z = geometry.zonotope(GL2_WEIGHTS, Fraction(1, 2))
    for f in z.faces():
        g = z.dual_face(f)
        assert g.codim == f.codim
        assert z.dual_face(g).facet_indices == f.facet_indices


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
    # scaling the zonotope equals building it with scaled generators, which
    # the window-polytope cross-check relies on for half the zonotope
    for gens in ([(1,), (1,), (-1,)],
                 [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)],
                 [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
                 GL2_WEIGHTS):
        half = geometry.zonotope(gens, Fraction(1, 2))
        scaled = geometry.zonotope(gens).scale(Fraction(1, 2))
        assert scaled.halfspaces == half.halfspaces
        assert sorted(scaled.vertices) == sorted(half.vertices)
        assert scaled.center == half.center


def test_face_at_rejects_interior_and_outside():
    z = geometry.zonotope([(1,), (-1,)])
    with pytest.raises(InputError):
        z.face_at((Fraction(0),))
    with pytest.raises(InputError):
        z.face_at((Fraction(5),))
