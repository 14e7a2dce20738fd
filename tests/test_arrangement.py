from fractions import Fraction

import pytest

from qswindows import linalg
from qswindows.errors import InputError, NotAdjacentError, OnWallError
from qswindows.windows import Context

F = Fraction


@pytest.fixture(scope="module")
def arr22(ctx22):
    return ctx22.arrangement


@pytest.fixture(scope="module")
def arr33(ctx33):
    return ctx33.arrangement


@pytest.fixture(scope="module")
def arrgl2(ctxgl2):
    return ctxgl2.arrangement


def test_wall_families_frozen(arr22, arr33, arrgl2):
    (f,) = arr22.families
    assert (f.normal, f.base_offset, f.offset_step) == ((1,), 0, 1)
    (f,) = arr33.families
    assert (f.normal, f.base_offset, f.offset_step) == ((1,), F(1, 2), 1)
    (f,) = arrgl2.families
    assert (f.normal, f.base_offset, f.offset_step) == ((1,), F(1, 2), 1)


def test_chamber_of_examples(arr22):
    assert arr22.chamber_of((F(1, 2),)).sign_vector == (0,)
    assert arr22.chamber_of((F(-1, 2),)).sign_vector == (-1,)
    with pytest.raises(OnWallError):
        arr22.chamber_of((F(1),))


def test_separating_and_distance(arr22):
    walls = arr22.separating_walls((F(1, 2),), (F(3, 2),))
    assert [(w.family_index, w.offset) for w in walls] == [(0, 1)]
    assert arr22.distance((F(1, 2),), (F(5, 2),)) == 2
    tiny = F(1, 2) + F(1, 10 ** 9)
    assert arr22.distance((F(1, 2),), (tiny,)) == 0
    assert arr22.distance((F(1, 2),), (F(3, 2),)) == 1
    with pytest.raises(NotAdjacentError):
        arr22.require_adjacent((F(1, 2),), (F(5, 2),))


def test_on_wall_endpoint_rejected(arr22):
    with pytest.raises(OnWallError):
        arr22.separating_walls((F(1),), (F(5, 2),))


def test_generic_ell_examples(arr22, arrgl2):
    assert arr22.is_generic_ell((1,))
    assert not arr22.is_generic_ell((0,))
    assert arrgl2.is_generic_ell((1, 1))
    with pytest.raises(InputError):
        arrgl2.is_generic_ell((1, 0))  # not Weyl invariant


def test_triangle_identity(arr22):
    a, b, c = (F(1, 2),), (F(3, 2),), (F(5, 2),)
    report = arr22.triangle_report(a, b, c)
    assert report["identity_holds"] and report["equality"]
    report = arr22.triangle_report(a, b, a)
    assert report["identity_holds"] and not report["equality"]
    assert report["equality_iff_disjoint"]
    report = arr22.triangle_report(a, a, a)
    assert report["identity_holds"]
    assert not report["sets"]["ac"]


def test_periodicity(arr22, arrgl2):
    for arr, shift in ((arr22, (3,)), (arrgl2, (-2,))):
        a, b = (F(1, 4),), (F(9, 4),)
        da = arr.distance(a, b)
        a2 = linalg.add(a, shift)
        b2 = linalg.add(b, shift)
        assert arr.distance(a2, b2) == da
        assert arr.chamber_of(a).sign_vector != arr.chamber_of(a2).sign_vector


def test_distance_symmetry(arr33):
    a, b = (F(1, 4),), (F(13, 4),)
    assert arr33.distance(a, b) == arr33.distance(b, a) == 3


def test_gl2_walls_on_diagonal(arrgl2):
    walls = arrgl2.walls_in_box(2)
    offsets = sorted(w.offset for w in walls)
    assert offsets == [F(1, 2), F(3, 2)]
    assert arrgl2.on_wall((F(1, 2),))
    assert not arrgl2.on_wall((F(1, 4),))


def test_boundary_point_criterion_on_grid(torus22, ctx22, gl2rep, ctxgl2):
    """On-wall is equivalent to the shifted window polytope having lattice
    points on its boundary, over a step-1/4 grid across three periods."""
    for rep_obj, ctx in ((torus22, ctx22), (gl2rep, ctxgl2)):
        arr = ctx.arrangement
        for k in range(0, 12 + 1):
            coords = (F(k, 4),)
            ambient = arr.to_ambient(coords)
            boundary = rep_obj.nabla.translate(ambient).boundary_lattice_points()
            assert arr.on_wall(coords) == bool(boundary)


def test_to_coords_rejects_non_invariant(arrgl2):
    with pytest.raises(InputError):
        arrgl2.to_coords((1, 0))


def test_arrangement_needs_generic_labels():
    # an invariant subspace inside a zonotope facet hyperplane is rejected
    from qswindows.rep import QSRep
    from qswindows.root_data import RootDatum
    r = QSRep.build(RootDatum.torus(2), [(1, 0), (-1, 0), (0, 1), (0, -1)])
    ctx = Context(r)  # fine: full-rank torus, no facet contains M^W
    assert ctx.arrangement.dim == 2


def test_overlapping_families_count_hyperplanes_once():
    """Facet families with the same restricted normal can share walls; a
    shared position is still one hyperplane for distances and adjacency."""
    from qswindows import windows
    from qswindows.rep import QSRep
    from qswindows.root_data import RootDatum
    weights = [(1, 3), (3, 1), (-1, -3), (-3, -1), (0, 2), (2, 0), (0, -2), (-2, 0)]
    r = QSRep.build(RootDatum.gl(2), weights)
    ctx = Context(r)
    arr = ctx.arrangement
    steps = sorted(fam.offset_step for fam in arr.families)
    assert steps == [F(1, 2), F(1)]
    walls = arr.separating_walls((F(1, 16),), (F(33, 16),))
    positions = [w.offset for w in walls]
    assert positions == sorted(set(positions))
    assert arr.distance((F(1, 16),), (F(33, 16),)) == 4
    assert arr.distance((F(1, 4),), (F(3, 4),)) == 1
    crossing = windows.wall_crossing(
        r, arr.to_ambient((F(1, 4),)), arr.to_ambient((F(3, 4),)), ctx)
    back = windows.wall_crossing(
        r, arr.to_ambient((F(3, 4),)), arr.to_ambient((F(1, 4),)), ctx)
    forward = windows.mu_map(r, crossing)
    backward = windows.mu_map(r, back)
    assert all(backward[img] == chi for chi, img in forward.items())
