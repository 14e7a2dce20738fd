"""A larger nonabelian case: four copies of the defining representation of
GL(3) plus its dual.

Here some wall faces of the shifted half-zonotope (a cube) genuinely cross
the Weyl walls, so they are not dominant, and the length of the sorting
element at the top of a face complex can be shorter than l(w0).  The
crossing bijection itself is unaffected; this module pins the honest
behavior.
"""
from collections import Counter
from fractions import Fraction

import pytest

from qswindows import complexes, linalg, mutation, windows
from qswindows.errors import InputError
from qswindows.rep import QSRep
from qswindows.root_data import RootDatum
from qswindows.windows import Context

F = Fraction


@pytest.fixture(scope="module")
def gl3rep():
    weights = []
    for _ in range(4):
        for i in range(3):
            e = tuple(1 if j == i else 0 for j in range(3))
            weights.append(e)
            weights.append(tuple(-x for x in e))
    return QSRep.build(RootDatum.gl(3), weights)


@pytest.fixture(scope="module")
def ctx3(gl3rep):
    return Context(gl3rep)


def test_window_polytope_is_unit_cube(gl3rep):
    assert len(gl3rep.nabla.halfspaces) == 6
    assert set(gl3rep.nabla.vertices) == {
        tuple(map(Fraction, v)) for v in
        [(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
    }


def test_windows_and_crossing(gl3rep, ctx3):
    arr = ctx3.arrangement
    delta = arr.to_ambient((F(1, 4),))
    delta2 = arr.to_ambient((F(5, 4),))
    win = ctx3.window(delta)
    assert win.chars == ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))
    crossing = windows.wall_crossing(gl3rep, delta, delta2, ctx3)
    assert crossing.outgoing == ((0, 0, 0), (1, 0, 0), (1, 1, 0))
    assert crossing.common == ((1, 1, 1),)
    # the single wall face is the bottom facet of the cube, which crosses
    # the Weyl walls: not dominant
    (fd,) = crossing.faces.values()
    assert fd.codim == 1
    assert not fd.dominant
    assert fd.beta_plus == (0, 0, 4)
    assert fd.d_plus == 4


def test_mu_still_bijects(gl3rep, ctx3):
    arr = ctx3.arrangement
    delta = arr.to_ambient((F(1, 4),))
    delta2 = arr.to_ambient((F(5, 4),))
    crossing = windows.wall_crossing(gl3rep, delta, delta2, ctx3)
    back = windows.wall_crossing(gl3rep, delta2, delta, ctx3)
    forward = windows.mu_map(gl3rep, crossing)
    assert forward == {
        (0, 0, 0): (2, 1, 1), (1, 0, 0): (2, 2, 1), (1, 1, 0): (2, 2, 2),
    }
    backward = windows.mu_map(gl3rep, back)
    assert all(backward[img] == chi for chi, img in forward.items())


def test_dagger_requires_dominance(gl3rep, ctx3):
    arr = ctx3.arrangement
    crossing = windows.wall_crossing(
        gl3rep, arr.to_ambient((F(1, 4),)), arr.to_ambient((F(5, 4),)), ctx3)
    (fd,) = crossing.faces.values()
    with pytest.raises(InputError):
        windows.dagger(gl3rep, fd, ctx3)


def test_complex_support_bound_still_holds(gl3rep, ctx3):
    """The degree support stays inside [0, d+ + l(w0)], but for this face
    the top term sits below d+ + l(w0): the sorting element of the full
    shift is shorter than w0."""
    arr = ctx3.arrangement
    crossing = windows.wall_crossing(
        gl3rep, arr.to_ambient((F(1, 4),)), arr.to_ambient((F(5, 4),)), ctx3)
    (fd,) = crossing.faces.values()
    top_len = len(gl3rep.root_datum.positive_roots)
    assert top_len == 3
    ct = complexes.complex_terms(gl3rep, fd, (0, 0, 0))
    assert ct.terms[0] == Counter({(0, 0, 0): 1})
    assert all(0 <= d <= fd.d_plus + top_len for d in ct.terms)
    assert max(ct.degrees) == 6  # = 4 + l(sorting element), not 4 + 3
    image = windows.mu_of_crossing(gl3rep, crossing, (0, 0, 0))
    assert ct.terms[max(ct.degrees)] == Counter({image: 1})


def test_face_counts_report_formula(gl3rep, ctx3):
    arr = ctx3.arrangement
    crossing = windows.wall_crossing(
        gl3rep, arr.to_ambient((F(1, 4),)), arr.to_ambient((F(5, 4),)), ctx3)
    (count,) = mutation.per_face_counts(gl3rep, crossing).values()
    assert count == 4 + 3 - 1
