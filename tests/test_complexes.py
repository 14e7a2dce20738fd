import itertools
from collections import Counter
from fractions import Fraction

import pytest

from qswindows import complexes, windows
from qswindows.errors import InputError

F = Fraction

# frozen by hand: face with positive weights {(2,1),(1,2),(0,3)} at the wall
# point (1/2,1/2), chi=(-1,-2); the (2,1)+(0,3) shift lands on a singular
# orbit and is dropped, the (0,3) shift picks up a degree bump from the
# length-one reflection
GL2_EDGE_TABLE = {
    0: {(-1, -2): 1},
    1: {(1, -1): 1, (0, 0): 1},
    2: {(0, 0): 1, (2, 1): 1},
    3: {(2, 1): 1},
    4: {(3, 3): 1},
}


def test_wedge_sums_examples(torus22, ctx22, torus33, ctx33):
    fd = windows.face_of(torus22, (0,), (F(1),), ctx22)
    assert fd.d_plus == 2
    assert complexes.wedge_star(torus22, fd) == {(1,)}
    fd = windows.face_of(torus33, (-1,), (F(1, 2),), ctx33)
    assert fd.d_plus == 3
    assert complexes.wedge_star(torus33, fd) == {(1,), (2,)}


def test_torus_koszul_table(torus22, ctx22):
    fd = windows.face_of(torus22, (0,), (F(1),), ctx22)
    ct = complexes.complex_terms(torus22, fd, (0,))
    assert ct.exact
    assert ct.singular_dropped == 0
    assert {d: dict(c) for d, c in ct.terms.items()} == {
        0: {(0,): 1}, 1: {(1,): 2}, 2: {(2,): 1},
    }


def test_torus_binomial_multiplicities(torus33, ctx33):
    fd = windows.face_of(torus33, (-1,), (F(1, 2),), ctx33)
    assert fd.d_plus == 3
    ct = complexes.complex_terms(torus33, fd, (-1,))
    ranks = [sum(ct.terms[d].values()) for d in sorted(ct.terms)]
    assert ranks == [1, 3, 3, 1]


def test_gl2_edge_complex_frozen(gl2rep, ctxgl2):
    crossing = windows.wall_crossing(gl2rep, (F(0), F(0)), (F(1), F(1)), ctxgl2)
    edge = next(fd for fd in crossing.faces.values() if fd.codim == 1)
    ct = complexes.complex_terms(gl2rep, edge, (-1, -2))
    assert not ct.exact
    assert ct.singular_dropped == 1
    assert {d: dict(c) for d, c in ct.terms.items()} == GL2_EDGE_TABLE


def test_endpoint_invariants(gl2rep, ctxgl2):
    crossing = windows.wall_crossing(gl2rep, (F(0), F(0)), (F(1), F(1)), ctxgl2)
    top_len = len(gl2rep.root_datum.positive_roots)
    for key, fd in crossing.faces.items():
        for chi in crossing.chars_by_face[key]:
            ct = complexes.complex_terms(gl2rep, fd, chi)
            top = fd.d_plus + top_len
            image = windows.mu_of_crossing(gl2rep, crossing, chi)
            assert ct.terms[0] == Counter({chi: 1})
            assert ct.terms[top] == Counter({image: 1})
            assert all(0 <= d <= top for d in ct.terms)
            for d, tally in ct.terms.items():
                if 0 < d < top:
                    allowed = set()
                    for m in range(1, fd.d_plus):
                        for combo in itertools.combinations(fd.plus_indices, m):
                            shifted = tuple(a + sum(gl2rep.weights[i][j] for i in combo)
                                            for j, a in enumerate(chi))
                            res = gl2rep.root_datum.dominant_representative(shifted)
                            if res is not None:
                                allowed.add(res.weight)
                    assert set(tally) <= allowed


def test_rejects_non_dominant_chi(gl2rep, ctxgl2):
    crossing = windows.wall_crossing(gl2rep, (F(0), F(0)), (F(1), F(1)), ctxgl2)
    edge = next(iter(crossing.faces.values()))
    with pytest.raises(InputError):
        complexes.complex_terms(gl2rep, edge, (0, 2))


def test_complex_terms_refuses_a_non_integral_character(torus22, ctx22):
    fd = windows.face_of(torus22, (0,), (F(1),), ctx22)
    for chi in ((F(1, 2),), (0.5,)):
        with pytest.raises(InputError, match=r"^\(1/2\) is not a lattice weight"):
            complexes.complex_terms(torus22, fd, chi)


def test_summand_sets_torus(torus22, ctx22):
    crossing = windows.wall_crossing(torus22, (F(1, 2),), (F(3, 2),), ctx22)
    (fd,) = crossing.faces.values()
    l_set, n_set = complexes.summand_sets(torus22, crossing, fd, ctx22)
    assert l_set == ((1,),)
    assert n_set == ((1,),)
    assert set(l_set) <= set(crossing.common)


def test_summand_sets_gl2_membership(gl2rep, ctxgl2):
    crossing = windows.wall_crossing(gl2rep, (F(0), F(0)), (F(1), F(1)), ctxgl2)
    wall_window = ctxgl2.rep.nabla.translate(crossing.delta0)
    for fd in crossing.faces.values():
        l_set, n_set = complexes.summand_sets(gl2rep, crossing, fd, ctxgl2)
        for chi in l_set:
            assert wall_window.contains(chi)
        assert set(n_set) == set(crossing.window.chars) - set(crossing.chars_by_face[fd.key])
