import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qswindows import catalog, complexes, windows
from qswindows.errors import InputError
from qswindows.windows import Context

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
    fd = windows.face_of(torus22, (0,), ((1,), 1), ctx22)
    assert fd.d_plus == 2
    assert complexes.wedge_star(torus22, fd) == {(1,)}
    fd = windows.face_of(torus33, (-1,), ((1,), 2), ctx33)
    assert fd.d_plus == 3
    assert complexes.wedge_star(torus33, fd) == {(1,), (2,)}


def test_torus_koszul_table(torus22, ctx22):
    fd = windows.face_of(torus22, (0,), ((1,), 1), ctx22)
    ct = complexes.complex_terms(torus22, fd, (0,))
    assert ct.exact
    assert ct.singular_dropped == 0
    assert {d: dict(c) for d, c in ct.terms.items()} == {
        0: {(0,): 1}, 1: {(1,): 2}, 2: {(2,): 1},
    }


def test_torus_binomial_multiplicities(torus33, ctx33):
    fd = windows.face_of(torus33, (-1,), ((1,), 2), ctx33)
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
    fd = windows.face_of(torus22, (0,), ((1,), 1), ctx22)
    for chi in ((F(1, 2),), (0.5,)):
        with pytest.raises(InputError, match=r"^\(1/2\) is not a lattice weight"):
            complexes.complex_terms(torus22, fd, chi)


def test_complex_terms_refuses_a_character_of_the_wrong_length():
    rep = catalog.torus_rep((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))
    ctx = Context(rep)
    delta, delta_prime = catalog.adjacent_pairs(ctx, max_pairs=1)[0]
    fd = next(iter(windows.wall_crossing(rep, delta, delta_prime, ctx).faces.values()))
    with pytest.raises(InputError, match=r"^point \(0\) has 1 entries, not 2$"):
        complexes.complex_terms(rep, fd, (0,))


# observed, not claimed correct: on bundled GL(2) these outgoing characters
# of the sampled pairs have terms above degree 0 outside the target window,
# on the face with the given key, and their Euler class is zero; a complex
# from chi to mu(chi) with common middle terms would have a nonzero one
GL2_TERMS_OUTSIDE = {
    ((0, 0), (1, 1), (0, -2)): ((2, 4), [(0, -2), (2, -1)]),
    ((1, 1), (0, 0), (3, 1)): ((0, 1), [(2, -1), (3, 1)]),
    ((1, 1), (2, 2), (1, -1)): ((2, 4), [(1, -1), (3, 0)]),
    ((2, 2), (1, 1), (4, 2)): ((0, 1), [(3, 0), (4, 2)]),
}


def test_gl2_complex_terms_outside_the_target_window_pinned():
    """A pin of present output, not a claim: of the 12 outgoing characters
    of the sampled GL(2) pairs, exactly the four above put terms above
    degree 0 outside the target window, and each has Euler class zero."""
    rep = catalog.bundled_reps()["gl2-cube-pair"]
    ctx = Context(rep)
    found, outgoing = {}, 0
    for delta, delta_prime in catalog.adjacent_pairs(ctx, periods=2, per_wall=2, max_pairs=6):
        crossing = windows.wall_crossing(rep, delta, delta_prime, ctx)
        target = set(crossing.window_prime.chars)
        for chi in crossing.outgoing:
            outgoing += 1
            fd = crossing.face_of_char(chi)
            table = complexes.complex_terms(rep, fd, chi)
            outside = sorted({w for d, tally in table.terms.items() if d > 0
                              for w in tally if w not in target})
            if outside:
                assert table.euler_class() == {}
                found[(*(tuple(map(int, p)) for p in (delta, delta_prime)), chi)] = (
                    fd.key, outside)
    assert outgoing == 12
    assert found == GL2_TERMS_OUTSIDE


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


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_subset_sum_table_matches_combinations(small_corpus, gl2rep, data):
    """A face's table of subset sums is, size by size, the sums over
    ``itertools.combinations`` of its positive indices, in that order, and
    the Koszul terms and wedge sums read it as the direct formulas do."""
    rep = data.draw(st.sampled_from([*small_corpus, gl2rep]))
    half = rep.half_sigma
    fd = windows.face_data_from_face(rep, half, data.draw(st.sampled_from(half.faces())))
    table = fd.subset_sums(rep)
    assert len(table) == fd.d_plus + 1
    for m, sums in enumerate(table):
        combos = list(itertools.combinations(fd.plus_indices, m))
        assert sums == tuple(windows._index_sum(rep, c) for c in combos)
        chi = data.draw(st.tuples(*[st.integers(-3, 3)] * rep.rank))
        assert complexes.koszul_degree_term(rep, fd, chi, m) == Counter(
            tuple(x + y for x, y in zip(chi, windows._index_sum(rep, c))) for c in combos)
    assert complexes.wedge_star(rep, fd) == {
        windows._index_sum(rep, c) for m in range(1, fd.d_plus)
        for c in itertools.combinations(fd.plus_indices, m)}
