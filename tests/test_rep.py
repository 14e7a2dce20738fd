import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qswindows import catalog, cli, geometry, linalg, rep
from qswindows.errors import InputError, InternalInconsistencyError
from qswindows.geometry import HalfSpace
from qswindows.rep import QSRep, Ternary
from qswindows.root_data import RootDatum
from test_acceptance import CORPUS_COUNTS, CORPUS_SEED
from test_root_data import weyl_lengths

GL2_NABLA_VERTICES = {
    (Fraction(5, 2), Fraction(5, 2)), (Fraction(5, 2), Fraction(1, 2)),
    (Fraction(3, 2), Fraction(-3, 2)), (Fraction(-1, 2), Fraction(-5, 2)),
    (Fraction(-5, 2), Fraction(-5, 2)), (Fraction(-5, 2), Fraction(-1, 2)),
    (Fraction(-3, 2), Fraction(3, 2)), (Fraction(1, 2), Fraction(5, 2)),
}


def test_check_quasi_symmetric_examples():
    assert rep.check_quasi_symmetric([(1,), (1,), (-1,), (-1,)])
    assert not rep.check_quasi_symmetric([(1,), (1,), (-1,)])
    assert rep.check_quasi_symmetric(catalog.GL2_WEIGHTS)
    # zero-sum along a line without symmetric pairing still qualifies
    assert rep.check_quasi_symmetric([(2,), (-1,), (-1,)])


def test_eta_examples(torus22, gl2rep):
    assert rep.eta(torus22.root_datum, torus22.weights, (1,)) == 2
    assert rep.eta(torus22.root_datum, torus22.weights, (-1,)) == 2
    assert rep.eta(gl2rep.root_datum, gl2rep.weights, (1, 1)) == 12
    with pytest.raises(InputError):
        rep.eta(torus22.root_datum, torus22.weights, (0,))


def test_zero_width_slab_leaves_nabla_nonempty():
    """GL(2) on std + dual has a slab with eta = 0; only eta < 0 empties nabla."""
    datum, weights = RootDatum.gl(2), ((1, 0), (-1, 0), (0, 1), (0, -1))
    assert 0 in {rep.eta(datum, weights, lam) for lam in rep.slab_candidates(datum, weights)}
    assert QSRep.build(datum, weights).nabla.vertices


def test_nabla_intervals(torus22, torus33):
    assert sorted(torus22.nabla.vertices) == [(-1,), (1,)]
    assert sorted(torus33.nabla.vertices) == [(Fraction(-3, 2),), (Fraction(3, 2),)]


def slab_oracle(datum, weights) -> geometry.Polytope:
    """The window polytope the old way: both sides of every candidate slab,
    intersected by vertex enumeration."""
    halfspaces = []
    for lam in rep.slab_candidates(datum, weights):
        normal, rescale = linalg.primitive_scale(linalg.mat_vec(datum.pairing, lam))
        offset = -rep.eta(datum, weights, lam) / 2 * rescale
        halfspaces += [HalfSpace(normal, offset), HalfSpace(linalg.neg(normal), offset)]
    return geometry.from_halfspaces(halfspaces, center=(Fraction(0),) * datum.rank)


# a Weyl-invariant pairing of a rank-two torus that is not the identity
SKEW_TORUS = RootDatum.from_dict({"rank": 2, "pairing": [["1/2", "-1/3"], ["-1/3", "1/2"]]})


@pytest.fixture(scope="module")
def corpus():
    reps = catalog.random_corpus(CORPUS_SEED, CORPUS_COUNTS)
    assert len(reps) == 210
    return reps


def test_certified_nabla_matches_slab_oracle_on_corpus(corpus):
    for r in corpus:
        assert r.nabla.to_json() == slab_oracle(r.root_datum, r.weights).to_json()


def test_certified_nabla_matches_slab_oracle_with_non_identity_pairing():
    """The pairing moves the slab normals lam, not the polytope they cut out."""
    weights = catalog.random_torus_rep(random.Random(7), 2).weights
    assert rep.slab_candidates(SKEW_TORUS, weights) != rep.slab_candidates(RootDatum.torus(2), weights)
    built = QSRep.build(SKEW_TORUS, weights)
    assert built.nabla.to_json() == slab_oracle(SKEW_TORUS, weights).to_json()


def quasi_symmetric_weights(data, rank):
    """Quasi-symmetric weights, generic or not: each drawn direction
    carries one zero-sum pattern of multiples."""
    direction = st.tuples(*[st.integers(-2, 2)] * rank)
    lines = data.draw(st.lists(st.tuples(direction, st.sampled_from(catalog.LINE_PATTERNS_RICH)),
                               min_size=1, max_size=4 if rank < 3 else 3))
    return [linalg.scale(c, v) for v, pattern in lines for c in pattern]


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_certified_nabla_matches_slab_oracle_on_random_tori(data):
    datum = data.draw(st.sampled_from([RootDatum.torus(1), RootDatum.torus(2), SKEW_TORUS,
                                       RootDatum.torus(3)]))
    weights = quasi_symmetric_weights(data, datum.rank)
    assume(linalg.rank(weights) == datum.rank)
    built = QSRep.build(datum, weights)
    assert built.nabla.to_json() == slab_oracle(datum, weights).to_json()


def std_dual(n, copies=1):
    """GL(n) on copies of the standard representation and its dual."""
    return [tuple(s * (j == i) for j in range(n)) for i in range(n) for s in (1, -1)] * copies


def orbits(vectors):
    """The union of the orbits of the vectors under permuting coordinates
    and negating, each element once: Weyl invariant and quasi-symmetric
    for GL(n)."""
    n = len(vectors[0])
    return sorted({tuple(s * v[i] for i in perm) for v in vectors
                   for perm in itertools.permutations(range(n)) for s in (1, -1)})


NONABELIAN = {
    "gl2": (2, catalog.GL2_WEIGHTS),
    "gl2-std-dual": (2, std_dual(2)),           # nabla is the point 0
    "gl3-4x-std-dual": (3, std_dual(3, 4)),
    "gl3-orbit-210": (3, orbits([(2, 1, 0)])),  # 20 vertices, 18 facets
}


@pytest.mark.parametrize("name", sorted(NONABELIAN))
def test_weyl_hull_matches_slab_oracle(name):
    n, weights = NONABELIAN[name]
    built = QSRep.build(RootDatum.gl(n), weights)
    oracle = slab_oracle(built.root_datum, built.weights)
    assert built.nabla.to_json() == oracle.to_json()
    assert built.nabla == oracle


@st.composite
def symmetrized_gl_weights(draw):
    """GL(2) or GL(3) weights closed under permutations and negation: the
    union of the orbits of a few small drawn vectors."""
    n = draw(st.sampled_from([2, 3]))
    return n, orbits(draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n).filter(any),
                                   min_size=1, max_size=3 if n == 2 else 1)))


@settings(deadline=None, max_examples=40)
@given(symmetrized_gl_weights())
def test_weyl_hull_matches_slab_oracle_on_symmetrized_weights(drawn):
    n, weights = drawn
    assume(linalg.rank(weights) == n)
    datum = RootDatum.gl(n)
    try:
        built = QSRep.build(datum, weights)
    except InputError as exc:
        # only a slab of negative width empties the window polytope
        assert "the window polytope is empty" in str(exc)
        return
    oracle = slab_oracle(datum, built.weights)
    assert built.nabla.to_json() == oracle.to_json()
    assert built.nabla == oracle


@pytest.mark.parametrize("n", [2, 3])
def test_one_vertex_enumeration_per_nonabelian_build(n, monkeypatch):
    """Sigma's: the window polytope is cut and closed, not enumerated."""
    calls = []
    enumerate_vertices = geometry._vertex_enumeration
    monkeypatch.setattr(geometry, "_vertex_enumeration",
                        lambda *args: calls.append(args) or enumerate_vertices(*args))
    QSRep.build(RootDatum.gl(n), catalog.GL2_WEIGHTS if n == 2 else std_dual(3, 4))
    assert len(calls) == 1


def test_one_spanned_normals_per_torus_build(small_corpus, monkeypatch):
    """check_generic reads Sigma's facet normals instead of finding them again."""
    calls = []
    spanned = geometry.spanned_normals
    monkeypatch.setattr(geometry, "spanned_normals",
                        lambda *args: calls.append(args) or spanned(*args))
    for r in small_corpus:
        assert QSRep.build(r.root_datum, r.weights).generic is r.generic
    assert len(calls) == len(small_corpus)


@pytest.mark.parametrize("change, message", [
    (lambda h, facet: None if h.normal == facet else h, "has no slab as tight"),
    (lambda h, facet: HalfSpace(h.normal, h.offset - Fraction(1, 2)) if h.normal == facet else h,
     "has no slab as tight"),
    (lambda h, facet: HalfSpace(h.normal, h.offset + Fraction(1, 2)) if h.normal == facet else h,
     "lies outside slab"),
], ids=["missing", "widened", "narrowed"])
def test_slab_check_rejects_a_missing_widened_or_narrowed_slab(small_corpus, gl2rep, change,
                                                               message):
    """A slab set without one facet normal, or with one facet slab widened
    by 1/2, no longer proves the slab polytope inside nabla; a slab
    narrowed by 1/2 cuts off vertices.  On GL(2) and GL(3) the dominant
    slice and Weyl checks, which read no slab, pass first."""
    gl3 = QSRep.build(RootDatum.gl(3), std_dual(3, 4))
    for r in [*small_corpus, gl2rep, gl3]:
        datum, nabla = r.root_datum, r.nabla
        slabs = rep._slabs(datum, r.weights)
        rep._cross_check_nabla(datum, r.half_sigma, nabla, slabs)
        for facet in {h.normal for h in nabla.halfspaces}:
            changed = [c for c in (change(h, facet) for h in slabs) if c is not None]
            with pytest.raises(InternalInconsistencyError, match=message):
                rep._cross_check_nabla(datum, r.half_sigma, nabla, changed)


def test_torus_nabla_is_half_sigma(small_corpus):
    """On a torus the window polytope is (1/2)Sigma itself, one object."""
    assert small_corpus and all(r.root_datum.is_torus for r in small_corpus)
    assert all(r.nabla is r.half_sigma for r in small_corpus)


def test_gl2_nabla_octagon(gl2rep):
    assert set(map(tuple, gl2rep.nabla.vertices)) == GL2_NABLA_VERTICES


def test_gl2_dominant_slice_identity(gl2rep):
    datum = gl2rep.root_datum
    cone = datum.dominant_cone
    slice_nabla = geometry.intersect(gl2rep.nabla, cone)
    shifted = gl2rep.sigma.scale(Fraction(1, 2)).translate(linalg.neg(datum.rho))
    slice_sigma = geometry.intersect(shifted, cone)
    assert slice_nabla.vertices == slice_sigma.vertices
    for w in weyl_lengths(datum):
        for v in gl2rep.nabla.vertices:
            assert gl2rep.nabla.contains(datum.apply(w, v))


def _all_elements_invariant(datum, poly) -> bool:
    """The oracle of the generator-only checks: every Weyl element maps
    every vertex into the polytope."""
    return all(poly.contains(datum.apply(w, v))
               for w in weyl_lengths(datum) for v in poly.vertices)


@pytest.mark.parametrize("n", [2, 3])
def test_weyl_check_by_simple_reflections_matches_all_elements(n):
    std_dual = [tuple(s * (j == i) for j in range(n)) for i in range(n) for s in (1, -1)]
    built = QSRep.build(RootDatum.gl(n), std_dual * 4)
    datum = built.root_datum
    assert _all_elements_invariant(datum, built.nabla)
    slabs = rep._slabs(datum, built.weights)
    rep._cross_check_nabla(datum, built.half_sigma, built.nabla, slabs)
    # cut away a non-dominant corner: the dominant slice is unchanged, but
    # the polytope is no longer Weyl invariant
    cut = geometry.intersect(built.nabla, [geometry.HalfSpace(
        tuple(1 if j == 0 else -1 if j == 1 else 0 for j in range(n)), Fraction(-1, 2))])
    assert not _all_elements_invariant(datum, cut)
    with pytest.raises(InternalInconsistencyError, match="not Weyl invariant"):
        rep._cross_check_nabla(datum, built.half_sigma, cut, slabs)


def test_generic_examples():
    t1 = RootDatum.torus(1)
    assert rep.check_generic(t1, [(1,), (1,), (-1,), (-1,)]) is Ternary.YES
    assert rep.check_generic(t1, [(1,), (-1,)]) is Ternary.NO
    assert rep.check_generic(RootDatum.gl(2), catalog.GL2_WEIGHTS) is Ternary.UNKNOWN


def generic_oracle(weights) -> Ternary:
    """Genericity the old way: per weight position, the rest generates the
    lattice and has weights strictly on both sides of every slab candidate
    of the identity pairing, which are the hyperplanes spanned by weights."""
    n = len(weights[0])
    candidates = rep.slab_candidates(RootDatum.torus(n), weights)
    for i in range(len(weights)):
        rest = weights[:i] + weights[i + 1:]
        if not linalg.lattice_generates(rest, n):
            return Ternary.NO
        for lam in candidates:
            values = [linalg.dot(v, lam) for v in rest]
            if max(values) <= 0 or min(values) >= 0:
                return Ternary.NO
    return Ternary.YES


# dropping (1, 0) leaves 0 on the edge from (-2, 1) to (2, -1)
EDGE_THROUGH_ZERO = [[-2, 1], [2, -1], [-1, 0], [1, 0]]


@pytest.mark.parametrize("datum", [RootDatum.torus(2), SKEW_TORUS], ids=["identity", "skew"])
def test_generic_is_no_whatever_the_pairing(datum, tmp_path, capsys):
    """Genericity reads the weights' hull in the dot product: a pairing
    moves the slab normals, not the weights."""
    path = tmp_path / "rep.json"
    pairing = [[str(x) for x in row] for row in datum.pairing]
    path.write_text(json.dumps({"root_datum": {"rank": 2, "pairing": pairing},
                                "weights": EDGE_THROUGH_ZERO}))
    assert cli.main(["rep", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["generic"] == "no"
    assert generic_oracle([tuple(b) for b in EDGE_THROUGH_ZERO]) is Ternary.NO


def test_generic_matches_oracle_on_corpus(corpus):
    for r in corpus:
        assert r.generic is rep.check_generic(r.root_datum, r.weights) is generic_oracle(r.weights)


@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_generic_matches_oracle_on_random_tori(data):
    """Quasi-symmetric weights, the precondition of ``check_generic``,
    spanning or not; rank two is also checked under a non-identity pairing,
    which must not matter."""
    rank = data.draw(st.integers(1, 3))
    weights = quasi_symmetric_weights(data, rank)
    verdict = rep.check_generic(RootDatum.torus(rank), weights)
    assert verdict is generic_oracle([tuple(b) for b in weights])
    if rank == 2:
        assert rep.check_generic(SKEW_TORUS, weights) is verdict


def test_generic_assertion_flag():
    data = {
        "root_datum": {"builtin": "gl", "n": 2},
        "weights": [list(w) for w in catalog.GL2_WEIGHTS],
        "assert_generic": True,
    }
    assert QSRep.from_dict(data).generic is Ternary.YES


def test_symplectic_examples(gl2rep):
    assert rep.is_symplectic([(1,), (-1,)])
    assert not rep.is_symplectic([(1,), (1,), (-1,)])
    assert gl2rep.symplectic


def test_invalid_reps_rejected():
    t1 = RootDatum.torus(1)
    with pytest.raises(InputError):
        QSRep.build(t1, [(1,), (1,), (-1,)])
    with pytest.raises(InputError):
        QSRep.build(RootDatum.torus(2), [(1, 0), (-1, 0)])


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_eta_symmetry_on_random_reps(seed):
    import random
    r = catalog.random_torus_rep(random.Random(seed), rank=seed % 2 + 1)
    datum = r.root_datum
    for lam in [(1,) * r.rank] + [linalg.primitive(b) for b in r.weights]:
        plus = sum(max(0, datum.pair(b, lam)) for b in r.weights)
        minus = sum(max(0, -datum.pair(b, lam)) for b in r.weights)
        assert plus == minus


def test_weight_indices_carry_identity(torus22):
    # repeated values stay distinguishable by index
    assert torus22.weights == ((1,), (1,), (-1,), (-1,))
    assert len(torus22.weights) == 4
