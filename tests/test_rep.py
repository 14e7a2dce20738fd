import collections
import itertools
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qswindows import catalog, cli, geometry, linalg, rep, root_data
from qswindows.errors import InputError, InternalInconsistencyError
from qswindows.geometry import HalfSpace
from qswindows.rep import QSRep, Ternary
from qswindows.root_data import RootDatum
from test_acceptance import CORPUS_COUNTS, CORPUS_SEED
from test_geometry import spy_on_fraction_reads
from test_linalg import primitive_scale
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


def test_half_sigma_off_minus_w0_symmetry_is_refused(torus22, gl2rep, monkeypatch):
    """Every build works out how x -> -w0 x permutes the half-spaces of
    (1/2)Sigma.  A translate of (1/2)Sigma is not symmetric that way: the
    check names the first facet with no image, its normal and offset in
    p/q form."""
    moved = torus22.half_sigma.translate((Fraction(1, 2),))
    with pytest.raises(InternalInconsistencyError) as info:
        rep._minus_w0_facets(torus22.root_datum, moved)
    assert str(info.value) == "facet (-1) >= -3/2 of (1/2)Sigma has no image under -w0"
    moved = gl2rep.half_sigma.translate((Fraction(1, 3), Fraction(0)))
    with pytest.raises(InternalInconsistencyError,
                       match=r"^facet \(-?\d+, -?\d+\) >= -?\d+/3 of \(1/2\)Sigma has no image"):
        rep._minus_w0_facets(gl2rep.root_datum, moved)
    checked = []
    real = rep._minus_w0_facets
    monkeypatch.setattr(rep, "_minus_w0_facets", lambda datum, half: (
        checked.append(half), real(datum, half))[1])
    built = [catalog.torus_rep((1,), (-1,)), QSRep.build(RootDatum.gl(2), catalog.GL2_WEIGHTS)]
    assert len(checked) == 2 and all(h is r.half_sigma for h, r in zip(checked, built))


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
        normal, rescale = primitive_scale(linalg.mat_vec(datum.pairing, lam))
        offset = -rep.eta(datum, weights, lam) / 2 * rescale
        halfspaces += [HalfSpace(normal, offset), HalfSpace(linalg.neg(normal), offset)]
    return geometry.from_halfspaces(halfspaces)


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


def test_builds_eliminate_only_in_the_public_routines(small_corpus, monkeypatch):
    """Vectors of at most three entries take the closed forms of ``_rank``,
    ``_line``, ``_adjugate`` and ``_ridges``: a build of GL(3) on
    4 x (std + dual), of GL(2) or of a rank-3 corpus rep eliminates only
    inside ``linalg.rref``, for the zonotope's span check (``rank``), the
    per-vertex re-derivation (``solve``) and the slab normals
    (``kernel_basis``).  ``_bareiss`` is watched under every name it is
    imported by."""
    callers = []
    bareiss = linalg._bareiss

    def spy(rows, ncols):
        frame = sys._getframe(1)
        callers.append((frame.f_code.co_name, frame.f_back.f_code.co_name))
        return bareiss(rows, ncols)

    builds = {"gl3": (RootDatum.gl(3), std_dual(3, 4)),
              "gl2": (RootDatum.gl(2), catalog.GL2_WEIGHTS),
              "rank3": (small_corpus[-1].root_datum, small_corpus[-1].weights)}
    assert small_corpus[-1].rank == 3
    for module in (linalg, geometry, root_data):
        monkeypatch.setattr(module, "_bareiss", spy)
    counts = {}
    for name, (datum, weights) in builds.items():
        callers.clear()
        QSRep.build(datum, weights)
        counts[name] = collections.Counter(outer for inner, outer in callers if inner == "rref")
        assert {inner for inner, _ in callers} == {"rref"}
    assert counts == {"gl3": {"rank": 1, "solve": 8, "kernel_basis": 15},
                      "gl2": {"rank": 1, "solve": 8, "kernel_basis": 5},
                      "rank3": {"rank": 1, "solve": 14, "kernel_basis": 6}}


def up_to_scale(points):
    """A point set up to a positive scale, as sorted integer points with
    no common factor."""
    flat = [x for p in points for x in p]
    ints = linalg.primitive(flat) if any(flat) else flat
    d = len(points[0])
    return sorted(tuple(ints[i:i + d]) for i in range(0, len(ints), d))


@pytest.mark.parametrize("n", [2, 3])
def test_nabla_vertex_set_ranked_once_per_nonabelian_build(n, monkeypatch):
    """The Weyl hull's vertex set is ranked once, by the facet rule, and
    not again to choose the candidate half-spaces."""
    ranked, in_hull = [], [False]
    weyl_hull, affine_rank = rep._weyl_hull, geometry._affine_rank

    def hull(*args):
        in_hull[0] = True
        try:
            return weyl_hull(*args)
        finally:
            in_hull[0] = False

    def rank(pts):
        if in_hull[0]:
            ranked.append(up_to_scale(pts))
        return affine_rank(pts)

    monkeypatch.setattr(rep, "_weyl_hull", hull)
    monkeypatch.setattr(geometry, "_affine_rank", rank)
    built = QSRep.build(RootDatum.gl(n), catalog.GL2_WEIGHTS if n == 2 else std_dual(3, 4))
    assert ranked.count(up_to_scale(built.nabla.vertices)) == 1


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
    (lambda o, half: None, "has no slab as tight"),
    (lambda o, half: o - half, "has no slab as tight"),
    (lambda o, half: o + half, "lies outside slab"),
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
        slabs = tightest, den = rep._slabs(datum, r.weights)
        rep._cross_check_nabla(datum, r.half_sigma, nabla, slabs)
        # the offsets are numerators over den, so 1/2 is den // 2 (den is even)
        for facet in nabla._table[0]:
            changed = dict(tightest)
            offset = change(changed.pop(facet), den // 2)
            if offset is not None:
                changed[facet] = offset
            with pytest.raises(InternalInconsistencyError, match=message):
                rep._cross_check_nabla(datum, r.half_sigma, nabla, (changed, den))


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
    with pytest.raises(InputError, match="^weight length does not match the lattice rank$"):
        QSRep.build(t1, [(1, 0), (-1, 0)])



@pytest.mark.parametrize("block, weights, message", [
    ({"builtin": "gl", "n": 40}, [[1]], "weight length does not match the lattice rank"),
    ({"builtin": "torus", "rank": 40}, [[1], [-1]], "weight length does not match the lattice rank"),
    ({"builtin": "gl", "n": 40}, [[1.5]], "weights must hold integers only, got 1.5"),
    ({"builtin": "gl", "n": 40}, "abc", "weights must be a list of integer lists"),
], ids=["gl", "torus", "float", "string"])
def test_weights_of_the_wrong_shape_are_refused_before_the_builtin_is_built(
        block, weights, message, monkeypatch):
    """Building GL(40) takes about n^5 steps, so weights that cannot fit a
    builtin's declared rank are refused, with the message the full build
    gives, before its datum is made."""
    monkeypatch.setattr(root_data, "_builtin", lambda kind, n: pytest.fail(f"built {kind}({n})"))
    with pytest.raises(InputError) as err:
        QSRep.from_dict({"root_datum": block, "weights": weights})
    assert str(err.value) == message

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


# the Fractions each build makes, as observed (Python 3.11) once the
# dominant cone's offsets were the int 0; building through Fraction vertices
# made 30, 30, 270 and 427, through Fraction elimination outputs 18, 18, 112
# and 235, through one Fraction per slab 3, 3, 12 and 18, and with a
# Fraction(0) offset per positive root 1, 1, 6 and 10
BUILD_FRACTIONS = {"torus-1x2pairs": 1, "torus-1x3pairs": 1, "gl2-cube-pair": 5,
                   "gl3-4x-std-dual": 7}


def test_builds_read_no_fraction_vertices_or_half_spaces(monkeypatch):
    """Building each bundled rep and GL(3) on 4 x (std + dual) reads
    neither ``Polytope.vertices`` nor ``Polytope.halfspaces``: every
    construction and check on the build path runs on the integer tables.
    Each build makes at most its pinned number of ``Fraction``s (its root
    datum is made fresh, outside the count), so a round trip through
    ``Fraction`` points that comes back fails here."""
    cases = {"torus-1x2pairs": (RootDatum.torus(1), ((1,), (1,), (-1,), (-1,))),
             "torus-1x3pairs": (RootDatum.torus(1), ((1,),) * 3 + ((-1,),) * 3),
             "gl2-cube-pair": (RootDatum.gl(2), catalog.GL2_WEIGHTS),
             "gl3-4x-std-dual": (RootDatum.gl(3), std_dual(3, 4))}
    made, read = [0], spy_on_fraction_reads(monkeypatch)
    real_new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made[0] += 1
        return real_new(cls, *args, **kwargs)

    built, counts = {}, {}
    for name, (datum, weights) in cases.items():
        made[0] = 0
        monkeypatch.setattr(Fraction, "__new__", counted)
        built[name] = QSRep.build(datum, weights)
        monkeypatch.setattr(Fraction, "__new__", real_new)
        counts[name] = made[0]
    assert read == []
    monkeypatch.undo()
    assert {name: built[name] for name in catalog.bundled_reps()} == catalog.bundled_reps()
    assert all(counts[name] <= BUILD_FRACTIONS[name] for name in cases), counts
