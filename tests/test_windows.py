import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qswindows import catalog, complexes, geometry, groupoid, linalg, verify, windows
from qswindows.arrangement import Arrangement
from qswindows.errors import InputError, InternalInconsistencyError, NotAdjacentError, OnWallError
from qswindows.rep import QSRep
from qswindows.root_data import RootDatum
from test_acceptance import CORPUS_COUNTS, CORPUS_SEED
from test_geometry import barycenter
from test_root_data import weyl_lengths

F = Fraction

# the twelve dominant characters of the GL(2) example window around the
# origin chamber, frozen from the brute-force scan below
GL2_WINDOW = (
    (-2, -2), (-1, -2), (-1, -1), (0, -2), (0, -1), (0, 0),
    (1, -1), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
)
GL2_MU_ARROWS = {(-2, -2): (3, 2), (-1, -2): (3, 3), (0, -2): (3, 1)}


def brute_window(rep, delta):
    """Independent oracle: scan a box and test every defining inequality."""
    shifted = rep.nabla.translate(delta)
    lo, hi = shifted.bounding_box()
    out = []
    for p in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if shifted.contains(p) and rep.root_datum.is_dominant(p):
            out.append(p)
    return tuple(sorted(out))


def test_window_examples(torus22, ctx22):
    assert ctx22.window((F(1, 2),)).chars == ((0,), (1,))
    assert ctx22.window((F(3, 2),)).chars == ((1,), (2,))
    with pytest.raises(OnWallError):
        ctx22.window((F(1),))


def test_window_gl2_matches_brute_force(gl2rep, ctxgl2):
    delta = (F(-1, 4), F(-1, 4))
    win = ctxgl2.window(delta)
    assert win.chars == brute_window(gl2rep, delta)
    assert win.chars == GL2_WINDOW
    assert len(win.chars) == 12


def test_window_chamber_independence(gl2rep, ctxgl2):
    for delta in ((F(-1, 4), F(-1, 4)), (F(0), F(0)), (F(2, 5), F(2, 5))):
        assert ctxgl2.window(delta).chars == GL2_WINDOW


def test_face_of_torus_examples(torus22, ctx22):
    fd = windows.face_of(torus22, (0,), ((1,), 1), ctx22)
    assert fd.inward_normals == ((1,),)
    assert fd.plus_indices == (0, 1)
    assert fd.beta_plus == (2,)
    assert fd.d_plus == 2
    assert fd.dominant

    fd2 = windows.face_of(torus22, (2,), ((1,), 1), ctx22)
    assert fd2.beta_plus == (-2,)
    assert fd2.d_plus == 2

    with pytest.raises(InputError):
        windows.face_of(torus22, (1,), ((1,), 1), ctx22)  # interior point


def test_dagger_torus(torus22, ctx22):
    fd = windows.face_of(torus22, (0,), ((1,), 1), ctx22)
    dag = windows.dagger(torus22, fd, ctx22)
    # its barycenter lies on (1/2)Sigma; moved to the wall point 1 it is 2
    assert linalg.add(barycenter(ctx22.half_sigma, dag.face), (F(1),)) == (2,)
    again = windows.dagger(torus22, dag, ctx22)
    assert again.key == fd.key


def test_mu_torus(torus22, ctx22):
    forward = windows.wall_crossing(torus22, (F(1, 2),), (F(3, 2),), ctx22)
    back = windows.wall_crossing(torus22, (F(3, 2),), (F(1, 2),), ctx22)
    assert windows.mu_of_crossing(torus22, forward, (0,)) == (2,)
    assert windows.mu_of_crossing(torus22, back, (2,)) == (0,)
    with pytest.raises(InputError, match=r"^\(1\) is not in the outgoing part"):
        windows.mu_of_crossing(torus22, forward, (1,))
    with pytest.raises(InputError, match=r"^\(1\) does not leave the window"):
        forward.face_of_char((1,))
    with pytest.raises(NotAdjacentError):
        windows.wall_crossing(torus22, (F(1, 2),), (F(5, 2),), ctx22)


def test_mu_refuses_a_non_integral_character(torus22, ctx22):
    """1/2 is no lattice weight: it is refused, not truncated to the
    outgoing character 0, whose image is (2,)."""
    forward = windows.wall_crossing(torus22, (F(1, 2),), (F(3, 2),), ctx22)
    for chi in ((F(1, 2),), (0.5,), (True,)):
        with pytest.raises(InputError, match=r"is not a lattice weight"):
            windows.mu_of_crossing(torus22, forward, chi)
    assert windows.mu_of_crossing(torus22, forward, (F(0),)) == (2,)


def test_window_refuses_a_float(torus22):
    """The float 0.1 is not 1/10, so it is refused rather than read as its
    binary value."""
    with pytest.raises(InputError, match=r"0\.1 is a float"):
        windows.Context(torus22).window((0.1,))


def test_partition_torus(torus22, ctx22):
    crossing = windows.wall_crossing(torus22, (F(1, 2),), (F(3, 2),), ctx22)
    assert crossing.common == ((1,),)
    assert list(crossing.chars_by_face.values()) == [((0,),)]


def test_gl2_crossing_frozen(gl2rep, ctxgl2):
    delta, delta2 = (F(0), F(0)), (F(1), F(1))
    crossing = windows.wall_crossing(gl2rep, delta, delta2, ctxgl2)
    assert crossing.delta0 == (F(1, 2), F(1, 2))
    assert crossing.outgoing == ((-2, -2), (-1, -2), (0, -2))
    assert len(crossing.faces) == 2
    stats = sorted((fd.codim, fd.d_plus, fd.beta_plus) for fd in crossing.faces.values())
    assert stats == [(1, 3, (3, 6)), (2, 4, (0, 6))]
    mapping = windows.mu_map(gl2rep, crossing)
    assert mapping == GL2_MU_ARROWS
    with pytest.raises(InputError, match=r"^\(-2, -1\) is not dominant"):
        complexes.complex_terms(gl2rep, next(iter(crossing.faces.values())), (-2, -1))
    edge = next(fd for fd in crossing.faces.values() if fd.codim == 1)
    assert sorted(crossing.chars_by_face[edge.key]) == [(-2, -2), (-1, -2)]


def test_gl2_dagger_pairing(gl2rep, ctxgl2):
    delta, delta2 = (F(0), F(0)), (F(1), F(1))
    crossing = windows.wall_crossing(gl2rep, delta, delta2, ctxgl2)
    back = windows.wall_crossing(gl2rep, delta2, delta, ctxgl2)
    datum = gl2rep.root_datum
    for key, fd in crossing.faces.items():
        dag = windows.dagger(gl2rep, fd, ctxgl2)
        assert dag.key in back.faces
        assert dag.codim == fd.codim
        assert dag.beta_plus == tuple(linalg.neg(datum.apply(datum.w0, fd.beta_plus)))
        again = windows.dagger(gl2rep, dag, ctxgl2)
        assert again.key == fd.key


def test_mu_involution_and_partition_gl2(gl2rep, ctxgl2):
    delta, delta2 = (F(0), F(0)), (F(1), F(1))
    crossing = windows.wall_crossing(gl2rep, delta, delta2, ctxgl2)
    back = windows.wall_crossing(gl2rep, delta2, delta, ctxgl2)
    forward = windows.mu_map(gl2rep, crossing)
    backward = windows.mu_map(gl2rep, back)
    for chi, img in forward.items():
        assert backward[img] == chi
    everything = set(crossing.common)
    for chars in crossing.chars_by_face.values():
        assert not (everything & set(chars))
        everything |= set(chars)
    assert everything == set(crossing.window.chars)
    assert len(crossing.window.chars) == len(crossing.window_prime.chars)


def test_dagger_tracks_mu_faces(gl2rep, ctxgl2):
    delta, delta2 = (F(0), F(0)), (F(1), F(1))
    crossing = windows.wall_crossing(gl2rep, delta, delta2, ctxgl2)
    for chi in crossing.outgoing:
        fd = crossing.face_of_char(chi)
        image = windows.mu_of_crossing(gl2rep, crossing, chi)
        image_face = windows.face_of(gl2rep, image, linalg._numerators(crossing.delta0), ctxgl2)
        assert image_face.key == windows.dagger(gl2rep, fd, ctxgl2).key


def test_asymmetric_pair_uses_segment_wall_point(torus22, ctx22):
    crossing = windows.wall_crossing(torus22, (F(3, 4),), (F(3, 2),), ctx22)
    assert crossing.delta0 == (F(1),)
    assert crossing.outgoing == ((0,),)


def test_face_data_weyl_equivariance(gl2rep, ctxgl2):
    """Applying a Weyl element to a face permutes the positive weight
    multiset and maps the weight sum accordingly."""
    from collections import Counter
    datum = gl2rep.root_datum
    poly = ctxgl2.half_sigma
    for face in poly.faces():
        fd = windows.face_data_from_face(gl2rep, poly, face)
        for w in weyl_lengths(datum):
            image_sample = datum.apply(w, barycenter(poly, face))
            image_face = poly.face_at(image_sample)
            imaged = windows.face_data_from_face(gl2rep, poly, image_face)
            moved = Counter(tuple(datum.apply(w, gl2rep.weights[i]))
                            for i in fd.plus_indices)
            target = Counter(gl2rep.weights[i] for i in imaged.plus_indices)
            assert moved == target
            assert imaged.beta_plus == tuple(datum.apply(w, fd.beta_plus))


def test_partition_chamber_independence(gl2rep, ctxgl2):
    reference = None
    for delta, delta2 in (((F(0), F(0)), (F(1), F(1))),
                          ((F(-1, 4), F(-1, 4)), (F(5, 4), F(5, 4))),
                          ((F(1, 3), F(1, 3)), (F(3, 5), F(3, 5)))):
        crossing = windows.wall_crossing(gl2rep, delta, delta2, ctxgl2)
        snapshot = (crossing.common, tuple(sorted(crossing.chars_by_face.items())))
        if reference is None:
            reference = snapshot
        assert snapshot == reference


def test_corpus_involution_and_partition(small_corpus):
    for rep_obj in small_corpus[:8]:
        ctx = windows.Context(rep_obj)
        pairs = catalog.adjacent_pairs(ctx, periods=1, per_wall=1, max_pairs=4)
        for delta, delta2 in pairs:
            crossing = windows.wall_crossing(rep_obj, delta, delta2, ctx)
            back = windows.wall_crossing(rep_obj, delta2, delta, ctx)
            forward = windows.mu_map(rep_obj, crossing)
            backward = windows.mu_map(rep_obj, back)
            assert all(backward[img] == chi for chi, img in forward.items())
            assert len(crossing.window.chars) == len(crossing.window_prime.chars)


def test_window_stored_per_chamber(gl2rep):
    ctx = windows.Context(gl2rep)
    first = ctx.window((F(-1, 4), F(-1, 4)))
    second = ctx.window((F(2, 5), F(2, 5)))
    assert second.chars == first.chars == GL2_WINDOW
    assert first.delta == (F(-1, 4), F(-1, 4))
    assert second.delta == (F(2, 5), F(2, 5))
    assert len(ctx._windows) == 1


def _chamber_pair(arr, delta, delta2):
    return (arr.chamber_of(arr.to_coords(delta)).sign_vector,
            arr.chamber_of(arr.to_coords(delta2)).sign_vector)


def _same_pair_variants(arr, delta, delta2):
    """Point pairs crossing the same chamber pair as (delta, delta2): both
    ends halfway to the wall point, and in rank >= 2 both ends moved along
    the wall, which moves the wall point too."""
    c, c2 = arr.to_coords(delta), arr.to_coords(delta2)
    wall = arr.require_adjacent(arr.chamber_of(c), arr.chamber_of(c2))
    family = arr.families[wall.family_index]
    lo, hi = linalg.dot(c, family.normal), linalg.dot(c2, family.normal)
    t = (wall.offset - lo) / (hi - lo)
    c0 = linalg.add(c, linalg.scale(t, linalg.sub(c2, c)))
    half = F(1, 2)
    out = [(linalg.scale(half, linalg.add(c, c0)), linalg.scale(half, linalg.add(c2, c0)))]
    if arr.dim >= 2:
        n = family.normal
        along = (n[1], -n[0]) if (n[0], n[1]) != (0, 0) else (1, 0)
        along += (0,) * (arr.dim - 2)
        eps = F(1, 8)
        for _ in range(8):
            v = linalg.scale(eps, along)
            moved = (linalg.add(c, v), linalg.add(c2, v))
            if (not any(arr.on_wall(p) for p in moved)
                    and [arr.chamber_of(p) for p in moved] == [arr.chamber_of(c),
                                                                arr.chamber_of(c2)]
                    and len(arr.separating_walls(*moved)) == 1):
                out.append(moved)
                break
            eps /= 2
    key = _chamber_pair(arr, delta, delta2)
    for a, b in out:
        pair = (arr.to_ambient(a), arr.to_ambient(b))
        assert _chamber_pair(arr, *pair) == key
        yield pair


def _assert_cached_equals_fresh(rep, ctx, point_pairs):
    """Every crossing from the warm Context equals one from a fresh Context,
    whole dataclass and mu map; returns how many reused a pair's data at a
    different wall point."""
    arr = ctx.arrangement
    first_wall_point = {}
    moved = 0
    for delta, delta2 in point_pairs:
        warm = windows.wall_crossing(rep, delta, delta2, ctx)
        cold = windows.wall_crossing(rep, delta, delta2, windows.Context(rep))
        assert warm == cold
        assert windows.mu_map(rep, warm) == windows.mu_map(rep, cold)
        key = _chamber_pair(arr, delta, delta2)
        moved += warm.delta0 != first_wall_point.setdefault(key, warm.delta0)
    assert len(ctx._crossings) == len(first_wall_point)
    return moved


def test_cached_crossings_equal_fresh_on_corpus(small_corpus):
    moved = 0
    for rep_obj in small_corpus:
        ctx = windows.Context(rep_obj)
        arr = ctx.arrangement
        point_pairs = []
        for delta, delta2 in catalog.adjacent_pairs(ctx, periods=2, per_wall=2, max_pairs=12):
            point_pairs.append((delta, delta2))
            point_pairs.extend(_same_pair_variants(arr, delta, delta2))
        moved += _assert_cached_equals_fresh(rep_obj, ctx, point_pairs)
    assert moved > 0


@pytest.mark.parametrize("name", sorted(catalog.bundled_reps()))
def test_cached_crossings_equal_fresh_on_groupoid_hops(name):
    rep_obj = catalog.bundled_reps()[name]
    ctx = windows.Context(rep_obj)
    arr = ctx.arrangement
    rng = random.Random(7)
    point_pairs = []
    while len(point_pairs) < 400:
        a, b = (tuple(F(rng.randrange(-24, 24), 8) for _ in range(arr.dim)) for _ in range(2))
        if arr.on_wall(a) or arr.on_wall(b):
            continue
        label = linalg.sub(b, a)
        for hop in groupoid.split_into_hops(arr, groupoid.Cross(a, b, label)):
            point_pairs.append((arr.to_ambient(hop.src), arr.to_ambient(hop.dst)))
    _assert_cached_equals_fresh(rep_obj, ctx, point_pairs)
    assert len(ctx._crossings) < len(point_pairs)


def _gl3_std_dual():
    weights = [tuple(s if j == i else 0 for j in range(3))
               for _ in range(4) for i in range(3) for s in (1, -1)]
    return QSRep.build(RootDatum.gl(3), weights)


def _assert_face_of_translate(rep, fd, moved, point, delta0):
    """fd, a face of (1/2)Sigma, is the face of moved = delta_0 + (1/2)Sigma
    through the point, its barycenter moved by delta_0."""
    got = windows.face_data_from_face(rep, moved, moved.face_at(point))
    assert barycenter(moved, got.face) == linalg.add(barycenter(rep.half_sigma, fd.face), delta0)
    assert got == fd


def _check_wall_faces_on_half_sigma(rep):
    """Every wall face is the face of (1/2)Sigma through rho + chi - delta_0
    and the face of delta_0 + (1/2)Sigma through rho + chi; so is every
    dagger, computed on either polytope.  Returns how many wall faces were
    seen and how many of them were dominant, with a dagger."""
    ctx = windows.Context(rep)
    half, datum = ctx.half_sigma, rep.root_datum
    faces = daggers = 0
    for delta, delta2 in catalog.adjacent_pairs(ctx, periods=2, per_wall=2, max_pairs=12):
        crossing = windows.wall_crossing(rep, delta, delta2, ctx)
        delta0 = crossing.delta0
        moved = half.translate(delta0)
        for key, chars in crossing.chars_by_face.items():
            fd = crossing.faces[key]
            for chi in chars:
                # chi - delta_0 on the boundary of nabla, and face_of is the
                # face of the Fraction point rho + chi - delta_0
                assert rep.nabla.contains(linalg.sub(chi, delta0))
                assert rep.nabla.tight_indices(linalg.sub(chi, delta0))
                point = linalg.add(chi, datum.rho)
                assert fd == windows.face_data_from_face(
                    rep, half, half.face_at(linalg.sub(point, delta0)))
                _assert_face_of_translate(rep, fd, moved, point, delta0)
            faces += 1
            if not fd.dominant:
                with pytest.raises(InputError):
                    windows.dagger(rep, fd, ctx)
                continue
            dag = windows.dagger(rep, fd, ctx)
            dual = linalg.neg(barycenter(half, fd.face))
            assert dag.face == half.face_at(datum.apply(datum.w0, dual))
            # on moved, symmetric about delta_0, the dual of the moved
            # barycenter is delta_0 + dual, and w0 fixes delta_0
            image = datum.apply(datum.w0, linalg.add(delta0, dual))
            _assert_face_of_translate(rep, dag, moved, image, delta0)
            daggers += 1
    return faces, daggers


def _dominant_faces(rep):
    """The dominant faces of (1/2)Sigma, with their data."""
    half = rep.half_sigma
    return [fd for fd in (windows.face_data_from_face(rep, half, f) for f in half.faces())
            if fd.dominant]


def _assert_dagger_is_the_dual_point_face(rep, monkeypatch):
    """The independent oracle of ``dagger``: for every dominant face F of
    (1/2)Sigma, which is symmetric about 0, F^dagger has the tight set of
    the face that ``face_at`` finds through w0(-barycenter of F).  The
    permutation that dagger reads is an involution that keeps offsets, and
    dagger, on a fresh Context, calls no ``face_at``.  Returns the number
    of dominant faces."""
    half, datum, perm = rep.half_sigma, rep.root_datum, rep.dagger_facets
    assert sorted(perm) == list(range(len(half.halfspaces)))
    assert all(perm[perm[i]] == i for i in range(len(perm)))
    assert all(half.halfspaces[j].offset == h.offset for h, j in zip(half.halfspaces, perm))
    faces = _dominant_faces(rep)
    expected = [half.face_at(datum.apply(datum.w0, linalg.neg(barycenter(half, fd.face))))
                for fd in faces]

    def refuse(*_):
        raise AssertionError("dagger called face_at")
    ctx = windows.Context(rep)
    with monkeypatch.context() as patch:
        patch.setattr(geometry.Polytope, "face_at", refuse)
        got = [windows.dagger(rep, fd, ctx) for fd in faces]
    assert [d.face for d in got] == expected
    assert [d.key for d in (windows.dagger(rep, d, ctx) for d in got)] == [
        fd.key for fd in faces]
    return len(faces)


def test_dagger_matches_the_dual_point_route(monkeypatch):
    """The bundled reps, GL(2) on std + dual, GL(3) on 4 x (std + dual) and
    the CY models' g1 reps."""
    reps = [*catalog.bundled_reps().values(), _gl3_std_dual(),
            QSRep.build(RootDatum.gl(2), ((1, 0), (-1, 0), (0, 1), (0, -1))),
            *(model.g1_rep for model in catalog.bundled_cy_models().values())]
    assert all(_assert_dagger_is_the_dual_point_face(r, monkeypatch) > 0 for r in reps)


def test_dagger_matches_the_dual_point_route_on_the_corpus(monkeypatch):
    """The acceptance corpus (seed 20250810), every one of its 210 reps."""
    reps = catalog.random_corpus(CORPUS_SEED, CORPUS_COUNTS)
    assert len(reps) == 210
    assert all(_assert_dagger_is_the_dual_point_face(r, monkeypatch) > 0 for r in reps)


def test_wall_faces_live_on_half_sigma(small_corpus, gl2rep):
    seen = [_check_wall_faces_on_half_sigma(rep) for rep in small_corpus + [gl2rep]]
    assert all(faces > 0 and daggers == faces for faces, daggers in seen)
    faces, daggers = _check_wall_faces_on_half_sigma(_gl3_std_dual())
    # GL(3) wall faces can cross the Weyl walls; they have no dagger
    assert faces > 0 and daggers < faces


def _criterion6_hops(arr):
    """The arrows of criterion 6's seeded paths (seed 11, 1000 draws), each
    with the step its path recorded and its hops."""
    rng = random.Random(11)
    for _ in range(1000):
        path = verify._random_positive_path(arr, rng)
        if path is not None:
            for a, step in zip(path.arrows, path.steps):
                yield a, step, groupoid.split_into_hops(arr, a)


@pytest.mark.parametrize("name", sorted(catalog.bundled_reps()))
def test_located_chambers_match_unlocated_crossing(name):
    rep_obj = catalog.bundled_reps()[name]
    located_ctx = windows.Context(rep_obj)
    arr = located_ctx.arrangement
    plain_ctx = windows.Context(rep_obj)
    hops = 0
    for a, step, split in _criterion6_hops(arr):
        pairs = list(zip(step.hops, step.hops[1:]))
        assert [groupoid.Cross(h.sample, t.sample, a.label) for h, t in pairs] == split
        # the transcripts pass the recorded chambers; plain_ctx locates afresh
        for here, there in pairs:
            located = windows.wall_crossing(rep_obj, here, there, located_ctx)
            plain = windows.wall_crossing(
                rep_obj, arr.to_ambient(here.sample), arr.to_ambient(there.sample), plain_ctx)
            assert located == plain
            assert windows.mu_map(rep_obj, located) == windows.mu_map(rep_obj, plain)
            hops += 1
    assert hops > 100


def test_contexts_share_the_representation_s_objects(torus22, gl2rep):
    """Fresh Contexts build neither the arrangement nor (1/2)Sigma: both
    are the representation's own objects."""
    for rep_obj in (torus22, gl2rep):
        for ctx in (windows.Context(rep_obj), windows.Context(rep_obj)):
            assert ctx.arrangement is rep_obj.arrangement
            assert ctx.half_sigma is rep_obj.half_sigma


def test_located_chamber_stands_for_its_point(gl2rep, ctxgl2):
    arr = ctxgl2.arrangement
    delta, delta2 = (F(0), F(0)), (F(1), F(1))
    here, there = (arr.chamber_of(arr.to_coords(d)) for d in (delta, delta2))
    plain = windows.wall_crossing(gl2rep, delta, delta2, ctxgl2)
    assert windows.wall_crossing(gl2rep, here, there, ctxgl2) == plain
    assert windows.wall_crossing(gl2rep, here, delta2, ctxgl2) == plain
    assert ctxgl2.window(here) == ctxgl2.window(delta)
    # a chamber stands for its own sample's point, not for every point in it
    nearby = arr.chamber_of(linalg.add(here.sample, (F(1, 8),)))
    assert nearby == here
    moved = windows.wall_crossing(gl2rep, nearby, there, ctxgl2)
    assert moved.delta == arr.to_ambient(nearby) != delta
    assert moved.window.chars == plain.window.chars


@pytest.mark.parametrize("name", ["gl2-cube-pair", "torus-1x3pairs"])
def test_crossing_again_makes_no_fraction(name, monkeypatch):
    """Windows and crossings keep their points as integer numerators: a
    second crossing of one chamber pair, with its mu map, constructs no
    ``Fraction``, and the points read afterwards are the first crossing's."""
    rep_obj = catalog.bundled_reps()[name]
    ctx = windows.Context(rep_obj)
    arr = ctx.arrangement
    here, there = arr.chamber_of((F(1, 3),)), arr.chamber_of((F(2, 3),))
    first = windows.wall_crossing(rep_obj, here, there, ctx)
    windows.mu_map(rep_obj, first)
    made = []
    real = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: (
        made.append(a), real(cls, *a, **k))[1])
    again = windows.wall_crossing(rep_obj, here, there, ctx)
    windows.mu_map(rep_obj, again)
    assert made == []
    monkeypatch.undo()
    assert again == first
    assert (again.delta, again.delta_prime, again.delta0) == (
        first.delta, first.delta_prime, first.delta0)
    assert again.delta == arr.to_ambient(here) and again.delta_prime == arr.to_ambient(there)


def test_not_adjacent_names_both_ends_as_ambient_points(gl2rep, ctxgl2):
    """A chamber and a point that are not adjacent are both named by ambient
    points, not the chamber by its invariant coordinates."""
    arr = ctxgl2.arrangement
    with pytest.raises(NotAdjacentError,
                       match=r"^\(0, 0\) and \(3, 3\) are at distance 3, not 1$"):
        windows.wall_crossing(gl2rep, arr.chamber_of((0,)), (3, 3), ctxgl2)
    with pytest.raises(NotAdjacentError,
                       match=r"^\(3, 3\) and \(3/4, 3/4\) are at distance 2, not 1$"):
        windows.wall_crossing(gl2rep, (3, 3), arr.chamber_of((F(3, 4),)), ctxgl2)


# -- lattice translates ------------------------------------------------------------


@pytest.fixture(scope="module")
def translate_inputs(gl2rep):
    """Reps with adjacent pairs: the first four rank-one and the first six
    rank-two reps of the acceptance corpus (seed 20250810), and GL(2)."""
    corpus = catalog.random_corpus(20250810, {1: 120, 2: 6})
    out = []
    for rep_obj in corpus[:4] + corpus[120:] + [gl2rep]:
        ctx = windows.Context(rep_obj)
        pairs = catalog.adjacent_pairs(ctx, periods=1, per_wall=1, max_pairs=6)
        out.append((rep_obj, ctx.arrangement, pairs))
    return out


def _assert_equals_fresh(rep_obj, crossing):
    """The crossing, and its mu map, equal the ones a fresh Context builds."""
    fresh = windows.wall_crossing(rep_obj, crossing.delta, crossing.delta_prime,
                                  windows.Context(rep_obj))
    assert crossing == fresh and crossing.wall == fresh.wall
    assert windows.mu_map(rep_obj, crossing) == windows.mu_map(rep_obj, fresh)


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_translated_crossings_equal_fresh(translate_inputs, data):
    rep_obj, arr, pairs = data.draw(st.sampled_from(translate_inputs))
    delta, delta2 = data.draw(st.sampled_from(pairs))
    m = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=arr.dim, max_size=arr.dim)))
    ctx = windows.Context(rep_obj)
    first = windows.wall_crossing(rep_obj, delta, delta2, ctx)
    if data.draw(st.booleans()):  # a base pair with, or without, its mu images
        windows.mu_map(rep_obj, first)
    classes = len(ctx._classes)
    shift = arr.character(m)
    moved = windows.wall_crossing(rep_obj, linalg.add(delta, shift),
                                  linalg.add(delta2, shift), ctx)
    # both windows were exact or class hits: no lattice scan
    assert len(ctx._classes) == classes
    _assert_equals_fresh(rep_obj, moved)
    assert moved.window.chars == tuple(tuple(linalg.add(c, shift)) for c in first.window.chars)


@settings(deadline=None, max_examples=30)
@given(name=st.sampled_from(sorted(catalog.bundled_reps())), seed=st.integers(0, 10**6),
       m=st.integers(-3, 3))
def test_translated_path_crossings_equal_fresh(name, seed, m):
    """A path there and back, t(m), then there and back again one lattice
    step away: every hop crossing equals a fresh one, and the transcript
    moves each character by the character of m."""
    rep_obj = catalog.bundled_reps()[name]
    ctx = windows.Context(rep_obj)
    arr = ctx.arrangement
    path = verify._random_positive_path(arr, random.Random(seed))
    if path is None:
        return
    there = list(path.arrows)
    back = [groupoid.Cross(a.dst, a.src, linalg.neg(a.label)) for a in reversed(there)]
    again = [groupoid.Cross(linalg.add(a.src, (m,)), linalg.add(a.dst, (m,)), a.label)
             for a in there + back]
    path = groupoid.make_path(arr, there + back + [groupoid.Translate((m,))] + again)
    for step in path.steps:
        for here, there in zip(step.hops, step.hops[1:]):
            _assert_equals_fresh(rep_obj, windows.wall_crossing(rep_obj, here, there, ctx))
    shift = arr.character((m,))
    mapping = groupoid.transcript_window_map(rep_obj, path, ctx)
    assert mapping == {chi: tuple(linalg.add(chi, shift)) for chi in mapping}


def test_translate_scans_and_builds_once(small_corpus, monkeypatch):
    """Crossing (delta, delta') and then (delta + m, delta' + m) scans one
    window per chamber class and builds one pair per exact chamber pair,
    whose faces come from one store; neither crossing rebuilds its points,
    and a dagger is read from that store with no ``face_at``."""
    rep_obj = next(r for r in small_corpus if r.rank == 2)
    ctx = windows.Context(rep_obj)
    arr = ctx.arrangement
    delta, delta2 = catalog.adjacent_pairs(ctx, periods=1, per_wall=1, max_pairs=2)[0]
    shift = arr.character((1, -2))
    calls = []
    for owner, name in ((geometry.Polytope, "lattice_points"), (geometry.Polytope, "face_at"),
                        (windows._PairCrossing, "__init__"), (Arrangement, "to_ambient")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name, **k: (
            calls.append(name), real(*a, **k))[1])
    first = windows.wall_crossing(rep_obj, delta, delta2, ctx)
    ends = linalg.add(delta, shift), linalg.add(delta2, shift)
    moved = windows.wall_crossing(rep_obj, *ends, ctx)
    assert calls.count("lattice_points") == 2 and calls.count("__init__") == 2
    assert calls.count("face_at") == len(first.faces)
    assert all(moved.faces[k] is fd for k, fd in first.faces.items())
    assert calls.count("to_ambient") == 0
    assert (moved.delta, moved.delta_prime) == ends
    fd = next(iter(first.faces.values()))
    assert windows.dagger(rep_obj, fd, ctx) is windows.dagger(rep_obj, fd, ctx)
    assert calls.count("face_at") == len(first.faces)


@pytest.mark.parametrize("name", ["torus-1x3pairs", "gl2-cube-pair"])
def test_face_data_built_once_per_tight_set(name, monkeypatch):
    """Crossing sampled pairs and taking each wall face's dagger builds the
    data of each face of (1/2)Sigma once per Context."""
    rep_obj = catalog.bundled_reps()[name]
    ctx = windows.Context(rep_obj)
    built = []
    real = windows.face_data_from_face
    monkeypatch.setattr(windows, "face_data_from_face", lambda rep, poly, face: (
        built.append(face.facet_indices), real(rep, poly, face))[1])
    seen = set()
    for delta, delta2 in catalog.adjacent_pairs(ctx, periods=2, per_wall=2, max_pairs=6):
        for fd in windows.wall_crossing(rep_obj, delta, delta2, ctx).faces.values():
            seen |= {fd.face.facet_indices, windows.dagger(rep_obj, fd, ctx).face.facet_indices}
    assert len(built) == len(set(built)) and set(built) == seen


def test_locating_and_subset_sums_run_once(monkeypatch):
    """Ambient windows and crossings on one arrangement locate their points
    with no solve and at most one rref, made once for the arrangement; and
    each face's positive weights are summed over its subsets once per
    Context, however often the complexes read them."""
    rep_obj = QSRep.build(RootDatum.gl(2), catalog.GL2_WEIGHTS)
    ctx = windows.Context(rep_obj)
    pairs = catalog.adjacent_pairs(ctx, periods=2, per_wall=2, max_pairs=6)
    calls = []
    for owner, name in ((linalg, "solve"), (linalg, "rref"), (windows, "_index_sum")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name: (
            calls.append(name), real(*a))[1])
    located = []  # per point located, the rrefs it made
    real_coords = Arrangement._coords

    def coords(self, point):
        before = calls.count("rref")
        out = real_coords(self, point)
        located.append(calls.count("rref") - before)
        return out
    monkeypatch.setattr(Arrangement, "_coords", coords)

    def sweep():
        before = calls.count("_index_sum")
        for delta, delta2 in pairs:
            ctx.window(delta)
            crossing = windows.wall_crossing(rep_obj, delta, delta2, ctx)
            for key, fd in crossing.faces.items():
                for chi in crossing.chars_by_face[key]:
                    complexes.complex_terms(rep_obj, fd, chi)
                    complexes.koszul_degree_term(rep_obj, fd, chi, 1)
                complexes.summand_sets(rep_obj, crossing, fd, ctx)
        return calls.count("_index_sum") - before

    first = sweep()
    rrefs = calls.count("rref")
    assert sweep() == 0
    assert len(located) == 2 * 3 * len(pairs) and calls.count("solve") == 0
    # the only rref made while locating is the one that builds the inverse
    assert sum(located) <= 1 and calls.count("rref") == rrefs
    faces = ctx._faces.values()
    assert 0 < first <= sum(1 + 2 ** fd.d_plus for fd in faces)


def test_outgoing_characters_off_the_wall_point_boundary_raise(torus22):
    """An outgoing character inside or outside nabla moved to the wall point
    is refused, checked on the integer numerators of delta_0."""
    ctx = windows.Context(torus22)
    crossing = windows.wall_crossing(torus22, (F(1, 2),), (F(3, 2),), ctx)
    assert crossing.outgoing == ((0,),) and crossing.delta0 == (1,)
    for d, e in (((3,), 4), ((5,), 2)):  # (0) - delta_0 inside, then outside, nabla
        with pytest.raises(InternalInconsistencyError, match="window boundary"):
            windows._PairCrossing(torus22, ctx, crossing.wall, crossing.window,
                                  crossing.window_prime, d, e)
