import dataclasses
import math
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qswindows import catalog, errors, geometry, groupoid, linalg, windows
from qswindows.arrangement import Arrangement, Wall, WallFamily, build_arrangement
from qswindows.errors import InputError, NotAdjacentError, OnWallError
from qswindows.rep import QSRep
from qswindows.root_data import RootDatum
from qswindows.windows import Context
from test_geometry import frac_polytope
from test_linalg import primitive_scale
from test_windows import _criterion6_hops

F = Fraction
# GL(2) weights whose facet families share a normal and some wall positions
OVERLAP_WEIGHTS = [(1, 3), (3, 1), (-1, -3), (-3, -1), (0, 2), (2, 0), (0, -2), (-2, 0)]


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
    assert len(arr22.separating_walls((F(1, 2),), (F(5, 2),))) == 2
    tiny = F(1, 2) + F(1, 10 ** 9)
    assert len(arr22.separating_walls((F(1, 2),), (tiny,))) == 0
    assert len(arr22.separating_walls((F(1, 2),), (F(3, 2),))) == 1
    with pytest.raises(NotAdjacentError):
        arr22.require_adjacent(arr22.chamber_of((F(1, 2),)), arr22.chamber_of((F(5, 2),)))


def test_on_wall_endpoint_rejected(arr22):
    with pytest.raises(OnWallError):
        arr22.separating_walls((F(1),), (F(5, 2),))


def test_generic_ell_examples(arr22, arrgl2):
    assert arr22.is_generic_ell((1,))
    assert not arr22.is_generic_ell((0,))
    assert arrgl2.is_generic_ell((1, 1))
    with pytest.raises(InputError):
        arrgl2.is_generic_ell((1, 0))  # not Weyl invariant


def triangle_report(arr, a, b, c) -> dict:
    """Separating-set identity and distance inequality for three points."""
    ab = set(arr.separating_walls(a, b))
    bc = set(arr.separating_walls(b, c))
    ac = set(arr.separating_walls(a, c))
    symmetric_difference = (ab | bc) - (ab & bc)
    return {
        "sets": {"ab": ab, "bc": bc, "ac": ac},
        "identity_holds": ac == symmetric_difference,
        "triangle_inequality": len(ac) <= len(ab) + len(bc),
        "equality": len(ac) == len(ab) + len(bc),
        "equality_iff_disjoint": (len(ac) == len(ab) + len(bc)) == (not ab & bc),
    }


def test_triangle_identity(arr22):
    a, b, c = (F(1, 2),), (F(3, 2),), (F(5, 2),)
    report = triangle_report(arr22, a, b, c)
    assert report["identity_holds"] and report["equality"]
    report = triangle_report(arr22, a, b, a)
    assert report["identity_holds"] and not report["equality"]
    assert report["equality_iff_disjoint"]
    report = triangle_report(arr22, a, a, a)
    assert report["identity_holds"]
    assert not report["sets"]["ac"]


def test_periodicity(arr22, arrgl2):
    for arr, shift in ((arr22, (3,)), (arrgl2, (-2,))):
        a, b = (F(1, 4),), (F(9, 4),)
        da = len(arr.separating_walls(a, b))
        a2 = linalg.add(a, shift)
        b2 = linalg.add(b, shift)
        assert len(arr.separating_walls(a2, b2)) == da
        assert arr.chamber_of(a).sign_vector != arr.chamber_of(a2).sign_vector


def test_distance_symmetry(arr33):
    a, b = (F(1, 4),), (F(13, 4),)
    assert len(arr33.separating_walls(a, b)) == len(arr33.separating_walls(b, a)) == 3


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
            boundary = rep_obj.nabla.translate(ambient).lattice_points()[1]
            assert arr.on_wall(coords) == bool(boundary)


def test_to_coords_rejects_non_invariant(arrgl2):
    with pytest.raises(InputError):
        arrgl2.to_coords((1, 0))


def test_arrangement_needs_generic_labels():
    # an invariant subspace inside a zonotope facet hyperplane is rejected
    r = QSRep.build(RootDatum.torus(2), [(1, 0), (-1, 0), (0, 1), (0, -1)])
    ctx = Context(r)  # fine: full-rank torus, no facet contains M^W
    assert ctx.arrangement.dim == 2


def _oracle_families(rep) -> tuple[WallFamily, ...]:
    """The wall families by the Fraction route: each facet covector of nabla
    restricted to the invariant basis and scaled to be primitive, which
    scales its offset and unit step alike."""
    families = {}
    for idx, h in enumerate(rep.nabla.halfspaces):
        restricted = tuple(linalg.dot(b, h.normal) for b in rep.root_datum.invariant_basis)
        if linalg.is_zero(restricted):
            continue
        primitive, step = primitive_scale(restricted)
        normalized = linalg.sign_normalized(primitive)
        rescale = step if normalized == primitive else -step
        families.setdefault((normalized, step, h.offset * rescale % step), idx)
    return tuple(WallFamily(n, base, step, idx)
                 for (n, step, base), idx in sorted(families.items()))


def test_wall_families_match_fraction_oracle_on_reps(small_corpus, gl2rep):
    for rep in [*small_corpus, gl2rep, QSRep.build(RootDatum.gl(2), OVERLAP_WEIGHTS)]:
        assert rep.arrangement.families == _oracle_families(rep)


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_wall_families_match_fraction_oracle_on_halfspaces(data):
    """Offsets in sixths and fifths, with no half-space paired with its
    opposite: the covector's sign moves a family's coset, as o + Z and
    -o + Z differ unless 2o is an integer."""
    vectors = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)
    basis = tuple(data.draw(st.lists(vectors, min_size=1, max_size=2)))
    halfspaces = tuple(
        geometry.HalfSpace(linalg.primitive(n), F(k, q)) for n, k, q in data.draw(st.lists(
            st.tuples(vectors, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5, 6])),
            min_size=1, max_size=5)))
    rep = SimpleNamespace(root_datum=SimpleNamespace(invariant_basis=basis),
                          sigma=SimpleNamespace(_table=((), (), 1)),
                          nabla=frac_polytope(2, halfspaces, ()))
    expected = _oracle_families(rep)
    if not expected:
        with pytest.raises(InputError, match="every window facet direction"):
            build_arrangement(rep)
    else:
        assert build_arrangement(rep).families == expected


def test_overlapping_families_count_hyperplanes_once():
    """Facet families with the same restricted normal can share walls; a
    shared position is still one hyperplane for distances and adjacency."""
    from qswindows import windows
    r = QSRep.build(RootDatum.gl(2), OVERLAP_WEIGHTS)
    ctx = Context(r)
    arr = ctx.arrangement
    steps = sorted(fam.offset_step for fam in arr.families)
    assert steps == [F(1, 2), F(1)]
    walls = arr.separating_walls((F(1, 16),), (F(33, 16),))
    positions = [w.offset for w in walls]
    assert positions == sorted(set(positions))
    assert len(arr.separating_walls((F(1, 16),), (F(33, 16),))) == 4
    assert len(arr.separating_walls((F(1, 4),), (F(3, 4),))) == 1
    crossing = windows.wall_crossing(
        r, arr.to_ambient((F(1, 4),)), arr.to_ambient((F(3, 4),)), ctx)
    back = windows.wall_crossing(
        r, arr.to_ambient((F(3, 4),)), arr.to_ambient((F(1, 4),)), ctx)
    forward = windows.mu_map(r, crossing)
    backward = windows.mu_map(r, back)
    assert all(backward[img] == chi for chi, img in forward.items())


# -- the Fraction oracle --------------------------------------------------------
# The wall-family arithmetic that the integer queries replaced, kept here as
# the reference they must match exactly.  Oracle walls are (family index,
# Fraction offset) pairs, and the program's walls are compared as such pairs.

OracleWall = namedtuple("OracleWall", "family_index offset")


def _pairs(walls) -> list[tuple[int, Fraction]]:
    return [(w.family_index, w.offset) for w in walls]


def _value(f, coords) -> Fraction:
    return Fraction(linalg.dot(coords, f.normal))


def _interval_index(f, value: Fraction) -> int:
    if (value - f.base_offset) % f.offset_step == 0:
        raise ValueError("value sits on a wall of this family")
    return math.floor((value - f.base_offset) / f.offset_step)


def _offsets_between(f, a: Fraction, b: Fraction) -> list[Fraction]:
    lo, hi = min(a, b), max(a, b)
    start = math.floor((lo - f.base_offset) / f.offset_step) + 1
    stop = math.ceil((hi - f.base_offset) / f.offset_step) - 1
    return [f.base_offset + k * f.offset_step for k in range(start, stop + 1)
            if lo < f.base_offset + k * f.offset_step < hi]


def _oracle_walls_at(arr, coords) -> list[OracleWall]:
    out, seen = [], set()
    for i, f in enumerate(arr.families):
        v = _value(f, coords)
        if (v - f.base_offset) % f.offset_step == 0 and (f.normal, v) not in seen:
            seen.add((f.normal, v))
            out.append(OracleWall(i, v))
    return out


def _oracle_chamber(arr, coords) -> tuple[int, ...]:
    walls = _oracle_walls_at(arr, coords)
    if walls:
        raise OnWallError(coords, walls[0])
    return tuple(_interval_index(f, _value(f, coords)) for f in arr.families)


def _oracle_separating_walls(arr, a, b) -> list[OracleWall]:
    for p in (a, b):
        _oracle_chamber(arr, p)
    out, seen = [], set()
    for i, f in enumerate(arr.families):
        for off in _offsets_between(f, _value(f, a), _value(f, b)):
            if (f.normal, off) not in seen:
                seen.add((f.normal, off))
                out.append(OracleWall(i, off))
    out.sort()
    return out


def _oracle_cut_points(arr, a, b) -> list:
    walls = _oracle_separating_walls(arr, a, b)
    if not walls:
        return []
    direction = linalg.sub(b, a)
    times = sorted((w.offset - _value(arr.families[w.family_index], a))
                   / _value(arr.families[w.family_index], direction) for w in walls)
    if len(set(times)) != len(times):
        raise InputError("segment passes through a wall intersection; perturb the endpoints")
    mids = [linalg.add(a, linalg.scale((s + t) / 2, direction)) for s, t in zip(times, times[1:])]
    return [a, *mids, b]


def _oracle_to_ambient(arr, coords):
    """The ambient point as a Fraction sum of scaled basis vectors."""
    out = (F(0),) * arr.rep.rank
    for c, b in zip(coords, arr.invariant_basis, strict=True):
        out = linalg.add(out, linalg.scale(F(c), b))
    return out


def _oracle_generic_label(arr, coords) -> bool:
    ell = _oracle_to_ambient(arr, coords)
    return (not linalg.is_zero(ell)
            and all(linalg.dot(ell, h.normal) != 0 for h in arr.rep.sigma.halfspaces))


def _outcome(fn, *args):
    """A query's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (OnWallError, InputError) as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def oracle_arrangements(ctx22, ctx33, ctxgl2, small_corpus):
    """The bundled reps, the overlapping-families GL(2) rep, and one rank-2
    and one rank-3 corpus torus."""
    corpus = [next(r for r in small_corpus if r.rank == k) for k in (2, 3)]
    overlap = QSRep.build(RootDatum.gl(2), OVERLAP_WEIGHTS)
    return [ctx22.arrangement, ctx33.arrangement, ctxgl2.arrangement,
            Context(overlap).arrangement, *(Context(r).arrangement for r in corpus)]


def _draw_point(data, arr):
    """A random rational point; or one on a wall, or 1/N from it."""
    coords = [data.draw(st.fractions(-4, 4, max_denominator=12)) for _ in range(arr.dim)]
    mode = data.draw(st.sampled_from(("free", "on", "near")))
    if mode != "free":
        f = arr.families[data.draw(st.integers(0, len(arr.families) - 1))]
        target = f.base_offset + data.draw(st.integers(-6, 6)) * f.offset_step
        j = next(i for i, x in enumerate(f.normal) if x)
        rest = sum(c * x for i, (c, x) in enumerate(zip(coords, f.normal)) if i != j)
        coords[j] = (target - rest) / f.normal[j]
        if mode == "near":
            coords[j] += data.draw(st.sampled_from((1, -1))) * F(1, data.draw(
                st.integers(2, 10 ** 9)))
    return tuple(coords)


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_integer_queries_match_fraction_oracle(oracle_arrangements, data):
    arr = oracle_arrangements[data.draw(st.integers(0, len(oracle_arrangements) - 1))]
    assert not arr.is_generic_label((0,) * arr.dim)
    a, b = _draw_point(data, arr), _draw_point(data, arr)
    for p in (a, b):
        assert _pairs(arr.walls_at(p)) == _oracle_walls_at(arr, p)
        assert arr.on_wall(p) == bool(_oracle_walls_at(arr, p))
        assert (_outcome(lambda q: arr.chamber_of(q).sign_vector, p)
                == _outcome(_oracle_chamber, arr, p))
        assert arr.is_generic_label(p) == _oracle_generic_label(arr, p)
        every = [Wall(i, f.base_num, f.scale) for i, f in enumerate(arr.families)]
        values = [_value(f, p) for f in arr.families]
        assert arr.orientations(p, every) == [(v > 0) - (v < 0) for v in values]
    assert (_outcome(lambda *ends: _pairs(arr.separating_walls(*ends)), a, b)
            == _outcome(_oracle_separating_walls, arr, a, b))
    hops = _outcome(groupoid.split_into_hops, arr, groupoid.Cross(a, b, a))
    if isinstance(hops, list):
        hops = [hops[0].src, *(h.dst for h in hops)] if hops else []
    assert hops == _outcome(_oracle_cut_points, arr, a, b)


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_to_ambient_matches_fraction_oracle(oracle_arrangements, data):
    arr = oracle_arrangements[data.draw(st.integers(0, len(oracle_arrangements) - 1))]
    if data.draw(st.booleans()):
        # to_ambient reads nothing but the basis; try one with larger entries
        vector = st.tuples(*[st.integers(-5, 5)] * arr.rep.rank)
        basis = data.draw(st.lists(vector, min_size=arr.dim, max_size=arr.dim))
        arr = dataclasses.replace(arr, invariant_basis=tuple(basis))
    entry = st.one_of(st.integers(-9, 9), st.fractions(-4, 4, max_denominator=12))
    coords = data.draw(st.tuples(*[entry] * arr.dim))
    got = arr.to_ambient(coords)
    assert got == _oracle_to_ambient(arr, coords)
    assert all(type(x) is F for x in got)


# -- crossing times and wall points ---------------------------------------------
# The Fraction formulas that the integer crossing times and wall points
# replaced: t = (offset - <a, n>) / (<b, n> - <a, n>), the wall point
# a + t(b - a) on the wall, and delta + t(delta' - delta) in ambient terms.


def _oracle_times(arr, a, b, walls) -> list[Fraction]:
    out = []
    for w in walls:
        f = arr.families[w.family_index]
        out.append((w.offset - _value(f, a)) / (_value(f, b) - _value(f, a)))
    return out


def _check_crossing_against_oracle(ctx, here, there) -> int:
    """The crossing times of two chambers' samples on their separating walls
    and, for an adjacent pair, its wall point and direction, against the
    Fraction oracle; returns the number of walls."""
    arr = ctx.arrangement
    a, b = here.sample, there.sample
    walls = arr.separating_walls(here, there)
    times = arr.crossing_times(here, there, walls)
    assert all(type(p) is int and type(q) is int and q > 0 for p, q in times)
    assert [F(p, q) for p, q in times] == _oracle_times(arr, a, b, walls)
    if len(walls) == 1:
        (t,) = _oracle_times(arr, a, b, walls)
        point = linalg.add(a, linalg.scale(t, linalg.sub(b, a)))
        assert _pairs(walls)[0] in _oracle_walls_at(arr, point)
        crossing = windows.wall_crossing(arr.rep, here, there, ctx)
        delta, delta2 = _oracle_to_ambient(arr, a), _oracle_to_ambient(arr, b)
        direction = linalg.sub(delta2, delta)
        assert crossing.delta0 == linalg.add(delta, linalg.scale(t, direction))
        assert crossing.delta0 == _oracle_to_ambient(arr, point)
        assert all(linalg.dot(direction, lam) > 0
                   for fd in crossing.faces.values() for lam in fd.inward_normals)
    return len(walls)


@pytest.fixture(scope="module")
def oracle_contexts(oracle_arrangements):
    return [Context(arr.rep) for arr in oracle_arrangements]


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_crossing_times_and_wall_points_match_fraction_oracle(oracle_contexts, data):
    ctx = data.draw(st.sampled_from(oracle_contexts))
    arr = ctx.arrangement
    a, b = _draw_point(data, arr), _draw_point(data, arr)
    if arr.on_wall(a) or arr.on_wall(b):
        return
    _check_crossing_against_oracle(ctx, arr.chamber_of(a), arr.chamber_of(b))
    cuts = _outcome(_oracle_cut_points, arr, a, b)
    if isinstance(cuts, list):
        # consecutive oracle cut points are adjacent
        for p, q in zip(cuts, cuts[1:]):
            assert _check_crossing_against_oracle(ctx, arr.chamber_of(p), arr.chamber_of(q)) == 1


@pytest.mark.parametrize("name", sorted(catalog.bundled_reps()))
def test_criterion6_crossings_match_fraction_oracle(name):
    ctx = Context(catalog.bundled_reps()[name])
    arr = ctx.arrangement
    hops = 0
    for a, step, split in _criterion6_hops(arr):
        here, there = step.here, step.there
        _check_crossing_against_oracle(ctx, here, there)
        assert [split[0].src, *(h.dst for h in split)] == _oracle_cut_points(arr, a.src, a.dst)
        located = [here, *(arr.chamber_of(h.dst) for h in split[:-1]), there]
        for pair in zip(located, located[1:]):
            hops += _check_crossing_against_oracle(ctx, *pair)
    assert hops > 100


# -- wall dedupe by integer keys -------------------------------------------------


def _oracle_walls(arr, candidates) -> list[OracleWall]:
    """The dedupe that integer wall keys replaced: one wall per (normal,
    Fraction offset), under the first family that puts a wall there."""
    out, seen = [], set()
    for i, k in candidates:
        f = arr.families[i]
        offset = F(f.base_num + k * f.step_num, f.scale)
        if (f.normal, offset) not in seen:
            seen.add((f.normal, offset))
            out.append(OracleWall(i, offset))
    return out


@contextmanager
def _walls_checked_against_oracle():
    """Every ``Arrangement._walls`` call in the block must return exactly
    the oracle's walls for the same candidates; yields (candidates, walls)
    counts per call."""
    keyed = Arrangement._walls
    calls = []

    def checked(self, candidates):
        candidates = list(candidates)
        got = keyed(self, candidates)
        assert _pairs(got) == _oracle_walls(self, candidates)
        calls.append((len(candidates), len(got)))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Arrangement, "_walls", checked)
        yield calls


@pytest.fixture(scope="module")
def wall_key_arrangements(arr22, arrgl2):
    """Every arrangement of the seeded acceptance corpus, GL(2), GL(3)
    4 x (std + dual), the overlapping-families GL(2) rep, and hand-made
    families on one normal with scales 2, 3, 4 and 6 next to a second
    normal."""
    gl3 = [tuple(s if j == i else 0 for j in range(3))
           for _ in range(4) for i in range(3) for s in (1, -1)]
    built = [build_arrangement(r) for r in catalog.random_corpus(20250810)]
    built += [arrgl2, build_arrangement(QSRep.build(RootDatum.gl(3), gl3)),
              build_arrangement(QSRep.build(RootDatum.gl(2), OVERLAP_WEIGHTS))]
    several = (WallFamily((1,), F(0), F(1, 2), 0), WallFamily((1,), F(1, 3), F(1, 3), 1),
               WallFamily((1,), F(1, 4), F(1, 4), 2), WallFamily((1,), F(1, 6), F(5, 6), 3))
    built.append(dataclasses.replace(arr22, families=several))
    plane = dataclasses.replace(arr22, invariant_basis=((1, 0), (0, 1)), families=(
        WallFamily((1, 0), F(0), F(1, 2), 0), WallFamily((1, 0), F(1, 3), F(2, 3), 1),
        WallFamily((1, 1), F(1, 5), F(1, 2), 2), WallFamily((1, 1), F(0), F(1, 3), 3)))
    return built + [plane]


def test_wall_keys_match_fraction_dedupe_in_boxes(wall_key_arrangements):
    scales = {}
    with _walls_checked_against_oracle() as calls:
        for arr in wall_key_arrangements:
            assert arr.walls_in_box(3)
            for f in arr.families:
                scales.setdefault(f.normal, set()).add(f.scale)
    assert len(calls) == len(wall_key_arrangements)
    # some candidates share a hyperplane, and one normal has four scales
    assert any(walls < candidates for candidates, walls in calls)
    assert max(len(s) for s in scales.values()) >= 4


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_wall_keys_match_fraction_dedupe_between_chambers(wall_key_arrangements, data):
    # half the draws go to GL(2), GL(3) and the families with shared normals
    arr = data.draw(st.sampled_from(wall_key_arrangements[-5:])
                    | st.sampled_from(wall_key_arrangements))
    chambers = []
    for _ in range(2):
        coords = data.draw(st.tuples(*[st.fractions(-4, 4, max_denominator=12)] * arr.dim))
        try:
            chambers.append(arr.chamber_of(coords))
        except OnWallError:
            return
    with _walls_checked_against_oracle() as calls:
        walls = arr.separating_walls(*chambers)
    assert calls
    assert walls == arr.separating_walls(*(c.sample for c in chambers))


@pytest.fixture(scope="module")
def coords_arrangements(small_corpus, arrgl2):
    """One torus of each rank from the small corpus, GL(2) and GL(3)
    4 x (std + dual)."""
    gl3 = [tuple(s if j == i else 0 for j in range(3))
           for _ in range(4) for i in range(3) for s in (1, -1)]
    tori = [next(r for r in small_corpus if r.rank == k).arrangement for k in (1, 2, 3)]
    return tori + [arrgl2, build_arrangement(QSRep.build(RootDatum.gl(3), gl3))]


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_to_coords_matches_solve(coords_arrangements, data):
    """The integer ``to_coords`` equals a Fraction solve of B^T c = p on
    W-invariant points, and refuses any other point with the same text."""
    arr = data.draw(st.sampled_from(coords_arrangements))
    entry = st.one_of(st.integers(-9, 9), st.fractions(-4, 4, max_denominator=12))
    if data.draw(st.booleans()):
        point = arr.to_ambient(data.draw(st.tuples(*[entry] * arr.dim)))
    else:
        point = linalg.vec(data.draw(st.tuples(*[entry] * arr.rep.rank)))
    solved = linalg.solve(linalg.transpose(arr.invariant_basis), point)
    expected = None if solved is None else linalg._fractions(*solved)
    if expected is None:
        message = f"point {errors._fmt(point)} does not lie in the invariant subspace"
        with pytest.raises(InputError) as info:
            arr.to_coords(point)
        assert str(info.value) == message
    else:
        assert arr.to_coords(point) == expected
