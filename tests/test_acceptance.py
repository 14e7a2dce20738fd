"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line; run with ``pytest -s
tests/test_acceptance.py`` to see them.  The random corpus is seeded and
shared across criteria; rank-one wall pairs are exhaustive within the
two-period box, higher ranks are grid-sampled on every wall.  Criteria 2-6
run the named checks of ``qswindows.verify`` and require the rows they rely
on to be present, so the CLI's ``verify`` and this suite share one copy of
every invariant: criterion 2 reads the three bijection rows of
``check_wall_crossing``, criterion 3 its torus single-face rows and the
L-summand row of ``check_complexes``, and criterion 5 the endpoint row (on
tori with the Koszul row).  Two properties have no row, because the program
raises ``InternalInconsistencyError`` before a check could see them fail: a
crossing direction that does not pair positively with the inward normals
(``wall_crossing``), and complex terms outside their degree window
(``complex_terms``).
"""
import hashlib
import itertools
import json
import math
import time
from fractions import Fraction

import pytest

from qswindows import catalog, cy_ci, mutation, verify, windows
from qswindows.errors import QSWindowsError
from qswindows.rep import QSRep, build_nabla
from qswindows.root_data import RootDatum
from qswindows.windows import Context

F = Fraction

CORPUS_SEED = 20250810
CORPUS_COUNTS = {1: 120, 2: 60, 3: 30}
# sha256 of QSRep.to_json, one sorted-key JSON line per rep, over the corpus,
# GL(2) and GL(3) 4x(std+dual): the built polytopes and flags, pinned
TO_JSON_SHA256 = "738607fe27dfb455e196a0393c8c2ef665955544bc0eeada7bfa6db6b0bea280"


def box_points(poly):
    """The integer points of the vertices' bounding box, in lexicographic
    order: the scan region of the oracles that test every point."""
    columns = list(zip(*poly.vertices))
    return itertools.product(*(range(math.ceil(min(c)), math.floor(max(c)) + 1) for c in columns))


def report(number, name, passed, extra=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {name}{' ' + extra if extra else ''}")
    assert passed, f"criterion {number}: {name}"


@pytest.fixture(scope="module")
def corpus():
    reps = catalog.random_corpus(CORPUS_SEED, CORPUS_COUNTS)
    out = []
    for r in reps:
        ctx = Context(r)
        if r.rank == 1:
            pairs = catalog.adjacent_pairs(ctx, periods=2)
        else:
            pairs = catalog.adjacent_pairs(ctx, periods=2, per_wall=2, max_pairs=12)
        out.append((r, ctx, pairs))
    return out


@pytest.fixture(scope="module")
def gl2():
    rep = QSRep.build(RootDatum.gl(2), catalog.GL2_WEIGHTS)
    return rep, Context(rep)


def test_criterion_1_gl2_figures(gl2):
    t0 = time.time()
    rep, ctx = gl2
    arr = ctx.arrangement
    ok = True
    # wall set on the diagonal against the boundary-lattice-point oracle
    for k in range(0, 13):
        coords = (F(k, 4),)
        boundary = rep.nabla.translate(arr.to_ambient(coords)).boundary_lattice_points()
        on_wall = (F(k, 4) - F(1, 2)) % 1 == 0
        ok = ok and arr.on_wall(coords) == bool(boundary) == on_wall
    # window of the origin chamber against a brute scan
    delta = (F(-1, 4), F(-1, 4))
    shifted = rep.nabla.translate(delta)
    brute = tuple(sorted(
        p for p in box_points(shifted) if shifted.contains(p) and rep.root_datum.is_dominant(p)
    ))
    ok = ok and ctx.window(delta).chars == brute and len(brute) == 12
    # two wall faces with dagger pairing, three crossing arrows
    d0, d1 = (F(0), F(0)), (F(1), F(1))
    crossing = windows.wall_crossing(rep, d0, d1, ctx)
    back = windows.wall_crossing(rep, d1, d0, ctx)
    ok = ok and len(crossing.faces) == 2 and len(back.faces) == 2
    for fd in crossing.faces.values():
        ok = ok and fd.dominant
        dag = windows.dagger(rep, fd, ctx)
        ok = ok and dag.key in back.faces and dag.codim == fd.codim
    mapping = windows.mu_map(rep, crossing)
    ok = ok and len(mapping) == 3
    ok = ok and mapping == {(-2, -2): (3, 2), (-1, -2): (3, 3), (0, -2): (3, 1)}
    elapsed = time.time() - t0
    report(1, "gl2 figure reproduction", ok and elapsed < 5.0, f"({elapsed:.2f}s)")


def rows_hold(rows, required) -> bool:
    """Every verify row passed and every required row was produced."""
    return all(r.passed for r in rows) and set(required) <= {r.name for r in rows}


def run_check(check, corpus, required) -> bool:
    """Run one verify check over every corpus pair."""
    return all(rows_hold(check(f"corpus[{i}]", rep, ctx, delta, delta_prime), required)
               for i, (rep, ctx, pairs) in enumerate(corpus)
               for delta, delta_prime in pairs)


@pytest.fixture(scope="module")
def complex_rows(corpus):
    """check_complexes rows for every corpus pair, shared by criteria 3 and 5."""
    return [verify.check_complexes(f"corpus[{i}]", rep, ctx, delta, delta_prime)
            for i, (rep, ctx, pairs) in enumerate(corpus)
            for delta, delta_prime in pairs]


def test_criterion_2_mu_involution_and_partition(corpus):
    t0 = time.time()
    ok = len(corpus) >= 200
    ok = ok and run_check(verify.check_wall_crossing, corpus,
                          ("mu-involution", "window-sizes-match", "window-partition"))
    n_pairs = sum(len(pairs) for _, _, pairs in corpus)
    elapsed = time.time() - t0
    report(2, "mu involution and window partition", ok and elapsed < 60.0,
           f"({len(corpus)} reps, {n_pairs} pairs, {elapsed:.1f}s)")


def test_criterion_3_toric_wall_identities(corpus, complex_rows):
    ok = run_check(verify.check_wall_crossing, corpus,
                   ("toric-single-wall-face", "toric-outgoing-equals-face-chars"))
    ok = ok and all(rows_hold(rows, ("toric-l-summands-in-common",)) for rows in complex_rows)
    report(3, "toric wall identities", ok)


def test_criterion_4_mutation_periodicity(corpus):
    ok = run_check(verify.check_mutation, corpus,
                   ("mutation-reaches-far-window", "mutation-periodicity",
                    "kernel-rank-binomials", "virtual-class-telescoping"))
    report(4, "toric mutation periodicity and telescoping", ok)


def test_criterion_5_complex_endpoints(corpus, complex_rows, gl2):
    required = ("complex-endpoint-terms",)
    ok = all(rows_hold(rows, required + ("toric-koszul-multiplicities",))
             for rows in complex_rows)
    gl2rep, gl2ctx = gl2
    for delta, delta_prime in (((F(0), F(0)), (F(1), F(1))), ((F(1), F(1)), (F(0), F(0)))):
        ok = ok and rows_hold(
            verify.check_complexes("gl2", gl2rep, gl2ctx, delta, delta_prime), required)
    report(5, "complex endpoint and support invariants", ok)


def test_criterion_6_minimality_and_reduction():
    ok = True
    for name, rep in catalog.bundled_reps().items():
        ctx = Context(rep)
        results = verify.check_groupoid(name, rep, ctx, seed=11, n_paths=1000)
        ok = ok and all(r.passed for r in results)
    report(6, "minimality criteria and rank-one reduction", ok)


def test_criterion_7_cy_scenarios():
    t0 = time.time()
    ok = True
    quintic = cy_ci.build((1, 1, 1, 1, 1), (5,))
    ctx = quintic.context()
    ok = ok and quintic.to_json()["arrangement"] == "Z"
    ok = ok and quintic.to_json()["window_size"] == 6
    ok = ok and cy_ci.crossing_data(quintic, 3, ctx) == (6, 2)
    tw = cy_ci.spherical_twist_word(quintic, 0, ctx)
    wall = mutation.toric_wall(quintic.g1_rep, (tw["delta"],), (tw["delta"] - 1,), ctx)
    ok = ok and tw["length"] == 6 == wall.period

    cy33 = cy_ci.build((1, 1, 1, 1, 1, 1), (3, 3))
    ctx = cy33.context()
    ok = ok and cy33.to_json()["arrangement"] == "Z+1/2"
    ok = ok and cy33.to_json()["window_size"] == 7
    ok = ok and cy_ci.crossing_data(cy33, F(1, 2), ctx) == (7, 3)
    ok = ok and cy_ci.spherical_twist_word(cy33, -1, ctx)["length"] == 8
    elapsed = time.time() - t0
    report(7, "calabi-yau scenarios", ok and elapsed < 1.0, f"({elapsed:.2f}s)")


def test_criterion_8_window_polytope_consistency(corpus, gl2):
    ok = True
    gl2rep, _ = gl2
    reps = [rep for rep, _, _ in corpus] + [gl2rep]
    for rep in reps:
        try:
            build_nabla(rep.root_datum, rep.weights, rep.half_sigma)
        except QSWindowsError:
            ok = False
    report(8, "window polytope dominant-slice consistency", ok)


def test_to_json_pinned(corpus, gl2):
    gl3 = QSRep.build(RootDatum.gl(3), [tuple(s if j == i else 0 for j in range(3))
                                        for _ in range(4) for i in range(3) for s in (1, -1)])
    digest = hashlib.sha256()
    for rep in [rep for rep, _, _ in corpus] + [gl2[0], gl3]:
        digest.update(json.dumps(rep.to_json(), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == TO_JSON_SHA256
