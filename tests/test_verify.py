import contextlib
import dataclasses
import io
import json
import random
from fractions import Fraction

import pytest

from qswindows import cli, groupoid, linalg, mutation, verify
from qswindows.errors import InternalInconsistencyError, OnWallError
from qswindows.windows import Context


def test_bundled_suite_all_pass():
    results = verify.run_bundled(seed=1)
    failed = [r.line() for r in results if not r.passed]
    assert not failed, failed
    names = {r.name for r in results}
    # the named identity checks must all be represented
    for expected in (
        "eta-symmetry", "wall-iff-boundary-points", "window-polytope-cross-check",
        "mu-involution", "window-partition", "dagger-pairing", "beta-dagger-duality",
        "face-lattice-point-symmetry",
        "toric-single-wall-face",
        "complex-endpoint-terms", "complex-euler-telescope",
        "mutation-reaches-far-window", "mutation-periodicity",
        "virtual-class-telescoping", "kernel-rank-binomials",
        "exchange-count-positive", "minimality-criteria-agree",
        "rank1-reduction-normal-form", "transcript-window-bijections",
        "cy-model-facts",
    ):
        assert expected in names, expected


def test_check_result_lines():
    good = verify.CheckResult(name="x", subject="s", passed=True)
    bad = verify.CheckResult(name="x", subject="s", passed=False, detail="boom")
    assert good.line().startswith("[pass]")
    assert "boom" in bad.line()


def test_cross_check_row_reads_the_stored_nabla(torus22, ctx22, gl2rep, ctxgl2):
    def cross_check(rep, ctx):
        rows = verify.check_rep_invariants("r", rep, ctx)
        return next(r for r in rows if r.name == "window-polytope-cross-check")

    for rep, ctx, message in ((torus22, ctx22, "lies outside slab"),
                              (gl2rep, ctxgl2, "dominant slice")):
        assert cross_check(rep, ctx).passed
        doubled = dataclasses.replace(rep, nabla=rep.nabla.scale(2))
        row = cross_check(doubled, ctx)
        assert not row.passed and message in row.detail


def test_cross_check_row_fails_a_shrunk_torus_nabla(torus33, ctx33):
    """A torus nabla is checked against its slabs, not against half the
    zonotope it was taken from: a shrunk one still cuts out the hull of its
    vertices, but its facets are tighter than the slabs.  Shrunk vertices
    under the slabs' own half-spaces pass both containments, and fail
    because those half-spaces do not cut out their hull."""
    def cross_check(nabla):
        rows = verify.check_rep_invariants("r", dataclasses.replace(torus33, nabla=nabla), ctx33)
        return next(r for r in rows if r.name == "window-polytope-cross-check")

    shrunk = torus33.nabla.scale(Fraction(1, 2))
    row = cross_check(shrunk)
    assert not row.passed and row.detail == "facet (-1) >= -3/4 has no slab as tight"
    mixed = dataclasses.replace(shrunk, halfspaces=torus33.nabla.halfspaces, _table=None,
                                _incidence=None)
    row = cross_check(mixed)
    assert not row.passed and row.detail == "(-3/4) is not a vertex of the half-spaces"


def test_window_row_works_the_nudged_window_out_afresh(torus22, gl2rep):
    """Wrong windows stored for the sample's chamber and for its lattice
    shift, consistent with each other, pass the shift half of
    window-chamber-and-shift; the chamber half must still FAIL, because it
    reads the nudged point's window from a fresh Context."""
    def window_row(rep, ctx):
        rows = verify.check_rep_invariants("r", rep, ctx)
        return next(r for r in rows if r.name == "window-chamber-and-shift")

    for rep in (torus22, gl2rep):
        ctx = Context(rep)
        assert window_row(rep, ctx).passed
        arr = ctx.arrangement
        sample = verify._off_wall_point(arr)
        shift = (1,) * arr.dim
        m = tuple(int(x) for x in arr.to_ambient(shift))
        poisoned = ctx.window(arr.to_ambient(sample)).chars[1:]
        for coords, move in ((sample, (0,) * rep.rank), (linalg.add(sample, shift), m)):
            key = arr.chamber_of(coords).sign_vector
            ctx._windows[key] = tuple(sorted(tuple(linalg.add(c, move)) for c in poisoned))
        assert not window_row(rep, ctx).passed


def test_broken_chain_fails_telescoping(torus33, ctx33, monkeypatch):
    """A chain that skips its interior kernel makes virtual-class-telescoping
    FAIL; the orbit rows read the successor table and still pass."""
    pair = ((Fraction(0),), (Fraction(1),))
    rows = verify.check_mutation("t33", torus33, ctx33, *pair)
    assert all(r.passed for r in rows)
    built = mutation.toric_wall

    def broken(*args):
        wall = built(*args)
        fd, base, atoms = wall.chains[0]
        assert len(atoms) == 3
        wall.chains[0] = (fd, base, (atoms[0], atoms[-1]))
        return wall

    monkeypatch.setattr(mutation, "toric_wall", broken)
    rows = verify.check_mutation("t33", torus33, ctx33, *pair)
    assert [r.name for r in rows if not r.passed] == ["virtual-class-telescoping"]


def test_random_path_lets_internal_errors_through(ctx22, monkeypatch):
    """Only an on-wall target drops a candidate arrow, and only an input
    error from make_path drops the path."""
    def boom(*args):
        raise InternalInconsistencyError("boom")

    monkeypatch.setattr(groupoid, "_hop_chambers", boom)
    with pytest.raises(InternalInconsistencyError, match="boom"):
        verify._random_positive_path(ctx22.arrangement, random.Random(0))


def test_reduction_error_fails_its_row_and_no_other(torus22, ctx22, monkeypatch, tmp_path):
    """A package error in rank-one reduction FAILs rank1-reduction-normal-form
    with its message as the detail; every other row still runs and prints,
    and ``verify`` exits 1, not 2."""
    wall = ctx22.arrangement.walls_at((1,))[0]

    def on_wall(arr, path):
        raise OnWallError((Fraction(1),), wall)

    monkeypatch.setattr(groupoid, "reduce_rank1", on_wall)
    rows = verify.check_groupoid("t22", torus22, ctx22, seed=1, n_paths=20)
    message = "point (1) lies on the wall of family 0 at offset 1"
    assert [(r.name, r.passed, r.detail) for r in rows] == [
        ("minimality-criteria-agree", True, ""),
        ("rank1-reduction-normal-form", False, message),
        ("transcript-window-bijections", True, "")]
    rep = tmp_path / "t2.json"
    rep.write_text(json.dumps({"root_datum": {"builtin": "torus", "rank": 1},
                               "weights": [[1], [1], [-1], [-1]]}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", "--suites", "input", "--input", str(rep)])
    assert code == 1
    *lines, total = out.getvalue().splitlines()
    assert total == "132/133 checks passed"
    assert [line for line in lines if not line.startswith("[pass]")] == [
        f"[FAIL] rank1-reduction-normal-form :: input ({message})"]
