"""A fault for every ``verify`` row, in the manner of mutation testing
(DeMillo, Lipton and Sayward 1978).

``FAULTS`` maps each row name to an input, one verify check on one bundled
representation, and to a fault outside ``verify.py``: a monkeypatched
program function or method, or a corrupted stored object such as a
``QSRep`` field or a ``Context`` cache entry.  On its input the check passes
every row; with the fault in place the same check still returns its rows,
and the named row FAILs.  A row that no fault can fail proves nothing, so
every ``_result`` name in ``verify.py`` must have an entry here.

Two properties have no row, because the program raises on them first: a
crossing direction that does not pair positively with the inward normals
of its wall faces (``wall_crossing``), and complex terms outside their
degree window (``complex_terms``).  Two tests reach those raises.  Hops that
do not chain raise a package error in ``transcript_window_map``, which the
groupoid check reports as a FAIL, not a crash.
"""
import ast
import dataclasses
import itertools
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from qswindows import catalog, complexes, geometry, groupoid, linalg, mutation, verify, windows
from qswindows.errors import InternalInconsistencyError
from qswindows.windows import Context

F = Fraction
T2, T3, GL2 = "torus-1x2pairs", "torus-1x3pairs", "gl2-cube-pair"
_REPS = catalog.bundled_reps()
# one adjacent pair per bundled rep
PAIRS = {T2: ((F(1, 2),), (F(3, 2),)), T3: ((F(0),), (F(1),)),
         GL2: ((F(0), F(0)), (F(1), F(1)))}

CHECKS = {
    "rep": lambda name, rep, ctx: verify.check_rep_invariants(name, rep, ctx),
    "crossing": lambda name, rep, ctx: verify.check_wall_crossing(name, rep, ctx, *PAIRS[name]),
    "complexes": lambda name, rep, ctx: verify.check_complexes(name, rep, ctx, *PAIRS[name]),
    "mutation": lambda name, rep, ctx: verify.check_mutation(name, rep, ctx, *PAIRS[name]),
    "groupoid": lambda name, rep, ctx: verify.check_groupoid(name, rep, ctx, seed=0, n_paths=20),
    "cy": lambda name, rep, ctx: verify.check_cy_models(),
}


class Fault(NamedTuple):
    check: str
    rep: str | None
    # (monkeypatch, rep name, Context) -> the rep to check, or None for ctx.rep
    apply: Callable


# -- faults ----------------------------------------------------------------------


def _pair(name, ctx, back=False):
    """The stored chamber-pair part of the input crossing."""
    delta, delta_prime = PAIRS[name]
    ends = (delta_prime, delta) if back else (delta, delta_prime)
    return windows.wall_crossing(ctx.rep, *ends, ctx).pair


def _far_window_gains_a_char(mp, name, ctx):
    """The window stored for the far chamber holds a character it lacks."""
    arr = ctx.arrangement
    key = arr.chamber_of(arr.to_coords(PAIRS[name][1])).sign_vector
    ctx._windows[key] += ((100,) * ctx.rep.rank,)


def _windows_lose_a_char(mp, name, ctx):
    """Every stored window loses its first character."""
    for key, chars in ctx._windows.items():
        ctx._windows[key] = chars[1:]


def _back_mu_reversed(mp, name, ctx):
    """The stored mu images of the reverse crossing come in reverse order."""
    pair = _pair(name, ctx, back=True)
    pair.mu_images = pair.mu_images[::-1]


def _common_loses_a_char(mp, name, ctx):
    """The stored common characters lose their first."""
    pair = _pair(name, ctx)
    pair.common = pair.common[1:]


def _faces_replaced(**changes):
    """Every stored wall face of the input crossing, with fields changed."""
    def fault(mp, name, ctx):
        pair = _pair(name, ctx)
        pair.faces = {k: dataclasses.replace(fd, **changes) for k, fd in pair.faces.items()}
    return fault


def _back_faces_lose_their_chars(mp, name, ctx):
    """The reverse crossing stores no characters on its wall faces."""
    pair = _pair(name, ctx, back=True)
    pair.chars_by_face = {key: () for key in pair.chars_by_face}


def _face_split_in_two(mp, name, ctx):
    """The one wall face is stored again under a second key, which takes
    all but the first of its characters."""
    pair = _pair(name, ctx)
    ((key, fd),) = pair.faces.items()
    chars = pair.chars_by_face[key]
    pair.faces = {key: fd, key * 2: fd}
    pair.chars_by_face = {key: chars[:1], key * 2: chars[1:]}


def _outgoing_gains_a_common_char(mp, name, ctx):
    """The stored outgoing characters take in a common one."""
    pair = _pair(name, ctx)
    pair.outgoing += pair.common[:1]


def _dagger_is_identity(mp, name, ctx):
    """dagger returns its face, without the central-symmetry dual and w0."""
    mp.setattr(windows, "dagger", lambda rep, fd, ctx: fd)


def _dagger_keeps_beta(mp, name, ctx):
    """dagger finds the right face but keeps the old beta_F^+."""
    real = windows.dagger
    mp.setattr(windows, "dagger", lambda rep, fd, ctx: dataclasses.replace(
        real(rep, fd, ctx), beta_plus=fd.beta_plus))


def _wedge_star_to_top(mp, name, ctx):
    """wedge_star runs through degree d_F^+, one past its range."""
    mp.setattr(complexes, "wedge_star", lambda rep, fd: {
        windows._index_sum(rep, combo) for m in range(1, fd.d_plus + 1)
        for combo in itertools.combinations(fd.plus_indices, m)})


def _top_degree_plus_one(mp, name, ctx):
    """top_degree counts one degree too many, in complexes and in mutation."""
    real = complexes.top_degree
    for module in (complexes, mutation):
        mp.setattr(module, "top_degree", lambda rep, fd: real(rep, fd) + 1)


def _exchange_counts_zero(mp, name, ctx):
    """top_degree reads 1, so every exchange count is 0."""
    mp.setattr(mutation, "top_degree", lambda rep, fd: 1)


def _koszul_once(mp, name, ctx):
    """Koszul terms count each distinct sum once, not per index subset."""
    real = complexes.koszul_degree_term
    mp.setattr(complexes, "koszul_degree_term",
               lambda rep, fd, chi, m: Counter(set(real(rep, fd, chi, m))))


def _complex_terms_once(mp, name, ctx):
    """Complex terms keep each weight once per degree."""
    real = complexes.complex_terms
    mp.setattr(complexes, "complex_terms", lambda rep, fd, chi: dataclasses.replace(
        ct := real(rep, fd, chi), terms={d: Counter(set(c)) for d, c in ct.terms.items()}))


def _period_plus_one(mp, name, ctx):
    """A toric wall's period is one step too long."""
    real = mutation.ToricWall.period
    mp.setattr(mutation.ToricWall, "period", property(lambda self: real.fget(self) + 1))


def _mutate_always_left(mp, name, ctx):
    """Right mutation moves atoms to their successors, as left does."""
    real = mutation.ToricWall.mutate
    mp.setattr(mutation.ToricWall, "mutate",
               lambda self, spec, direction="left": real(self, spec, "left"))


def _rank_formula_off_by_one(mp, name, ctx):
    """The kernel rank formula reads C(d, i) for C(d - 1, i)."""
    mp.setattr(mutation, "kernel_rank_formula", lambda d, i: comb(d, i))


def _positivity_reversed(mp, name, ctx):
    """Labels are read against dst -> src."""
    real = groupoid.arrow_is_positive
    mp.setattr(groupoid, "arrow_is_positive", lambda arr, a, walls: real(
        arr, groupoid.Cross(a.dst, a.src, a.label), walls))


def _reduction_drops_last_letter(mp, name, ctx):
    """Free reduction also drops the last letter it keeps."""
    real = groupoid._freely_reduce
    mp.setattr(groupoid, "_freely_reduce", lambda letters: real(letters)[:-1])


def _mu_onto_one_common_char(mp, name, ctx):
    """The transcript's mu sends every outgoing character to one common
    character, so it is no bijection."""
    mp.setattr(groupoid, "mu_map",
               lambda rep, crossing: dict.fromkeys(crossing.outgoing, crossing.common[0]))


FAULTS = {
    "eta-symmetry": Fault("rep", T2, lambda mp, name, ctx: dataclasses.replace(
        ctx.rep, weights=ctx.rep.weights[:-1])),
    "window-polytope-cross-check": Fault("rep", T2, lambda mp, name, ctx: dataclasses.replace(
        ctx.rep, nabla=ctx.rep.nabla.scale(2))),
    "wall-iff-boundary-points": Fault("rep", T2, lambda mp, name, ctx: mp.setattr(
        geometry.Polytope, "boundary_lattice_points", lambda self: [])),
    "window-chamber-and-shift": Fault("rep", GL2, _windows_lose_a_char),
    "mu-involution": Fault("crossing", GL2, _back_mu_reversed),
    "window-sizes-match": Fault("crossing", T2, _far_window_gains_a_char),
    "window-partition": Fault("crossing", T3, _common_loses_a_char),
    "wall-faces-dominant": Fault("crossing", GL2, _faces_replaced(dominant=False)),
    "dagger-pairing": Fault("crossing", T2, _dagger_is_identity),
    "mu-respects-dagger-faces": Fault("crossing", T2, _back_faces_lose_their_chars),
    "beta-dagger-duality": Fault("crossing", GL2, _dagger_keeps_beta),
    "face-lattice-point-symmetry": Fault("crossing", T2, _faces_replaced(beta_plus=(0,))),
    "toric-single-wall-face": Fault("crossing", T3, _face_split_in_two),
    "toric-outgoing-equals-face-chars": Fault("crossing", T3, _outgoing_gains_a_common_char),
    "complex-endpoint-terms": Fault("complexes", GL2, _top_degree_plus_one),
    "toric-koszul-multiplicities": Fault("complexes", T3, _koszul_once),
    "toric-l-summands-in-common": Fault("complexes", T3, _wedge_star_to_top),
    "complex-euler-telescope": Fault("complexes", T3, _complex_terms_once),
    "mutation-reaches-far-window": Fault("mutation", T3, _far_window_gains_a_char),
    "mutation-periodicity": Fault("mutation", T3, _period_plus_one),
    "mutation-right-inverts-left": Fault("mutation", T3, _mutate_always_left),
    "kernel-rank-binomials": Fault("mutation", T3, _rank_formula_off_by_one),
    "virtual-class-telescoping": Fault("mutation", T3, _koszul_once),
    "exchange-count-positive": Fault("mutation", GL2, _exchange_counts_zero),
    "exchange-count-value": Fault("mutation", T3, _top_degree_plus_one),
    "minimality-criteria-agree": Fault("groupoid", T2, _positivity_reversed),
    "rank1-reduction-normal-form": Fault("groupoid", T2, _reduction_drops_last_letter),
    "transcript-window-bijections": Fault("groupoid", T3, _mu_onto_one_common_char),
    "cy-model-facts": Fault("cy", None, lambda mp, name, ctx: mp.setattr(
        windows.FaceData, "d_minus", property(lambda self: self.d_plus))),
}

def _row_names() -> set[str]:
    """The first argument of every ``_result`` call in verify.py."""
    tree = ast.parse(Path(verify.__file__).read_text())
    return {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_result"}


def test_every_row_has_a_fault():
    assert set(FAULTS) == _row_names()


@pytest.mark.parametrize("row", sorted(FAULTS))
def test_fault_fails_its_row(row, monkeypatch):
    fault = FAULTS[row]
    rep = _REPS.get(fault.rep)
    ctx = Context(rep) if rep is not None else None
    check = CHECKS[fault.check]
    # the clean run passes, and fills the Context caches a fault may corrupt
    clean = check(fault.rep, rep, ctx)
    assert all(r.passed for r in clean) and row in {r.name for r in clean}
    rep = fault.apply(monkeypatch, fault.rep, ctx) or rep
    rows = [r for r in check(fault.rep, rep, ctx) if r.name == row]
    assert rows and not all(r.passed for r in rows)


def test_a_direction_against_a_face_normal_raises(monkeypatch):
    """Wall faces whose inward normals point back make wall_crossing raise."""
    real = windows.face_data_from_face
    monkeypatch.setattr(windows, "face_data_from_face", lambda *args: dataclasses.replace(
        fd := real(*args), inward_normals=tuple(map(linalg.neg, fd.inward_normals))))
    rep = _REPS[T2]
    with pytest.raises(InternalInconsistencyError,
                       match="crossing direction must pair positively with inward normals"):
        windows.wall_crossing(rep, *PAIRS[T2], Context(rep))


def test_complex_terms_past_the_top_degree_raise(monkeypatch):
    """A top degree that forgets the last positive weight makes complex_terms raise."""
    monkeypatch.setattr(complexes, "top_degree", lambda rep, fd: fd.d_plus - 1)
    rep = _REPS[T2]
    cross = windows.wall_crossing(rep, *PAIRS[T2], Context(rep))
    ((key, fd),) = cross.faces.items()
    with pytest.raises(InternalInconsistencyError,
                       match="complex terms escaped their degree window"):
        complexes.complex_terms(rep, fd, cross.chars_by_face[key][0])


def _last_hop_dropped(monkeypatch):
    real = groupoid._hop_chambers
    monkeypatch.setattr(groupoid, "_hop_chambers", lambda *args: real(*args)[:-1])


def test_hops_that_do_not_chain_fail_the_transcript_row(monkeypatch):
    """Without the last hop of each arrow, a one-hop arrow crosses nothing,
    so the next arrow's hops start from a window the map is not in."""
    _last_hop_dropped(monkeypatch)
    rep = _REPS[T3]
    ctx = Context(rep)
    path = groupoid.make_path(ctx.arrangement, [groupoid.Cross((F(0),), (F(1),), (F(1),)),
                                                groupoid.Cross((F(1),), (F(4),), (F(1),))])
    with pytest.raises(InternalInconsistencyError,
                       match=r"^hops do not chain: \(-1\) is not in the window at \(1\)$"):
        groupoid.transcript_window_map(rep, path, ctx)
    rows = verify.check_groupoid(T3, rep, Context(rep), seed=0, n_paths=20)
    assert [r.passed for r in rows if r.name == "transcript-window-bijections"] == [False]
