"""Named invariant checks over representations, walls, mutations, and paths.

Each check returns CheckResult rows; the CLI prints one line per row and
exits nonzero on any failure.  The acceptance test suite calls the same
functions, so the two surfaces cannot drift apart.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import catalog, complexes, cy_ci, geometry, groupoid, linalg, mutation, windows
from .errors import InputError, OnWallError, QSWindowsError, _fmt
from .rep import QSRep, _cross_check_nabla, _slabs
from .windows import Context


@dataclass(frozen=True)
class CheckResult:
    name: str
    subject: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail and not self.passed else ""
        return f"[{status}] {self.name} :: {self.subject}{tail}"


def _result(name, subject, passed, detail="") -> CheckResult:
    return CheckResult(name=name, subject=subject, passed=bool(passed), detail=detail)


def _pair_subject(name: str, delta, delta_prime) -> str:
    return f"{name} {_fmt(delta)}->{_fmt(delta_prime)}"


# -- per-representation invariants ------------------------------------------------


def check_rep_invariants(name: str, rep: QSRep, ctx: Context) -> list[CheckResult]:
    out = []
    datum = rep.root_datum
    # eta symmetry under quasi-symmetry
    sym = True
    for lam in _sample_coweights(rep):
        plus = sum(max(0, datum.pair(b, lam)) for b in rep.weights)
        minus = sum(max(0, -datum.pair(b, lam)) for b in rep.weights)
        if plus != minus:
            sym = False
    out.append(_result("eta-symmetry", name, sym))
    try:
        # rebuilt from its own H and V, nabla keeps every half-space: the slab
        # containments read them as facets
        geometry._check_h_v(rep.nabla)
        _cross_check_nabla(datum, rep.half_sigma, rep.nabla, _slabs(datum, rep.weights))
        out.append(_result("window-polytope-cross-check", name, True))
    except QSWindowsError as exc:
        out.append(_result("window-polytope-cross-check", name, False, str(exc)))
    # on-wall iff boundary lattice points, on a grid
    arr = ctx.arrangement
    ok = True
    bad = ""
    for coords in default_grid(arr.dim):
        on_wall = arr.on_wall(coords)
        nums, den = arr._scaled(coords)
        boundary = rep.nabla.lattice_points(at=(arr.character(nums), den))[1]
        if on_wall != bool(boundary):
            ok = False
            bad = f"delta={_fmt(coords)}"
            break
    out.append(_result("wall-iff-boundary-points", name, ok, bad))
    # windows are constant on chambers and shift along the invariant lattice
    ok = True
    sample = _off_wall_point(arr)
    win = ctx.window(arr.to_ambient(sample))
    nudged = tuple(c + Fraction(1, 64) for c in sample)
    if arr.on_wall(nudged) or arr.chamber_of(nudged) != arr.chamber_of(sample):
        nudged = sample
    # fresh Contexts, so that the nudged and shifted windows are worked
    # out, not read back from (or translated by) the cache of the sample
    if Context(rep).window(arr.to_ambient(nudged)).chars != win.chars:
        ok = False
    shift_coords = (1,) * arr.dim
    shifted = Context(rep).window(arr.to_ambient(linalg.add(sample, shift_coords)))
    m_ambient = arr.character(shift_coords)
    expected = tuple(sorted(tuple(linalg.add(c, m_ambient)) for c in win.chars))
    if shifted.chars != expected:
        ok = False
    out.append(_result("window-chamber-and-shift", name, ok))
    return out


def default_grid(dim: int):
    """The quarter points of [0, 3]: all of them in rank one, a seeded
    sample of 40 grid points otherwise."""
    ticks = [Fraction(k, 4) for k in range(13)]
    if dim == 1:
        return [(t,) for t in ticks]
    rng = random.Random(0)
    pts = [tuple(rng.choice(ticks) for _ in range(dim)) for _ in range(40)]
    return sorted(set(pts))


def _sample_coweights(rep: QSRep):
    out = {tuple(1 if j == i else 0 for j in range(rep.rank)) for i in range(rep.rank)}
    for b in rep.weights:
        if not linalg.is_zero(b):
            out.add(linalg.primitive(b))
    return sorted(out)


def _off_wall_point(arr):
    for denom in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        coords = tuple(Fraction(1, denom ** (j + 1)) for j in range(arr.dim))
        if not arr.on_wall(coords):
            return coords
    raise QSWindowsError("could not find an off-wall sample point")


# -- wall-crossing invariants -----------------------------------------------------


def check_wall_crossing(name: str, rep: QSRep, ctx: Context, delta, delta_prime) -> list[CheckResult]:
    subject = _pair_subject(name, delta, delta_prime)
    cross = windows.wall_crossing(rep, delta, delta_prime, ctx)
    back = windows.wall_crossing(rep, delta_prime, delta, ctx)
    forward = windows.mu_map(rep, cross)
    backward = windows.mu_map(rep, back)
    partitioned = set(cross.common)
    total = 0
    for chars in cross.chars_by_face.values():
        partitioned |= set(chars)
        total += len(chars)
    out = [
        _result("mu-involution", subject,
                all(backward[img] == chi for chi, img in forward.items())),
        _result("window-sizes-match", subject,
                len(cross.window.chars) == len(cross.window_prime.chars)),
        _result("window-partition", subject,
                partitioned == set(cross.window.chars)
                and total + len(cross.common) == len(cross.window.chars)),
    ]
    # dagger pairing between the two orientations
    dag_ok = True
    mu_face_ok = True
    beta_ok = True
    datum = rep.root_datum
    for key, fd in cross.faces.items():
        if not fd.dominant:
            dag_ok = False
            continue
        dag = windows.dagger(rep, fd, ctx)
        if dag.key not in back.faces:
            dag_ok = False
            continue
        image_chars = sorted(forward[chi] for chi in cross.chars_by_face[key])
        if image_chars != sorted(back.chars_by_face[dag.key]):
            mu_face_ok = False
        expected = tuple(linalg.neg(datum.apply(datum.w0, fd.beta_plus)))
        if dag.beta_plus != expected:
            beta_ok = False
    out.append(_result("wall-faces-dominant", subject,
                       all(fd.dominant for fd in cross.faces.values())))
    out.append(_result("dagger-pairing", subject, dag_ok and len(cross.faces) == len(back.faces)))
    out.append(_result("mu-respects-dagger-faces", subject, mu_face_ok))
    out.append(_result("beta-dagger-duality", subject, beta_ok))
    out.append(_result("face-lattice-point-symmetry", subject,
                       _face_lattice_point_check(rep, ctx, cross)))
    if datum.is_torus:
        # the per-face row needs the one face; with any other count it FAILs
        single = len(cross.faces) == 1
        out.append(_result("toric-single-wall-face", subject, single))
        outgoing_ok = single
        if single:
            (chars,) = cross.chars_by_face.values()
            outgoing_ok = set(chars) == set(cross.outgoing)
        out.append(_result("toric-outgoing-equals-face-chars", subject, outgoing_ok))
    return out


def _face_lattice_point_check(rep: QSRep, ctx: Context, cross) -> bool:
    """Dominant characters chi with rho + chi in the relative interior of a
    wall face of delta_0 + (1/2)Sigma, and their duals through the face
    center, stay inside the near half-zonotope."""
    rho = rep.root_datum.rho
    # chi lies in this translate exactly when rho + chi lies in delta_0 + (1/2)Sigma
    shifted = ctx.half_sigma.translate(linalg.sub(cross.delta0, rho))
    near = ctx.half_sigma.translate(cross.delta)
    faces = {fd.face.facet_indices: fd for fd in cross.faces.values()}
    for chi in shifted.lattice_points(extra=rep.root_datum.dominant_cone)[0]:
        fd = faces.get(shifted.tight_indices(chi))
        if fd is None:
            continue
        face_center = linalg.sub(cross.delta0, linalg.scale(Fraction(1, 2), fd.beta_plus))
        point = linalg.add(chi, rho)
        dual = linalg.sub(linalg.scale(2, face_center), point)
        if not near.contains(point) or not near.contains(dual):
            return False
    return True


# -- complexes ---------------------------------------------------------------------


def check_complexes(name: str, rep: QSRep, ctx: Context, delta, delta_prime) -> list[CheckResult]:
    out = []
    subject = _pair_subject(name, delta, delta_prime)
    cross = windows.wall_crossing(rep, delta, delta_prime, ctx)
    datum = rep.root_datum
    endpoints = True
    koszul = True
    euler = True
    l_in_common = True
    for key, fd in cross.faces.items():
        top = complexes.top_degree(rep, fd)
        for chi in cross.chars_by_face[key]:
            ct = complexes.complex_terms(rep, fd, chi)
            image = windows.mu_of_crossing(rep, cross, chi)
            if ct.terms.get(0) != Counter({tuple(chi): 1}):
                endpoints = False
            if ct.terms.get(top) != Counter({image: 1}):
                endpoints = False
            if datum.is_torus:
                for m in range(fd.d_plus + 1):
                    expected = complexes.koszul_degree_term(rep, fd, chi, m)
                    if ct.terms.get(m, Counter()) != expected:
                        koszul = False
            if not _euler_consistent(rep, fd, chi, ct):
                euler = False
        l_set, n_set = complexes.summand_sets(rep, cross, fd, ctx)
        if datum.is_torus and not set(l_set) <= set(cross.common):
            l_in_common = False
        if set(n_set) != set(cross.window.chars) - set(cross.chars_by_face[key]):
            l_in_common = False
    out.append(_result("complex-endpoint-terms", subject, endpoints))
    if datum.is_torus:
        out.append(_result("toric-koszul-multiplicities", subject, koszul))
        out.append(_result("toric-l-summands-in-common", subject, l_in_common))
    out.append(_result("complex-euler-telescope", subject, euler))
    return out


def _euler_consistent(rep, fd, chi, ct) -> bool:
    """Alternating sum of the stored terms equals e^chi prod (1 - e^beta)
    over the face's positive weights, expanded one factor at a time, with
    each term moved into the dominant cone with sign (-1)^l(w)."""
    product = Counter({tuple(chi): 1})
    for i in fd.plus_indices:
        for w, c in list(product.items()):
            product[tuple(linalg.add(w, rep.weights[i]))] -= c
    expected: Counter = Counter()
    for w, c in product.items():
        res = rep.root_datum.dominant_representative(w)
        if res is not None:
            expected[res.weight] += -c if res.length % 2 else c
    return {w: c for w, c in expected.items() if c} == ct.euler_class()


# -- mutations ----------------------------------------------------------------------


def check_mutation(name: str, rep: QSRep, ctx: Context, delta, delta_prime) -> list[CheckResult]:
    out = []
    subject = _pair_subject(name, delta, delta_prime)
    if not rep.root_datum.is_torus:
        counts = mutation.per_face_counts(rep, windows.wall_crossing(rep, delta, delta_prime, ctx))
        out.append(_result("exchange-count-positive", subject,
                           all(c >= 1 for c in counts.values())))
        return out
    wall = mutation.toric_wall(rep, delta, delta_prime, ctx)
    # the crossing located both windows already
    start = mutation.ModuleSpec.of_window(wall.crossing.window.chars)
    far = mutation.ModuleSpec.of_window(wall.crossing.window_prime.chars)
    d = wall.face.d_plus
    seen = wall.walk(start, wall.period)
    faces = wall.faces
    out.append(_result("mutation-reaches-far-window", subject, seen[d - 1] == far))
    out.append(_result("mutation-periodicity", subject,
                       seen[-1] == start
                       and len({s.atoms for s in seen[:-1]}) == wall.period))
    out.append(_result("mutation-right-inverts-left", subject,
                       wall.mutate(seen[1], "right") == start))
    ranks_ok = all(
        mutation.atom_rank(mutation.Ker(key, (0,) * rep.rank, i), rep, faces)
        == mutation.kernel_rank_formula(fd.d_plus, i)
        for key, fd in faces.items() for i in range(fd.d_plus))
    out.append(_result("kernel-rank-binomials", subject, ranks_ok))
    out.append(_result("virtual-class-telescoping", subject, _chains_telescope(rep, wall)))
    counts = mutation.per_face_counts(rep, wall.crossing)
    out.append(_result("exchange-count-positive", subject,
                       all(c >= 1 for c in counts.values())))
    # the count against the walk: the first step that reaches the far window
    steps = seen.index(far) if far in seen else None
    out.append(_result("exchange-count-value", subject,
                       all(c == steps for c in counts.values())))
    return out


def _chains_telescope(rep, wall) -> bool:
    """Edge i of a chain (G, b) must telescope: [new atom] + [old atom]
    equals the class of the Koszul term K^{i+1}(G, b) whenever the new atom
    is a stored kernel; at a chain's covariant end the rank identity is
    asserted instead."""
    faces = wall.faces
    for fd, base, atoms in wall.chains:
        for i, (old, new) in enumerate(zip(atoms, atoms[1:])):
            term = complexes.koszul_degree_term(rep, fd, base, i + 1)
            lhs_rank = mutation.atom_rank(new, rep, faces) + mutation.atom_rank(old, rep, faces)
            if lhs_rank != sum(term.values()):
                return False
            if isinstance(new, mutation.Ker):
                lhs = Counter(mutation.atom_class(new, rep, faces))
                for w, c in mutation.atom_class(old, rep, faces).items():
                    lhs[w] += c
                lhs = {w: c for w, c in lhs.items() if c}
                if lhs != dict(term):
                    return False
    return True


# -- groupoid -----------------------------------------------------------------------


def check_groupoid(name: str, rep: QSRep, ctx: Context, seed: int,
                   n_paths: int) -> list[CheckResult]:
    out = []
    arr = ctx.arrangement
    rng = random.Random(seed)
    agree = True
    reduction_ok, reduction_detail = True, ""
    transcript_ok = True
    minimal_words = {}
    for _ in range(n_paths):
        path = _random_positive_path(arr, rng)
        if path is None:
            continue
        try:
            minimal = groupoid.is_minimal(arr, path)
        except QSWindowsError:
            agree = False
            continue
        if arr.dim == 1:
            try:
                reduced = groupoid.reduce_rank1(arr, path)
                again = groupoid.reduce_rank1(arr, reduced)
                if [repr(a) for a in again.arrows] != [repr(a) for a in reduced.arrows]:
                    reduction_ok = False
                if minimal:
                    key = (path.origin.sign_vector, path.chambers[-1].sign_vector)
                    word = groupoid.normal_form_word(arr, path)
                    if minimal_words.setdefault(key, word) != word:
                        reduction_ok = False
            except QSWindowsError as exc:
                reduction_ok, reduction_detail = False, str(exc)
        try:
            groupoid.transcript_window_map(rep, path, ctx)
        except QSWindowsError:
            transcript_ok = False
    out.append(_result("minimality-criteria-agree", name, agree))
    if arr.dim == 1:
        out.append(_result("rank1-reduction-normal-form", name, reduction_ok, reduction_detail))
    out.append(_result("transcript-window-bijections", name, transcript_ok))
    return out


def _random_positive_path(arr, rng: random.Random):
    """Arrows along random generic directions; labels equal the hop
    direction, so positivity holds by construction.  Each candidate target
    is located once here, and ``make_path`` cuts the accepted arrows; a
    path with an arrow through a wall intersection is dropped."""
    for denom in (2, 4, 8, 16):
        point = tuple(Fraction(rng.randrange(-4 * denom, 4 * denom), denom)
                      for _ in range(arr.dim))
        if not arr.on_wall(point):
            break
    else:
        return None
    here = arr.chamber_of(point)
    arrows = []
    for _ in range(rng.randint(1, 3)):
        for _ in range(20):
            direction = tuple(Fraction(rng.randint(-2, 2)) for _ in range(arr.dim))
            if not arr.is_generic_label(direction):  # nor is the zero direction
                continue
            t = Fraction(rng.randint(1, 8), 4)
            target = linalg.add(point, linalg.scale(t, direction))
            try:
                there = arr.chamber_of(target)
            except OnWallError:
                continue
            if there == here:
                continue
            arrows.append(groupoid.Cross(point, target, direction))
            point, here = target, there
            break
        else:
            break
    if not arrows:
        return None
    try:  # refused when an arrow passes through a wall intersection
        return groupoid.make_path(arr, arrows)
    except InputError:
        return None


# -- CY models ----------------------------------------------------------------------


def check_cy_models() -> list[CheckResult]:
    out = []
    expected = {
        "quintic": {"arrangement": "Z", "window_size": 6, "crossing": (6, 2), "twist_len": 6},
        "cy-3-3": {"arrangement": "Z+1/2", "window_size": 7, "crossing": (7, 3), "twist_len": 8},
    }
    for name, model in catalog.bundled_cy_models().items():
        want = expected[name]
        ctx = model.context()
        info = model.to_json()
        wall = model.arrangement_offset
        ok = (info["arrangement"] == want["arrangement"]
              and info["window_size"] == want["window_size"]
              and cy_ci.crossing_data(model, wall, ctx) == want["crossing"])
        tw = cy_ci.spherical_twist_word(model, 0, ctx)
        ok = ok and tw["length"] == want["twist_len"]
        ok = ok and tw["length"] == model.n + model.r
        delta = tw["delta"]
        window = ctx.window((delta,))
        ok = ok and len(window.chars) == model.alpha + 1
        loop = cy_ci.twist_loop(model, 0, ctx)
        mapping = groupoid.transcript_window_map(model.g1_rep, loop, ctx)
        ok = ok and all(src == dst for src, dst in mapping.items())
        out.append(_result("cy-model-facts", name, ok))
    return out


# -- top level ----------------------------------------------------------------------


def run_bundled(seed: int = 0) -> list[CheckResult]:
    results = []
    for name, rep_obj in catalog.bundled_reps().items():
        results.extend(run_rep(name, rep_obj, seed=seed, n_paths=50))
    results.extend(check_cy_models())
    return results


def run_rep(name: str, rep_obj: QSRep, seed: int = 0, n_paths: int = 20) -> list[CheckResult]:
    ctx = Context(rep_obj)
    results = check_rep_invariants(name, rep_obj, ctx)
    for delta, delta_prime in catalog.adjacent_pairs(ctx, periods=2, per_wall=2, max_pairs=6):
        results.extend(check_wall_crossing(name, rep_obj, ctx, delta, delta_prime))
        results.extend(check_complexes(name, rep_obj, ctx, delta, delta_prime))
        results.extend(check_mutation(name, rep_obj, ctx, delta, delta_prime))
    results.extend(check_groupoid(name, rep_obj, ctx, seed=seed, n_paths=n_paths))
    return results
