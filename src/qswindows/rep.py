"""Quasi-symmetric representation data: the weight zonotope, the window
polytope, and validity flags.

The window polytope is the intersection of the one-parameter-subgroup
slabs.  It is not enumerated from them: on a torus it is half the
zonotope, and otherwise the hull of the Weyl orbits of its dominant
slice's vertices.  The slabs are the independent check of both.

Weight indices carry identity (values may repeat); all index bookkeeping
downstream refers to positions in ``weights``.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import sub

from . import geometry, linalg
from .errors import InputError, InternalInconsistencyError, _fmt
from .geometry import Polytope, _subsets
from .linalg import IntVec, int_rows
from .root_data import RootDatum, Weight


class Ternary(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


def check_quasi_symmetric(weights) -> bool:
    """Whether the weights sum to zero along every line through the origin."""
    lines: dict[IntVec, list] = {}
    for b in weights:
        if linalg.is_zero(b):
            continue
        lines.setdefault(linalg.sign_normalized(linalg.primitive(b)), []).append(b)
    return all(linalg.is_zero(tuple(sum(c) for c in zip(*group))) for group in lines.values())


def is_symplectic(weights) -> bool:
    """Whether the weight multiset is invariant under negation."""
    tally = Counter(tuple(b) for b in weights)
    return tally == Counter(tuple(linalg.neg(b)) for b in weights)


@dataclass(frozen=True)
class QSRep:
    """Weights with Sigma, (1/2)Sigma and the window polytope nabla, each built
    once (on a torus nabla is (1/2)Sigma), and the arrangement, on first use.
    ``dagger_facets`` is the permutation of (1/2)Sigma's half-spaces by
    x -> -w0 x, which ``windows.dagger`` reads."""

    root_datum: RootDatum
    weights: tuple[Weight, ...]
    sigma: Polytope
    nabla: Polytope
    generic: Ternary
    symplectic: bool
    half_sigma: Polytope = field(repr=False, compare=False)
    dagger_facets: tuple[int, ...] = field(repr=False, compare=False)

    @classmethod
    def build(cls, root_datum: RootDatum, weights, assert_generic: bool | None = None) -> "QSRep":
        weights = int_rows(weights, "weights")
        if not weights:
            raise InputError("a representation needs at least one weight")
        if any(len(b) != root_datum.rank for b in weights):
            raise InputError("weight length does not match the lattice rank")
        if not check_quasi_symmetric(weights):
            raise InputError("weights are not quasi-symmetric")
        if geometry._rank(weights) != root_datum.rank:
            raise InputError("weights do not span the weight lattice over the rationals")
        _check_w_invariance(root_datum, weights)
        sigma = geometry.zonotope(weights)
        half_sigma = sigma.scale(Fraction(1, 2))
        nabla = build_nabla(root_datum, weights, half_sigma)
        dagger_facets = _minus_w0_facets(root_datum, half_sigma)
        generic = check_generic(root_datum, weights, sigma._table[0])
        if assert_generic is not None and generic is Ternary.UNKNOWN:
            generic = Ternary.YES if assert_generic else Ternary.NO
        return cls(
            root_datum=root_datum,
            weights=weights,
            sigma=sigma,
            nabla=nabla,
            generic=generic,
            symplectic=is_symplectic(weights),
            half_sigma=half_sigma,
            dagger_facets=dagger_facets,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "QSRep":
        if not isinstance(data, dict):
            raise InputError("a representation must be a JSON object")
        try:
            _check_declared_rank(data)
            datum = RootDatum.from_dict(data["root_datum"])
            weights = data["weights"]
        except KeyError as exc:
            raise InputError(f"rep input missing {exc}") from exc
        assert_generic = data.get("assert_generic")
        if assert_generic is not None and not isinstance(assert_generic, bool):
            raise InputError(f"assert_generic must be true, false or absent, got {assert_generic!r}")
        return cls.build(datum, weights, assert_generic=assert_generic)

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def rank(self) -> int:
        return self.root_datum.rank

    @cached_property
    def arrangement(self):
        """The wall arrangement, built on first use."""
        # arrangement imports rep (for QSRep), so rep imports it here
        from .arrangement import build_arrangement
        return build_arrangement(self)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "weights": [list(b) for b in self.weights],
            "quasi_symmetric": True,
            "spans": True,
            "generic": self.generic.value,
            "symplectic": self.symplectic,
            "sigma": self.sigma.to_json(),
            "nabla": self.nabla.to_json(),
        }


def _check_declared_rank(data: dict) -> None:
    """Weights of the wrong length for a builtin block's declared rank are
    refused before its datum is built, which for GL(n) takes about n^5
    steps.  Only inputs that pass every check ``from_dict`` and ``build``
    make before the length check are looked at, so the message is the one
    they give."""
    block, generic = data["root_datum"], data.get("assert_generic")
    if (isinstance(block, dict) and block.get("builtin") in ("gl", "torus") and "weights" in data
            and (generic is None or isinstance(generic, bool))):
        rank = block.get("n" if block["builtin"] == "gl" else "rank")
        if (isinstance(rank, int) and not isinstance(rank, bool) and rank > 0
                and any(len(b) != rank for b in int_rows(data["weights"], "weights"))):
            raise InputError("weight length does not match the lattice rank")


def eta(root_datum: RootDatum, weights, lam) -> Fraction:
    """Weighted count of the negative-side weights minus the root correction.

    For a one-parameter subgroup lam, sums <-b, lam> over weights pairing
    negatively with lam and subtracts the same sum over the roots: the
    integer ``_eta_numerator`` at the paired column Q lam, over the
    pairing's one denominator.
    """
    if linalg.is_zero(lam):
        raise InputError("eta is undefined at lambda = 0")
    col, den = root_datum._paired(lam)
    return Fraction(_eta_numerator(root_datum, weights, col), den)


def _eta_numerator(root_datum: RootDatum, weights, col) -> int:
    """eta's numerator over the pairing's denominator, at the paired column
    col = Q lam: each pairing is an integer dot product with col."""
    return (sum(max(0, -linalg.dot(b, col)) for b in weights)
            - sum(max(0, linalg.dot(a, col)) for a in root_datum.roots))


def slab_candidates(root_datum: RootDatum, weights) -> list[IntVec]:
    """Primitive normals of hyperplanes spanned by (n-1)-subsets of wt(X) + roots.

    These are the only directions in which the slab intersection can have a
    facet; correctness is enforced afterwards by ``_cross_check_nabla``.
    Each lam is orthogonal under the pairing, not the dot product, to the
    vectors that span it.  Subsets run over the distinct lines through the
    vectors.  The kernels stay ``linalg.kernel_basis``, not
    ``geometry.spanned_normals``: this route is the independent one that
    the torus containments check half the zonotope against.
    """
    n = root_datum.rank
    if n == 1:
        return [(1,)]
    found = set()
    # the rows P v scaled by the pairing's positive denominator: integer
    # rows with the same kernel, which is a line exactly when they are
    # independent
    for combo in _subsets(geometry._lines([*weights, *root_datum.roots]), n - 1):
        kernel = linalg.kernel_basis([root_datum._paired(v)[0] for v in combo])[0]
        if len(kernel) == 1:
            found.add(linalg.sign_normalized(linalg.primitive(kernel[0])))
    return sorted(found)


def build_nabla(root_datum: RootDatum, weights, half_sigma: Polytope) -> Polytope:
    """The window polytope.  For a torus it is half the zonotope itself, as
    ``zonotope`` built and checked it, not enumerated again.  Otherwise it
    is convex and W-invariant with dominant slice (-rho + (1/2)Sigma) ∩ C
    (Špenko and Van den Bergh; Halpern-Leistner and Sam), so it is the hull
    of the W-orbits of that slice's vertices: the slice is cut from
    (1/2)Sigma's own vertices, and ``_weyl_hull`` takes the hull with no
    vertex enumeration.  ``_cross_check_nabla`` proves it the slab
    polytope either way."""
    slabs = _slabs(root_datum, weights)
    dominant = None if root_datum.is_torus else geometry.intersect(
        half_sigma.translate(linalg.neg(root_datum.rho)), root_datum.dominant_cone)
    nabla = half_sigma if dominant is None else _weyl_hull(root_datum, dominant, slabs)
    _cross_check_nabla(root_datum, half_sigma, nabla, slabs, dominant)
    return nabla


def _weyl_hull(root_datum, dominant: Polytope, slabs) -> Polytope:
    """The hull of the W-orbits of the dominant slice's vertices, closed
    under the simple reflections on integer numerators over one
    denominator.  Each slab normal bounds the closed points at its
    minimum; the points tight on normals of full rank are the vertices.
    The candidate half-spaces are the normals whose minimum is the
    tightest slab offset, and ``geometry._polytope`` keeps the facets
    among them: nabla is the slab polytope, so each of its facets is a
    tightest slab."""
    tightest, pts, den = _over_one_denominator(slabs, dominant)
    new = pts = set(pts)
    while new:
        new = {root_datum.apply(s, p) for s in root_datum.simple_reflections for p in new} - pts
        pts |= new
    low = {n: min(linalg.dot(n, p) for p in pts) for n in tightest}
    verts = [p for p in pts
             if geometry._rank([n for n in low if linalg.dot(n, p) == low[n]]) == dominant.dim]
    kept = [n for n, m in low.items() if m == tightest[n]]
    return geometry._polytope((tuple(kept), tuple(low[n] for n in kept), den), verts)


def _over_one_denominator(slabs, poly: Polytope) -> tuple[dict, list[IntVec], int]:
    """``_slabs``' tightest offsets and the polytope's vertices, all as
    integer numerators over one common denominator, and that denominator."""
    tightest, den = slabs
    common = lcm(den, poly._table[2])
    a, b = common // den, common // poly._table[2]
    return ({n: o * a for n, o in tightest.items()}, [linalg.scale(b, p) for p in poly._points],
            common)


def _minus_w0_facets(root_datum: RootDatum, half_sigma: Polytope) -> tuple[int, ...]:
    """Per half-space of (1/2)Sigma, the index of its image under
    x -> -w0 x.  The weights are quasi-symmetric, so Sigma is symmetric
    about 0, and W-invariant, so w0 keeps Sigma; then x -> -w0 x keeps
    (1/2)Sigma and permutes its facets.  w0 acts on normals by its
    transpose: <x, n> >= o becomes <y, -w0^T n> >= o at y = -w0 x, as
    w0 is an involution; the offset stays.  A half-space with no such
    image is an internal inconsistency, named by its normal and offset."""
    rows = tuple(zip(*half_sigma._table[:2]))
    index = {row: i for i, row in enumerate(rows)}
    w0_t = linalg.transpose(root_datum.w0)
    images = tuple(index.get((linalg.neg(linalg.mat_vec(w0_t, n)), o)) for n, o in rows)
    if None in images:
        h = half_sigma.halfspaces[images.index(None)]
        raise InternalInconsistencyError(
            f"facet {_fmt(h.normal)} >= {h.offset} of (1/2)Sigma has no image under -w0")
    return images


def _slabs(root_datum: RootDatum, weights) -> tuple[dict[IntVec, int], int]:
    """The tightest side of the candidate slabs along each normal, sorted by
    normal, as dot-product half-spaces <x, n> >= o/D: the offset numerators
    o per normal n, over one positive denominator D.

    The slab of lam is |<x, Q lam>| <= q eta_lam / 2, P = Q/q the pairing.
    With Q lam = g n, n primitive, and eta_lam = w/q, w its integer
    numerator, both sides are <x, +-n> >= -w/2g, and D = 2 lcm(g).
    """
    sides = []
    for lam in slab_candidates(root_datum, weights):
        col = root_datum._paired(lam)[0]
        w = _eta_numerator(root_datum, weights, col)
        # every slab contains 0 unless its width is negative
        if w < 0:
            raise InputError(f"the window polytope is empty: eta = {eta(root_datum, weights, lam)} "
                             f"< 0 at lambda = {_fmt(lam)}")
        g = linalg.vec_gcd(col)
        sides += [(tuple(sign * a // g for a in col), w, g) for sign in (1, -1)]
    den = 2 * lcm(*(g for _, _, g in sides))
    # sorted, so the last and tightest offset along each normal is kept
    return dict(sorted((n, -w * (den // (2 * g))) for n, w, g in sides)), den


def _cross_check_nabla(root_datum, half_sigma, nabla, slabs, dominant=None) -> None:
    """Nonabelian: the dominant slice of nabla, cut from nabla's vertices,
    is ``dominant``, that of -rho + (1/2)Sigma (cut here when not given),
    and the simple reflections permute nabla's vertices, compared as
    integers over one denominator.  Then on every rep nabla, with its facets
    as half-spaces, is the slab polytope S, by two integer containments
    over one denominator: each vertex meets the tightest slab along each
    normal (nabla in S), and each facet is a slab with the same normal and
    an offset at least as tight (S in nabla)."""
    tightest, pts, den = _over_one_denominator(slabs, nabla)
    if not root_datum.is_torus:
        cone = root_datum.dominant_cone
        if dominant is None:
            dominant = geometry.intersect(half_sigma.translate(linalg.neg(root_datum.rho)), cone)
        # both are checked polytopes, so they are equal when their vertices
        # are: x/d = y/e exactly when e x = d y
        sliced = geometry.intersect(nabla, cone)
        if ([linalg.scale(dominant._table[2], x) for x in sliced._points]
                != [linalg.scale(sliced._table[2], y) for y in dominant._points]):
            raise InternalInconsistencyError(
                "dominant slice of the window polytope does not match the shifted zonotope")
        # nabla is convex and the simple reflections generate W; an involution
        # s keeps nabla exactly when it permutes nabla's vertices
        if any({root_datum.apply(s, p) for p in pts} != set(pts)
               for s in root_datum.simple_reflections):
            raise InternalInconsistencyError("window polytope is not Weyl invariant")
    for i, p in enumerate(pts):
        for n, off in tightest.items():
            if linalg.dot(n, p) < off:
                raise InternalInconsistencyError(
                    f"vertex {_fmt(nabla.vertices[i])} lies outside slab {_fmt(n)}")
    normals, offsets, e = nabla._table
    for i, (n, o) in enumerate(zip(normals, offsets)):
        if n not in tightest or tightest[n] < o * (den // e):
            raise InternalInconsistencyError(
                f"facet {_fmt(n)} >= {nabla.halfspaces[i].offset} has no slab as tight")


def _check_w_invariance(root_datum, weights) -> None:
    tally = Counter(weights)
    for w in root_datum.simple_reflections:
        if Counter(tuple(root_datum.apply(w, b)) for b in weights) != tally:
            raise InputError("weight multiset is not Weyl invariant")


def check_generic(root_datum: RootDatum, weights, normals=None) -> Ternary:
    """Genericity in the torus case: dropping any one weight must still
    generate the lattice and keep the origin interior to the hull of the
    rest.  Given that the rest spans, 0 is interior exactly when each
    hyperplane spanned by weights has some of the rest strictly on each
    side, so per ``spanned_normals`` normal (dot product, both signs) the
    weights strictly on its positive side are counted once, and dropping a
    weight must leave no count at 0.  Equal weights drop alike, so each
    distinct one is dropped once.  Only the weights matter, not the pairing.
    ``normals``, when given, are those normals: the facet normals of Sigma,
    as the weights span.

    The weights must be quasi-symmetric: then the other weights on b's line
    sum to -b, so every rest generates the lattice that all the weights do,
    and one lattice test serves every drop.

    No combinatorial criterion is implemented for nonabelian groups; those
    report UNKNOWN (overridable by an explicit assertion on input).
    """
    if not root_datum.is_torus:
        return Ternary.UNKNOWN
    n = root_datum.rank
    weights = [tuple(b) for b in weights]
    normals = geometry.spanned_normals(weights, n) if normals is None else normals
    above = {b: [linalg.dot(b, nrm) > 0 for nrm in normals] for b in weights}
    counts = [sum(col) for col in zip(*(above[b] for b in weights))]
    if not linalg.lattice_generates(weights, n):
        return Ternary.NO
    if any(0 in map(sub, counts, sides) for sides in above.values()):
        return Ternary.NO
    return Ternary.YES
