"""Quasi-symmetric representation data: the weight zonotope, the window
polytope cut out by the one-parameter-subgroup slabs, and validity flags.

Weight indices carry identity (values may repeat); all index bookkeeping
downstream refers to positions in ``weights``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import geometry, linalg
from .errors import InputError, InternalInconsistencyError
from .geometry import HalfSpace, Polytope
from .linalg import IntVec
from .root_data import RootDatum, Weight, int_rows


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
    from collections import Counter
    tally = Counter(tuple(b) for b in weights)
    return tally == Counter(tuple(linalg.neg(b)) for b in weights)


@dataclass(frozen=True)
class QSRep:
    root_datum: RootDatum
    weights: tuple[Weight, ...]
    sigma: Polytope
    nabla: Polytope
    spans: bool
    quasi_symmetric: bool
    generic: Ternary
    symplectic: bool

    @classmethod
    def build(cls, root_datum: RootDatum, weights, assert_generic: bool | None = None) -> "QSRep":
        weights = int_rows(weights, "weights")
        if not weights:
            raise InputError("a representation needs at least one weight")
        if any(len(b) != root_datum.rank for b in weights):
            raise InputError("weight length does not match the lattice rank")
        qs = check_quasi_symmetric(weights)
        spans = linalg.rank(weights) == root_datum.rank
        if not qs:
            raise InputError("weights are not quasi-symmetric")
        if not spans:
            raise InputError("weights do not span the weight lattice over the rationals")
        _check_w_invariance(root_datum, weights)
        sigma = geometry.zonotope(weights)
        candidates = slab_candidates(root_datum, weights)
        nabla = build_nabla(root_datum, weights, sigma, candidates)
        generic = check_generic(root_datum, weights, candidates)
        if assert_generic is not None and generic is Ternary.UNKNOWN:
            generic = Ternary.YES if assert_generic else Ternary.NO
        return cls(
            root_datum=root_datum,
            weights=weights,
            sigma=sigma,
            nabla=nabla,
            spans=spans,
            quasi_symmetric=qs,
            generic=generic,
            symplectic=is_symplectic(weights),
        )

    @classmethod
    def from_dict(cls, data: dict) -> "QSRep":
        if not isinstance(data, dict):
            raise InputError("a representation must be a JSON object")
        try:
            datum = RootDatum.from_dict(data["root_datum"])
            weights = data["weights"]
        except KeyError as exc:
            raise InputError(f"rep input missing {exc}") from exc
        assert_generic = data.get("assert_generic")
        if assert_generic not in (None, True, False):
            raise InputError(f"assert_generic must be true, false or absent, got {assert_generic!r}")
        return cls.build(datum, weights, assert_generic=assert_generic)

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def rank(self) -> int:
        return self.root_datum.rank

    def dominant_halfspaces(self) -> tuple[HalfSpace, ...]:
        """Dot-product half-spaces cutting out the dominant cone."""
        return _dominant_cone(self.root_datum)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "weights": [list(b) for b in self.weights],
            "quasi_symmetric": self.quasi_symmetric,
            "spans": self.spans,
            "generic": self.generic.value,
            "symplectic": self.symplectic,
            "sigma": self.sigma.to_json(),
            "nabla": self.nabla.to_json(),
        }


def eta(root_datum: RootDatum, weights, lam) -> Fraction:
    """Weighted count of the negative-side weights minus the root correction.

    For a one-parameter subgroup lam, sums <-b, lam> over weights pairing
    negatively with lam and subtracts the same sum over the roots.  Each
    pairing is an integer dot product with Q lam, the paired column over
    the pairing's one denominator.
    """
    if linalg.is_zero(lam):
        raise InputError("eta is undefined at lambda = 0")
    col, den = root_datum._paired(lam)
    weight_part = sum(max(0, -linalg.dot(b, col)) for b in weights)
    root_part = sum(max(0, linalg.dot(a, col)) for a in root_datum.roots)
    return Fraction(weight_part - root_part, den)


def slab_candidates(root_datum: RootDatum, weights) -> list[IntVec]:
    """Primitive normals of hyperplanes spanned by (n-1)-subsets of wt(X) + roots.

    These are the only directions in which the slab intersection can have a
    facet; correctness is enforced afterwards by the dominant-slice
    cross-check.  For a torus they also contain every facet normal of the
    hull of any sub-multiset of the weights, which check_generic relies on.
    """
    n = root_datum.rank
    vectors = sorted({tuple(b) for b in weights if not linalg.is_zero(b)}
                     | set(root_datum.roots))
    found = set()
    if n == 1:
        return [(1,)]
    # the rows P v scaled by the pairing's positive denominator: integer
    # rows with the same kernel, which is a line exactly when they are
    # independent
    for combo in itertools.combinations(vectors, n - 1):
        kernel = linalg.kernel_basis([root_datum._paired(v)[0] for v in combo])
        if len(kernel) != 1:
            continue
        found.add(linalg.sign_normalized(linalg.primitive(kernel[0])))
    return sorted(found)


def build_nabla(root_datum: RootDatum, weights, sigma: Polytope,
                candidates: list[IntVec] | None = None) -> Polytope:
    """Intersect the slabs |<chi, lam>| <= eta_lam / 2 over candidate normals
    (``slab_candidates``, worked out here when not given).

    The finite candidate set is verified against the dominant-slice identity
    (the dominant part must equal that of -rho + half the zonotope) and
    against Weyl invariance; any mismatch raises InternalInconsistencyError.
    """
    if candidates is None:
        candidates = slab_candidates(root_datum, weights)
    halfspaces = []
    for lam in candidates:
        converted, rescale = linalg.primitive_scale(linalg.mat_vec(root_datum.pairing, lam))
        offset = -eta(root_datum, weights, lam) / 2 * rescale
        halfspaces.append(HalfSpace(converted, offset))
        halfspaces.append(HalfSpace(linalg.neg(converted), offset))
    nabla = geometry.from_halfspaces(halfspaces, center=(Fraction(0),) * root_datum.rank)
    _cross_check_nabla(root_datum, sigma, nabla)
    return nabla


def _dominant_cone(root_datum: RootDatum) -> tuple[HalfSpace, ...]:
    return tuple(HalfSpace(linalg.primitive(c), Fraction(0)) for c in root_datum._columns)


def _cross_check_nabla(root_datum, sigma, nabla) -> None:
    # A torus has no positive roots, so the dominant cone is the whole space
    # and rho = 0: the slice comparison is then exactly nabla = sigma / 2.
    dominant = _dominant_cone(root_datum)
    shifted = sigma.scale(Fraction(1, 2)).translate(linalg.neg(root_datum.rho))
    slice_nabla = geometry.intersect(nabla, dominant)
    slice_sigma = geometry.intersect(shifted, dominant)
    if not geometry.polytopes_equal(slice_nabla, slice_sigma):
        raise InternalInconsistencyError(
            "dominant slice of the window polytope does not match the shifted zonotope")
    # nabla is convex and the simple reflections generate W, so s(nabla) in
    # nabla for each simple s gives w(nabla) in nabla for every w
    for s in root_datum.simple_reflections:
        for v in nabla.vertices:
            if not nabla.contains(root_datum.apply(s, v)):
                raise InternalInconsistencyError("window polytope is not Weyl invariant")


def _check_w_invariance(root_datum, weights) -> None:
    from collections import Counter
    tally = Counter(weights)
    for w in root_datum.simple_reflections:
        if Counter(tuple(root_datum.apply(w, b)) for b in weights) != tally:
            raise InputError("weight multiset is not Weyl invariant")


def check_generic(root_datum: RootDatum, weights,
                  candidates: list[IntVec] | None = None) -> Ternary:
    """Genericity in the torus case: dropping any one weight must still
    generate the lattice and keep the origin interior to the hull.  The
    ``slab_candidates`` are worked out here when not given.

    No combinatorial criterion is implemented for nonabelian groups; those
    report UNKNOWN (overridable by an explicit assertion on input).
    """
    if not root_datum.is_torus:
        return Ternary.UNKNOWN
    n = root_datum.rank
    if candidates is None:
        candidates = slab_candidates(root_datum, weights)
    for i in range(len(weights)):
        rest = [b for j, b in enumerate(weights) if j != i]
        if not linalg.lattice_generates(rest, n):
            return Ternary.NO
        if not _zero_in_interior(rest, candidates):
            return Ternary.NO
    return Ternary.YES


def _zero_in_interior(vectors, candidates) -> bool:
    """0 is interior to conv(vectors) iff every candidate direction sees
    vectors strictly on both sides.  The vectors must span: check_generic
    asks only after they generate the lattice."""
    for lam in candidates:
        values = [linalg.dot(v, lam) for v in vectors]
        if max(values) <= 0 or min(values) >= 0:
            return False
    return True
