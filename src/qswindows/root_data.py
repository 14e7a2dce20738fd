"""Root data: weight lattice, roots, Weyl group, and dominant representatives.

A root datum is given explicitly by a W-invariant pairing matrix, the root
set, and the simple reflections; builtin constructors cover tori and GL(n).
W is never listed.  Each simple reflection negates its simple root and
permutes the other positive roots (checked on input), so reflecting in a
simple root negative on a vector leaves one positive root fewer negative on
it, and that descent reaches the open dominant cone in l(w) steps, l(w) the
number of positive roots negative at the start (Humphreys, *Reflection
Groups and Coxeter Groups*, 1.6-1.8).  It gives dominant representatives
with their lengths, and w0 as the product of the steps from -2rho.

The dominance tests and the descent run over the integers.  Each positive
root's paired column P a is scaled once, by a positive integer, to an
integer vector c_a, so <x, a> = <x, P a> has the sign of x . c_a.  A
weight chi = x/d (integer numerators over a positive denominator) enters as
the integer vector u = 2d(chi + rho) = 2x + d * 2rho, which has the signs of
rho + chi against every c_a; the simple reflections act on u.  The dotted
action sends lattice weights, and only them, to lattice weights, as
s(2rho) = 2rho - 2a for the simple reflection s in a.  So a nonsingular chi
is checked to be a lattice weight, d = 1, and its dotted image
w(rho + chi) - rho is (w u - 2rho) / 2 exactly.  A torus has no roots, so W
is trivial and rho = 0: its dominant representative is chi itself once chi
is checked to be a lattice weight.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from operator import mul

from . import linalg
from .errors import InputError, _fmt
from .geometry import HalfSpace
from .linalg import IntVec, Vec, _bareiss, _int_entry, _numerators, int_rows

Weight = IntVec
WeylMatrix = tuple[IntVec, ...]


@dataclass(frozen=True)
class DominantRep:
    """Outcome of moving rho+chi into the open dominant cone."""

    weight: Weight
    length: int


@dataclass(frozen=True)
class RootDatum:
    rank: int
    # the pairing P as integer rows Q over one positive denominator q, P = Q/q,
    # in lowest terms, so that equal pairings compare equal
    _int_pairing: tuple[IntVec, ...]
    _pairing_den: int
    roots: tuple[Weight, ...]
    positive_roots: tuple[Weight, ...]
    simple_reflections: tuple[WeylMatrix, ...]
    two_rho: Weight
    invariant_basis: tuple[Weight, ...]
    # each positive root's paired column Q a = q P a
    _columns: tuple[IntVec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_columns", tuple(self._paired(a)[0]
                                                   for a in self.positive_roots))

    @property
    def pairing(self) -> tuple[Vec, ...]:
        """The pairing matrix P as ``Fraction`` rows, made when read."""
        return tuple(linalg._fractions(row, self._pairing_den) for row in self._int_pairing)

    # -- construction ------------------------------------------------------

    @classmethod
    def torus(cls, rank: int) -> "RootDatum":
        return _builtin("torus", _positive(rank, "torus rank"))

    @classmethod
    def gl(cls, n: int) -> "RootDatum":
        return _builtin("gl", _positive(n, "gl rank"))

    @classmethod
    def from_data(cls, rank, pairing, roots, simple_reflections,
                  positive_roots=None) -> "RootDatum":
        pairing = tuple(map(tuple, pairing))
        flat, den = _numerators([x for row in pairing for x in row])
        if len(pairing) != rank or any(len(row) != rank for row in pairing):
            raise InputError(f"pairing must be a {rank} x {rank} matrix")
        roots = tuple(sorted(set(int_rows(roots, "roots"))))
        simples = tuple(int_rows(s, "simple reflection") for s in simple_reflections)
        positive = (None if positive_roots is None
                    else tuple(sorted(set(int_rows(positive_roots, "positive roots")))))
        rows = (row for s in simples for row in s)
        if any(len(x) != rank for x in (*roots, *(positive or ()), *simples, *rows)):
            raise InputError(f"roots and the rows of simple reflections need {rank} entries, "
                             f"and simple reflections {rank} rows")
        if positive is None:
            positive = _derive_positive_roots(roots, simples)
        two_rho = tuple(sum(col) for col in zip(*positive)) if positive else (0,) * rank
        inv = _invariant_lattice_basis(rank, simples)
        datum = cls(
            rank=rank,
            _int_pairing=tuple(flat[i:i + rank] for i in range(0, len(flat), rank)),
            _pairing_den=den,
            roots=roots,
            positive_roots=positive,
            simple_reflections=simples,
            two_rho=two_rho,
            invariant_basis=inv,
        )
        datum._validate()
        return datum

    @classmethod
    def from_dict(cls, data: dict) -> "RootDatum":
        if not isinstance(data, dict):
            raise InputError("the root datum block must be a JSON object")
        builtin = data.get("builtin")
        if builtin == "torus":
            return cls.torus(_int_entry(data["rank"], "rank must be an integer"))
        if builtin == "gl":
            return cls.gl(_int_entry(data["n"], "n must be an integer"))
        if builtin is not None:
            raise InputError(f"unknown builtin root datum {builtin!r}")
        try:
            rank = _int_entry(data["rank"], "rank must be an integer")
            pairing = _parse_matrix(data["pairing"], rank)
            # from_data checks the entries; only the iteration is guarded here
            simples = list(data.get("simple_reflections", []))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad root datum block: {exc}") from exc
        return cls.from_data(rank, pairing, data.get("roots", []), simples,
                             positive_roots=data.get("positive_roots"))

    def _validate(self) -> None:
        n = self.rank
        root_set = set(self.roots)
        if {linalg.neg(r) for r in root_set} != root_set:
            raise InputError("root set is not symmetric under negation")
        pos = set(self.positive_roots)
        if pos | {linalg.neg(r) for r in pos} != root_set or pos & {linalg.neg(r) for r in pos}:
            raise InputError("positive roots do not split the root set")
        rows = self._int_pairing
        # the simple reflections generate W, so checking them checks all of W
        for s in self.simple_reflections:
            if {self.apply(s, r) for r in root_set} != root_set:
                raise InputError("a simple reflection does not permute the roots")
            # what the descent relies on: one positive root negated, the rest permuted
            negated = _negated(s, pos)
            if len(negated) != 1:
                raise InputError(f"a simple reflection negates {len(negated)} positive roots, not 1")
            rest = pos - set(negated)
            if {self.apply(s, r) for r in rest} != rest:
                raise InputError("a simple reflection does not permute the other positive roots")
            # <s x, s y> = <x, y> for all x, y exactly when s^T Q s = Q
            if linalg.mat_mul(linalg.transpose(s), linalg.mat_mul(rows, s)) != rows:
                raise InputError("pairing is not Weyl invariant")
        # wall points are W-invariant, so moving by one must keep dominance
        for v in self.invariant_basis:
            for a in self.roots:
                if sum(map(mul, v, self._paired(a)[0])):
                    raise InputError(f"root {_fmt(a)} pairs to {self.pair(v, a)} with the "
                                     f"W-invariant vector {_fmt(v)}, not to 0")
        # -2rho must descend through every positive root for w0 to be longest
        if any(sum(map(mul, self.two_rho, c)) <= 0 for c in self._columns):
            raise InputError("2rho does not pair positively with every positive root")
        if linalg.mat_mul(self.w0, self.w0) != linalg.identity_matrix(n):
            raise InputError("longest element is not an involution")
        for i, j in ((i, j) for i in range(n) for j in range(i) if rows[i][j] != rows[j][i]):
            p = self.pairing
            raise InputError(f"pairing is not symmetric: entry ({i + 1}, {j + 1}) is {p[i][j]} "
                             f"but entry ({j + 1}, {i + 1}) is {p[j][i]}")
        if len(_bareiss(rows, n)[0]) < n:
            raise InputError(f"pairing with rows {', '.join(map(_fmt, self.pairing))} is singular")

    # -- basic operations --------------------------------------------------

    def pair(self, x, y) -> Fraction:
        col, den = self._paired(y)
        return Fraction(linalg.dot(x, col), den)

    def _paired(self, y) -> tuple[tuple, int]:
        """P y as Q y over the positive denominator q; integer for integer y."""
        return linalg.mat_vec(self._int_pairing, y), self._pairing_den

    def apply(self, w: WeylMatrix, chi):
        return linalg.mat_vec(w, chi)

    def is_dominant(self, chi) -> bool:
        nums = _numerators(chi)[0]
        return all(sum(map(mul, nums, c)) >= 0 for c in self._columns)

    @cached_property
    def rho(self) -> Vec:
        return tuple(Fraction(x, 2) for x in self.two_rho)

    @cached_property
    def dominant_cone(self) -> tuple[HalfSpace, ...]:
        """Dot-product half-spaces cutting out the dominant cone, one per positive root."""
        return tuple(HalfSpace(linalg.primitive(c), 0) for c in self._columns)

    def _doubled(self, chi) -> IntVec:
        """2d(chi + rho) as an integer vector, with d the denominator of chi."""
        nums, den = _numerators(chi)
        return tuple(2 * x + den * r for x, r in zip(nums, self.two_rho, strict=True))

    @cached_property
    def _simple_columns(self) -> tuple[IntVec, ...]:
        """Per simple reflection, the paired column Q a of the one positive
        root a it negates (``_validate`` checks there is exactly one)."""
        return tuple(self._paired(_negated(s, self.positive_roots)[0])[0]
                     for s in self.simple_reflections)

    def _descent(self, u, length: int) -> tuple[IntVec, list[WeylMatrix]]:
        """u carried into the open dominant cone, with the simple reflections
        applied, in order; ``length`` is the number of positive roots
        negative on u, and none may be orthogonal to it."""
        steps = []
        for _ in range(length):
            s = next((s for s, c in zip(self.simple_reflections, self._simple_columns)
                      if sum(map(mul, u, c)) < 0), None)
            if s is None:
                raise InputError("no simple root is negative on a weight outside the dominant cone")
            u = self.apply(s, u)
            steps.append(s)
        return u, steps

    @cached_property
    def w0(self) -> WeylMatrix:
        """The longest element: the product of the simple reflections that
        carry -2rho, negative on every positive root, into the dominant cone."""
        w = linalg.identity_matrix(self.rank)
        for s in self._descent(linalg.neg(self.two_rho), len(self.positive_roots))[1]:
            w = linalg.mat_mul(s, w)
        return w

    def dominant_representative(self, chi) -> DominantRep | None:
        """The dominant chi+ = w(rho+chi) - rho with the length l(w) of the w
        that makes w(rho+chi) strictly dominant, or ``None`` when rho+chi is
        singular.

        rho+chi is singular exactly when it pairs to zero with some root,
        i.e. when a reflection fixes it.
        """
        if self.is_torus:
            return DominantRep(weight=_lattice_weight(chi), length=0)
        u = self._doubled(chi)
        values = [sum(map(mul, u, c)) for c in self._columns]
        if not all(values):
            return None
        _lattice_weight(chi)
        length = sum(v < 0 for v in values)
        wu = self._descent(u, length)[0]
        return DominantRep(weight=tuple((x - r) // 2 for x, r in zip(wu, self.two_rho)),
                           length=length)

    @property
    def is_torus(self) -> bool:
        return not self.roots


def _positive(n, what: str) -> int:
    """A builtin's rank, checked before the memo lookup, where True would
    pass as 1 and 2.0 as 2."""
    if _int_entry(n, f"{what} must be an integer") < 1:
        raise InputError(f"{what} must be positive")
    return n


@cache
def _builtin(kind: str, n: int) -> RootDatum:
    """The torus or GL(n) datum of rank n, built and validated once per
    process and shared: a RootDatum is frozen, and its cached tables are
    then worked out once too."""
    roots, simples = [], []
    if kind == "gl":
        roots = [tuple(1 if k == i else -1 if k == j else 0 for k in range(n))
                 for i in range(n) for j in range(n) if i != j]
        for i in range(n - 1):
            perm = list(range(n))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            simples.append(tuple(tuple(1 if perm[r] == c else 0 for c in range(n))
                                 for r in range(n)))
    return RootDatum.from_data(n, linalg.identity_matrix(n), roots, simples)


def _lattice_weight(chi) -> Weight:
    """chi as an integer vector; only ints and integral Fractions are entries
    of one, so a bool, a float or a p/q with q > 1 is refused, not truncated."""
    if not all(type(x) is int or type(x) is Fraction and x.denominator == 1 for x in chi):
        raise InputError(f"{_fmt(chi)} is not a lattice weight")
    return tuple(map(int, chi))


def _negated(s: WeylMatrix, roots) -> list[Weight]:
    """The roots that the reflection s sends to their negatives, sorted."""
    return sorted(r for r in roots if linalg.mat_vec(s, r) == linalg.neg(r))


def _derive_positive_roots(roots, simples):
    """Split the roots using the simple-root basis.

    Each simple reflection negates a unique root pair; a root is positive
    when its coordinates in the chosen simple roots are all nonnegative.
    """
    if not roots:
        return ()
    if not simples:
        raise InputError("nonempty root set needs simple reflections")
    simple_roots = []
    for s in simples:
        negated = _negated(s, roots)
        if not negated:
            raise InputError("a simple reflection negates no root")
        simple_roots.append(negated[-1])
    positive = []
    for r in roots:
        coeffs = linalg.solve(linalg.transpose(simple_roots), r)
        if coeffs is None:
            raise InputError("a root lies outside the span of the simple roots")
        # the numerators over a positive denominator have the coordinates' signs
        if all(c >= 0 for c in coeffs[0]):
            positive.append(r)
    if 2 * len(positive) != len(roots):
        raise InputError("positive-root derivation did not split the roots in half")
    return tuple(sorted(positive))


def _invariant_lattice_basis(rank, simples):
    """Z-basis of the sublattice every simple reflection fixes, which is
    the sublattice W fixes, as they generate it."""
    identity = linalg.identity_matrix(rank)
    rows = [tuple(s[r][c] - identity[r][c] for c in range(rank))
            for s in simples for r in range(rank)]
    if not rows:
        return tuple(identity)
    basis = linalg.integer_kernel_basis(rows)
    return tuple(sorted(linalg.sign_normalized(b) for b in basis))


def _parse_matrix(entries, rank):
    if not isinstance(entries, (list, tuple)) or not entries:
        raise InputError("pairing must be a non-empty list")
    if isinstance(entries[0], (list, tuple)):
        rows = [[_rational_entry(x) for x in row] for row in entries]
    else:
        flat = [_rational_entry(x) for x in entries]
        if len(flat) != rank * rank:
            raise InputError("row-major pairing has the wrong length")
        rows = [flat[i * rank:(i + 1) * rank] for i in range(rank)]
    return rows


_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _rational_entry(x) -> int | Fraction:
    """A pairing entry: a JSON integer, kept as that int, or a "p/q" / "n"
    string, nothing else."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        return Fraction(x)
    raise InputError(f"pairing entries must be integers or \"p/q\" strings, got {x!r}")
