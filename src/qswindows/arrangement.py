"""The periodic wall arrangement inside the Weyl-invariant subspace.

Walls are translates of the window-polytope facet hyperplanes intersected
with the invariant subspace; each direction is stored once, as an exact
offset coset base + step * Z of a primitive covector n on invariant
coordinates.  Points are rejected, never perturbed, when they lie on a wall.

Queries run over the integers.  When a family is built, its base and step
are written over one positive denominator, B = b/q and S = s/q.  A point
enters a query once, as integer numerators over a common positive
denominator, c = x/d.  Its value on the family is <c, n> = <x, n>/d, so

    (<c, n> - B) / S = (q <x, n> - b d) / (s d),

a quotient of integers whose divisor s d is positive.  Python's floor
division rounds that quotient towards minus infinity, so one ``divmod``
gives k = floor((<c, n> - B) / S), the index of the interval
B + kS <= <c, n> < B + (k+1)S that holds the point, and a remainder that is
zero exactly when <c, n> = B + kS, that is when the point lies on a wall.
The indices over all families form the chamber's sign vector.  Between two
off-wall points with indices k_a and k_b the family has the walls B + kS
with min(k_a, k_b) < k <= max(k_a, k_b), so the separating walls of two
points, or of two chambers already located, are read off two sign vectors.
Families with the same normal can put walls at the same offset, and such a
hyperplane is recorded once, under its first family; offsets are compared as
integer numerators over the common scale of the normal's families.  A
chamber keeps its sample's numerators, and queries read them.

An ambient point enters as integer numerators x over e > 0 too.  On first
use, one reduction of [B^T | I], with B the rows of ``invariant_basis``,
gives integer rows E with E B^T = D I and N with N B^T = 0: the point lies
in the invariant subspace exactly when N x = 0, and its coordinates are then
E x / (D e).  Locating it is two integer products, and no solve.

A wall keeps its offset as the integer numerator over its family's scale,
and a crossing time t, where the segment a + t(b - a) meets a wall, is an
integer pair (p, q) with q > 0.  ``Fraction``s are made only for output: a
wall's ``offset`` when it is printed or compared with user input, a
chamber's sample when it is read, the coordinates ``to_coords`` returns and
the ambient point ``to_ambient`` returns, whose numerators ``character``
gives over the same denominator.

In rank one every wall normal is (1,), so a wall is a coordinate.  Two
distinct walls of the cosets b + sZ and c + tZ, integers over a common
scale, differ by a nonzero element of d + gZ, for g = gcd(s, t) and
d = (b - c) mod g; so the least distance between them is min(d, g - d), or
g when d = 0, and one family's own walls lie its step apart.  The least
such gap over all pairs of families is worked out once per arrangement,
and ``across`` steps half of it past a wall: the step lands strictly inside
the chamber beyond, however the families interleave.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import geometry, linalg
from .errors import (InputError, NotAdjacentError, OnWallError, UnsupportedDimensionError,
                     _fmt, _require_length)
from .linalg import IntVec, Vec
from .rep import QSRep


@dataclass(frozen=True)
class WallFamily:
    """Walls {t : <t, normal> = (base_num + k * step_num) / scale, k in Z}.

    ``scale`` is the least positive denominator of base and step, so equal
    families have equal fields; ``base_offset`` and ``offset_step`` are
    made as ``Fraction``s only when read.
    """

    normal: IntVec
    base_num: int
    step_num: int
    scale: int
    source_facet: int

    @property
    def base_offset(self) -> Fraction:
        return Fraction(self.base_num, self.scale)

    @property
    def offset_step(self) -> Fraction:
        return Fraction(self.step_num, self.scale)


@dataclass(frozen=True, slots=True)
class Wall:
    """The wall <t, normal> = num / scale of one family, over that family's scale."""

    family_index: int
    num: int
    scale: int

    @property
    def offset(self) -> Fraction:
        return Fraction(self.num, self.scale)


@dataclass(frozen=True)
class Chamber:
    sign_vector: tuple[int, ...]
    nums: IntVec = field(repr=False)  # the sample over one positive denominator
    den: int = field(repr=False)
    sample = cached_property(lambda self: linalg._fractions(self.nums, self.den))

    def __eq__(self, other):
        return isinstance(other, Chamber) and self.sign_vector == other.sign_vector

    def __hash__(self):
        return hash(self.sign_vector)


@dataclass(frozen=True)
class Arrangement:
    rep: QSRep
    families: tuple[WallFamily, ...]
    invariant_basis: tuple[IntVec, ...]
    # weight-zonotope facet normals restricted to the invariant basis
    label_normals: tuple[IntVec, ...] = field(repr=False, compare=False)
    # per family: its normal's index and the factor to that normal's common scale
    _wall_keys: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scales: dict[IntVec, int] = {}
        for f in self.families:
            scales[f.normal] = lcm(scales.get(f.normal, 1), f.scale)
        group = {n: g for g, n in enumerate(scales)}
        object.__setattr__(self, "_wall_keys", tuple(
            (group[f.normal], scales[f.normal] // f.scale) for f in self.families))

    @property
    def dim(self) -> int:
        return len(self.invariant_basis)

    # -- coordinates ---------------------------------------------------------

    def to_coords(self, point) -> Vec:
        """Invariant coordinates of an ambient point (must be W-invariant)."""
        return linalg._fractions(*self._coords(point))

    def _coords(self, point) -> tuple[IntVec, int]:
        """``to_coords`` as integer numerators over one positive denominator,
        in lowest terms."""
        x, e = linalg._numerators(point)
        if len(x) == self.dim and self.rep.rank != self.dim:
            raise InputError("pass ambient coordinates, not invariant ones")
        _require_length(point, self.rep.rank)
        coords, den, equations = self._inverse
        if any(sum(map(mul, row, x)) for row in equations):
            raise InputError(f"point {_fmt(point)} does not lie in the invariant subspace")
        nums = [sum(map(mul, row, x)) for row in coords]
        g = gcd(den * e, *nums)
        return tuple(a // g for a in nums), den * e // g

    @cached_property
    def _inverse(self) -> tuple[list[list[int]], int, list[list[int]]]:
        """Integer rows E, their denominator D and rows N with E B^T = D I
        and N B^T = 0, read straight off one reduction of [B^T | I].  A row
        [r | s] of its row space has r = s B^T; B has independent rows, so
        ``rref`` returns [D I | E] over [0 | N], and N spans the equations
        of the invariant subspace."""
        k = self.dim
        reduced, den = linalg.rref([(*col, *unit) for col, unit in zip(
            linalg.transpose(self.invariant_basis), linalg.identity_matrix(self.rep.rank))])
        return [row[k:] for row in reduced[:k]], den, [row[k:] for row in reduced[k:]]

    def to_ambient(self, point) -> Vec:
        """The ambient point sum_i c_i b_i of coordinates or of a chamber, as
        ``Fraction``s: the character of the numerators over their one
        denominator.  Crossings keep that pair and make no ``Fraction``."""
        nums, den = self._scaled(point)
        return linalg._fractions(self.character(nums), den)

    def character(self, m: IntVec) -> IntVec:
        """The ambient integer vector sum_i m_i b_i of integer invariant
        coordinates m; a W-invariant character, as the b_i are."""
        return tuple(sum(map(mul, m, col)) for col in zip(*self.invariant_basis))

    def _scaled(self, point) -> tuple[IntVec, int]:
        """Invariant coordinates, or a chamber's sample, as integer
        numerators over one positive denominator."""
        if type(point) is Chamber:
            return point.nums, point.den
        scaled = linalg._numerators(point)
        _require_length(point, self.dim, "invariant coordinates")
        return scaled

    def _indices(self, nums: IntVec, den: int) -> list[tuple[int, int]]:
        """Per family, the interval index of the point nums/den and a remainder
        that is zero exactly when the point is on that family's wall."""
        return [divmod(f.scale * sum(map(mul, nums, f.normal)) - f.base_num * den,
                       f.step_num * den)
                for f in self.families]

    def _walls(self, candidates) -> list[Wall]:
        """One Wall per hyperplane among (family index, k) pairs."""
        out = []
        seen = set()
        for i, k in candidates:
            f = self.families[i]
            group, factor = self._wall_keys[i]
            num = f.base_num + k * f.step_num
            if (group, num * factor) not in seen:
                seen.add((group, num * factor))
                out.append(Wall(i, num, f.scale))
        return out

    def _walls_on(self, indices) -> list[Wall]:
        return self._walls((i, k) for i, (k, r) in enumerate(indices) if not r)

    @cached_property
    def _half_gap(self) -> tuple[int, int]:
        """Half the least distance between two distinct rank-one walls, as
        an integer numerator over a positive denominator."""
        scale = lcm(*(f.scale for f in self.families))
        cosets = [(f.base_num * k, f.step_num * k) for f in self.families for k in [scale // f.scale]]
        return min(min(d, g - d) or g for b, s in cosets for c, t in cosets
                   for g in [gcd(s, t)] for d in [(b - c) % g]), 2 * scale

    def across(self, p: int, q: int, direction: int) -> Vec:
        """The rank-one point half the least wall gap past the wall at offset
        p/q, q > 0, in ``direction`` (+1 or -1), inside the chamber beyond it."""
        num, den = self._half_gap
        return (Fraction(p * den + direction * num * q, q * den),)

    # -- queries -------------------------------------------------------------

    def walls_at(self, coords) -> list[Wall]:
        return self._walls_on(self._indices(*self._scaled(coords)))

    def on_wall(self, coords) -> bool:
        return not all(r for _, r in self._indices(*self._scaled(coords)))

    def chamber_of(self, coords) -> Chamber:
        """The chamber of off-wall invariant coordinates, which are its sample."""
        coords = linalg.vec(coords)
        chamber = self._chamber(*self._scaled(coords))
        object.__setattr__(chamber, "sample", coords)  # as given, not made again
        return chamber

    def _chamber(self, nums: IntVec, den: int, named=None) -> Chamber:
        """The chamber of the point nums/den, in lowest terms over den > 0,
        with the point as sample.  An on-wall point is refused, named as
        ``named``, the point the caller was given, if that is not nums/den."""
        indices = self._indices(nums, den)
        if not all(r for _, r in indices):
            raise OnWallError(named or linalg._fractions(nums, den),
                              self._walls_on(indices)[0])
        return Chamber(tuple(k for k, _ in indices), nums, den)

    def separating_walls(self, a, b) -> list[Wall]:
        """The walls separating two off-wall points or two chambers, read off
        their sign vectors, sorted by family index and offset."""
        a, b = (x.sign_vector if type(x) is Chamber else self.chamber_of(x).sign_vector
                for x in (a, b))
        return self._walls((i, k) for i, (ka, kb) in enumerate(zip(a, b))
                           for k in range(min(ka, kb) + 1, max(ka, kb) + 1))

    def require_adjacent(self, a: Chamber, b: Chamber) -> Wall:
        """The one wall separating two chambers.  Chambers that are not
        adjacent are refused, named by their samples' ambient points, which
        are the points a caller located them from."""
        walls = self.separating_walls(a, b)
        if len(walls) != 1:
            raise NotAdjacentError(self.to_ambient(a), self.to_ambient(b), len(walls))
        return walls[0]

    def crossing_times(self, a, b, walls) -> list[tuple[int, int]]:
        """Per wall, the t = p/q (q > 0) at which the segment a + t(b - a)
        meets it; a, b may be chambers."""
        (x, da), (y, db) = self._scaled(a), self._scaled(b)
        out = []
        for w in walls:
            normal = self.families[w.family_index].normal
            xa, yb = sum(map(mul, x, normal)), sum(map(mul, y, normal))
            # (num/scale - xa/da) / (yb/db - xa/da), cleared of denominators
            p, q = (w.num * da - w.scale * xa) * db, w.scale * (yb * da - xa * db)
            out.append((p, q) if q > 0 else (-p, -q))
        return out

    def _on_segment(self, a, b, p: int, q: int) -> tuple[IntVec, int]:
        """The point a + (p/q)(b - a), q > 0, of two points or chambers, as integer
        numerators over one positive denominator in lowest terms: with a = x/d
        and b = y/e it is (q e x + p (d y - e x)) / (q d e), reduced."""
        (x, d), (y, e) = self._scaled(a), self._scaled(b)
        nums = [q * e * u + p * (d * v - e * u) for u, v in zip(x, y)]
        g = gcd(q * d * e, *nums)
        return tuple(n // g for n in nums), q * d * e // g

    def orientations(self, direction, walls) -> list[int]:
        """Signs of a direction vector against the normals of the walls."""
        nums, _ = self._scaled(direction)
        values = [sum(map(mul, nums, self.families[w.family_index].normal)) for w in walls]
        return [(v > 0) - (v < 0) for v in values]

    def is_generic_label(self, coords) -> bool:
        """A label (invariant coordinates) is generic when it lies on none of
        the linear hyperplanes parallel to the weight-zonotope facets (so
        the zero label is not generic)."""
        nums, _ = self._scaled(coords)
        return all(sum(map(mul, nums, n)) for n in self.label_normals)

    def is_generic_ell(self, ell) -> bool:
        """``is_generic_label`` for an ambient, W-invariant label."""
        return self.is_generic_label(self.to_coords(ell))

    # -- enumeration ---------------------------------------------------------

    def walls_in_box(self, periods: int = 3) -> list[Wall]:
        """All walls meeting the box [0, periods]^dim in invariant coords,
        one record per hyperplane.  They are counted before they are made,
        and more than ``geometry.LATTICE_SCAN_LIMIT`` of them are refused."""
        def ks(f: WallFamily) -> range:
            # the extreme values of <t, normal> over the box's corners
            ends = (periods * sum(x for x in f.normal if x < 0),
                    periods * sum(x for x in f.normal if x > 0))
            lo, hi = min(ends), max(ends)
            return range(-((f.base_num - f.scale * lo) // f.step_num),
                         (f.scale * hi - f.base_num) // f.step_num + 1)
        ranges = [ks(f) for f in self.families]
        # not len(), which overflows past 2**63; each range has stop >= start
        if (count := sum(r.stop - r.start for r in ranges)) > geometry.LATTICE_SCAN_LIMIT:
            raise UnsupportedDimensionError(
                f"enumeration of {count} walls exceeds the limit {geometry.LATTICE_SCAN_LIMIT}")
        return self._walls((i, k) for i, r in enumerate(ranges) for k in r)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "invariant_basis": [list(b) for b in self.invariant_basis],
            "families": [
                {
                    "normal": list(f.normal),
                    "base_offset": str(f.base_offset),
                    "offset_step": str(f.offset_step),
                    "source_facet": f.source_facet,
                }
                for f in self.families
            ],
        }


def build_arrangement(rep: QSRep) -> Arrangement:
    """One wall family per window-facet direction that cuts the invariant
    subspace, with offsets forming an exact rational coset."""
    datum = rep.root_datum
    basis = datum.invariant_basis
    if not basis:
        raise InputError("the invariant subspace is zero; no arrangement exists")
    # (M_R^W)_gen is empty iff some zonotope facet hyperplane contains the
    # whole invariant subspace
    label_normals = tuple(tuple(linalg.dot(b, n) for b in basis) for n in rep.sigma._table[0])
    if any(linalg.is_zero(n) for n in label_normals):
        raise InputError(
            "a zonotope facet hyperplane contains the invariant subspace; "
            "no generic labels exist")
    normals, offsets, den = rep.nabla._table
    families: dict[tuple, int] = {}
    for idx, (normal, o) in enumerate(zip(normals, offsets)):
        restricted = tuple(linalg.dot(b, normal) for b in basis)
        g = linalg.vec_gcd(restricted)
        if not g:
            continue
        # the covector restricted = s g n, n primitive and sign-normalized, s = +-1,
        # has its walls <t, n> = s o/(g den) + k/g in ((s o) mod den)/(g den) + Z/g;
        # keyed on -g, so that the families sort by their offset step 1/g
        primitive = tuple(a // g for a in restricted)
        normalized = linalg.sign_normalized(primitive)
        key = (normalized, -g, (o if normalized == primitive else -o) % den)
        if key not in families:
            families[key] = idx
    # base r/(g den) and step 1/g over their least common denominator g den/t
    fams = tuple(WallFamily(n, r // t, den // t, -minus_g * den // t, idx)
                 for (n, minus_g, r), idx in sorted(families.items())
                 for t in [gcd(r, den)])
    if not fams:
        raise InputError("every window facet direction contains the invariant subspace")
    return Arrangement(rep=rep, families=fams, invariant_basis=basis,
                       label_normals=label_normals)
