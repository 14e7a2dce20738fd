"""The periodic wall arrangement inside the Weyl-invariant subspace.

Walls are translates of the window-polytope facet hyperplanes intersected
with the invariant subspace; each direction is stored once, as an exact
offset coset base + step * Z of a primitive covector on invariant
coordinates.  Points are rejected, never perturbed, when they lie on a wall.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import geometry, linalg
from .errors import InputError, NotAdjacentError, OnWallError, _fmt
from .geometry import ceil_frac, floor_frac
from .linalg import IntVec, Vec
from .rep import QSRep


@dataclass(frozen=True)
class WallFamily:
    """Walls {t : <t, normal> = base_offset + k * offset_step, k in Z}."""

    normal: IntVec
    base_offset: Fraction
    offset_step: Fraction
    source_facet: int

    def value(self, coords) -> Fraction:
        return Fraction(linalg.dot(coords, self.normal))

    def interval_index(self, value: Fraction) -> int:
        if (value - self.base_offset) % self.offset_step == 0:
            raise ValueError("value sits on a wall of this family")
        return floor_frac((value - self.base_offset) / self.offset_step)

    def offsets_between(self, a: Fraction, b: Fraction) -> list[Fraction]:
        """Offsets strictly between a and b (order-free)."""
        lo, hi = min(a, b), max(a, b)
        start = floor_frac((lo - self.base_offset) / self.offset_step) + 1
        stop = ceil_frac((hi - self.base_offset) / self.offset_step) - 1
        return [self.base_offset + k * self.offset_step for k in range(start, stop + 1)
                if lo < self.base_offset + k * self.offset_step < hi]


@dataclass(frozen=True)
class Wall:
    family_index: int
    offset: Fraction


@dataclass(frozen=True)
class Chamber:
    sign_vector: tuple[int, ...]
    sample: Vec

    def __eq__(self, other):
        return isinstance(other, Chamber) and self.sign_vector == other.sign_vector

    def __hash__(self):
        return hash(self.sign_vector)


@dataclass(frozen=True)
class Arrangement:
    rep: QSRep
    families: tuple[WallFamily, ...]
    invariant_basis: tuple[IntVec, ...]

    @property
    def dim(self) -> int:
        return len(self.invariant_basis)

    # -- coordinates ---------------------------------------------------------

    def to_coords(self, point) -> Vec:
        """Invariant coordinates of an ambient point (must be W-invariant)."""
        point = linalg.vec(point)
        if len(point) == self.dim and self.rep.rank != self.dim:
            raise InputError("pass ambient coordinates, not invariant ones")
        sol = linalg.solve(linalg.transpose(self.invariant_basis), point)
        if sol is None:
            raise InputError(f"point {_fmt(point)} does not lie in the invariant subspace")
        return sol

    def to_ambient(self, coords) -> Vec:
        out = (Fraction(0),) * self.rep.rank
        for c, b in zip(coords, self.invariant_basis, strict=True):
            out = linalg.add(out, linalg.scale(Fraction(c), b))
        return out

    # -- queries -------------------------------------------------------------

    def walls_at(self, coords) -> list[Wall]:
        out = []
        seen = set()
        for i, f in enumerate(self.families):
            v = f.value(coords)
            if (v - f.base_offset) % f.offset_step == 0 and (f.normal, v) not in seen:
                seen.add((f.normal, v))
                out.append(Wall(i, v))
        return out

    def on_wall(self, coords) -> bool:
        return bool(self.walls_at(coords))

    def chamber_of(self, coords) -> Chamber:
        coords = linalg.vec(coords)
        walls = self.walls_at(coords)
        if walls:
            raise OnWallError(coords, walls[0])
        sign = tuple(f.interval_index(f.value(coords)) for f in self.families)
        return Chamber(sign_vector=sign, sample=coords)

    def separating_walls(self, a, b) -> list[Wall]:
        """Walls meeting the open segment from a to b (endpoints off-wall).

        A hyperplane is one wall even when it belongs to the offset cosets
        of several facet families, so records are deduplicated by (normal,
        offset).
        """
        a, b = linalg.vec(a), linalg.vec(b)
        for p in (a, b):
            walls = self.walls_at(p)
            if walls:
                raise OnWallError(p, walls[0])
        out = []
        seen = set()
        for i, f in enumerate(self.families):
            va, vb = f.value(a), f.value(b)
            for off in f.offsets_between(va, vb):
                if (f.normal, off) not in seen:
                    seen.add((f.normal, off))
                    out.append(Wall(i, off))
        out.sort(key=lambda w: (w.family_index, w.offset))
        return out

    def distance(self, a, b) -> int:
        return len(self.separating_walls(a, b))

    def require_adjacent(self, a, b) -> Wall:
        walls = self.separating_walls(a, b)
        if len(walls) != 1:
            raise NotAdjacentError(a, b, len(walls))
        return walls[0]

    def orientation(self, direction, family_index: int) -> int:
        """Sign of a direction vector against a wall family's normal."""
        v = self.families[family_index].value(direction)
        if v > 0:
            return 1
        if v < 0:
            return -1
        return 0

    def is_generic_ell(self, ell) -> bool:
        """A label (ambient, W-invariant) is generic when it lies on none of
        the linear hyperplanes parallel to the weight-zonotope facets."""
        ell = linalg.vec(ell)
        self.to_coords(ell)
        if linalg.is_zero(ell):
            return False
        return all(linalg.dot(ell, h.normal) != 0 for h in self.rep.sigma.halfspaces)

    def triangle_report(self, a, b, c) -> dict:
        """Separating-set identity and distance inequality for three points."""
        ab = set(self.separating_walls(a, b))
        bc = set(self.separating_walls(b, c))
        ac = set(self.separating_walls(a, c))
        symmetric_difference = (ab | bc) - (ab & bc)
        return {
            "sets": {"ab": ab, "bc": bc, "ac": ac},
            "identity_holds": ac == symmetric_difference,
            "triangle_inequality": len(ac) <= len(ab) + len(bc),
            "equality": len(ac) == len(ab) + len(bc),
            "equality_iff_disjoint": (len(ac) == len(ab) + len(bc)) == (not ab & bc),
        }

    # -- enumeration ---------------------------------------------------------

    def walls_in_box(self, periods: int = 3) -> list[Wall]:
        """All walls meeting the box [0, periods]^dim in invariant coords,
        one record per hyperplane."""
        corners = list(itertools.product((Fraction(0), Fraction(periods)), repeat=self.dim))
        out = []
        seen = set()
        for i, f in enumerate(self.families):
            values = [f.value(c) for c in corners]
            lo, hi = min(values), max(values)
            start = ceil_frac((lo - f.base_offset) / f.offset_step)
            stop = floor_frac((hi - f.base_offset) / f.offset_step)
            for k in range(start, stop + 1):
                off = f.base_offset + k * f.offset_step
                if (f.normal, off) not in seen:
                    seen.add((f.normal, off))
                    out.append(Wall(i, off))
        out.sort(key=lambda w: (w.family_index, w.offset))
        return out

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
    _require_generic_labels_exist(rep, basis)
    families: dict[tuple, int] = {}
    for idx, h in enumerate(rep.nabla.halfspaces):
        restricted = tuple(Fraction(linalg.dot(b, h.normal)) for b in basis)
        if linalg.is_zero(restricted):
            continue
        primitive = linalg.primitive(restricted)
        normalized = linalg.sign_normalized(primitive)
        j = next(i for i, x in enumerate(normalized) if x != 0)
        rescale = Fraction(normalized[j]) / restricted[j]
        step = abs(rescale) * Fraction(1)
        base = h.offset * rescale
        base = base % step
        key = (normalized, step, base)
        if key not in families:
            families[key] = idx
    fams = tuple(
        WallFamily(normal=key[0], base_offset=key[2], offset_step=key[1], source_facet=idx)
        for key, idx in sorted(families.items(), key=lambda kv: kv[0])
    )
    if not fams:
        raise InputError("every window facet direction contains the invariant subspace")
    return Arrangement(rep=rep, families=fams, invariant_basis=basis)


def _require_generic_labels_exist(rep: QSRep, basis) -> None:
    """(M_R^W)_gen is empty iff some zonotope facet hyperplane contains the
    whole invariant subspace."""
    for h in rep.sigma.halfspaces:
        if all(linalg.dot(b, h.normal) == 0 for b in basis):
            raise InputError(
                "a zonotope facet hyperplane contains the invariant subspace; "
                "no generic labels exist")
