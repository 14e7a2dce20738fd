"""Formal module bookkeeping: covariant atoms, kernel atoms, left/right
mutation around a wall (torus case), periodicity, and split virtual classes.

Atoms are purely formal.  ``Cov(chi)`` stands for the module of covariants of
a dominant character; ``Ker(face, chi, i)`` for the i-th kernel in the exact
complex attached to a wall face.  Exchanges are summand bookkeeping, never
honest module maps; equality of specs is canonical-multiset equality.

Around a toric wall the non-pivot atoms lie on one closed cycle per outgoing
character chi: the chain of Ker(F, chi, i) out to Cov(chi+beta_F^+) and the
chain of Ker(F*, chi+beta_F^+, i) back.  ``ToricWall`` builds these chains
once, writing each chain's two ends as covariants: the kernel at step 0 of a
complex on base b is Cov(b), and the one at step d_F^+ - 1 is
Cov(b + beta_F^+).  A mutation step moves each atom one place along them.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import comb

from . import linalg
from .complexes import koszul_degree_term, top_degree
from .errors import InputError, InternalInconsistencyError
from .rep import QSRep
from .root_data import Weight
from .windows import Context, WallCrossing, dagger, wall_crossing

FaceKey = tuple


@dataclass(frozen=True)
class Cov:
    chi: Weight
    sort_key = cached_property(repr)  # specs list atoms in repr order, formatted once

    def __repr__(self):
        return f"Cov{self.chi}"


@dataclass(frozen=True)
class Ker:
    face_key: FaceKey
    chi: Weight
    step: int
    sort_key = cached_property(repr)

    def __repr__(self):
        return f"Ker({self.face_key},{self.chi},{self.step})"


Atom = Cov | Ker


@dataclass(frozen=True)
class ModuleSpec:
    atoms: tuple[tuple[Atom, int], ...]

    @classmethod
    def from_counter(cls, tally: Counter) -> "ModuleSpec":
        items = tuple(sorted(((a, m) for a, m in tally.items() if m),
                             key=lambda am: (am[0].sort_key, am[1])))
        return cls(atoms=items)

    @classmethod
    def of_window(cls, chars) -> "ModuleSpec":
        return cls.from_counter(Counter(Cov(tuple(c)) for c in chars))

    def to_json(self) -> dict:
        out = []
        for atom, mult in self.atoms:
            if isinstance(atom, Cov):
                out.append({"kind": "cov", "chi": list(atom.chi), "mult": mult})
            else:
                out.append({"kind": "ker", "face": list(atom.face_key),
                            "chi": list(atom.chi), "step": atom.step, "mult": mult})
        return {"atoms": out}


def module_of_window(rep: QSRep, delta, ctx: Context) -> ModuleSpec:
    return ModuleSpec.of_window(ctx.window(delta).chars)


class ToricWall:
    """Mutation context for one adjacent toric pair.

    Holds the unique wall face F, its dual F*, the pivot, and the cycle of
    length d_F^+ + d_F*^+ - 2 as ``chains``: for each outgoing chi, the
    atoms Ker(F, chi, i), 0 < i < d_F^+ - 1, from Cov(chi) to
    Cov(chi + beta_F^+), and Ker(F*, chi + beta_F^+, i), 0 < i < d_F*^+ - 1,
    back to Cov(chi), each stored as (face, base character, atoms) and cut to
    its first d^+ atoms, so a one-atom chain is just its Cov start.  Left
    mutation moves every non-pivot atom to its successor on a chain, right
    mutation to its predecessor.
    """

    def __init__(self, rep: QSRep, crossing: WallCrossing, ctx: Context):
        if not rep.root_datum.is_torus:
            raise InputError("stepwise mutation is implemented for torus actions only")
        if len(crossing.faces) != 1:
            raise InternalInconsistencyError("a toric wall must carry exactly one face")
        self.crossing = crossing
        self.face = next(iter(crossing.faces.values()))
        if self.face.d_plus < 2:
            raise InputError(
                "mutation around a wall face with a single positive weight is "
                "undefined (the representation is not generic)")
        self.dual_face = dagger(rep, self.face, ctx)
        self.faces = {self.face.key: self.face, self.dual_face.key: self.dual_face}
        self.pivot_chars = set(crossing.common)
        self.chains = []
        for chi in crossing.chars_by_face[self.face.key]:
            back = tuple(linalg.add(chi, self.face.beta_plus))
            for fd, base in ((self.face, chi), (self.dual_face, back)):
                end = Cov(tuple(linalg.add(base, fd.beta_plus)))
                kers = tuple(Ker(fd.key, base, i) for i in range(1, fd.d_plus - 1))
                self.chains.append((fd, base, ((Cov(base),) + kers + (end,))[:fd.d_plus]))
        self._successor = {a: b for _, _, atoms in self.chains for a, b in zip(atoms, atoms[1:])}
        self._predecessor = {b: a for a, b in self._successor.items()}

    def pivot(self) -> ModuleSpec:
        return ModuleSpec.of_window(self.pivot_chars)

    def mutate(self, spec: ModuleSpec, direction: str = "left") -> ModuleSpec:
        moves = self._successor if direction == "left" else self._predecessor
        moved = {}
        for atom, mult in spec.atoms:
            if not (isinstance(atom, Cov) and atom.chi in self.pivot_chars):
                if atom not in moves:
                    raise InputError(f"atom {atom} is not attached to this wall")
                atom = moves[atom]
            moved[atom] = mult
        # No two atoms of a spec land on one atom, so nothing is re-tallied:
        # pivots stay fixed, each chain atom has one successor and one
        # predecessor, and chains meet only at Cov ends that belong to
        # different outgoing characters.
        return ModuleSpec.from_counter(moved)

    def walk(self, spec: ModuleSpec, steps: int, direction: str = "left") -> list[ModuleSpec]:
        """``spec`` followed by each of its ``steps`` images under ``mutate``."""
        trace = [spec]
        for _ in range(steps):
            trace.append(self.mutate(trace[-1], direction))
        return trace

    @property
    def period(self) -> int:
        return self.face.d_plus + self.dual_face.d_plus - 2


def toric_wall(rep: QSRep, delta, delta_prime, ctx: Context) -> ToricWall:
    return ToricWall(rep, wall_crossing(rep, delta, delta_prime, ctx), ctx)


def per_face_counts(rep: QSRep, crossing: WallCrossing) -> dict:
    """The exchange count d_F^+ + l(w0) - 1 of every wall face."""
    return {key: top_degree(rep, fd) - 1 for key, fd in crossing.faces.items()}


def virtual_class(spec: ModuleSpec, rep: QSRep, faces: dict) -> dict:
    """Split class of a spec as a weight -> integer map.

    Kernel atoms expand through the telescoping alternating sum of the
    Koszul terms below them; covariant atoms are basis elements.  Additive
    over multiset union by construction.
    """
    out: Counter = Counter()
    for atom, mult in spec.atoms:
        for wt, c in atom_class(atom, rep, faces).items():
            out[wt] += mult * c
    return {w: c for w, c in out.items() if c}


def atom_class(atom: Atom, rep: QSRep, faces: dict) -> dict:
    if isinstance(atom, Cov):
        return {atom.chi: 1}
    if atom.face_key not in faces:
        raise InputError("kernel atom classes need the owning face data")
    fd = faces[atom.face_key]
    out: Counter = Counter()
    for j in range(atom.step + 1):
        sign = -1 if (atom.step - j) % 2 else 1
        for wt, mult in koszul_degree_term(rep, fd, atom.chi, j).items():
            out[wt] += sign * mult
    return {w: c for w, c in out.items() if c}


def atom_rank(atom: Atom, rep: QSRep, faces: dict) -> int:
    return sum(atom_class(atom, rep, faces).values())


def kernel_rank_formula(d: int, i: int) -> int:
    """Rank of the i-th kernel in an exact Koszul complex on d letters."""
    return comb(d - 1, i)
