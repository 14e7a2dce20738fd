"""Formal module bookkeeping: covariant atoms, kernel atoms, left/right
mutation around a wall (torus case), periodicity, and split virtual classes.

Atoms are purely formal.  ``Cov(chi)`` stands for the module of covariants of
a dominant character; ``Ker(face, chi, i)`` for the i-th kernel in the exact
complex attached to a wall face, with the canonical rewrites Ker(F,chi,0) ->
Cov(chi) and Ker(F,chi,d-1) -> Cov(chi+beta_F^+) applied on construction.
Exchanges are summand bookkeeping, never honest module maps; equality of
specs is canonical-multiset equality.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from . import linalg
from .complexes import koszul_degree_term, top_degree
from .errors import InputError, InternalInconsistencyError
from .rep import QSRep
from .root_data import Weight
from .windows import Context, WallCrossing, wall_crossing

FaceKey = tuple


@dataclass(frozen=True)
class Cov:
    chi: Weight

    def __repr__(self):
        return f"Cov{self.chi}"


@dataclass(frozen=True)
class Ker:
    face_key: FaceKey
    chi: Weight
    step: int

    def __repr__(self):
        return f"Ker({self.face_key},{self.chi},{self.step})"


Atom = Cov | Ker


def canonical_atom(atom: Atom, faces: dict) -> Atom:
    """Apply the endpoint rewrites forced by the exact complexes."""
    if isinstance(atom, Cov):
        return atom
    fd = faces.get(atom.face_key)
    if fd is None:
        raise InputError(f"kernel atom references unknown face {atom.face_key}")
    if atom.step < 0 or atom.step > fd.d_plus - 1:
        raise InputError(f"kernel step {atom.step} outside 0..{fd.d_plus - 1}")
    if atom.step == 0:
        return Cov(atom.chi)
    if atom.step == fd.d_plus - 1:
        return Cov(tuple(linalg.add(atom.chi, fd.beta_plus)))
    return atom


@dataclass(frozen=True)
class ModuleSpec:
    atoms: tuple[tuple[Atom, int], ...]

    @classmethod
    def from_counter(cls, tally: Counter) -> "ModuleSpec":
        items = tuple(sorted(((a, m) for a, m in tally.items() if m),
                             key=lambda am: (repr(am[0]), am[1])))
        return cls(atoms=items)

    @classmethod
    def of_window(cls, chars) -> "ModuleSpec":
        return cls.from_counter(Counter(Cov(tuple(c)) for c in chars))

    def support(self) -> set[Atom]:
        return {a for a, _ in self.atoms}

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


@dataclass(frozen=True)
class MutationStep:
    direction: str
    face_key: FaceKey | None
    spec: ModuleSpec


@dataclass(frozen=True)
class MutationWord:
    pivot: ModuleSpec
    steps: tuple[MutationStep, ...]
    total: int
    executable: bool
    per_face_counts: dict

    def to_json(self) -> dict:
        return {
            "pivot": self.pivot.to_json(),
            "total": self.total,
            "executable": self.executable,
            "per_face_counts": {str(list(k)): v for k, v in sorted(self.per_face_counts.items())},
            "steps": [
                {"direction": s.direction,
                 "face": None if s.face_key is None else list(s.face_key),
                 "spec": s.spec.to_json()}
                for s in self.steps
            ],
        }


class ToricWall:
    """Mutation context for one adjacent toric pair.

    Holds the unique wall face F, its dual F*, and the pivot; left mutation
    advances every non-pivot atom one kernel step along the cycle of length
    d_F^+ + d_F*^+ - 2, right mutation retreats one step.
    """

    def __init__(self, rep: QSRep, crossing: WallCrossing, ctx: Context):
        if not rep.root_datum.is_torus:
            raise InputError("stepwise mutation is implemented for torus actions only")
        if len(crossing.faces) != 1:
            raise InternalInconsistencyError("a toric wall must carry exactly one face")
        from .windows import dagger
        self.rep = rep
        self.crossing = crossing
        self.face = next(iter(crossing.faces.values()))
        if self.face.d_plus < 2:
            raise InputError(
                "mutation around a wall face with a single positive weight is "
                "undefined (the representation is not generic)")
        self.dual_face = dagger(rep, self.face, ctx)
        self.faces = {self.face.key: self.face, self.dual_face.key: self.dual_face}
        self.pivot_chars = set(crossing.common)
        self.out_forward = set(crossing.chars_by_face[self.face.key])
        self.out_backward = {tuple(linalg.add(c, self.face.beta_plus)) for c in self.out_forward}

    def pivot(self) -> ModuleSpec:
        return ModuleSpec.of_window(sorted(self.pivot_chars))

    def _advance(self, atom: Atom) -> Atom:
        if isinstance(atom, Ker):
            return canonical_atom(Ker(atom.face_key, atom.chi, atom.step + 1), self.faces)
        chi = atom.chi
        if chi in self.pivot_chars:
            return atom
        if chi in self.out_forward:
            return canonical_atom(Ker(self.face.key, chi, 1), self.faces)
        if chi in self.out_backward:
            return canonical_atom(Ker(self.dual_face.key, chi, 1), self.faces)
        raise InputError(f"atom {atom} is not attached to this wall")

    def _retreat(self, atom: Atom) -> Atom:
        if isinstance(atom, Ker):
            return canonical_atom(Ker(atom.face_key, atom.chi, atom.step - 1), self.faces)
        chi = atom.chi
        if chi in self.pivot_chars:
            return atom
        if chi in self.out_forward:
            back = tuple(linalg.add(chi, self.face.beta_plus))
            return canonical_atom(
                Ker(self.dual_face.key, back, self.dual_face.d_plus - 2), self.faces)
        if chi in self.out_backward:
            fwd = tuple(linalg.sub(chi, self.face.beta_plus))
            return canonical_atom(Ker(self.face.key, fwd, self.face.d_plus - 2), self.faces)
        raise InputError(f"atom {atom} is not attached to this wall")

    def mutate(self, spec: ModuleSpec, direction: str = "left") -> ModuleSpec:
        mover = self._advance if direction == "left" else self._retreat
        tally: Counter = Counter()
        for atom, mult in spec.atoms:
            tally[mover(atom)] += mult
        return ModuleSpec.from_counter(tally)

    @property
    def period(self) -> int:
        return self.face.d_plus + self.dual_face.d_plus - 2


def toric_wall(rep: QSRep, delta, delta_prime, ctx: Context) -> ToricWall:
    return ToricWall(rep, wall_crossing(rep, delta, delta_prime, ctx), ctx)


def per_face_counts(rep: QSRep, crossing: WallCrossing) -> dict:
    """The exchange count d_F^+ + l(w0) - 1 of every wall face."""
    return {key: top_degree(rep, fd) - 1 for key, fd in crossing.faces.items()}


def mutation_word(rep: QSRep, delta, delta_prime, ctx: Context) -> MutationWord:
    """The word taking the near window module to the far one.

    Toric: executable, one step per kernel position (d_F^+ - 1 in total).
    Nonabelian: exchange counts per face only; intermediate kernels are not
    additive in known atoms, so no steps are produced.
    """
    crossing = wall_crossing(rep, delta, delta_prime, ctx)
    counts = per_face_counts(rep, crossing)
    if not rep.root_datum.is_torus:
        return MutationWord(
            pivot=ModuleSpec.of_window(crossing.common),
            steps=(), total=max(counts.values(), default=0), executable=False,
            per_face_counts=counts,
        )
    wall = ToricWall(rep, crossing, ctx)
    spec = module_of_window(rep, delta, ctx)
    steps = []
    for _ in range(wall.face.d_plus - 1):
        spec = wall.mutate(spec, "left")
        steps.append(MutationStep(direction="left", face_key=wall.face.key, spec=spec))
    expected = module_of_window(rep, delta_prime, ctx)
    if steps and steps[-1].spec != expected:
        raise InternalInconsistencyError("mutation word did not land on the far window module")
    return MutationWord(
        pivot=wall.pivot(), steps=tuple(steps), total=wall.face.d_plus - 1,
        executable=True, per_face_counts=counts,
    )


@dataclass(frozen=True)
class ExchangeData:
    count: int
    l_set: tuple[Weight, ...]
    n_set: tuple[Weight, ...]


def exchange_count(rep: QSRep, delta, delta_prime, ctx: Context) -> dict:
    """Per wall face: the exchange count d_F^+ + l(w0) - 1 with its (L, N)."""
    from .complexes import summand_sets
    crossing = wall_crossing(rep, delta, delta_prime, ctx)
    counts = per_face_counts(rep, crossing)
    return {key: ExchangeData(counts[key], *summand_sets(rep, crossing, fd, ctx))
            for key, fd in sorted(crossing.faces.items())}


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
