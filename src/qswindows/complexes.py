"""Character-level terms of the face complexes.

For a dominant face F and dominant character chi, each index subset S of the
positive weight indices of F contributes the dominant representative of
chi + sum(S) in degree |S| + l(w); singular shifts contribute nothing.  In
the torus case this is exactly the Koszul term table.  For nonabelian Weyl
groups the table is additive-closure and Euler-characteristic correct; exact
intermediate multiplicities are not determined at the character level, which
the ``exact`` flag records.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import linalg
from .errors import InputError, InternalInconsistencyError, _fmt, _require_length
from .rep import QSRep
from .root_data import Weight, _lattice_weight
from .windows import Context, FaceData, WallCrossing


@dataclass(frozen=True)
class ComplexTerms:
    face_key: tuple[int, ...]
    chi: Weight
    terms: dict
    singular_dropped: int
    exact: bool

    @property
    def degrees(self) -> list[int]:
        return sorted(d for d, c in self.terms.items() if c)

    def euler_class(self) -> dict:
        """Alternating sum of the terms as a virtual character."""
        out: Counter = Counter()
        for d, tally in self.terms.items():
            sign = -1 if d % 2 else 1
            for wt, mult in tally.items():
                out[wt] += sign * mult
        return {w: c for w, c in out.items() if c}

    def to_json(self) -> dict:
        return {
            "degrees": {
                str(d): sorted([list(w) for w in self.terms[d].elements()])
                for d in self.degrees
            },
            "exact": self.exact,
            "singular_dropped": self.singular_dropped,
        }


def wedge_star(rep: QSRep, fd: FaceData) -> set[Weight]:
    """The distinct sums of the face's positive weights over the index
    subsets of sizes 1..d_F^+ - 1."""
    return {beta for sums in fd.subset_sums(rep)[1:fd.d_plus] for beta in sums}


def koszul_degree_term(rep: QSRep, fd: FaceData, chi, m: int) -> Counter:
    """Multiset of chi + (m-subset sums), counted with index multiplicity;
    empty outside degrees 0..d_F^+."""
    sums = fd.subset_sums(rep)[m] if 0 <= m <= fd.d_plus else ()
    return Counter(linalg.add(chi, beta) for beta in sums)


def top_degree(rep: QSRep, fd: FaceData) -> int:
    """d_F^+ + l(w0): the degree of the far endpoint of a face complex, and
    one more than the exchange count of the face.  w0 negates every
    positive root, so l(w0) is their number."""
    return fd.d_plus + len(rep.root_datum.positive_roots)


def complex_terms(rep: QSRep, fd: FaceData, chi) -> ComplexTerms:
    chi = _lattice_weight(chi)
    _require_length(chi, rep.rank, "entries")
    datum = rep.root_datum
    if not datum.is_dominant(chi):
        raise InputError(f"{_fmt(chi)} is not dominant")
    terms: dict[int, Counter] = {}
    dropped = 0
    for m, sums in enumerate(fd.subset_sums(rep)):
        for beta in sums:
            result = datum.dominant_representative(linalg.add(chi, beta))
            if result is None:
                dropped += 1
                continue
            terms.setdefault(m + result.length, Counter())[result.weight] += 1
    top = top_degree(rep, fd)
    if any(d < 0 or d > top for d in terms):
        raise InternalInconsistencyError("complex terms escaped their degree window")
    return ComplexTerms(
        face_key=fd.key,
        chi=chi,
        terms=terms,
        singular_dropped=dropped,
        exact=datum.is_torus,
    )


def summand_sets(rep: QSRep, crossing: WallCrossing, fd: FaceData,
                 ctx: Context | None = None) -> tuple[tuple[Weight, ...], tuple[Weight, ...]]:
    """The exchange pair (L, N) attached to one wall face.

    L collects the nonsingular dominant representatives of chi + beta over
    the outgoing characters of the face and the intermediate wedge sums; N is
    the rest of the window.
    """
    if fd.key not in crossing.faces:
        raise InputError("face does not occur in this wall crossing")
    datum = rep.root_datum
    chars = crossing.chars_by_face[fd.key]
    betas = wedge_star(rep, fd)
    l_set: set[Weight] = set()
    for chi in chars:
        for beta in betas:
            result = datum.dominant_representative(linalg.add(chi, beta))
            if result is not None:
                l_set.add(result.weight)
    n_set = tuple(sorted(set(crossing.window.chars) - set(chars)))
    return tuple(sorted(l_set)), n_set
