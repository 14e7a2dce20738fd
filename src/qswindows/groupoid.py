"""The chamber groupoid: labeled crossing arrows, translation arrows,
positivity and minimality of paths, rank-one normal forms, and mutation
transcripts.

All points and labels live in invariant coordinates; chamber identity is the
sign vector from the arrangement.  A path carries the chambers ``make_path``
located (its start and the point after each arrow), and the functions below
read them instead of locating again.  Word reduction is implemented only in
rank one, where the groupoid is free on single-wall crossings and
translations commute to the end of the word.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import linalg
from .arrangement import Arrangement, Chamber
from .errors import InputError, UnsupportedDimensionError, _fmt
from .linalg import Vec
from .mutation import per_face_counts
from .rep import QSRep
from .windows import Context, mu_map, wall_crossing


@dataclass(frozen=True)
class Cross:
    src: Vec
    dst: Vec
    label: Vec

    def __repr__(self):
        return f"Cross({self.src}->{self.dst}, l={self.label})"


@dataclass(frozen=True)
class Translate:
    m: tuple[int, ...]

    def __repr__(self):
        return f"Translate({self.m})"


Arrow = Cross | Translate


@dataclass(frozen=True)
class Path:
    """Arrows from ``start``, with the chambers ``make_path`` located."""

    arrows: tuple[Arrow, ...]
    start: Vec
    chambers: tuple[Chamber, ...] = field(compare=False, repr=False)

    @property
    def end(self) -> Vec:
        return self.chambers[-1].sample

    def located(self, arr: Arrangement):
        """Each arrow with the chambers of its two ends.  A crossing that
        does not start at the point before it has its start located here."""
        for a, here, there in zip(self.arrows, self.chambers, self.chambers[1:]):
            if isinstance(a, Cross) and a.src != here.sample:
                here = arr.chamber_of(a.src)
            yield a, here, there


def make_path(arr: Arrangement, arrows, start=None) -> Path:
    """Validate composability at every junction and label genericity,
    locating the start and the point after each arrow once."""
    arrows = tuple(arrows)
    if start is None:
        if not arrows or not isinstance(arrows[0], Cross):
            raise InputError("a path starting with a translation needs an explicit start")
        start = arrows[0].src
    here = arr.chamber_of(start)
    chambers = [here]
    for a in arrows:
        if isinstance(a, Cross):
            if a.src != here.sample and arr.chamber_of(a.src) != here:
                raise InputError(f"arrow {_fmt(a.src)}->{_fmt(a.dst)} does not start "
                                 f"in the current chamber")
            if not arr.is_generic_label(a.label):
                raise InputError(f"arrow label {_fmt(a.label)} is not generic")
            here = arr.chamber_of(a.dst)
        else:
            here = arr.chamber_of(linalg.add(here.sample, linalg.vec(a.m)))
        chambers.append(here)
    return Path(arrows=arrows, start=chambers[0].sample, chambers=tuple(chambers))


def arrow_is_positive(arr: Arrangement, a: Cross, walls) -> bool:
    """Distinct chambers and the label oriented like dst - src on every
    separating wall; ``walls`` are the walls separating the arrow's ends."""
    moves = arr.orientations(linalg.sub(a.dst, a.src), walls)
    # no separating wall means one chamber
    return bool(walls) and all(ell != 0 and ell == move
                               for ell, move in zip(arr.orientations(a.label, walls), moves))


def is_minimal(arr: Arrangement, path: Path) -> bool:
    """Evaluate the four minimality criteria and insist they agree.

    (1) distance additivity, (2) the separating set of the endpoints is the
    disjoint union of the per-arrow sets, (3) per-arrow sets are pairwise
    disjoint, (4) every label is oriented like the total displacement on its
    own separating walls.
    """
    located = list(path.located(arr))
    crossings = [arr.separating_walls(here, there) for _, here, there in located]
    if not located or not all(isinstance(a, Cross) and arrow_is_positive(arr, a, walls)
                              for (a, _, _), walls in zip(located, crossings)):
        raise InputError("minimality is defined for positive paths only")
    total = arr.separating_walls(located[0][1], located[-1][2])
    additive = len(total) == sum(len(c) for c in crossings)
    union = set().union(*map(set, crossings)) if crossings else set()
    disjoint_union = (set(total) == union
                      and sum(len(c) for c in crossings) == len(union))
    pairwise = all(
        not (set(crossings[i]) & set(crossings[j]))
        for i in range(len(crossings)) for j in range(i + 1, len(crossings))
    )
    displacement = linalg.sub(path.arrows[-1].dst, path.arrows[0].src)
    oriented = all(shift != 0 and ell == shift
                   for a, crossed in zip(path.arrows, crossings)
                   for ell, shift in zip(arr.orientations(a.label, crossed),
                                         arr.orientations(displacement, crossed)))
    votes = {additive, disjoint_union, pairwise, oriented}
    if len(votes) != 1:
        raise InputError(
            f"minimality criteria disagree: {additive}, {disjoint_union}, {pairwise}, {oriented}")
    return additive


# -- rank-one normal form ------------------------------------------------------


def _letters(arr: Arrangement, path: Path) -> tuple[list[tuple[int, int]], int, int]:
    """Crossing letters (wall position, direction) with translations pushed
    to the end, and the net translation; only valid in rank one.  Every
    rank-one wall normal is (1,), so a wall position is a coordinate, and it
    is kept as an integer numerator over the common scale, also returned."""
    if arr.dim != 1:
        raise UnsupportedDimensionError("word reduction is implemented in rank one only")
    scale = arr.families[0].scale * arr._wall_keys[0][1]
    letters: list[tuple[int, int]] = []
    shift = 0
    for a, here, there in path.located(arr):
        if isinstance(a, Translate):
            shift += a.m[0]
            continue
        direction = 1 if a.dst[0] > a.src[0] else -1
        positions = sorted((w.num * arr._wall_keys[w.family_index][1]
                            for w in arr.separating_walls(here, there)), reverse=direction < 0)
        letters += [(pos - shift * scale, direction) for pos in positions]
    return letters, shift, scale


def _freely_reduce(letters: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for letter in letters:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return out


def reduce_rank1(arr: Arrangement, path: Path) -> Path:
    """Unique normal form: freely reduced adjacent crossings, then one
    translation.  Rebuilt samples sit at chamber midpoints (rank-one wall
    normals are always the covector (1,), so values are coordinates)."""
    letters, shift, scale = _letters(arr, path)
    arrows: list[Arrow] = []
    point = path.start
    # the first family's step over the common scale
    step = arr.families[0].step_num * arr._wall_keys[0][1]
    for pos, direction in _freely_reduce(letters):
        dst = (Fraction(2 * pos + direction * step, 2 * scale),)
        arrows.append(Cross(point, dst, (Fraction(direction),)))
        point = dst
    if shift != 0:
        arrows.append(Translate((shift,)))
    return make_path(arr, arrows, start=path.start)


def normal_form_word(arr: Arrangement, path: Path):
    """(freely reduced letters, net translation) identifying the morphism."""
    letters, shift, scale = _letters(arr, path)
    return tuple((Fraction(pos, scale), d) for pos, d in _freely_reduce(letters)), Fraction(shift)


# -- transcripts ----------------------------------------------------------------


@dataclass(frozen=True)
class TranscriptEntry:
    kind: str
    src: Vec | None = None
    dst: Vec | None = None
    pivot_chars: tuple | None = None
    step_count: int | None = None
    per_face_counts: dict | None = None
    shift: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        if self.kind == "shift":
            return {"kind": "shift", "m": list(self.shift)}
        return {
            "kind": "cross",
            "src": [str(x) for x in self.src],
            "dst": [str(x) for x in self.dst],
            "pivot_size": len(self.pivot_chars),
            "step_count": self.step_count,
            "per_face_counts": {str(list(k)): v for k, v in sorted(self.per_face_counts.items())},
        }


def split_into_hops(arr: Arrangement, a: Cross, chambers=None) -> list[Cross]:
    """Cut a crossing arrow into adjacent hops along its segment;
    ``chambers`` are the ends' chambers, if located."""
    ends = chambers or (a.src, a.dst)
    walls = arr.separating_walls(*ends)
    if not walls:
        return []
    # the times p/q over one positive denominator, as integers
    times = arr.crossing_times(*ends, walls)
    den = lcm(*(q for _, q in times))
    keys = sorted(p * (den // q) for p, q in times)
    if len(set(keys)) != len(keys):
        raise InputError(
            "segment passes through a wall intersection; perturb the endpoints")
    # a cut point at the mean (s + t) / (2 den) of two consecutive times
    mids = (arr._on_segment(*ends, s + t, 2 * den) for s, t in zip(keys, keys[1:]))
    cut_points = [a.src, *(tuple(Fraction(n, d) for n in nums) for nums, d in mids), a.dst]
    return [Cross(src, dst, a.label) for src, dst in zip(cut_points, cut_points[1:])]


def _hop_crossings(rep: QSRep, ctx: Context, a: Cross, chambers: tuple[Chamber, Chamber]):
    """(hop, its wall crossing) for each hop of an arrow with these end chambers."""
    arr = ctx.arrangement
    hops = split_into_hops(arr, a, chambers)
    # each inner cut point is located once; a hop's chambers are its endpoints'
    located = [chambers[0], *(arr.chamber_of(hop.dst) for hop in hops[:-1]), chambers[1]]
    for hop, here, there in zip(hops, located, located[1:]):
        yield hop, wall_crossing(rep, here, there, ctx)


def mutation_transcript(rep: QSRep, path: Path, ctx: Context) -> list[TranscriptEntry]:
    """One entry per adjacent crossing (its pivot window and step count) and
    one per translation (the window shift)."""
    arr = ctx.arrangement
    entries = []
    for a, here, there in path.located(arr):
        if isinstance(a, Translate):
            entries.append(TranscriptEntry(kind="shift", shift=tuple(a.m)))
            continue
        if not arrow_is_positive(arr, a, arr.separating_walls(here, there)):
            raise InputError("transcripts are defined for positive crossings")
        for hop, crossing in _hop_crossings(rep, ctx, a, (here, there)):
            counts = per_face_counts(rep, crossing)
            toric_steps = None
            if rep.root_datum.is_torus:
                (toric_steps,) = counts.values()
            entries.append(TranscriptEntry(
                kind="cross", src=hop.src, dst=hop.dst,
                pivot_chars=crossing.common, step_count=toric_steps,
                per_face_counts=counts,
            ))
    return entries


def transcript_window_map(rep: QSRep, path: Path, ctx: Context) -> dict:
    """Compose the per-hop bijections and shifts from C_start to C_end."""
    arr = ctx.arrangement
    mapping = {chi: chi for chi in ctx.window(path.chambers[0]).chars}
    for a, here, there in path.located(arr):
        if isinstance(a, Translate):
            shift = tuple(int(x) for x in arr.to_ambient(a.m))
            mapping = {src: tuple(linalg.add(dst, shift)) for src, dst in mapping.items()}
            continue
        for _, crossing in _hop_crossings(rep, ctx, a, (here, there)):
            step = dict(zip(crossing.window.chars, crossing.window.chars))
            step.update(mu_map(rep, crossing))
            mapping = {src: step[dst] for src, dst in mapping.items()}
    end_window = set(ctx.window(path.chambers[-1]).chars)
    image = set(mapping.values())
    if image != end_window or len(image) != len(mapping):
        raise InputError("transcript composition failed to match the target window")
    return mapping
