"""The chamber groupoid: labeled crossing arrows, translation arrows,
positivity and minimality of paths, rank-one normal forms, and mutation
transcripts.

All points and labels live in invariant coordinates; chamber identity is the
sign vector from the arrangement.  ``make_path`` records each arrow's step:
the chambers of its two ends and, for a crossing, the walls between them and
the chambers of its hops, cut once from those walls.  Nothing below cuts a
segment or locates a point again: positivity, minimality and rank-one words
read the recorded walls, and both transcripts read each recorded hop as a
chamber pair through ``Context.pair``, which crosses a pair once and checks
every hop's own wall point and direction against it.  Word
reduction is implemented only in rank one, where the groupoid is free on
single-wall crossings and translations commute to the end of the word.
``path_of_word`` is the one way from a rank-one word to a path, for the
CLI's path DSL, the reduced path and the Calabi-Yau crossings: it builds
each letter as one crossing that ends ``Arrangement.across`` its wall, half
the least wall gap past it, so it crosses that wall alone however the wall
families interleave.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import linalg
from .arrangement import Arrangement, Chamber, Wall
from .errors import InputError, InternalInconsistencyError, UnsupportedDimensionError, _fmt
from .linalg import Vec
from .mutation import per_face_counts
from .rep import QSRep
from .windows import Context, mu_map


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


@dataclass(frozen=True, slots=True)
class Step:
    """One arrow as ``make_path`` walked it: the chambers of its two ends, each
    with that end as sample, and for a crossing the walls separating them and
    ``hops``, the chambers its segment passes through from ``here`` to
    ``there``, each pair of neighbours adjacent."""

    here: Chamber
    there: Chamber
    walls: tuple[Wall, ...] = ()
    hops: tuple[Chamber, ...] = ()


@dataclass(frozen=True)
class Path:
    """Arrows from ``start``, with the chamber of ``start`` and one ``Step`` per arrow."""

    arrows: tuple[Arrow, ...]
    start: Vec
    origin: Chamber = field(compare=False, repr=False)
    steps: tuple[Step, ...] = field(compare=False, repr=False)

    @property
    def chambers(self) -> tuple[Chamber, ...]:
        """The chambers of the start and of the point after each arrow."""
        return (self.origin, *(s.there for s in self.steps))


def make_path(arr: Arrangement, arrows, start=None) -> Path:
    """Validate composability at every junction and label genericity,
    locating the start and the point after each arrow once, and a
    crossing's start again only when it is not the point before it."""
    arrows = tuple(arrows)
    if start is None:
        if not arrows or not isinstance(arrows[0], Cross):
            raise InputError("a path starting with a translation needs an explicit start")
        start = arrows[0].src
    origin = here = arr.chamber_of(start)
    steps = []
    for a in arrows:
        if isinstance(a, Cross):
            src_chamber = here if a.src == here.sample else arr.chamber_of(a.src)
            if src_chamber != here:
                raise InputError(f"arrow {_fmt(a.src)}->{_fmt(a.dst)} does not start "
                                 f"in the current chamber")
            here = src_chamber
            if not arr.is_generic_label(a.label):
                raise InputError(f"arrow label {_fmt(a.label)} is not generic")
            there = arr.chamber_of(a.dst)
            walls = tuple(arr.separating_walls(here, there))
            steps.append(Step(here, there, walls, _hop_chambers(arr, here, there, walls)))
        else:
            there = arr.chamber_of(linalg.add(here.sample, linalg.vec(a.m)))
            steps.append(Step(here, there))
        here = there
    return Path(arrows=arrows, start=origin.sample, origin=origin, steps=tuple(steps))


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
    crossings = [s.walls for s in path.steps]
    if not path.steps or not all(isinstance(a, Cross) and arrow_is_positive(arr, a, walls)
                                 for a, walls in zip(path.arrows, crossings)):
        raise InputError("minimality is defined for positive paths only")
    total = arr.separating_walls(path.steps[0].here, path.steps[-1].there)
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
        raise InternalInconsistencyError(
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
    for a, step in zip(path.arrows, path.steps):
        if isinstance(a, Translate):
            shift += a.m[0]
            continue
        direction = 1 if a.dst[0] > a.src[0] else -1
        positions = sorted((w.num * arr._wall_keys[w.family_index][1]
                            for w in step.walls), reverse=direction < 0)
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


def path_of_word(arr: Arrangement, word, start=None) -> Path:
    """The rank-one path of a word of letters (p, q, d) and ``Translate``s.
    A letter crosses the wall at p/q, q > 0, in direction d = +1 or -1, from
    the current point to ``Arrangement.across`` that wall; a translation
    moves the current point.  With no start the path starts across the
    first letter's wall before it.  A letter whose step does not cross
    exactly its own wall is refused."""
    if start is None and word and not isinstance(word[0], Translate):
        start = arr.across(word[0][0], word[0][1], -word[0][2])
    arrows, point = [], start
    for letter in word:
        if isinstance(letter, Translate):
            # with no start a leading translation has no point: make_path refuses it
            arrow, point = letter, point and linalg.add(point, letter.m)
        else:
            arrow = Cross(point, arr.across(*letter), (Fraction(letter[2]),))
            point = arrow.dst
        arrows.append(arrow)
    path = make_path(arr, arrows, start=start)
    for letter, a, step in zip(word, arrows, path.steps):
        if isinstance(a, Cross) and (len(step.walls) != 1
                                     or step.walls[0].num * letter[1]
                                     != letter[0] * step.walls[0].scale):
            o, sign = Fraction(letter[0], letter[1]), "+" if letter[2] > 0 else "-"
            raise InputError(f"x({o},{sign}) does not cross the wall at {o} from {a.src[0]}")
    return path


def reduce_rank1(arr: Arrangement, path: Path) -> Path:
    """Unique normal form: freely reduced adjacent crossings, then one
    translation.  The first crossing starts at the path's start, and each
    ends ``Arrangement.across`` its wall, half the least wall gap past it,
    where the next one starts."""
    letters, shift, scale = _letters(arr, path)
    word = [(pos, scale, d) for pos, d in _freely_reduce(letters)]
    return path_of_word(arr, word + [Translate((shift,))] if shift else word, start=path.start)


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


def _hop_chambers(arr: Arrangement, here: Chamber, there: Chamber, walls) -> tuple[Chamber, ...]:
    """The chambers the segment from here's sample to there's passes through,
    in order: one inner chamber between each two consecutive walls, located
    at the mean of their crossing times."""
    if not walls:
        return (here,)
    # the times p/q over one positive denominator, as integers
    times = arr.crossing_times(here, there, walls)
    den = lcm(*(q for _, q in times))
    keys = sorted(p * (den // q) for p, q in times)
    if len(set(keys)) != len(keys):
        raise InputError("segment passes through a wall intersection; perturb the endpoints")
    inner = (arr._chamber(*arr._on_segment(here, there, s + t, 2 * den))
             for s, t in zip(keys, keys[1:]))
    return (here, *inner, there)


def split_into_hops(arr: Arrangement, a: Cross) -> list[Cross]:
    """Cut a crossing arrow into adjacent hops along its segment."""
    here, there = map(arr.chamber_of, (a.src, a.dst))
    hops = _hop_chambers(arr, here, there, arr.separating_walls(here, there))
    return [Cross(h.sample, t.sample, a.label) for h, t in zip(hops, hops[1:])]


def mutation_transcript(rep: QSRep, path: Path, ctx: Context) -> list[TranscriptEntry]:
    """One entry per adjacent crossing (its pivot window and step count) and
    one per translation (the window shift)."""
    entries = []
    for a, step in zip(path.arrows, path.steps):
        if isinstance(a, Translate):
            entries.append(TranscriptEntry(kind="shift", shift=tuple(a.m)))
            continue
        if not arrow_is_positive(ctx.arrangement, a, step.walls):
            raise InputError("transcripts are defined for positive crossings")
        for here, there in zip(step.hops, step.hops[1:]):
            pair = ctx.pair(here, there)
            counts = per_face_counts(rep, pair)
            toric_steps = None
            if rep.root_datum.is_torus:
                (toric_steps,) = counts.values()
            entries.append(TranscriptEntry(
                kind="cross", src=here.sample, dst=there.sample, pivot_chars=pair.common,
                step_count=toric_steps, per_face_counts=counts))
    return entries


def transcript_window_map(rep: QSRep, path: Path, ctx: Context) -> dict:
    """Compose the per-hop bijections and shifts from C_start to C_end."""
    arr = ctx.arrangement
    mapping = {chi: chi for chi in ctx.window(path.origin).chars}
    for a, step in zip(path.arrows, path.steps):
        if isinstance(a, Translate):
            shift = arr.character(a.m)
            mapping = {src: tuple(linalg.add(dst, shift)) for src, dst in mapping.items()}
            continue
        for here, there in zip(step.hops, step.hops[1:]):
            pair = ctx.pair(here, there)
            bijection = dict(zip(pair.common, pair.common))
            bijection.update(mu_map(rep, pair))
            try:
                mapping = {src: bijection[dst] for src, dst in mapping.items()}
            except KeyError as exc:
                lost, near = _fmt(exc.args[0]), _fmt(arr.to_ambient(here))
                raise InternalInconsistencyError(
                    f"hops do not chain: {lost} is not in the window at {near}") from None
    end_window = set(ctx.window(path.chambers[-1]).chars)
    image = set(mapping.values())
    if image != end_window or len(image) != len(mapping):
        raise InputError("transcript composition failed to match the target window")
    return mapping
