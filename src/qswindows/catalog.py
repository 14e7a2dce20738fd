"""Bundled example representations and deterministic random corpora.

The bundled set covers the rank-one tori with two and three weight pairs,
the GL(2) example with the cube of the defining representation plus its
dual, and the two Calabi-Yau models.  Random corpora are seeded and
reproducible; they only emit generic quasi-symmetric torus representations,
since the mutation statements need genericity.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import cy_ci, linalg
from .arrangement import Arrangement, Wall
from .errors import OnWallError
from .rep import QSRep, Ternary, check_generic, check_quasi_symmetric
from .root_data import RootDatum
from .windows import Context

GL2_WEIGHTS = ((3, 0), (2, 1), (1, 2), (0, 3), (-3, 0), (-2, -1), (-1, -2), (0, -3))


def torus_rep(*weights) -> QSRep:
    rank = len(weights[0])
    return QSRep.build(RootDatum.torus(rank), weights)


def bundled_reps() -> dict[str, QSRep]:
    return {
        "torus-1x2pairs": torus_rep((1,), (1,), (-1,), (-1,)),
        "torus-1x3pairs": torus_rep((1,), (1,), (1,), (-1,), (-1,), (-1,)),
        "gl2-cube-pair": QSRep.build(RootDatum.gl(2), GL2_WEIGHTS),
    }


def bundled_cy_models() -> dict[str, cy_ci.CYModel]:
    return {
        "quintic": cy_ci.build((1, 1, 1, 1, 1), (5,)),
        "cy-3-3": cy_ci.build((1, 1, 1, 1, 1, 1), (3, 3)),
    }


# -- random torus corpus ------------------------------------------------------


LINE_PATTERNS_RICH = (
    (1, -1),
    (1, 1, -1, -1),
    (1, 1, 1, -1, -1, -1),
    (2, -1, -1),
    (2, 1, -1, -2),
    (1, 2, -3),
    (3, -1, -2),
)
LINE_PATTERNS_SMALL = (
    (1, -1),
    (1, 1, -1, -1),
    (2, -1, -1),
)

# the most weights a random torus representation may have
_MAX_WEIGHTS = 12


def _random_direction(rng: random.Random, rank: int, spread: int):
    while True:
        v = tuple(rng.randint(-spread, spread) for _ in range(rank))
        if not linalg.is_zero(v):
            return linalg.primitive(v)


def random_torus_rep(rng: random.Random, rank: int) -> QSRep:
    """A random generic quasi-symmetric torus representation.

    Every line through the origin carries a zero-sum multiset of multiples
    of its direction; retries until the weights span, generate the lattice,
    and pass the genericity test (checked before the window polytope is
    built, which is the expensive part).
    """
    datum = RootDatum.torus(rank)
    patterns = LINE_PATTERNS_RICH if rank == 1 else LINE_PATTERNS_SMALL
    spread = 2 if rank <= 2 else 1
    for _ in range(1000):
        weights: list = []
        n_lines = rng.randint(rank, rank + (2 if rank <= 2 else 1))
        seen = set()
        for _ in range(n_lines):
            v = _random_direction(rng, rank, spread)
            key = linalg.sign_normalized(v)
            if key in seen:
                continue
            seen.add(key)
            for c in rng.choice(patterns):
                weights.append(linalg.scale(c, v))
        weights = [tuple(int(x) for x in w) for w in weights]
        if not weights or len(weights) > _MAX_WEIGHTS:
            continue
        if linalg.rank(weights) < rank:
            continue
        if not check_quasi_symmetric(weights):
            continue
        if check_generic(datum, weights) is not Ternary.YES:
            continue
        return QSRep.build(datum, weights)
    raise RuntimeError("failed to sample a generic quasi-symmetric representation")


def random_corpus(seed: int, counts: dict[int, int] | None = None) -> list[QSRep]:
    """Deterministic corpus; counts maps rank -> number of reps."""
    counts = counts or {1: 120, 2: 60, 3: 30}
    rng = random.Random(seed)
    out = []
    for rank in sorted(counts):
        for _ in range(counts[rank]):
            out.append(random_torus_rep(rng, rank))
    return out


# -- adjacent-pair sampling ----------------------------------------------------


def _wall_samples(arr: Arrangement, wall: Wall, periods: int, grid: Fraction,
                  limit: int):
    """Rational points on one wall inside the box, off every other wall."""
    nrm = arr.families[wall.family_index].normal
    norm_sq = linalg.dot(nrm, nrm)
    base_point = linalg.scale(wall.offset / norm_sq, nrm)
    if arr.dim == 1:
        return [base_point] if arr.walls_at(base_point) == [wall] else []
    vectors, den = linalg.kernel_basis([list(nrm)])
    directions = [linalg._fractions(b, den) for b in vectors]
    ticks = int(periods / grid)
    offsets = [grid * k + grid / 7 for k in range(-ticks, ticks + 1)]
    out = []
    for combo in itertools.product(offsets, repeat=len(directions)):
        pt = base_point
        for c, d in zip(combo, directions):
            pt = linalg.add(pt, linalg.scale(c, d))
        if arr.walls_at(pt) == [wall]:
            out.append(pt)
        if len(out) >= limit:
            break
    return out


def adjacent_pairs(ctx: Context, periods: int = 2, per_wall: int = 3,
                   max_pairs: int | None = None):
    """Sampled adjacent ordered pairs (delta, delta_prime) with their exact
    midpoint on each wall of the box; deduplicated by chamber pair.

    Rank one is exhaustive within the box; higher ranks sample a grid on
    each wall.
    """
    arr = ctx.arrangement
    pairs = []
    seen = set()
    grid = Fraction(1, 4)
    for wall in arr.walls_in_box(periods):
        f = arr.families[wall.family_index]
        for x in _wall_samples(arr, wall, periods, grid, per_wall):
            h = f.offset_step / (2 * linalg.dot(f.normal, f.normal))
            for _ in range(12):
                lo = linalg.sub(x, linalg.scale(h, f.normal))
                hi = linalg.add(x, linalg.scale(h, f.normal))
                try:
                    ends = arr.chamber_of(lo), arr.chamber_of(hi)
                except OnWallError:
                    h /= 2
                    continue
                if arr.separating_walls(*ends) == [wall]:
                    break
                h /= 2
            else:
                continue
            key = tuple(c.sign_vector for c in ends)
            if key in seen:
                continue
            seen.add(key)
            delta, delta_prime = arr.to_ambient(lo), arr.to_ambient(hi)
            pairs += [(delta, delta_prime), (delta_prime, delta)]
            if max_pairs is not None and len(pairs) >= max_pairs:
                return pairs
    return pairs
