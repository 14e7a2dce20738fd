"""Seeded benchmark inputs, generated without calling the library.

The corpus generator consumes the random stream exactly as
``qswindows.catalog.random_corpus`` does, so seed 20250810 with counts
{1: 120, 2: 60, 3: 30} reproduces the acceptance corpus weight for weight
(``test_benchmark.py`` asserts this).  Its filters (quasi-symmetry, rank,
lattice generation, origin interior after dropping any weight) are
re-implemented here over plain integers, so a later change to ``catalog``
or ``rep`` cannot silently change what the benchmark measures: the input
fingerprint printed by every run would move.

Everything in this module is deterministic in its seed argument.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd

ACCEPTANCE_SEED = 20250810
ACCEPTANCE_COUNTS = {1: 120, 2: 60, 3: 30}
# stratum(w) -> count over the acceptance corpus; test_benchmark.py
# recomputes it from plain_corpus(ACCEPTANCE_SEED)
ACCEPTANCE_STRATA = {
    (1, 1, 1, 4, 2): 49, (1, 1, 1, 4, 4): 34, (1, 1, 1, 6, 2): 37,
    (2, 2, 2, 8, 4): 7, (2, 3, 3, 6, 6): 2, (2, 3, 3, 7, 6): 1, (2, 3, 3, 8, 6): 10,
    (2, 3, 3, 9, 6): 13, (2, 3, 3, 10, 6): 8, (2, 3, 3, 11, 6): 6, (2, 3, 3, 12, 6): 2,
    (2, 4, 4, 9, 8): 1, (2, 4, 4, 10, 8): 2, (2, 4, 4, 11, 8): 5, (2, 4, 4, 12, 8): 3,
    (3, 3, 3, 12, 6): 3, (3, 4, 4, 11, 8): 1, (3, 4, 4, 12, 8): 2,
    (3, 4, 6, 9, 8): 2, (3, 4, 6, 10, 8): 4, (3, 4, 6, 11, 8): 9, (3, 4, 6, 12, 8): 9,
}

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


# -- integer helpers ------------------------------------------------------------


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return tuple(x // g for x in v)


def _sign_normalized(v):
    for x in v:
        if x:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def _rank(rows) -> int:
    """Largest k with a nonzero k x k minor."""
    if not rows:
        return 0
    n = len(rows[0])
    for k in range(min(n, len(rows)), 0, -1):
        for sub in itertools.combinations(rows, k):
            for cols in itertools.combinations(range(n), k):
                if _det([[r[c] for c in cols] for r in sub]):
                    return k
    return 0


def _det(m) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(n))


def _generates_lattice(vectors, n: int) -> bool:
    """The integer vectors generate Z^n iff the gcd of their n x n minors is 1."""
    g = 0
    for combo in itertools.combinations(vectors, n):
        g = gcd(g, abs(_det([list(v) for v in combo])))
        if g == 1:
            return True
    return False


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _hyperplane_normals(vectors, n: int):
    """Normals of the hyperplanes spanned by (n-1)-subsets of the vectors."""
    if n == 1:
        return {(1,)}
    out = set()
    for combo in itertools.combinations(sorted(set(vectors)), n - 1):
        nrm = (-combo[0][1], combo[0][0]) if n == 2 else _cross(*combo)
        if any(nrm):
            out.add(_sign_normalized(_primitive(nrm)))
    return out


def _zero_in_interior(vectors, n: int, normals) -> bool:
    nonzero = [v for v in vectors if any(v)]
    if _rank(nonzero) < n:
        return False
    for nrm in normals:
        values = [sum(a * b for a, b in zip(v, nrm)) for v in nonzero]
        if max(values) <= 0 or min(values) >= 0:
            return False
    return True


def is_quasi_symmetric(weights) -> bool:
    lines: dict = {}
    for b in weights:
        if any(b):
            lines.setdefault(_sign_normalized(_primitive(b)), []).append(b)
    return all(not any(sum(c) for c in zip(*group)) for group in lines.values())


def is_generic_torus(weights, n: int) -> bool:
    """Dropping any one weight keeps a generating set with 0 interior to its hull."""
    normals = _hyperplane_normals([w for w in weights if any(w)], n)
    for i in range(len(weights)):
        rest = [b for j, b in enumerate(weights) if j != i]
        if not _generates_lattice(rest, n) or not _zero_in_interior(rest, n, normals):
            return False
    return True


# -- torus weight lists -----------------------------------------------------------


def _random_direction(rng: random.Random, rank: int, spread: int):
    while True:
        v = tuple(rng.randint(-spread, spread) for _ in range(rank))
        if any(v):
            return _primitive(v)


def random_torus_weights(rng: random.Random, rank: int, max_weights: int = 12):
    """One generic quasi-symmetric torus weight list (same draws as catalog)."""
    patterns = LINE_PATTERNS_RICH if rank == 1 else LINE_PATTERNS_SMALL
    spread = 2 if rank <= 2 else 1
    for _ in range(1000):
        weights = []
        n_lines = rng.randint(rank, rank + (2 if rank <= 2 else 1))
        seen = set()
        for _ in range(n_lines):
            v = _random_direction(rng, rank, spread)
            key = _sign_normalized(v)
            if key in seen:
                continue
            seen.add(key)
            for c in rng.choice(patterns):
                weights.append(tuple(c * x for x in v))
        if not weights or len(weights) > max_weights:
            continue
        if _rank(weights) < rank:
            continue
        if not is_quasi_symmetric(weights):
            continue
        if not is_generic_torus(weights, rank):
            continue
        return tuple(weights)
    raise RuntimeError("failed to sample a generic quasi-symmetric weight list")


def plain_corpus(seed: int, counts=None) -> list[tuple]:
    """The unstratified draw, identical to catalog.random_corpus's weights."""
    counts = counts or ACCEPTANCE_COUNTS
    rng = random.Random(seed)
    return [random_torus_weights(rng, rank)
            for rank in sorted(counts) for _ in range(counts[rank])]


def stratum(weights) -> tuple[int, ...]:
    """(rank, lines through the origin, hyperplanes spanned by the lines,
    weights, distinct weights).

    Build and crossing costs are governed by these: a rank-3 list on four
    lines in general position has a 14-vertex window polytope and builds
    about six times slower than one on three lines.
    """
    n = len(weights[0])
    lines = {_sign_normalized(_primitive(w)) for w in weights if any(w)}
    return n, len(lines), len(_hyperplane_normals(lines, n)), len(weights), len(set(weights))


def _quotas(counts) -> Counter:
    """Per-stratum counts in proportion to the acceptance corpus's strata."""
    base = ACCEPTANCE_STRATA
    out: Counter = Counter()
    for rank, total in counts.items():
        strata = sorted(k for k in base if k[0] == rank)
        size = sum(base[k] for k in strata)
        shares = {k: Fraction(base[k] * total, size) for k in strata}
        for k in strata:
            out[k] = int(shares[k])
        left = total - sum(out[k] for k in strata)
        by_remainder = sorted(strata, key=lambda k: (-(shares[k] - int(shares[k])), k))
        for k in by_remainder[:left]:
            out[k] += 1
    return +out


def stratified_corpus(seed: int, counts=None) -> list[tuple]:
    """Weight lists drawn like ``plain_corpus`` but kept per stratum until
    each stratum holds its share of the acceptance corpus.

    Draws continue rank by rank from one stream, keeping the first draws
    of each stratum.  For the acceptance seed and counts this returns the
    acceptance corpus itself; for other seeds it fixes the cost mix, so
    run-to-run spread measures the program, not the luck of the draw.
    """
    counts = counts or ACCEPTANCE_COUNTS
    quotas = _quotas(counts)
    rng = random.Random(seed)
    out = []
    for rank in sorted(counts):
        need = Counter({k: q for k, q in quotas.items() if k[0] == rank})
        for _ in range(200 * counts[rank]):
            if not need:
                break
            w = random_torus_weights(rng, rank)
            k = stratum(w)
            if need[k] > 0:
                out.append(w)
                need[k] -= 1
                need = +need
        else:
            raise RuntimeError(f"could not fill strata {dict(need)} for rank {rank}")
    return out


def interleave(items, key):
    """Order items so every stratum (``key``) is spread evenly over the list."""
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    ranked = []
    for k, members in groups.items():
        for j, item in enumerate(members):
            ranked.append((Fraction(2 * j + 1, 2 * len(members)), k, j, item))
    ranked.sort(key=lambda r: r[:3])
    return [r[3] for r in ranked]


# -- groupoid paths -----------------------------------------------------------------


def random_positive_path(arr, rng: random.Random, cross, split_into_hops,
                         errors, max_arrows: int = 3):
    """Arrows along random generic directions, labels equal to the hop
    direction so positivity holds by construction.

    The draws match criterion 6's path sampler; the wall tests go through
    the arrangement passed in, which is the only program state this needs.
    Returns (start, [(src, dst, label), ...]) in invariant coordinates, or
    None when no off-wall start was found.
    """
    point = None
    for denom in (2, 4, 8, 16):
        cand = tuple(Fraction(rng.randrange(-4 * denom, 4 * denom), denom)
                     for _ in range(arr.dim))
        if not arr.on_wall(cand):
            point = cand
            break
    if point is None:
        return None
    arrows = []
    for _ in range(rng.randint(1, max_arrows)):
        for _ in range(20):
            direction = tuple(Fraction(rng.randint(-2, 2)) for _ in range(arr.dim))
            if not any(direction):
                continue
            if not arr.is_generic_ell(arr.to_ambient(direction)):
                continue
            t = Fraction(rng.randint(1, 8), 4)
            target = tuple(p + t * d for p, d in zip(point, direction))
            if arr.on_wall(target) or arr.chamber_of(target) == arr.chamber_of(point):
                continue
            try:
                split_into_hops(arr, cross(point, target, direction))
            except errors:
                continue
            arrows.append((point, target, direction))
            point = target
            break
        else:
            break
    if not arrows:
        return None
    return arrows[0][0], arrows


# -- fingerprints ----------------------------------------------------------------------


def canonical(obj) -> str:
    """Deterministic text for nested tuples, lists, dicts, Fractions and ints."""
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))


def _plain(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {canonical(k) if not isinstance(k, str) else k: _plain(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((_plain(x) for x in obj), key=canonical)
    return obj


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
