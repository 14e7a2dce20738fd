"""Small exact linear algebra over Fraction vectors and integer lattices.

Row reduction has one implementation, ``_bareiss``: fraction-free
Gauss-Jordan elimination over the integers (Bareiss 1968), in which every
division is exact.  ``rref`` writes each row as integer numerators over its
own positive denominator (a positive row scale leaves the reduced form
unchanged), eliminates once, and divides each pivot row by its pivot, so
Fractions are made only for the output; ``rank``, ``kernel_basis`` and
``solve`` read that form, and ``solve`` checks its answer against every
equation over the integers.  No floating point.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import InputError

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


def vec(xs: Iterable) -> Vec:
    """A Fraction tuple; one that is already all Fraction is returned as is.
    A float is refused, as its binary value is not the rational it spells."""
    if type(xs) is tuple and all(type(x) is Fraction for x in xs):
        return xs
    return tuple(x if type(x) is Fraction else _exact(x) for x in xs)


def _exact(x) -> Fraction:
    if isinstance(x, (float, bool)):
        raise InputError(f"{x!r} is a {type(x).__name__}, not an exact rational; give it as p/q")
    return Fraction(x)


def _int_entry(x, message: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{message}, got {x!r}")
    return x


def int_rows(rows, what: str) -> tuple[IntVec, ...]:
    """Rows of an integer matrix as given on input, a list of lists of ints;
    anything else, floats and bools included, is refused, not coerced."""
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise InputError(f"{what} must be a list of integer lists")
    return tuple(tuple(_int_entry(x, f"{what} must hold integers only") for x in r) for r in rows)


def add(x: Sequence, y: Sequence):
    return tuple(a + b for a, b in zip(x, y, strict=True))


def sub(x: Sequence, y: Sequence):
    return tuple(a - b for a, b in zip(x, y, strict=True))


def neg(x: Sequence):
    return tuple(-a for a in x)


def scale(c, x: Sequence):
    return tuple(c * a for a in x)


def dot(x: Sequence, y: Sequence):
    if len(x) != len(y):
        raise ValueError(f"dot of vectors of lengths {len(x)} and {len(y)}")
    return sum(map(mul, x, y))


def is_zero(x: Sequence) -> bool:
    return all(a == 0 for a in x)


def mat_vec(m: Sequence[Sequence], x: Sequence):
    return tuple(dot(row, x) for row in m)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]):
    cols = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def identity_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Sequence[Sequence]):
    return tuple(zip(*m))


def vec_gcd(x: Sequence[int]) -> int:
    g = 0
    for a in x:
        g = gcd(g, abs(a))
    return g


def primitive(x: Sequence) -> IntVec:
    """Scale a nonzero rational vector to a primitive integer vector.

    The sign is preserved (the result is a positive multiple of the input).
    An all-int x is its own numerators over 1, as in ``_integer_rows``.
    """
    ints = x if all(type(a) is int for a in x) else _numerators(x)[0]
    g = vec_gcd(ints)
    if not g:
        raise ValueError("zero vector has no primitive form")
    return tuple(a // g for a in ints)


def primitive_scale(x: Sequence) -> tuple[IntVec, Fraction]:
    """The primitive integer vector c x of a nonzero rational vector x, and
    c > 0, read off one nonzero entry as its primitive entry over x's."""
    p = primitive(x)
    k = next(i for i, a in enumerate(p) if a)
    return p, Fraction(p[k] * x[k].denominator, x[k].numerator)


def _numerators(point: Sequence) -> tuple[IntVec, int]:
    """A rational point as integer numerators over one positive denominator,
    the least common multiple of its entries' denominators."""
    den = lcm(*(x.denominator for x in point))
    return tuple(x.numerator * (den // x.denominator) for x in point), den


def _fractions(nums: Sequence[int], den: int) -> Vec:
    """The point of integer numerators over one positive denominator, as
    ``Fraction``s: the inverse of ``_numerators``."""
    return tuple(Fraction(x, den) for x in nums)


def sign_normalized(x: Sequence[int]) -> IntVec:
    """Flip the sign so the first nonzero entry is positive."""
    for a in x:
        if a != 0:
            return tuple(x) if a > 0 else tuple(-b for b in x)
    return tuple(x)


def _bareiss(rows, ncols):
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss 1968).

    Pivots are taken from the first ``ncols`` columns, and every division
    is exact.  Returns the pivot columns and the reduced rows, which span
    the input's row space: row i < len(pivots) holds the last pivot p in
    column ``pivots[i]`` and zero in every other pivot column, and the
    rows after them are zero in the first ``ncols`` columns.  For a
    nonsingular square A augmented with I this gives p*I | M with
    M A = p I, where p = +-det A, so M b / p solves A x = b and M b are
    its Cramer numerators.
    """
    m = [list(row) for row in rows]
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pr = m[r]
        p = pr[c]
        for i, row in enumerate(m):
            if i != r:
                a = row[c]
                m[i] = [(p * x - a * y) // prev for x, y in zip(row, pr)]
        prev = p
        pivots.append(c)
    return pivots, m


def _integer_rows(rows) -> list[Sequence[int]]:
    """Each row as integer numerators over its own positive denominator.

    Scaling a row by a positive integer changes neither its row space nor
    the reduced echelon form, so ``rref`` and ``solve`` work on these."""
    return [row if all(type(a) is int for a in row) else _numerators(row)[0] for row in rows]


def rref(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Reduced row echelon form (returns a fresh list of Fraction rows).

    One Bareiss elimination over the integer rows, then each pivot row is
    divided by its pivot; zero rows stay at the bottom."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots, m = _bareiss(_integer_rows(rows), ncols)
    zero = Fraction(0)
    reduced = [[Fraction(x, row[c]) if x else zero for x in row] for row, c in zip(m, pivots)]
    return reduced + [[zero] * ncols for _ in m[len(pivots):]]


def rank(rows: Sequence[Sequence]) -> int:
    return sum(1 for row in rref(rows) if any(a != 0 for a in row))


def kernel_basis(rows: Sequence[Sequence]) -> list[Vec]:
    """Rational basis of {x : A x = 0} for the matrix with the given rows."""
    if not rows:
        raise ValueError("kernel_basis needs at least one row to fix the dimension")
    ncols = len(rows[0])
    m = rref(rows)
    pivots: dict[int, int] = {}
    for i, row in enumerate(m):
        for j in range(ncols):
            if row[j] != 0:
                pivots[j] = i
                break
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for p, i in pivots.items():
            v[p] = -m[i][j]
        basis.append(tuple(v))
    return basis


def solve(rows: Sequence[Sequence], rhs: Sequence) -> Vec | None:
    """One exact solution of A x = b, or None if inconsistent.

    The solution read off the reduced form is checked against every
    equation over the integers, so a faulty elimination cannot pass a
    system with one solution."""
    ncols = len(rows[0])
    aug = _integer_rows([*row, b] for row, b in zip(rows, rhs, strict=True))
    m = rref(aug)
    x = [Fraction(0)] * ncols
    for row in m:
        nz = next((j for j in range(ncols + 1) if row[j] != 0), None)
        if nz is None:
            continue
        if nz == ncols:
            return None
        x[nz] = row[ncols]
    nums, den = _numerators(x)
    for row in aug:
        if sum(map(mul, row, nums)) != row[ncols] * den:
            return None
    return tuple(x)


def hnf_with_transform(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form H = U A with U unimodular.

    Zero rows of H are collected at the bottom; the matching rows of U span
    the left kernel of A over the integers.
    """
    a = [list(map(int, row)) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, nrows):
            while a[i][c] != 0:
                q = a[r][c] // a[i][c]
                a[r] = [x - q * y for x, y in zip(a[r], a[i])]
                u[r] = [x - q * y for x, y in zip(u[r], u[i])]
                a[r], a[i] = a[i], a[r]
                u[r], u[i] = u[i], u[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    return a, u


def integer_kernel_basis(rows: Sequence[Sequence[int]]) -> list[IntVec]:
    """Z-basis of {x in Z^n : x . row = 0 for every row}.

    Works on the transpose: integer row reduction of A^T tracks which integer
    combinations of coordinates vanish on all rows.
    """
    ncols = len(rows[0])
    at = [[int(rows[i][j]) for i in range(len(rows))] for j in range(ncols)]
    h, u = hnf_with_transform(at)
    basis = [tuple(u[i]) for i in range(len(h)) if all(x == 0 for x in h[i])]
    return basis


def lattice_generates(vectors: Sequence[Sequence[int]], n: int) -> bool:
    """Whether the integer vectors generate all of Z^n as a group."""
    if not vectors:
        return n == 0
    h, _ = hnf_with_transform(vectors)
    h = [row for row in h if any(x != 0 for x in row)]
    if len(h) < n:
        return False
    det = 1
    for i in range(n):
        det *= h[i][i]
    return abs(det) == 1
