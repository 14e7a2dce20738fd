"""Small exact linear algebra over Fraction vectors and integer lattices.

Everything here is desk scale (dimensions <= 4, a few dozen rows), so the
implementations favour clarity over asymptotics.  No floating point.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


def vec(xs: Iterable) -> Vec:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in xs)


def add(x: Sequence, y: Sequence):
    return tuple(a + b for a, b in zip(x, y, strict=True))


def sub(x: Sequence, y: Sequence):
    return tuple(a - b for a, b in zip(x, y, strict=True))


def neg(x: Sequence):
    return tuple(-a for a in x)


def scale(c, x: Sequence):
    return tuple(c * a for a in x)


def dot(x: Sequence, y: Sequence):
    return sum(a * b for a, b in zip(x, y, strict=True))


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
    """
    fracs = [Fraction(a) for a in x]
    if all(a == 0 for a in fracs):
        raise ValueError("zero vector has no primitive form")
    denom = 1
    for a in fracs:
        denom = denom * a.denominator // gcd(denom, a.denominator)
    ints = [int(a * denom) for a in fracs]
    g = vec_gcd(ints)
    return tuple(a // g for a in ints)


def _numerators(point: Sequence) -> tuple[IntVec, int]:
    """A rational point as integer numerators over one positive denominator."""
    den = lcm(*(x.denominator for x in point))
    return tuple(x.numerator * (den // x.denominator) for x in point), den


def sign_normalized(x: Sequence[int]) -> IntVec:
    """Flip the sign so the first nonzero entry is positive."""
    for a in x:
        if a != 0:
            return tuple(x) if a > 0 else tuple(-b for b in x)
    return tuple(x)


def rref(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Reduced row echelon form (returns a fresh list of Fraction rows)."""
    m = [[Fraction(a) for a in row] for row in rows]
    if not m:
        return []
    ncols = len(m[0])
    lead = 0
    for r in range(len(m)):
        if lead >= ncols:
            break
        pivot = next((i for i in range(r, len(m)) if m[i][lead] != 0), None)
        while pivot is None:
            lead += 1
            if lead >= ncols:
                return m
            pivot = next((i for i in range(r, len(m)) if m[i][lead] != 0), None)
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][lead]
        m[r] = [a / pv for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][lead] != 0:
                c = m[i][lead]
                m[i] = [a - c * b for a, b in zip(m[i], m[r])]
        lead += 1
    return m


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
    """One exact solution of A x = b, or None if inconsistent."""
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs, strict=True)]
    m = rref(aug)
    x = [Fraction(0)] * ncols
    for row in m:
        nz = next((j for j in range(ncols + 1) if row[j] != 0), None)
        if nz is None:
            continue
        if nz == ncols:
            return None
        x[nz] = row[ncols]
    for row, b in zip(rows, rhs, strict=True):
        if dot(row, x) != b:
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
