from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qswindows import linalg
from qswindows.errors import InputError

ints = st.integers(min_value=-6, max_value=6)


def test_vec_refuses_floats():
    assert linalg.vec((1, Fraction(1, 2))) == (Fraction(1), Fraction(1, 2))
    with pytest.raises(InputError, match=r"^0\.5 is a float"):
        linalg.vec((1, 0.5))


def test_primitive():
    assert linalg.primitive((2, 4, -6)) == (1, 2, -3)
    assert linalg.primitive((Fraction(1, 2), Fraction(3, 4))) == (2, 3)
    assert linalg.primitive((-3,)) == (-3 // 3,)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.fractions(-20, 20, max_denominator=12), min_size=1, max_size=4)
       .filter(lambda x: any(x)))
def test_primitive_scale_matches_fraction_oracle(x):
    p, c = linalg.primitive_scale(x)
    assert c > 0 and tuple(c * Fraction(a) for a in x) == p
    assert all(type(a) is int for a in p) and linalg.vec_gcd(p) == 1
    assert linalg.primitive(x) == p


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=4).filter(any))
def test_primitive_scale_int_path_matches_numerators_path(x):
    """An all-int vector skips ``_numerators``; as Fractions it takes that
    path, and both give the same primitive vector and scale."""
    assert linalg.primitive_scale(x) == linalg.primitive_scale([Fraction(a) for a in x])
    assert linalg.primitive_scale(x) == linalg.primitive_scale(tuple(x))


def test_sign_normalized():
    assert linalg.sign_normalized((0, -2, 1)) == (0, 2, -1)
    assert linalg.sign_normalized((3, -1)) == (3, -1)


def test_solve_and_kernel():
    rows = [(1, 1), (1, -1)]
    assert linalg.solve(rows, (3, 1)) == (2, 1)
    assert linalg.solve([(1, 1), (2, 2)], (1, 3)) is None
    kb = linalg.kernel_basis([(1, 1, 0)])
    assert len(kb) == 2
    for v in kb:
        assert linalg.dot((1, 1, 0), v) == 0


def test_integer_kernel_is_saturated():
    rows = [(2, -2)]
    basis = linalg.integer_kernel_basis(rows)
    assert len(basis) == 1
    assert linalg.sign_normalized(linalg.primitive(basis[0])) == (1, 1)


def test_lattice_generates():
    assert linalg.lattice_generates([(1, 0), (0, 1)], 2)
    assert linalg.lattice_generates([(2, 1), (1, 1)], 2)
    assert not linalg.lattice_generates([(2, 0), (0, 1)], 2)
    assert not linalg.lattice_generates([(1, 1)], 2)


@given(st.lists(st.tuples(ints, ints, ints), min_size=1, max_size=5))
def test_kernel_vectors_annihilate(rows):
    rows = [r for r in rows if any(r)]
    if not rows:
        return
    for v in linalg.kernel_basis(rows):
        for r in rows:
            assert linalg.dot(r, v) == 0


@given(st.tuples(ints, ints), st.tuples(ints, ints), st.tuples(ints, ints))
def test_solve_reproduces_rhs(r1, r2, x):
    rows = [r1, r2]
    rhs = linalg.mat_vec(rows, x)
    sol = linalg.solve(rows, rhs)
    assert sol is not None
    assert linalg.mat_vec(rows, sol) == tuple(rhs)


@given(st.lists(st.tuples(ints, ints), min_size=1, max_size=6))
def test_hnf_transform_is_consistent(rows):
    h, u = linalg.hnf_with_transform(rows)
    assert linalg.mat_mul(u, rows) == tuple(tuple(r) for r in h)


# -- the Fraction Gauss-Jordan loop as an oracle for the integer elimination --

def frac_rref(rows):
    """Reduced row echelon form by Gauss-Jordan elimination over Fraction."""
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


def _frac_pivots(m):
    """Pivot column -> row index of a reduced echelon form."""
    out = {}
    for i, row in enumerate(m):
        j = next((j for j, a in enumerate(row) if a != 0), None)
        if j is not None:
            out[j] = i
    return out


def frac_kernel_basis(rows):
    m = frac_rref(rows)
    ncols = len(rows[0])
    pivots = _frac_pivots(m)
    basis = []
    for j in range(ncols):
        if j not in pivots:
            v = [Fraction(0)] * ncols
            v[j] = Fraction(1)
            for p, i in pivots.items():
                v[p] = -m[i][j]
            basis.append(tuple(v))
    return basis


def frac_solve(rows, rhs):
    ncols = len(rows[0])
    m = frac_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    pivots = _frac_pivots(m)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for p, i in pivots.items():
        x[p] = m[i][ncols]
    return tuple(x)


entries = st.one_of(st.integers(-6, 6), st.just(0),
                    st.fractions(-5, 5, max_denominator=7))


@st.composite
def rational_matrices(draw):
    """1-5 rows of 1-6 mixed int/Fraction entries, with zero rows, zero
    columns, repeated, dependent and negated rows mixed in."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero-row", "zero-col", "repeat", "dependent", "negate")))
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        if kind == "zero-row":
            rows[i] = [0] * ncols
        elif kind == "zero-col":
            c = draw(st.integers(0, ncols - 1))
            for row in rows:
                row[c] = 0
        elif kind == "repeat" and len(rows) < 5:
            rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
        elif kind == "dependent" and len(rows) < 5:
            a, b = draw(entries), draw(entries)
            rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        elif kind == "negate":
            rows[i] = [-x for x in rows[i]]
    return [tuple(row) for row in rows]


@settings(deadline=None, max_examples=200)
@given(rational_matrices())
def test_rref_rank_kernel_match_fraction_oracle(rows):
    expected = frac_rref(rows)
    got = linalg.rref(rows)
    assert got == expected
    assert all(type(a) is Fraction for row in got for a in row)
    assert linalg.rank(rows) == len(_frac_pivots(expected))
    assert linalg.kernel_basis(rows) == frac_kernel_basis(rows)


@settings(deadline=None, max_examples=200)
@given(rational_matrices(), st.data())
def test_solve_matches_fraction_oracle(rows, data):
    ncols = len(rows[0])
    if data.draw(st.booleans()):
        x = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rhs = linalg.mat_vec(rows, x)
    else:
        rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    expected = frac_solve(rows, rhs)
    assert linalg.solve(rows, rhs) == expected
    if expected is not None:
        assert linalg.mat_vec(rows, expected) == tuple(rhs)


def test_rref_edge_cases():
    assert linalg.rref([]) == []
    assert linalg.rref([[0, 0], [0, 0]]) == [[0, 0], [0, 0]]
    # negative pivots, a zero column and a dependent row
    rows = [(0, -2, 4, Fraction(-1, 3)), (0, 3, -6, Fraction(1, 2)), (0, -1, 1, 0)]
    assert linalg.rref(rows) == frac_rref(rows)
    assert linalg.rank(rows) == 2


def test_dot_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        linalg.dot((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        linalg.dot((Fraction(1, 2),), ())
    assert linalg.dot((), ()) == 0


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(*(st.lists(entries, min_size=n, max_size=n) for _ in range(2)))))
def test_dot_matches_fraction_sum(pair):
    x, y = pair
    expected = Fraction(0)
    for a, b in zip(x, y):
        expected += Fraction(a) * Fraction(b)
    got = linalg.dot(x, y)
    assert got == expected
    if all(type(a) is int for a in (*x, *y)):
        assert type(got) is int
