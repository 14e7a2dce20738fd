import dataclasses
import itertools
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qswindows import catalog, linalg, rep, root_data
from qswindows.errors import InputError, _fmt
from qswindows.rep import QSRep
from qswindows.root_data import DominantRep, RootDatum

chi2 = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@pytest.fixture(scope="module")
def gl2():
    return RootDatum.gl(2)


@pytest.fixture(scope="module")
def gl3():
    return RootDatum.gl(3)


@cache
def weyl_lengths(datum) -> dict:
    """W listed from its simple reflections by breadth-first search, each
    element with its length: the oracle the descent must match.  The
    library never lists W.  Kept per datum; callers do not change it."""
    identity = linalg.identity_matrix(datum.rank)
    lengths = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for s in datum.simple_reflections:
                ws = linalg.mat_mul(s, w)
                if ws not in lengths:
                    lengths[ws] = lengths[w] + 1
                    nxt.append(ws)
        frontier = nxt
    return lengths


def test_torus_basics():
    t = RootDatum.torus(2)
    assert t.roots == ()
    assert weyl_lengths(t) == {((1, 0), (0, 1)): 0}
    assert t.w0 == ((1, 0), (0, 1))
    assert t.two_rho == (0, 0)
    assert t.invariant_basis == ((1, 0), (0, 1))
    assert t.is_dominant((7, -3))


def test_gl2_structure(gl2):
    assert set(gl2.roots) == {(1, -1), (-1, 1)}
    assert gl2.positive_roots == ((1, -1),)
    assert gl2.two_rho == (1, -1)
    assert gl2.w0 == ((0, 1), (1, 0))
    assert weyl_lengths(gl2)[gl2.w0] == 1
    assert gl2.invariant_basis == ((1, 1),)


def test_gl3_structure(gl3):
    assert len(gl3.roots) == 6
    assert len(weyl_lengths(gl3)) == 6
    assert weyl_lengths(gl3)[gl3.w0] == 3 == len(gl3.positive_roots)
    assert gl3.two_rho == (2, 0, -2)
    assert gl3.invariant_basis == ((1, 1, 1),)


def test_is_dominant_examples(gl2):
    assert RootDatum.torus(2).is_dominant((7, -3))
    assert gl2.is_dominant((2, 2))
    assert not gl2.is_dominant((0, 2))


def test_dominant_representative_examples(gl2):
    t = RootDatum.torus(1)
    res = t.dominant_representative((5,))
    assert (res.weight, res.length) == ((5,), 0)

    assert gl2.dominant_representative((-1, 0)) is None

    res = gl2.dominant_representative((0, 2))
    assert res.weight == (1, 1)
    assert res.length == 1
    assert frac_dotted(gl2, gl2.w0, (0, 2)) == (1, 1)


def test_dominant_representative_names_a_non_lattice_weight(gl2):
    torus = RootDatum.torus(2)
    for datum in (torus, gl2):
        with pytest.raises(InputError, match=r"^\(1/3, 0\) is not a lattice weight"):
            datum.dominant_representative((Fraction(1, 3), 0))
    for chi in ((0.0, 1), (True, 1)):
        with pytest.raises(InputError, match=r"is not a lattice weight"):
            torus.dominant_representative(chi)


def test_nonabelian_float_weight_is_an_input_error(gl2):
    for call in (gl2.is_dominant, gl2.dominant_representative):
        with pytest.raises(InputError, match=r"^0\.5 is a float, not an exact rational"):
            call((0.5, 0))


def test_apply_examples(gl2):
    ident = ((1, 0), (0, 1))
    assert gl2.apply(ident, (3, 1)) == (3, 1)
    assert gl2.apply(gl2.w0, (3, 1)) == (1, 3)
    for chi in [(3, 1), (-2, 5)]:
        assert gl2.apply(gl2.w0, gl2.apply(gl2.w0, chi)) == chi


def test_dominant_rep_postconditions(gl2):
    lengths = weyl_lengths(gl2)
    for chi in itertools.product(range(-4, 5), repeat=2):
        res = gl2.dominant_representative(chi)
        if res is None:
            continue
        assert gl2.is_dominant(res.weight)
        assert any(frac_dotted(gl2, w, chi) == res.weight
                   for w, length in lengths.items() if length == res.length)


def _orbit_checks(datum, chi):
    """The dotted action composes, and the dominant representative is the
    same all along a dotted orbit."""
    elements = list(weyl_lengths(datum))
    base = datum.dominant_representative(chi)
    for w1, w2 in itertools.product(elements, repeat=2):
        moved = frac_dotted(datum, w2, chi)
        assert frac_dotted(datum, w1, moved) == frac_dotted(datum, linalg.mat_mul(w1, w2), chi)
        res = datum.dominant_representative(moved)
        assert res is None if base is None else res.weight == base.weight


@given(chi2)
def test_dotted_composition(chi):
    _orbit_checks(RootDatum.gl(2), chi)


@given(chi2)
def test_singularity_is_orbit_invariant(chi):
    gl2 = RootDatum.gl(2)
    base = gl2.dominant_representative(chi) is None
    for w in weyl_lengths(gl2):
        moved = frac_dotted(gl2, w, chi)
        assert (gl2.dominant_representative(moved) is None) == base


def test_gl3_dotted_composition_spot():
    _orbit_checks(RootDatum.gl(3), (2, -1, 0))


def test_length_counts_inverted_roots(gl3):
    """Moving a dominant weight by w and back takes l(w) steps, the number
    of positive roots w inverts."""
    positive = set(gl3.positive_roots)
    for w, length in weyl_lengths(gl3).items():
        inverted = sum(1 for a in positive if gl3.apply(w, a) not in positive)
        assert inverted == length
        res = gl3.dominant_representative(frac_dotted(gl3, w, (2, 1, 0)))
        assert (res.weight, res.length) == ((2, 1, 0), length)


def test_from_dict_roundtrip():
    d = RootDatum.from_dict({"builtin": "gl", "n": 2})
    assert d.roots == RootDatum.gl(2).roots
    explicit = RootDatum.from_dict({
        "rank": 2,
        "pairing": [["1", "0"], ["0", "1"]],
        "roots": [[1, -1], [-1, 1]],
        "simple_reflections": [[[0, 1], [1, 0]]],
    })
    assert explicit.positive_roots == ((1, -1),)
    assert explicit.two_rho == (1, -1)
    # row-major flat pairing with p/q strings
    flat = RootDatum.from_dict({
        "rank": 2,
        "pairing": ["2/1", "0", "0", "2/1"],
        "roots": [[1, -1], [-1, 1]],
        "simple_reflections": [[[0, 1], [1, 0]]],
    })
    assert flat.pair((1, 0), (1, 0)) == 2


def test_bad_inputs_rejected():
    with pytest.raises(InputError):
        RootDatum.from_dict({"builtin": "so", "n": 3})
    with pytest.raises(InputError):
        RootDatum.from_data(2, ((1, 0), (0, 1)), [(1, -1)], [])
    # the swap sends the root (1, 0) to (0, 1), which is not a root
    with pytest.raises(InputError, match="does not permute the roots"):
        RootDatum.from_data(2, ((1, 0), (0, 1)), [(1, -1), (-1, 1), (1, 0), (-1, 0)],
                            [((0, 1), (1, 0))], positive_roots=[(1, -1), (1, 0)])
    # the descent needs each simple reflection to negate exactly one positive
    # root and permute the others, and 2rho to pair positively with them all
    gl2 = RootDatum.gl(2)
    axes = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    for simple, count in ((((1, 0), (0, 1)), 0), (((-1, 0), (0, -1)), 2)):
        with pytest.raises(InputError, match=f"negates {count} positive roots, not 1"):
            RootDatum.from_data(2, gl2.pairing, axes, [simple], positive_roots=[(1, 0), (0, 1)])
    gl3 = RootDatum.gl(3)
    with pytest.raises(InputError, match="does not permute the other positive roots"):
        RootDatum.from_data(3, gl3.pairing, gl3.roots, gl3.simple_reflections,
                            positive_roots=[(1, -1, 0), (0, 1, -1), (-1, 0, 1)])
    with pytest.raises(InputError, match="2rho does not pair positively"):
        RootDatum.from_data(2, ((0, 0), (0, 0)), gl2.roots, gl2.simple_reflections)
    # shapes are checked before anything is multiplied by them
    for roots, simples, positive in (([(1,), (-1,)], gl2.simple_reflections, None),
                                     (gl2.roots, [((0, 1),)], None),
                                     (gl2.roots, [((0, 1, 0), (1, 0, 0))], None),
                                     (gl2.roots, gl2.simple_reflections, [(1,)])):
        with pytest.raises(InputError, match="need 2 entries"):
            RootDatum.from_data(2, gl2.pairing, roots, simples, positive_roots=positive)
    with pytest.raises(InputError, match="pairing must be a 1 x 1 matrix"):
        RootDatum.from_dict({"rank": 1, "pairing": [[1, 2]]})


@pytest.mark.parametrize("key, value, message", [
    ("roots", [[1.5, -1], [-1, 1]], "roots must hold integers only, got 1.5"),
    ("roots", [[1, -1], [-1, True]], "roots must hold integers only, got True"),
    ("simple_reflections", [[[0, True], [1, 0]]],
     "simple reflection must hold integers only, got True"),
    ("simple_reflections", ["swap"], "simple reflection must be a list of integer lists"),
    ("simple_reflections", "swap", "simple reflection must be a list of integer lists"),
    ("simple_reflections", 7, "bad root datum block: 'int' object is not iterable"),
], ids=["float-root", "bool-root", "bool-reflection", "string-reflection", "string-list",
        "int-list"])
def test_from_dict_errors_are_one_line(key, value, message):
    """A bad root or simple reflection in a JSON root datum block ends in
    one pinned line, whichever layer refuses it."""
    block = {"rank": 2, "pairing": [[1, 0], [0, 1]], "roots": [[1, -1], [-1, 1]],
             "simple_reflections": [[[0, 1], [1, 0]]], key: value}
    with pytest.raises(InputError) as err:
        RootDatum.from_dict(block)
    assert str(err.value) == message


def test_from_data_refuses_floats_and_bools():
    """Float or bool entries are refused, not truncated to ints or turned
    into the binary value of the float."""
    gl2 = RootDatum.gl(2)
    cases = [
        (dict(pairing=((0.1, 0), (0, 1))), r"^0\.1 is a float, not an exact rational"),
        (dict(pairing=((True, 0), (0, 1))), r"^True is a bool, not an exact rational"),
        (dict(roots=[(1.0, -1), (-1, 1)]), r"^roots must hold integers only, got 1\.0$"),
        (dict(roots=[(Fraction(1, 2), -1), (-1, 1)]), "^roots must hold integers only"),
        (dict(simple_reflections=[((0, 1), (1, False))]),
         "^simple reflection must hold integers only, got False$"),
        (dict(positive_roots=[(1, -1.0)]), "^positive roots must hold integers only"),
    ]
    for changes, message in cases:
        args = dict(pairing=gl2.pairing, roots=gl2.roots,
                    simple_reflections=gl2.simple_reflections, positive_roots=None)
        args.update(changes)
        with pytest.raises(InputError, match=message):
            RootDatum.from_data(2, **args)


def test_pairing_is_integer_rows_over_one_denominator():
    """A datum keeps its pairing as integer rows over their least positive
    denominator, so one pairing given as ints, ``Fraction``s or p/q strings
    makes one datum; ``pairing`` is the ``Fraction`` view of those rows."""
    gl2 = RootDatum.gl(2)
    halves = RootDatum.from_data(2, [[Fraction(1, 2), 0], [0, Fraction(2, 4)]],
                                 gl2.roots, gl2.simple_reflections)
    assert (halves._int_pairing, halves._pairing_den) == (((1, 0), (0, 1)), 2)
    assert halves.pairing == ((Fraction(1, 2), 0), (0, Fraction(1, 2)))
    assert halves != gl2
    assert halves == RootDatum.from_dict({
        "rank": 2, "pairing": [["1/2", 0], ["0", "2/4"]],
        "roots": [list(r) for r in gl2.roots],
        "simple_reflections": [[list(row) for row in s] for s in gl2.simple_reflections]})
    ones = RootDatum.from_data(2, [[Fraction(1), Fraction(0)], [0, 1]],
                               gl2.roots, gl2.simple_reflections)
    assert ones == gl2 and ones._pairing_den == 1


def test_rho_and_dominant_cone_are_built_once():
    gl3 = RootDatum.gl(3)
    assert gl3.rho is gl3.rho and gl3.rho == (1, 0, -1)
    assert gl3.dominant_cone is gl3.dominant_cone
    assert [h.normal for h in gl3.dominant_cone] == [(0, 1, -1), (1, -1, 0), (1, 0, -1)]



@pytest.mark.parametrize("kind, arg, message", [
    ("torus", True, "torus rank must be an integer, got True"),
    ("gl", True, "gl rank must be an integer, got True"),
    ("torus", 1.0, "torus rank must be an integer, got 1.0"),
    ("gl", 2.0, "gl rank must be an integer, got 2.0"),
])
def test_builtins_refuse_floats_and_bools(kind, arg, message):
    """A bool or a float is no rank: refused before the shared data are
    looked up, where True would pass as 1 and 2.0 as 2."""
    with pytest.raises(InputError) as err:
        getattr(RootDatum, kind)(arg)
    assert str(err.value) == message


def fresh_builtin(kind, n):
    """The torus or GL(n) datum built from its generators, outside the
    shared builtins: the roots e_i - e_j and the adjacent transpositions."""
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    if kind == "torus":
        return RootDatum.from_data(n, identity, [], [])
    roots = [[(k == i) - (k == j) for k in range(n)]
             for i in range(n) for j in range(n) if i != j]
    simples = [[identity[i + 1] if r == i else identity[i] if r == i + 1 else identity[r]
                for r in range(n)] for i in range(n - 1)]
    return RootDatum.from_data(n, identity, roots, simples)


@pytest.mark.parametrize("kind", ["torus", "gl"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_builtin_data_are_shared_and_equal_fresh_ones(kind, n):
    shared = getattr(RootDatum, kind)(n)
    assert getattr(RootDatum, kind)(n) is shared
    fresh = fresh_builtin(kind, n)
    assert fresh is not shared
    for name in [f.name for f in dataclasses.fields(RootDatum)] + [
            "w0", "rho", "dominant_cone", "_simple_columns"]:
        assert getattr(shared, name) == getattr(fresh, name), name


def test_reps_on_shared_data_equal_reps_on_fresh_ones():
    std_dual = [[s * (j == i) for j in range(3)] for i in range(3) for s in (1, -1)] * 4
    cases = [(r.root_datum, r.weights) for r in catalog.bundled_reps().values()]
    for shared, weights in [*cases, (RootDatum.gl(3), std_dual)]:
        fresh = fresh_builtin("torus" if shared.is_torus else "gl", shared.rank)
        assert (QSRep.build(shared, weights).to_json()
                == QSRep.build(fresh, weights).to_json())


def test_builtins_are_validated_once(monkeypatch):
    """Building the bundled reps twice builds and validates the rank-one
    torus and GL(2) once each."""
    validated = []
    real = RootDatum._validate
    monkeypatch.setattr(RootDatum, "_validate",
                        lambda self: (validated.append((self.is_torus, self.rank)), real(self))[1])
    root_data._builtin.cache_clear()
    for _ in range(2):
        catalog.bundled_reps()
    assert validated == [(True, 1), (False, 2)]

# -- the integer Weyl action against the Fraction oracle ------------------------
# The Fraction dominance tests and dotted action that the integer versions
# replaced, kept as the reference they must match exactly.

def frac_pair(datum, x, y) -> Fraction:
    py = [sum(Fraction(p) * c for p, c in zip(row, y)) for row in datum.pairing]
    return sum((Fraction(a) * b for a, b in zip(x, py, strict=True)), Fraction(0))


def frac_is_dominant(datum, chi) -> bool:
    return all(frac_pair(datum, chi, a) >= 0 for a in datum.positive_roots)


def frac_is_strictly_dominant(datum, x) -> bool:
    return all(frac_pair(datum, x, a) > 0 for a in datum.positive_roots)


def frac_dotted(datum, w, chi):
    shifted = datum.apply(w, [Fraction(c) + r for c, r in zip(chi, datum.rho, strict=True)])
    out = [s - r for s, r in zip(shifted, datum.rho)]
    if any(x.denominator != 1 for x in out):
        raise InputError(f"{_fmt(chi)} is not a lattice weight")
    return tuple(int(x) for x in out)


def frac_dominant_representative(datum, chi):
    shifted = [Fraction(c) + r for c, r in zip(chi, datum.rho, strict=True)]
    if any(frac_pair(datum, shifted, a) == 0 for a in datum.roots):
        return None
    for w, length in weyl_lengths(datum).items():
        if frac_is_strictly_dominant(datum, datum.apply(w, shifted)):
            return DominantRep(weight=frac_dotted(datum, w, chi), length=length)
    raise InputError("no Weyl element moves the weight into the dominant cone")


def frac_w0(datum):
    lengths = weyl_lengths(datum)
    return max(lengths, key=lambda w: (lengths[w], w))


def frac_invariant_basis(datum):
    """The fixed lattice read off the rows of w - 1 for every element w of W."""
    n = datum.rank
    identity = linalg.identity_matrix(n)
    rows = [tuple(w[r][c] - identity[r][c] for c in range(n))
            for w in weyl_lengths(datum) if w != identity for r in range(n)]
    if not rows:
        return identity
    return tuple(sorted(linalg.sign_normalized(b) for b in linalg.integer_kernel_basis(rows)))


def _outcome(fn, *args):
    """A call's result, or the type and message of the InputError it raised."""
    try:
        return fn(*args)
    except InputError as exc:
        return InputError, str(exc)


ORACLE_DATA = [
    RootDatum.gl(2),
    RootDatum.gl(3),
    RootDatum.torus(2),
    # a Weyl-invariant pairing that is not the identity, with p/q entries
    RootDatum.from_dict({
        "rank": 2,
        "pairing": [["1/2", "-1/3"], ["-1/3", "1/2"]],
        "roots": [[1, -1], [-1, 1]],
        "simple_reflections": [[[0, 1], [1, 0]]],
    }),
]


def _block_datum(*sizes):
    """GL(n1) x GL(n2) x ..., a block of size one being a rank-one torus,
    built from explicit data."""
    n = sum(sizes)
    unit = linalg.identity_matrix(n)
    roots, simples, start = [], [], 0
    for size in sizes:
        block = range(start, start + size)
        roots += [linalg.sub(unit[i], unit[j]) for i in block for j in block if i != j]
        for i in block[:-1]:
            swap = list(unit)
            swap[i], swap[i + 1] = unit[i + 1], unit[i]
            simples.append(tuple(swap))
        start += size
    return RootDatum.from_data(n, unit, roots, simples)


# the descent against the enumerated group: ORACLE_DATA, GL(4), and
# GL(2) x GL(2) x a rank-one torus, whose invariant lattice has rank three
DESCENT_DATA = [*ORACLE_DATA, RootDatum.gl(4), _block_datum(2, 2, 1)]


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_integer_weyl_action_matches_fraction_oracle(data):
    datum = data.draw(st.sampled_from(DESCENT_DATA))
    entry = st.one_of(st.integers(-6, 6), st.fractions(-4, 4, max_denominator=4))
    chi = data.draw(st.tuples(*[entry] * datum.rank))
    assert datum.is_dominant(chi) == frac_is_dominant(datum, chi)
    assert (_outcome(datum.dominant_representative, chi)
            == _outcome(frac_dominant_representative, datum, chi))
    assert datum.w0 == frac_w0(datum)
    assert datum.invariant_basis == frac_invariant_basis(datum)


def test_validate_makes_no_fraction():
    """``_validate`` checks Weyl invariance as s^T Q s = Q on the integer
    pairing and the invariant basis by integer dot products with Q a, so
    GL(3) and a datum with a non-identity p/q pairing make no ``Fraction``;
    a pairing that a simple reflection does not keep is still refused."""
    made = []
    real = Fraction.__new__
    for datum in (RootDatum.gl(3), ORACLE_DATA[3]):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Fraction, "__new__",
                       lambda cls, *a, **k: (made.append(a), real(cls, *a, **k))[1])
            datum._validate()
    assert made == []
    gl2 = RootDatum.gl(2)
    with pytest.raises(InputError, match="^pairing is not Weyl invariant$"):
        RootDatum.from_data(2, ((1, 0), (0, 2)), gl2.roots, gl2.simple_reflections)


# -- the integer-scaled pairing against the Fraction oracle ---------------------

def frac_eta(datum, weights, lam) -> Fraction:
    weight_part = sum(max(0, -frac_pair(datum, b, lam)) for b in weights)
    root_part = sum(max(0, frac_pair(datum, a, lam)) for a in datum.roots)
    return Fraction(weight_part - root_part)


def _det(m):
    if not m:
        return Fraction(1)
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def frac_slab_candidates(datum, weights):
    """Normals of the hyperplanes spanned by (n-1)-subsets of the paired
    weights and roots, each the vector of signed maximal minors, which is
    orthogonal to the rows and zero exactly when they are dependent."""
    n = datum.rank
    if n == 1:
        return [(1,)]
    vectors = sorted({tuple(b) for b in weights if any(b)} | set(datum.roots))
    units = [tuple(int(i == k) for k in range(n)) for i in range(n)]
    found = set()
    for combo in itertools.combinations(vectors, n - 1):
        # row P v, entry by entry
        rows = [[frac_pair(datum, e, v) for e in units] for v in combo]
        normal = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in rows]) for j in range(n)]
        if any(normal):
            found.add(linalg.sign_normalized(linalg.primitive(normal)))
    return sorted(found)


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_integer_pairing_matches_fraction_oracle(data):
    datum = data.draw(st.sampled_from(ORACLE_DATA))
    n = datum.rank
    entry = st.one_of(st.integers(-6, 6), st.fractions(-4, 4, max_denominator=4))
    x, y = (data.draw(st.tuples(*[entry] * n)) for _ in range(2))
    got = datum.pair(x, y)
    assert type(got) is Fraction and got == frac_pair(datum, x, y)
    weight = st.tuples(*[st.integers(-3, 3)] * n)
    weights = data.draw(st.lists(weight, max_size=8))
    lam = data.draw(weight.filter(any))
    assert rep.eta(datum, weights, lam) == frac_eta(datum, weights, lam)
    assert rep.slab_candidates(datum, weights) == frac_slab_candidates(datum, weights)
