from collections import Counter
from fractions import Fraction

import pytest

from qswindows import catalog, linalg, mutation, windows
from qswindows.errors import InputError, NotAdjacentError
from qswindows.mutation import Cov, Ker, ModuleSpec

F = Fraction


def spec_of(*chars):
    return ModuleSpec.of_window(chars)


# -- oracle: per-atom stepping, each atom's place on the cycle worked out afresh --


def canonical_atom(atom, faces):
    """The endpoint rewrites forced by the exact complexes: Ker(F, chi, 0) is
    Cov(chi) and Ker(F, chi, d_F^+ - 1) is Cov(chi + beta_F^+); a step
    outside 0..d_F^+ - 1 is not on the complex."""
    if isinstance(atom, Cov):
        return atom
    fd = faces[atom.face_key]
    if atom.step < 0 or atom.step > fd.d_plus - 1:
        raise InputError(f"kernel step {atom.step} outside 0..{fd.d_plus - 1}")
    if atom.step == 0:
        return Cov(atom.chi)
    if atom.step == fd.d_plus - 1:
        return Cov(tuple(linalg.add(atom.chi, fd.beta_plus)))
    return atom


def _outgoing(wall):
    forward = set(wall.crossing.chars_by_face[wall.face.key])
    return forward, {tuple(linalg.add(c, wall.face.beta_plus)) for c in forward}


def oracle_advance(wall, atom):
    if isinstance(atom, Ker):
        return canonical_atom(Ker(atom.face_key, atom.chi, atom.step + 1), wall.faces)
    forward, backward = _outgoing(wall)
    if atom.chi in wall.pivot_chars:
        return atom
    if atom.chi in forward:
        return canonical_atom(Ker(wall.face.key, atom.chi, 1), wall.faces)
    if atom.chi in backward:
        return canonical_atom(Ker(wall.dual_face.key, atom.chi, 1), wall.faces)
    raise InputError(f"atom {atom} is not attached to this wall")


def oracle_retreat(wall, atom):
    if isinstance(atom, Ker):
        return canonical_atom(Ker(atom.face_key, atom.chi, atom.step - 1), wall.faces)
    forward, backward = _outgoing(wall)
    if atom.chi in wall.pivot_chars:
        return atom
    if atom.chi in forward:
        back = tuple(linalg.add(atom.chi, wall.face.beta_plus))
        return canonical_atom(
            Ker(wall.dual_face.key, back, wall.dual_face.d_plus - 2), wall.faces)
    if atom.chi in backward:
        fwd = tuple(linalg.sub(atom.chi, wall.face.beta_plus))
        return canonical_atom(
            Ker(wall.face.key, fwd, wall.face.d_plus - 2), wall.faces)
    raise InputError(f"atom {atom} is not attached to this wall")


def oracle_mutate(wall, spec, direction):
    move = oracle_advance if direction == "left" else oracle_retreat
    tally = Counter()
    for atom, mult in spec.atoms:
        tally[move(wall, atom)] += mult
    return ModuleSpec.from_counter(tally)


def _or_error(f, *args):
    try:
        return f(*args)
    except InputError:
        return InputError


def _walls(reps):
    """(rep, ctx, near delta, wall) for up to 12 adjacent pairs of each rep."""
    for rep in reps:
        ctx = windows.Context(rep)
        for delta, delta_prime in catalog.adjacent_pairs(ctx, periods=2, per_wall=2,
                                                         max_pairs=12):
            yield rep, ctx, delta, mutation.toric_wall(rep, delta, delta_prime, ctx)


def _check_chains_against_oracle(reps) -> int:
    """Left and right mutation of every chain and pivot atom, and both whole
    orbits from the near window, agree with the oracle; every orbit atom lies
    on a chain or is a pivot.  Returns the number of walls checked."""
    walls = 0
    for rep, ctx, delta, wall in _walls(reps):
        walls += 1
        pivots = {Cov(chi) for chi in wall.pivot_chars}
        on_chains = {a for _, _, atoms in wall.chains for a in atoms}
        assert len(wall.chains) == 2 * len(wall.crossing.chars_by_face[wall.face.key])
        for atom in on_chains | pivots:
            one = ModuleSpec(((atom, 1),))
            for direction in ("left", "right"):
                assert (_or_error(wall.mutate, one, direction)
                        == _or_error(oracle_mutate, wall, one, direction)), (atom, direction)
        start = mutation.module_of_window(rep, delta, ctx)
        for direction in ("left", "right"):
            spec = expected = start
            for _ in range(wall.period):
                spec = wall.mutate(spec, direction)
                expected = oracle_mutate(wall, expected, direction)
                assert spec == expected
                assert {a for a, _ in spec.atoms} <= on_chains | pivots
            assert spec == start
    return walls


def test_chains_match_oracle_on_bundled_tori():
    reps = [r for r in catalog.bundled_reps().values() if r.root_datum.is_torus]
    assert _check_chains_against_oracle(reps) >= 4


def test_chains_match_oracle_on_cy_models():
    reps = [m.g1_rep for m in catalog.bundled_cy_models().values()]
    assert _check_chains_against_oracle(reps) >= 4


def test_chains_match_oracle_on_corpus_slice(small_corpus):
    assert _check_chains_against_oracle(small_corpus) >= len(small_corpus)


def test_one_atom_dual_chain():
    """d_F*^+ = 1: the walk still reaches the far window; stepping past the
    chain's single atom is refused."""
    r = catalog.torus_rep((1,), (1,), (1,), (-3,))
    ctx = windows.Context(r)
    wall = mutation.toric_wall(r, (F(0),), (F(1),), ctx)
    assert (wall.face.d_plus, wall.dual_face.d_plus) == (3, 1)
    assert [atoms for _, _, atoms in wall.chains] == [
        (Cov((-1,)), Ker(wall.face.key, (-1,), 1), Cov((2,))), (Cov((2,)),)]
    far = wall.walk(mutation.module_of_window(r, (F(0),), ctx), wall.face.d_plus - 1)[-1]
    assert far == mutation.module_of_window(r, (F(1),), ctx)
    with pytest.raises(InputError, match="not attached to this wall"):
        wall.mutate(far, "left")
    with pytest.raises(InputError, match="not attached to this wall"):
        wall.mutate(mutation.module_of_window(r, (F(0),), ctx), "right")


def test_module_of_window(torus22, ctx22):
    assert mutation.module_of_window(torus22, (F(1, 2),), ctx22) == spec_of((0,), (1,))
    assert mutation.module_of_window(torus22, (F(3, 2),), ctx22) == spec_of((1,), (2,))


def test_window_shift_identity(torus22, ctx22):
    base = mutation.module_of_window(torus22, (F(1, 2),), ctx22)
    shifted = mutation.module_of_window(torus22, (F(5, 2),), ctx22)
    moved = {Cov((a.chi[0] + 2,)) for a, _ in base.atoms}
    assert moved == {a for a, _ in shifted.atoms}


def test_chains_are_the_rewritten_complexes():
    """Each chain (G, b) is Ker(G, b, i), i < d_G^+, with the oracle's end
    rewrites; d^+ = 2 and 3 on the bundled tori, 1 on the dual face of
    1,1,1,-3."""
    reps = [r for r in catalog.bundled_reps().values() if r.root_datum.is_torus]
    reps += [m.g1_rep for m in catalog.bundled_cy_models().values()]
    walls = [wall for _, _, _, wall in _walls(reps)]
    r = catalog.torus_rep((1,), (1,), (1,), (-3,))
    walls.append(mutation.toric_wall(r, (F(0),), (F(1),), windows.Context(r)))
    d_plus = set()
    for wall in walls:
        for fd, base, atoms in wall.chains:
            assert atoms == tuple(canonical_atom(Ker(fd.key, base, i), wall.faces)
                                  for i in range(fd.d_plus)), (fd.key, base)
            d_plus.add(fd.d_plus)
        # mutate relies on this: no two atoms step onto one
        assert len(set(wall._successor.values())) == len(wall._successor)
    assert {1, 2, 3} <= d_plus


def test_mutate_left_examples(torus22, ctx22):
    wall = mutation.toric_wall(torus22, (F(1, 2),), (F(3, 2),), ctx22)
    start = mutation.module_of_window(torus22, (F(1, 2),), ctx22)
    assert wall.pivot() == spec_of((1,))
    stepped = wall.mutate(start, "left")
    assert stepped == spec_of((1,), (2,))


def test_mutate_left_with_intermediate_kernels(torus33, ctx33):
    wall = mutation.toric_wall(torus33, (F(0),), (F(1),), ctx33)
    assert wall.face.d_plus == 3
    start = mutation.module_of_window(torus33, (F(0),), ctx33)
    s1 = wall.mutate(start, "left")
    kers = [a for a, _ in s1.atoms if isinstance(a, Ker)]
    assert len(kers) == 1 and kers[0].step == 1
    s2 = wall.mutate(s1, "left")
    assert s2 == mutation.module_of_window(torus33, (F(1),), ctx33)


def test_periodicity(torus22, ctx22, torus33, ctx33):
    for rep_obj, ctx, pair in (
        (torus22, ctx22, ((F(1, 2),), (F(3, 2),))),
        (torus33, ctx33, ((F(0),), (F(1),))),
    ):
        wall = mutation.toric_wall(rep_obj, *pair, ctx)
        period = wall.period
        assert period == wall.face.d_plus + wall.dual_face.d_plus - 2
        seen = wall.walk(mutation.module_of_window(rep_obj, pair[0], ctx), period)
        assert seen[-1] == seen[0]
        assert len({s.atoms for s in seen[:-1]}) == period


def test_right_mutation_inverts_left(torus33, ctx33):
    wall = mutation.toric_wall(torus33, (F(0),), (F(1),), ctx33)
    spec = mutation.module_of_window(torus33, (F(0),), ctx33)
    stepped = wall.mutate(spec, "left")
    assert wall.mutate(stepped, "right") == spec
    back = wall.mutate(spec, "right")
    assert wall.mutate(back, "left") == spec


def test_toric_wall_counts(torus22, ctx22):
    wall = mutation.toric_wall(torus22, (F(1, 2),), (F(3, 2),), ctx22)
    assert mutation.per_face_counts(torus22, wall.crossing) == {wall.face.key: 1}
    start = mutation.module_of_window(torus22, (F(1, 2),), ctx22)
    assert wall.walk(start, 1)[-1] == spec_of((1,), (2,))
    back = mutation.toric_wall(torus22, (F(3, 2),), (F(1, 2),), ctx22)
    (back_count,) = mutation.per_face_counts(torus22, back.crossing).values()
    assert 1 + back_count == wall.period == 2  # round trip equals the period
    with pytest.raises(NotAdjacentError):
        mutation.toric_wall(torus22, (F(1, 2),), (F(5, 2),), ctx22)


def test_nonabelian_face_counts(gl2rep, ctxgl2):
    crossing = windows.wall_crossing(gl2rep, (F(0), F(0)), (F(1), F(1)), ctxgl2)
    assert sorted(mutation.per_face_counts(gl2rep, crossing).values()) == [3, 4]
    with pytest.raises(InputError, match="torus actions only"):
        mutation.ToricWall(gl2rep, crossing, ctxgl2)


def test_face_counts(torus33, ctx33, gl2rep, ctxgl2):
    """d_F^+ + l(w0) - 1 per face; the (L, N) pair of the torus wall is
    asserted on ``complexes.summand_sets`` in test_complexes."""
    crossing = windows.wall_crossing(torus33, (F(0),), (F(1),), ctx33)
    assert list(mutation.per_face_counts(torus33, crossing).values()) == [2]
    crossing = windows.wall_crossing(gl2rep, (F(0), F(0)), (F(1), F(1)), ctxgl2)
    counts = mutation.per_face_counts(gl2rep, crossing)
    for key, fd in crossing.faces.items():
        assert counts[key] == fd.d_plus + 1 - 1


def test_virtual_class_frozen(torus22, ctx22):
    wall = mutation.toric_wall(torus22, (F(1, 2),), (F(3, 2),), ctx22)
    k = Ker(wall.face.key, (0,), 1)
    assert mutation.atom_class(k, torus22, wall.faces) == {(1,): 2, (0,): -1}
    assert mutation.atom_rank(k, torus22, wall.faces) == 1
    with pytest.raises(InputError, match="owning face data"):
        mutation.atom_class(Ker((99,), (0,), 1), torus22, wall.faces)


def test_virtual_class_additive(torus33, ctx33):
    wall = mutation.toric_wall(torus33, (F(0),), (F(1),), ctx33)
    spec = mutation.module_of_window(torus33, (F(0),), ctx33)
    stepped = wall.mutate(spec, "left")
    total = mutation.virtual_class(stepped, torus33, wall.faces)
    merged = {}
    for atom, mult in stepped.atoms:
        for w, c in mutation.atom_class(atom, torus33, wall.faces).items():
            merged[w] = merged.get(w, 0) + mult * c
    assert {w: c for w, c in merged.items() if c} == total


def test_kernel_rank_binomials():
    assert [mutation.kernel_rank_formula(4, i) for i in range(4)] == [1, 3, 3, 1]
    assert [mutation.kernel_rank_formula(2, i) for i in range(2)] == [1, 1]


def test_telescoping_identity(torus33, ctx33):
    """[Ker_{i+1}] + [Ker_i] equals the Koszul term between them."""
    from qswindows.complexes import koszul_degree_term
    wall = mutation.toric_wall(torus33, (F(0),), (F(1),), ctx33)
    fd = wall.face
    chi = wall.crossing.chars_by_face[fd.key][0]
    for i in range(fd.d_plus - 2):
        new = Ker(fd.key, chi, i + 1)
        old = Ker(fd.key, chi, i)
        lhs = {}
        for atom in (new, old):
            for w, c in mutation.atom_class(
                    canonical_atom(atom, wall.faces), torus33, wall.faces).items():
                lhs[w] = lhs.get(w, 0) + c
        rhs = dict(koszul_degree_term(torus33, fd, chi, i + 1))
        assert {w: c for w, c in lhs.items() if c} == rhs


def test_nongeneric_wall_rejected():
    r = catalog.torus_rep((2,), (1,), (-1,), (-2,))
    ctx = windows.Context(r)
    # walls of this rep sit at half-integers; d+ = 3 on each side, so this
    # wall is fine and mutation must work
    wall = mutation.toric_wall(r, (F(1, 4),), (F(5, 4),), ctx)
    assert wall.face.d_plus >= 2


def test_specs_list_atoms_in_repr_order():
    """Atoms sort by their repr strings, so Cov(10,) comes before Cov(2,);
    the pinned mutate outputs list them in this order."""
    atoms = [Cov((2,)), Cov((10,)), Ker((0,), (-1,), 1), Ker((0,), (1,), 1), Cov((-3,))]
    spec = ModuleSpec.from_counter(Counter(dict.fromkeys(atoms, 1)))
    assert [a for a, _ in spec.atoms] == sorted(atoms, key=repr)
    assert spec.atoms[1:3] == ((Cov((10,)), 1), (Cov((2,)), 1))
