from fractions import Fraction

import pytest

from qswindows import catalog, mutation, windows
from qswindows.errors import InputError, NotAdjacentError
from qswindows.mutation import Cov, Ker, ModuleSpec

F = Fraction


def spec_of(*chars):
    return ModuleSpec.of_window(chars)


def test_module_of_window(torus22, ctx22):
    assert mutation.module_of_window(torus22, (F(1, 2),), ctx22) == spec_of((0,), (1,))
    assert mutation.module_of_window(torus22, (F(3, 2),), ctx22) == spec_of((1,), (2,))


def test_window_shift_identity(torus22, ctx22):
    base = mutation.module_of_window(torus22, (F(1, 2),), ctx22)
    shifted = mutation.module_of_window(torus22, (F(5, 2),), ctx22)
    moved = {Cov((a.chi[0] + 2,)) for a, _ in base.atoms}
    assert moved == shifted.support()


def test_canonicalization(torus22, ctx22):
    wall = mutation.toric_wall(torus22, (F(1, 2),), (F(3, 2),), ctx22)
    fkey = wall.face.key
    assert mutation.canonical_atom(Ker(fkey, (0,), 0), wall.faces) == Cov((0,))
    assert mutation.canonical_atom(Ker(fkey, (0,), 1), wall.faces) == Cov((2,))
    with pytest.raises(InputError):
        mutation.canonical_atom(Ker(fkey, (0,), 5), wall.faces)


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
        spec = mutation.module_of_window(rep_obj, pair[0], ctx)
        seen = [spec]
        for _ in range(period):
            spec = wall.mutate(spec, "left")
            seen.append(spec)
        assert seen[-1] == seen[0]
        assert len({s.atoms for s in seen[:-1]}) == period


def test_right_mutation_inverts_left(torus33, ctx33):
    wall = mutation.toric_wall(torus33, (F(0),), (F(1),), ctx33)
    spec = mutation.module_of_window(torus33, (F(0),), ctx33)
    stepped = wall.mutate(spec, "left")
    assert wall.mutate(stepped, "right") == spec
    back = wall.mutate(spec, "right")
    assert wall.mutate(back, "left") == spec


def test_mutation_word(torus22, ctx22):
    word = mutation.mutation_word(torus22, (F(1, 2),), (F(3, 2),), ctx22)
    assert word.total == 1 and word.executable
    assert word.steps[-1].spec == spec_of((1,), (2,))
    back = mutation.mutation_word(torus22, (F(3, 2),), (F(1, 2),), ctx22)
    assert back.total == 1
    assert word.total + back.total == 2  # round trip equals the period
    with pytest.raises(NotAdjacentError):
        mutation.mutation_word(torus22, (F(1, 2),), (F(5, 2),), ctx22)


def test_mutation_word_nonabelian_counts(gl2rep, ctxgl2):
    word = mutation.mutation_word(gl2rep, (F(0), F(0)), (F(1), F(1)), ctxgl2)
    assert not word.executable
    assert not word.steps
    assert sorted(word.per_face_counts.values()) == [3, 4]


def test_exchange_counts(torus22, ctx22, torus33, ctx33, gl2rep, ctxgl2):
    (data,) = mutation.exchange_count(torus22, (F(1, 2),), (F(3, 2),), ctx=ctx22).values()
    assert data.count == 1
    assert data.l_set == ((1,),) and data.n_set == ((1,),)
    (data,) = mutation.exchange_count(torus33, (F(0),), (F(1),), ctx=ctx33).values()
    assert data.count == 2
    counts = {k: v.count for k, v in
              mutation.exchange_count(gl2rep, (F(0), F(0)), (F(1), F(1)), ctx=ctxgl2).items()}
    crossing = windows.wall_crossing(gl2rep, (F(0), F(0)), (F(1), F(1)), ctxgl2)
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
                    mutation.canonical_atom(atom, wall.faces), torus33, wall.faces).items():
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
