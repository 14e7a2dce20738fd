import itertools
import re
from fractions import Fraction

import pytest

from qswindows import arrangement, cy_ci, groupoid, mutation
from qswindows.errors import InputError

F = Fraction


@pytest.fixture(scope="module")
def quintic():
    return cy_ci.build((1, 1, 1, 1, 1), (5,))


@pytest.fixture(scope="module")
def cy33():
    return cy_ci.build((1, 1, 1, 1, 1, 1), (3, 3))


def test_quintic_facts(quintic):
    assert quintic.alpha == 5
    assert quintic.arrangement_offset == 0
    assert quintic.g1_rep.weights == ((1,), (1,), (1,), (1,), (1,), (1,), (-1,), (-5,))
    assert quintic.to_json()["arrangement"] == "Z"
    assert quintic.to_json()["window_size"] == 6
    assert quintic.bigraded_weights[0] == (1, 0)
    assert quintic.bigraded_weights[-1] == (-5, 1)


def test_cy33_facts(cy33):
    assert cy33.alpha == 6
    assert cy33.arrangement_offset == F(1, 2)
    assert cy33.to_json()["arrangement"] == "Z+1/2"
    assert cy33.to_json()["window_size"] == 7


def test_invalid_degrees_rejected():
    with pytest.raises(InputError):
        cy_ci.build((1, 1), (3,))
    with pytest.raises(InputError):
        cy_ci.build((1, 0), (1,))


@pytest.mark.parametrize("a, d, bad", [((1.5, 1, 1, 1, 1), (5,), "1.5"),
                                       ((1, 1, 1, 1, 1), (5.0,), "5.0"),
                                       ((True, 1, 1, 1, 1), (5,), "True")])
def test_degrees_must_be_ints(a, d, bad):
    """A float or bool degree is refused, not truncated to an int."""
    with pytest.raises(InputError, match=f"^degrees must be integers, got {bad}$"):
        cy_ci.build(a, d)


def test_one_arrangement_per_model(monkeypatch):
    """The model's wall offset and its Contexts read one arrangement, the
    rank-one representation's own."""
    real, calls = arrangement.build_arrangement, []
    monkeypatch.setattr(arrangement, "build_arrangement",
                        lambda rep: calls.append(rep) or real(rep))
    model = cy_ci.build((1, 1, 1, 1, 1), (5,))
    for ctx in (model.context(), model.context()):
        assert ctx.arrangement is model.g1_rep.arrangement
    assert calls == [model.g1_rep]


def test_crossing_data(quintic, cy33):
    assert cy_ci.crossing_data(quintic, 3, quintic.context()) == (6, 2)
    assert cy_ci.crossing_data(cy33, F(1, 2), cy33.context()) == (7, 3)
    with pytest.raises(InputError, match="^1/2 is not a wall of this model$"):
        cy_ci.crossing_data(quintic, F(1, 2), quintic.context())


def test_counting_identity(quintic, cy33):
    for model in (quintic, cy33):
        d_plus, d_minus = cy_ci.crossing_data(model, model.arrangement_offset, model.context())
        assert (d_plus - 1) + (d_minus - 1) == model.n + model.r


def test_window_sizes(quintic, cy33):
    for model in (quintic, cy33):
        ctx = model.context()
        for k in range(3):
            delta = model.arrangement_offset + F(1, 3) + k
            assert len(ctx.window((delta,)).chars) == model.alpha + 1


def test_twist_words(quintic, cy33):
    tw = cy_ci.spherical_twist_word(quintic, 0, quintic.context())
    assert tw["delta"] == F(7, 2)
    assert tw["length"] == 6
    assert tw["down"] == 1 and tw["up"] == 5

    tw = cy_ci.spherical_twist_word(cy33, -1, cy33.context())
    assert tw["delta"] == F(3)
    assert tw["length"] == 8


def test_twist_length_equals_period(quintic, cy33):
    for model, m in ((quintic, 0), (quintic, 2), (cy33, -1), (cy33, 1)):
        ctx = model.context()
        tw = cy_ci.spherical_twist_word(model, m, ctx)
        delta = tw["delta"]
        wall = mutation.toric_wall(model.g1_rep, (delta,), (delta - 1,), ctx)
        assert tw["length"] == wall.period == model.n + model.r


@pytest.mark.parametrize("m", range(-3, 4))
def test_twist_matches_two_leg_route(quintic, cy33, m):
    """Oracle: the up leg on its own wall, delta - 1 to delta, moves atoms as
    the down wall's cycle does and lands where one cycle lands."""
    for model in (quintic, cy33):
        ctx = model.context()
        tw = cy_ci.spherical_twist_word(model, m, ctx)
        delta = tw["delta"]
        down = mutation.toric_wall(model.g1_rep, (delta,), (delta - 1,), ctx)
        up = mutation.toric_wall(model.g1_rep, (delta - 1,), (delta,), ctx)
        assert up._successor == down._successor
        below = mutation.module_of_window(model.g1_rep, (delta - 1,), ctx)
        landed = up.walk(below, up.face.d_plus - 1)[-1]
        assert landed == mutation.module_of_window(model.g1_rep, (delta,), ctx)
        assert (down.face.d_plus - 1, up.face.d_plus - 1) == (tw["down"], tw["up"])


# (a; d) with equal sums: the quintic, (3, 3) and eleven more, both parities of alpha
CY_DEGREES = [((1,) * 5, (5,)), ((1,) * 6, (3, 3)), ((1, 1, 1, 1, 2), (6,)), ((1,) * 3, (3,)),
              ((1, 1), (2,)), ((1, 1, 2, 2, 2), (8,)), ((1, 1, 1, 1, 4), (8,)),
              ((1, 1, 1, 2, 5), (10,)), ((1,) * 6, (2, 4)), ((1,) * 7, (2, 2, 3)),
              ((1, 2, 3), (6,)), ((1, 1, 1, 3), (6,)), ((2, 2, 2, 1, 1), (4, 4))]


@pytest.fixture(scope="module")
def cy_models():
    return [cy_ci.build(a, d) for a, d in CY_DEGREES]


def _hand_built_loop(model, m, ctx):
    """Oracle: the loop crossed by points, from delta = m + alpha/2 + 1 down
    to delta - 1 and back up."""
    delta = m + F(model.alpha, 2) + 1
    return groupoid.make_path(ctx.arrangement, [
        groupoid.Cross((delta,), (delta - 1,), (F(-1),)),
        groupoid.Cross((delta - 1,), (delta,), (F(1),)),
    ])


def test_twist_loop_is_window_identity(cy_models):
    """On 13 models, for m from -3 to 3, the twist loop is the path crossed
    by points, arrows and start; its mutation steps make one period, n + r,
    and it maps each window character to itself."""
    for model, m in itertools.product(cy_models, range(-3, 4)):
        ctx = model.context()
        loop = cy_ci.twist_loop(model, m, ctx)
        assert loop == _hand_built_loop(model, m, ctx), (model.a, model.d, m)
        entries = groupoid.mutation_transcript(model.g1_rep, loop, ctx)
        assert sum(e.step_count for e in entries) == model.n + model.r
        mapping = groupoid.transcript_window_map(model.g1_rep, loop, ctx)
        assert all(src == dst for src, dst in mapping.items())


@pytest.mark.parametrize("m", [True, 0.25, 0.5, "1"], ids=["bool", "quarter", "half", "str"])
def test_twist_degree_must_be_an_int(quintic, m):
    """A twist degree that is not an int is refused with one line: not read
    as 1 or as the rational it spells, and not ended on a wall as the
    program's fault."""
    for call in (cy_ci.twist_loop, cy_ci.spherical_twist_word):
        with pytest.raises(InputError,
                           match=f"^twist degree must be an integer, got {re.escape(repr(m))}$"):
            call(quintic, m, quintic.context())


def test_shift_arrow_shifts_window(quintic):
    ctx = quintic.context()
    arr = ctx.arrangement
    p = groupoid.make_path(arr, [groupoid.Translate((1,))], start=(F(7, 2),))
    mapping = groupoid.transcript_window_map(quintic.g1_rep, p, ctx)
    assert all(dst == (src[0] + 1,) for src, dst in mapping.items())
