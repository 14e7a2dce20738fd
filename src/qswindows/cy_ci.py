"""Weighted-projective Calabi-Yau complete intersections as a rank-one
two-torus model.

From degrees (a_1..a_n; d_1..d_r) with equal sums, the first torus factor
acts with weights (1, a_1..a_n, -1, -d_1..-d_r); all wall-crossing And
mutation bookkeeping happens in that direction, the second grading is
carried as metadata only.  The half-period shift of the wall pattern is
decided by the parity of alpha = sum(a).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalInconsistencyError
from .groupoid import Path, path_of_word
from .linalg import _exact, _int_entry
from .mutation import ModuleSpec, toric_wall
from .rep import QSRep
from .root_data import RootDatum
from .windows import Context, wall_crossing


@dataclass(frozen=True)
class CYModel:
    a: tuple[int, ...]
    d: tuple[int, ...]
    alpha: int
    bigraded_weights: tuple[tuple[int, int], ...]
    g1_rep: QSRep
    arrangement_offset: Fraction

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def r(self) -> int:
        return len(self.d)

    def context(self) -> Context:
        return Context(self.g1_rep)

    def to_json(self) -> dict:
        return {
            "a": list(self.a),
            "d": list(self.d),
            "alpha": self.alpha,
            "bigraded_weights": [list(w) for w in self.bigraded_weights],
            "arrangement": "Z+1/2" if self.arrangement_offset == Fraction(1, 2) else "Z",
            "window_size": self.alpha + 1,
        }


def build(a, d) -> CYModel:
    a = tuple(_int_entry(x, "degrees must be integers") for x in a)
    d = tuple(_int_entry(x, "degrees must be integers") for x in d)
    if not a or not d or any(x <= 0 for x in a + d):
        raise InputError("degree lists must be nonempty positive integers")
    alpha = sum(a)
    if sum(d) != alpha:
        raise InputError(
            f"Calabi-Yau condition fails: sum(d)={sum(d)} differs from sum(a)={alpha}")
    bigraded = [(1, 0)] + [(ai, 0) for ai in a] + [(-1, 1)] + [(-dj, 1) for dj in d]
    weights = [(1,)] + [(ai,) for ai in a] + [(-1,)] + [(-dj,) for dj in d]
    g1 = QSRep.build(RootDatum.torus(1), weights)
    families = g1.arrangement.families
    if len(families) != 1 or families[0].step_num != families[0].scale:
        raise InternalInconsistencyError("the rank-one model must have unit wall spacing")
    # the walls are Z + (alpha + 1)/2, and base_num/scale lies in [0, 1)
    if 2 * families[0].base_num != (alpha + 1) % 2 * families[0].scale:
        raise InternalInconsistencyError("computed wall pattern contradicts the parity rule")
    return CYModel(a=a, d=d, alpha=alpha, bigraded_weights=tuple(bigraded), g1_rep=g1,
                   arrangement_offset=families[0].base_offset)


def crossing_data(model: CYModel, wall, ctx: Context) -> tuple[int, int]:
    """(d^+ of the upward face, d^+ of its dual) at a given wall point."""
    wall, arr = _exact(wall), ctx.arrangement
    if not arr.on_wall((wall,)):
        raise InputError(f"{wall} is not a wall of this model")
    (step,) = path_of_word(arr, [(*wall.as_integer_ratio(), 1)]).steps
    crossing = wall_crossing(model.g1_rep, step.here, step.there, ctx)
    (fd,) = crossing.faces.values()
    return fd.d_plus, fd.d_minus


def twist_loop(model: CYModel, m: int, ctx: Context) -> Path:
    """The down-then-up loop at delta = m + alpha/2 + 1 around the wall
    below it, delta - 1/2 = p/2 for p = 2m + alpha + 1, as the path of the
    word x(p/2,-) x(p/2,+).  The walls are a unit apart (``build`` checks
    it), so the word starts half a gap above its wall, at delta, and its
    first step ends at delta - 1."""
    p = 2 * _int_entry(m, "twist degree must be an integer") + model.alpha + 1
    return path_of_word(ctx.arrangement, [(p, 2, -1), (p, 2, 1)])


def spherical_twist_word(model: CYModel, m: int, ctx: Context) -> dict:
    """The twist loop's mutation word.

    Both legs walk one mutation cycle of the loop's wall: down takes
    d_F^+ - 1 steps to the module of the window below, up takes
    d_F*^+ - 1 steps back.  The loop is one full period, n + r steps.
    """
    loop = twist_loop(model, m, ctx)
    (delta,), down_step = loop.start, loop.steps[0]
    wall = toric_wall(model.g1_rep, down_step.here, down_step.there, ctx)
    down, up = wall.face.d_plus - 1, wall.dual_face.d_plus - 1
    # the crossing located both windows already
    start = ModuleSpec.of_window(wall.crossing.window.chars)
    trace = wall.walk(start, down + up)
    if trace[down] != ModuleSpec.of_window(wall.crossing.window_prime.chars):
        raise InternalInconsistencyError("the down leg did not land on the window below")
    if trace[-1] != start:
        raise InternalInconsistencyError("the twist loop did not close")
    if down + up != model.n + model.r:
        raise InternalInconsistencyError("twist word length must equal n + r")
    return {
        "delta": delta,
        "convention": "down-then-up",
        "down": down,
        "up": up,
        "length": down + up,
    }
