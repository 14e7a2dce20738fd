"""Exception types shared across the package."""
from fractions import Fraction


def _fmt(point) -> str:
    """A point as ``(p/q, ...)``, the form in which errors name their witnesses."""
    return "(" + ", ".join(str(Fraction(x)) for x in point) + ")"


class QSWindowsError(Exception):
    """Base class for all package errors."""


class InputError(QSWindowsError):
    """Malformed or inconsistent user input (CLI exit code 2)."""


def _require_length(point, n: int, what: str = "coordinates") -> None:
    """A point with the wrong number of coordinates is an input error."""
    if len(point) != n:
        raise InputError(f"point {_fmt(point)} has {len(point)} {what}, not {n}")


class OnWallError(QSWindowsError):
    """A parameter point lies on a wall of the periodic arrangement."""

    def __init__(self, point, wall):
        super().__init__(f"point {_fmt(point)} lies on the wall of family "
                         f"{wall.family_index} at offset {wall.offset}")


class NotAdjacentError(QSWindowsError):
    """An operation required an adjacent chamber pair (distance 1)."""

    def __init__(self, a, b, distance: int):
        super().__init__(f"{_fmt(a)} and {_fmt(b)} are at distance {distance}, not 1")


class InternalInconsistencyError(QSWindowsError):
    """A derived cross-check failed; indicates a bug, not bad input."""


class UnsupportedDimensionError(QSWindowsError):
    """Requested rendering or reduction outside the supported rank range."""
