"""Exception hierarchy shared by all modules, :func:`in_full` and :func:`shown`
for what their messages quote, and the field checks of the input records."""

import operator
from decimal import Decimal
from fractions import Fraction


def in_full(n: int) -> str:
    """``str(n)`` without the int-to-str digit limit, which decimal does
    not apply."""
    return str(Decimal(n))


def shown(value) -> str:
    """``repr(value)``; where that raises on an integer past the int-to-str
    digit limit, the integers in full, in lists and tuples, and others by type."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, (list, tuple)):
            inner = ", ".join(map(shown, value)) + "," * (type(value) is tuple and len(value) == 1)
            return f"[{inner}]" if isinstance(value, list) else f"({inner})"
        return in_full(value) if isinstance(value, int) else f"<{type(value).__name__}>"


class SingLocusError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidValue(SingLocusError, ValueError):
    """An argument of the wrong type, shape or value."""


def integer(value) -> int:
    """``value`` as an exact ``int``; a bool is refused, not read as 0 or 1."""
    if type(value) is bool or not hasattr(value, "__index__"):
        raise InvalidValue(f"expected an integer, got {shown(value)}")
    return operator.index(value)


def items(value, count=None) -> tuple:
    """``value``, a list or tuple of ``count`` items when given, as a tuple."""
    if isinstance(value, (list, tuple)) and count in (None, len(value)):
        return tuple(value)
    raise InvalidValue(f"expected a list{f' of {count} items' if count else ''}, got {shown(value)}")


def integers(value) -> tuple[int, ...]:
    """``value``, a list or tuple of integers, as a tuple."""
    return tuple(map(integer, items(value)))


def pair(value) -> tuple[int, int]:
    """``value``, a list or tuple of two integers, as a tuple."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return integer(value[0]), integer(value[1])
    raise InvalidValue(f"expected a pair of integers, got {shown(value)}")


def nonzero(value, what: str) -> Fraction:
    """``value``, a nonzero ``int`` or ``Fraction``, as a ``Fraction``."""
    if type(value) is not Fraction and type(value) is not int:
        raise InvalidValue(f"{what} must be an int or Fraction, got {shown(value)}")
    if not value:
        raise InvalidValue(f"{what} must be nonzero")
    return value if type(value) is Fraction else Fraction(value)


class DisconnectedGraph(SingLocusError):
    """The operation requires a connected graph."""


class InvalidGraph(SingLocusError):
    """A graph failed validation; ``.report`` holds the violation list."""

    def __init__(self, report):
        self.report = list(report)
        super().__init__("invalid graph: " + "; ".join(self.report))


class NonOrientable(SingLocusError):
    """The ribbon structure has nontrivial w1; the twisted variant is not built."""


class TwistMismatch(SingLocusError):
    """A supplied transition disagrees with the discrete edge data."""


class GraphMismatch(SingLocusError):
    """Two diagrams do not share the same underlying graph."""


class TriangleConstraintViolated(SingLocusError):
    """A pants presentation whose triangle scalar products are not 1."""


class InvalidFan(SingLocusError):
    """A fan failed validation; ``.report`` holds the violation list."""

    def __init__(self, report):
        self.report = list(report)
        super().__init__("invalid fan: " + "; ".join(self.report))


class SplitStar(SingLocusError):
    """The star of a ray of a valid fan is not one cycle or one chain, so
    its divisor is not classified."""


class NotAWall(SingLocusError):
    """The given ray pair is not a 2-cone of the fan."""


class BoundaryWall(SingLocusError):
    """The wall lies in a single maximal cone; defect data is undefined.

    ``.cone`` holds the index of the unique adjacent maximal cone.
    """

    def __init__(self, wall, cone):
        self.wall = wall
        self.cone = cone
        super().__init__(
            f"wall {wall} lies only in maximal cone {cone}; "
            "no defect is defined on a boundary wall"
        )


class NegativeDefect(SingLocusError):
    """Pencil localization needs every edge defect to be >= 0."""
