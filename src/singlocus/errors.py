"""Exception hierarchy shared by all modules, and :func:`in_full` for the
integers their messages quote."""

from decimal import Decimal


def in_full(n: int) -> str:
    """``str(n)`` without the int-to-str digit limit, which decimal does
    not apply."""
    return str(Decimal(n))


class SingLocusError(Exception):
    """Base class for all domain errors raised by this package."""


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
