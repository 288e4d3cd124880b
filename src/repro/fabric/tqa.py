"""Tiled quantum architecture geometry.

The TQA (paper Figure 1) is a ``width x height`` grid of ULBs separated by
routing channels.  This module provides the coordinate algebra the QSPR
mapper places over: ULB positions, their validation and row-major
indexing, and Manhattan distances.  Routing works on flat node and
channel ids instead (:class:`~repro.qspr.routing.SlotRouter`).

Coordinates are 0-based ``(x, y)`` tuples with ``0 <= x < width`` and
``0 <= y < height`` (the paper's equations use 1-based positions; the
coverage model in :mod:`repro.core.coverage` handles that internally).
"""

from __future__ import annotations

from typing import Iterator

from ..exceptions import FabricError
from .params import FabricSpec

__all__ = ["Position", "TQA"]

#: A ULB grid coordinate.
Position = tuple[int, int]


class TQA:
    """Geometry helper over a :class:`FabricSpec` grid."""

    def __init__(self, spec: FabricSpec) -> None:
        self._spec = spec

    @property
    def spec(self) -> FabricSpec:
        """The underlying fabric specification."""
        return self._spec

    @property
    def width(self) -> int:
        """Grid width (the paper's ``a``)."""
        return self._spec.width

    @property
    def height(self) -> int:
        """Grid height (the paper's ``b``)."""
        return self._spec.height

    @property
    def area(self) -> int:
        """ULB count ``A = a * b``."""
        return self._spec.area

    def contains(self, position: Position) -> bool:
        """Whether the coordinate lies on the grid."""
        x, y = position
        return 0 <= x < self.width and 0 <= y < self.height

    def check(self, position: Position) -> Position:
        """Validate a coordinate, returning it unchanged.

        Raises
        ------
        FabricError
            If the coordinate is off-grid.
        """
        if not self.contains(position):
            raise FabricError(
                f"position {position} outside {self.width}x{self.height} fabric"
            )
        return position

    def positions(self) -> Iterator[Position]:
        """Iterate over every ULB coordinate in row-major order."""
        for y in range(self.height):
            for x in range(self.width):
                yield (x, y)

    def index(self, position: Position) -> int:
        """Row-major linear index of a ULB."""
        x, y = self.check(position)
        return y * self.width + x

    def position(self, index: int) -> Position:
        """Inverse of :meth:`index`."""
        if not 0 <= index < self.area:
            raise FabricError(f"ULB index {index} out of range")
        return (index % self.width, index // self.width)

    @staticmethod
    def manhattan(source: Position, target: Position) -> int:
        """Manhattan (hop) distance between two ULBs."""
        return abs(source[0] - target[0]) + abs(source[1] - target[1])

    def __repr__(self) -> str:
        return f"TQA({self.width}x{self.height})"
