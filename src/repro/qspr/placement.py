"""Initial qubit placement strategies for the QSPR baseline mapper.

The detailed mapper needs a starting assignment of logical qubits to ULBs.
Three strategies are provided:

* ``row_major`` — deterministic left-to-right fill; the weakest baseline.
* ``random`` — uniform random (seeded); mirrors the estimator's own
  random-placement assumption.
* ``iig_greedy`` — interaction-aware (default): qubits are placed in
  decreasing order of interaction weight, each at the free ULB nearest the
  weighted centroid of its already-placed IIG neighbours.  This is the
  class of clustering heuristic the QSPR literature uses to keep
  communicating qubits close.

When there are more qubits than ULBs, every strategy overflows gracefully
by allowing several qubits per ULB (ULBs store logical qubits; execution
contention is handled by the scheduler, not the placement).
"""

from __future__ import annotations

import random
from typing import Iterator

from ..exceptions import MappingError
from ..fabric.tqa import Position, TQA
from ..qodg.iig import IIG

__all__ = [
    "row_major_placement",
    "random_placement",
    "iig_greedy_placement",
    "make_placement",
    "PLACEMENT_STRATEGIES",
]


def row_major_placement(num_qubits: int, tqa: TQA) -> list[Position]:
    """Qubit ``i`` at ULB ``i mod A`` in row-major order."""
    if num_qubits < 0:
        raise MappingError("num_qubits must be non-negative")
    area = tqa.area
    return [tqa.position(i % area) for i in range(num_qubits)]


def random_placement(
    num_qubits: int, tqa: TQA, seed: int = 0
) -> list[Position]:
    """Uniform random ULB per qubit (with replacement once the fabric is
    saturated; without replacement before that)."""
    if num_qubits < 0:
        raise MappingError("num_qubits must be non-negative")
    rng = random.Random(seed)
    area = tqa.area
    if num_qubits <= area:
        indices = rng.sample(range(area), num_qubits)
    else:
        indices = [rng.randrange(area) for _ in range(num_qubits)]
    return [tqa.position(i) for i in indices]


def _spiral(tqa: TQA, center: Position) -> Iterator[Position]:
    """ULBs in non-decreasing distance order around ``center``.

    Yields the center first, then each Chebyshev ring with its candidates
    sorted by Manhattan distance (orthogonal neighbours before diagonals),
    then by coordinate for determinism — the search pattern used to find
    the nearest free ULB.
    """
    cx, cy = center
    max_radius = max(
        cx, tqa.width - 1 - cx, cy, tqa.height - 1 - cy
    )
    if tqa.contains(center):
        yield center
    for radius in range(1, max_radius + 1):
        ring: list[Position] = []
        for dx in range(-radius, radius + 1):
            for dy in (-radius, radius):
                candidate = (cx + dx, cy + dy)
                if tqa.contains(candidate):
                    ring.append(candidate)
        for dy in range(-radius + 1, radius):
            for dx in (-radius, radius):
                candidate = (cx + dx, cy + dy)
                if tqa.contains(candidate):
                    ring.append(candidate)
        ring.sort(key=lambda p: (TQA.manhattan(p, center), p))
        yield from ring


def iig_greedy_placement(iig: IIG, tqa: TQA) -> list[Position]:
    """Interaction-aware greedy placement (the mapper's default).

    Qubits are visited in decreasing adjacent-weight order.  The first (and
    any interaction-free qubit) goes to the nearest free ULB around the
    fabric centre; every other qubit goes to the nearest free ULB around
    the weighted centroid of its already-placed neighbours.  Once all ULBs
    hold a qubit, placement continues in storage-overflow mode (several
    qubits per ULB) using the centroid ULB directly.

    Works off the IIG's CSR arrays: visit order comes from the weight-sum
    vector and centroids accumulate along neighbour rows (stored in
    first-interaction order, so every way of building the graph places
    alike).
    """
    num_qubits = iig.num_qubits
    weight_sums = iig.weight_sums.tolist()
    indptr = iig.indptr.tolist()
    indices = iig.indices.tolist()
    weights = iig.weights.tolist()
    order = sorted(
        range(num_qubits),
        key=lambda q: (-weight_sums[q], q),
    )
    center = (tqa.width // 2, tqa.height // 2)
    occupied: set[Position] = set()
    locations: list[Position | None] = [None] * num_qubits
    fabric_full = False
    for qubit in order:
        anchor = center
        total = 0
        sum_x = 0
        sum_y = 0
        for slot in range(indptr[qubit], indptr[qubit + 1]):
            location = locations[indices[slot]]
            if location is None:
                continue
            weight = weights[slot]
            total += weight
            sum_x += location[0] * weight
            sum_y += location[1] * weight
        if total:
            cx = sum_x / total
            cy = sum_y / total
            anchor = (int(round(cx)), int(round(cy)))
            anchor = (
                min(max(anchor[0], 0), tqa.width - 1),
                min(max(anchor[1], 0), tqa.height - 1),
            )
        if fabric_full:
            locations[qubit] = anchor
            continue
        chosen = None
        for candidate in _spiral(tqa, anchor):
            if candidate not in occupied:
                chosen = candidate
                break
        if chosen is None:
            fabric_full = True
            locations[qubit] = anchor
        else:
            occupied.add(chosen)
            locations[qubit] = chosen
        if len(occupied) == tqa.area:
            fabric_full = True
    return [loc for loc in locations]  # type: ignore[misc]


#: Strategy-name registry used by the mapper facade and the CLI.
PLACEMENT_STRATEGIES = ("iig_greedy", "row_major", "random")


def make_placement(
    strategy: str, iig: IIG, tqa: TQA, seed: int = 0
) -> list[Position]:
    """Dispatch on a strategy name.

    Raises
    ------
    MappingError
        For unknown strategy names.
    """
    if strategy == "iig_greedy":
        return iig_greedy_placement(iig, tqa)
    if strategy == "row_major":
        return row_major_placement(iig.num_qubits, tqa)
    if strategy == "random":
        return random_placement(iig.num_qubits, tqa, seed=seed)
    raise MappingError(
        f"unknown placement strategy {strategy!r}; "
        f"choose from {PLACEMENT_STRATEGIES}"
    )
