"""Presence-zone coverage statistics — paper Equations (4) and (5).

``P_{x,y}`` is the probability that a presence zone of average area ``B``
placed uniformly at random on the ``a x b`` fabric covers the ULB at
(1-based) position ``(x, y)``:

                min(x, a-x+1, s, a-s+1) * min(y, b-y+1, s, b-s+1)
    P_{x,y}  =  -------------------------------------------------   (Eq. 5)
                         (a - s + 1)(b - s + 1)

with ``s = ceil(sqrt(B))`` the integer zone side.  The numerator counts the
placements of an ``s x s`` zone covering ``(x, y)``; the denominator all
placements of the zone on the fabric (min terms handle the boundary).

``E[S_q]`` is the expected fabric surface covered by exactly ``q`` of the
``Q`` independently placed zones:

    E[S_q] = C(Q, q) sum_x sum_y P^q (1 - P)^(Q - q)          (Eq. 4)

which satisfies ``sum_{q=0..Q} E[S_q] = A`` (Eq. 3).  Evaluating all ``Q``
terms is expensive, so — exactly as the paper does — only the first
``max_terms = 20`` are computed by default; the exact summation remains
available for the truncation ablation.

Implementation notes: the numerator of Eq. 5 factorizes into independent
x and y parts, so instead of iterating all ``A`` ULBs we histogram the
distinct per-axis factor values (at most ~``s`` of them per axis) and sum
over distinct ``P`` values with multiplicities.  Binomial terms are
evaluated in log-space (``lgamma``), keeping 3000-qubit benchmarks stable.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

import numpy as np

from .._validation import (
    require_non_negative_int,
    require_positive_float,
    require_positive_int,
)
from ..exceptions import EstimationError

__all__ = [
    "zone_side",
    "coverage_probability",
    "coverage_probability_histogram",
    "expected_coverage_surface",
    "expected_coverage_surfaces",
    "DEFAULT_MAX_TERMS",
]

#: The paper's practical truncation of Eq. 4: "only the first 20 terms are
#: calculated in practice".
DEFAULT_MAX_TERMS = 20


def zone_side(area: float, fabric_extent: int | None = None) -> int:
    """Integer zone side ``s = ceil(sqrt(B))``, clamped to the fabric.

    A zone wider than the fabric cannot be placed; clamping to the fabric
    extent makes ``P_{x,y} = 1`` everywhere along that axis, the natural
    limit of Eq. 5.
    """
    require_positive_float(area, "area", EstimationError)
    side = math.ceil(math.sqrt(area))
    if fabric_extent is not None:
        require_positive_int(fabric_extent, "fabric_extent", EstimationError)
        side = min(side, fabric_extent)
    return max(side, 1)


def _axis_factor(coord: int, extent: int, side: int) -> int:
    """One min(.) factor of Eq. 5's numerator (1-based coordinate)."""
    return min(coord, extent - coord + 1, side, extent - side + 1)


def coverage_probability(
    x: int, y: int, width: int, height: int, area: float
) -> float:
    """Eq. 5: probability that a random zone covers ULB ``(x, y)``.

    Coordinates are 1-based, matching the paper (``1 <= x <= a``).
    """
    require_positive_int(width, "width", EstimationError)
    require_positive_int(height, "height", EstimationError)
    if not 1 <= x <= width or not 1 <= y <= height:
        raise EstimationError(
            f"position ({x}, {y}) outside 1-based {width}x{height} fabric"
        )
    side_x = zone_side(area, width)
    side_y = zone_side(area, height)
    numerator = _axis_factor(x, width, side_x) * _axis_factor(y, height, side_y)
    denominator = (width - side_x + 1) * (height - side_y + 1)
    return numerator / denominator


def coverage_probability_histogram(
    width: int, height: int, area: float
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``P_{x,y}`` values and their ULB multiplicities.

    Returns ``(values, counts)`` with ``sum(counts) == width * height``.
    Exploits the factorization of Eq. 5 into x and y parts: the per-axis
    factor takes at most ``min(side, ceil(extent / 2))`` distinct values.
    Memoized per ``(width, height, area)`` like :func:`_surfaces_memo`
    (the truncation guard asks for it on every run), so both arrays are
    read-only.
    """
    require_positive_int(width, "width", EstimationError)
    require_positive_int(height, "height", EstimationError)
    return _histogram_memo(
        width, height, require_positive_float(area, "area", EstimationError)
    )


@functools.lru_cache(maxsize=4096)
def _histogram_memo(
    width: int, height: int, area: float
) -> tuple[np.ndarray, np.ndarray]:
    side_x = zone_side(area, width)
    side_y = zone_side(area, height)
    x_counts = Counter(
        _axis_factor(x, width, side_x) for x in range(1, width + 1)
    )
    y_counts = Counter(
        _axis_factor(y, height, side_y) for y in range(1, height + 1)
    )
    denominator = (width - side_x + 1) * (height - side_y + 1)
    products: Counter[int] = Counter()
    for fx, cx in x_counts.items():
        for fy, cy in y_counts.items():
            products[fx * fy] += cx * cy
    items = sorted(products.items())
    values = np.array([numerator for numerator, _ in items], dtype=float)
    values /= denominator
    counts = np.array([count for _, count in items], dtype=float)
    values.flags.writeable = False
    counts.flags.writeable = False
    return values, counts


def _log_binomial(total: int, chosen: int) -> float:
    """``log C(total, chosen)`` via lgamma."""
    return (
        math.lgamma(total + 1)
        - math.lgamma(chosen + 1)
        - math.lgamma(total - chosen + 1)
    )


def expected_coverage_surface(
    overlap: int, num_zones: int, width: int, height: int, area: float
) -> float:
    """Eq. 4: ``E[S_q]`` for a single overlap count ``q``.

    Parameters
    ----------
    overlap:
        ``q`` — the exact number of zones covering a ULB (``0 <= q <= Q``).
    num_zones:
        ``Q`` — the number of presence zones (logical qubits).
    width, height:
        Fabric dimensions ``a`` and ``b``.
    area:
        Average zone area ``B``.
    """
    require_non_negative_int(overlap, "overlap", EstimationError)
    require_positive_int(num_zones, "num_zones", EstimationError)
    if overlap > num_zones:
        raise EstimationError(
            f"overlap {overlap} exceeds the number of zones {num_zones}"
        )
    values, counts = coverage_probability_histogram(width, height, area)
    return float(
        _surface_terms(np.array([overlap]), num_zones, values, counts)[0]
    )


def _surface_terms(
    overlaps: np.ndarray,
    num_zones: int,
    values: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Vectorized Eq. 4 over multiple ``q`` values (log-space binomials).

    All requested overlap counts are evaluated in a single 2D log-space
    expression ``log C(Q,q) + q log P + (Q-q) log(1-P)`` of shape
    ``(len(overlaps), len(values))``, folded over the distinct-probability
    histogram with one matrix-vector product — no per-``q`` Python loop.
    """
    overlaps = np.asarray(overlaps)
    results = np.zeros(len(overlaps))
    # Split degenerate probabilities to keep the log-space path finite.
    interior = (values > 0.0) & (values < 1.0)
    vals = values[interior]
    cnts = counts[interior]
    if len(vals) and len(overlaps):
        qs = overlaps.astype(float)
        log_choose = np.array(
            [_log_binomial(num_zones, int(q)) for q in overlaps]
        )
        log_terms = (
            log_choose[:, None]
            + qs[:, None] * np.log(vals)[None, :]
            + (num_zones - qs)[:, None] * np.log1p(-vals)[None, :]
        )
        results += np.exp(log_terms) @ cnts
    ones_count = float(counts[values >= 1.0].sum())
    zeros_count = float(counts[values <= 0.0].sum())
    if ones_count:
        results[overlaps == num_zones] += ones_count
    if zeros_count:
        results[overlaps == 0] += zeros_count
    return results


@functools.lru_cache(maxsize=4096)
def _surfaces_memo(
    num_zones: int,
    width: int,
    height: int,
    area: float,
    max_terms: int | None,
) -> tuple[float, ...]:
    """Memoized Eq. 4 series, keyed on the exact parameter tuple.

    Parameter sweeps revisit the same ``(Q, a, b, B, k)`` point for every
    configuration that varies something else (delays, queue model,
    placement, ...); caching the series here removes the 20-term
    recomputation from all of them.  The tuple return keeps cached values
    immutable; callers get a fresh list.
    """
    limit = num_zones if max_terms is None else min(num_zones, max_terms)
    values, counts = coverage_probability_histogram(width, height, area)
    overlaps = np.arange(1, limit + 1)
    return tuple(_surface_terms(overlaps, num_zones, values, counts))


def expected_coverage_surfaces(
    num_zones: int,
    width: int,
    height: int,
    area: float,
    max_terms: int | None = DEFAULT_MAX_TERMS,
) -> list[float]:
    """``[E[S_1], ..., E[S_k]]`` with ``k = min(Q, max_terms)``.

    ``max_terms=None`` computes the exact full series ``q = 1 .. Q`` (used
    by the truncation ablation); the default 20 matches the paper.  Note
    ``E[S_0]`` is excluded, as Eq. 2 normalizes over occupied surface only.
    Results are memoized per parameter tuple (see :func:`_surfaces_memo`).
    """
    require_positive_int(num_zones, "num_zones", EstimationError)
    if max_terms is not None:
        require_positive_int(max_terms, "max_terms", EstimationError)
    return list(
        _surfaces_memo(num_zones, width, height, float(area), max_terms)
    )
