"""Presence zones — paper Equations (6) and (7).

Each logical qubit ``n_i`` is assigned a hypothetical square *presence
zone* in which it performs most of its interactions.  Its area is modelled
from the qubit's IIG degree ``M_i``:

    B_i = sqrt(M_i + 1) x sqrt(M_i + 1) = M_i + 1            (Eq. 6)

(the ``+1`` accounts for the qubit itself).  The fleet-average zone area is
the weighted mean over qubits, the weight of ``n_i`` being its adjacent
edge-weight sum — qubits involved in more two-qubit operations count more:

    B = sum_i w_i * B_i / sum_i w_i,   w_i = sum_j w(e_ij)   (Eq. 7)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import EstimationError
from ..qodg.iig import IIG

__all__ = ["zone_area", "QubitZone", "PresenceZones", "compute_zones"]


def zone_area(degree: int) -> float:
    """``B_i = M_i + 1`` — square zone area for IIG degree ``M_i`` (Eq. 6)."""
    if degree < 0:
        raise EstimationError(f"IIG degree must be non-negative, got {degree}")
    return float(degree + 1)


@dataclass(frozen=True)
class QubitZone:
    """Per-qubit presence-zone parameters.

    Attributes
    ----------
    qubit:
        Logical qubit index.
    degree:
        ``M_i`` — number of distinct interaction partners.
    weight:
        ``sum_j w(e_ij)`` — total two-qubit operations involving the qubit.
    area:
        ``B_i = M_i + 1``.
    """

    qubit: int
    degree: int
    weight: int
    area: float


class PresenceZones:
    """All per-qubit zones plus the weighted-average area ``B``."""

    def __init__(self, zones: list[QubitZone]) -> None:
        self._zones = list(zones)
        total_weight = sum(z.weight for z in self._zones)
        self._total_weight = total_weight
        if total_weight > 0:
            self._average_area = (
                sum(z.weight * z.area for z in self._zones) / total_weight
            )
        else:
            # No two-qubit operations anywhere: every zone is the qubit
            # alone.  B degenerates to a single-ULB zone.
            self._average_area = 1.0

    @property
    def zones(self) -> tuple[QubitZone, ...]:
        """Per-qubit zone records, indexed by qubit."""
        return tuple(self._zones)

    @property
    def average_area(self) -> float:
        """``B`` — the weighted-average presence-zone area (Eq. 7)."""
        return self._average_area

    @property
    def total_weight(self) -> int:
        """``sum_i sum_j w(e_ij)`` = twice the number of two-qubit ops."""
        return self._total_weight

    @property
    def num_qubits(self) -> int:
        """Number of logical qubits ``Q``."""
        return len(self._zones)

    def __getitem__(self, qubit: int) -> QubitZone:
        return self._zones[qubit]

    def __len__(self) -> int:
        return len(self._zones)

    def __repr__(self) -> str:
        return (
            f"PresenceZones(qubits={len(self._zones)}, "
            f"B={self._average_area:.3f})"
        )


def compute_zones(iig: IIG) -> PresenceZones:
    """Build :class:`PresenceZones` from an interaction intensity graph.

    Reads the per-qubit ``M_i``/weight-sum vectors off the IIG's arrays.
    """
    degrees = iig.degrees.tolist()
    weights = iig.weight_sums.tolist()
    zones = [
        QubitZone(
            qubit=q,
            degree=degree,
            weight=weight,
            area=zone_area(degree),
        )
        for q, (degree, weight) in enumerate(zip(degrees, weights))
    ]
    return PresenceZones(zones)
