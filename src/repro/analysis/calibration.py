"""Qubit-speed calibration against a reference mapper.

The paper introduces the fabric parameter ``v`` (qubit speed through the
channels) and notes it "also can be used for tuning the LEQA with
different quantum mappers".  This module implements that tuning: given a
calibration circuit and the actual latency measured by a mapper, solve for
the ``v`` that makes LEQA's estimate match.

The structure of the model makes this a one-dimensional monotone problem:
``d_uncong`` (Eq. 12/16) is proportional to ``1/v``, every ``d_q`` (Eq. 8)
is proportional to ``d_uncong``, hence ``L_CNOT^avg`` (Eq. 2) equals
``K / v`` for a circuit-dependent constant ``K``, and the critical-path
latency is non-decreasing in ``L_CNOT^avg``.  A bisection on
``L_CNOT^avg`` therefore converges globally; ``v = K / L*`` recovers the
speed.
"""

from __future__ import annotations

from dataclasses import replace

from ..circuits.circuit import Circuit
from ..core.estimator import LEQAEstimator
from ..core.presence import compute_zones
from ..exceptions import EstimationError
from ..fabric.params import PhysicalParams
from ..qodg.critical_path import kind_delay_lut
from ..qodg.iig import build_iig
from ..qodg.sweep import sweep_critical_path_lengths

__all__ = ["calibrate_qubit_speed"]


def calibrate_qubit_speed(
    circuit: Circuit,
    params: PhysicalParams,
    target_latency: float,
    tolerance: float = 1e-6,
    max_iterations: int = 200,
) -> float:
    """Find ``v`` such that LEQA's estimate equals ``target_latency``.

    Parameters
    ----------
    circuit:
        FT calibration circuit (typically a small benchmark).
    params:
        Physical parameters whose ``qubit_speed`` is to be tuned; all
        other fields are used as-is.
    target_latency:
        The mapper-measured latency, in microseconds.
    tolerance:
        Relative convergence tolerance on the latency match.
    max_iterations:
        Bisection iteration cap.

    Returns
    -------
    float
        The calibrated ``v``.

    Raises
    ------
    EstimationError
        If the target is unreachable: below the routing-free critical path
        (no positive ``L_CNOT^avg`` can be that fast) or the circuit has no
        CNOTs (latency is independent of ``v``).
    """
    if target_latency <= 0:
        raise EstimationError(
            f"target latency must be positive, got {target_latency}"
        )
    iig = build_iig(circuit)
    zones = compute_zones(iig)
    # K: L_CNOT^avg at unit speed; scales as 1/v.
    unit_params = replace(params, qubit_speed=1.0)
    probe = LEQAEstimator(params=unit_params)
    d_uncong_unit = probe.uncongested_latency(zones)
    l_cnot_unit, _ = probe.average_cnot_latency(
        circuit.num_qubits, zones, d_uncong_unit
    )
    if l_cnot_unit <= 0:
        raise EstimationError(
            "circuit has no CNOT routing component; qubit speed cannot be "
            "calibrated on it"
        )

    table = circuit.table()

    def latency_at(l_cnot: float) -> float:
        lut = kind_delay_lut(probe.node_delay(l_cnot))
        return float(sweep_critical_path_lengths(table, lut[:, None])[0])

    floor = latency_at(0.0)
    if target_latency <= floor:
        raise EstimationError(
            f"target latency {target_latency} µs is at or below the "
            f"routing-free critical path ({floor} µs); no positive "
            "routing latency can match it"
        )
    # Bracket L* from above by doubling.
    low, high = 0.0, max(l_cnot_unit, 1.0)
    for _ in range(200):
        if latency_at(high) >= target_latency:
            break
        high *= 2.0
    else:  # pragma: no cover - would need absurd targets
        raise EstimationError("failed to bracket the calibration target")
    for _ in range(max_iterations):
        mid = 0.5 * (low + high)
        value = latency_at(mid)
        if abs(value - target_latency) <= tolerance * target_latency:
            low = high = mid
            break
        if value < target_latency:
            low = mid
        else:
            high = mid
    l_star = 0.5 * (low + high)
    if l_star <= 0:
        raise EstimationError("calibration collapsed to zero routing latency")
    return l_cnot_unit / l_star
