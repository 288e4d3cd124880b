"""LEQA core: the analytical latency estimation model of the paper."""

# A re-export module: ``__all__`` is computed from the imported names at
# the bottom, which a static unused-import check cannot evaluate.
# ruff: noqa: F401

from .coverage import (
    DEFAULT_MAX_TERMS,
    coverage_probability,
    coverage_probability_histogram,
    expected_coverage_surface,
    expected_coverage_surfaces,
    zone_side,
)
from .estimator import LatencyEstimate, LEQAEstimator, estimate_latency
from .pipeline import StagedPipeline, SweepPoint, ZoneArrays
from .presence import PresenceZones, QubitZone, compute_zones, zone_area
from .queueing import (
    arrival_rate,
    average_wait,
    congested_latency,
    congested_latency_md1,
    congested_latencies,
    congested_latencies_md1,
    latency_profile,
    service_rate,
    vectorized_queue_model,
)
from .validation import (
    CoverageSimulation,
    PathSimulation,
    heuristic_hamiltonian_path_length,
    simulate_coverage_surfaces,
    simulate_hamiltonian_path,
)
from .tsp import (
    expected_hamiltonian_path,
    expected_hamiltonian_paths,
    tsp_tour_estimate,
    tsp_tour_lower_bound,
    tsp_tour_upper_bound,
    UNIT_SQUARE_MEAN_DISTANCE,
)

__all__ = [name for name in dir() if not name.startswith("_")]
