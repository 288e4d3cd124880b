"""Dependency-graph layer: QODG, critical path, and the IIG."""

from .critical_path import CriticalPathResult, critical_path
from .graph import QODG, build_qodg
from .iig import IIG, build_iig
from .slack import SlackAnalysis, analyze_slack, critical_set_shift
from .stats import QODGStats, compute_stats, parallelism_profile
from .sweep import sweep_critical_path

__all__ = [
    "SlackAnalysis",
    "analyze_slack",
    "critical_set_shift",
    "QODGStats",
    "compute_stats",
    "parallelism_profile",
    "QODG",
    "build_qodg",
    "CriticalPathResult",
    "critical_path",
    "IIG",
    "build_iig",
    "sweep_critical_path",
]
