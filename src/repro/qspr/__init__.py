"""QSPR baseline: detailed scheduling, placement and routing on the TQA."""

from .mapper import MappingResult, QSPRMapper, map_circuit
from .placement import (
    PLACEMENT_STRATEGIES,
    iig_greedy_placement,
    make_placement,
    random_placement,
    row_major_placement,
)
from .routing import SlotRouter
from .scheduling import (
    CompiledQODG,
    ScheduleResult,
    ScheduleStats,
    compile_qodg,
    schedule_circuit,
)
from .trace import (
    ScheduleTrace,
    TraceEvent,
    busiest_ulbs,
    qubit_travel,
    to_json_records,
    ulb_utilization,
    write_csv,
)

__all__ = [
    "MappingResult",
    "QSPRMapper",
    "map_circuit",
    "PLACEMENT_STRATEGIES",
    "iig_greedy_placement",
    "make_placement",
    "random_placement",
    "row_major_placement",
    "SlotRouter",
    "CompiledQODG",
    "ScheduleResult",
    "ScheduleStats",
    "compile_qodg",
    "schedule_circuit",
    "ScheduleTrace",
    "TraceEvent",
    "busiest_ulbs",
    "qubit_travel",
    "to_json_records",
    "ulb_utilization",
    "write_csv",
]
