"""Event-driven scheduler of the QSPR baseline mapper.

Schedules a fault-tolerant circuit's operations on the TQA, producing the
"actual" latency the paper obtains from its detailed mapper.  The three
intertwined mapping steps are realized as:

* **scheduling** — operations are visited in program order (a topological
  order of the QODG); each starts as soon as its operand qubits are free
  and delivered, and its ULB is available.  All data dependencies flow
  through shared qubits, so qubit-readiness tracking enforces the QODG
  exactly.
* **placement** — the initial assignment comes from
  :mod:`repro.qspr.placement`; afterwards qubits *move*: CNOT operands
  travel to a meeting ULB and stay there, which continually re-places the
  machine state (the "dynamically moveable cells" the paper contrasts with
  VLSI placement).
* **routing** — every journey reserves capacity-limited channel slots, so
  congestion delays emerge from overlapping traffic.

One-qubit operations execute in the qubit's resident ULB when it is free,
otherwise the scheduler weighs waiting against hopping to the best
neighbouring ULB (the paper's "nearest free ULB" rule, the origin of its
empirical ``L_g^avg = 2 T_move``).

ULBs are *execution*-exclusive (one operation at a time) but can store any
number of idle qubits, matching the paper's observation that several
operations may share a ULB across different time slots.

Two engines implement the identical schedule:

``"array"`` (default)
    Slot-indexed, structure-of-arrays engine: the circuit is first
    *compiled* to flat operand/delay arrays (:class:`CompiledQODG`),
    qubit positions and ULB-free times live in flat lists indexed by
    integer ULB id, and routing goes through
    :class:`~repro.qspr.routing.SlotRouter` (staircase fast path +
    int-encoded maze search).  It is the pure-Python reference of the
    compiled loop and the only engine that records traces.

``"kernel"``
    The same loop compiled to native code (:mod:`repro.qspr._kernel`):
    one C translation of the array engine plus its router, built with
    the system C compiler on first use and driven through ``ctypes``.
    When the kernel cannot be built or loaded (no compiler, hidden
    module), scheduling falls back to ``"array"`` with a
    ``RuntimeWarning`` — the pure-Python path is always available.
    Trace-recording runs stay on the array path (the trace needs
    per-gate Python objects anyway).

The schedule is a bitwise contract: both engines must reproduce the
frozen schedule digests of ``tests/test_scheduling_equivalence.py``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import GateKind
from ..circuits.table import FT_CODE_MASK, GateTable
from ..exceptions import MappingError
from ..fabric.params import PhysicalParams
from ..fabric.tqa import Position, TQA
from ..obs import default_registry
from ..qodg.critical_path import first_missing_kind, kind_delay_lut
from .routing import SlotRouter, check_routing_mode
from .trace import ScheduleTrace, TraceEvent

__all__ = [
    "ScheduleStats",
    "ScheduleResult",
    "CompiledQODG",
    "compile_qodg",
    "delays_table_token",
    "schedule_circuit",
    "SCHEDULER_ENGINES",
]

#: Supported scheduler engine names.
SCHEDULER_ENGINES = ("array", "kernel")


@dataclass(frozen=True)
class ScheduleStats:
    """Aggregate behaviour of one mapping run.

    Attributes
    ----------
    total_moves / total_hops:
        Qubit journeys routed and channel segments crossed.
    congestion_wait:
        Total µs spent queueing for busy channels.
    relocations:
        One-qubit operations that hopped to a neighbouring ULB instead of
        waiting for their busy home ULB.
    cnot_count / one_qubit_count:
        Operations executed by class.
    """

    total_moves: int
    total_hops: int
    congestion_wait: float
    relocations: int
    cnot_count: int
    one_qubit_count: int


@dataclass(frozen=True)
class ScheduleResult:
    """Latency and diagnostics of a detailed mapping run.

    ``latency`` is the makespan in microseconds — the paper's "actual
    delay" for the benchmark.  ``finish_times`` holds each operation's
    completion time in program order (useful for tests and slack studies).
    ``trace`` carries the full per-operation execution record when tracing
    was requested, else ``None``.
    """

    latency: float
    finish_times: tuple[float, ...]
    final_locations: tuple[Position, ...]
    stats: ScheduleStats
    trace: "ScheduleTrace | None" = None

    @property
    def latency_seconds(self) -> float:
        """Makespan in seconds (the unit of the paper's Table 2)."""
        return self.latency * 1e-6


@dataclass(frozen=True)
class CompiledQODG:
    """The scheduler's structure-of-arrays view of an FT circuit.

    The per-op Python objects (gates, kind enums, operand tuples) are
    flattened once into three parallel numpy arrays, so the scheduling
    loop touches only scalar ints and floats.  The artifact depends on
    the circuit content and the gate-delay table alone, not on fabric
    geometry, and takes a single vectorized gather to build, so it is
    compiled per schedule rather than cached.

    Attributes
    ----------
    num_qubits:
        Register size of the compiled circuit.
    q0:
        First operand per op: the control of a CNOT, the target of a
        one-qubit gate (``int64``).
    q1:
        Second operand per op: the target of a CNOT, ``-1`` for
        one-qubit gates (``int64``).
    delays:
        Base execution delay per op in µs (``float64``).
    table:
        The :class:`~repro.circuits.table.GateTable` the ops were
        gathered from.  The scheduler reuses a prebuilt artifact only for
        a circuit whose :meth:`~repro.circuits.circuit.Circuit.table` is
        this very object, which holds until that circuit grows.
    delays_token:
        Canonical token of the gate-delay table the ops were compiled
        under; a prebuilt artifact is ignored when the scheduling call's
        delays differ.
    """

    num_qubits: int
    q0: "object"
    q1: "object"
    delays: "object"
    table: GateTable
    delays_token: tuple

    @property
    def num_ops(self) -> int:
        """Number of compiled operations."""
        return len(self.delays)


def compile_qodg(
    circuit: Circuit,
    delays: dict[GateKind, float] | None = None,
) -> CompiledQODG:
    """Flatten an FT circuit into :class:`CompiledQODG` arrays.

    One vectorized pass over the circuit's gate table: the operands are
    :meth:`~repro.circuits.table.GateTable.operand_pairs` and the base
    delays one :func:`~repro.qodg.critical_path.kind_delay_lut` gather
    over the kind column.  Only FT kinds are executable, whatever else
    ``delays`` names.

    Raises
    ------
    MappingError
        If a gate kind has no fabric delay (non-FT circuit), naming the
        first offending gate's kind.
    """
    if delays is None:
        from ..fabric.params import GateDelays

        delays = GateDelays().by_kind()
    table = circuit.table()
    lut = kind_delay_lut(delays)
    lut[~FT_CODE_MASK] = np.nan
    missing = first_missing_kind(lut, table.kind)
    if missing is not None:
        raise MappingError(
            f"gate kind {missing.value!r} is not executable on the "
            "fabric; run synthesize_ft() first"
        )
    q0, q1 = table.operand_pairs()
    return CompiledQODG(
        num_qubits=circuit.num_qubits,
        q0=np.ascontiguousarray(q0, dtype=np.int64),
        q1=np.ascontiguousarray(q1, dtype=np.int64),
        delays=lut[table.kind],
        table=table,
        delays_token=delays_table_token(delays),
    )


def delays_table_token(delays: dict[GateKind, float]) -> tuple:
    """Canonical hashable token of a kind→delay table (compile identity)."""
    return tuple(sorted((kind.value, float(d)) for kind, d in delays.items()))


def _alap_order(circuit: Circuit, delays: dict) -> list[int]:
    """Operation indices in ALAP-priority list-scheduling order.

    Critical operations (smallest latest-start under base delays) are
    visited first among ready candidates.  The returned sequence is a
    valid topological order of the QODG, produced with a ready-heap over
    QODG in-degrees, releasing successors from flat CSR successor slices.
    """
    import heapq

    from ..qodg.graph import build_qodg
    from ..qodg.slack import analyze_slack

    qodg = build_qodg(circuit)
    analysis = analyze_slack(qodg, delays)
    indegree = qodg.op_indegrees().tolist()
    succ_indptr = qodg.succ_indptr.tolist()
    succ_indices = qodg.succ_indices.tolist()
    alap_start = analysis.alap_start
    heap = [
        (alap_start[node], node)
        for node in range(qodg.num_ops)
        if indegree[node] == 0
    ]
    heapq.heapify(heap)
    order: list[int] = []
    end = qodg.end
    while heap:
        _, node = heapq.heappop(heap)
        order.append(node)
        for succ in succ_indices[succ_indptr[node] : succ_indptr[node + 1]]:
            if succ == end:
                continue
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(heap, (alap_start[succ], succ))
    if len(order) != qodg.num_ops:  # pragma: no cover - DAG by construction
        raise MappingError("scheduling order did not cover all operations")
    return order


def schedule_circuit(
    circuit: Circuit,
    placement: list[Position],
    params: PhysicalParams,
    routing_mode: str = "maze",
    record_trace: bool = False,
    order: str = "program",
    engine: str = "array",
    compiled: CompiledQODG | None = None,
) -> ScheduleResult:
    """Run the event-driven mapper on an FT circuit.

    Parameters
    ----------
    circuit:
        Fault-tolerant circuit (only FT gate kinds are executable).
    placement:
        Initial ULB per logical qubit.
    params:
        Physical parameters (delays, channel capacity, ``T_move``).
    routing_mode:
        ``"maze"`` (congestion-aware, default) or ``"xy"``.
    record_trace:
        Record a :class:`~repro.qspr.trace.TraceEvent` per operation
        (memory-proportional to the gate count; off by default).
    order:
        Visit order for operations: ``"program"`` (default; program order,
        itself a topological order) or ``"alap"`` (list scheduling by
        ALAP priority — critical operations claim resources first).
    engine:
        ``"array"`` (default; slot-indexed structure-of-arrays engine),
        ``"kernel"`` (the same loop compiled to native code, falling
        back to ``"array"`` with a warning when unavailable).  Both
        produce bitwise identical results.
    compiled:
        Optional prebuilt :class:`CompiledQODG` of the same circuit under
        the same delay table.

    Raises
    ------
    MappingError
        If the placement size mismatches the circuit, a non-FT gate is
        encountered, or an option name is unknown.
    """
    if engine not in SCHEDULER_ENGINES:
        raise MappingError(
            f"unknown scheduler engine {engine!r}; choose from "
            f"{SCHEDULER_ENGINES}"
        )
    if len(placement) != circuit.num_qubits:
        raise MappingError(
            f"placement covers {len(placement)} qubits but the circuit has "
            f"{circuit.num_qubits}"
        )
    tqa = TQA(params.fabric)
    for position in placement:
        tqa.check(position)
    delays = params.delays.by_kind()
    # A prebuilt artifact must have been gathered from this circuit's
    # own table under the same delay table; anything else is silently
    # recompiled (never trusted).
    if (
        compiled is None
        or compiled.table is not circuit.table()
        or compiled.delays_token != delays_table_token(delays)
    ):
        compiled = compile_qodg(circuit, delays)
    check_routing_mode(routing_mode)
    if order == "program":
        visit_order = range(compiled.num_ops)
    elif order == "alap":
        visit_order = _alap_order(circuit, delays)
    else:
        raise MappingError(
            f"unknown scheduling order {order!r}; choose 'program' or 'alap'"
        )
    # The compiled kernel covers the untraced loop; tracing needs the
    # per-gate Python objects, so it stays on the (identical) array path.
    if engine == "kernel" and not record_trace:
        result = _schedule_kernel(
            compiled, placement, params, routing_mode, visit_order
        )
        if result is not None:
            return result
    router = SlotRouter(
        params.fabric.width,
        params.fabric.height,
        params.channel_capacity,
        params.t_move,
        mode=routing_mode,
    )
    return _schedule_array(
        circuit, compiled, placement, params, router, record_trace,
        visit_order,
    )


def _schedule_kernel(
    compiled: CompiledQODG,
    placement: list[Position],
    params: PhysicalParams,
    routing_mode: str,
    visit_order,
) -> ScheduleResult | None:
    """Drive the compiled C loop; ``None`` means "fall back to array".

    The kernel import/compile is attempted lazily per call so a hidden
    module or missing compiler degrades to the pure-Python engine with a
    :class:`RuntimeWarning` instead of failing the schedule.
    """
    try:
        from . import _kernel

        height = params.fabric.height
        initial = np.array(
            [x * height + y for x, y in placement], dtype=np.int64
        )
        order_array = np.asarray(
            visit_order
            if not isinstance(visit_order, range)
            else np.arange(compiled.num_ops),
            dtype=np.int64,
        )
        finish_times, qloc, stats_ints, total_wait = _kernel.schedule_arrays(
            compiled.q0,
            compiled.q1,
            compiled.delays,
            order_array,
            compiled.num_qubits,
            params.fabric.width,
            height,
            params.channel_capacity,
            params.t_move,
            routing_mode,
            initial,
        )
    except (ImportError, AttributeError, OSError, RuntimeError) as error:
        warnings.warn(
            f"compiled scheduler kernel unavailable ({error}); falling "
            "back to engine='array'",
            RuntimeWarning,
            stacklevel=3,
        )
        default_registry().inc("kernel.fallbacks", entry="schedule")
        return None
    moves, hops, relocations, cnot_count, one_qubit_count = stats_ints
    finish_list = finish_times.tolist()
    stats = ScheduleStats(
        total_moves=moves,
        total_hops=hops,
        congestion_wait=total_wait,
        relocations=relocations,
        cnot_count=cnot_count,
        one_qubit_count=one_qubit_count,
    )
    return ScheduleResult(
        latency=max(finish_list, default=0.0),
        finish_times=tuple(finish_list),
        final_locations=tuple(
            divmod(node, params.fabric.height) for node in qloc.tolist()
        ),
        stats=stats,
        trace=None,
    )


def _schedule_array(
    circuit: Circuit,
    compiled: CompiledQODG,
    placement: list[Position],
    params: PhysicalParams,
    router: SlotRouter,
    record_trace: bool,
    visit_order,
) -> ScheduleResult:
    """Slot-indexed scheduling loop over the compiled op arrays.

    Every quantity the loop touches is a scalar read out of a flat list:
    qubit positions and ready times indexed by qubit, ULB execution-free
    times indexed by integer ULB id, operands/delays indexed by op.  The
    compiled kernel mirrors this loop expression for expression, so the
    two engines' schedules are bitwise identical.
    """
    height = params.fabric.height
    width = params.fabric.width
    t_move = params.t_move
    num_ops = compiled.num_ops
    op_q0 = compiled.q0.tolist()
    op_q1 = compiled.q1.tolist()
    op_delay = compiled.delays.tolist()
    qloc = [x * height + y for x, y in placement]
    qready = [0.0] * compiled.num_qubits
    ulb_free = [0.0] * (width * height)
    finish_times = [0.0] * num_ops
    events: list[TraceEvent] = []
    relocations = 0
    cnot_count = 0
    one_qubit_count = 0
    move = router.move
    max_x = width - 1
    max_y = height - 1
    gates = circuit.gates if record_trace else None

    for op_index in visit_order:
        partner = op_q1[op_index]
        base_delay = op_delay[op_index]
        if partner >= 0:
            cnot_count += 1
            control = op_q0[op_index]
            loc_c = qloc[control]
            loc_t = qloc[partner]
            ready_c = qready[control]
            ready_t = qready[partner]
            cx, cy = divmod(loc_c, height)
            tx, ty = divmod(loc_t, height)
            # Meeting-point heuristic: the midpoint of the X-then-Y
            # route, in closed form.
            if loc_c == loc_t:
                mx, my = cx, cy
            else:
                dx = tx - cx
                dy = ty - cy
                adx = dx if dx >= 0 else -dx
                ady = dy if dy >= 0 else -dy
                # Node (d + 1) // 2 of the d+1-node X-then-Y path.
                m = (adx + ady + 1) // 2
                if m <= adx:
                    mx = cx + m if dx >= 0 else cx - m
                    my = cy
                else:
                    rem = m - adx
                    mx = tx
                    my = cy + rem if dy >= 0 else cy - rem
            # Candidate meeting ULBs: the midpoint and its grid
            # neighbours; pick the earliest estimated start, ties broken
            # toward the smaller (x, y).
            best_node = -1
            best_est = float("inf")
            px = mx - 1
            for nx, ny in (
                (mx, my),
                (px, my),
                (mx + 1, my),
                (mx, my - 1),
                (mx, my + 1),
            ):
                if nx < 0 or nx > max_x or ny < 0 or ny > max_y:
                    continue
                cand = nx * height + ny
                est = ready_c + t_move * (
                    (nx - cx if nx >= cx else cx - nx)
                    + (ny - cy if ny >= cy else cy - ny)
                )
                other = ready_t + t_move * (
                    (nx - tx if nx >= tx else tx - nx)
                    + (ny - ty if ny >= ty else ty - ny)
                )
                if other > est:
                    est = other
                free = ulb_free[cand]
                if free > est:
                    est = free
                if est < best_est or (est == best_est and cand < best_node):
                    best_est = est
                    best_node = cand
            meeting = best_node
            arr_c, hops_c, wait_c = move(loc_c, meeting, ready_c)
            arr_t, hops_t, wait_t = move(loc_t, meeting, ready_t)
            start = arr_c
            if arr_t > start:
                start = arr_t
            free = ulb_free[meeting]
            if free > start:
                start = free
            finish = start + base_delay
            qloc[control] = meeting
            qloc[partner] = meeting
            qready[control] = finish
            qready[partner] = finish
            ulb_free[meeting] = finish
            if record_trace:
                events.append(
                    TraceEvent(
                        index=op_index,
                        kind=gates[op_index].kind.value,
                        qubits=(control, partner),
                        ulb=divmod(meeting, height),
                        start=start,
                        finish=finish,
                        travel_hops=hops_c + hops_t,
                        travel_wait=wait_c + wait_t,
                    )
                )
        else:
            one_qubit_count += 1
            qubit = op_q0[op_index]
            home = qloc[qubit]
            ready = qready[qubit]
            home_free = ulb_free[home]
            start_here = home_free if home_free > ready else ready
            hop_hops = 0
            hop_wait = 0.0
            if home_free > ready:
                # Home ULB is busy: consider hopping to the neighbour that
                # lets the operation finish earliest ("nearest free ULB").
                best_start = start_here
                best_loc = home
                hx, hy = divmod(home, height)
                ready_hop = ready + t_move
                if hx > 0:
                    candidate = ulb_free[home - height]
                    if candidate < ready_hop:
                        candidate = ready_hop
                    if candidate < best_start:
                        best_start = candidate
                        best_loc = home - height
                if hx < max_x:
                    candidate = ulb_free[home + height]
                    if candidate < ready_hop:
                        candidate = ready_hop
                    if candidate < best_start:
                        best_start = candidate
                        best_loc = home + height
                if hy > 0:
                    candidate = ulb_free[home - 1]
                    if candidate < ready_hop:
                        candidate = ready_hop
                    if candidate < best_start:
                        best_start = candidate
                        best_loc = home - 1
                if hy < max_y:
                    candidate = ulb_free[home + 1]
                    if candidate < ready_hop:
                        candidate = ready_hop
                    if candidate < best_start:
                        best_start = candidate
                        best_loc = home + 1
                if best_loc != home:
                    # Commit to the hop chosen by estimate; the realized
                    # start may differ slightly if the channel is congested.
                    arrival, hop_hops, hop_wait = move(home, best_loc, ready)
                    free = ulb_free[best_loc]
                    start_here = arrival if arrival >= free else free
                    relocations += 1
                    qloc[qubit] = best_loc
                    home = best_loc
            finish = start_here + base_delay
            qready[qubit] = finish
            ulb_free[home] = finish
            if record_trace:
                events.append(
                    TraceEvent(
                        index=op_index,
                        kind=gates[op_index].kind.value,
                        qubits=(qubit,),
                        ulb=divmod(home, height),
                        start=start_here,
                        finish=finish,
                        travel_hops=hop_hops,
                        travel_wait=hop_wait,
                    )
                )
        finish_times[op_index] = finish

    latency = max(finish_times, default=0.0)
    stats = ScheduleStats(
        total_moves=router.total_moves,
        total_hops=router.total_hops,
        congestion_wait=router.total_wait,
        relocations=relocations,
        cnot_count=cnot_count,
        one_qubit_count=one_qubit_count,
    )
    if record_trace:
        # ALAP visiting order may interleave indices; the trace contract
        # is program order.
        events.sort(key=lambda e: e.index)
    return ScheduleResult(
        latency=latency,
        finish_times=tuple(finish_times),
        final_locations=tuple(divmod(node, height) for node in qloc),
        stats=stats,
        trace=ScheduleTrace(events) if record_trace else None,
    )
