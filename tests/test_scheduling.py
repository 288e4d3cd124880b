"""Unit tests for the QSPR scheduler (repro.qspr.scheduling)."""

from __future__ import annotations

import warnings

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gates import cnot, h, t, toffoli, x
from repro.exceptions import MappingError
from repro.fabric.params import FabricSpec, GateDelays, PhysicalParams
from repro.qspr.scheduling import SCHEDULER_ENGINES, schedule_circuit


@pytest.fixture(params=SCHEDULER_ENGINES)
def engine(request):
    """Every scheduler engine must meet the hand-computed schedules."""
    return request.param


def run(circuit, placement, params, engine, **kwargs):
    """:func:`schedule_circuit` on ``engine``.  The kernel degrades to the
    array engine (with a RuntimeWarning) where no C compiler exists."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return schedule_circuit(
            circuit, placement, params, engine=engine, **kwargs
        )


@pytest.fixture
def params():
    ones = GateDelays(
        h=10.0, t=10.0, tdg=10.0, x=10.0, y=10.0, z=10.0, s=10.0, sdg=10.0,
        cnot=40.0,
    )
    return PhysicalParams(
        delays=ones, fabric=FabricSpec(8, 8), t_move=100.0
    )


class TestSingleOperations:
    def test_one_qubit_op_in_place(self, params, engine):
        circuit = Circuit(1)
        circuit.append(h(0))
        result = run(circuit, [(0, 0)], params, engine)
        assert result.latency == pytest.approx(10.0)
        assert result.stats.one_qubit_count == 1
        assert result.stats.total_moves == 0

    def test_colocated_cnot_needs_no_routing(self, params, engine):
        circuit = Circuit(2)
        circuit.append(cnot(0, 1))
        result = run(circuit, [(3, 3), (3, 3)], params, engine)
        assert result.latency == pytest.approx(40.0)
        assert result.stats.total_hops == 0

    def test_distant_cnot_routes_both_to_midpoint(self, params, engine):
        circuit = Circuit(2)
        circuit.append(cnot(0, 1))
        result = run(circuit, [(0, 0), (4, 0)], params, engine)
        # Midpoint (2,0): both travel 2 hops = 200, then 40 to execute.
        assert result.latency == pytest.approx(240.0)
        assert result.final_locations == ((2, 0), (2, 0))

    def test_asymmetric_routes_wait_for_the_slower(self, params, engine):
        circuit = Circuit(2)
        circuit.append(cnot(0, 1))
        result = run(circuit, [(0, 0), (3, 0)], params, engine)
        # Midpoint of a 3-hop route: one qubit 1 hop, the other 2.
        assert result.latency == pytest.approx(2 * 100.0 + 40.0)


class TestDependencies:
    def test_serial_chain_accumulates(self, params, engine):
        circuit = Circuit(1)
        circuit.extend([h(0), t(0), x(0)])
        result = run(circuit, [(0, 0)], params, engine)
        assert result.latency == pytest.approx(30.0)
        assert list(result.finish_times) == [
            pytest.approx(10.0),
            pytest.approx(20.0),
            pytest.approx(30.0),
        ]

    def test_finish_times_respect_dependencies(self, params, engine):
        circuit = Circuit(2)
        circuit.extend([h(0), cnot(0, 1), t(1)])
        result = run(circuit, [(0, 0), (0, 1)], params, engine)
        times = result.finish_times
        assert times[0] < times[1] < times[2]

    def test_independent_qubits_run_in_parallel(self, params, engine):
        circuit = Circuit(2)
        circuit.extend([h(0), h(1)])
        result = run(circuit, [(0, 0), (5, 5)], params, engine)
        assert result.latency == pytest.approx(10.0)

    def test_colocated_qubits_serialize_on_the_ulb(self, params, engine):
        # Same ULB, independent ops: execution is exclusive per ULB, so
        # either they serialize or one hops away (plus T_move).
        circuit = Circuit(2)
        circuit.extend([h(0), h(1)])
        result = run(circuit, [(2, 2), (2, 2)], params, engine)
        assert result.latency > 10.0

    def test_relocation_prefers_fast_neighbor(self, params, engine):
        # Busy home ULB + free neighbours: the second op should relocate
        # (hop 100) rather than wait for a long-running op... with h=10 the
        # wait (10) beats the hop (100), so it stays. Make the blocker slow.
        slow = GateDelays(
            h=500.0, t=10.0, tdg=10.0, x=10.0, y=10.0, z=10.0, s=10.0,
            sdg=10.0, cnot=40.0,
        )
        slow_params = PhysicalParams(
            delays=slow, fabric=FabricSpec(8, 8), t_move=100.0
        )
        circuit = Circuit(2)
        circuit.extend([h(0), x(1)])
        result = run(circuit, [(2, 2), (2, 2)], slow_params, engine)
        # x(1) hops (100) then runs (10) instead of waiting 500.
        assert result.finish_times[1] == pytest.approx(110.0)
        assert result.stats.relocations == 1


class TestAlapOrder:
    def test_alap_respects_dependencies(self, params, engine):
        circuit = Circuit(2)
        circuit.extend([h(0), cnot(0, 1), t(1), x(0)])
        result = run(circuit, [(0, 0), (3, 0)], params, engine, order="alap")
        times = result.finish_times
        assert times[0] < times[1] < times[2]  # chain on qubits 0/1
        assert times[3] > times[1]  # x(0) depends on the CNOT

    def test_alap_matches_program_on_serial_chain(self, params, engine):
        circuit = Circuit(1)
        circuit.extend([h(0), t(0), x(0)])
        program = run(circuit, [(0, 0)], params, engine)
        alap = run(circuit, [(0, 0)], params, engine, order="alap")
        assert alap.finish_times == program.finish_times

    def test_alap_prioritizes_the_critical_branch(self, engine):
        # Two ops compete for one ULB: a critical chain head vs a slack op.
        # ALAP order runs the chain head first; program order is written
        # to run the slack op first, delaying the chain.
        slow = GateDelays(
            h=100.0, t=100.0, tdg=100.0, x=100.0, y=100.0, z=100.0,
            s=100.0, sdg=100.0, cnot=100.0,
        )
        params = PhysicalParams(
            delays=slow, fabric=FabricSpec(4, 4), t_move=1000.0
        )
        circuit = Circuit(2)
        # Program order: the slack op first.
        circuit.extend([x(1), h(0), t(0), x(0)])
        placement = [(0, 0), (0, 0)]  # same ULB: execution contention
        program = run(circuit, placement, params, engine)
        alap = run(circuit, placement, params, engine, order="alap")
        assert alap.latency <= program.latency

    def test_alap_valid_on_benchmark(self, params, adder_ft, engine):
        from repro.qspr.placement import row_major_placement
        from repro.fabric.tqa import TQA

        placement = row_major_placement(adder_ft.num_qubits, TQA(params.fabric))
        result = run(adder_ft, placement, params, engine, order="alap")
        assert result.latency > 0
        # Dependencies hold: every op finishes after all same-qubit
        # predecessors.
        last_finish = [0.0] * adder_ft.num_qubits
        ordered = sorted(
            range(len(adder_ft)), key=lambda i: result.finish_times[i]
        )
        for index in ordered:
            gate = adder_ft[index]
            finish = result.finish_times[index]
            for qubit in gate.qubits:
                assert finish >= last_finish[qubit]
                last_finish[qubit] = max(last_finish[qubit], finish)

    def test_unknown_order_rejected(self, params):
        circuit = Circuit(1)
        circuit.append(h(0))
        with pytest.raises(MappingError, match="unknown scheduling order"):
            schedule_circuit(circuit, [(0, 0)], params, order="asap")

    def test_trace_in_program_order_despite_alap(self, params):
        circuit = Circuit(2)
        circuit.extend([x(1), h(0), cnot(0, 1)])
        result = schedule_circuit(
            circuit, [(0, 0), (1, 0)], params, order="alap",
            record_trace=True,
        )
        indices = [e.index for e in result.trace]
        assert indices == sorted(indices)


class TestValidation:
    def test_placement_size_mismatch(self, params):
        with pytest.raises(MappingError, match="placement covers"):
            schedule_circuit(Circuit(2), [(0, 0)], params)

    def test_off_grid_placement(self, params):
        circuit = Circuit(1)
        circuit.append(h(0))
        with pytest.raises(Exception):
            schedule_circuit(circuit, [(99, 99)], params)

    def test_non_ft_gate_rejected(self, params, engine):
        circuit = Circuit(3)
        circuit.append(toffoli(0, 1, 2))
        with pytest.raises(MappingError, match="not executable"):
            run(circuit, [(0, 0), (0, 1), (0, 2)], params, engine)

    def test_unknown_routing_mode_rejected(self, params, engine):
        """Both engines check the mode up front, with the router's text,
        though only the array engine builds a router."""
        circuit = Circuit(2)
        circuit.append(cnot(0, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(MappingError) as error:
                schedule_circuit(
                    circuit, [(0, 0), (4, 0)], params, engine=engine,
                    routing_mode="diagonal",
                )
        assert str(error.value) == (
            "unknown routing mode 'diagonal'; choose from ('maze', 'xy')"
        )

    def test_empty_circuit(self, params, engine):
        result = run(Circuit(0), [], params, engine)
        assert result.latency == 0.0

    def test_stats_counts(self, params, engine):
        circuit = Circuit(2)
        circuit.extend([h(0), cnot(0, 1), t(1)])
        result = run(circuit, [(0, 0), (4, 0)], params, engine)
        assert result.stats.cnot_count == 1
        assert result.stats.one_qubit_count == 2
