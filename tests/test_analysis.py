"""Unit tests for the analysis toolkit (errors, scaling, report, calibration)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.calibration import calibrate_qubit_speed
from repro.analysis.errors import (
    AccuracyRow,
    absolute_error_percent,
    summarize,
)
from repro.analysis.report import format_scientific, format_table
from repro.analysis.scaling import extrapolate, fit_power_law
from repro.circuits.circuit import Circuit
from repro.circuits.gates import KINDS_BY_CODE, h
from repro.circuits.generators import ham3
from repro.circuits.library import build_ft
from repro.core.estimator import LEQAEstimator
from repro.exceptions import EstimationError, ReproError
from repro.fabric.params import FabricSpec, PhysicalParams
from repro.qodg.critical_path import critical_path
from repro.qodg.graph import build_qodg


class TestErrors:
    def test_absolute_error_percent(self):
        assert absolute_error_percent(2.0, 2.1) == pytest.approx(5.0)
        assert absolute_error_percent(2.0, 1.9) == pytest.approx(5.0)

    def test_zero_actual_rejected(self):
        with pytest.raises(EstimationError):
            absolute_error_percent(0.0, 1.0)

    def test_row_error(self):
        row = AccuracyRow("bench", actual_seconds=1.617, estimated_seconds=1.667)
        assert row.error_percent == pytest.approx(3.0921, abs=1e-3)

    def test_summarize_matches_paper_statistics_shape(self):
        rows = [
            AccuracyRow("a", 1.0, 1.02),
            AccuracyRow("b", 2.0, 1.9),
            AccuracyRow("c", 4.0, 4.0),
        ]
        summary = summarize(rows)
        assert summary.average_error_percent == pytest.approx((2 + 5 + 0) / 3)
        assert summary.max_error_percent == pytest.approx(5.0)
        assert len(summary.rows) == 3

    def test_summarize_empty_rejected(self):
        with pytest.raises(EstimationError):
            summarize([])


class TestScaling:
    def test_recovers_exact_power_law(self):
        sizes = [100, 1000, 10000, 100000]
        runtimes = [2.0 * s**1.5 for s in sizes]
        fit = fit_power_law(sizes, runtimes)
        assert fit.exponent == pytest.approx(1.5)
        assert fit.coefficient == pytest.approx(2.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict_and_extrapolate(self):
        fit = fit_power_law([10, 100, 1000], [1.0, 10.0, 100.0])
        assert fit.exponent == pytest.approx(1.0)
        assert extrapolate(fit, 10**6) == pytest.approx(10**5, rel=1e-6)

    def test_noisy_data_r_squared_below_one(self):
        sizes = [10, 100, 1000, 10000]
        runtimes = [1.2, 9.0, 110.0, 900.0]
        fit = fit_power_law(sizes, runtimes)
        assert 0.9 < fit.r_squared < 1.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(EstimationError):
            fit_power_law([1, 2], [1.0])

    def test_single_point_rejected(self):
        with pytest.raises(EstimationError):
            fit_power_law([10], [1.0])

    def test_non_positive_data_rejected(self):
        with pytest.raises(EstimationError):
            fit_power_law([1, 0], [1.0, 2.0])

    def test_predict_invalid_size_rejected(self):
        fit = fit_power_law([10, 100], [1.0, 10.0])
        with pytest.raises(EstimationError):
            fit.predict(0)


class TestReport:
    def test_format_scientific_matches_paper_style(self):
        assert format_scientific(1.617) == "1.617E+00"
        assert format_scientific(0.0446, 3) == "4.460E-02"

    def test_format_table_alignment(self):
        table = format_table(
            ["name", "value"], [["a", 1], ["longer", 22]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert lines[2].startswith("---")
        assert len(lines) == 5

    def test_column_mismatch_rejected(self):
        with pytest.raises(ReproError):
            format_table(["one"], [["a", "b"]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ReproError):
            format_table([], [])


class TestCalibration:
    def test_recovers_known_speed(self):
        # Estimate at a known v, then calibrate against that latency: the
        # recovered speed must reproduce the same estimate.
        params = PhysicalParams(qubit_speed=0.004, fabric=FabricSpec(12, 12))
        circuit = ham3()
        target = LEQAEstimator(params=params).estimate(circuit).latency
        recovered = calibrate_qubit_speed(circuit, params, target)
        recalibrated = PhysicalParams(
            qubit_speed=recovered, fabric=FabricSpec(12, 12)
        )
        replay = LEQAEstimator(params=recalibrated).estimate(circuit).latency
        assert replay == pytest.approx(target, rel=1e-4)

    @pytest.mark.parametrize("name", ["ham3", "8bitadder"])
    def test_speed_bitwise_equals_graph_oracle(self, monkeypatch, name):
        """The bisection reads critical-path lengths only, and those do
        not depend on tie-breaking: the batched lengths and the graph
        oracle calibrate to the same float."""
        import repro.analysis.calibration as calibration

        params = PhysicalParams(fabric=FabricSpec(12, 12))
        circuit = build_ft(name)
        target = 1.7 * LEQAEstimator(params=params).estimate(circuit).latency
        swept = calibrate_qubit_speed(circuit, params, target)
        qodg = build_qodg(circuit)

        def oracle_lengths(_, lut):
            delays = {
                kind: float(lut[code, 0])
                for code, kind in enumerate(KINDS_BY_CODE)
                if not np.isnan(lut[code, 0])
            }
            return np.array([critical_path(qodg, delays).length])

        monkeypatch.setattr(
            calibration, "sweep_critical_path_lengths", oracle_lengths
        )
        assert swept.hex() == calibrate_qubit_speed(
            circuit, params, target
        ).hex()

    def test_gf2_16mult_speed_pinned(self):
        # The bisection may change how it probes (lengths only, no path
        # walk) but not the float it lands on.
        params = PhysicalParams()
        circuit = build_ft("gf2^16mult")
        target = 1.3 * LEQAEstimator(params=params).estimate(circuit).latency
        speed = calibrate_qubit_speed(circuit, params, target)
        assert speed.hex() == "0x1.6c6975fe5f3afp-13"

    def test_larger_target_gives_slower_speed(self):
        params = PhysicalParams(fabric=FabricSpec(12, 12))
        circuit = ham3()
        base = LEQAEstimator(params=params).estimate(circuit).latency
        v1 = calibrate_qubit_speed(circuit, params, base * 1.5)
        v2 = calibrate_qubit_speed(circuit, params, base * 3.0)
        assert v2 < v1

    def test_unreachable_target_rejected(self):
        params = PhysicalParams(fabric=FabricSpec(12, 12))
        with pytest.raises(EstimationError, match="routing-free"):
            calibrate_qubit_speed(ham3(), params, 1.0)  # 1 µs: impossible

    def test_cnot_free_circuit_rejected(self):
        circuit = Circuit(1)
        circuit.append(h(0))
        params = PhysicalParams(fabric=FabricSpec(12, 12))
        with pytest.raises(EstimationError, match="no CNOT"):
            calibrate_qubit_speed(circuit, params, 10000.0)

    def test_non_positive_target_rejected(self):
        params = PhysicalParams(fabric=FabricSpec(12, 12))
        with pytest.raises(EstimationError):
            calibrate_qubit_speed(ham3(), params, 0.0)
