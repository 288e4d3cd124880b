"""Tests for the exception hierarchy and cross-module error behaviour."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    CircuitError,
    DecompositionError,
    EstimationError,
    FabricError,
    GraphError,
    MappingError,
    ParseError,
    ReproError,
)


class TestHierarchy:
    @pytest.mark.parametrize("exc", [
        CircuitError,
        DecompositionError,
        EstimationError,
        FabricError,
        GraphError,
        MappingError,
        ParseError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_catching_base_class_catches_subsystem_errors(self):
        from repro.circuits.circuit import Circuit

        with pytest.raises(ReproError):
            Circuit(-1)

    def test_parse_error_line_number_formatting(self):
        error = ParseError("bad token", line_number=7)
        assert "line 7" in str(error)
        assert error.line_number == 7

    def test_parse_error_without_line_number(self):
        error = ParseError("bad file")
        assert error.line_number is None
        assert str(error) == "bad file"


class TestErrorVocabularyPerSubsystem:
    def test_circuit_layer_raises_circuit_error(self):
        from repro.circuits.gates import cnot

        with pytest.raises(CircuitError):
            cnot(3, 3)

    def test_fabric_layer_raises_fabric_error(self):
        from repro.fabric.params import FabricSpec

        with pytest.raises(FabricError):
            FabricSpec(-1, 5)

    def test_graph_layer_raises_graph_error(self):
        from repro.circuits.circuit import Circuit
        from repro.qodg.iig import build_iig

        with pytest.raises(GraphError):
            build_iig(Circuit(2)).neighbors(2)

    def test_estimator_raises_estimation_error(self):
        from repro.core.queueing import congested_latency

        with pytest.raises(EstimationError):
            congested_latency(-1, 1.0, 1)

    def test_mapper_raises_mapping_error(self):
        from repro.circuits.circuit import Circuit
        from repro.qspr.placement import make_placement
        from repro.qodg.iig import build_iig
        from repro.fabric.params import FabricSpec
        from repro.fabric.tqa import TQA

        with pytest.raises(MappingError):
            make_placement("nope", build_iig(Circuit(1)), TQA(FabricSpec(2, 2)))
