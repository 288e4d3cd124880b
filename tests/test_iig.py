"""Unit tests for the interaction intensity graph (repro.qodg.iig)."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gates import h, t, toffoli
from repro.circuits.generators import cnot_ladder, ham3
from repro.circuits.library import benchmark_names, build, build_ft
from repro.circuits.stream import (
    IIGAccumulator,
    assemble,
    lower_ft_stream,
    stream_table,
)
from repro.exceptions import GraphError
from repro.qodg.iig import build_iig

FIELDS = ("indptr", "indices", "weights", "degrees", "weight_sums")


#: blake2b-16 of the five CSR arrays' bytes (see :func:`iig_digest`) of
#: every library row up to ``hwb50ps``, FT netlist.  Recorded with the
#: object walk that once built the graph of Gate-object circuits (each
#: qubit's partners in a dict, in first-interaction order), which the
#: table builds had to match entry for entry.
OBJECT_WALK_DIGESTS = {
    "ham3": "46f9c319b631bfadf96a51806086259c",
    "8bitadder": "996704e030ab77950bef1d6cb913e0d7",
    "gf2^16mult": "22aab0a5a6a8f45229cefea4e34ab29f",
    "hwb15ps": "6c18e29ce22b4ed2a68dfabc1b9027b5",
    "hwb16ps": "6e1c88b9c4e3ecde1a2b08858432149d",
    "gf2^18mult": "3baeb768f326e0c2d47d8c0e225bd544",
    "gf2^19mult": "d3d86ea89621cdf088dbbb6b32fcdded",
    "gf2^20mult": "e439642a87bed20fc4e866fcf4facd1d",
    "ham15": "9a7c125745fe4b61d9153bbb3ab8a28e",
    "hwb20ps": "3936f8f60b91e78c644bb6d286ef6d6c",
    "hwb50ps": "128bc7b29e9b28e6f4bfe5e03f6b9dcc",
}


def iig_digest(iig) -> str:
    for name in FIELDS:
        assert getattr(iig, name).dtype == np.int64, name
    data = b"".join(getattr(iig, name).tobytes() for name in FIELDS)
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def object_backed(circuit: Circuit) -> Circuit:
    """A copy rebuilt gate by gate through :meth:`Circuit.append`."""
    clone = Circuit(0, circuit.name)
    for name in circuit.qubit_names:
        clone.add_qubit(name)
    clone.extend(circuit.gates)
    return clone


class TestIIGQueries:
    def test_weights_accumulate(self, cnot_iig):
        iig = cnot_iig(3, [(0, 1), (1, 0), (1, 0)])
        assert iig.weight(0, 1) == 3
        assert iig.weight(1, 0) == 3  # undirected

    def test_degrees_count_distinct_partners(self, cnot_iig):
        iig = cnot_iig(4, [(0, 1)] * 5 + [(0, 2)])
        assert iig.degrees.tolist() == [2, 1, 1, 0]

    def test_weight_sums(self, cnot_iig):
        iig = cnot_iig(3, [(0, 1)] * 3 + [(0, 2)] * 4)
        assert iig.weight_sums.tolist() == [7, 3, 4]

    def test_total_weight_counts_each_edge_once(self, cnot_iig):
        iig = cnot_iig(3, [(0, 1)] * 3 + [(1, 2)])
        assert iig.total_weight == 4
        assert iig.num_edges == 2

    def test_neighbors(self, cnot_iig):
        iig = cnot_iig(3, [(0, 2)])
        assert iig.neighbors(0) == (2,)
        assert iig.neighbors(1) == ()

    def test_edges_iterates_once_per_pair(self, cnot_iig):
        iig = cnot_iig(3, [(0, 1), (0, 1), (2, 1)])
        assert sorted(iig.edges()) == [(0, 1, 2), (1, 2, 1)]

    @pytest.mark.parametrize(
        "query",
        [
            lambda iig: iig.neighbors(5),
            lambda iig: iig.neighbors(-1),
            lambda iig: iig.weight(0, 5),
            lambda iig: iig.weight(5, 0),
        ],
    )
    def test_out_of_range_rejected(self, query, cnot_iig):
        with pytest.raises(GraphError, match="out of range"):
            query(cnot_iig(2, [(0, 1)]))

    def test_weight_of_strangers_is_zero(self, cnot_iig):
        assert cnot_iig(2, []).weight(0, 1) == 0

    def test_frozen(self, cnot_iig):
        iig = cnot_iig(2, [(0, 1)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            iig.weights = np.zeros(2, dtype=np.int64)

    def test_empty_register(self):
        iig = build_iig(Circuit(0))
        assert iig.num_qubits == iig.num_edges == iig.total_weight == 0
        assert iig.indptr.tolist() == [0]
        assert list(iig.edges()) == []

    def test_to_networkx(self, cnot_iig):
        pytest.importorskip("networkx")
        graph = cnot_iig(3, [(0, 1)] * 4).to_networkx()
        assert graph.number_of_nodes() == 3
        assert graph[0][1]["weight"] == 4


class TestBuildIIG:
    def test_one_qubit_gates_ignored(self):
        circuit = Circuit(2)
        circuit.extend([h(0), t(1)])
        iig = build_iig(circuit)
        assert iig.total_weight == 0
        assert iig.num_edges == 0

    def test_cnots_counted_per_pair(self, cnot_iig):
        iig = cnot_iig(3, [(0, 1), (1, 0), (1, 2)])
        assert iig.weight(0, 1) == 2
        assert iig.weight(1, 2) == 1
        assert iig.degrees[1] == 2

    def test_ham3_iig_is_a_triangle(self):
        iig = build_iig(ham3())
        assert iig.num_edges == 3
        assert iig.total_weight == 10  # the 10 CNOTs of the 19-gate circuit
        assert iig.degrees.tolist() == [2, 2, 2]

    def test_ladder_is_a_path_graph(self):
        iig = build_iig(cnot_ladder(5))
        assert iig.num_edges == 4
        assert iig.degrees[0] == 1
        assert iig.degrees[2] == 2

    def test_toffoli_gates_not_counted(self):
        # Arity-3 synthesis gates carry no pairwise interaction weight;
        # LEQA consumes FT circuits where only CNOTs remain.
        circuit = Circuit(3)
        circuit.append(toffoli(0, 1, 2))
        assert build_iig(circuit).total_weight == 0


class TestCSRRows:
    def test_rows_preserve_first_interaction_order(self, cnot_iig):
        iig = cnot_iig(4, [(0, 2), (0, 1), (1, 0), (0, 1), (0, 3)])
        lo, hi = iig.indptr[0], iig.indptr[1]
        assert iig.indices[lo:hi].tolist() == [2, 1, 3]
        assert iig.weights[lo:hi].tolist() == [1, 3, 1]

    def test_degrees_and_weight_sums_derive_from_rows(self):
        iig = build_iig(ham3())
        for q in range(iig.num_qubits):
            lo, hi = iig.indptr[q], iig.indptr[q + 1]
            assert iig.degrees[q] == hi - lo
            assert iig.weight_sums[q] == iig.weights[lo:hi].sum()
        assert int(iig.weight_sums.sum()) == 2 * iig.total_weight

    def test_table_and_object_builds_agree(self):
        circuit = build_ft("ham15")
        assert iig_digest(build_iig(circuit)) == OBJECT_WALK_DIGESTS["ham15"]
        assert iig_digest(build_iig(object_backed(circuit))) == (
            OBJECT_WALK_DIGESTS["ham15"]
        )


def _library_up_to_hwb50ps() -> list[str]:
    names = list(benchmark_names())
    return names[: names.index("hwb50ps") + 1]


class TestAccumulatorFolds:
    """The accumulator folds pending keys whenever they outnumber the
    folded ones; one row per chunk crosses many folds, and no chunking
    may change a single array entry against the object walk's frozen
    digests."""

    def test_every_row_is_pinned(self):
        assert list(OBJECT_WALK_DIGESTS) == _library_up_to_hwb50ps()

    @pytest.mark.parametrize("name", _library_up_to_hwb50ps())
    def test_any_chunking_equals_object_walk(self, name):
        circuit = build_ft(name)
        for chunk_size in (1, 7, len(circuit)):
            accumulator = IIGAccumulator()
            for chunk in stream_table(circuit.table(), chunk_size):
                accumulator.update(chunk)
            assert iig_digest(accumulator.finish(circuit.num_qubits)) == (
                OBJECT_WALK_DIGESTS[name]
            ), chunk_size

    @pytest.mark.parametrize("chunk_size", [1, 13])
    def test_growing_register(self, chunk_size):
        # FT lowering allocates ancillas mid-stream, so later chunks
        # carry larger registers than earlier ones.
        raw = build("ham15").table()
        chunks = list(lower_ft_stream(stream_table(raw, chunk_size)))
        assert chunks[0].num_qubits < chunks[-1].num_qubits
        accumulator = IIGAccumulator()
        for chunk in chunks:
            accumulator.update(chunk)
        # The lowered stream is build_ft("ham15")'s netlist.
        assert Circuit.from_table(assemble(chunks)).content_fingerprint() == (
            build_ft("ham15").content_fingerprint()
        )
        assert iig_digest(accumulator.finish()) == (
            OBJECT_WALK_DIGESTS["ham15"]
        )
