"""Circuit representation, parsing, FT synthesis and benchmark generators."""

# A re-export module: ``__all__`` is computed from the imported names at
# the bottom, which a static unused-import check cannot evaluate.
# ruff: noqa: F401

from .algorithms import bernstein_vazirani, cuccaro_adder, grover
from .circuit import Circuit, CircuitStats
from .decompose import (
    eliminate_fredkin,
    eliminate_swap,
    expand_multi_controlled,
    lower_toffoli,
    synthesize_ft,
    toffoli_to_ft_gates,
    TOFFOLI_FT_GATE_COUNT,
)
from .gates import (
    FT_KINDS,
    Gate,
    GateKind,
    ONE_QUBIT_FT_KINDS,
    cnot,
    fredkin,
    h,
    kind_from_name,
    mcf,
    mct,
    s,
    sdg,
    swap,
    t,
    tdg,
    toffoli,
    x,
    y,
    z,
)
from .generators import (
    cnot_ladder,
    gf2_multiplier,
    ham3,
    hamming_coder,
    hwb,
    modular_adder,
    random_reversible,
    ripple_adder,
)
from .library import BENCHMARKS, BenchmarkSpec, PAPER_TABLE3_ORDER, benchmark_names, build, build_ft
from .optimize import cancel_pairs_once, optimize_ft
from .parser import (
    read_qasm_lite,
    read_real,
    reads_qasm_lite,
    reads_real,
    write_qasm_lite,
    write_real,
    writes_qasm_lite,
    writes_real,
)
from .table import (
    GateTable,
    TableBuilder,
    lower_ft,
    optimize_table,
    table_from_gates,
)
from .simulate import (
    circuit_unitary,
    gate_unitary,
    simulate_basis,
    simulate_int,
    TOFFOLI_MATRIX,
)

__all__ = [name for name in dir() if not name.startswith("_")]
