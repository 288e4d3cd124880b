"""Parameterized generators for the paper's benchmark circuit families.

The paper evaluates on Maslov's reversible benchmark suite (its ref [12]),
which is not redistributable here.  These generators reproduce the same
circuit *families* algorithmically at the same parameter points:

* :func:`ripple_adder` — VBE-style ripple-carry adder modulo ``2**n``
  ("8bitadder", "mod1048576adder").
* :func:`gf2_multiplier` — Mastrovito GF(2^n) field multiplier
  ("gf2^16mult" ... "gf2^256mult").
* :func:`hwb` — hidden-weighted-bit function: rotate the input left by its
  Hamming weight ("hwb15ps" ... "hwb200ps").  Built as weight-counter +
  controlled rotations + counter uncompute; functionally exact.
* :func:`hamming_coder` — Hamming-code encoder + single-error corrector
  ("ham15" family).
* :func:`ham3` — the 19-FT-gate ham3 circuit of the paper's Figure 2.
* :func:`random_reversible`, :func:`random_ft`, :func:`cnot_ladder` —
  structured and random circuits for tests, sweeps and the random
  workload ensembles.

Every generator streams its gates into a
:class:`~repro.circuits.table.TableBuilder` — integer rows, no
intermediate :class:`~repro.circuits.gates.Gate` objects — and returns a
table-backed :class:`Circuit`, so building "gf2^256mult" costs array
appends rather than a million gate allocations.  Synthesis-level outputs
(NOT/CNOT/Toffoli/Fredkin/MCT/MCF) go through
:func:`repro.circuits.decompose.synthesize_ft` to obtain the FT netlists
the estimator and mapper consume.  All generators are deterministic given
their arguments (and ``seed`` where applicable), and all are functionally
verified by the test suite via basis-state simulation.
"""

from __future__ import annotations

import math
import random
import sys
from typing import Iterator, Sequence

from .._validation import require_positive_int
from ..exceptions import CircuitError
from .circuit import Circuit
from .gates import GateKind, cnot, fredkin, mct
from .table import (
    DEFAULT_CHUNK_SIZE,
    GateTable,
    TableBuilder,
    _require_chunk_size,
)

__all__ = [
    "ripple_adder",
    "modular_adder",
    "gf2_multiplier",
    "hwb",
    "hamming_coder",
    "ham3",
    "random_reversible",
    "random_ft",
    "stream_random_nct",
    "stream_random_ft",
    "cnot_ladder",
    "controlled_increment_gates",
    "controlled_rotation_gates",
]


# ---------------------------------------------------------------------------
# Adders
# ---------------------------------------------------------------------------


def _emit_carry(b: TableBuilder, c_in: int, a: int, bq: int, c_out: int) -> None:
    """VBE CARRY block: (b, c_out) <- (a XOR b, carry(a, b, c_in))."""
    b.toffoli(a, bq, c_out)
    b.cnot(a, bq)
    b.toffoli(c_in, bq, c_out)


def _emit_carry_inverse(
    b: TableBuilder, c_in: int, a: int, bq: int, c_out: int
) -> None:
    """Inverse of :func:`_emit_carry`."""
    b.toffoli(c_in, bq, c_out)
    b.cnot(a, bq)
    b.toffoli(a, bq, c_out)


def ripple_adder(n: int) -> Circuit:
    """VBE ripple-carry adder modulo ``2**n`` over ``3n`` qubits.

    Register layout (all little-endian):

    * ``c0 .. c{n-1}`` — carry chain, must start at |0> (``c0`` is the
      carry-in and is restored to 0);
    * ``a0 .. a{n-1}`` — first addend, preserved;
    * ``b0 .. b{n-1}`` — second addend, replaced by ``(a + b) mod 2**n``.

    The 8-bit instance has 24 qubits, matching the paper's "8bitadder" row.
    """
    require_positive_int(n, "n", CircuitError)
    names = (
        [f"c{i}" for i in range(n)]
        + [f"a{i}" for i in range(n)]
        + [f"b{i}" for i in range(n)]
    )
    builder = TableBuilder(3 * n, name=f"{n}bitadder", qubit_names=names)
    c = list(range(n))
    a = list(range(n, 2 * n))
    b = list(range(2 * n, 3 * n))
    if n == 1:
        builder.cnot(a[0], b[0])
        builder.cnot(c[0], b[0])
        return Circuit.from_table(builder.finish())
    # Forward carry cascade (bits 0 .. n-2 feed carries 1 .. n-1).
    for i in range(n - 1):
        _emit_carry(builder, c[i], a[i], b[i], c[i + 1])
    # Top bit: sum only; the carry out of bit n-1 is dropped (mod 2**n).
    builder.cnot(a[n - 1], b[n - 1])
    builder.cnot(c[n - 1], b[n - 1])
    # Downward sweep: undo carries, emit sums.
    for i in range(n - 2, -1, -1):
        _emit_carry_inverse(builder, c[i], a[i], b[i], c[i + 1])
        builder.cnot(a[i], b[i])
        builder.cnot(c[i], b[i])
    return Circuit.from_table(builder.finish())


def modular_adder(n: int, modulus: int | None = None) -> Circuit:
    """Adder modulo ``2**n`` (the family of the "mod1048576adder" row).

    The paper's benchmark adds modulo ``1048576 = 2**20``; for a power-of-
    two modulus the VBE ripple adder mod ``2**n`` *is* the modular adder,
    so this simply re-labels :func:`ripple_adder`.  General moduli are not
    needed by any experiment and are rejected explicitly.
    """
    require_positive_int(n, "n", CircuitError)
    if modulus is not None and modulus != 1 << n:
        raise CircuitError(
            f"only power-of-two moduli are supported; got {modulus} "
            f"with n={n} (expected {1 << n})"
        )
    circuit = ripple_adder(n)
    circuit.name = f"mod{1 << n}adder"
    return circuit


# ---------------------------------------------------------------------------
# GF(2^n) multiplier
# ---------------------------------------------------------------------------


def gf2_multiplier(n: int, modulus: int | None = None) -> Circuit:
    """Mastrovito multiplier over GF(2^n): ``c ^= a * b`` in the field.

    Register layout: ``a0..a{n-1}``, ``b0..b{n-1}`` (both preserved) and
    ``c0..c{n-1}`` (accumulator).  For each partial product ``a_i * b_j``
    a Toffoli targets every output coefficient in the modular reduction of
    ``x**(i+j)``; the default field polynomial is the lowest-weight
    irreducible of degree ``n`` (see :mod:`repro.circuits.gf2`).

    The qubit count is ``3n``, matching the paper's gf2 rows (e.g.
    "gf2^16mult" with 48 qubits).
    """
    from .gf2 import find_irreducible, poly_degree, reduction_table

    require_positive_int(n, "n", CircuitError)
    if modulus is None:
        modulus = find_irreducible(n)
    elif poly_degree(modulus) != n:
        raise CircuitError(
            f"modulus degree {poly_degree(modulus)} does not match n={n}"
        )
    table = reduction_table(n, modulus)
    names = (
        [f"a{i}" for i in range(n)]
        + [f"b{i}" for i in range(n)]
        + [f"c{i}" for i in range(n)]
    )
    builder = TableBuilder(3 * n, name=f"gf2^{n}mult", qubit_names=names)
    a = list(range(n))
    b = list(range(n, 2 * n))
    c = list(range(2 * n, 3 * n))
    for i in range(n):
        for j in range(n):
            reduction = table[i + j]
            for m in range(n):
                if (reduction >> m) & 1:
                    builder.toffoli(a[i], b[j], c[m])
    return Circuit.from_table(builder.finish())


# ---------------------------------------------------------------------------
# Hidden-weighted-bit (hwb)
# ---------------------------------------------------------------------------


def controlled_increment_gates(
    control: int, counter: Sequence[int]
) -> list:
    """Gates incrementing the ``counter`` register (mod ``2**m``) when
    ``control`` is 1.

    Ripple construction: the highest counter bit flips when the control and
    every lower bit are 1, descending to a plain CNOT on the lowest bit.
    Bit ``j`` needs an MCT with ``j + 1`` controls.  (Object-list twin of
    :func:`_emit_controlled_increment`, kept for tests and callers that
    compose gate lists.)
    """
    gates = []
    counter = list(counter)
    for j in range(len(counter) - 1, 0, -1):
        gates.append(mct((control, *counter[:j]), counter[j]))
    gates.append(cnot(control, counter[0]))
    return gates


def _emit_controlled_increment(
    builder: TableBuilder, control: int, counter: Sequence[int]
) -> None:
    """Table twin of :func:`controlled_increment_gates`."""
    counter = list(counter)
    for j in range(len(counter) - 1, 0, -1):
        builder.mct((control, *counter[:j]), counter[j])
    builder.cnot(control, counter[0])


def _emit_controlled_increment_inverse(
    builder: TableBuilder, control: int, counter: Sequence[int]
) -> None:
    """The increment gates in reversed order (every gate is self-inverse)."""
    counter = list(counter)
    builder.cnot(control, counter[0])
    for j in range(1, len(counter)):
        builder.mct((control, *counter[:j]), counter[j])


def _reversal_swaps(positions: Sequence[int]) -> list[tuple[int, int]]:
    """Pairs to swap to reverse the given position list in place."""
    pairs = []
    lo, hi = 0, len(positions) - 1
    while lo < hi:
        pairs.append((positions[lo], positions[hi]))
        lo += 1
        hi -= 1
    return pairs


def _rotation_pairs(data: Sequence[int], amount: int) -> list[tuple[int, int]]:
    """Swap pairs of the three-reversal left rotation by ``amount``."""
    data = list(data)
    n = len(data)
    amount %= n
    if amount == 0:
        return []
    return (
        _reversal_swaps(data[:amount])
        + _reversal_swaps(data[amount:])
        + _reversal_swaps(data)
    )


def controlled_rotation_gates(
    control: int, data: Sequence[int], amount: int
) -> list:
    """Fredkin network rotating ``data`` left by ``amount`` when ``control``
    is 1.

    Left rotation by ``k``: element at index ``(i + k) mod n`` moves to
    index ``i``.  Implemented with the three-reversal identity
    ``rot_k = reverse(all) . reverse(k..n-1) . reverse(0..k-1)``, giving
    roughly ``1.5 n`` controlled swaps per stage.
    """
    return [
        fredkin(control, qa, qb) for qa, qb in _rotation_pairs(data, amount)
    ]


def hwb(n: int) -> Circuit:
    """Hidden-weighted-bit circuit: rotate input left by its Hamming weight.

    Matches the semantics of the classical hwb benchmark function
    ``y = x rotated left by weight(x)`` (rotation taken mod ``n``), the
    family behind the paper's "hwb15ps" ... "hwb200ps" rows.

    Construction (functionally exact, ancillas restored to |0>):

    1. count the weight of the data register into an ``m``-bit counter
       (``m = ceil(log2(n + 1))``) with controlled increments,
    2. for each counter bit ``j``, rotate the data left by ``2**j mod n``
       under control of that bit,
    3. uncompute the counter from the *rotated* data — valid because
       rotation preserves Hamming weight.
    """
    require_positive_int(n, "n", CircuitError)
    if n < 2:
        raise CircuitError("hwb requires n >= 2")
    m = max(1, math.ceil(math.log2(n + 1)))
    names = [f"x{i}" for i in range(n)] + [f"w{j}" for j in range(m)]
    builder = TableBuilder(n + m, name=f"hwb{n}", qubit_names=names)
    data = list(range(n))
    counter = list(range(n, n + m))
    for qubit in data:
        _emit_controlled_increment(builder, qubit, counter)
    for j in range(m):
        for qa, qb in _rotation_pairs(data, pow(2, j, n)):
            builder.fredkin(counter[j], qa, qb)
    for qubit in data:
        _emit_controlled_increment_inverse(builder, qubit, counter)
    return Circuit.from_table(builder.finish())


# ---------------------------------------------------------------------------
# Hamming coding circuits
# ---------------------------------------------------------------------------


def hamming_coder(r: int, error_position: int | None = None) -> Circuit:
    """Hamming(2^r - 1) encoder + single-error corrector.

    Register layout: ``x1 .. x{n}`` are the codeword positions (1-based,
    as in Hamming's scheme, ``n = 2**r - 1``) and ``s0 .. s{r-1}`` the
    syndrome register (starts at |0>).

    Stage 1 (encode): each parity position ``2**j`` accumulates, via CNOTs,
    the parity of all non-parity positions containing bit ``j``.

    Stage 2 (channel): when ``error_position`` is given, an X gate flips
    that codeword position — a deterministic single-bit channel error the
    corrector must undo (exercised by the test suite; ``None``, the
    default, models a clean channel).

    Stage 3 (syndrome): each syndrome bit ``s_j`` accumulates the parity of
    all positions containing bit ``j``.

    Stage 4 (correct): for each position ``p``, an MCT controlled on the
    syndrome pattern equal to ``p`` (zero bits conjugated with X) flips
    position ``p``.  The syndrome register is left holding the error
    location — the decoder's classical output — so the circuit is
    reversible without further uncomputation.

    The ``r = 4`` instance is the family of the paper's "ham15" row.
    """
    require_positive_int(r, "r", CircuitError)
    if r < 2:
        raise CircuitError("hamming_coder requires r >= 2")
    n = (1 << r) - 1
    if error_position is not None and not 1 <= error_position <= n:
        raise CircuitError(
            f"error_position must be in 1..{n}, got {error_position}"
        )
    names = [f"x{p}" for p in range(1, n + 1)] + [f"s{j}" for j in range(r)]
    builder = TableBuilder(n + r, name=f"ham{n}", qubit_names=names)

    def pos(p: int) -> int:
        return p - 1

    syndrome = [n + j for j in range(r)]
    parity_positions = [1 << j for j in range(r)]
    # Encode: parity position 2**j <- parity of covered data positions.
    for j, parity_pos in enumerate(parity_positions):
        for p in range(1, n + 1):
            if p != parity_pos and (p >> j) & 1:
                builder.cnot(pos(p), pos(parity_pos))
    # Channel: optional deterministic single-bit error.
    if error_position is not None:
        builder.x(pos(error_position))
    # Syndrome: s_j <- parity over *all* positions with bit j set.
    for j in range(r):
        for p in range(1, n + 1):
            if (p >> j) & 1:
                builder.cnot(pos(p), syndrome[j])
    # Correct: flip position p when the syndrome equals p.
    for p in range(1, n + 1):
        zero_bits = [syndrome[j] for j in range(r) if not (p >> j) & 1]
        for q in zero_bits:
            builder.x(q)
        builder.mct(tuple(syndrome), pos(p))
        for q in zero_bits:
            builder.x(q)
    return Circuit.from_table(builder.finish())


def ham3() -> Circuit:
    """The ham3 FT circuit of the paper's Figure 2: 19 FT gates, 3 qubits.

    One 3-input Toffoli expanded into its 15-gate FT realization followed
    by four CNOTs, yielding the 19-operation QODG drawn in Figure 2(b).
    """
    from .table import emit_toffoli_ft

    builder = TableBuilder(3, name="ham3", qubit_names=["a", "b", "c"])
    emit_toffoli_ft(builder, 0, 1, 2)
    # Followed by the four CNOTs of Figure 2.
    builder.cnot(1, 2)
    builder.cnot(0, 1)
    builder.cnot(2, 0)
    builder.cnot(1, 2)
    return Circuit.from_table(builder.finish())


# ---------------------------------------------------------------------------
# Synthetic circuits for tests and sweeps
# ---------------------------------------------------------------------------


def random_reversible(
    n: int, gate_count: int, seed: int, toffoli_fraction: float = 0.3
) -> Circuit:
    """Random NCT (NOT/CNOT/Toffoli) circuit; deterministic given ``seed``.

    ``toffoli_fraction`` of the gates are Toffolis, the rest split evenly
    between CNOT and NOT.  Useful for property tests and runtime sweeps
    where only graph structure matters.  One chunk of
    :func:`stream_random_nct`.
    """
    (table,) = stream_random_nct(
        n, gate_count, seed, toffoli_fraction, chunk_size=sys.maxsize
    )
    return Circuit.from_table(table)


def stream_random_nct(
    n: int,
    gate_count: int,
    seed: int,
    toffoli_fraction: float = 0.3,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[GateTable]:
    """Chunked :func:`random_reversible`: the same RNG draws in the same
    order, emitted every ``chunk_size`` gates."""
    require_positive_int(n, "n", CircuitError)
    if n < 3:
        raise CircuitError("random_reversible requires n >= 3")
    _require_chunk_size(chunk_size)
    rng = random.Random(seed)
    builder = TableBuilder(n, name=f"random{n}x{gate_count}")
    for start in range(0, gate_count, chunk_size):
        for _ in range(min(chunk_size, gate_count - start)):
            roll = rng.random()
            if roll < toffoli_fraction:
                c1, c2, tgt = rng.sample(range(n), 3)
                builder.toffoli(c1, c2, tgt)
            elif roll < toffoli_fraction + (1 - toffoli_fraction) / 2:
                c1, tgt = rng.sample(range(n), 2)
                builder.cnot(c1, tgt)
            else:
                builder.x(rng.randrange(n))
        if len(builder) == chunk_size:
            yield builder.finish()
            builder.clear_rows()
    builder.shrink_to_fit()
    yield builder.finish()


#: One-qubit kinds :func:`random_ft` draws from (uniformly).
_RANDOM_FT_ONE_QUBIT = (
    GateKind.X,
    GateKind.Y,
    GateKind.Z,
    GateKind.H,
    GateKind.S,
    GateKind.SDG,
    GateKind.T,
    GateKind.TDG,
)


def random_ft(
    n: int, gate_count: int, seed: int, cnot_fraction: float = 0.4
) -> Circuit:
    """Random circuit straight in the FT gate set; deterministic per seed.

    ``cnot_fraction`` of the gates are CNOTs over a random qubit pair,
    the rest uniform draws from the one-qubit FT kinds.  The output needs
    no synthesis, making this the cheapest family for scheduler/estimator
    ensemble sweeps (the ``random_ft`` workload).  One chunk of
    :func:`stream_random_ft`.
    """
    (table,) = stream_random_ft(
        n, gate_count, seed, cnot_fraction, chunk_size=sys.maxsize
    )
    return Circuit.from_table(table)


def stream_random_ft(
    n: int,
    gate_count: int,
    seed: int,
    cnot_fraction: float = 0.4,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[GateTable]:
    """Chunked :func:`random_ft`: the same RNG draws in the same order,
    so peak memory is one chunk whatever ``gate_count`` is."""
    require_positive_int(n, "n", CircuitError)
    if n < 2:
        raise CircuitError("random_ft requires n >= 2")
    if not 0.0 <= cnot_fraction <= 1.0:
        raise CircuitError(
            f"cnot_fraction must be in [0, 1], got {cnot_fraction}"
        )
    _require_chunk_size(chunk_size)
    rng = random.Random(seed)
    builder = TableBuilder(n, name=f"randomft{n}x{gate_count}")
    one_qubit_kinds = _RANDOM_FT_ONE_QUBIT
    for start in range(0, gate_count, chunk_size):
        for _ in range(min(chunk_size, gate_count - start)):
            if rng.random() < cnot_fraction:
                control, target = rng.sample(range(n), 2)
                builder.cnot(control, target)
            else:
                builder.one_qubit(
                    one_qubit_kinds[rng.randrange(len(one_qubit_kinds))],
                    rng.randrange(n),
                )
        if len(builder) == chunk_size:
            yield builder.finish()
            builder.clear_rows()
    builder.shrink_to_fit()
    yield builder.finish()


def cnot_ladder(n: int, layers: int = 1) -> Circuit:
    """``layers`` sweeps of nearest-neighbour CNOTs down a line of qubits.

    A minimal structured circuit whose QODG critical path is known in
    closed form, used as a test fixture.
    """
    require_positive_int(n, "n", CircuitError)
    require_positive_int(layers, "layers", CircuitError)
    if n < 2:
        raise CircuitError("cnot_ladder requires n >= 2")
    builder = TableBuilder(n, name=f"ladder{n}x{layers}")
    for _ in range(layers):
        for i in range(n - 1):
            builder.cnot(i, i + 1)
    return Circuit.from_table(builder.finish())
