"""Functional tests for the benchmark circuit generators.

Every generator is checked against its mathematical definition via
basis-state simulation — the adder adds, the multiplier multiplies in
GF(2^n), hwb rotates by Hamming weight, the Hamming coder corrects.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.circuits.generators import (
    cnot_ladder,
    controlled_increment_gates,
    controlled_rotation_gates,
    gf2_multiplier,
    ham3,
    hamming_coder,
    hwb,
    modular_adder,
    random_ft,
    random_reversible,
    ripple_adder,
    stream_random_nct,
)
from repro.circuits.gf2 import find_irreducible, poly_mulmod, reduction_table
from repro.circuits.circuit import Circuit
from repro.circuits.gates import GateKind
from repro.circuits.simulate import simulate_basis
from repro.circuits.table import TableBuilder
from repro.exceptions import CircuitError


def _bits(value: int, width: int) -> list[int]:
    return [(value >> i) & 1 for i in range(width)]


def _value(bits: list[int]) -> int:
    return sum(bit << i for i, bit in enumerate(bits))


class TestRippleAdder:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_adds_mod_2n_exhaustively(self, n):
        circuit = ripple_adder(n)
        for a in range(1 << n):
            for b in range(1 << n):
                bits = [0] * n + _bits(a, n) + _bits(b, n)
                out = simulate_basis(circuit, bits)
                assert _value(out[2 * n:]) == (a + b) % (1 << n)

    def test_carries_and_a_register_restored(self):
        n = 4
        circuit = ripple_adder(n)
        rng = random.Random(3)
        for _ in range(25):
            a, b = rng.randrange(1 << n), rng.randrange(1 << n)
            bits = [0] * n + _bits(a, n) + _bits(b, n)
            out = simulate_basis(circuit, bits)
            assert out[:n] == [0] * n
            assert _value(out[n: 2 * n]) == a

    def test_carry_in_participates(self):
        n = 3
        circuit = ripple_adder(n)
        bits = [1] + [0] * (n - 1) + _bits(2, n) + _bits(3, n)
        out = simulate_basis(circuit, bits)
        assert _value(out[2 * n:]) == (2 + 3 + 1) % 8

    def test_qubit_count_is_3n(self):
        assert ripple_adder(8).num_qubits == 24  # the paper's 8bitadder

    def test_only_synthesis_gates(self):
        kinds = {g.kind for g in ripple_adder(5)}
        assert kinds <= {GateKind.TOFFOLI, GateKind.CNOT}

    def test_invalid_n_rejected(self):
        with pytest.raises(CircuitError):
            ripple_adder(0)


class TestModularAdder:
    def test_is_mod_2n_adder(self):
        circuit = modular_adder(3)
        assert circuit.name == "mod8adder"
        bits = [0] * 3 + _bits(5, 3) + _bits(6, 3)
        out = simulate_basis(circuit, bits)
        assert _value(out[6:]) == (5 + 6) % 8

    def test_explicit_power_of_two_modulus_accepted(self):
        assert modular_adder(4, modulus=16).name == "mod16adder"

    def test_non_power_of_two_rejected(self):
        with pytest.raises(CircuitError, match="power-of-two"):
            modular_adder(4, modulus=15)

    def test_paper_instance_naming(self):
        assert modular_adder(20).name == "mod1048576adder"


class TestGf2Multiplier:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_multiplies_in_the_field(self, n):
        circuit = gf2_multiplier(n)
        modulus = find_irreducible(n)
        rng = random.Random(n)
        for _ in range(30):
            a, b = rng.randrange(1 << n), rng.randrange(1 << n)
            bits = _bits(a, n) + _bits(b, n) + [0] * n
            out = simulate_basis(circuit, bits)
            assert _value(out[2 * n:]) == poly_mulmod(a, b, modulus)

    def test_accumulates_into_c(self):
        # c starts non-zero: result is c XOR a*b.
        n = 4
        circuit = gf2_multiplier(n)
        modulus = find_irreducible(n)
        a, b, c = 5, 9, 3
        bits = _bits(a, n) + _bits(b, n) + _bits(c, n)
        out = simulate_basis(circuit, bits)
        assert _value(out[2 * n:]) == c ^ poly_mulmod(a, b, modulus)

    def test_inputs_preserved(self):
        n = 4
        circuit = gf2_multiplier(n)
        bits = _bits(11, n) + _bits(7, n) + [0] * n
        out = simulate_basis(circuit, bits)
        assert _value(out[:n]) == 11
        assert _value(out[n: 2 * n]) == 7

    def test_qubit_count_is_3n(self):
        assert gf2_multiplier(16).num_qubits == 48  # matches the paper row

    def test_all_gates_are_toffolis(self):
        assert {g.kind for g in gf2_multiplier(4)} == {GateKind.TOFFOLI}

    def test_custom_modulus(self):
        n = 4
        modulus = 0b11001  # x^4 + x^3 + 1, irreducible
        circuit = gf2_multiplier(n, modulus=modulus)
        bits = _bits(9, n) + _bits(13, n) + [0] * n
        out = simulate_basis(circuit, bits)
        assert _value(out[2 * n:]) == poly_mulmod(9, 13, modulus)

    def test_wrong_degree_modulus_rejected(self):
        with pytest.raises(CircuitError, match="degree"):
            gf2_multiplier(4, modulus=0b111)

    @pytest.mark.parametrize(
        "n,fingerprint",
        [
            (1, "83d375c11671826c6fc4320960def931"),
            (2, "15145260e14c4dcce626a6d2bd972672"),
            (3, "0dcbac4bda1edc9d8f459b054e65ebaf"),
            (5, "1e3b9074d7caa46dc34bb82700c12d80"),
            (16, "9d52f4080e71b2dbba64441dfdbae23c"),
            (20, "a9f9100188cbbcdcc0d6a7c19b991fb1"),
            (64, "eeb5c4cab38c37d85037a4dea7c061ba"),
        ],
    )
    def test_frozen_fingerprint(self, n, fingerprint):
        # Recorded from the per-gate loop over (i, j) row-major, then m.
        circuit = gf2_multiplier(n)
        assert circuit.name == f"gf2^{n}mult"
        assert circuit.table().fingerprint() == fingerprint

    def test_matches_the_per_gate_loop(self):
        # The loop the column build replaced, over random moduli too
        # (the builder checks only the degree, not irreducibility).
        rng = random.Random(16)
        cases = [(n, None) for n in (1, 2, 7, 9, 17)]
        cases += [
            (n, (1 << n) | rng.getrandbits(n))
            for n in (1, 3, 8, 12, 24) for _ in range(2)
        ]
        for n, modulus in cases:
            field = find_irreducible(n) if modulus is None else modulus
            reduction = reduction_table(n, field)
            builder = TableBuilder(3 * n)
            for i in range(n):
                for j in range(n):
                    for m in range(n):
                        if (reduction[i + j] >> m) & 1:
                            builder.toffoli(i, n + j, 2 * n + m)
            expected = builder.finish()
            table = gf2_multiplier(n, modulus=modulus).table()
            assert table.fingerprint() == expected.fingerprint()

    def test_frozen_fingerprint_explicit_modulus(self):
        circuit = gf2_multiplier(8, modulus=0x11B)  # the AES polynomial
        assert circuit.name == "gf2^8mult"
        assert len(circuit) == 151
        assert circuit.table().fingerprint() == (
            "ff517940c9d6ed5ea5202780738d02d4"
        )


class TestControlledHelpers:
    def test_controlled_increment_counts(self):
        # 3-bit counter, increment 5 times under an always-on control.
        circuit = Circuit(4)
        for _ in range(5):
            circuit.extend(controlled_increment_gates(0, [1, 2, 3]))
        out = simulate_basis(circuit, [1, 0, 0, 0])
        assert _value(out[1:]) == 5

    def test_controlled_increment_inert_without_control(self):
        circuit = Circuit(4)
        circuit.extend(controlled_increment_gates(0, [1, 2, 3]))
        out = simulate_basis(circuit, [0, 1, 1, 0])
        assert out == [0, 1, 1, 0]

    def test_controlled_rotation_rotates_left(self):
        n = 5
        circuit = Circuit(n + 1)
        circuit.extend(controlled_rotation_gates(n, list(range(n)), 2))
        value = 0b00110
        out = simulate_basis(circuit, _bits(value, n) + [1])
        got = _value(out[:n])
        expected = 0
        for i in range(n):
            expected |= ((value >> ((i + 2) % n)) & 1) << i
        assert got == expected

    def test_controlled_rotation_zero_amount_is_empty(self):
        assert controlled_rotation_gates(5, [0, 1, 2], 3) == []


class TestHwb:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rotates_by_hamming_weight_exhaustively(self, n):
        circuit = hwb(n)
        extra = circuit.num_qubits - n
        for value in range(1 << n):
            out = simulate_basis(circuit, _bits(value, n) + [0] * extra)
            weight = bin(value).count("1")
            expected = 0
            for i in range(n):
                expected |= ((value >> ((i + weight) % n)) & 1) << i
            assert _value(out[:n]) == expected
            assert all(bit == 0 for bit in out[n:]), "counter not uncomputed"

    def test_counter_width(self):
        assert hwb(15).num_qubits == 15 + 4
        assert hwb(16).num_qubits == 16 + 5

    def test_small_n_rejected(self):
        with pytest.raises(CircuitError):
            hwb(1)


class TestHammingCoder:
    @staticmethod
    def _codeword_input(r: int, rng: random.Random) -> list[int]:
        """Random data bits; parity positions (powers of two) and the
        syndrome register start at zero, as the encoder expects."""
        n = (1 << r) - 1
        parity = {1 << j for j in range(r)}
        bits = [
            0 if (p in parity) else rng.randrange(2)
            for p in range(1, n + 1)
        ]
        return bits + [0] * r

    @pytest.mark.parametrize("r", [2, 3])
    def test_corrects_every_single_error(self, r):
        n = (1 << r) - 1
        clean = hamming_coder(r)
        for error_pos in range(1, n + 1):
            noisy = hamming_coder(r, error_position=error_pos)
            rng = random.Random(error_pos)
            for _ in range(10):
                bits = self._codeword_input(r, rng)
                clean_out = simulate_basis(clean, bits)
                noisy_out = simulate_basis(noisy, bits)
                # Corrected codeword equals the clean codeword...
                assert noisy_out[:n] == clean_out[:n]
                # ...and the syndrome register names the error position.
                assert _value(noisy_out[n:]) == error_pos

    def test_clean_channel_yields_zero_syndrome(self):
        r = 3
        n = (1 << r) - 1
        circuit = hamming_coder(r)
        rng = random.Random(1)
        for _ in range(10):
            bits = self._codeword_input(r, rng)
            out = simulate_basis(circuit, bits)
            assert out[n:] == [0] * r

    def test_invalid_error_position_rejected(self):
        with pytest.raises(CircuitError, match="error_position"):
            hamming_coder(3, error_position=8)

    def test_r_below_two_rejected(self):
        with pytest.raises(CircuitError):
            hamming_coder(1)


class TestHam3:
    def test_nineteen_ft_gates(self):
        circuit = ham3()
        assert len(circuit) == 19
        assert circuit.is_ft()

    def test_three_qubits_named(self):
        assert ham3().qubit_names == ("a", "b", "c")

    def test_gate_mix_matches_figure2(self):
        stats = ham3().stats()
        assert stats.counts_by_kind[GateKind.CNOT] == 10  # 6 + 4
        assert stats.counts_by_kind[GateKind.H] == 2
        assert stats.counts_by_kind[GateKind.T] == 4
        assert stats.counts_by_kind[GateKind.TDG] == 3


class TestSyntheticGenerators:
    def test_random_reversible_is_deterministic(self):
        c1 = random_reversible(5, 40, seed=9)
        c2 = random_reversible(5, 40, seed=9)
        assert list(c1) == list(c2)

    def test_random_reversible_different_seeds_differ(self):
        c1 = random_reversible(5, 40, seed=1)
        c2 = random_reversible(5, 40, seed=2)
        assert list(c1) != list(c2)

    def test_random_reversible_gate_count(self):
        assert len(random_reversible(4, 25, seed=0)) == 25

    def test_random_reversible_needs_three_qubits(self):
        with pytest.raises(CircuitError):
            random_reversible(2, 5, seed=0)

    def test_cnot_ladder_structure(self):
        circuit = cnot_ladder(4, layers=2)
        assert len(circuit) == 6
        assert all(g.kind is GateKind.CNOT for g in circuit)

    def test_cnot_ladder_needs_two_qubits(self):
        with pytest.raises(CircuitError):
            cnot_ladder(1)


class TestGoldenRandom:
    """The random generators' RNG replay, frozen as recorded fingerprints.

    The materialized generators are the one-chunk case of the chunked
    ones, so these literals (not a second generator) pin the draw order.
    """

    @pytest.mark.parametrize(
        "args,fingerprint",
        [
            ((2, 1, 0, 0.4), "f4326c44faff36c69b83ab46d6e2c336"),
            ((7, 500, 11, 0.4), "6acdd9f939ebf42837ad0088e6502b33"),
            ((16, 2000, 12345, 0.1), "ce0338243ea6300bcdac2bb57f0d3f51"),
        ],
    )
    def test_random_ft(self, args, fingerprint):
        n, gate_count, _, _ = args
        table = random_ft(*args).table()
        assert table.name == f"randomft{n}x{gate_count}"
        assert table.num_qubits == n
        assert len(table) == gate_count
        assert table.fingerprint() == fingerprint

    @pytest.mark.parametrize(
        "args,fingerprint",
        [
            ((3, 1, 0, 0.3), "97a8b044fd5627a2253017bceaa847ed"),
            ((8, 600, 7, 0.3), "3c1790f8d1bf3f78acdae3a67a174743"),
            ((20, 3000, 424242, 0.6), "a83bb76f86b08a3dcfc1009967ce9045"),
        ],
    )
    def test_random_reversible(self, args, fingerprint):
        n, gate_count, _, _ = args
        table = random_reversible(*args).table()
        assert table.name == f"random{n}x{gate_count}"
        assert table.num_qubits == n
        assert len(table) == gate_count
        assert table.fingerprint() == fingerprint


class TestGoldenStreamNct:
    """:func:`stream_random_nct`'s chunk boundaries, frozen per chunk.

    Each digest hashes every chunk's length and table fingerprint in
    order, so a moved boundary, a dropped trailing chunk or a changed
    draw all show.  1000 gates over chunks of 1, 250 and 1000 end on an
    exact multiple: the stream then yields one trailing empty chunk.
    """

    @pytest.mark.parametrize(
        "chunk_size,digest",
        [
            (1, "5672f124d5cc79dfd451d899f0352348"),
            (7, "2e04e6cdba3338d89e6b4c365198b3c5"),
            (250, "10465b3f9bbb68ebaa35c23aced653c5"),
            (256, "18498ffdd8755001ec77507d7629a40c"),
            (1000, "9b3b38a141790cee8d6d03df38d96646"),
        ],
    )
    def test_chunks(self, chunk_size, digest):
        chunks = list(
            stream_random_nct(9, 1000, 3, 0.3, chunk_size=chunk_size)
        )
        assert [len(chunk) for chunk in chunks] == (
            [chunk_size] * (1000 // chunk_size) + [1000 % chunk_size]
        )
        record = "".join(f"{len(c)}:{c.fingerprint()};" for c in chunks)
        assert hashlib.blake2b(
            record.encode(), digest_size=16
        ).hexdigest() == digest

    def test_empty_stream_yields_one_empty_chunk(self):
        (chunk,) = stream_random_nct(4, 0, 1, chunk_size=7)
        assert len(chunk) == 0
        assert chunk.num_qubits == 4
