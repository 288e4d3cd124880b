"""Unit tests for GF(2) polynomial arithmetic (repro.circuits.gf2)."""

from __future__ import annotations

import random

import pytest

from repro.circuits.gf2 import (
    find_irreducible,
    is_irreducible,
    poly_degree,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_mulmod,
    poly_pow_x,
    reduction_table,
)
from repro.exceptions import CircuitError

#: find_irreducible(degree) for degrees 1-64, 128 and 256, recorded before
#: the squaring in poly_pow_x moved from poly_mulmod to bit spreading.
FROZEN_IRREDUCIBLE = {
    1: 0x2, 2: 0x7, 3: 0xb, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x187,
    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x2027, 14: 0x4021,
    15: 0x8003, 16: 0x10047, 17: 0x20009, 18: 0x40009, 19: 0x80027,
    20: 0x100009, 21: 0x200005, 22: 0x400003, 23: 0x800021, 24: 0x1000087,
    25: 0x2000009, 26: 0x4000047, 27: 0x8000027, 28: 0x10000003,
    29: 0x20000005, 30: 0x40000003, 31: 0x80000009, 32: 0x100400007,
    33: 0x200000401, 34: 0x400000081, 35: 0x800000005, 36: 0x1000000201,
    37: 0x2000000207, 38: 0x4000000087, 39: 0x8000000011, 40: 0x10008000007,
    41: 0x20000000009, 42: 0x40000000081, 43: 0x80000001007,
    44: 0x100000000021, 45: 0x200000020007, 46: 0x400000000003,
    47: 0x800000000021, 48: 0x1000000020007, 49: 0x2000000000201,
    50: 0x4000000000207, 51: 0x8000010000007, 52: 0x10000000000009,
    53: 0x20000000000047, 54: 0x40000000000201, 55: 0x80000000000081,
    56: 0x100000000200007, 57: 0x200000000000011, 58: 0x400000000080001,
    59: 0x800000001000007, 60: 0x1000000000000003, 61: 0x2000000000000027,
    62: 0x4000000020000001, 63: 0x8000000000000003, 64: 0x10000000000000807,
    128: 0x100000000000000000000000000000087,
    256: (1 << 256) | 0x800000000000000000000000000000000000007,
}


class TestPolyBasics:
    def test_degree(self):
        assert poly_degree(0) == -1
        assert poly_degree(1) == 0
        assert poly_degree(0b1011) == 3

    def test_mul_is_carry_free(self):
        # (x + 1)(x + 1) = x^2 + 1 over GF(2).
        assert poly_mul(0b11, 0b11) == 0b101

    def test_mul_by_zero(self):
        assert poly_mul(0b1101, 0) == 0

    def test_mod_reduces_degree(self):
        # x^3 mod (x^2 + x + 1): x^3 = x*x^2 = x(x+1) = x^2+x = 1.
        assert poly_mod(0b1000, 0b111) == 0b1

    def test_mod_zero_modulus_rejected(self):
        with pytest.raises(CircuitError):
            poly_mod(0b101, 0)

    def test_mulmod_matches_mul_then_mod(self):
        modulus = 0b10011  # x^4 + x + 1
        for a in range(1, 16):
            for b in range(1, 16):
                assert poly_mulmod(a, b, modulus) == poly_mod(
                    poly_mul(a, b), modulus
                )

    def test_gcd(self):
        # gcd(x^2 + x, x) = x.
        assert poly_gcd(0b110, 0b10) == 0b10

    def test_pow_x_small(self):
        modulus = 0b111  # x^2 + x + 1, field GF(4): x^4 = x.
        assert poly_pow_x(2, modulus) == 0b10

    def test_pow_x_matches_repeated_mulmod(self):
        # Dense and sparse moduli alike, against the bit-loop product.
        rng = random.Random(5)
        for _ in range(200):
            modulus = rng.getrandbits(rng.randrange(1, 80)) | 1
            steps = rng.randrange(0, 12)
            expected = 2
            for _ in range(steps):
                expected = poly_mulmod(expected, expected, modulus)
            assert poly_pow_x(steps, modulus) == expected

    def test_pow_x_zero_modulus_rejected(self):
        with pytest.raises(CircuitError):
            poly_pow_x(3, 0)


class TestIrreducibility:
    @pytest.mark.parametrize("poly", [
        0b111,       # x^2 + x + 1
        0b1011,      # x^3 + x + 1
        0b10011,     # x^4 + x + 1
        0b100101,    # x^5 + x^2 + 1
    ])
    def test_known_irreducible(self, poly):
        assert is_irreducible(poly)

    @pytest.mark.parametrize("poly", [
        0b101,     # x^2 + 1 = (x+1)^2
        0b110,     # x^2 + x = x(x+1)
        0b1111,    # x^3+x^2+x+1 = (x+1)(x^2+1)
    ])
    def test_known_reducible(self, poly):
        assert not is_irreducible(poly)

    def test_degree_one_is_irreducible(self):
        assert is_irreducible(0b10)
        assert is_irreducible(0b11)

    def test_constants_are_not(self):
        assert not is_irreducible(1)
        assert not is_irreducible(0)


class TestFindIrreducible:
    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 8, 15, 16, 20])
    def test_found_polynomial_is_irreducible_of_right_degree(self, degree):
        poly = find_irreducible(degree)
        assert poly_degree(poly) == degree
        assert is_irreducible(poly)

    def test_degree_15_is_the_classic_trinomial(self):
        # x^15 + x + 1 is the lowest-k irreducible trinomial of degree 15.
        assert find_irreducible(15) == (1 << 15) | 0b11

    def test_large_degrees_terminate(self):
        for degree in (64, 128, 256):
            assert find_irreducible(degree) == FROZEN_IRREDUCIBLE[degree]

    def test_frozen_polynomials(self):
        for degree in range(1, 64):
            assert find_irreducible(degree) == FROZEN_IRREDUCIBLE[degree]

    def test_invalid_degree_rejected(self):
        with pytest.raises(CircuitError):
            find_irreducible(0)


class TestReductionTable:
    def test_low_powers_are_monomials(self):
        table = reduction_table(4)
        for d in range(4):
            assert table[d] == 1 << d

    def test_table_length(self):
        assert len(reduction_table(6)) == 11  # 2n - 1

    def test_entries_reduce_correctly(self):
        modulus = find_irreducible(5)
        table = reduction_table(5, modulus)
        for d, entry in enumerate(table):
            assert entry == poly_mod(1 << d, modulus)
            assert poly_degree(entry) < 5

    def test_modulus_degree_mismatch_rejected(self):
        with pytest.raises(CircuitError, match="degree"):
            reduction_table(4, modulus=0b111)
