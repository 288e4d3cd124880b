"""GF(2) polynomial arithmetic for the GF(2^n) multiplier generator.

Polynomials over GF(2) are represented as Python integers: bit ``i`` of the
integer is the coefficient of ``x**i``.  This gives carry-free addition via
XOR and lets field sizes up to (and well beyond) the paper's ``gf2^256mult``
benchmark run instantly.

The module provides multiplication, modular reduction, gcd, modular
exponentiation of ``x``, Rabin's irreducibility test, and a search for the
lowest-weight irreducible polynomial of a given degree (trinomials first,
then pentanomials) — used to define the field each multiplier circuit
computes in.
"""

from __future__ import annotations

import functools
from itertools import combinations

from .._validation import require_positive_int
from ..exceptions import CircuitError

__all__ = [
    "poly_degree",
    "poly_mul",
    "poly_mod",
    "poly_mulmod",
    "poly_gcd",
    "poly_pow_x",
    "is_irreducible",
    "find_irreducible",
    "reduction_table",
]


def poly_degree(poly: int) -> int:
    """Degree of the polynomial (-1 for the zero polynomial)."""
    return poly.bit_length() - 1


def poly_mul(lhs: int, rhs: int) -> int:
    """Carry-free (GF(2)) product of two polynomials."""
    result = 0
    shift = 0
    while rhs:
        if rhs & 1:
            result ^= lhs << shift
        rhs >>= 1
        shift += 1
    return result


def poly_mod(poly: int, modulus: int) -> int:
    """Remainder of ``poly`` divided by ``modulus`` over GF(2)."""
    if modulus == 0:
        raise CircuitError("polynomial modulus must be non-zero")
    mod_degree = poly_degree(modulus)
    while poly_degree(poly) >= mod_degree:
        poly ^= modulus << (poly_degree(poly) - mod_degree)
    return poly


def poly_mulmod(lhs: int, rhs: int, modulus: int) -> int:
    """``(lhs * rhs) mod modulus`` over GF(2)."""
    return poly_mod(poly_mul(lhs, rhs), modulus)


def poly_gcd(lhs: int, rhs: int) -> int:
    """Greatest common divisor of two GF(2) polynomials."""
    while rhs:
        lhs, rhs = rhs, poly_mod(lhs, rhs)
    return lhs


def _spread_nibble(nibble: int) -> int:
    return sum(((nibble >> i) & 1) << (2 * i) for i in range(4))


# A byte's low and high nibbles with their bits spread to even positions:
# the two output bytes of that byte's square.
_SQUARE_LOW = bytes(_spread_nibble(byte & 15) for byte in range(256))
_SQUARE_HIGH = bytes(_spread_nibble(byte >> 4) for byte in range(256))


def _square(poly: int) -> int:
    """``poly**2`` over GF(2): bit ``i`` moves to bit ``2i``."""
    raw = poly.to_bytes((poly.bit_length() + 7) // 8, "little")
    spread = bytearray(2 * len(raw))
    spread[0::2] = raw.translate(_SQUARE_LOW)
    spread[1::2] = raw.translate(_SQUARE_HIGH)
    return int.from_bytes(spread, "little")


def poly_pow_x(exponent_log2: int, modulus: int) -> int:
    """Compute ``x**(2**exponent_log2) mod modulus`` by repeated squaring.

    Squaring over GF(2) only spreads the bits (bit ``i`` moves to bit
    ``2i``), and ``x**n`` is congruent to the modulus' low terms, so each
    step folds the part at or above degree ``n`` back over those few
    terms instead of dividing bit by bit.
    """
    if modulus == 0:
        raise CircuitError("polynomial modulus must be non-zero")
    degree = poly_degree(modulus)
    mask = (1 << degree) - 1
    low_terms = [k for k in range(degree) if (modulus >> k) & 1]
    value = 2  # the polynomial "x"
    for _ in range(exponent_log2):
        value = _square(value)
        high = value >> degree
        while high:
            value &= mask
            for k in low_terms:
                value ^= high << k
            high = value >> degree
    return value


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of ``n`` (trial division; n is a degree)."""
    factors = []
    candidate = 2
    while candidate * candidate <= n:
        if n % candidate == 0:
            factors.append(candidate)
            while n % candidate == 0:
                n //= candidate
        candidate += 1
    if n > 1:
        factors.append(n)
    return factors


def is_irreducible(poly: int) -> bool:
    """Rabin's irreducibility test for a GF(2) polynomial.

    ``poly`` of degree n is irreducible iff ``x**(2**n) == x (mod poly)``
    and ``gcd(x**(2**(n/q)) - x, poly) == 1`` for every prime ``q | n``.
    """
    n = poly_degree(poly)
    if n <= 0:
        return False
    if n == 1:
        return True
    if not poly & 1:  # divisible by x
        return False
    if poly_pow_x(n, poly) != 2:
        return False
    for prime in _prime_factors(n):
        probe = poly_pow_x(n // prime, poly) ^ 2  # x**(2**(n/q)) - x
        if poly_gcd(probe, poly) != 1:
            return False
    return True


@functools.lru_cache(maxsize=None)
def find_irreducible(degree: int) -> int:
    """Lowest-weight irreducible polynomial of the given degree.

    Searches trinomials ``x^n + x^k + 1`` in increasing ``k``, then
    pentanomials ``x^n + x^a + x^b + x^c + 1``.  Every degree >= 2 has an
    irreducible pentanomial in practice; a failure raises
    :class:`CircuitError` (never observed for degrees used here).
    """
    require_positive_int(degree, "degree", CircuitError)
    if degree == 1:
        return 0b10  # x
    top = (1 << degree) | 1
    for k in range(1, degree):
        candidate = top | (1 << k)
        if is_irreducible(candidate):
            return candidate
    for a, b, c in combinations(range(1, degree), 3):
        candidate = top | (1 << a) | (1 << b) | (1 << c)
        if is_irreducible(candidate):
            return candidate
    raise CircuitError(
        f"no irreducible trinomial/pentanomial of degree {degree} found"
    )


def reduction_table(degree: int, modulus: int | None = None) -> list[int]:
    """Reduction of each power ``x**d`` for ``d`` in ``0 .. 2*degree - 2``.

    Entry ``d`` is the bit-vector (integer) of ``x**d mod p`` expressed over
    the basis ``x^0 .. x^(degree-1)``.  This drives the Mastrovito
    multiplier generator: the partial product ``a_i * b_j`` lands on every
    output coefficient whose bit is set in entry ``i + j``.
    """
    require_positive_int(degree, "degree", CircuitError)
    if modulus is None:
        modulus = find_irreducible(degree)
    if poly_degree(modulus) != degree:
        raise CircuitError(
            f"modulus degree {poly_degree(modulus)} does not match {degree}"
        )
    return [poly_mod(1 << d, modulus) for d in range(2 * degree - 1)]
