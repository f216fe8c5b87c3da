"""Modulus checks for the prime field F_p, odd primes p >= 3.

All field arithmetic is done on plain integers reduced mod p; this module
only validates the modulus and supplies the inverse-of-two constant.
"""

from __future__ import annotations


def is_odd_prime(n: int) -> bool:
    """Deterministic primality test by trial division, restricted to odd n >= 3."""
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def validate_modulus(p: int) -> int:
    if not isinstance(p, int) or isinstance(p, bool):
        raise TypeError(f"modulus must be an int, got {type(p).__name__}")
    if not is_odd_prime(p):
        raise ValueError(f"modulus must be an odd prime >= 3, got {p}")
    return p


def inverse_of_two(p: int) -> int:
    """Multiplicative inverse of 2 mod p; equals (p + 1) / 2 for odd p."""
    return (p + 1) // 2
