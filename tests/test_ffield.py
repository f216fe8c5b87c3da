"""The F_p modulus checks and the inverse of two, from ``qnc.classical_code``."""

import pytest

from qnc.classical_code import inverse_of_two, is_odd_prime, validate_modulus


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
def test_odd_primes_accepted(p):
    assert is_odd_prime(p)
    validate_modulus(p)


@pytest.mark.parametrize("p", [-3, 0, 1, 2, 4, 9, 15, 21, 49])
def test_non_odd_primes_rejected(p):
    assert not is_odd_prime(p)
    with pytest.raises(ValueError):
        validate_modulus(p)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_half_doubles_back(p):
    half = inverse_of_two(p)
    assert half == (p + 1) // 2
    assert (2 * half) % p == 1
    for a in range(p):
        assert (half * 2 * a) % p == a
