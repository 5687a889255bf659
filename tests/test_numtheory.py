import math
import random

import pytest

from semidlog.numtheory import (
    ceil_sqrt,
    crt_combine,
    factor_integer,
    is_prime,
    next_prime,
    prime_power_divisors_below,
)


def test_ceil_sqrt():
    assert [ceil_sqrt(n) for n in (1, 2, 4, 8, 15, 16, 17, 100)] == \
        [1, 2, 2, 3, 4, 4, 5, 10]


def test_is_prime_small_range_against_sieve():
    limit = 2000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert is_prime(n) == sieve[n], n


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)          # Carmichael
    assert not is_prime(1729)
    assert is_prime(2 ** 31 - 1)      # Mersenne prime
    assert not is_prime(2 ** 29 - 1)  # 233 * 1103 * 2089


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(100) == 101
    assert next_prime(101) == 103
    assert next_prime(10 ** 6) == 1000003


@pytest.mark.parametrize("n,expected", [
    (1, []),
    (2, [(2, 1)]),
    (20, [(2, 2), (5, 1)]),
    (360, [(2, 3), (3, 2), (5, 1)]),
    (2 ** 31 - 1, [(2147483647, 1)]),
    (1000003 * 1000033, [(1000003, 1), (1000033, 1)]),
    (10007 ** 2, [(10007, 2)]),
])
def test_factor_integer_known(n, expected):
    assert factor_integer(n) == expected


def test_factor_integer_random_round_trip():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 10 ** 12)
        fact = factor_integer(n)
        prod = 1
        for p, e in fact:
            assert is_prime(p)
            prod *= p ** e
        assert prod == n
        assert fact == sorted(fact)


def test_factor_integer_large_semiprime():
    p, q = 2147483647, 2147483629
    assert factor_integer(p * q) == [(q, 1), (p, 1)]


def test_factor_integer_rejects_out_of_range():
    with pytest.raises(ValueError):
        factor_integer(0)
    with pytest.raises(ValueError):
        factor_integer(1 << 63)


def test_prime_power_divisors_below():
    assert prime_power_divisors_below(52, 10) == [4, 2]
    assert prime_power_divisors_below(52, 100) == [13, 4, 2]
    assert prime_power_divisors_below(20, 100) == [5, 4, 2]
    assert prime_power_divisors_below(8, 100) == [8, 4, 2]
    assert prime_power_divisors_below(1, 100) == []
    # large prime cofactor above the bound is ignored
    assert prime_power_divisors_below(2 * 1000003, 100) == [2]


def test_crt_combine_examples():
    assert crt_combine([(3, 4), (0, 5)]) == 15
    assert crt_combine([(2, 7)]) == 2
    assert crt_combine([(0, 4), (0, 5)]) == 0
    assert crt_combine([]) == 0


def test_crt_combine_matches_scan_oracle():
    rng = random.Random(4)
    for _ in range(50):
        moduli = rng.sample([4, 9, 25, 7, 11, 13], k=rng.randint(1, 4))
        residues = [(rng.randrange(m), m) for m in moduli]
        total = math.prod(moduli)
        expected = next(x for x in range(total)
                        if all(x % m == r for r, m in residues))
        assert crt_combine(residues) == expected


def test_crt_combine_rejects_non_coprime():
    with pytest.raises(ValueError):
        crt_combine([(1, 4), (3, 6)])
