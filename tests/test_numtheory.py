import math
import random

import pytest

from semidlog import DomainError, SemigroupError
from semidlog.numtheory import (
    PSI,
    PSI_13,
    TRIAL_DIVISION_LIMIT,
    _trial_division,
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
    limit = 10 ** 5
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


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


@pytest.mark.parametrize("k", range(1, 13))
def test_is_prime_rejects_every_psi_k(k):
    # psi_k passes the first k prime bases, so is_prime must run more
    # than k of them to reject it
    psi_k = PSI[k - 1]
    assert all(_strong_probable_prime(psi_k, a)
               for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)[:k])
    assert not is_prime(psi_k)


def test_is_prime_past_twelve_bases():
    # psi_12, the least strong pseudoprime to the prime bases 2..37
    psi_12 = 318665857834031151167461
    assert not is_prime(psi_12)
    assert is_prime(399165290221) and is_prime(798330580441)
    assert 399165290221 * 798330580441 == psi_12
    with pytest.raises(DomainError, match="psi_13"):
        is_prime(PSI_13)
    with pytest.raises(DomainError):
        is_prime(PSI_13 + 2)


# every integer helper outside its domain raises one typed error, which
# is a SemigroupError and, for older callers, a ValueError
@pytest.mark.parametrize("call, message", [
    (lambda: ceil_sqrt(-1), "ceil_sqrt of negative number"),
    (lambda: factor_integer(0), "n must be >= 1, got 0"),
    (lambda: factor_integer(2 ** 64), r"factor_integer supports n < 2\^63"),
    (lambda: crt_combine([(1, 4), (1, 6)]),
     r"moduli are not pairwise coprime \(gcd 2\)"),
    (lambda: crt_combine([(0, 0)]), "modulus must be >= 1, got 0"),
    (lambda: is_prime(PSI_13), "deterministic only below psi_13"),
], ids=["ceil_sqrt", "factor-0", "factor-2^64", "crt-coprime",
        "crt-modulus", "is_prime"])
def test_integer_helpers_raise_domain_error(call, message):
    with pytest.raises(DomainError, match=message) as err:
        call()
    assert isinstance(err.value, SemigroupError)
    assert isinstance(err.value, ValueError)


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
    # past trial division: the cofactor is a perfect square
    (1000003 ** 2, [(1000003, 2)]),
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


# primes just below and just above 10^12, the square of the trial-division
# limit 10^6: trial division stops once the cofactor left is such a prime
_P_BELOW, _P_ABOVE = 999999999989, 1000000000039


@pytest.mark.parametrize("big", [_P_BELOW, _P_ABOVE])
@pytest.mark.parametrize("u, u_factors", [
    (1, []),
    (168, [(2, 3), (3, 1), (7, 1)]),
    (2 ** 20, [(2, 20)]),
    (991 * 997, [(991, 1), (997, 1)]),
    (1000003, [(1000003, 1)]),  # above the limit: rho splits u*P
    (7 * 1000003, [(7, 1), (1000003, 1)]),
])
def test_factor_integer_rough(u, u_factors, big):
    assert is_prime(big)
    assert factor_integer(u * big) == sorted(u_factors + [(big, 1)])
    if u < TRIAL_DIVISION_LIMIT:
        # the trial division itself stops at the prime cofactor
        assert _trial_division(u * big, TRIAL_DIVISION_LIMIT,
                               stop_at_prime=True) == (
            u_factors + [(big, 1)], 1)


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
