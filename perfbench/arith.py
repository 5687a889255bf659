"""Integer helpers the benchmark uses to plant and check answers.

They are written independently of `semidlog.numtheory` so that the
answer checker does not trust the code it measures.
"""

from __future__ import annotations

import math

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list:
    """Distinct prime factors of n >= 1 by trial division, ascending.

    Only used on numbers below about 2^40, where sqrt(n) trial divisions
    stay in the milliseconds.
    """
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def primes_up_to(n: int) -> list:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


def prime_near(target: int, rng) -> int:
    """A prime in [target, 2*target), found from a seeded random start."""
    c = rng.randrange(target, 2 * target) | 1
    while not is_prime(c):
        c += 2
    return c
