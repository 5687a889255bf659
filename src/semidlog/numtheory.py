"""Integer helpers: primality, factorization, CRT.

These run on ordinary Python ints and are never counted against a
semigroup multiplication budget.
"""

from __future__ import annotations

import math
import random

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24
# (covers the documented n < 2^63 input range with room to spare).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

TRIAL_DIVISION_LIMIT = 10 ** 6


def ceil_sqrt(n: int) -> int:
    """Smallest integer q with q*q >= n."""
    if n < 0:
        raise ValueError("ceil_sqrt of negative number")
    r = math.isqrt(n)
    return r + (r * r < n)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = max(n + 1, 2)
    if c > 2 and c % 2 == 0:
        c += 1
    while not is_prime(c):
        c += 1 if c == 2 else 2
    return c


def _brent_rho(n: int, rng: random.Random) -> int:
    """One nontrivial factor of composite odd n (Brent's cycle variant)."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factor_integer(n: int) -> list:
    """Complete prime factorization of n >= 1 as [(p, e), ...], p ascending.

    Trial division up to min(sqrt(n), 10^6), then Brent's rho with seeded
    restarts on whatever composite cofactor survives; every reported prime
    is certified by the deterministic Miller-Rabin test.
    """
    if n < 1:
        raise ValueError("factor_integer requires n >= 1")
    if n >= 1 << 63:
        raise ValueError("factor_integer supports n < 2^63")
    if n == 1:
        return []
    factors: dict[int, int] = {}

    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # 30-wheel trial division
    d = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    idx = 0
    while d <= TRIAL_DIVISION_LIMIT and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += increments[idx]
        idx = (idx + 1) % 8

    rng = random.Random(0xB0B)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack.extend((r, r))
            continue
        f = _brent_rho(m, rng)
        stack.extend((f, m // f))

    return sorted(factors.items())


def prime_power_divisors_below(n: int, bound: int) -> list:
    """Prime-power divisors p^k of n with p^k <= bound, descending.

    Only primes up to `bound` are discovered (larger prime factors of n
    are irrelevant since their powers exceed the bound anyway).
    """
    out = []
    rem = n
    for p in (2, 3, 5):
        if p > bound:
            break
        e = 0
        while rem % p == 0:
            rem //= p
            e += 1
        pk = p
        for _ in range(e):
            if pk > bound:
                break
            out.append(pk)
            pk *= p
    d = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    idx = 0
    while d <= bound and d * d <= rem:
        e = 0
        while rem % d == 0:
            rem //= d
            e += 1
        if e:
            pk = d
            for _ in range(e):
                if pk > bound:
                    break
                out.append(pk)
                pk *= d
        d += increments[idx]
        idx = (idx + 1) % 8
    if 1 < rem <= bound:
        out.append(rem)
    out.sort(reverse=True)
    return out


def crt_combine(residues) -> int:
    """Unique solution mod prod(moduli) of x = r_i (mod m_i).

    `residues` is an iterable of (r_i, m_i) pairs with pairwise coprime
    moduli; non-coprime moduli raise ValueError.
    """
    x, mod = 0, 1
    for r, m in residues:
        if m < 1:
            raise ValueError("moduli must be positive")
        g = math.gcd(mod, m)
        if g != 1:
            raise ValueError(f"moduli are not pairwise coprime (gcd {g})")
        # merge x (mod mod) with r (mod m)
        inv = pow(mod, -1, m)
        x = x + mod * ((r - x) * inv % m)
        mod *= m
        x %= mod
    return x
