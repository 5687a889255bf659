"""Integer helpers: primality, factorization, CRT.

These run on ordinary Python ints and are never counted against a
semigroup multiplication budget.  Arguments outside a helper's domain
raise DomainError, which is also a ValueError.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import accumulate, chain, cycle

from .core import DomainError, check_int

# psi_k is the least strong pseudoprime to all of the first k prime
# bases, so Miller-Rabin with those k bases is deterministic below psi_k
# and is_prime uses the least such k.  psi_1..psi_8 are tabulated by
# Jaeschke ("On strong pseudoprimes to several bases", Math. Comp. 61,
# 1993), psi_9 = psi_10 = psi_11 proved by Jiang and Deng (Math. Comp. 83,
# 2014), and psi_12, psi_13 by Sorenson and Webster ("Strong pseudoprimes
# to twelve prime bases", Math. Comp. 86, 2017); psi_12 =
# 318665857834031151167461 = 399165290221 * 798330580441.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051,
       318665857834031151167461, 3317044064679887385961981)
PSI_13 = PSI[-1]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

TRIAL_DIVISION_LIMIT = 10 ** 6
# gaps between the integers coprime to 30, from 7 on
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


def ceil_sqrt(n: int) -> int:
    """Smallest integer q with q*q >= n."""
    if n < 0:
        raise DomainError("ceil_sqrt of negative number")
    r = math.isqrt(n)
    return r + (r * r < n)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < PSI_13, with the first k prime
    bases for the least k with n < psi_k; DomainError from PSI_13 on."""
    if n < 2:
        return False
    if n >= PSI_13:
        raise DomainError(
            f"is_prime is deterministic only below psi_13 = {PSI_13}")
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
    for a in _MR_WITNESSES[:bisect_right(PSI, n) + 1]:
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


def _trial_division(n: int, limit: int):
    """Trial division of n >= 1 by 2, 3, 5 and the 30-wheel, up to `limit`
    and while the divisor's square does not exceed the unfactored part.
    Below PSI_13 it also stops as soon as the unfactored part is a prime
    P, tested on entry and after each prime is divided out while the
    square test would go on, and reports (P, 1) as found: a rough n = u*P
    then costs the divisors up to u's largest prime, not up to sqrt(P).

    Returns ([(p, e), ...] with p ascending, unfactored part).  The
    unfactored part has no prime factor up to the last divisor tried, so
    it is 1 or a prime whenever the square test stopped the division.
    """
    found = []
    if n < PSI_13 and is_prime(n):
        return [(n, 1)], 1
    for d in chain((2, 3, 5), accumulate(cycle(_WHEEL), initial=7)):
        if d > limit or d * d > n:
            break
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            found.append((d, e))
            if d * d <= n < PSI_13 and is_prime(n):
                found.append((n, 1))
                return found, 1
    return found, n


def factor_integer(n: int) -> list:
    """Complete prime factorization of n >= 1 as [(p, e), ...], p ascending.

    Trial division up to min(sqrt(n), 10^6), stopping early once the
    unfactored part is prime, then Brent's rho with seeded restarts on
    whatever composite cofactor survives; every reported prime is
    certified by the deterministic Miller-Rabin test.
    """
    check_int(n, "n", 1)
    if n >= 1 << 63:
        raise DomainError("factor_integer supports n < 2^63")
    found, n = _trial_division(n, TRIAL_DIVISION_LIMIT)
    factors = dict(found)

    rng = random.Random(0xB0B)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
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
    found, rem = _trial_division(n, bound)
    out = [p ** k for p, e in found for k in range(1, e + 1)
           if p ** k <= bound]
    if 1 < rem <= bound:
        out.append(rem)
    out.sort(reverse=True)
    return out


def first_true(pred, lo: int, hi: int) -> int:
    """Least c in (lo, hi] with pred(c), for a predicate monotone in c
    that is false at lo and true at hi; bisects at (lo + hi) // 2.
    """
    while hi - lo >= 2:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def crt_combine(residues) -> int:
    """Unique solution mod prod(moduli) of x = r_i (mod m_i).

    `residues` is an iterable of (r_i, m_i) pairs with pairwise coprime
    moduli; anything else, non-coprime moduli included, raises
    DomainError.
    """
    try:
        pairs = [(r, m) for r, m in residues]
    except (TypeError, ValueError):
        raise DomainError("residues must be an iterable of (residue, "
                          f"modulus) pairs, got {residues!r}") from None
    x, mod = 0, 1
    for r, m in pairs:
        check_int(r, "residue")
        check_int(m, "modulus", 1)
        g = math.gcd(mod, m)
        if g != 1:
            raise DomainError(f"moduli are not pairwise coprime (gcd {g})")
        # merge x (mod mod) with r (mod m)
        inv = pow(mod, -1, m)
        x = x + mod * ((r - x) * inv % m)
        mod *= m
        x %= mod
    return x
