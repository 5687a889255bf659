"""Banin-Tsaban's success rate per attempt, against the closed form.

One attempt at a bound b >= the order draws o outer exponents z from
[b // 2, b] and, for each, `inner` oracle queries on h = x^z.  At such a
bound the oracle always answers, and each outer round's gcd is a multiple
of the cycle length of h, L / gcd(z, L); so the attempt verifies whenever
gcd(z_1, ..., z_o, L) = 1.  For z uniform over a whole number of residue
systems modulo the primes of L, that happens with probability
prod_{p | L} (1 - p^-o) exactly.  The experiment runs seeded attempts at
inner = 4 and o = 1..5 outer rounds on monogenic, zmod and transformation
instances, grouped by the distinct primes of L, at the least even bound
>= the order whose z range [b/2, b] holds a multiple of rad(L) values.
It records, per attempt, whether the z's were coprime to L, whether the
attempt verified and whether the raw lcm was exactly L.

Checked per attempt: coprime z's imply a verified attempt, and a
verified attempt returns L.  Checked per (primes, o) cell of TRIALS
attempts: the coprime rate lies within tolerance(p0) of the closed form
p0, and the verified rate is at least p0 - tolerance(p0).  The tolerance
is fixed here, before any attempt runs: SIGMAS binomial standard
deviations of a rate over TRIALS attempts, plus 1/TRIALS.  The cost
bound behind Banin-Tsaban's default of 3 outer rounds (cycle.OUTER_ROUNDS)
rests on these rates.
"""

import math
import random

import pytest

from semidlog import (
    MonogenicContext,
    TransformationContext,
    ZModContext,
    brute_force_cycle,
)
from semidlog.core import Powers
from semidlog.cycle import BaninTrace, _banin_attempt
from semidlog.numtheory import factor_integer

INNER = 4
OUTER = (1, 2, 3, 4, 5)
TRIALS = 180  # attempts per (primes, o) cell, split over its instances
SIGMAS = 4


def tolerance(p0):
    return SIGMAS * math.sqrt(p0 * (1 - p0) / TRIALS) + 1 / TRIALS


def _rho_map(tail, cycles):
    """A transformation whose point 0 runs down a tail of `tail` points
    into the first of the given cycles: cycle start tail + 1, cycle
    length lcm(cycles)."""
    images = [i + 1 for i in range(tail)]
    start = tail
    for c in cycles:
        images += [start + (i + 1) % c for i in range(c)]
        start += c
    return TransformationContext(len(images)), tuple(images)


# distinct primes of L -> instances (context, x) of three families
INSTANCES = {
    (2,): [(MonogenicContext(5, 16), 1),
           (ZModContext(136), 6),            # s = 3, L = 16
           _rho_map(4, [8])],
    (3,): [(MonogenicContext(4, 27), 1),
           (ZModContext(152), 42),           # s = 3, L = 9
           _rho_map(3, [9])],
    (2, 3): [(MonogenicContext(7, 36), 1),
             (ZModContext(104), 2),          # s = 3, L = 12
             _rho_map(2, [4, 9])],
    (2, 5): [(MonogenicContext(10, 20), 1),
             (ZModContext(1000), 2),         # s = 3, L = 100
             _rho_map(3, [4, 5])],
    (2, 3, 5, 7): [(MonogenicContext(3, 210), 1),
                   (ZModContext(844), 2),    # s = 2, L = 210
                   _rho_map(3, [2, 3, 5, 7])],
}


def _bound(order, rad):
    """Least even b >= order whose z range [b/2, b], of b/2 + 1 values,
    is a whole number of residue systems modulo rad."""
    b = order + order % 2
    while (b // 2 + 1) % rad:
        b += 2
    return b


def _attempts(primes, outer):
    """One record (coprime, verified, exact lcm) per attempt of the cell,
    after checking that each verified attempt's length is L."""
    rad = math.prod(primes)
    instances = INSTANCES[primes]
    records = []
    for n, (ctx, x) in enumerate(instances):
        cycle = brute_force_cycle(ctx, x)
        L = cycle.cycle_length
        assert tuple(p for p, _ in factor_integer(L)) == primes
        bound = _bound(cycle.order, rad)
        rng = random.Random(1000 * outer + n)
        powers = Powers(ctx, x)
        for _ in range(TRIALS // len(instances)):
            trace = BaninTrace()
            length = _banin_attempt(ctx, powers, bound, INNER, outer, rng,
                                    trace)
            assert len(trace.rounds) == outer  # the oracle always answered
            zs = [r.z for r in trace.rounds]
            coprime = math.gcd(L, *zs) == 1
            verified = length is not None
            assert verified == trace.verified
            if verified:
                assert length == L
            records.append((coprime, verified, trace.lcm_candidate == L))
    return records


def _closed_form(primes, outer):
    return math.prod(1 - p ** -outer for p in primes)


@pytest.mark.parametrize("outer", OUTER)
@pytest.mark.parametrize("primes", INSTANCES,
                         ids=lambda primes: "-".join(map(str, primes)))
def test_banin_tsaban_success_rate(primes, outer):
    records = _attempts(primes, outer)
    p0 = _closed_form(primes, outer)
    tol = tolerance(p0)
    n = len(records)
    coprime = sum(r[0] for r in records) / n
    verified = sum(r[1] for r in records) / n
    for was_coprime, was_verified, exact in records:
        assert was_verified or not was_coprime
        assert was_verified or not exact
    assert abs(coprime - p0) <= tol, (coprime, p0, tol)
    assert verified >= p0 - tol, (verified, p0, tol)
