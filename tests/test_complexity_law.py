"""The deterministic algorithm's cost as a measured law in N.

The paper bounds the deterministic cycle-length algorithm by
O(sqrt(N) (log N)^2) multiplications.  Criterion 6 in
`test_acceptance.py` checks a loose envelope of that bound up to
N = 2^20.  This module checks the tighter law the code keeps, on the
monogenic generator x = 1 with a cycle start s and length L for every N
at eighth-octave steps from 2^10 to 2^32 (177 orders), in the four
criterion-6 (s, L) splits: 708 runs.  The instances are fixed, so the run
is reproducible without a seed.

A seeded zmod set checks the same constants on planted residues, at the
eighth-octave orders from 2^10 to 2^20 (81 orders), two runs each: x of
multiplicative order L = N modulo a prime p = kL + 1 (no tail), and
modulo 2^a * p, x = 2 mod 2^a and of order L mod p, which puts the cycle
start at s = a and the order at a + L - 1 = N.

The constants below are stated before any run.  With a fresh baby table
per x4 round, the monogenic instances measured a worst 6.55 * sqrt(N)
multiplications (mean 4.13), a table peak of 1.915 * sqrt(N) and a slope
of -0.012 per octave, and the zmod set 6.55 * sqrt(N), 1.915 * sqrt(N)
and -0.061, under a bound of 7.  With one table per epoch, anchored at
x^(B0^2) and grown in place, the bound was tightened to 6 before the run,
which measured a worst 5.40 * sqrt(N) (mean 2.43), a peak of
1.915 * sqrt(N) and a slope of -0.021 on the monogenic instances, and
5.40 * sqrt(N), 1.915 * sqrt(N) and -0.103 on the zmod set.  The x4
bound schedule's worst case sits just above a power of 4, and a log
factor in the count would show as a positive slope.
"""

import math
import random

import pytest

from semidlog import (
    MonogenicContext,
    ZModContext,
    cycle_start_search,
    deterministic_cycle_length,
)
from semidlog.numtheory import factor_integer, is_prime

MAX_MULTS_PER_SQRT_N = 6.0
MAX_PEAK_PER_SQRT_N = 2.0       # table_peak <= 2 * sqrt(N) + 1
MAX_SLOPE_PER_OCTAVE = 0.02     # of mults / sqrt(N) against log2 N

LOG2_ORDERS = [10 + j / 8 for j in range(22 * 8 + 1)]
SPLITS = {
    "pure-cycle": lambda n: (1, n),
    "balanced": lambda n: (n // 2, n - n // 2 + 1),
    "late-start": lambda n: (n - 1, 2),
    "start-2": lambda n: (2, n - 1),
}


@pytest.fixture(scope="module")
def law_runs():
    """(N, multiplications, table peak) per instance."""
    runs = []
    for log2_order in LOG2_ORDERS:
        order = round(2 ** log2_order)
        for split in SPLITS.values():
            s, length = split(order)
            assert s + length - 1 == order
            got, trace = deterministic_cycle_length(
                MonogenicContext(s, length), 1)
            assert got == length
            runs.append((order, trace.multiplications, trace.table_peak))
    assert len(runs) == 708
    return runs


def _planted_unit(length: int, rng):
    """(p, u): a prime p = k * length + 1 and a residue u of
    multiplicative order exactly `length` modulo p."""
    p = length + 1
    while not is_prime(p):
        p += length
    primes = [q for q, _ in factor_integer(length)]
    while True:
        u = pow(rng.randrange(2, p), (p - 1) // length, p)
        if all(pow(u, length // q, p) != 1 for q in primes):
            return p, u


@pytest.fixture(scope="module")
def zmod_law_runs():
    """(N, multiplications, table peak) per planted zmod residue."""
    rng = random.Random("complexity-law/zmod")
    runs = []
    for log2_order in LOG2_ORDERS[:10 * 8 + 1]:
        order = round(2 ** log2_order)
        tail = rng.randint(2, 20)
        p, u = _planted_unit(order, rng)
        q, v = _planted_unit(order - tail + 1, rng)
        # x = 2 mod 2^tail and v mod q, by CRT
        w = 2 + (1 << tail) * ((v - 2) * pow(1 << tail, -1, q) % q)
        for modulus, x, start in ((p, u, 1), (q << tail, w, tail)):
            length = order - start + 1
            ctx = ZModContext(modulus)
            got, trace = deterministic_cycle_length(ctx, x)
            assert got == length
            assert cycle_start_search(ctx, x, length) == start
            runs.append((order, trace.multiplications, trace.table_peak))
    assert len(runs) == 162
    return runs


def _worst_mults_per_sqrt_n(runs):
    return max(mults / math.sqrt(order) for order, mults, _ in runs)


def _peaks_over_twice_sqrt_n(runs):
    return [(order, peak) for order, _, peak in runs
            if peak > MAX_PEAK_PER_SQRT_N * math.sqrt(order) + 1]


def _slope_per_octave(runs):
    """Least-squares slope of mults / sqrt(N) against log2 N."""
    xs = [math.log2(order) for order, _, _ in runs]
    ys = [mults / math.sqrt(order) for order, mults, _ in runs]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
            / sum((x - mean_x) ** 2 for x in xs))


def test_multiplications_stay_within_a_constant_times_sqrt_n(law_runs):
    worst = _worst_mults_per_sqrt_n(law_runs)
    assert worst <= MAX_MULTS_PER_SQRT_N, worst


def test_table_peak_stays_within_twice_sqrt_n(law_runs):
    assert not _peaks_over_twice_sqrt_n(law_runs)


def test_no_log_factor_in_multiplications_per_sqrt_n(law_runs):
    slope = _slope_per_octave(law_runs)
    assert slope <= MAX_SLOPE_PER_OCTAVE, slope


def test_zmod_multiplications_stay_within_a_constant_times_sqrt_n(
        zmod_law_runs):
    worst = _worst_mults_per_sqrt_n(zmod_law_runs)
    assert worst <= MAX_MULTS_PER_SQRT_N, worst


def test_zmod_table_peak_stays_within_twice_sqrt_n(zmod_law_runs):
    assert not _peaks_over_twice_sqrt_n(zmod_law_runs)


def test_zmod_no_log_factor_in_multiplications_per_sqrt_n(zmod_law_runs):
    slope = _slope_per_octave(zmod_law_runs)
    assert slope <= MAX_SLOPE_PER_OCTAVE, slope
