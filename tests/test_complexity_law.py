"""The deterministic algorithm's cost as a measured law in N.

The paper bounds the deterministic cycle-length algorithm by
O(sqrt(N) (log N)^2) multiplications.  Criterion 6 in
`test_acceptance.py` checks a loose envelope of that bound up to
N = 2^20.  This module checks the tighter law the code keeps, on the
monogenic generator x = 1 with a cycle start s and length L for every N
at eighth-octave steps from 2^10 to 2^32 (177 orders), in the four
criterion-6 (s, L) splits: 708 runs.  The instances are fixed, so the run
is reproducible without a seed.

The constants below are stated before any run.  On these instances the
code measured a worst 6.55 * sqrt(N) multiplications, a table peak of
1.915 * sqrt(N) and a slope of -0.012 per octave.  The x4 bound schedule's
worst case sits just above a power of 4, and a log factor in the count
would show as a positive slope.
"""

import math

import pytest

from semidlog import MonogenicContext, deterministic_cycle_length

MAX_MULTS_PER_SQRT_N = 7.0
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


def test_multiplications_stay_within_a_constant_times_sqrt_n(law_runs):
    worst = max(mults / math.sqrt(order) for order, mults, _ in law_runs)
    assert worst <= MAX_MULTS_PER_SQRT_N, worst


def test_table_peak_stays_within_twice_sqrt_n(law_runs):
    over = [(order, peak) for order, _, peak in law_runs
            if peak > MAX_PEAK_PER_SQRT_N * math.sqrt(order) + 1]
    assert not over


def test_no_log_factor_in_multiplications_per_sqrt_n(law_runs):
    """Least-squares slope of mults / sqrt(N) against log2 N."""
    xs = [math.log2(order) for order, _, _ in law_runs]
    ys = [mults / math.sqrt(order) for order, mults, _ in law_runs]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
             / sum((x - mean_x) ** 2 for x in xs))
    assert slope <= MAX_SLOPE_PER_OCTAVE, slope
