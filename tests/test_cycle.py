import math
import random

import pytest

import semidlog
from semidlog import (
    IncompatibleElementError,
    MonogenicContext,
    OracleFailureError,
    SemigroupError,
    TransformationContext,
    ZModContext,
    banin_tsaban_cycle_length,
    brute_force_cycle,
    cycle_start_search,
    cycle_structure,
    deterministic_cycle_length,
    find_cycle,
    group_dlog_oracle,
    least_period,
    monico_cycle_length,
    monico_strip,
    power,
)
from semidlog.core import Powers, table_walk_all
from semidlog.numtheory import ceil_sqrt
from semidlog.selftest import _canon


# ------------------------------------------------------- input validation

CYCLE_ENTRY_POINTS = {
    "brute": brute_force_cycle,
    "deterministic": deterministic_cycle_length,
    "monico": lambda ctx, x: monico_cycle_length(ctx, x, bound=64),
    "banin-tsaban": banin_tsaban_cycle_length,
    "start-search": lambda ctx, x: cycle_start_search(ctx, x, 12),
}

FOREIGN_ELEMENTS = {
    "zmod-out-of-range": (lambda: ZModContext(100), 250),
    "monogenic-exponent-zero": (lambda: MonogenicContext(5, 12), 0),
    "transformation-unhashable-list": (lambda: TransformationContext(3),
                                       [0, 1, 2]),
}


@pytest.mark.parametrize("entry", sorted(CYCLE_ENTRY_POINTS))
@pytest.mark.parametrize("foreign", sorted(FOREIGN_ELEMENTS))
def test_cycle_entry_points_reject_foreign_elements(entry, foreign):
    factory, x = FOREIGN_ELEMENTS[foreign]
    with pytest.raises(IncompatibleElementError):
        CYCLE_ENTRY_POINTS[entry](factory(), x)


# helpers that take elements check them too, whatever the entry point did
HELPER_CALLS = {
    "monico-strip-x": lambda: monico_strip(ZModContext(100), 250, 5, 40, 100),
    "oracle-h": lambda: group_dlog_oracle(ZModContext(100), 250, 4, 64),
    "oracle-target-unhashable": lambda: group_dlog_oracle(
        ZModContext(100), 4, [3], 64),
    "oracle-target-exponent-zero": lambda: group_dlog_oracle(
        MonogenicContext(5, 12), 1, 0, 64),
    "least-period-x": lambda: least_period(ZModContext(100), 250, 4, 20),
    "least-period-x-unhashable": lambda: least_period(
        ZModContext(100), [2], 4, 20),
}


@pytest.mark.parametrize("call", sorted(HELPER_CALLS))
def test_cycle_helpers_reject_foreign_elements(call):
    with pytest.raises(IncompatibleElementError):
        HELPER_CALLS[call]()


# ---------------------------------------------------------------- brute force

def test_brute_force_zmod_reference_values():
    cyc = brute_force_cycle(ZModContext(100), 2)
    assert (cyc.cycle_start, cyc.cycle_length, cyc.order) == (2, 20, 21)
    # hand check: 2^22 = 4194304 = 4 mod 100 revisits 2^2
    assert pow(2, 22, 100) == pow(2, 2, 100) == 4


def test_brute_force_idempotent():
    ctx = ZModContext(10)
    cyc = brute_force_cycle(ctx, 5)  # 5*5 = 25 = 5 mod 10
    assert (cyc.cycle_start, cyc.cycle_length, cyc.order) == (1, 1, 1)


def test_brute_force_monogenic_matches_parameters():
    cyc = brute_force_cycle(MonogenicContext(5, 12), 1)
    assert (cyc.cycle_start, cyc.cycle_length, cyc.order) == (5, 12, 16)


def test_brute_force_cap():
    with pytest.raises(SemigroupError):
        brute_force_cycle(ZModContext(101), 2, cap=3)


# ------------------------------------------------------- deterministic rounds

def test_deterministic_zmod_final_round_trace():
    ctx = ZModContext(100)
    length, trace = deterministic_cycle_length(ctx, 2)
    assert length == 20
    final = trace.rounds[-1]
    assert (final.bound, final.stride) == (64, 8)
    assert final.giant_hit == (3, 4)  # x^88 = x^68
    assert pow(2, 88, 100) == pow(2, 68, 100)
    assert final.accepted and final.candidate == 20


def test_deterministic_trivial_cycle_baby_hit_round_one():
    ctx = MonogenicContext(1, 1)
    length, trace = deterministic_cycle_length(ctx, 1)
    assert length == 1
    assert trace.rounds[0].bound == 1
    assert trace.rounds[0].baby_hit == 1


def test_deterministic_monogenic_5_12_trace():
    ctx = MonogenicContext(5, 12)
    length, trace = deterministic_cycle_length(ctx, 1)
    assert length == 12
    assert [r.bound for r in trace.rounds] == [1, 4, 16]
    assert all(r.giant_hit is None and r.baby_hit is None
               for r in trace.rounds[:-1])
    final = trace.rounds[-1]
    assert final.stride == 4
    assert final.giant_hit == (3, 0)  # x^28 = x^16, L = 3*4 - 0
    assert final.accepted


def test_unknown_bound_schedules_quadruple():
    # bound-free, every algorithm tries b, 4b, 16b, ... from its start
    # bound b (1, 1 and 16) until one attempt succeeds
    ctx = MonogenicContext(37, 360)
    _, det = deterministic_cycle_length(ctx, 1)
    _, mon = monico_cycle_length(ctx, 1)
    _, ban = banin_tsaban_cycle_length(ctx, 1, seed=2)
    for start, bounds in [(1, [r.bound for r in det.rounds]),
                          (1, mon.failed_bounds + [mon.bound]),
                          (16, ban.failed_bounds + [ban.bound])]:
        assert len(bounds) >= 4
        assert bounds == [start * 4 ** i for i in range(len(bounds))]
    assert not any(r.accepted for r in det.rounds[:-1])
    assert det.rounds[-1].accepted


CRITERION_6_SPLITS = [lambda n: (1, n), lambda n: (n // 2, n // 2 + 1),
                      lambda n: (n - 1, 2), lambda n: (2, n - 1)]


def _criterion_6_instances():
    """Criterion 6's (s, L): orders 2^8 .. 2^20, four splits each."""
    return [split(2 ** k) for k in range(8, 21, 2)
            for split in CRITERION_6_SPLITS]


def test_deterministic_cost_per_sqrt_order_on_envelope():
    # the mean of multiplications / sqrt(order) was 7.34 when the bound
    # doubled, 3.48 with a fresh table per x4 round and is 2.39 with one
    # table per epoch, grown in place (bound stated before the run: 3.0)
    ratios = []
    for s, length in _criterion_6_instances():
        _, trace = deterministic_cycle_length(MonogenicContext(s, length), 1)
        ratios.append(trace.multiplications / math.sqrt(s + length - 1))
    assert sum(ratios) / len(ratios) < 3.0


def test_deterministic_accepted_round_satisfies_length_identity():
    # in the successful round the minimal giant step i gives L = i*q - j
    for s, length in [(2, 20), (5, 12), (1, 30), (33, 5), (40, 40)]:
        ctx = MonogenicContext(s, length)
        got, trace = deterministic_cycle_length(ctx, 1)
        assert got == length
        final = trace.rounds[-1]
        assert final.accepted
        if final.giant_hit is not None:
            i, j = final.giant_hit
            assert i * final.stride - j == got
        else:
            assert final.baby_hit == got


def test_deterministic_straddle_candidate_reduced_not_trusted():
    # s = 18, L = 7: the table of bounds 4 and 16 is anchored at x^16,
    # before the cycle.  At bound 16 the giant x^32 meets x^18 and suggests
    # 14 = 2*7; the anchor check x^16 = x^30 fails, but the collision puts
    # x^18 in the cycle, where least_period reduces 14 to 7
    ctx = MonogenicContext(18, 7)
    length, trace = deterministic_cycle_length(ctx, 1)
    assert length == trace.cycle_length == 7
    assert [r.bound for r in trace.rounds] == [1, 4, 16]
    final = trace.rounds[-1]
    assert (final.stride, final.giant_hit, final.candidate) == (4, (4, 2), 14)
    assert final.accepted
    assert power(ctx, 1, 32) == power(ctx, 1, 18)
    assert power(ctx, 1, 30) != power(ctx, 1, 16)


def test_deterministic_anchor_check_fails_on_the_exact_length():
    # s = 17, L = 3: at bound 4 the table x^16, x^17 is anchored one step
    # before the cycle, and the giant x^20 meets x^17: candidate 3 = L,
    # yet x^16 = x^19 fails.  The collision alone proves x^17 in the
    # cycle, so the round returns 3 there instead of growing the table
    ctx = MonogenicContext(17, 3)
    length, trace = deterministic_cycle_length(ctx, 1)
    assert length == 3
    assert [r.bound for r in trace.rounds] == [1, 4]
    final = trace.rounds[-1]
    assert (final.stride, final.giant_hit, final.candidate,
            final.accepted) == (2, (2, 1), 3, True)
    assert power(ctx, 1, 19) != power(ctx, 1, 16)
    # bound 1: 1 step; bound 4: x^16 (4 squares), 2 steps, 1 giant step,
    # x^3 (1) and its check (1), then x^17 (1) and least_period at x^17:
    # its entry check with x^3 again (2) and the cofactor check for p = 3
    # (1)
    assert trace.multiplications == 1 + 4 + 2 + 1 + 2 + 1 + 3


def test_deterministic_grown_table_first_hit_is_the_length():
    # s = 1 puts every anchor in the cycle, so the first collision of a
    # table is the cycle length: a baby repeat, or a giant (i, j) with
    # i*q - j = L, in the first round whose bound reaches L; the earlier
    # rounds of the same table (bounds up to its first bound squared)
    # find nothing
    for length in range(1, 301):
        got, trace = deterministic_cycle_length(
            MonogenicContext(1, length), 1)
        assert got == length
        final = trace.rounds[-1]
        assert final.accepted
        assert final.bound >= length and all(
            r.bound < length for r in trace.rounds[:-1])
        if final.giant_hit is not None:
            i, j = final.giant_hit
            assert i * final.stride - j == length
        else:
            assert final.candidate == length
        first = final.bound
        for rec in reversed(trace.rounds[:-1]):
            if rec.bound * rec.bound < first:
                break  # a table that ended before this one started
            first = rec.bound
            assert rec.giant_hit is rec.baby_hit is rec.candidate is None
            assert not rec.accepted


def test_deterministic_known_bound_of_the_last_round_gives_the_same_length():
    # a table started at the bound-free run's last bound B is anchored at
    # B^2, at or past the bound-free anchor, and B >= L: so the single
    # round succeeds (perfbench's useful_mult_frac runs exactly this)
    cases = [(MonogenicContext, (s, length), 1, length)
             for s, length in _criterion_6_instances()]
    rng = random.Random("known-bound/zmod")
    for _ in range(60):
        modulus = rng.randint(2, 20000)
        x = rng.randrange(modulus)
        truth = brute_force_cycle(ZModContext(modulus), x)
        cases.append((ZModContext, (modulus,), x, truth.cycle_length))
    for family, args, x, length in cases:
        got, trace = deterministic_cycle_length(family(*args), x)
        assert got == length
        again, single = deterministic_cycle_length(
            family(*args), x, known_bound=trace.rounds[-1].bound)
        assert again == length, (family, args, x)
        assert len(single.rounds) == 1


def test_deterministic_matches_oracle_on_grid():
    for s in range(1, 24):
        for length in range(1, 24):
            ctx = MonogenicContext(s, length)
            got, _ = deterministic_cycle_length(ctx, 1)
            assert got == length, (s, length)


def test_deterministic_known_bound_single_round():
    ctx = ZModContext(100)
    length, trace = deterministic_cycle_length(ctx, 2, known_bound=21)
    assert length == 20
    assert len(trace.rounds) == 1
    assert trace.rounds[0].bound == 21


def test_deterministic_known_bound_too_small_raises():
    # bound 4 < L = 7 (and 4^2 = 16 < s = 18): the round probes the
    # candidates 1..4 from the anchor x^16 and finds none.  Bound 16 would
    # now succeed: 16 >= L and its anchor x^256 lies in the cycle
    ctx = MonogenicContext(18, 7)
    with pytest.raises(SemigroupError, match="no validated collision at "
                       "bound 4; the bound must be at least the cycle "
                       "length, and its square at least the cycle start"):
        deterministic_cycle_length(ctx, 1, known_bound=4)
    assert deterministic_cycle_length(ctx, 1, known_bound=16)[0] == 7


def test_deterministic_accepts_a_baby_repeat_before_the_cycle_start():
    # s = 257, L = 3 at known bound 16 (q = 4): the table is anchored at
    # x^256, one step before the cycle, and the walk x^256 .. x^260 first
    # repeats at x^260 = x^257, which spans exactly one cycle
    ctx = MonogenicContext(257, 3)
    length, trace = deterministic_cycle_length(ctx, 1, known_bound=16)
    assert length == 3
    assert ctx.mult_count == trace.multiplications == 12  # x^256: 8, walk: 4
    (rec,) = trace.rounds
    assert (rec.baby_hit, rec.giant_hit, rec.candidate, rec.accepted,
            rec.table_size) == (4, None, 3, True, 4)

    # s = 17, L = 2 bound-free: bounds 4 and 16 share the table anchored
    # at x^16.  Bound 4 walks x^16 .. x^18 and its giants x^18, x^20 find
    # nothing; bound 16 walks on from x^18, and its first step x^19 meets
    # x^17, an entry of bound 4's walk
    ctx = MonogenicContext(17, 2)
    length, trace = deterministic_cycle_length(ctx, 1)
    assert length == 2
    assert [r.bound for r in trace.rounds] == [1, 4, 16]
    final = trace.rounds[-1]
    assert (final.baby_hit, final.candidate, final.table_size) == (3, 2, 3)
    # bound 1 walks 1 step; bound 4 squares 4 times for x^16 (x^2 comes
    # free), walks 2 steps and makes 1 giant step; bound 16 walks 1 step
    assert trace.multiplications == 1 + 7 + 1


def test_deterministic_table_sizes_respect_sqrt_bound():
    ctx = ZModContext(257)
    _, trace = deterministic_cycle_length(ctx, 3)
    for r in trace.rounds:
        assert r.table_size <= ceil_sqrt(r.bound) + 1


def test_deterministic_multiplications_recorded():
    ctx = ZModContext(100)
    before = ctx.mult_count
    _, trace = deterministic_cycle_length(ctx, 2)
    assert trace.multiplications == ctx.mult_count - before > 0


# ------------------------------------------------------------- cycle start

def test_cycle_start_zmod():
    ctx = ZModContext(100)
    # doubling: s=1 fails (2^21 = 52 != 2), s=2 succeeds
    assert pow(2, 21, 100) == 52
    assert cycle_start_search(ctx, 2, 20) == 2


def test_cycle_start_idempotent():
    assert cycle_start_search(ZModContext(10), 5, 1) == 1


def test_cycle_start_monogenic_10_15():
    assert cycle_start_search(MonogenicContext(10, 15), 1, 15) == 10


def test_cycle_start_accepts_length_multiples():
    # a Monico-style overshoot (multiple of the true length) still gives
    # the correct start
    assert cycle_start_search(ZModContext(100), 2, 40) == 2
    assert cycle_start_search(MonogenicContext(151, 55), 1, 165) == 151


def test_cycle_start_rejects_non_multiples():
    # the doubling gives up past 2^62, 62 squarings in
    with pytest.raises(SemigroupError, match="not a multiple"):
        cycle_start_search(ZModContext(100), 2, 13)


def test_cycle_start_multiplication_envelope(instance_pool):
    # doubling plus bisection keeps within O((log N)^2)
    for factory, x in instance_pool[::3]:
        ctx = factory()
        cyc = brute_force_cycle(ctx, x)
        ctx2 = factory()
        length, _ = deterministic_cycle_length(ctx2, x)
        before = ctx2.mult_count
        start = cycle_start_search(ctx2, x, length)
        used = ctx2.mult_count - before
        assert start == cyc.cycle_start
        logn = max(2, math.ceil(math.log2(cyc.order + 1)))
        assert used <= 16 * logn * logn


def test_least_period_reduces_a_verified_multiple():
    ctx = MonogenicContext(10, 12)
    base = power(ctx, 1, 15)
    for multiple in (12, 24, 36, 12 * 7 * 11, 12 ** 3, 12 << 40):
        assert least_period(ctx, 1, base, multiple) == 12


def test_least_period_exact_input_costs_one_check_per_prime():
    # each check is x^e from one ladder of x (the squares up to the
    # largest e once, then popcount - 1 products) times the base: the
    # entry check that g = 360 is a period, then one check per prime
    ctx = MonogenicContext(1, 360)
    base = power(ctx, 1, 3)
    ctx.mult_count = 0
    assert least_period(ctx, 1, base, 360) == 360
    checks = (360, 360 // 2, 360 // 3, 360 // 5)
    assert ctx.mult_count == max(checks).bit_length() - 1 + sum(
        e.bit_count() - 1 + 1 for e in checks)


def test_least_period_rejects_a_non_period():
    # 2 lies before the cycle start of 2 mod 100 (s = 2, L = 20), so 40
    # is not a period of it: 2^41 = 52 != 2 (mod 100)
    with pytest.raises(SemigroupError, match="not a period"):
        least_period(ZModContext(100), 2, 2, 40)


def test_least_period_rejects_unfactorable_input():
    ctx = MonogenicContext(1, 1)
    with pytest.raises(SemigroupError):
        least_period(ctx, 1, 1, 1 << 63)
    with pytest.raises(SemigroupError):
        least_period(ctx, 1, 1, 0)


def test_cycle_structure_convenience():
    cyc = cycle_structure(ZModContext(100), 2)
    assert (cyc.cycle_start, cyc.cycle_length, cyc.order) == (2, 20, 21)


# ------------------------------------------------------------------- monico

def test_monico_zmod_100():
    ctx = ZModContext(100)
    length, trace = monico_cycle_length(ctx, 2, bound=100, divisor_bound=100)
    assert length == 20
    assert trace.prime == 101
    assert trace.m == 10
    # the table has repeats (cycle length 20 > m = 10), so the duplicate
    # rule g = (i2 - i1) * m fires
    assert trace.duplicate_pair is not None
    i1, i2 = trace.duplicate_pair
    assert (i2 - i1) * trace.m % 20 == 0


def test_monico_duplicate_pair_spans_one_period():
    # table entries x^(q + i*m) repeat exactly every P = L/gcd(L, m) steps
    # of i once they enter the cycle, and pre-cycle entries never repeat,
    # so whichever repeat is taken, g = P*m; in the bound-free cases the
    # final table starts before the cycle start (q = 257 < s)
    for s, length, bound in [(1, 30, 100), (37, 360, 396), (300, 6, None),
                             (290, 12, None)]:
        ctx = MonogenicContext(s, length)
        result, trace = monico_cycle_length(ctx, 1, bound=bound)
        assert result % length == 0
        period = length // math.gcd(length, trace.m)
        i1, i2 = trace.duplicate_pair
        assert i2 - i1 == period
        assert trace.prime + i1 * trace.m >= s
        assert trace.gcd == period * trace.m


def test_monico_table_peak_counts_stored_entries():
    # a walk with a duplicate (first, i) stops there having stored i
    # entries, one without stores all m + 1, and a failed round at bound b
    # stored ceil_sqrt(b) + 1
    ctx = ZModContext(100)
    _, trace = monico_cycle_length(ctx, 2, bound=100, divisor_bound=100)
    assert (trace.duplicate_pair, trace.m, trace.table_peak) == ((0, 2), 10, 2)
    _, trace = monico_cycle_length(MonogenicContext(6, 59), 1, bound=64)
    assert trace.duplicate_pair is None and trace.table_peak == trace.m + 1
    _, trace = monico_cycle_length(MonogenicContext(300, 6), 1)
    assert trace.failed_bounds == [1, 4, 16, 64]
    assert trace.duplicate_pair == (3, 6)
    assert trace.table_peak == ceil_sqrt(64) + 1 == 9


def test_banin_table_peak_is_the_largest_oracle_table(monkeypatch):
    """The largest baby table any oracle query stored, over the failed
    attempts and the final one, counted in indices; not a JSON key."""
    stored = []

    def recorded(ctx, target, h, q):
        table = table_walk_all(ctx, target, h, q)
        stored.append(sum(map(len, table.values())))
        return table

    monkeypatch.setattr(semidlog.cycle, "table_walk_all", recorded)
    _, trace = banin_tsaban_cycle_length(MonogenicContext(37, 360), 1,
                                         seed=0)
    assert trace.failed_bounds == [16, 64, 256, 1024]
    assert trace.bound == 4096
    assert trace.table_peak == max(stored) == ceil_sqrt(4096) + 1 == 65
    assert "table_peak" not in trace.to_json()


def test_monico_exact_for_small_prime_lengths():
    for p in (2, 3, 5, 7, 11):
        ctx = MonogenicContext(1, p)
        length, _ = monico_cycle_length(ctx, 1, bound=16, divisor_bound=100)
        assert length == p


def test_monico_strip_failure_construction():
    # g = 52 with true length 4: with B = 10 the factor 13 is never
    # tested and 52 survives; with B = 100 it strips to 4
    ctx = MonogenicContext(1, 4)
    assert monico_strip(ctx, 1, 100, 52, 10) == 52
    ctx2 = MonogenicContext(1, 4)
    record = []
    assert monico_strip(ctx2, 1, 100, 52, 100, record) == 4
    assert record == [13]


def test_monico_output_is_always_multiple_of_true_length():
    rng = random.Random(42)
    for _ in range(120):
        true_len = rng.randint(1, 400)
        true_start = rng.randint(1, 60)
        ctx = MonogenicContext(true_start, true_len)
        bound = true_start + true_len
        length, _ = monico_cycle_length(ctx, 1, bound=bound, divisor_bound=10)
        assert length % true_len == 0


def test_monico_collision_shifts_within_m():
    ctx = MonogenicContext(6, 59)
    length, trace = monico_cycle_length(ctx, 1, bound=64,
                                        divisor_bound=10 ** 4)
    assert length == 59
    for pair in (trace.collision_one, trace.collision_two):
        assert pair is not None
        a, b = pair
        assert 0 < b <= trace.m
        assert 0 <= a <= trace.m


def test_monico_doubling_mode():
    ctx = ZModContext(100)
    length, trace = monico_cycle_length(ctx, 2, bound=None,
                                        divisor_bound=10 ** 4)
    assert length == 20
    # small bounds failed before collisions appeared
    assert trace.failed_bounds


def test_monico_overshoot_fixture():
    # stripping cannot remove the factor 3 when the divisor bound is 2
    ctx = MonogenicContext(151, 55)
    length, _ = monico_cycle_length(ctx, 1, bound=206, divisor_bound=2)
    assert length == 165  # 3 * 55


def test_monico_bound_free_strips_inside_the_cycle():
    # the final round sits at a bound far below the cycle start;
    # stripping checked there would keep 48 = 8 * 6
    length, trace = monico_cycle_length(MonogenicContext(300, 6), 1)
    assert length == 6
    assert trace.bound < 300


def test_monico_bound_free_matches_brute_force():
    # every prime of every L here is below the default divisor bound, so
    # the bound-free result is the exact cycle length
    for s in (1, 2, 5, 17, 64, 150, 300):
        for true_len in range(1, 41):
            ctx = MonogenicContext(s, true_len)
            length, _ = monico_cycle_length(ctx, 1)
            assert length == brute_force_cycle(ctx, 1).cycle_length, \
                (s, true_len)


def test_monico_bad_bound_raises():
    ctx = MonogenicContext(200, 59)
    with pytest.raises(SemigroupError):
        monico_cycle_length(ctx, 1, bound=4, divisor_bound=100)


# ------------------------------------------------------------------- oracle

def test_oracle_finds_smallest_exponent():
    ctx = ZModContext(100)
    h = power(ctx, 2, 2)  # 4
    target = power(ctx, h, 5)
    assert group_dlog_oracle(ctx, h, target, 64) == 5


def test_oracle_target_equals_base():
    ctx = ZModContext(100)
    h = power(ctx, 2, 2)
    assert group_dlog_oracle(ctx, h, h, 64) == 1


def test_oracle_failure_for_foreign_target():
    ctx = ZModContext(100)
    h = power(ctx, 2, 2)  # powers of 4 are 4, 16, 64, 56, ...
    with pytest.raises(OracleFailureError):
        group_dlog_oracle(ctx, h, 3, 64)


def test_oracle_smallest_matching_exponent_via_scan():
    # x^25 = x^5 in Monogenic(2, 20); a brute scan confirms 5 is minimal
    ctx = MonogenicContext(2, 20)
    target = power(ctx, 1, 25)
    scan = next(k for k in range(1, 26)
                if power(ctx, 1, k) == target)
    assert scan == 5
    assert group_dlog_oracle(ctx, 1, target, 32) == 5


def test_oracle_exponent_ceiling():
    # the returned exponent can reach q(q+1), q = ceil(sqrt(max(bound, 2))),
    # and no further; that ceiling exceeds 2*bound for bounds 1, 2, 5 only
    ctx = MonogenicContext(100, 7)
    for bound in range(1, 40):
        q = ceil_sqrt(max(bound, 2))
        top = q * (q + 1)
        assert group_dlog_oracle(ctx, 1, power(ctx, 1, top), bound) == top
        with pytest.raises(OracleFailureError):
            group_dlog_oracle(ctx, 1, power(ctx, 1, top + 1), bound)
    over = [b for b in range(1, 10 ** 5)
            if ceil_sqrt(max(b, 2)) * (ceil_sqrt(max(b, 2)) + 1) > 2 * b]
    assert over == [1, 2, 5]


def test_oracle_matches_brute_scan_randomly():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.choice([50, 100, 127, 256])
        ctx = ZModContext(n)
        base = rng.randrange(2, n)
        cyc = brute_force_cycle(ctx, base)
        k = rng.randint(1, 3 * cyc.order)
        target = power(ctx, base, k)
        got = group_dlog_oracle(ctx, base, target, 4 * cyc.order)
        assert power(ctx, base, got) == target
        scan = next(i for i in range(1, cyc.order + 1)
                    if power(ctx, base, i) == target)
        assert got == scan


def test_oracle_shared_steps_answer_as_fresh_queries():
    # queries on one h at one bound sharing a ladder of h and the giant
    # steps answer exactly as fresh ones, misses included, for fewer
    # products: the shared steps are made once
    rng = random.Random(5)
    ctx, fresh = MonogenicContext(40, 90), MonogenicContext(40, 90)
    h, bound = 3, 200
    steps = (Powers(ctx, h), [])
    for _ in range(12):
        target = rng.randint(1, ctx.order)
        try:
            want = group_dlog_oracle(fresh, h, target, bound)
        except OracleFailureError:
            with pytest.raises(OracleFailureError):
                group_dlog_oracle(ctx, h, target, bound, steps)
            continue
        assert group_dlog_oracle(ctx, h, target, bound, steps) == want
    assert 0 < ctx.mult_count < fresh.mult_count


def test_oracle_trusts_its_giant_list():
    # the giant list is trusted, not checked: a foreign one can make the
    # oracle miss where a call with its own list answers
    ctx = ZModContext(101)
    assert group_dlog_oracle(ctx, 2, 16, 64) == 4
    with pytest.raises(OracleFailureError):
        group_dlog_oracle(ctx, 2, 16, 64, (Powers(ctx, 2), [5]))


def test_oracle_answers_with_a_foreign_giant_list_are_verified():
    # whatever k' the oracle returns with a foreign giant list still maps
    # h to the target: every candidate is verified
    rng = random.Random(28)
    answered = 0
    for _ in range(300):
        n = rng.choice([101, 128, 250, 257])
        ctx = ZModContext(n)
        h = rng.randrange(2, n)
        target = power(ctx, h, rng.randint(1, 2 * n))
        giants = [rng.randrange(n) for _ in range(rng.randint(1, 12))]
        try:
            kp = group_dlog_oracle(ctx, h, target, rng.randint(1, 2 * n),
                                   (Powers(ctx, h), giants))
        except OracleFailureError:
            continue
        assert power(ctx, h, kp) == target
        answered += 1
    assert answered > 0


# ------------------------------------------------------------- banin-tsaban

def test_banin_zmod_statistics():
    # measured with this implementation: all 100 seeds recover 20
    hits = 0
    for seed in range(100):
        ctx = ZModContext(100)
        length, trace = banin_tsaban_cycle_length(
            ctx, 2, bound=64, inner_rounds=3, outer_rounds=2, seed=seed)
        if length == 20:
            hits += 1
        # soundness regardless of the final value
        assert trace.lcm_candidate % length == 0
    assert hits >= 95


def test_banin_pair_differences_divide_by_power_cycle_length():
    ctx = ZModContext(100)
    _, trace = banin_tsaban_cycle_length(ctx, 2, bound=64, inner_rounds=4,
                                         outer_rounds=3, seed=5)
    for rnd in trace.rounds:
        h = power(ZModContext(100), 2, rnd.z)
        h_cycle = brute_force_cycle(ZModContext(100), h)
        for k, kp in rnd.pairs:
            assert (k - kp) % h_cycle.cycle_length == 0


def test_banin_idempotent_gives_one():
    ctx = ZModContext(10)
    length, _ = banin_tsaban_cycle_length(ctx, 5, bound=8, seed=3)
    assert length == 1


def test_banin_monogenic_difference_is_multiple():
    ctx = MonogenicContext(2, 20)
    length, trace = banin_tsaban_cycle_length(ctx, 1, bound=32, seed=1)
    assert length == 20
    for rnd in trace.rounds:
        for k, kp in rnd.pairs:
            h_cyc = brute_force_cycle(MonogenicContext(2, 20),
                                      _canon(rnd.z, 2, 20))
            assert (k - kp) % h_cyc.cycle_length == 0


def test_banin_doubles_past_late_cycle_starts():
    # bound 4 is far below the cycle start; the oracle fails until the
    # bound grows
    ctx = MonogenicContext(120, 7)
    length, trace = banin_tsaban_cycle_length(ctx, 1, bound=4, seed=2)
    assert length == 7
    assert trace.failed_bounds and trace.failed_bounds[0] == 4


@pytest.mark.parametrize("bound", [None, 16, 4 ** 5, 4 ** 10])
def test_banin_default_rounds_are_4_and_3(bound):
    # the accepting attempt runs 3 outer rounds at every bound; the rule
    # it replaced ran ceil(log2 log2 bound) + 1: 5 at 4^5, 6 at 4^10
    start = {} if bound is None else {"bound": bound}
    ctx = MonogenicContext(37, 360)
    length, trace = banin_tsaban_cycle_length(ctx, 1, outer_rounds=None,
                                              seed=7, **start)
    assert length == 360
    assert len(trace.rounds) == 3
    assert all(len(r.pairs) == 4 for r in trace.rounds)
    default, explicit = [
        find_cycle(MonogenicContext(37, 360), 1, "banin-tsaban", bound,
                   rounds=rounds, seed=7) for rounds in (None, (4, 3))]
    assert default[0] == explicit[0]
    assert default[1].to_json() == explicit[1].to_json()


def test_banin_reproducible_per_seed():
    runs = []
    for _ in range(2):
        ctx = ZModContext(100)
        runs.append(banin_tsaban_cycle_length(ctx, 2, bound=64, seed=9))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1].to_json() == runs[1][1].to_json()


# --------------------------------------------------------- cross-algorithm

def test_find_cycle_every_algorithm_matches_brute_force(instance_pool):
    for factory, x in instance_pool[::5]:
        truth = brute_force_cycle(factory(), x)
        for alg in semidlog.CYCLE_ALGORITHMS:
            cyc, trace = find_cycle(factory(), x, alg, bound=truth.order + 1)
            assert cyc == truth, (alg, factory(), x)
            assert (trace is None) == (alg == "brute")


@pytest.mark.parametrize("alg", ["deterministic", "monico", "banin-tsaban"])
def test_find_cycle_rejects_bound_zero(alg):
    # an explicit bound of 0 is out of range, not a request for the default
    with pytest.raises(SemigroupError, match="bound must be >= "):
        find_cycle(ZModContext(100), 2, alg, bound=0)


def test_find_cycle_unknown_algorithm():
    with pytest.raises(SemigroupError, match="unknown cycle algorithm"):
        find_cycle(ZModContext(100), 2, "pollard")


def test_all_cycle_routes_agree(instance_pool):
    rng = random.Random(31)
    for factory, x in instance_pool[::4]:
        ctx = factory()
        truth = brute_force_cycle(ctx, x)
        det, _ = deterministic_cycle_length(factory(), x)
        assert det == truth.cycle_length
        mon, _ = monico_cycle_length(factory(), x, bound=truth.order,
                                     divisor_bound=10 ** 4)
        assert mon % truth.cycle_length == 0
        ban, _ = banin_tsaban_cycle_length(factory(), x,
                                           bound=max(4, truth.order),
                                           seed=rng.randrange(1 << 30))
        assert ban == truth.cycle_length


# ------------------------------------------------------------- trace JSON

ALG4_ROUND_KEYS = ["accepted", "baby_hit", "bound", "candidate", "giant_hit",
                   "stride", "table_size"]


def test_cycle_trace_json_keys():
    # bound-free on zmod 1000 (s = 3, L = 100): failed rounds first
    ctx = ZModContext(1000)
    _, det = deterministic_cycle_length(ctx, 2)
    doc = det.to_json()
    assert sorted(doc) == ["cycle_length", "multiplications", "rounds",
                           "table_peak"]
    assert doc["table_peak"] == det.table_peak
    assert len(doc["rounds"]) == len(det.rounds) > 1
    for entry in doc["rounds"]:
        assert sorted(entry) == ALG4_ROUND_KEYS

    _, mon = monico_cycle_length(ZModContext(1000), 2)
    doc = mon.to_json()
    assert sorted(doc) == [
        "bound", "collision_one", "collision_two", "cycle_length",
        "divisor_bound", "duplicate_pair", "failed_bounds", "gcd", "m",
        "multiplications", "prime", "stripped_divisors"]
    assert mon.failed_bounds and doc["failed_bounds"] == mon.failed_bounds
    assert doc["gcd"] == mon.gcd > 0

    _, ban = banin_tsaban_cycle_length(ZModContext(1000), 2, bound=4,
                                       seed=7)
    doc = ban.to_json()
    assert sorted(doc) == [
        "anchor_exponent", "bound", "corrected_from", "cycle_length",
        "failed_bounds", "lcm_candidate", "multiplications", "rounds",
        "verified"]
    assert doc["rounds"]
    for entry, rec in zip(doc["rounds"], ban.rounds):
        assert sorted(entry) == ["gcd", "pairs", "z"]
        assert entry["gcd"] == rec.gcd
