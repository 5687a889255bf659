"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance is fixed here; nothing is calibrated at runtime.
"""

import itertools
import math
import random

import pytest

from semidlog import (
    MatModContext,
    MonogenicContext,
    TransformationContext,
    ZModContext,
    brute_force_cycle,
    bsgs_group_dlog,
    cycle_start_search,
    deterministic_cycle_length,
    in_group,
    inverse_in_group,
    make_group_view,
    monico_cycle_length,
    pohlig_hellman_dlog,
    power,
    semigroup_dlog,
)
from semidlog.core import CycleStructure
from semidlog.numtheory import ceil_sqrt


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def _cycle_via_algorithms(ctx_factory, x):
    ctx = ctx_factory()
    length, _ = deterministic_cycle_length(ctx, x)
    start = cycle_start_search(ctx, x, length)
    return start, length


def test_criterion_1_oracle_equivalence():
    mismatches = 0
    checked = 0

    # (a) every element of every ZMod(n), n <= 512
    for n in range(2, 513):
        for x in range(n):
            truth = brute_force_cycle(ZModContext(n), x)
            got = _cycle_via_algorithms(lambda n=n: ZModContext(n), x)
            checked += 1
            if got != (truth.cycle_start, truth.cycle_length):
                mismatches += 1

    # (b) 1000 seeded random matrices: 2x2 and 3x3 over moduli {2,3,5,7}
    rng = random.Random(20240101)
    for i in range(1000):
        dim = 2 if i % 2 == 0 else 3
        modulus = (2, 3, 5, 7)[i % 4]
        elem = tuple(tuple(rng.randrange(modulus) for _ in range(dim))
                     for _ in range(dim))
        truth = brute_force_cycle(MatModContext(dim, modulus), elem)
        got = _cycle_via_algorithms(
            lambda d=dim, m=modulus: MatModContext(d, m), elem)
        checked += 1
        if got != (truth.cycle_start, truth.cycle_length):
            mismatches += 1

    # (c) transformations: all of degree <= 4, 10^4 seeded of degree <= 7
    for deg in (1, 2, 3, 4):
        for images in itertools.product(range(deg), repeat=deg):
            truth = brute_force_cycle(TransformationContext(deg), images)
            got = _cycle_via_algorithms(
                lambda d=deg: TransformationContext(d), images)
            checked += 1
            if got != (truth.cycle_start, truth.cycle_length):
                mismatches += 1
    for _ in range(10 ** 4):
        deg = rng.randint(5, 7)
        images = tuple(rng.randrange(deg) for _ in range(deg))
        truth = brute_force_cycle(TransformationContext(deg), images)
        got = _cycle_via_algorithms(
            lambda d=deg: TransformationContext(d), images)
        checked += 1
        if got != (truth.cycle_start, truth.cycle_length):
            mismatches += 1

    # (d) every Monogenic(s, L) with 1 <= s, L <= 40
    for s in range(1, 41):
        for length in range(1, 41):
            truth = brute_force_cycle(MonogenicContext(s, length), 1)
            got = _cycle_via_algorithms(
                lambda s=s, L=length: MonogenicContext(s, L), 1)
            checked += 1
            if got != (truth.cycle_start, truth.cycle_length):
                mismatches += 1

    _report(1, "oracle equivalence", mismatches == 0,
            f"{checked} elements, {mismatches} mismatches")


def test_criterion_2_remark_reproduction():
    detail = []

    ctx_a = MonogenicContext(5, 12)
    if power(ctx_a, 1, 15) == power(ctx_a, 1, 3):
        detail.append("x^15 = x^3 in (5,12)")

    ctx_b = MonogenicContext(10, 15)
    y = power(ctx_b, 1, 5)
    collision = ctx_b.mul(y, power(ctx_b, 1, 6))
    if collision != power(ctx_b, 1, 11):
        detail.append("y*x^6 != x^11")
    if power(ctx_b, 1, 11) != power(ctx_b, 1, 26):
        detail.append("x^11 != x^26")
    if power(ctx_b, 1, 5) == power(ctx_b, 1, 20):
        detail.append("x^5 = x^20")

    sol, _ = semigroup_dlog(ctx_b, 1, y, CycleStructure(10, 15))
    if sol.to_json() != {"kind": "unique", "m": 5}:
        detail.append(f"dlog gave {sol.to_json()}")

    _report(2, "counterexample scenario reproduction", not detail,
            "; ".join(detail) or "both scenarios exact")


def _dlp_case_stream(count):
    """Seeded (ctx_factory, x, cycle, m) cases with order <= 1e5."""
    rng = random.Random(987654321)
    produced = 0
    while produced < count:
        kind = produced % 5
        if kind in (0, 1):
            s = rng.randint(1, 10 ** 3)
            length = rng.randint(1, 10 ** 5 - s)
            factory = lambda s=s, L=length: MonogenicContext(s, L)
            x = 1
            cyc = CycleStructure(s, length)
        elif kind == 2:
            n = rng.randint(4, 3000)
            x = rng.randrange(n)
            factory = lambda n=n: ZModContext(n)
            cyc = brute_force_cycle(factory(), x)
        elif kind == 3:
            deg = rng.randint(2, 8)
            x = tuple(rng.randrange(deg) for _ in range(deg))
            factory = lambda d=deg: TransformationContext(d)
            cyc = brute_force_cycle(factory(), x)
        else:
            dim = rng.choice([2, 3])
            modulus = rng.choice([2, 3, 5, 7])
            x = tuple(tuple(rng.randrange(modulus) for _ in range(dim))
                      for _ in range(dim))
            factory = lambda d=dim, m=modulus: MatModContext(d, m)
            cyc = brute_force_cycle(factory(), x)
        m = rng.randint(1, 3 * cyc.order)
        produced += 1
        yield factory, x, cyc, m


@pytest.fixture(scope="module")
def dlp_sweep():
    """Shared sweep for criteria 3 and 4."""
    results = []
    for factory, x, cyc, m in _dlp_case_stream(1000):
        ctx = factory()
        y = power(ctx, x, m)
        sol, _ = semigroup_dlog(ctx, x, y, cyc)
        ph_sol, _ = pohlig_hellman_dlog(ctx, x, y, cyc)
        results.append((factory, x, cyc, m, y, sol, ph_sol))
    return results


def test_criterion_3_dlp_round_trip(dlp_sweep):
    bad = 0
    enumerated = 0
    for factory, x, cyc, m, y, sol, _ in dlp_sweep:
        ctx = factory()
        if not sol.contains(m):
            bad += 1
            continue
        if power(ctx, x, sol.smallest()) != y:
            bad += 1
            continue
        if cyc.order <= 2000:
            enumerated += 1
            horizon = cyc.cycle_start + 3 * cyc.cycle_length
            true_set = {k for k in range(1, horizon + 1)
                        if power(ctx, x, k) == y}
            got_set = {k for k in range(1, horizon + 1) if sol.contains(k)}
            if true_set != got_set:
                bad += 1
    _report(3, "DLP round trip", bad == 0,
            f"{len(dlp_sweep)} cases, {enumerated} enumerated, {bad} bad")


def test_criterion_4_solver_agreement(dlp_sweep):
    disagreements = sum(1 for *_, sol, ph_sol in dlp_sweep if sol != ph_sol)
    _report(4, "pohlig-hellman equals reduction", disagreements == 0,
            f"{len(dlp_sweep)} cases, {disagreements} disagreements")


def test_criterion_5_monico_success_rate():
    rng = random.Random(555)
    runs = 500
    exact = 0
    unsound = 0
    for _ in range(runs):
        length = rng.randint(1, 10 ** 4)
        start = rng.randint(1, 10 ** 3)
        ctx = MonogenicContext(start, length)
        got, _ = monico_cycle_length(ctx, 1, bound=start + length,
                                     divisor_bound=10 ** 4)
        if got % length != 0 or got <= 0:
            unsound += 1
        elif got == length:
            exact += 1
    rate = exact / runs
    ok = unsound == 0 and rate >= 0.99
    _report(5, "monico success rate and soundness", ok,
            f"success {exact}/{runs} = {rate:.3f}, unsound {unsound}")


CRITERION_6_SPLITS = [
    lambda n: (1, n),                # pure cycle
    lambda n: (n // 2, n // 2 + 1),  # balanced
    lambda n: (n - 1, 2),            # late cycle start
    lambda n: (2, n - 1),
]


@pytest.fixture(scope="module")
def alg4_envelope_runs():
    runs = []
    for k in range(8, 21, 2):
        order = 2 ** k
        for split in CRITERION_6_SPLITS:
            s, length = split(order)
            assert s + length - 1 == order
            ctx = MonogenicContext(s, length)
            got, trace = deterministic_cycle_length(ctx, 1)
            assert got == length
            before = ctx.mult_count
            start = cycle_start_search(ctx, 1, got)
            start_cost = ctx.mult_count - before
            assert start == s
            runs.append((order, s, length, trace, start_cost))
    return runs


def test_criterion_6_complexity_envelope(alg4_envelope_runs):
    worst_ratio = 0.0
    table_violations = 0
    for order, s, length, trace, _ in alg4_envelope_runs:
        log_n = math.log2(order)
        budget = 16 * math.sqrt(order) * log_n * log_n
        worst_ratio = max(worst_ratio, trace.multiplications / budget)
        for rnd in trace.rounds:
            if rnd.table_size > ceil_sqrt(rnd.bound) + 1:
                table_violations += 1
    ok = worst_ratio <= 1.0 and table_violations == 0
    _report(6, "deterministic algorithm complexity envelope", ok,
            f"worst count/budget ratio {worst_ratio:.4f}, "
            f"table violations {table_violations}")


def test_criterion_7_group_machinery():
    failures = []
    cases = [
        (lambda: ZModContext(100), 2),
        (lambda: ZModContext(257), 3),
        (lambda: MonogenicContext(1, 1), 1),
        (lambda: MonogenicContext(10, 15), 1),
        (lambda: MonogenicContext(37, 41), 1),
        (lambda: MonogenicContext(1, 1999), 1),
        (lambda: TransformationContext(7), (1, 2, 3, 4, 5, 6, 0)),
        (lambda: TransformationContext(6), (1, 0, 3, 4, 5, 2)),
        (lambda: MatModContext(2, 5), ((1, 2), (3, 4))),
        (lambda: MatModContext(3, 7), ((1, 2, 0), (0, 1, 3), (2, 0, 1))),
    ]
    for factory, x in cases:
        ctx = factory()
        cyc = brute_force_cycle(ctx, x)
        gv = make_group_view(ctx, x, cyc)
        label = repr(ctx)

        for k in range(cyc.cycle_start, cyc.cycle_start + cyc.cycle_length):
            g = power(ctx, x, k)
            if ctx.mul(gv.identity, g) != g:
                failures.append(f"{label}: identity fails to absorb x^{k}")
                break
            inv = inverse_in_group(ctx, gv, k)
            if ctx.mul(g, inv) != gv.identity:
                failures.append(f"{label}: inverse of x^{k} wrong")
                break

        for k in range(1, cyc.order + 2):
            member = in_group(ctx, gv, power(ctx, x, k))
            if member != (k >= cyc.cycle_start):
                failures.append(f"{label}: membership wrong at exponent {k}")
                break

        if cyc.cycle_length <= 2000:
            ref = {}
            cur = gv.generator
            ref[ctx.key(cur)] = 1
            for j in range(2, cyc.cycle_length + 1):
                cur = ctx.mul(cur, gv.generator)
                ref.setdefault(ctx.key(cur), j)
            for m in range(cyc.cycle_length):
                target = (gv.identity if m == 0
                          else power(ctx, gv.generator, m))
                got = bsgs_group_dlog(ctx, gv, gv.generator, target,
                                      cyc.cycle_length)
                scan = 0 if target == gv.identity else ref[ctx.key(target)]
                if got != scan:
                    failures.append(
                        f"{label}: bsgs({m}) = {got}, brute scan {scan}")
                    break
    _report(7, "group machinery invariants", not failures,
            "; ".join(failures[:3]) or f"{len(cases)} group views exact")


def test_criterion_8_cycle_start_envelope(alg4_envelope_runs):
    worst_ratio = 0.0
    for order, s, length, _, start_cost in alg4_envelope_runs:
        log_n = math.log2(order)
        budget = 16 * log_n * log_n
        worst_ratio = max(worst_ratio, start_cost / budget)
    ok = worst_ratio <= 1.0
    _report(8, "cycle start search envelope", ok,
            f"worst count/budget ratio {worst_ratio:.4f}")
