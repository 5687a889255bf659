import math
import random

import pytest

from semidlog import dlp
from semidlog import (
    CycleStructure,
    DlogTrace,
    IncompatibleElementError,
    MonogenicContext,
    NoSolutionError,
    SemigroupError,
    TransformationContext,
    ZModContext,
    brute_force_cycle,
    bsgs_group_dlog,
    crt_combine,
    factor_integer,
    in_group,
    inverse_in_group,
    make_context,
    make_group_view,
    multiply,
    pohlig_hellman_dlog,
    power,
    semigroup_dlog,
    solution_set,
)


def zmod_view():
    ctx = ZModContext(100)
    cyc = CycleStructure(2, 20)
    return ctx, make_group_view(ctx, 2, cyc)


# --------------------------------------------------------------- group view

def test_group_view_zmod():
    ctx, gv = zmod_view()
    assert gv.t == 1
    assert gv.identity == 76   # 2^20 mod 100
    assert gv.generator == 52  # 2^21 mod 100


def test_group_view_monogenic_group_case():
    # cycle start 1: the whole power sequence is already a group and the
    # designated generator collapses back to x itself
    for length in (1, 5, 12):
        ctx = MonogenicContext(1, length)
        gv = make_group_view(ctx, 1, CycleStructure(1, length))
        assert gv.t == 1
        assert gv.identity == length
        assert gv.generator == 1


def test_group_view_monogenic_10_15():
    ctx = MonogenicContext(10, 15)
    gv = make_group_view(ctx, 1, CycleStructure(10, 15))
    assert gv.t == 1
    assert gv.identity == 15
    assert gv.generator == 16


def test_generator_generates_whole_group(instance_pool):
    for factory, x in instance_pool[::6]:
        ctx = factory()
        cyc = brute_force_cycle(ctx, x)
        gv = make_group_view(ctx, x, cyc)
        keys = set()
        cur = gv.generator
        keys.add(ctx.key(cur))
        for _ in range(cyc.cycle_length - 1):
            cur = ctx.mul(cur, gv.generator)
            keys.add(ctx.key(cur))
        assert len(keys) == cyc.cycle_length


def test_identity_absorbs(instance_pool):
    for factory, x in instance_pool[::6]:
        ctx = factory()
        cyc = brute_force_cycle(ctx, x)
        gv = make_group_view(ctx, x, cyc)
        for k in range(cyc.cycle_start, cyc.cycle_start + cyc.cycle_length):
            g = power(ctx, x, k)
            assert ctx.mul(gv.identity, g) == g
            assert ctx.mul(g, gv.identity) == g


# --------------------------------------------------------------- membership

def test_in_group_examples():
    ctx, gv = zmod_view()
    assert in_group(ctx, gv, 68)
    assert (68 * 76) % 100 == 68
    assert in_group(ctx, gv, gv.identity)
    ctx2 = MonogenicContext(10, 15)
    gv2 = make_group_view(ctx2, 1, CycleStructure(10, 15))
    assert not in_group(ctx2, gv2, power(ctx2, 1, 5))


def test_in_group_agrees_with_exponent_ground_truth(instance_pool):
    for factory, x in instance_pool[::5]:
        ctx = factory()
        cyc = brute_force_cycle(ctx, x)
        gv = make_group_view(ctx, x, cyc)
        for k in range(1, cyc.order + 2):
            assert in_group(ctx, gv, power(ctx, x, k)) == (k >= cyc.cycle_start)


def test_in_group_costs_one_multiplication():
    ctx, gv = zmod_view()
    before = ctx.mult_count
    in_group(ctx, gv, 68)
    assert ctx.mult_count == before + 1


# ----------------------------------------------------------------- inverses

def test_inverse_zmod_example():
    ctx, gv = zmod_view()
    inv = inverse_in_group(ctx, gv, 3)  # x^3 = 8
    assert inv == 72  # 2^17 mod 100
    assert multiply(ctx, 8, inv) == 76


def test_inverse_of_identity_exponent():
    ctx, gv = zmod_view()
    inv = inverse_in_group(ctx, gv, 20)
    assert inv == gv.identity


def test_inverse_monogenic_10_15():
    ctx = MonogenicContext(10, 15)
    gv = make_group_view(ctx, 1, CycleStructure(10, 15))
    inv = inverse_in_group(ctx, gv, 16)
    assert inv == 14  # v = 2: 30 - 16
    assert ctx.mul(power(ctx, 1, 16), inv) == gv.identity


def test_inverse_requires_in_cycle_exponent():
    ctx, gv = zmod_view()
    with pytest.raises(SemigroupError):
        inverse_in_group(ctx, gv, 1)


def test_inverse_times_element_is_identity_everywhere(instance_pool):
    for factory, x in instance_pool[::5]:
        ctx = factory()
        cyc = brute_force_cycle(ctx, x)
        gv = make_group_view(ctx, x, cyc)
        for n in range(cyc.cycle_start, cyc.cycle_start + cyc.cycle_length):
            inv = inverse_in_group(ctx, gv, n)
            assert in_group(ctx, gv, inv)
            assert ctx.mul(power(ctx, x, n), inv) == gv.identity


# --------------------------------------------------------------------- bsgs

def test_bsgs_zmod_example():
    ctx, gv = zmod_view()
    assert bsgs_group_dlog(ctx, gv, 52, 68, 20) == 15
    assert pow(52, 15, 100) == 68


def test_bsgs_identity_target_is_zero():
    ctx, gv = zmod_view()
    assert bsgs_group_dlog(ctx, gv, 52, 76, 20) == 0


def test_bsgs_monogenic():
    ctx = MonogenicContext(2, 20)
    gv = make_group_view(ctx, 1, CycleStructure(2, 20))
    target = power(ctx, gv.generator, 7)
    assert bsgs_group_dlog(ctx, gv, gv.generator, target, 20) == 7


def test_bsgs_no_collision_raises():
    ctx, gv = zmod_view()
    with pytest.raises(NoSolutionError):
        bsgs_group_dlog(ctx, gv, 76, 68, 20)  # identity generates nothing


def test_bsgs_minimal_exponent_exhaustive():
    # brute scan over the whole group confirms minimality for every target
    for s, length in [(2, 20), (1, 36), (7, 13), (4, 1), (1, 2), (3, 3),
                      (1, 5), (2, 99)]:
        ctx = MonogenicContext(s, length)
        cyc = CycleStructure(s, length)
        gv = make_group_view(ctx, 1, cyc)
        for m in range(length):
            target = (gv.identity if m == 0
                      else power(ctx, gv.generator, m))
            got = bsgs_group_dlog(ctx, gv, gv.generator, target, length)
            assert got == m, (s, length, m)


def test_bsgs_multiplication_and_table_budget():
    ctx = MonogenicContext(1, 1999)
    gv = make_group_view(ctx, 1, CycleStructure(1, 1999))
    target = power(ctx, gv.generator, 1234)
    before = ctx.mult_count
    assert bsgs_group_dlog(ctx, gv, gv.generator, target, 1999) == 1234
    used = ctx.mult_count - before
    q = 45  # ceil(sqrt(1999))
    assert used <= 2 * q + 2 * 11 + 2  # 2q + O(log n)


# ---------------------------------------------------------------- solutions

def test_solution_set_normalization():
    cyc = CycleStructure(2, 20)
    assert solution_set(15, cyc).to_json() == {
        "kind": "progression", "m0": 15, "period": 20}
    assert solution_set(55, cyc).to_json() == {
        "kind": "progression", "m0": 15, "period": 20}
    assert solution_set(1, cyc).to_json() == {"kind": "unique", "m": 1}


def test_solution_contains():
    sol = solution_set(15, CycleStructure(2, 20))
    assert sol.contains(15) and sol.contains(35) and sol.contains(5015)
    assert not sol.contains(5) and not sol.contains(16)


# ------------------------------------------------------------ semigroup dlog

def test_dlog_zmod_progression_with_trace():
    ctx = ZModContext(100)
    sol, trace = semigroup_dlog(ctx, 2, 68, CycleStructure(2, 20))
    assert sol.to_json() == {"kind": "progression", "m0": 15, "period": 20}
    assert (trace.b, trace.m_prime, trace.c, trace.raw) == (0, 15, 15, 15)
    assert pow(2, 35, 100) == 68  # next solution in the progression


def test_dlog_zmod_unique_below_cycle_start():
    ctx = ZModContext(100)
    sol, trace = semigroup_dlog(ctx, 2, 2, CycleStructure(2, 20))
    assert sol.to_json() == {"kind": "unique", "m": 1}
    assert pow(2, 21, 100) != 2  # no periodic solution exists


def test_dlog_monogenic_remark_values():
    ctx = MonogenicContext(10, 15)
    y = power(ctx, 1, 5)
    sol, _ = semigroup_dlog(ctx, 1, y, CycleStructure(10, 15))
    assert sol.to_json() == {"kind": "unique", "m": 5}


def test_dlog_identity_target():
    ctx = ZModContext(100)
    sol, _ = semigroup_dlog(ctx, 2, 76, CycleStructure(2, 20))
    assert sol.to_json() == {"kind": "progression", "m0": 20, "period": 20}


def test_dlog_not_a_power_raises():
    ctx = ZModContext(100)
    with pytest.raises(NoSolutionError):
        semigroup_dlog(ctx, 2, 3, CycleStructure(2, 20))
    with pytest.raises(NoSolutionError):
        pohlig_hellman_dlog(ctx, 2, 3, CycleStructure(2, 20))


def _fresh(ctx):
    return make_context(ctx.family, ctx.describe())


def _group_view_cost(ctx, x, cyc):
    ref = _fresh(ctx)
    make_group_view(ref, x, cyc)
    return ref.mult_count


@pytest.mark.parametrize("solver", [semigroup_dlog, pohlig_hellman_dlog])
def test_non_member_exits_on_the_lagrange_test(solver):
    # 4 generates the squares modulo the prime 1000003, a group of order
    # L = 500001; the non-square 3 passes 3*4^L = 3 but 3^L != 1, so it
    # leaves after the group view, one membership product and power(3, L)
    # instead of a BSGS of ~1.5*sqrt(L) products
    ctx = ZModContext(1000003)
    cyc = CycleStructure(1, 500001)
    view = _group_view_cost(ctx, 4, cyc)
    with pytest.raises(NoSolutionError):
        solver(ctx, 4, 3, cyc)
    assert ctx.mult_count <= view + 1 + 2 * cyc.cycle_length.bit_length()


@pytest.mark.parametrize("solver", [semigroup_dlog, pohlig_hellman_dlog])
@pytest.mark.parametrize("ctx, x", [(MonogenicContext(10, 400), 1),
                                    (ZModContext(1000), 2)],
                         ids=["monogenic-10-400", "zmod-1000"])
def test_pre_cycle_powers_are_answered_by_the_tail_walk(solver, ctx, x):
    # s - 1 <= ceil(sqrt(L)): x^m with m < s is found by walking x, x^2,
    # ... at m - 1 products after the view and the membership product
    cyc = brute_force_cycle(_fresh(ctx), x)
    s = cyc.cycle_start
    assert s - 1 <= math.isqrt(cyc.cycle_length)
    view = _group_view_cost(ctx, x, cyc)
    for m in range(1, s):
        y = power(ctx, x, m)
        ctx.mult_count = 0
        sol, trace = solver(ctx, x, y, cyc)
        assert ctx.mult_count == view + 1 + (m - 1)
        assert sol.to_json() == {"kind": "unique", "m": m}
        tr = trace.to_json()
        assert tr["raw"] == m
        assert [tr[k] for k in ("b", "m_prime", "m_prime_effective", "c")] \
            == [None] * 4
        assert tr.get("primes", []) == []


def test_ph_walks_the_tail_only_where_it_is_cheaper_than_the_digits():
    # L = 2^24 gives Pohlig-Hellman 24 one-bit digits, which cost at
    # least 24 * (ceil(sqrt(2)) + 2 * 25) = 1248: a tail of 3999 is
    # shifted into the group instead of walked (~800 products, not
    # ~4000), while semigroup_dlog walks it, below ceil(sqrt(L)) = 4096
    cyc = CycleStructure(4000, 1 << 24)
    ph, red = MonogenicContext(4000, 1 << 24), MonogenicContext(4000, 1 << 24)
    y = power(ph, 1, 3999)
    ph.mult_count = 0
    sol, trace = pohlig_hellman_dlog(ph, 1, y, cyc)
    assert sol.to_json() == {"kind": "unique", "m": 3999}
    assert trace.b == 1 and len(trace.prime_records) == 1
    assert ph.mult_count < 1000
    sol, trace = semigroup_dlog(red, 1, y, cyc)
    assert sol.to_json() == {"kind": "unique", "m": 3999}
    assert trace.b is None


@pytest.mark.parametrize("solver", [semigroup_dlog, pohlig_hellman_dlog])
def test_golden_zmod_non_power_ends_in_the_tail_walk(solver):
    # 3 * 2^100 = 128 != 3 (mod 1000): off the cycle, and x, x^2 miss it
    ctx = ZModContext(1000)
    cyc = CycleStructure(3, 100)
    view = _group_view_cost(ctx, 2, cyc)
    with pytest.raises(NoSolutionError, match="off the cycle"):
        solver(ctx, 2, 3, cyc)
    assert ctx.mult_count == view + 1 + 1


@pytest.mark.parametrize("solver", [semigroup_dlog, pohlig_hellman_dlog])
def test_non_member_passing_both_tests_falls_back(solver, monkeypatch):
    # x = swap 1<->2 and y = swap 3<->4 on four points: y*x^2 = y and
    # y^2 = x^2 = id, so y passes the membership and Lagrange tests, yet
    # y is no power of x; the group log and the final power check decide
    ctx = TransformationContext(4)
    x, y = (1, 0, 2, 3), (0, 1, 3, 2)
    cyc = CycleStructure(1, 2)
    assert ctx.mul(y, power(ctx, x, 2)) == y
    assert power(ctx, y, 2) == power(ctx, x, 2)
    calls = []
    bsgs = dlp.bsgs_group_dlog
    monkeypatch.setattr(dlp, "bsgs_group_dlog",
                        lambda *args: calls.append(args) or bsgs(*args))
    with pytest.raises(NoSolutionError):
        solver(ctx, x, y, cyc)
    assert calls


@pytest.mark.parametrize("solver", [semigroup_dlog, pohlig_hellman_dlog])
@pytest.mark.parametrize("x, y", [(2, "a"), (2, 250), (250, 4), (2, [4])])
def test_dlog_rejects_foreign_elements(solver, x, y):
    with pytest.raises(IncompatibleElementError):
        solver(ZModContext(100), x, y, CycleStructure(2, 20))


def _zmod_bsgs(generator, target):
    ctx, gv = zmod_view()
    return bsgs_group_dlog(ctx, gv, generator, target, 20)


# helpers that take elements check them too, whatever the solver did
DLP_HELPER_CALLS = {
    "group-view-base": lambda: make_group_view(ZModContext(100), 250,
                                               CycleStructure(2, 20)),
    "group-view-unhashable": lambda: make_group_view(
        TransformationContext(3), [0, 1, 2], CycleStructure(1, 1)),
    "bsgs-generator": lambda: _zmod_bsgs(250, 4),
    "bsgs-target": lambda: _zmod_bsgs(4, "a"),
    "in-group-foreign": lambda: in_group(*zmod_view(), 250),
    "in-group-unhashable": lambda: in_group(*zmod_view(), [68]),
}


@pytest.mark.parametrize("call", sorted(DLP_HELPER_CALLS))
def test_dlp_helpers_reject_foreign_elements(call):
    with pytest.raises(IncompatibleElementError):
        DLP_HELPER_CALLS[call]()


def test_ph_unfactorable_cycle_length_is_a_semigroup_error():
    # factor_integer stops at 2^63; its ValueError must not escape
    with pytest.raises(SemigroupError, match="cannot factor"):
        pohlig_hellman_dlog(ZModContext(101), 2, 4, CycleStructure(1, 1 << 63))


def test_trace_json_keys():
    ctx = ZModContext(100)
    _, trace = semigroup_dlog(ctx, 2, 68, CycleStructure(2, 20))
    assert sorted(trace.to_json()) == ["b", "c", "m_prime",
                                       "m_prime_effective", "raw"]
    _, ph_trace = pohlig_hellman_dlog(ctx, 2, 68, CycleStructure(2, 20))
    assert isinstance(ph_trace, DlogTrace)
    assert sorted(ph_trace.to_json()) == ["b", "c", "m_prime",
                                          "m_prime_effective", "primes",
                                          "raw"]
    assert {k: v for k, v in ph_trace.to_json().items() if k != "primes"} \
        == trace.to_json()
    primes = ph_trace.to_json()["primes"]
    assert [r["prime"] for r in primes] == [2, 5]
    for entry, rec in zip(primes, ph_trace.prime_records):
        assert sorted(entry) == ["digits", "exponent", "prime", "residue"]
        assert entry["residue"] == rec.residue


def test_dlog_boundary_between_unique_and_progression():
    for s, length in [(2, 20), (10, 15), (5, 12), (2, 1)]:
        ctx = MonogenicContext(s, length)
        cyc = CycleStructure(s, length)
        sol_below, _ = semigroup_dlog(ctx, 1, power(ctx, 1, s - 1), cyc)
        assert sol_below.to_json() == {"kind": "unique", "m": s - 1}
        sol_at, _ = semigroup_dlog(ctx, 1, power(ctx, 1, s), cyc)
        assert sol_at.to_json() == {
            "kind": "progression", "m0": s, "period": length}


def _is_tail_answer(cyc, m):
    """x^m is off the cycle and the tail is short enough to walk."""
    return m < cyc.cycle_start and \
        cyc.cycle_start - 1 <= math.isqrt(cyc.cycle_length - 1) + 1


def test_dlog_trace_identity_and_bounds(instance_pool):
    # solver bookkeeping: raw = m'(tL+1) - (b+c)L reproduces the true
    # exponent, with b <= t and c <= N + 1; a tail answer is raw = m alone
    rng = random.Random(13)
    tail_answers = 0
    for factory, x in instance_pool[::5]:
        ctx = factory()
        cyc = brute_force_cycle(ctx, x)
        gv_t = -(-cyc.cycle_start // cyc.cycle_length)
        for _ in range(6):
            m = rng.randint(1, 3 * cyc.order)
            y = power(ctx, x, m)
            sol, tr = semigroup_dlog(ctx, x, y, cyc)
            assert sol.contains(m)
            assert power(ctx, x, sol.smallest()) == y
            if _is_tail_answer(cyc, m):
                tail_answers += 1
                assert tr.raw == m
                assert (tr.b, tr.m_prime, tr.m_prime_effective, tr.c) == \
                    (None, None, None, None)
                continue
            assert tr.b <= gv_t
            assert tr.c <= cyc.order + 1
            a = tr.m_prime_effective * (gv_t * cyc.cycle_length + 1)
            assert tr.c == (a - cyc.cycle_start) // cyc.cycle_length
            assert tr.raw == a - (tr.b + tr.c) * cyc.cycle_length
    assert tail_answers > 0


def test_dlog_round_trip_random(instance_pool):
    rng = random.Random(29)
    for factory, x in instance_pool[::3]:
        ctx = factory()
        cyc = brute_force_cycle(ctx, x)
        for _ in range(8):
            m = rng.randint(1, 3 * cyc.order)
            y = power(ctx, x, m)
            sol, _ = semigroup_dlog(ctx, x, y, cyc)
            assert sol.contains(m)


def test_dlog_solution_set_matches_enumeration():
    # exhaustive: the reported set is exactly {k : x^k = y} for every
    # y in the power sequence, on instances small enough to enumerate
    cases = [(MonogenicContext(3, 8), 1), (MonogenicContext(1, 12), 1),
             (MonogenicContext(6, 1), 1), (MonogenicContext(10, 15), 1),
             (ZModContext(100), 2), (ZModContext(81), 3),
             (TransformationContext(5), (1, 2, 0, 0, 3))]
    for ctx, x in cases:
        cyc = brute_force_cycle(ctx, x)
        s, length = cyc.cycle_start, cyc.cycle_length
        horizon = s + 4 * length
        for target_exp in range(1, s + length):
            y = power(ctx, x, target_exp)
            sol, _ = semigroup_dlog(ctx, x, y, cyc)
            true_set = {k for k in range(1, horizon + 1)
                        if power(ctx, x, k) == y}
            got_set = {k for k in range(1, horizon + 1) if sol.contains(k)}
            assert got_set == true_set, (ctx, target_exp)


# ------------------------------------------------------------ pohlig-hellman

def test_ph_zmod_digit_trace():
    ctx = ZModContext(100)
    sol, trace = pohlig_hellman_dlog(ctx, 2, 68, CycleStructure(2, 20))
    assert sol.to_json() == {"kind": "progression", "m0": 15, "period": 20}
    by_prime = {r.prime: r for r in trace.prime_records}
    assert by_prime[2].residue == 3   # 15 mod 4
    assert by_prime[2].digits == [1, 1]
    assert by_prime[5].residue == 0   # 15 mod 5
    assert trace.m_prime == 15


def test_ph_equals_reduction_everywhere(instance_pool):
    rng = random.Random(37)
    for factory, x in instance_pool[::3]:
        ctx = factory()
        cyc = brute_force_cycle(ctx, x)
        for _ in range(6):
            m = rng.randint(1, 3 * cyc.order)
            y = power(ctx, x, m)
            sol_a, _ = semigroup_dlog(ctx, x, y, cyc)
            sol_b, _ = pohlig_hellman_dlog(ctx, x, y, cyc)
            assert sol_a == sol_b


def test_ph_trivial_cycle_length():
    # L = 1: empty factorization, the group is a single idempotent
    ctx = MonogenicContext(9, 1)
    cyc = CycleStructure(9, 1)
    for m in (3, 9, 12):
        y = power(ctx, 1, m)
        sol, trace = pohlig_hellman_dlog(ctx, 1, y, cyc)
        ref, _ = semigroup_dlog(ctx, 1, y, cyc)
        assert sol == ref
        assert trace.prime_records == []


def test_ph_prime_cycle_length_single_digit():
    ctx = MonogenicContext(6, 13)
    cyc = CycleStructure(6, 13)
    y = power(ctx, 1, 6)
    sol, trace = pohlig_hellman_dlog(ctx, 1, y, cyc)
    ref, _ = semigroup_dlog(ctx, 1, y, cyc)
    assert sol == ref
    assert len(trace.prime_records) == 1
    assert len(trace.prime_records[0].digits) == 1


def test_ph_squarefree_length_needs_no_inverse(monkeypatch):
    # every p^e of L = 2*3*5*7*11 has e = 1: one digit each, so no digit
    # divides by the projected generator and its inverse is never computed
    def no_inverse(*args):
        raise AssertionError("inverse_in_group called for e = 1")

    monkeypatch.setattr(dlp, "inverse_in_group", no_inverse)
    ctx = MonogenicContext(4, 2310)
    cyc = CycleStructure(4, 2310)
    for m in (2, 4, 1000, 2313, 5000):
        y = power(ctx, 1, m)
        sol, trace = pohlig_hellman_dlog(ctx, 1, y, cyc)
        assert sol.contains(m)
        assert sol == semigroup_dlog(ctx, 1, y, cyc)[0]
        # m = 2 < s is a tail answer: no group log, so no prime records
        primes = [] if m < 4 else [2, 3, 5, 7, 11]
        assert [r.prime for r in trace.prime_records] == primes


def test_ph_prime_power_heavy_length():
    ctx = MonogenicContext(3, 256)
    cyc = CycleStructure(3, 256)
    rng = random.Random(8)
    for _ in range(10):
        m = rng.randint(1, 700)
        y = power(ctx, 1, m)
        sol, trace = pohlig_hellman_dlog(ctx, 1, y, cyc)
        assert sol.contains(m)
        assert len(trace.prime_records[0].digits) == 8  # 2^8


def test_reexported_integer_helpers():
    assert factor_integer(20) == [(2, 2), (5, 1)]
    assert crt_combine([(3, 4), (0, 5)]) == 15


def test_dlog_transformation_instance():
    ctx = TransformationContext(6)
    x = (1, 2, 0, 4, 5, 3)  # two 3-cycles: order 3... composed with itself
    cyc = brute_force_cycle(ctx, x)
    y = power(ctx, x, 2)
    sol, _ = semigroup_dlog(ctx, x, y, cyc)
    assert sol.contains(2)
    assert power(ctx, x, sol.smallest()) == y
