import random

import pytest

from semidlog import (
    CycleStructure,
    DomainError,
    IncompatibleElementError,
    MatModContext,
    MonogenicContext,
    SemigroupError,
    TransformationContext,
    ZModContext,
    brute_force_cycle,
    canonical_key,
    multiply,
    power,
)
from semidlog.core import Powers


def naive_power(ctx, x, e):
    """Independent oracle: e-1 plain multiplications."""
    acc = x
    for _ in range(e - 1):
        acc = ctx.mul(acc, x)
    return acc


def test_multiply_zmod():
    ctx = ZModContext(100)
    assert multiply(ctx, 8, 72) == 76


def test_multiply_transformation_composes_pointwise():
    ctx = TransformationContext(4)
    f = (1, 0, 0, 2)  # external [2,1,1,3]
    assert multiply(ctx, f, f) == (0, 1, 1, 0)  # external [1,2,2,1]


def test_multiply_monogenic_wraps_into_cycle():
    ctx = MonogenicContext(10, 15)
    assert multiply(ctx, 11, 15) == 11  # canon(26) = 11


def test_multiply_rejects_foreign_elements():
    ctx = MatModContext(2, 5)
    good = ((1, 2), (3, 4))
    with pytest.raises(IncompatibleElementError):
        multiply(ctx, good, ((1, 2, 3), (4, 5, 6), (0, 0, 1)))
    with pytest.raises(IncompatibleElementError):
        multiply(ctx, good, ((1, 9), (3, 4)))  # entry out of range


def test_counter_counts_each_multiplication_once():
    ctx = ZModContext(100)
    assert ctx.mult_count == 0
    multiply(ctx, 3, 7)
    assert ctx.mult_count == 1
    multiply(ctx, 3, 7)
    assert ctx.mult_count == 2


def test_power_matches_naive_oracle():
    oracle_ctx = ZModContext(100)
    assert naive_power(oracle_ctx, 2, 15) == 68
    ctx = ZModContext(100)
    assert power(ctx, 2, 15) == 68
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 400)
        x = rng.randrange(n)
        e = rng.randint(1, 200)
        assert power(ZModContext(n), x, e) == naive_power(ZModContext(n), x, e)


def test_power_identity_exponent_costs_nothing():
    ctx = ZModContext(100)
    assert power(ctx, 37, 1) == 37
    assert ctx.mult_count == 0


def test_power_zero_exponent_rejected():
    ctx = ZModContext(100)
    with pytest.raises(SemigroupError):
        power(ctx, 2, 0)
    with pytest.raises(SemigroupError):
        power(ctx, 2, -3)


def test_ladder_rejects_exponents_below_one_and_keeps_its_squares():
    ctx = ZModContext(100)
    powers = Powers(ctx, 3)
    for e in (0, -3, "2"):
        with pytest.raises(SemigroupError):
            powers(e)
    assert powers(1) == 3 and ctx.mult_count == 0
    assert powers(12) == 3 ** 12 % 100
    assert ctx.mult_count == 3 + 1  # squares x^2, x^4, x^8; x^4 * x^8
    assert powers(8) == 3 ** 8 % 100
    assert ctx.mult_count == 4  # a stored square is free


def test_power_distinguishes_pre_cycle_exponents():
    # cycle length 12 = 15 - 3, yet x^15 != x^3 because 3 is below the start
    ctx = MonogenicContext(5, 12)
    assert power(ctx, 1, 15) == 15
    assert power(ctx, 1, 3) == 3
    assert power(ctx, 1, 15) != power(ctx, 1, 3)


def test_power_multiplication_count_is_exact():
    rng = random.Random(3)
    for _ in range(100):
        e = rng.randint(1, 10 ** 6)
        ctx = ZModContext(97)
        power(ctx, 5, e)
        expected = (e.bit_length() - 1) + (bin(e).count("1") - 1)
        assert ctx.mult_count == expected
        assert ctx.mult_count <= 2 * (e.bit_length() - 1) + 1


def test_power_addition_law(instance_pool):
    rng = random.Random(11)
    for factory, x in instance_pool[::5]:
        ctx = factory()
        for _ in range(10):
            a = rng.randint(1, 60)
            b = rng.randint(1, 60)
            lhs = power(ctx, x, a + b)
            rhs = ctx.mul(power(ctx, x, a), power(ctx, x, b))
            assert lhs == rhs


def test_associativity_sampled(instance_pool):
    rng = random.Random(23)
    families = {}
    for factory, x in instance_pool:
        ctx = factory()
        key = repr(sorted(ctx.describe().items()))
        families.setdefault(key, (ctx, []))[1].append(x)
    for family, (ctx, elems) in families.items():
        # build a wider element sample by walking powers
        sample = list(elems)
        for x in elems[:4]:
            cur = x
            for _ in range(5):
                cur = ctx.mul(cur, x)
                sample.append(cur)
        for _ in range(1000):
            a, b, c = (rng.choice(sample) for _ in range(3))
            assert (ctx.mul(ctx.mul(a, b), c)
                    == ctx.mul(a, ctx.mul(b, c))), family


def test_canonical_key_zmod_fixed_width_big_endian():
    ctx = ZModContext(100)
    assert canonical_key(ctx, 68) == bytes([68])
    wide = ZModContext(70000)
    assert canonical_key(wide, 68) == (68).to_bytes(3, "big")


def test_canonical_key_examples():
    from semidlog import BoolMatContext
    bm = BoolMatContext(2)
    assert canonical_key(bm, 0b1001) == bytes([0b1001])
    tr = TransformationContext(4)
    assert canonical_key(tr, (1, 2, 3, 1)) == bytes([2, 3, 4, 2])


def test_key_equality_is_element_equality(instance_pool):
    for factory, x in instance_pool[::7]:
        ctx = factory()
        y = ctx.mul(x, x)
        assert (canonical_key(ctx, x) == canonical_key(ctx, y)) == (x == y)
        assert canonical_key(ctx, x) == canonical_key(ctx, x)


def test_power_period_equivalence(instance_pool):
    # equality of in-cycle powers is exactly congruence mod the cycle length
    rng = random.Random(5)
    for factory, x in instance_pool[::4]:
        ctx = factory()
        cyc = brute_force_cycle(ctx, x)
        for _ in range(40):
            n = rng.randint(cyc.cycle_start, cyc.cycle_start + 5 * cyc.cycle_length)
            m = rng.randint(cyc.cycle_start, cyc.cycle_start + 5 * cyc.cycle_length)
            equal = power(ctx, x, n) == power(ctx, x, m)
            assert equal == ((n - m) % cyc.cycle_length == 0)


def test_cycle_structure_validation():
    cyc = CycleStructure(2, 20)
    assert cyc.order == 21
    assert CycleStructure(2, 20, 21) == cyc
    with pytest.raises(ValueError):
        CycleStructure(2, 20, 22)
    with pytest.raises(ValueError):
        CycleStructure(0, 5)


def test_cycle_structure_errors_are_domain_errors():
    for args in [(0, 3), (3, 0), (2, 20, 22)]:
        with pytest.raises(DomainError) as err:
            CycleStructure(*args)
        assert isinstance(err.value, SemigroupError)
        assert isinstance(err.value, ValueError)
