"""The multiplication counter equals the products actually made.

Only the bulk counters make products without `mul`: `power` and the
fixed-base ladder `Powers`, and the three collision walks `table_walk`,
`probe_walk` and `table_walk_all` in `core`, plus the Banin-Tsaban
oracle's giant steps.  Each adds its multiplications to `ctx.mult_count`
once per exit.  The walks come from one template: zmod and monogenic
write their product into it, take powers in one step by their `_power`
and call no `_product`; every other family binds the walk's fixed step
once per call through `_right`, and takes powers on the squares ladder,
which multiplies with `_product` and binds nothing.  matmod's and
transformation's `_right` make no `_product` call per step; boolmat's
default one calls `_product` once per product.

So each route runs twice, on two fresh contexts of one instance: one with
the family's own walks, one forced onto the generic walks, which call
`_product` once per product.  Both shadow `ctx._product` with an instance
attribute that counts its own calls and run the route to its end (a
normal return or a documented raise).  The results and the counters must
agree, the generic counter must equal its raw calls, and the family's own
raw calls must not exceed its counter, and equal it for a family on the
generic path (boolmat).  A guard test checks that the zmod
and monogenic walks, powers and ladders make no `_product` call at all,
another that matmod's and transformation's walks bind their step once
and make none either, one that a `_walk_step` or `_power` set on an
instance takes effect at its next call, and seeded tests that the
one-step powers match square and multiply, the one-step ladders the
ladder of stored squares, and the costly families' powers and ladders
square and multiply over `_product`, one call per counted product, and
never call `_right`.
"""

import random

import pytest

from semidlog import (
    CYCLE_ALGORITHMS,
    BoolMatContext,
    DomainError,
    MatModContext,
    MonogenicContext,
    NoSolutionError,
    OracleFailureError,
    SemigroupContext,
    SemigroupError,
    TransformationContext,
    ZModContext,
    brute_force_cycle,
    bsgs_group_dlog,
    cycle_start_search,
    deterministic_cycle_length,
    factor_integer,
    find_cycle,
    group_dlog_oracle,
    least_period,
    make_group_view,
    monico_strip,
    parse_element_spec,
    pohlig_hellman_dlog,
    power,
    semigroup_dlog,
)
from semidlog.core import Powers, probe_walk, table_walk, table_walk_all
from semidlog.selftest import _canon, generic_walks

# one base per family, plus an element of the same instance that is not a
# power of it; every order is above 6 (see the oracle route) and every
# cycle length composite (see the BSGS route)
FAMILIES = {
    # s = 3, L = 100
    "zmod": ({"type": "zmod", "modulus": 1000, "value": 2},
             {"type": "zmod", "modulus": 1000, "value": 3}),
    # s = 3, L = 18; the base is singular mod 3, the identity is not
    "matmod": ({"type": "matmod", "modulus": 27,
                "entries": [[1, 2, 0], [0, 0, 3], [4, 0, 2]]},
               {"type": "matmod", "modulus": 27,
                "entries": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
    # s = 7, L = 6
    "boolmat": ({"type": "boolmat",
                 "entries": [[0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0],
                             [0, 0, 0, 1, 0, 0, 1], [1, 0, 0, 0, 0, 1, 0],
                             [0, 0, 0, 0, 0, 0, 1], [0, 0, 1, 0, 0, 0, 0],
                             [1, 0, 0, 0, 1, 0, 0]]},
                {"type": "boolmat",
                 "entries": [[int(i == j) for j in range(7)]
                             for i in range(7)]}),
    # s = 4, L = 6
    "transformation": ({"type": "transformation",
                        "map": [2, 2, 11, 8, 4, 3, 12, 10, 7, 6, 4, 5]},
                       {"type": "transformation",
                        "map": list(range(1, 13))}),
    # x = 2 in the (37, 360) instance: s = 19, L = 180; odd exponents
    # below 37 are not its powers
    "monogenic": ({"type": "monogenic", "s": 37, "L": 360, "e": 2},
                  {"type": "monogenic", "s": 37, "L": 360, "e": 3}),
}


def _traced(trace):
    return trace.to_json() if trace is not None else None


def _raised(error, call, match=None):
    """The message of the `error` that `call()` raises."""
    with pytest.raises(error, match=match) as info:
        call()
    return str(info.value)


def _route_find_cycle(alg, at_order):
    def route(ctx, x, cyc, other):
        bound = cyc.order if at_order else None
        got, trace = find_cycle(ctx, x, alg, bound)
        assert got == cyc
        return got, _traced(trace)
    return route


def _route_deterministic_small_bound(ctx, x, cyc, other):
    return _raised(SemigroupError,
                   lambda: deterministic_cycle_length(ctx, x, known_bound=1),
                   "no validated collision")


def _route_deterministic_baby_hit(ctx, x, cyc, other):
    # with sqrt(bound) >= L the baby walk meets x^bound again and stops
    bound = max(cyc.order, cyc.cycle_length ** 2)
    length, trace = deterministic_cycle_length(ctx, x, known_bound=bound)
    assert length == trace.rounds[0].baby_hit == cyc.cycle_length
    return _traced(trace)


def _route_ladder(ctx, x, cyc, other):
    # new squares, stored ones, a repeat and a single-bit exponent
    powers = Powers(ctx, x)
    got = []
    for e in (cyc.order + 5, 3, 4 * cyc.order + 1, cyc.order + 5, 1, 64):
        got.append(powers(e))
        assert got[-1] == power(ctx, x, e)
    return got


def _route_start_search(ctx, x, cyc, other):
    start = cycle_start_search(ctx, x, cyc.cycle_length)
    assert start == cyc.cycle_start
    return start


def _route_least_period(ctx, x, cyc, other):
    base = power(ctx, x, cyc.cycle_start)
    length = least_period(ctx, x, base, 12 * cyc.cycle_length)
    assert length == cyc.cycle_length
    return length


def _route_monico_strip(ctx, x, cyc, other):
    length = monico_strip(ctx, x, cyc.cycle_start, 12 * cyc.cycle_length,
                          100)
    assert length == cyc.cycle_length
    return length


def _route_oracle_hit(ctx, x, cyc, other):
    k = cyc.order + 5
    target = power(ctx, x, k)
    kp = group_dlog_oracle(ctx, x, target, 2 * cyc.order)
    assert power(ctx, x, kp) == target
    return kp


def _route_oracle_bound_too_small(ctx, x, cyc, other):
    # bound 1 lets the oracle express exponents up to 6 only, and x^order
    # equals no earlier power
    return _raised(OracleFailureError, lambda: group_dlog_oracle(
        ctx, x, power(ctx, x, cyc.order), 1))


def _route_brute_capped(ctx, x, cyc, other):
    return _raised(SemigroupError,
                   lambda: brute_force_cycle(ctx, x, cap=cyc.order - 1),
                   "no repeated power")


def _route_bsgs_outside_subgroup(ctx, x, cyc, other):
    # the generator of the group lies outside its order-L/p subgroup
    length = cyc.cycle_length
    p = factor_integer(length)[0][0]
    gv = make_group_view(ctx, x, cyc)
    gamma = power(ctx, gv.generator, p)
    return _raised(NoSolutionError, lambda: bsgs_group_dlog(
        ctx, gv, gamma, gv.generator, length // p))


def _route_dlog(solver, on_power):
    def route(ctx, x, cyc, other):
        if not on_power:
            return _raised(NoSolutionError,
                           lambda: solver(ctx, x, other, cyc))
        k = cyc.order + 7
        sol, trace = solver(ctx, x, power(ctx, x, k), cyc)
        assert sol.contains(k)
        return sol, _traced(trace)
    return route


ROUTES = {
    **{f"find_cycle-{alg}-{'order' if at_order else 'free'}":
       _route_find_cycle(alg, at_order)
       for alg in CYCLE_ALGORITHMS for at_order in (False, True)},
    "deterministic-bound-too-small": _route_deterministic_small_bound,
    "deterministic-baby-hit": _route_deterministic_baby_hit,
    "ladder": _route_ladder,
    "cycle_start_search": _route_start_search,
    "least_period": _route_least_period,
    "monico_strip": _route_monico_strip,
    "oracle-hit": _route_oracle_hit,
    "oracle-bound-too-small": _route_oracle_bound_too_small,
    "brute-capped": _route_brute_capped,
    "bsgs-outside-subgroup": _route_bsgs_outside_subgroup,
    **{f"{name}-{'power' if on_power else 'non-power'}":
       _route_dlog(solver, on_power)
       for name, solver in (("reduction", semigroup_dlog),
                            ("pohlig-hellman", pohlig_hellman_dlog))
       for on_power in (True, False)},
}


def _count_calls(ctx, name: str) -> list:
    """Shadow the method `name` of ctx (`_product`, `_right`) with a
    wrapper counting its calls in [0]."""
    method = getattr(ctx, name)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return method(*args)

    setattr(ctx, name, counted)
    return calls




@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("family", FAMILIES)
def test_counter_equals_raw_products(family, route):
    x_spec, other_spec = FAMILIES[family]
    other = parse_element_spec(other_spec)[1]
    runs = []
    for generic in (False, True):
        ctx, x = parse_element_spec(x_spec)
        if generic:
            generic_walks(ctx)
        cyc = brute_force_cycle(ctx, x)
        calls = _count_calls(ctx, "_product")
        ctx.mult_count = 0
        result = ROUTES[route](ctx, x, cyc, other)
        runs.append((result, ctx.mult_count, calls[0]))
    (own, own_count, own_calls), (generic, generic_count, calls) = runs
    assert calls > 0
    assert generic_count == calls
    assert own == generic
    assert own_count == generic_count
    if (type(ctx)._walk_step == SemigroupContext._walk_step
            and type(ctx)._right is SemigroupContext._right):
        assert own_calls == own_count  # the family's walks are generic
    # a family's own step or bound right factor replaces `_product` calls
    # and never adds one
    assert own_calls <= own_count


# x = 1 in MonogenicContext(3, 4): x^k is the integer k up to the order 6,
# after which x^7 = x^3; (start, step, n, repeat, products) per walk
TABLE_WALKS = {
    "repeat-at-first-step": (6, 4, 5, (0, 1), 1),   # x^10 = x^6
    "repeat-mid-walk": (1, 1, 10, (2, 6), 6),       # x^7 = x^3
    "no-repeat": (1, 1, 4, None, 4),
    "n-zero": (2, 1, 0, None, 0),
}


@pytest.mark.parametrize("case", TABLE_WALKS)
def test_table_walk_counter_equals_raw_products(case):
    start, step, n, repeat, products = TABLE_WALKS[case]
    for generic in (False, True):
        ctx = MonogenicContext(3, 4)
        if generic:
            generic_walks(ctx)
        calls = _count_calls(ctx, "_product")
        table, last, got = table_walk(ctx, start, step, n)
        assert got == repeat
        assert ctx.mult_count == products
        assert calls[0] == (products if generic else 0)
        assert len(table) == (repeat[1] if repeat else n + 1)
        assert table[last] == (repeat[0] if repeat else n)


def test_table_walk_continues_a_table_in_place():
    # x^1 .. x^3 in a first walk; the same table continued from x^4 enters
    # it at len(table) = 3, meets x^7 = x^3, an entry of the first walk,
    # and counts only its own products.  A shorter continuation ends
    # without a repeat
    for generic in (False, True):
        for n, repeat, products, last in ((4, (2, 6), 3, 3),
                                          (2, None, 2, 6)):
            ctx = MonogenicContext(3, 4)
            if generic:
                generic_walks(ctx)
            calls = _count_calls(ctx, "_product")
            table, _, _ = table_walk(ctx, 1, 1, 2)
            assert len(table) == 3
            grown, end, got = table_walk(ctx, 4, 1, n, table)
            assert grown is table and got == repeat and end == last
            assert ctx.mult_count == 2 + products
            assert calls[0] == (2 + products if generic else 0)
            assert table == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5}


# probes x^cur, x^(cur+step), ... against the table {x^4: 0, x^5: 1};
# (cur, step, n, hit, products) per walk
PROBE_WALKS = {
    "hit-at-first-probe": (5, 1, 3, (1, 1), 0),
    "hit-at-last-probe": (1, 1, 4, (4, 0), 3),
    "miss": (1, 2, 2, None, 1),
}


@pytest.mark.parametrize("case", PROBE_WALKS)
def test_probe_walk_counter_equals_raw_products(case):
    cur, step, n, hit, products = PROBE_WALKS[case]
    for generic in (False, True):
        ctx = MonogenicContext(3, 4)
        if generic:
            generic_walks(ctx)
        calls = _count_calls(ctx, "_product")
        assert probe_walk(ctx, {4: 0, 5: 1}, cur, step, n) == hit
        assert ctx.mult_count == products
        assert calls[0] == (products if generic else 0)


@pytest.mark.parametrize("n", [0, -1, 1.5, True])
def test_probe_walk_rejects_n_below_one(n):
    # zmod's own walk and the generic walk of a degree-2 transformation
    for ctx, x in ((ZModContext(10), 3), (TransformationContext(2), (1, 0))):
        with pytest.raises(DomainError):
            probe_walk(ctx, {}, x, x, n)
        assert ctx.mult_count == 0
        assert probe_walk(ctx, {}, x, x, 1) is None
        assert ctx.mult_count == 0


def test_table_walk_all_keeps_every_index():
    # x^1 .. x^6, then x^7 = x^3, x^8 = x^4, ...: 12 steps from x^1 wrap
    # twice past the order
    for generic in (False, True):
        ctx = MonogenicContext(3, 4)
        if generic:
            generic_walks(ctx)
        calls = _count_calls(ctx, "_product")
        table = table_walk_all(ctx, 1, 1, 12)
        assert table == {1: [0], 2: [1], 3: [2, 6, 10], 4: [3, 7, 11],
                         5: [4, 8, 12], 6: [5, 9]}
        assert ctx.mult_count == 12
        assert calls[0] == (12 if generic else 0)


# one walk of each kind, 20 steps that wrap past the order (monogenic) or
# stay below a repeat (zmod, where 3 has order 100 modulo 1000)
GUARDED_WALKS = {
    "table_walk": lambda ctx, a, b: table_walk(ctx, a, b, 20),
    "probe_walk": lambda ctx, a, b: probe_walk(ctx, {}, a, b, 20),
    "table_walk_all": lambda ctx, a, b: table_walk_all(ctx, a, b, 20),
    "power": lambda ctx, a, b: power(ctx, a, 20),
    "Powers": lambda ctx, a, b: [Powers(ctx, a)(e)
                                 for e in (20, 3, 70, 20, 1, 1 << 65)],
}
OWN_STEP_FAMILIES = {
    "zmod": (lambda: ZModContext(1000), 2, 3),
    "monogenic": (lambda: MonogenicContext(3, 4), 1, 1),
}


@pytest.mark.parametrize("walk", GUARDED_WALKS)
@pytest.mark.parametrize("family", OWN_STEP_FAMILIES)
def test_zmod_and_monogenic_walks_call_no_product(family, walk):
    """The two families whose walks multiply inline: a refactor that sent
    them back to the generic step would make one `_product` call per
    step, and fail here."""
    make, start, step = OWN_STEP_FAMILIES[family]
    ctx = make()
    calls = _count_calls(ctx, "_product")
    GUARDED_WALKS[walk](ctx, start, step)
    assert ctx.mult_count > 0
    assert calls[0] == 0


@pytest.mark.parametrize("walk", ["table_walk", "probe_walk", "power",
                                  "Powers"])
def test_walk_step_set_on_an_instance_takes_effect(walk):
    """The walks look their template up by the context's `_walk_step`, and
    `power` and `Powers` read its `_power`, on every call, so a (BIND,
    STEP) pair or a `_power` set on one instance after a first call is
    used from the next call on, there and nowhere else: the generic pair,
    or no `_power`, sends zmod's walk or power to `_product`, a pair never
    seen before is instantiated on first use, and a `_power` of the
    instance's own is called.  The forced-generic route above and the
    `walk-reference` selftest rely on this; a cache per class would fail
    here."""
    run = GUARDED_WALKS[walk]
    on_power = walk in ("power", "Powers")
    ctx, other = ZModContext(1000), ZModContext(1000)
    calls, other_calls = (_count_calls(ctx, "_product"),
                          _count_calls(other, "_product"))
    expected = run(ctx, 2, 3)
    made = ctx.mult_count
    assert calls[0] == 0
    if on_power:
        ctx._power = None
    else:
        ctx._walk_step = SemigroupContext._walk_step
    assert run(ctx, 2, 3) == expected
    assert calls[0] == ctx.mult_count - made > 0
    # a pair never seen before, or a `_power` of the instance's own, that
    # counts its runs
    ctx.runs = 0
    if on_power:
        def counted_power(a, e):
            ctx.runs += 1
            return pow(a, e, 1000)

        ctx._power = counted_power
    else:
        bind, step = SemigroupContext._walk_step
        ctx._walk_step = (bind + "\nctx.runs += 1", step)
    assert run(ctx, 2, 3) == expected
    assert ctx.runs >= 1
    assert run(other, 2, 3) == expected
    assert other_calls[0] == 0


# steps of order 60 (cycles of 3, 4 and 5 points) and 101, so that walks
# of 20 steps meet no repeat
BOUND_FAMILIES = {
    "transformation": (lambda: TransformationContext(12), tuple(range(12)),
                       (1, 2, 0, 4, 5, 6, 3, 8, 9, 10, 11, 7)),
    "matmod": (lambda: MatModContext(3, 101),
               ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
               ((1, 1, 0), (0, 1, 0), (0, 0, 1))),
}


@pytest.mark.parametrize("walk", ["table_walk", "probe_walk",
                                  "table_walk_all"])
@pytest.mark.parametrize("family", BOUND_FAMILIES)
def test_bound_walks_bind_once_and_call_no_product(family, walk):
    """The families with a bound right factor bind the walk's step once
    per call and make no `_product` call per step; a refactor back to
    one `_product` call, or one binding, per step would fail here."""
    make, start, step = BOUND_FAMILIES[family]
    ctx = make()
    calls, binds = _count_calls(ctx, "_product"), _count_calls(ctx, "_right")
    GUARDED_WALKS[walk](ctx, start, step)
    assert ctx.mult_count == (19 if walk == "probe_walk" else 20)
    assert (calls[0], binds[0]) == (0, 1)


@pytest.mark.parametrize("s, length", [(1, 1), (1, 2), (1, 9), (2, 1),
                                       (5, 1), (4, 3), (10, 15), (37, 360)])
def test_monogenic_product_matches_canon_at_the_wrap(s, length):
    """The inlined product agrees with canon(a + b) for every sum from
    just below the order through two full cycles past it, at both ends of
    the operand range."""
    ctx = MonogenicContext(s, length)
    order = ctx.order
    checked = 0
    for n in range(max(order - 2, 2), order + 2 * length + 1):
        lo, hi = max(1, n - order), min(order, n - 1)
        if lo > hi:
            continue
        for a in {lo, hi}:
            assert ctx._product(a, n - a) == _canon(n, s, length)
            checked += 1
    assert checked


def _power_bases(rng):
    """Seeded (context factory, base) pairs: zmod moduli from 2 to 130
    bits, and monogenic instances with s = 1, L = 1 and both at once,
    with bases before the cycle (when s > 1) and inside it."""
    cases = []
    for modulus in (2, 3, 10, 1000, rng.randint(2, 10 ** 6),
                    rng.getrandbits(130) | 2):
        make = (lambda m=modulus: ZModContext(m))
        cases += [(make, 0), (make, 1), (make, modulus - 1),
                  (make, rng.randrange(modulus))]
    for s, length in ((1, 1), (1, 2), (1, rng.randint(3, 10 ** 4)),
                      (2, 1), (rng.randint(3, 10 ** 4), 1),
                      (rng.randint(2, 60), rng.randint(2, 60)),
                      (rng.randint(2, 10 ** 6), rng.randint(2, 10 ** 6)),
                      (rng.getrandbits(90) + 2, rng.getrandbits(90) + 2)):
        make = (lambda s=s, length=length: MonogenicContext(s, length))
        order = s + length - 1
        if s > 1:
            cases += [(make, 1), (make, s - 1), (make, rng.randint(1, s - 1))]
        cases += [(make, s), (make, order), (make, rng.randint(s, order))]
    return cases


def _power_exponents(rng):
    """1, 2, 3, the ends of 2^200 and seeded exponents of every bit
    length up to 200."""
    return ([1, 2, 3, (1 << 200) - 1, 1 << 200]
            + [rng.getrandbits(bits) | (1 << (bits - 1))
               for bits in rng.sample(range(2, 201), 12)])


@pytest.mark.parametrize("seed", range(5))
def test_one_step_power_matches_square_and_multiply(seed):
    """zmod's pow(x, e, m) and monogenic's x*e reduced once give the
    power and the count of the generic square and multiply, which calls
    `_product` once per counted multiplication."""
    rng = random.Random(seed)
    for make, x in _power_bases(rng):
        for e in _power_exponents(rng):
            own, generic = make(), generic_walks(make())
            own_calls = _count_calls(own, "_product")
            calls = _count_calls(generic, "_product")
            assert power(own, x, e) == power(generic, x, e), (own, x, e)
            assert own.mult_count == generic.mult_count == calls[0] \
                == e.bit_length() + e.bit_count() - 2
            assert own_calls[0] == 0


def _ladder_exponents(rng):
    """A seeded run of exponents: growing powers of 4 as in the x4 bound
    search, random ones that shrink and grow, repeats, the exponent 1 and
    exponents above 2^62."""
    exponents = []
    for _ in range(60):
        kind = rng.randrange(6)
        if kind == 0:
            exponents.append(4 ** rng.randint(0, 40))
        elif kind == 1 and exponents:
            exponents.append(rng.choice(exponents))
        elif kind == 2:
            exponents.append(1)
        elif kind == 3:
            exponents.append(rng.getrandbits(rng.randint(63, 130)) | 1 << 62)
        else:
            exponents.append(rng.randint(1, 1 << rng.randint(1, 40)))
    return exponents


@pytest.mark.parametrize("seed", range(5))
def test_one_step_ladder_matches_the_squares_ladder(seed):
    """zmod's and monogenic's one-step `Powers` give, after every call,
    the value and the count of the ladder of stored squares, which calls
    `_product` once per counted multiplication."""
    rng = random.Random(seed)
    for make, x in _power_bases(rng):
        own, generic = make(), generic_walks(make())
        own_calls = _count_calls(own, "_product")
        calls = _count_calls(generic, "_product")
        own_ladder, generic_ladder = Powers(own, x), Powers(generic, x)
        for e in _ladder_exponents(rng):
            assert own_ladder(e) == generic_ladder(e), (own, x, e)
            assert own.mult_count == generic.mult_count == calls[0]
        assert own_calls[0] == 0
        assert len(own_ladder.squares) == 1  # no squares stored


def _bound_bases(rng):
    """Seeded (context factory, base) pairs of the costly families:
    transformations of degree 1, 2, 64 and 255 and matmod, which bind
    their right factor, and boolmat, which calls `_product` once per
    product."""
    makers = [*(lambda d=d: TransformationContext(d) for d in (1, 2, 64, 255)),
              lambda: MatModContext(1, 27), lambda: MatModContext(3, 19),
              lambda: BoolMatContext(1), lambda: BoolMatContext(5),
              lambda: BoolMatContext(12)]
    return [(make, make().draw(rng)) for make in makers]


def _square_and_multiply(ctx, x, e):
    """x^e by plain right-to-left square and multiply over `_product`,
    and the products it made."""
    result, made = None, 0
    while True:
        if e & 1:
            if result is None:
                result = x
            else:
                result, made = ctx._product(result, x), made + 1
        e >>= 1
        if not e:
            return result, made
        x, made = ctx._product(x, x), made + 1


@pytest.mark.parametrize("seed", range(5))
def test_bound_powers_match_square_and_multiply(seed):
    """matmod's, boolmat's and transformation's `power` and their set-bit
    `Powers` ladders give plain square and multiply's value; `power` its
    count, and the ladder, after every call, the count of the generic
    ladder.  Both make exactly one `_product` call per counted
    multiplication and never call `_right`: only the walks bind."""
    rng = random.Random(seed)
    for make, x in _bound_bases(rng):
        own, generic = make(), generic_walks(make())
        calls = _count_calls(generic, "_product")
        own_calls = _count_calls(own, "_product")
        binds = _count_calls(own, "_right")
        own_ladder, generic_ladder = Powers(own, x), Powers(generic, x)
        for e in _ladder_exponents(rng):
            before, made_calls = own.mult_count, own_calls[0]
            value, made = _square_and_multiply(own, x, e)
            own_calls[0] = made_calls  # not the reference's products
            assert power(own, x, e) == value, (own, x, e)
            assert own.mult_count - before == made
            assert own_calls[0] - made_calls == made
            own.mult_count, own_calls[0] = before, made_calls
            assert own_ladder(e) == generic_ladder(e) == value, (own, x, e)
            assert own.mult_count == generic.mult_count == calls[0]
            assert own_calls[0] == own.mult_count
        assert binds[0] == 0
