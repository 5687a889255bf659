"""The multiplication counter equals the products actually made.

Only the bulk counters call a family's raw `_product`: `power` and the
fixed-base ladder `Powers`, the collision-table walks `table_walk` and
`probe_walk` in `core`, and the Banin-Tsaban oracle's own walk.  Each
adds its multiplications to `ctx.mult_count` once per exit.  Each test here shadows `ctx._product`
with an instance attribute that counts its own calls, runs one public
route or one walk to its end (a normal return or a documented raise) and
checks that the counter moved by exactly the number of raw calls.
"""

import pytest

from semidlog import (
    CYCLE_ALGORITHMS,
    MonogenicContext,
    NoSolutionError,
    OracleFailureError,
    SemigroupError,
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
from semidlog.core import Powers, probe_walk, table_walk

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


def _route_find_cycle(alg, at_order):
    def route(ctx, x, cyc, other):
        bound = cyc.order if at_order else None
        assert find_cycle(ctx, x, alg, bound)[0] == cyc
    return route


def _route_deterministic_small_bound(ctx, x, cyc, other):
    with pytest.raises(SemigroupError, match="no validated collision"):
        deterministic_cycle_length(ctx, x, known_bound=1)


def _route_deterministic_baby_hit(ctx, x, cyc, other):
    # with sqrt(bound) >= L the baby walk meets x^bound again and stops
    bound = max(cyc.order, cyc.cycle_length ** 2)
    length, trace = deterministic_cycle_length(ctx, x, known_bound=bound)
    assert length == trace.rounds[0].baby_hit == cyc.cycle_length


def _route_ladder(ctx, x, cyc, other):
    # new squares, stored ones, a repeat and a single-bit exponent
    powers = Powers(ctx, x)
    for e in (cyc.order + 5, 3, 4 * cyc.order + 1, cyc.order + 5, 1, 64):
        assert powers(e) == power(ctx, x, e)


def _route_start_search(ctx, x, cyc, other):
    assert cycle_start_search(ctx, x, cyc.cycle_length) == cyc.cycle_start


def _route_least_period(ctx, x, cyc, other):
    base = power(ctx, x, cyc.cycle_start)
    assert least_period(ctx, x, base, 12 * cyc.cycle_length) \
        == cyc.cycle_length


def _route_monico_strip(ctx, x, cyc, other):
    assert monico_strip(ctx, x, cyc.cycle_start, 12 * cyc.cycle_length,
                        100) == cyc.cycle_length


def _route_oracle_hit(ctx, x, cyc, other):
    k = cyc.order + 5
    target = power(ctx, x, k)
    kp = group_dlog_oracle(ctx, x, target, 2 * cyc.order)
    assert power(ctx, x, kp) == target


def _route_oracle_bound_too_small(ctx, x, cyc, other):
    # bound 1 lets the oracle express exponents up to 6 only, and x^order
    # equals no earlier power
    with pytest.raises(OracleFailureError):
        group_dlog_oracle(ctx, x, power(ctx, x, cyc.order), 1)


def _route_brute_capped(ctx, x, cyc, other):
    with pytest.raises(SemigroupError, match="no repeated power"):
        brute_force_cycle(ctx, x, cap=cyc.order - 1)


def _route_bsgs_outside_subgroup(ctx, x, cyc, other):
    # the generator of the group lies outside its order-L/p subgroup
    length = cyc.cycle_length
    p = factor_integer(length)[0][0]
    gv = make_group_view(ctx, x, cyc)
    gamma = power(ctx, gv.generator, p)
    with pytest.raises(NoSolutionError):
        bsgs_group_dlog(ctx, gv, gamma, gv.generator, length // p)


def _route_dlog(solver, on_power):
    def route(ctx, x, cyc, other):
        if on_power:
            k = cyc.order + 7
            sol, _ = solver(ctx, x, power(ctx, x, k), cyc)
            assert sol.contains(k)
        else:
            with pytest.raises(NoSolutionError):
                solver(ctx, x, other, cyc)
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


def _count_raw_products(ctx) -> list:
    """Shadow ctx._product with a wrapper counting its calls in [0]."""
    raw = ctx._product
    calls = [0]

    def counted(a, b):
        calls[0] += 1
        return raw(a, b)

    ctx._product = counted
    return calls


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("family", FAMILIES)
def test_counter_equals_raw_products(family, route):
    x_spec, other_spec = FAMILIES[family]
    ctx, x = parse_element_spec(x_spec)
    other = parse_element_spec(other_spec)[1]
    cyc = brute_force_cycle(ctx, x)
    calls = _count_raw_products(ctx)
    ctx.mult_count = 0
    ROUTES[route](ctx, x, cyc, other)
    assert calls[0] > 0
    assert ctx.mult_count == calls[0]


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
    ctx = MonogenicContext(3, 4)
    calls = _count_raw_products(ctx)
    table, last, got = table_walk(ctx, start, step, n)
    assert got == repeat
    assert ctx.mult_count == calls[0] == products
    assert len(table) == (repeat[1] if repeat else n + 1)
    assert table[last] == (repeat[0] if repeat else n)


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
    ctx = MonogenicContext(3, 4)
    calls = _count_raw_products(ctx)
    assert probe_walk(ctx, {4: 0, 5: 1}, cur, step, n) == hit
    assert ctx.mult_count == calls[0] == products


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
            assert ctx._product(a, n - a) == ctx.canon(n)
            checked += 1
    assert checked
