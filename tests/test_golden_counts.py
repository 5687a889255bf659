"""Golden multiplication counts.

Each case pins the exact number of semigroup multiplications and the
answer of one algorithm on one fixed instance.  Multiplication count is
the paper's cost model and is deterministic for a given input and seed,
so a change to how collisions are stored or compared must leave every
number here as it is; a change to the algorithms themselves must update
the table and say why.
"""

import pytest

from semidlog import (
    NoSolutionError,
    banin_tsaban_cycle_length,
    brute_force_cycle,
    cycle_start_search,
    deterministic_cycle_length,
    monico_cycle_length,
    parse_element_spec,
    pohlig_hellman_dlog,
    power,
    semigroup_dlog,
)

SPECS = {
    # s = 3, L = 100
    "zmod": {"type": "zmod", "modulus": 1000, "value": 2},
    # s = 3, L = 18
    "matmod": {"type": "matmod", "modulus": 27,
               "entries": [[1, 2, 0], [0, 0, 3], [4, 0, 2]]},
    # s = 4, L = 3
    "boolmat": {"type": "boolmat",
                "entries": [[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                            [1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0],
                            [0, 0, 0, 0, 0, 1], [0, 0, 0, 1, 0, 1]]},
    # s = 5, L = 7
    "transformation": {"type": "transformation",
                       "map": [2, 3, 4, 5, 6, 7, 8, 9, 10, 4, 1, 11]},
    "monogenic": {"type": "monogenic", "s": 37, "L": 360, "e": 1},
}

# (family, algorithm, bound) -> (cycle start, cycle length, mults), where
# mults covers the cycle-length algorithm plus cycle_start_search; the
# bound is None (bound-free: the bound grows x4 per failed attempt) or the
# element's order.  Monico strips at the exponent its collision certifies
# to lie in the cycle (not at the bound), and Banin-Tsaban reduces its
# verified multiple by prime cofactors (not by a scan over all divisors);
# both changed only these counts, not answers.  Growing the bound x4
# instead of x2 moved every bound-free count but the three Banin-Tsaban
# ones whose first attempt succeeds; two rose (boolmat Monico and
# monogenic Banin-Tsaban accept at 4 and 1024, where doubling accepted at
# 2 and 512).  Monico's giant walk stops at its first duplicate, which
# lowered boolmat and monogenic Monico at the order.  Answers are unchanged
CYCLE_CASES = {
    ("zmod", "deterministic", None): (3, 100, 104),
    ("zmod", "deterministic", 102): (3, 100, 60),
    ("zmod", "monico", None): (3, 100, 216),
    ("zmod", "monico", 102): (3, 100, 114),
    ("zmod", "banin-tsaban", None): (3, 100, 808),
    ("zmod", "banin-tsaban", 102): (3, 100, 611),
    ("matmod", "deterministic", None): (3, 18, 59),
    ("matmod", "deterministic", 20): (3, 18, 36),
    ("matmod", "monico", None): (3, 18, 81),
    ("matmod", "monico", 20): (3, 18, 65),
    ("matmod", "banin-tsaban", None): (3, 18, 222),
    ("matmod", "banin-tsaban", 20): (3, 18, 299),
    ("boolmat", "deterministic", None): (4, 3, 21),
    ("boolmat", "deterministic", 6): (4, 3, 17),
    ("boolmat", "monico", None): (4, 3, 37),
    ("boolmat", "monico", 6): (4, 3, 23),
    ("boolmat", "banin-tsaban", None): (4, 3, 193),
    ("boolmat", "banin-tsaban", 6): (4, 3, 145),
    ("transformation", "deterministic", None): (5, 7, 45),
    ("transformation", "deterministic", 11): (5, 7, 39),
    ("transformation", "monico", None): (5, 7, 50),
    ("transformation", "monico", 11): (5, 7, 52),
    ("transformation", "banin-tsaban", None): (5, 7, 229),
    ("transformation", "banin-tsaban", 11): (5, 7, 201),
    ("monogenic", "deterministic", None): (37, 360, 233),
    ("monogenic", "deterministic", 396): (37, 360, 141),
    ("monogenic", "monico", None): (37, 360, 425),
    ("monogenic", "monico", 396): (37, 360, 178),
    ("monogenic", "banin-tsaban", None): (37, 360, 1936),
    ("monogenic", "banin-tsaban", 396): (37, 360, 1068),
}

# (family, k, solver) -> (solution JSON or None for no solution, mults);
# the target is x^k, or the non-power 3 when k is None, and mults covers
# the solver alone
# the solvers compute the closing shift c = ((tL+1)m' - s) // L directly
# (no binary search) and reuse the shifted target y*x^(bL) found by the
# search for b; both changed only these counts, not answers.
# Pohlig-Hellman computes the per-prime inverse only when e >= 2, the
# only case with a digit k >= 1 that reads it: that lowered the matmod,
# transformation and monogenic pohlig-hellman counts, not their answers.
# Every target that reaches the group log now first passes the Lagrange
# test y'^L = x^(tL), one power(y', L) of bit_length(L) + popcount(L) - 2
# multiplications: +8 for L = 100, +5 for L = 18, +4 for L = 7 and +11
# for L = 360.  An off-cycle target with s - 1 <= ceil(sqrt(L)) is
# settled by the walk x, ..., x^(s-1) instead of the shift and group log.
# BSGS takes b = ceil(q/2) baby steps (q = ceil(sqrt(order))), half the
# table; the BSGS share of each count moves as noted.  Answers are
# unchanged
DLOG_CASES = {
    # in-cycle: Lagrange +8; BSGS (order 100) 19 -> 19; 45 -> 53
    ("zmod", 57, "reduction"): ({"kind": "progression", "m0": 57,
                                 "period": 100}, 53),
    # in-cycle: Lagrange +8; BSGS (orders 2, 2, 5, 5) 13 -> 7; 82 -> 84
    ("zmod", 57, "pohlig-hellman"): ({"kind": "progression", "m0": 57,
                                      "period": 100}, 84),
    # 3*x^100 != 3 puts 3 off the cycle, and s - 1 = 2 <= 10: the tail
    # walk over x, x^2 (1 product) replaces the shift and BSGS, 42 -> 19
    ("zmod", None, "reduction"): (None, 19),
    # the same tail walk replaces the shift and both primes' digits,
    # 87 -> 19
    ("zmod", None, "pohlig-hellman"): (None, 19),
    # in-cycle: Lagrange +5; BSGS (order 18) 9 -> 8; 25 -> 29
    ("matmod", 10, "reduction"): ({"kind": "progression", "m0": 10,
                                   "period": 18}, 29),
    # in-cycle: Lagrange +5; BSGS (orders 2, 3, 3) 3 -> 1; 38 -> 41
    ("matmod", 10, "pohlig-hellman"): ({"kind": "progression", "m0": 10,
                                        "period": 18}, 41),
    # in-cycle: Lagrange +4; BSGS (order 7) 5 -> 3; 19 -> 21
    ("transformation", 9, "reduction"): ({"kind": "progression", "m0": 9,
                                          "period": 7}, 21),
    # in-cycle: Lagrange +4; BSGS (order 7) 5 -> 3; 19 -> 21
    ("transformation", 9, "pohlig-hellman"): ({"kind": "progression",
                                               "m0": 9, "period": 7}, 21),
    # in-cycle: Lagrange +11; BSGS (order 360) 39 -> 41; 73 -> 86
    ("monogenic", 1000, "reduction"): ({"kind": "progression", "m0": 280,
                                        "period": 360}, 86),
    # in-cycle: Lagrange +11; BSGS (orders 2, 2, 2, 3, 3, 5) 3 -> 1;
    # 111 -> 120
    ("monogenic", 1000, "pohlig-hellman"): ({"kind": "progression",
                                             "m0": 280, "period": 360}, 120),
    # off-cycle, but s - 1 = 36 > ceil(sqrt(360)) = 19, so no tail walk:
    # the shift, then Lagrange +11; BSGS (order 360) 25 -> 14; 65 -> 65
    ("monogenic", 5, "reduction"): ({"kind": "unique", "m": 5}, 65),
    # as above, Lagrange +11; BSGS (orders 2, 2, 2, 3, 3, 5) 12 -> 5;
    # 129 -> 133
    ("monogenic", 5, "pohlig-hellman"): ({"kind": "unique", "m": 5}, 133),
}

SOLVERS = {"reduction": semigroup_dlog, "pohlig-hellman": pohlig_hellman_dlog}


def _run_cycle(family, alg, bound):
    ctx, x = parse_element_spec(SPECS[family])
    if alg == "deterministic":
        length, _ = deterministic_cycle_length(ctx, x, bound)
    elif alg == "monico":
        length, _ = monico_cycle_length(ctx, x, bound)
    else:
        length, _ = banin_tsaban_cycle_length(ctx, x, bound or 16, seed=7)
    start = cycle_start_search(ctx, x, length)
    return start, length, ctx.mult_count


def _run_dlog(family, k, solver):
    ctx, x = parse_element_spec(SPECS[family])
    cycle = brute_force_cycle(ctx, x)
    y = power(ctx, x, k) if k else 3
    ctx.mult_count = 0
    try:
        sol, _ = SOLVERS[solver](ctx, x, y, cycle)
    except NoSolutionError:
        return None, ctx.mult_count
    return sol.to_json(), ctx.mult_count


@pytest.mark.parametrize(
    "case", [("cycle", *k) for k in CYCLE_CASES]
    + [("dlog", *k) for k in DLOG_CASES],
    ids=lambda case: "-".join(str(part) for part in case))
def test_golden_mult_counts(case):
    kind, *key = case
    if kind == "cycle":
        assert _run_cycle(*key) == CYCLE_CASES[tuple(key)]
    else:
        assert _run_dlog(*key) == DLOG_CASES[tuple(key)]
