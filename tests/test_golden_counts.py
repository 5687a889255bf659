"""Golden multiplication counts.

Each case pins the exact number of semigroup multiplications and the
answer of one algorithm on one fixed instance.  Multiplication count is
the paper's cost model and is deterministic for a given input and seed,
so a change to how collisions are stored or compared must leave every
number here as it is; a change to the algorithms themselves must update
the table and say why.  BANIN_ROUNDS pins what the Banin-Tsaban rounds
draw and what its oracle answers, which no change to how products are
made or counted may move.
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
# lowered boolmat and monogenic Monico at the order.  Answers are unchanged.
# Every repeated power of one base now comes from a fixed-base ladder
# (core.Powers), which squares the base once per call: the deterministic
# rounds' x^N, x^q and candidate check; Monico's x^q, x^m and strip, its
# offsets now x^(q+1) = x^q*x and x^(2q+1) = x^q*x^(q+1); Banin-Tsaban's
# h = x^z, anchor, candidate and least_period from one ladder of x, and
# each outer round's targets h^k, oracle step h^q, giant steps h^(iq) and
# oracle checks from one ladder of h shared by its inner queries; and
# cycle_start_search's probes x^c.  Each case's comment splits that move
# between the algorithm and the start search; answers and every trace
# field but the multiplications are unchanged (BANIN_ROUNDS below)
CYCLE_CASES = {
    # algorithm 87 -> 59, start search 17 -> 15
    ("zmod", "deterministic", None): (3, 100, 74),
    # algorithm 43 -> 34, start search 17 -> 15
    ("zmod", "deterministic", 102): (3, 100, 49),
    # algorithm 199 -> 104, start search 17 -> 15
    ("zmod", "monico", None): (3, 100, 119),
    # algorithm 97 -> 58, start search 17 -> 15
    ("zmod", "monico", 102): (3, 100, 73),
    # algorithm 791 -> 474, start search 17 -> 15
    ("zmod", "banin-tsaban", None): (3, 100, 489),
    # algorithm 594 -> 342, start search 17 -> 15
    ("zmod", "banin-tsaban", 102): (3, 100, 357),
    # algorithm 45 -> 29, start search 14 -> 12
    ("matmod", "deterministic", None): (3, 18, 41),
    # algorithm 22 -> 16, start search 14 -> 12
    ("matmod", "deterministic", 20): (3, 18, 28),
    # algorithm 67 -> 34, start search 14 -> 12
    ("matmod", "monico", None): (3, 18, 46),
    # algorithm 51 -> 28, start search 14 -> 12
    ("matmod", "monico", 20): (3, 18, 40),
    # algorithm 208 -> 111, start search 14 -> 12
    ("matmod", "banin-tsaban", None): (3, 18, 123),
    # algorithm 285 -> 159, start search 14 -> 12
    ("matmod", "banin-tsaban", 20): (3, 18, 171),
    # algorithm 10 -> 8, start search 11 -> 9
    ("boolmat", "deterministic", None): (4, 3, 17),
    # algorithm 6 -> 6, start search 11 -> 9
    ("boolmat", "deterministic", 6): (4, 3, 15),
    # algorithm 26 -> 14, start search 11 -> 9
    ("boolmat", "monico", None): (4, 3, 23),
    # algorithm 12 -> 11, start search 11 -> 9
    ("boolmat", "monico", 6): (4, 3, 20),
    # algorithm 182 -> 101, start search 11 -> 9
    ("boolmat", "banin-tsaban", None): (4, 3, 110),
    # algorithm 134 -> 75, start search 11 -> 9
    ("boolmat", "banin-tsaban", 6): (4, 3, 84),
    # algorithm 23 -> 16, start search 22 -> 15
    ("transformation", "deterministic", None): (5, 7, 31),
    # algorithm 17 -> 13, start search 22 -> 15
    ("transformation", "deterministic", 11): (5, 7, 28),
    # algorithm 28 -> 16, start search 22 -> 15
    ("transformation", "monico", None): (5, 7, 31),
    # algorithm 30 -> 17, start search 22 -> 15
    ("transformation", "monico", 11): (5, 7, 32),
    # algorithm 207 -> 111, start search 22 -> 15
    ("transformation", "banin-tsaban", None): (5, 7, 126),
    # algorithm 179 -> 100, start search 22 -> 15
    ("transformation", "banin-tsaban", 11): (5, 7, 115),
    # algorithm 157 -> 114, start search 76 -> 36
    ("monogenic", "deterministic", None): (37, 360, 150),
    # algorithm 65 -> 53, start search 76 -> 36
    ("monogenic", "deterministic", 396): (37, 360, 89),
    # algorithm 349 -> 194, start search 76 -> 36
    ("monogenic", "monico", None): (37, 360, 230),
    # algorithm 102 -> 63, start search 76 -> 36
    ("monogenic", "monico", 396): (37, 360, 99),
    # algorithm 1860 -> 1225, start search 76 -> 36
    ("monogenic", "banin-tsaban", None): (37, 360, 1261),
    # algorithm 992 -> 619, start search 76 -> 36
    ("monogenic", "banin-tsaban", 396): (37, 360, 655),
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
# table.  make_group_view now takes x^(tL) as (x^L)^t, which is x^L
# itself at t = 1, as in every case here, and the shift takes y*x^(tL) as
# y times that identity, with its bisection probes x^(bL) from one ladder
# of x^L; each case's comment gives the move.  Answers are unchanged
DLOG_CASES = {
    # in-cycle: group view 17 -> 9; 53 -> 45
    ("zmod", 57, "reduction"): ({"kind": "progression", "m0": 57,
                                 "period": 100}, 45),
    # in-cycle: group view 17 -> 9; 84 -> 76
    ("zmod", 57, "pohlig-hellman"): ({"kind": "progression", "m0": 57,
                                      "period": 100}, 76),
    # 3*x^100 != 3 puts 3 off the cycle, and s - 1 = 2 <= 10: the tail
    # walk over x, x^2 after the group view, 17 -> 9; 19 -> 11
    ("zmod", None, "reduction"): (None, 11),
    # the same tail walk: group view 17 -> 9; 19 -> 11
    ("zmod", None, "pohlig-hellman"): (None, 11),
    # in-cycle: group view 11 -> 6; 29 -> 24
    ("matmod", 10, "reduction"): ({"kind": "progression", "m0": 10,
                                   "period": 18}, 24),
    # in-cycle: group view 11 -> 6; 41 -> 36
    ("matmod", 10, "pohlig-hellman"): ({"kind": "progression", "m0": 10,
                                        "period": 18}, 36),
    # in-cycle: group view 9 -> 5; 21 -> 17
    ("transformation", 9, "reduction"): ({"kind": "progression", "m0": 9,
                                          "period": 7}, 17),
    # in-cycle: group view 9 -> 5; 21 -> 17
    ("transformation", 9, "pohlig-hellman"): ({"kind": "progression",
                                               "m0": 9, "period": 7}, 17),
    # in-cycle: group view 23 -> 12; 86 -> 75
    ("monogenic", 1000, "reduction"): ({"kind": "progression", "m0": 280,
                                        "period": 360}, 75),
    # in-cycle: group view 23 -> 12; 120 -> 109
    ("monogenic", 1000, "pohlig-hellman"): ({"kind": "progression",
                                             "m0": 280, "period": 360}, 109),
    # off-cycle, but s - 1 = 36 > ceil(sqrt(360)) = 19, so no tail walk:
    # the shift, y times the identity with no bisection at t = 1, 13 -> 2;
    # group view 23 -> 12; 65 -> 43
    ("monogenic", 5, "reduction"): ({"kind": "unique", "m": 5}, 43),
    # as above: shift 13 -> 2, group view 23 -> 12; 133 -> 111
    ("monogenic", 5, "pohlig-hellman"): ({"kind": "unique", "m": 5}, 111),
}

# (family, bound) -> the accepting attempt's Banin-Tsaban rounds as
# (z, [(k, k'), ...], gcd) at seed 7, the bound as in CYCLE_CASES; how
# the products are made may change what the rounds cost, never what they
# draw or what the oracle answers
BANIN_ROUNDS = {
    ("zmod", None): [
        (152, [(444, 19), (286, 11), (366, 16), (276, 1)], 25),
        (150, [(479, 1), (471, 1), (292, 2), (380, 2)], 2),
        (151, [(474, 74), (287, 87), (320, 20), (371, 71)], 100),
        (143, [(460, 60), (282, 82), (370, 70), (280, 80)], 100),
    ],
    ("zmod", 102): [
        (71, [(122, 22), (153, 53), (186, 86), (109, 9)], 100),
        (55, [(171, 11), (115, 15), (149, 9), (177, 17)], 20),
        (54, [(167, 17), (130, 30), (107, 7), (114, 14)], 50),
        (78, [(156, 6), (111, 11), (133, 33), (114, 14)], 50),
    ],
    ("matmod", None): [
        (13, [(21, 3), (29, 11), (18, 18), (19, 1)], 18),
        (16, [(20, 2), (28, 1), (18, 9), (23, 5)], 9),
        (8, [(19, 1), (30, 3), (30, 3), (19, 1)], 9),
    ],
    ("matmod", 20): [
        (15, [(25, 1), (33, 3), (22, 4), (23, 5)], 6),
        (18, [(24, 1), (32, 1), (39, 1), (22, 1)], 1),
        (18, [(27, 1), (22, 1), (23, 1), (34, 1)], 1),
        (16, [(23, 5), (28, 1), (23, 5), (38, 2)], 9),
    ],
    ("boolmat", None): [
        (13, [(21, 3), (29, 2), (18, 3), (19, 1)], 3),
        (16, [(20, 2), (28, 1), (18, 3), (23, 2)], 3),
        (8, [(19, 1), (30, 3), (30, 3), (19, 1)], 9),
    ],
    ("boolmat", 6): [
        (5, [(8, 2), (10, 1), (12, 3), (7, 1)], 3),
        (3, [(11, 2), (7, 2), (9, 2), (11, 2)], 1),
        (3, [(11, 2), (8, 2), (7, 2), (7, 2)], 1),
    ],
    ("transformation", None): [
        (13, [(21, 7), (29, 1), (18, 4), (19, 5)], 14),
        (16, [(20, 6), (28, 7), (18, 4), (23, 2)], 7),
        (8, [(19, 5), (30, 2), (30, 2), (19, 5)], 14),
    ],
    ("transformation", 11): [
        (7, [(14, 1), (18, 1), (22, 1), (12, 1)], 1),
        (5, [(20, 6), (13, 6), (17, 3), (21, 7)], 7),
        (5, [(20, 6), (15, 1), (12, 5), (13, 6)], 7),
    ],
    ("monogenic", None): [
        (638, [(1482, 42), (1151, 71), (1837, 37), (1126, 46)], 360),
        (738, [(1120, 20), (1297, 17), (1618, 18), (1883, 3)], 20),
        (659, [(1266, 186), (1656, 216), (1395, 315), (1236, 156)], 360),
        (704, [(1787, 32), (1224, 9), (1153, 28), (1147, 22)], 45),
        (722, [(2041, 61), (1900, 100), (1668, 48), (1978, 178)], 180),
    ],
    ("monogenic", 396): [
        (280, [(474, 6), (599, 5), (730, 1), (421, 7)], 9),
        (216, [(671, 1), (445, 5), (584, 4), (695, 5)], 10),
        (212, [(656, 26), (506, 56), (416, 56), (441, 81)], 90),
        (309, [(611, 11), (432, 72), (520, 40), (443, 83)], 120),
        (339, [(614, 14), (427, 67), (686, 86), (460, 100)], 120),
    ],
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


@pytest.mark.parametrize("family, bound", BANIN_ROUNDS)
def test_banin_tsaban_rounds(family, bound):
    ctx, x = parse_element_spec(SPECS[family])
    _, trace = banin_tsaban_cycle_length(ctx, x, bound or 16, seed=7)
    assert [(r.z, r.pairs, r.gcd_value) for r in trace.rounds] \
        == BANIN_ROUNDS[family, bound]
