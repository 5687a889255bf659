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
# field but the multiplications are unchanged (BANIN_ROUNDS below).
# The deterministic algorithm keeps one baby table per epoch, anchored at
# x^(B0^2) for the epoch's first bound B0 and grown in place up to bound
# B0^2 (epochs start at 1, 4, 64, 16384, ...).  Bound-free ("grown
# table"), a round continues the last round's walk and probes only the
# candidates it adds, but a new epoch squares up to its anchor x^(B0^2),
# so counts that accept early in an epoch rise by those squares.  With a
# known bound B ("anchor x^(B^2)"), the one round's anchor takes about
# log2 B more squares than x^B.  Answers and accepting bounds unchanged
CYCLE_CASES = {
    # algorithm 87 -> 59, start search 17 -> 15; grown table: algorithm
    # 59 -> 50 (accepts at 256 on the table anchored at x^4096)
    ("zmod", "deterministic", None): (3, 100, 65),
    # algorithm 43 -> 34, start search 17 -> 15; anchor x^(B^2): algorithm
    # 34 -> 42 (x^10404, 13 squares, against x^102, 6)
    ("zmod", "deterministic", 102): (3, 100, 57),
    # algorithm 199 -> 104, start search 17 -> 15
    ("zmod", "monico", None): (3, 100, 119),
    # algorithm 97 -> 58, start search 17 -> 15
    ("zmod", "monico", 102): (3, 100, 73),
    # algorithm 791 -> 474, start search 17 -> 15; outer rounds default
    # 3: algorithm 474 -> 372 (accepts at 256, as before)
    ("zmod", "banin-tsaban", None): (3, 100, 387),
    # algorithm 594 -> 342, start search 17 -> 15; outer rounds default
    # 3: algorithm 342 -> 265
    ("zmod", "banin-tsaban", 102): (3, 100, 280),
    # algorithm 45 -> 29, start search 14 -> 12; grown table: algorithm
    # 29 -> 33 (accepts at 64, the first bound of the epoch anchored at
    # x^4096, 6 squares past x^64)
    ("matmod", "deterministic", None): (3, 18, 45),
    # algorithm 22 -> 16, start search 14 -> 12; anchor x^(B^2): algorithm
    # 16 -> 21 (x^400, against x^20)
    ("matmod", "deterministic", 20): (3, 18, 33),
    # algorithm 67 -> 34, start search 14 -> 12
    ("matmod", "monico", None): (3, 18, 46),
    # algorithm 51 -> 28, start search 14 -> 12
    ("matmod", "monico", 20): (3, 18, 40),
    # algorithm 208 -> 111, start search 14 -> 12
    ("matmod", "banin-tsaban", None): (3, 18, 123),
    # algorithm 285 -> 159, start search 14 -> 12; outer rounds default
    # 3: algorithm 159 -> 306 (three rounds at 20 reach lcm 6, where the
    # fourth made it 18; accepts at 80)
    ("matmod", "banin-tsaban", 20): (3, 18, 318),
    # algorithm 10 -> 8, start search 11 -> 9; grown table: algorithm
    # 8 -> 10 (accepts at 4, whose epoch is anchored at x^16, not x^4)
    ("boolmat", "deterministic", None): (4, 3, 19),
    # algorithm 6 -> 6, start search 11 -> 9; anchor x^(B^2): algorithm
    # 6 -> 9 (x^36, against x^6)
    ("boolmat", "deterministic", 6): (4, 3, 18),
    # algorithm 26 -> 14, start search 11 -> 9
    ("boolmat", "monico", None): (4, 3, 23),
    # algorithm 12 -> 11, start search 11 -> 9
    ("boolmat", "monico", 6): (4, 3, 20),
    # algorithm 182 -> 101, start search 11 -> 9
    ("boolmat", "banin-tsaban", None): (4, 3, 110),
    # algorithm 134 -> 75, start search 11 -> 9
    ("boolmat", "banin-tsaban", 6): (4, 3, 84),
    # algorithm 23 -> 16, start search 22 -> 15; grown table: algorithm
    # 16 -> 14 (accepts at 16 on the table bound 4 began)
    ("transformation", "deterministic", None): (5, 7, 29),
    # algorithm 17 -> 13, start search 22 -> 15; anchor x^(B^2): algorithm
    # 13 -> 18 (x^121, against x^11)
    ("transformation", "deterministic", 11): (5, 7, 33),
    # algorithm 28 -> 16, start search 22 -> 15
    ("transformation", "monico", None): (5, 7, 31),
    # algorithm 30 -> 17, start search 22 -> 15
    ("transformation", "monico", 11): (5, 7, 32),
    # algorithm 207 -> 111, start search 22 -> 15
    ("transformation", "banin-tsaban", None): (5, 7, 126),
    # algorithm 179 -> 100, start search 22 -> 15
    ("transformation", "banin-tsaban", 11): (5, 7, 115),
    # algorithm 157 -> 114, start search 76 -> 36; grown table: algorithm
    # 114 -> 80 (accepts at 1024 on the table bound 64 began)
    ("monogenic", "deterministic", None): (37, 360, 116),
    # algorithm 65 -> 53, start search 76 -> 36; anchor x^(B^2): algorithm
    # 53 -> 64 (x^156816, against x^396)
    ("monogenic", "deterministic", 396): (37, 360, 100),
    # algorithm 349 -> 194, start search 76 -> 36
    ("monogenic", "monico", None): (37, 360, 230),
    # algorithm 102 -> 63, start search 76 -> 36
    ("monogenic", "monico", 396): (37, 360, 99),
    # algorithm 1860 -> 1225, start search 76 -> 36; outer rounds default
    # 3: algorithm 1225 -> 880 (accepts at 1024, as before)
    ("monogenic", "banin-tsaban", None): (37, 360, 916),
    # algorithm 992 -> 619, start search 76 -> 36; outer rounds default
    # 3: algorithm 619 -> 2146 (three rounds at 396 reach lcm 90, where
    # five made it 360, and three at 1584 do not verify; accepts at 6336)
    ("monogenic", "banin-tsaban", 396): (37, 360, 2182),
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
# of x^L; each case's comment gives the move.  The shift no longer tests
# y*x^(tL) for membership, a test every y passes (y*x^(tL) times x^L is
# y*x^((t+1)L) = y*x^(tL) since tL >= s), which saves the one product of
# that test.  Pohlig-Hellman takes the inverse of the projected generator
# xi of a part p^e, e >= 2, as xi^(p^e - 1), since xi^(p^e) is the
# identity, where it took x^(vL - n) for n = (tL+1)L/p^e, an exponent
# near L; each such row's comment gives the move.  Answers are unchanged
DLOG_CASES = {
    # in-cycle: group view 17 -> 9; 53 -> 45
    ("zmod", 57, "reduction"): ({"kind": "progression", "m0": 57,
                                 "period": 100}, 45),
    # in-cycle: group view 17 -> 9; 84 -> 76; inverses for 2^2 and 5^2,
    # x^75 (9) and x^96 (7) -> xi^3 (2) and xi^24 (5): 76 -> 67
    ("zmod", 57, "pohlig-hellman"): ({"kind": "progression", "m0": 57,
                                      "period": 100}, 67),
    # 3*x^100 != 3 puts 3 off the cycle, and s - 1 = 2 <= 10: the tail
    # walk over x, x^2 after the group view, 17 -> 9; 19 -> 11
    ("zmod", None, "reduction"): (None, 11),
    # the same tail walk: group view 17 -> 9; 19 -> 11
    ("zmod", None, "pohlig-hellman"): (None, 11),
    # in-cycle: group view 11 -> 6; 29 -> 24
    ("matmod", 10, "reduction"): ({"kind": "progression", "m0": 10,
                                   "period": 18}, 24),
    # in-cycle: group view 11 -> 6; 41 -> 36; the inverse for 3^2, x^16
    # (4) -> xi^8 (3): 36 -> 35
    ("matmod", 10, "pohlig-hellman"): ({"kind": "progression", "m0": 10,
                                        "period": 18}, 35),
    # in-cycle: group view 9 -> 5; 21 -> 17
    ("transformation", 9, "reduction"): ({"kind": "progression", "m0": 9,
                                          "period": 7}, 17),
    # in-cycle: group view 9 -> 5; 21 -> 17
    ("transformation", 9, "pohlig-hellman"): ({"kind": "progression",
                                               "m0": 9, "period": 7}, 17),
    # in-cycle: group view 23 -> 12; 86 -> 75
    ("monogenic", 1000, "reduction"): ({"kind": "progression", "m0": 280,
                                        "period": 360}, 75),
    # in-cycle: group view 23 -> 12; 120 -> 109; inverses for 2^3 and
    # 3^2, x^315 (13) and x^320 (9) -> xi^7 (4) and xi^8 (3): 109 -> 94
    ("monogenic", 1000, "pohlig-hellman"): ({"kind": "progression",
                                             "m0": 280, "period": 360}, 94),
    # off-cycle, but s - 1 = 36 > ceil(sqrt(360)) = 19, so no tail walk:
    # the shift, y times the identity with no bisection at t = 1 and no
    # membership test, 13 -> 2 -> 1; group view 23 -> 12; 65 -> 43 -> 42
    ("monogenic", 5, "reduction"): ({"kind": "unique", "m": 5}, 42),
    # as above: shift 13 -> 2 -> 1, group view 23 -> 12; 133 -> 111 -> 110;
    # the inverses as for k = 1000: 110 -> 95
    ("monogenic", 5, "pohlig-hellman"): ({"kind": "unique", "m": 5}, 95),
}

# (family, bound) -> the accepting attempt's Banin-Tsaban rounds as
# (z, [(k, k'), ...], gcd) at seed 7, the bound as in CYCLE_CASES; how
# the products are made may change what the rounds cost, never what they
# draw or what the oracle answers
BANIN_ROUNDS = {
    # outer rounds default 3: the fourth round is dropped
    ("zmod", None): [
        (152, [(444, 19), (286, 11), (366, 16), (276, 1)], 25),
        (150, [(479, 1), (471, 1), (292, 2), (380, 2)], 2),
        (151, [(474, 74), (287, 87), (320, 20), (371, 71)], 100),
    ],
    # outer rounds default 3: the fourth round is dropped
    ("zmod", 102): [
        (71, [(122, 22), (153, 53), (186, 86), (109, 9)], 100),
        (55, [(171, 11), (115, 15), (149, 9), (177, 17)], 20),
        (54, [(167, 17), (130, 30), (107, 7), (114, 14)], 50),
    ],
    ("matmod", None): [
        (13, [(21, 3), (29, 11), (18, 18), (19, 1)], 18),
        (16, [(20, 2), (28, 1), (18, 9), (23, 5)], 9),
        (8, [(19, 1), (30, 3), (30, 3), (19, 1)], 9),
    ],
    # outer rounds default 3: accepts at 80, not 20
    ("matmod", 20): [
        (66, [(89, 2), (111, 3), (92, 2), (151, 1)], 3),
        (67, [(88, 16), (153, 9), (96, 6), (109, 1)], 18),
        (80, [(155, 2), (88, 7), (154, 1), (155, 2)], 9),
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
    # outer rounds default 3: the fourth and fifth rounds are dropped
    ("monogenic", None): [
        (638, [(1482, 42), (1151, 71), (1837, 37), (1126, 46)], 360),
        (738, [(1120, 20), (1297, 17), (1618, 18), (1883, 3)], 20),
        (659, [(1266, 186), (1656, 216), (1395, 315), (1236, 156)], 360),
    ],
    # outer rounds default 3: accepts at 6336, not 396
    ("monogenic", 396): [
        (5531, [(11133, 333), (9586, 226), (6743, 263), (8148, 228)], 720),
        (3358, [(10897, 97), (7427, 47), (8709, 69), (9770, 50)], 180),
        (3758, [(10766, 146), (7301, 101), (11013, 33), (8864, 44)], 180),
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
    assert [(r.z, r.pairs, r.gcd) for r in trace.rounds] \
        == BANIN_ROUNDS[family, bound]
