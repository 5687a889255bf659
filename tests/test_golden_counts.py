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
# bound is None (doubling) or the element's order
CYCLE_CASES = {
    ("zmod", "deterministic", None): (3, 100, 135),
    ("zmod", "deterministic", 102): (3, 100, 60),
    ("zmod", "monico", None): (3, 100, 290),
    ("zmod", "monico", 102): (3, 100, 114),
    ("zmod", "banin-tsaban", None): (3, 100, 980),
    ("zmod", "banin-tsaban", 102): (3, 100, 642),
    ("matmod", "deterministic", None): (3, 18, 71),
    ("matmod", "deterministic", 20): (3, 18, 36),
    ("matmod", "monico", None): (3, 18, 120),
    ("matmod", "monico", 20): (3, 18, 64),
    ("matmod", "banin-tsaban", None): (3, 18, 234),
    ("matmod", "banin-tsaban", 20): (3, 18, 311),
    ("boolmat", "deterministic", None): (4, 3, 26),
    ("boolmat", "deterministic", 6): (4, 3, 17),
    ("boolmat", "monico", None): (4, 3, 32),
    ("boolmat", "monico", 6): (4, 3, 24),
    ("boolmat", "banin-tsaban", None): (4, 3, 193),
    ("boolmat", "banin-tsaban", 6): (4, 3, 148),
    ("transformation", "deterministic", None): (5, 7, 49),
    ("transformation", "deterministic", 11): (5, 7, 39),
    ("transformation", "monico", None): (5, 7, 62),
    ("transformation", "monico", 11): (5, 7, 52),
    ("transformation", "banin-tsaban", None): (5, 7, 231),
    ("transformation", "banin-tsaban", 11): (5, 7, 206),
    ("monogenic", "deterministic", None): (37, 360, 297),
    ("monogenic", "deterministic", 396): (37, 360, 141),
    ("monogenic", "monico", None): (37, 360, 546),
    ("monogenic", "monico", 396): (37, 360, 179),
    ("monogenic", "banin-tsaban", None): (37, 360, 2020),
    ("monogenic", "banin-tsaban", 396): (37, 360, 1191),
}

# (family, k, solver) -> (solution JSON or None for no solution, mults);
# the target is x^k, or the non-power 3 when k is None, and mults covers
# the solver alone
DLOG_CASES = {
    ("zmod", 57, "reduction"): ({"kind": "progression", "m0": 57,
                                 "period": 100}, 54),
    ("zmod", 57, "pohlig-hellman"): ({"kind": "progression", "m0": 57,
                                      "period": 100}, 91),
    ("zmod", None, "reduction"): (None, 56),
    ("zmod", None, "pohlig-hellman"): (None, 101),
    ("matmod", 10, "reduction"): ({"kind": "progression", "m0": 10,
                                   "period": 18}, 30),
    ("matmod", 10, "pohlig-hellman"): ({"kind": "progression", "m0": 10,
                                        "period": 18}, 47),
    ("transformation", 9, "reduction"): ({"kind": "progression", "m0": 9,
                                          "period": 7}, 26),
    ("transformation", 9, "pohlig-hellman"): ({"kind": "progression",
                                               "m0": 9, "period": 7}, 29),
    ("monogenic", 1000, "reduction"): ({"kind": "progression", "m0": 280,
                                        "period": 360}, 84),
    ("monogenic", 1000, "pohlig-hellman"): ({"kind": "progression",
                                             "m0": 280, "period": 360}, 131),
    ("monogenic", 5, "reduction"): ({"kind": "unique", "m": 5}, 126),
    ("monogenic", 5, "pohlig-hellman"): ({"kind": "unique", "m": 5}, 199),
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
