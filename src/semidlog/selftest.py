"""Built-in consistency suites for the CLI selftest command.

Fast versions of the library's core guarantees: algorithm-vs-oracle
equivalence, the two textbook counterexample scenarios, the power-period
equivalence, inverse correctness, and agreement of the two discrete-log
solvers.  Each suite returns a named pass/fail result so a regression is
identified by property, not just by exit code.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .core import power
from .cycle import brute_force_cycle, cycle_structure
from .dlp import (
    in_group,
    inverse_in_group,
    make_group_view,
    pohlig_hellman_dlog,
    semigroup_dlog,
    solution_set,
)
from .instances import (
    MatModContext,
    MonogenicContext,
    TransformationContext,
    ZModContext,
    random_element,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _sample_instances(seed: int):
    """Small but varied set of (ctx, element) pairs."""
    rng = random.Random(seed)
    pairs = []
    for n in (6, 10, 36, 100):
        for x in range(n):
            pairs.append((ZModContext(n), x))
    for s, length in [(1, 1), (1, 6), (5, 12), (10, 15), (18, 7), (4, 9)]:
        pairs.append((MonogenicContext(s, length), 1))
    for deg in (3, 4):
        for images in itertools.product(range(deg), repeat=deg):
            pairs.append((TransformationContext(deg), images))
    for _ in range(25):
        params = {"dim": 2, "modulus": rng.choice([2, 3, 5])}
        elem = random_element("matmod", params, rng.randrange(2 ** 30))
        pairs.append((MatModContext(**params), elem))
    return pairs


def suite_oracle_equivalence(seed: int) -> SuiteResult:
    for ctx, x in _sample_instances(seed):
        expected = brute_force_cycle(ctx, x)
        got = cycle_structure(ctx, x)
        if got != expected:
            return SuiteResult(
                "oracle-equivalence", False,
                f"{ctx!r} element {x!r}: got ({got.cycle_start}, "
                f"{got.cycle_length}), expected ({expected.cycle_start}, "
                f"{expected.cycle_length})")
    return SuiteResult("oracle-equivalence", True,
                       "deterministic route matches brute force")


def suite_remark_scenarios(seed: int) -> SuiteResult:
    del seed
    name = "collision-counterexamples"
    ctx_a = MonogenicContext(5, 12)
    x = 1
    if ctx_a.equal(power(ctx_a, x, 15), power(ctx_a, x, 3)):
        return SuiteResult(name, False, "(5,12): x^15 should differ from x^3")
    ctx_b = MonogenicContext(10, 15)
    y = power(ctx_b, x, 5)
    lhs = ctx_b.mul(y, power(ctx_b, x, 6))
    if not (ctx_b.equal(lhs, power(ctx_b, x, 11))
            and ctx_b.equal(power(ctx_b, x, 11), power(ctx_b, x, 26))):
        return SuiteResult(name, False,
                           "(10,15): y*x^6 should collide with x^11 = x^26")
    if ctx_b.equal(power(ctx_b, x, 5), power(ctx_b, x, 20)):
        return SuiteResult(name, False, "(10,15): x^5 should differ from x^20")
    sol, _ = semigroup_dlog(ctx_b, x, y, brute_force_cycle(ctx_b, x))
    if sol.to_json() != {"kind": "unique", "m": 5}:
        return SuiteResult(name, False,
                           f"(10,15): log of x^5 returned {sol.to_json()}")
    return SuiteResult(name, True, "both counterexample scenarios reproduce")


def suite_power_period(seed: int) -> SuiteResult:
    rng = random.Random(seed)
    for ctx, x in [(ZModContext(100), 2), (MonogenicContext(7, 9), 1),
                   (TransformationContext(5), (1, 2, 3, 4, 0))]:
        cyc = brute_force_cycle(ctx, x)
        for _ in range(200):
            n = rng.randint(cyc.cycle_start, cyc.cycle_start + 6 * cyc.cycle_length)
            m = rng.randint(cyc.cycle_start, cyc.cycle_start + 6 * cyc.cycle_length)
            equal = ctx.equal(power(ctx, x, n), power(ctx, x, m))
            congruent = (n - m) % cyc.cycle_length == 0
            if equal != congruent:
                return SuiteResult(
                    "power-period", False,
                    f"{ctx!r}: x^{n} vs x^{m} disagrees with periodicity")
    return SuiteResult("power-period", True,
                       "equality of in-cycle powers matches exponent congruence")


def suite_inverse_formula(seed: int) -> SuiteResult:
    del seed
    for ctx, x in [(ZModContext(100), 2), (MonogenicContext(10, 15), 1),
                   (MonogenicContext(1, 9), 1), (TransformationContext(4), (1, 0, 0, 2))]:
        cyc = brute_force_cycle(ctx, x)
        gv = make_group_view(ctx, x, cyc)
        for n in range(cyc.cycle_start, cyc.cycle_start + cyc.cycle_length):
            inv = inverse_in_group(ctx, gv, n)
            if not ctx.equal(ctx.mul(power(ctx, x, n), inv), gv.identity):
                return SuiteResult("inverse-formula", False,
                                   f"{ctx!r}: inverse of x^{n} failed")
        if not in_group(ctx, gv, gv.identity):
            return SuiteResult("inverse-formula", False,
                               f"{ctx!r}: identity fails membership")
    return SuiteResult("inverse-formula", True,
                       "x^n times its inverse is the identity on all group elements")


def suite_solver_agreement(seed: int) -> SuiteResult:
    rng = random.Random(seed)
    cases = [(ZModContext(100), 2), (MonogenicContext(6, 20), 1),
             (MonogenicContext(1, 12), 1), (TransformationContext(6), (1, 2, 0, 4, 5, 3))]
    for ctx, x in cases:
        cyc = brute_force_cycle(ctx, x)
        for _ in range(20):
            m = rng.randint(1, 3 * cyc.order)
            y = power(ctx, x, m)
            sol_a, _ = semigroup_dlog(ctx, x, y, cyc)
            sol_b, _ = pohlig_hellman_dlog(ctx, x, y, cyc)
            if sol_a != sol_b:
                return SuiteResult(
                    "solver-agreement", False,
                    f"{ctx!r}: reduction gave {sol_a.to_json()}, "
                    f"pohlig-hellman gave {sol_b.to_json()} for m={m}")
            if sol_a != solution_set(m, cyc) or not sol_a.contains(m):
                return SuiteResult("solver-agreement", False,
                                   f"{ctx!r}: solution set misses m={m}")
    return SuiteResult("solver-agreement", True,
                       "both solvers return identical, correct solution sets")


SUITES = (
    suite_oracle_equivalence,
    suite_remark_scenarios,
    suite_power_period,
    suite_inverse_formula,
    suite_solver_agreement,
)


def run_selftests(seed: int = 0) -> list:
    return [suite(seed) for suite in SUITES]
