"""Built-in consistency suites for the CLI selftest command.

Fast versions of the library's core guarantees: each family's product
against a short reference that does not use it, algorithm-vs-oracle
equivalence, the two textbook counterexample scenarios, the power-period
equivalence, inverse correctness, and agreement of the two discrete-log
solvers.  Each suite returns a named pass/fail result so a regression is
identified by property, not just by exit code.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass

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
    BoolMatContext,
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
        return asdict(self)


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
    for i in range(25):
        params = {"dim": i % 4 + 1, "modulus": rng.choice([2, 3, 5])}
        elem = random_element("matmod", params, rng.randrange(2 ** 30))
        pairs.append((MatModContext(**params), elem))
    for _ in range(25):
        dim = rng.choice([2, 3, 4, 5])
        elem = random_element("boolmat", {"dim": dim}, rng.randrange(2 ** 30))
        pairs.append((BoolMatContext(dim), elem))
    return pairs


def ref_boolmat_product(a, b):
    """Boolean product of nested 0/1 rows, entry by entry."""
    n = len(a)
    rng = range(n)
    return tuple(
        tuple(1 if any(a[i][k] and b[k][j] for k in rng) else 0
              for j in rng)
        for i in rng
    )


def ref_matmod_product(a, b, modulus: int):
    """Product of nested integer rows modulo `modulus`, entry by entry."""
    rng = range(len(a))
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in rng) % modulus for j in rng)
        for i in rng
    )


def ref_transformation_product(a, b):
    """Composition of 0-indexed image tuples, b applied first."""
    return tuple(a[v] for v in b)


def _canon(n: int, s: int, length: int) -> int:
    """Canonical exponent of x^n in the monogenic semigroup (s, L)."""
    return n if n < s + length else s + (n - s) % length


def _reference_product(ctx, a, b) -> dict:
    """Spec document of a*b, computed without the context's product."""
    da, db = ctx.element_json(a), ctx.element_json(b)
    if ctx.family == "zmod":
        return {**da, "value": da["value"] * db["value"] % da["modulus"]}
    if ctx.family == "monogenic":
        return {**da, "e": _canon(da["e"] + db["e"], da["s"], da["L"])}
    if ctx.family == "transformation":
        return ctx.element_json(ref_transformation_product(a, b))
    rows = (ref_matmod_product(da["entries"], db["entries"], da["modulus"])
            if ctx.family == "matmod"
            else ref_boolmat_product(da["entries"], db["entries"]))
    return {**da, "entries": [list(row) for row in rows]}


# a^e in closed form, for the families that have one
_CLOSED_POWERS = {
    "zmod": lambda ctx, a, e: pow(a, e, ctx.modulus),
    "monogenic": lambda ctx, a, e: _canon(a * e, ctx.cycle_start,
                                          ctx.cycle_length),
}


def suite_product_reference(seed: int) -> SuiteResult:
    """Counted products on random triples of each sampled instance against
    the references and for associativity; zmod and monogenic powers
    against their closed forms."""
    rng = random.Random(seed)
    pools = {}
    for ctx, x in _sample_instances(seed):
        pools.setdefault(repr(ctx), (ctx, []))[1].append(x)
    for ctx, elems in pools.values():
        elems += [random_element(ctx.family, ctx.describe(),
                                 rng.randrange(2 ** 30))
                  for _ in range(3)]
        closed = _CLOSED_POWERS.get(ctx.family)
        for _ in range(20):
            a, b, c = (rng.choice(elems) for _ in range(3))
            e = rng.randint(1, 1000)
            ab = ctx.mul(a, b)
            if ctx.element_json(ab) != _reference_product(ctx, a, b):
                problem = f"{a!r} * {b!r} gave {ab!r}"
            elif ctx.mul(ab, c) != ctx.mul(a, ctx.mul(b, c)):
                problem = f"({a!r} * {b!r}) * {c!r} != {a!r} * ({b!r} * {c!r})"
            elif closed and power(ctx, a, e) != closed(ctx, a, e):
                problem = f"{a!r}^{e} differs from its closed form"
            else:
                continue
            return SuiteResult("product-reference", False,
                               f"{ctx!r}: {problem}")
    return SuiteResult("product-reference", True,
                       "products match the family references and associate")


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
    if power(ctx_a, x, 15) == power(ctx_a, x, 3):
        return SuiteResult(name, False, "(5,12): x^15 should differ from x^3")
    ctx_b = MonogenicContext(10, 15)
    y = power(ctx_b, x, 5)
    lhs = ctx_b.mul(y, power(ctx_b, x, 6))
    if not (lhs == power(ctx_b, x, 11)
            and power(ctx_b, x, 11) == power(ctx_b, x, 26)):
        return SuiteResult(name, False,
                           "(10,15): y*x^6 should collide with x^11 = x^26")
    if power(ctx_b, x, 5) == power(ctx_b, x, 20):
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
            equal = power(ctx, x, n) == power(ctx, x, m)
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
            if ctx.mul(power(ctx, x, n), inv) != gv.identity:
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
    suite_product_reference,
    suite_oracle_equivalence,
    suite_remark_scenarios,
    suite_power_period,
    suite_inverse_formula,
    suite_solver_agreement,
)


def run_selftests(seed: int = 0) -> list:
    """Every suite's result.  A suite that raises fails under its function
    name, so a broken product that crashes one suite cannot hide the
    others' results."""
    results = []
    for suite in SUITES:
        try:
            results.append(suite(seed))
        except Exception as exc:
            results.append(SuiteResult(suite.__name__, False,
                                       f"raised {type(exc).__name__}: {exc}"))
    return results
