"""Discrete logarithms over a torsion base element.

Once the cycle structure (s, L) of the base x is known, the powers
{x^s, ..., x^(s+L-1)} form a cyclic group whose identity is x^(tL) with
t = ceil(s/L) and whose generator is x' = x^(tL+1).  GroupView packages
that data.  Both solvers reduce the semigroup problem to one binary search
plus one discrete log in the group, taken over a split of L:
semigroup_dlog uses [(L, 1)], a single BSGS run, and pohlig_hellman_dlog
the prime factorization of L, with base-p digits per prime power.  Both
return the complete solution set: a unique exponent below the cycle
start, or an arithmetic progression with period L.

Integer factorization and CRT support live in `numtheory` and are
re-exported here for convenience.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    CycleStructure,
    NoSolutionError,
    SemigroupContext,
    SemigroupError,
    Trace,
    power,
    probe_walk,
    table_walk,
)
from .numtheory import crt_combine, factor_integer  # noqa: F401  (re-export)
from .numtheory import ceil_sqrt, first_true


@dataclass(frozen=True)
class GroupView:
    """The cyclic group hiding inside the power sequence of x.

    `identity` is x^(tL), `generator` is x' = x^(tL+1), and `cycle_power`
    caches x^L for the one-multiplication membership test
    y in G_x  <=>  y * x^L = y.
    """

    base: object
    cycle: CycleStructure
    t: int
    generator: object
    identity: object
    cycle_power: object


def make_group_view(ctx: SemigroupContext, x,
                    cycle: CycleStructure) -> GroupView:
    ctx.validate(x)
    s, length = cycle.cycle_start, cycle.cycle_length
    t = -(-s // length)
    identity = power(ctx, x, t * length)
    generator = ctx.mul(identity, x)  # x^(tL+1)
    cycle_power = power(ctx, x, length)
    return GroupView(base=x, cycle=cycle, t=t, generator=generator,
                     identity=identity, cycle_power=cycle_power)


def in_group(ctx: SemigroupContext, gv: GroupView, y) -> bool:
    """Membership test: one multiplication and one comparison.

    Raises IncompatibleElementError when y does not belong to the
    context's instance.
    """
    ctx.validate(y)
    return _in_group(ctx, gv, y)


def _in_group(ctx, gv, y) -> bool:
    """in_group for an element the caller has already validated."""
    return ctx.mul(y, gv.cycle_power) == y


def inverse_in_group(ctx: SemigroupContext, gv: GroupView, n: int):
    """Inverse of x^n inside the group, for any exponent n >= cycle start.

    With v minimal such that v*L >= s + n, the element x^(vL - n) lies in
    the group and multiplies with x^n to the identity x^(tL).
    """
    s, length = gv.cycle.cycle_start, gv.cycle.cycle_length
    if n < s:
        raise SemigroupError(
            f"x^{n} lies before the cycle start {s} and has no inverse")
    v = -(-(s + n) // length)
    return power(ctx, gv.base, v * length - n)


def bsgs_group_dlog(ctx: SemigroupContext, gv: GroupView, generator, target,
                    order: int) -> int:
    """Minimal m' in [0, order) with generator^m' = target, inverse-free.

    Baby steps tabulate target*g^j for j = 0..q (q = ceil(sqrt(order)));
    giant probes are g^(iq) for i = 1..q+1.  A probe matching the baby
    entry j gives m' = iq - j, and scanning i upward makes the first match
    minimal: in a group of this order the baby values are distinct, except
    for order <= 2, where the walk wraps round to the target and stops.
    m' = 0 is the target-equals-identity case, checked upfront since no
    zeroth power exists.  Costs at most 2q + O(log order) multiplications
    and stores q + 1 table entries.
    """
    ctx.validate(generator)
    ctx.validate(target)
    if order < 1:
        raise SemigroupError("order must be >= 1")
    if target == gv.identity:
        return 0
    q = ceil_sqrt(order)
    baby, _, _ = table_walk(ctx, target, generator, q)
    step = power(ctx, generator, q)
    hit = probe_walk(ctx, baby, step, step, q + 1)
    if hit is None:
        raise NoSolutionError("target is not in the subgroup generated by the base")
    return (hit[0] * q - hit[1]) % order


@dataclass(frozen=True)
class DlogSolution:
    """Complete solution set of x^m = y.

    kind "unique": a single solution m0 below the cycle start.
    kind "progression": all solutions are m0 + k*period for k >= 0, with
    m0 the minimal in-cycle exponent (cycle_start <= m0 < cycle_start +
    period).
    """

    kind: str
    m0: int
    period: int | None = None

    def contains(self, m: int) -> bool:
        if self.kind == "unique":
            return m == self.m0
        return m >= self.m0 and (m - self.m0) % self.period == 0

    def smallest(self) -> int:
        return self.m0

    def to_json(self) -> dict:
        if self.kind == "unique":
            return {"kind": "unique", "m": self.m0}
        return {"kind": "progression", "m0": self.m0, "period": self.period}


def solution_set(raw_m: int, cycle: CycleStructure) -> DlogSolution:
    """Normalize one known solution exponent into the full solution set."""
    if raw_m < 1:
        raise SemigroupError("solution exponent must be >= 1")
    s, length = cycle.cycle_start, cycle.cycle_length
    if raw_m < s:
        return DlogSolution("unique", raw_m)
    return DlogSolution("progression", s + (raw_m - s) % length, length)


@dataclass
class DlogTrace(Trace):
    b: int = 0
    m_prime: int = 0
    m_prime_effective: int = 0
    c: int = 0
    raw: int = 0


@dataclass
class PrimePowerRecord(Trace):
    prime: int
    exponent: int
    digits: list
    residue: int


@dataclass
class PohligHellmanTrace(DlogTrace):
    prime_records: list = field(default_factory=list)


def _shift_into_group(ctx, gv, y):
    """Minimal b in [0, t] with y*x^(bL) in the group, plus that product.

    The predicate is monotone in b (the shift pushes the implicit exponent
    of y past the cycle start); its failure at b = t means y is not a
    power of the base at all.  A group element g has g*x^L = g, so every
    shift that enters the group yields the same product y*x^(tL).
    """
    if _in_group(ctx, gv, y):
        return 0, y
    t, length = gv.t, gv.cycle.cycle_length
    x = gv.base

    def shifted(b):
        return ctx.mul(y, power(ctx, x, b * length))

    y_prime = shifted(t)
    if not _in_group(ctx, gv, y_prime):
        raise NoSolutionError("y*x^(tL) never enters the group; "
                              "y is not a power of the base")
    b = first_true(lambda b: _in_group(ctx, gv, shifted(b)), 0, t)
    return b, y_prime


def _group_log(ctx, gv, y_prime, factorization, records):
    """Log of y' to the base x' in the group, over pairs (p, e) whose
    pairwise coprime p^e multiply to L.  Each part projects x' and y' into
    the order-p^e subgroup, takes base-p digits with BSGS runs of order p
    and appends a PrimePowerRecord to `records`; the CRT joins the
    residues.  Only digits k >= 1 divide by the projected generator, so
    its inverse is computed only for e >= 2, and a zero n_k is skipped (no
    x^0).  The split [(L, 1)] is one BSGS, since power(., 1) is free.
    """
    length = gv.cycle.cycle_length
    residues = []
    for p, e in factorization:
        pe = p ** e
        cof = length // pe
        xi = power(ctx, gv.generator, cof)
        yi = power(ctx, y_prime, cof)
        gamma = power(ctx, xi, p ** (e - 1))
        if e >= 2:
            zi = inverse_in_group(ctx, gv, (gv.t * length + 1) * cof)
        n_k = 0
        digits = []
        for k in range(e):
            adjusted = ctx.mul(yi, power(ctx, zi, n_k)) if n_k else yi
            y_k = power(ctx, adjusted, p ** (e - 1 - k))
            d_k = bsgs_group_dlog(ctx, gv, gamma, y_k, p)
            digits.append(d_k)
            n_k += p ** k * d_k
        residues.append((n_k, pe))
        records.append(PrimePowerRecord(p, e, digits, n_k))
    return crt_combine(residues)


def _solve(ctx, x, y, cycle, factorization, trace, records):
    """The reduction shared by both solvers.

    Shift y into the group (binary search for b), then take m' = log of
    y' to the base x' over the parts of `factorization` (see _group_log).
    With A = (tL+1)m', the maximal c that keeps x^(A - cL) in the group is
    c = (A - s) // L, and A - (b+c)L is the discrete logarithm.  Fills in
    `trace` and returns (DlogSolution, trace).
    """
    ctx.validate(y)
    gv = make_group_view(ctx, x, cycle)  # validates x
    b, y_prime = _shift_into_group(ctx, gv, y)
    length = cycle.cycle_length
    m_prime = _group_log(ctx, gv, y_prime, factorization, records)
    m_eff = m_prime if m_prime else length  # no x^0: identity is (x')^L
    a = (gv.t * length + 1) * m_eff
    c = (a - cycle.cycle_start) // length
    raw = a - (b + c) * length
    # a y outside <x> can still shift into the group; the power check
    # catches whatever the collision searches let through
    if raw < 1 or power(ctx, x, raw) != y:
        raise NoSolutionError("y is not a power of the base")
    trace.b, trace.m_prime, trace.m_prime_effective = b, m_prime, m_eff
    trace.c, trace.raw = c, raw
    return solution_set(raw, cycle), trace


def semigroup_dlog(ctx: SemigroupContext, x, y, cycle: CycleStructure):
    """All m with x^m = y, given the cycle structure of x.

    One inverse-free BSGS for m' inside the group (the one-part split
    [(L, 1)] of the shared reduction), after one binary search of
    O((log N)^2) multiplications.  Returns (DlogSolution, DlogTrace);
    raises NoSolutionError when y is not a power of x.
    """
    return _solve(ctx, x, y, cycle, [(cycle.cycle_length, 1)], DlogTrace(),
                  [])


def pohlig_hellman_dlog(ctx: SemigroupContext, x, y, cycle: CycleStructure):
    """Semigroup discrete log via per-prime digit extraction.

    The reduction of semigroup_dlog over the prime factorization of L:
    BSGS runs in the order-p subgroups (at most ceil(sqrt(p)) + 1 table
    entries each) take the base-p digits of each p^e, and the CRT joins
    the residues, so both solvers return identical solution sets.  Raises
    SemigroupError when L cannot be factored.
    """
    try:
        factorization = factor_integer(cycle.cycle_length)
    except ValueError as exc:
        raise SemigroupError(
            f"cannot factor the cycle length: {exc}") from None
    trace = PohligHellmanTrace()
    return _solve(ctx, x, y, cycle, factorization, trace,
                  trace.prime_records)


DLOG_SOLVERS = {"reduction": semigroup_dlog,
                "pohlig-hellman": pohlig_hellman_dlog}
