"""Discrete logarithms over a torsion base element.

Once the cycle structure (s, L) of the base x is known, the powers
{x^s, ..., x^(s+L-1)} form a cyclic group whose identity is x^(tL) with
t = ceil(s/L) and whose generator is x' = x^(tL+1).  GroupView packages
that data.  Both solvers share one reduction along the rho shape.  A
target y with y*x^L != y lies off the cycle, so only a unique m < s can
solve it: a walk over x, ..., x^(s-1) settles it when s - 1 <=
ceil(sqrt(L)) and the walk costs no more than the group log it replaces.
Any other target is shifted into the group by one binary search, and a
shifted target y' with y'^L != x^(tL) is no group element (Lagrange), so
no power, at a cost of O(log L).  What remains is one discrete log in the
group, taken over a split of L: semigroup_dlog uses [(L, 1)], a single
BSGS run, and pohlig_hellman_dlog the prime factorization of L, with
base-p digits per prime power.  Both return the complete solution set: a
unique exponent below the cycle start, or an arithmetic progression with
period L.

Integer factorization and CRT support live in `numtheory` and are
re-exported here for convenience.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    CycleStructure,
    DomainError,
    NoSolutionError,
    Powers,
    SemigroupContext,
    SemigroupError,
    Trace,
    check_int,
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
    caches x^L for the one-multiplication membership test y * x^L = y.
    Every group element passes it and no power x^m with m < s does; an
    element outside <x> may pass it too.
    """

    base: object
    cycle: CycleStructure
    t: int
    generator: object
    identity: object
    cycle_power: object


def _check_cycle(cycle) -> CycleStructure:
    if not isinstance(cycle, CycleStructure):
        raise DomainError(f"cycle must be a CycleStructure, got {cycle!r}")
    return cycle


def make_group_view(ctx: SemigroupContext, x,
                    cycle: CycleStructure) -> GroupView:
    ctx.validate(x)
    s, length = _check_cycle(cycle).cycle_start, cycle.cycle_length
    t = -(-s // length)
    cycle_power = power(ctx, x, length)
    # x^(tL) = (x^L)^t, free when t = 1
    identity = power(ctx, cycle_power, t) if t > 1 else cycle_power
    generator = ctx.mul(identity, x)  # x^(tL+1)
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
    if check_int(n, "n") < s:
        raise SemigroupError(
            f"x^{n} lies before the cycle start {s} and has no inverse")
    v = -(-(s + n) // length)
    return power(ctx, gv.base, v * length - n)


def bsgs_group_dlog(ctx: SemigroupContext, gv: GroupView, generator, target,
                    order: int) -> int:
    """Minimal m' in [0, order) with generator^m' = target, inverse-free.

    Baby steps tabulate target*g^j for j = 0..b, with b = ceil(q/2) and
    q = ceil(sqrt(order)); giant probes are g^(ib) for i = 1..n, with
    n = ceil(order/b) + 1.  A probe matching the baby entry j gives
    m' = ib - j, and scanning i upward makes the first match minimal: the
    b + 1 <= order baby values of a group of this order are distinct.
    m' = 0 is the target-equals-identity case, checked upfront since no
    zeroth power exists.  A uniform m' costs 3q/2 + O(log order)
    multiplications on average, as with q baby steps, and at most
    5q/2 + O(log order); the table holds b + 1 entries, half of q + 1.
    """
    ctx.validate(generator)
    ctx.validate(target)
    if check_int(order, "order") < 1:
        raise SemigroupError("order must be >= 1")
    if target == gv.identity:
        return 0
    b = (ceil_sqrt(order) + 1) // 2
    baby, _, _ = table_walk(ctx, target, generator, b)
    step = power(ctx, generator, b)
    hit = probe_walk(ctx, baby, step, step, -(-order // b) + 1)
    if hit is None:
        raise NoSolutionError("target is not in the subgroup generated by the base")
    return (hit[0] * b - hit[1]) % order


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
    if check_int(raw_m, "solution exponent") < 1:
        raise SemigroupError("solution exponent must be >= 1")
    s, length = _check_cycle(cycle).cycle_start, cycle.cycle_length
    if raw_m < s:
        return DlogSolution("unique", raw_m)
    return DlogSolution("progression", s + (raw_m - s) % length, length)


@dataclass
class DlogTrace(Trace):
    """How the reduction reached its answer `raw`, a solution exponent.

    A group-log answer sets every field: raw = (tL+1)m'_eff - (b+c)L.  A
    tail answer (an off-cycle target found by the walk over x, ...,
    x^(s-1)) has raw = m and leaves b, m_prime, m_prime_effective and c
    None; a Pohlig-Hellman trace then has no prime records.
    """

    b: int | None = None
    m_prime: int | None = None
    m_prime_effective: int | None = None
    c: int | None = None
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
    """Minimal b in [1, t] with y*x^(bL) in the group, plus that product,
    for a y outside the group.

    The predicate is monotone in b (the shift pushes the implicit exponent
    of y past the cycle start); its failure at b = t means y is not a
    power of the base at all.  A group element g has g*x^L = g, so every
    shift that enters the group yields the same product y*x^(tL), y times
    the identity.  The probes x^(bL) come from one ladder of x^L.
    """
    y_prime = ctx.mul(y, gv.identity)
    if not _in_group(ctx, gv, y_prime):
        raise NoSolutionError("y*x^(tL) never enters the group; "
                              "y is not a power of the base")
    shifts = Powers(ctx, gv.cycle_power)
    b = first_true(lambda b: _in_group(ctx, gv, ctx.mul(y, shifts(b))), 0,
                   gv.t)
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

    A y with y*x^L != y is off the cycle, so only a unique m < s can
    solve it.  The walk x, ..., x^(s-1) finds it or proves there is none
    when s - 1 <= ceil(sqrt(L)), the baby steps of a one-part split, and
    s - 1 <= the sum over the split's (p, e) of e * (ceil(sqrt(p)) +
    2 * bit_length(L)), what its digits spend at least on baby steps and
    powers; so it never costs more than the group log it replaces.
    Otherwise shift y into the group (binary search for b) and
    reject a y' with y'^L != x^(tL), which no group element is, in about
    2 log2 L multiplications.  Then take m' = log of y' to the base x'
    over the parts of `factorization` (see _group_log).  With
    A = (tL+1)m', the maximal c that keeps x^(A - cL) in the group is
    c = (A - s) // L, and A - (b+c)L is the discrete logarithm.  Fills in
    `trace` and returns (DlogSolution, trace).
    """
    ctx.validate(y)
    gv = make_group_view(ctx, x, cycle)  # validates x
    s, length = cycle.cycle_start, cycle.cycle_length
    if _in_group(ctx, gv, y):
        b, y_prime = 0, y
    elif s - 1 <= min(ceil_sqrt(length), sum(
            e * (ceil_sqrt(p) + 2 * length.bit_length())
            for p, e in factorization)):
        hit = probe_walk(ctx, {y: 0}, x, x, s - 1) if s > 1 else None
        if hit is None:
            raise NoSolutionError("y is off the cycle and no power x^m "
                                  "with m < s equals it")
        trace.raw = hit[0]
        return solution_set(hit[0], cycle), trace
    else:
        b, y_prime = _shift_into_group(ctx, gv, y)
    if power(ctx, y_prime, length) != gv.identity:
        raise NoSolutionError("y*x^(bL) fails y'^L = x^(tL), so it is not "
                              "in the group; y is not a power of the base")
    m_prime = _group_log(ctx, gv, y_prime, factorization, records)
    m_eff = m_prime if m_prime else length  # no x^0: identity is (x')^L
    a = (gv.t * length + 1) * m_eff
    c = (a - s) // length
    raw = a - (b + c) * length
    # a y outside <x> can still pass both membership tests; the power
    # check catches whatever the collision searches let through
    if raw < 1 or power(ctx, x, raw) != y:
        raise NoSolutionError("y is not a power of the base")
    trace.b, trace.m_prime, trace.m_prime_effective = b, m_prime, m_eff
    trace.c, trace.raw = c, raw
    return solution_set(raw, cycle), trace


def semigroup_dlog(ctx: SemigroupContext, x, y, cycle: CycleStructure):
    """All m with x^m = y, given the cycle structure of x.

    One inverse-free BSGS for m' inside the group (the one-part split
    [(L, 1)] of the shared reduction), after one binary search of
    O((log N)^2) multiplications.  An off-cycle target with
    s - 1 <= ceil(sqrt(L)) costs O(min(s, sqrt(L))) after the group view
    instead, and a shifted target outside the group exits after O(log L).
    Returns (DlogSolution, DlogTrace); raises NoSolutionError when y is
    not a power of x.
    """
    return _solve(ctx, x, y, cycle, [(_check_cycle(cycle).cycle_length, 1)],
                  DlogTrace(), [])


def pohlig_hellman_dlog(ctx: SemigroupContext, x, y, cycle: CycleStructure):
    """Semigroup discrete log via per-prime digit extraction.

    The reduction of semigroup_dlog over the prime factorization of L:
    BSGS runs in the order-p subgroups (at most ceil(sqrt(p)) + 1 table
    entries each) take the base-p digits of each p^e, and the CRT joins
    the residues, so both solvers return identical solution sets.  The
    same O(log L) non-member exit runs before any digit, and the tail walk
    only where it is cheaper than the digits: s - 1 <= ceil(sqrt(L)) and
    s - 1 <= sum of e * (ceil(sqrt(p)) + 2 * bit_length(L)).
    Raises SemigroupError when L cannot be factored.
    """
    try:
        factorization = factor_integer(_check_cycle(cycle).cycle_length)
    except ValueError as exc:
        raise SemigroupError(
            f"cannot factor the cycle length: {exc}") from None
    trace = PohligHellmanTrace()
    return _solve(ctx, x, y, cycle, factorization, trace,
                  trace.prime_records)


DLOG_SOLVERS = {"reduction": semigroup_dlog,
                "pohlig-hellman": pohlig_hellman_dlog}
