"""Cycle-length and cycle-start computation for torsion elements.

Four routes to the cycle structure:

  brute_force_cycle           exhaustive power enumeration; the ground
                              truth every other route is tested against
  deterministic_cycle_length  baby-step/giant-step rounds at bounds
                              growing x4; exact
  monico_cycle_length         collision search with a prime offset and
                              divisor stripping; may return a proper
                              multiple of the cycle length
  banin_tsaban_cycle_length   gcd/lcm accumulation of discrete-log oracle
                              answers for random powers

plus cycle_start_search (doubling + bisection once the cycle length is
known), least_period (prime-cofactor reduction of a verified multiple of
the cycle length), group_dlog_oracle (the inverse-free collision oracle
the Banin-Tsaban route relies on) and find_cycle, the one dispatch from an
algorithm name in CYCLE_ALGORITHMS to a full cycle structure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .core import (
    CycleStructure,
    DomainError,
    OracleFailureError,
    Powers,
    SemigroupContext,
    SemigroupError,
    Trace,
    check_context,
    check_int,
    power,
    probe_walk,
    table_walk,
    table_walk_all,
)
from .numtheory import (
    ceil_sqrt,
    factor_integer,
    first_true,
    next_prime,
    prime_power_divisors_below,
)

# brute force tabulates every power, so it stops after this many
BRUTE_FORCE_CAP = 1 << 21
_DOUBLING_CAP = 1 << 62


def brute_force_cycle(ctx: SemigroupContext, x, cap: int = BRUTE_FORCE_CAP) -> CycleStructure:
    """Exact cycle structure by iterating x, x^2, ... until the first
    repeated value: seen at exponent b with an earlier occurrence at a, it
    gives cycle start a and cycle length b - a.  Raises when no repeat
    shows up within `cap` steps (element not torsion within cap).
    """
    check_context(ctx).validate(x)
    check_int(cap, "cap")
    # the walk's index k stands for the exponent k + 1, so it checks 1..cap
    _, _, repeat = table_walk(ctx, x, x, cap - 1)
    if repeat is None:
        raise SemigroupError(f"no repeated power within {cap} steps; "
                             "element may not be torsion")
    k1, k2 = repeat
    return CycleStructure(k1 + 1, k2 - k1)


def _doubling_search(ctx, trace, attempt, n, grow, miss, failed=None):
    """Run attempt(n), attempt(4n), attempt(16n), ... until one returns a
    cycle length; returns (length, trace) with trace.multiplications and
    trace.cycle_length filled in.

    The bound grows x4, not x2: a round's cost grows like the square root
    of its bound, so x4 doubles the cost per round and the failed rounds
    cost about as much as the accepting one, against 2.4 times as much when
    doubling.  Without `grow`, a single attempt whose miss raises
    SemigroupError with the message `miss`.  Bounds that missed are
    appended to `failed` when it is given; no attempt runs past
    _DOUBLING_CAP.
    """
    start_count = ctx.mult_count
    while True:
        length = attempt(n)
        if length is not None:
            trace.multiplications = ctx.mult_count - start_count
            trace.cycle_length = length
            return length, trace
        if not grow:
            raise SemigroupError(miss)
        if failed is not None:
            failed.append(n)
        n *= 4
        if n > _DOUBLING_CAP:
            raise SemigroupError(
                "doubling cap exceeded; element may not be torsion")


@dataclass(frozen=True)
class Alg4Round(Trace):
    """One round of the deterministic algorithm, at one bound.  When the
    baby walk repeats, at step `baby_hit` after step k1 (0 for a return to
    x^N, above 0 for a repeat that began before the cycle start),
    `candidate` = baby_hit - k1 is accepted and `table_size` = baby_hit."""

    bound: int
    stride: int
    baby_hit: int | None
    giant_hit: tuple | None
    candidate: int | None
    accepted: bool
    table_size: int


@dataclass
class Alg4Trace(Trace):
    rounds: list = field(default_factory=list)
    multiplications: int = 0
    cycle_length: int | None = None
    table_peak: int = 0  # the largest round's table_size


def _alg4_round(ctx: SemigroupContext, x, powers: Powers, bound: int):
    """One baby/giant round at the given bound, taking its powers of x
    from the ladder `powers`.

    Baby phase: walk x^N, x^(N+1), ..., x^(N+q) with q = ceil(sqrt(N)),
    stopping at the first repeated value.  The first repeat of consecutive
    powers spans exactly one cycle, so a repeat x^(N+k1) = x^(N+k2) gives
    the cycle length k2 - k1.  Without one, the powers x^(N+j) for j < q
    form the lookup table, keyed by the element.

    Giant phase: probe x^(N+iq) for i = 1..q against the table.  A match
    at minimal i yields candidate iq - j, which is provably the cycle
    length when N >= max(cycle start, cycle length) but can be a proper
    multiple when the table straddles the cycle start.  The candidate is
    therefore accepted only after checking x^N = x^(N + candidate); a
    failed check means this round's bound was too small and the caller
    quadruples it.  At N = 4^r, x^N and x^q (q = 2^r) are squares of the
    ladder, so a round costs two new squarings where a fresh square and
    multiply would cost 3r.
    """
    q = ceil_sqrt(bound)
    base = powers(bound)
    table, last, repeat = table_walk(ctx, base, x, q)
    if repeat is not None:
        k1, k2 = repeat
        return k2 - k1, Alg4Round(bound, q, k2, None, k2 - k1, True, k2)
    del table[last]  # x^(N+q) is the first giant probe, not a table entry

    hit = probe_walk(ctx, table, last, powers(q), q)
    if hit is None:
        return None, Alg4Round(bound, q, None, None, None, False, q)
    candidate = hit[0] * q - hit[1]
    accepted = ctx.mul(powers(candidate), base) == base
    return (candidate if accepted else None), Alg4Round(
        bound, q, None, hit, candidate, accepted, q)


def deterministic_cycle_length(ctx: SemigroupContext, x,
                               known_bound: int | None = None):
    """Exact cycle length of a torsion element; returns (L, Alg4Trace).

    Without a bound, rounds run at N = 1, 4, 16, ... until a validated
    collision appears, which is guaranteed once N reaches
    max(cycle start, cycle length).  With `known_bound` (an upper bound on
    the order), a single round at that bound suffices and a failure to
    find a collision raises instead of growing the bound.
    """
    check_context(ctx).validate(x)
    if known_bound is not None:
        check_int(known_bound, "known_bound", 1)
    trace = Alg4Trace()
    powers = Powers(ctx, x)

    def attempt(bound):
        result, rec = _alg4_round(ctx, x, powers, bound)
        trace.rounds.append(rec)
        trace.table_peak = max(trace.table_peak, rec.table_size)
        return result

    return _doubling_search(
        ctx, trace, attempt, known_bound or 1, known_bound is None,
        f"no validated collision at bound {known_bound}; the bound must be "
        "at least max(cycle start, cycle length)")


def cycle_start_search(ctx: SemigroupContext, x, cycle_length: int) -> int:
    """Cycle start via doubling then bisection, given the true cycle length.

    The predicate "x^(c + L) = x^c" holds exactly for c >= cycle start
    (it also holds when L is any positive multiple of the true cycle
    length, so a Monico-style overshoot still yields the correct start).
    Costs O((log N)^2) multiplications: the probes x^c come from one
    ladder of x, so a doubling probe is a square and a bisection probe
    costs popcount(c) - 1 products.  For a candidate L that is not a
    multiple of the true cycle length the predicate never holds, and the
    doubling stops past _DOUBLING_CAP with SemigroupError.
    """
    check_context(ctx).validate(x)
    check_int(cycle_length, "cycle_length", 1)
    step = power(ctx, x, cycle_length)
    powers = Powers(ctx, x)

    def holds(c: int) -> bool:
        xc = powers(c)
        return ctx.mul(xc, step) == xc

    s = 1
    while not holds(s):
        s *= 2
        if s > _DOUBLING_CAP:
            raise SemigroupError(
                f"x^(c+{cycle_length}) != x^c for all c <= {_DOUBLING_CAP}; "
                "the supplied cycle length is not a multiple of the true one")
    return first_true(holds, s // 2, s)


def least_period(ctx: SemigroupContext, x, base, g: int) -> int:
    """The cycle length, from a multiple g of it at an in-cycle element
    `base`; SemigroupError unless x^g * base = base, checked first.

    Prime-cofactor reduction: for each prime p of g in ascending order,
    divide g by p while x^(g/p) * base = base still holds.  The periods of
    `base` are exactly the multiples of the cycle length, so what remains
    is the least one.  Costs the entry check and at most one check per
    prime factor of g, counted with multiplicity, plus one per distinct
    prime; the checks take their powers of x from one ladder.
    """
    check_context(ctx).validate(x)
    ctx.validate(base)
    check_int(g, "g", 1)
    length = _least_period(ctx, Powers(ctx, x), base, g)
    if length is None:
        raise SemigroupError(f"{g} is not a period: x^{g} * base != base")
    return length


def _least_period(ctx, powers, base, g):
    """least_period with the ladder `powers`; None where the entry check
    x^g * base = base fails."""
    if ctx.mul(powers(g), base) != base:
        return None
    try:
        primes = factor_integer(g)
    except ValueError as exc:
        raise SemigroupError(f"cannot reduce {g}: {exc}") from None
    for p, _ in primes:
        while g % p == 0 and ctx.mul(powers(g // p), base) == base:
            g //= p
    return g


@dataclass
class MonicoTrace(Trace):
    bound: int = 0
    m: int = 0
    prime: int = 0
    duplicate_pair: tuple | None = None
    collision_one: tuple | None = None  # (a1, b1)
    collision_two: tuple | None = None  # (a2, b2)
    gcd_value: int = 0
    divisor_bound: int = 0
    stripped_divisors: list = field(default_factory=list)
    attempts: list = field(default_factory=list)  # bounds of failed rounds
    multiplications: int = 0
    cycle_length: int | None = None

    @property
    def table_peak(self) -> int:
        # a failed round stores all m + 1 entries; the last one stops at
        # its first duplicate (first, i), having stored i
        last = self.duplicate_pair[1] if self.duplicate_pair else self.m + 1
        return max([last] + [ceil_sqrt(b) + 1 for b in self.attempts])


def monico_strip(ctx: SemigroupContext, x, anchor_exp: int, g: int,
                 divisor_bound: int, record: list | None = None) -> int:
    """Divisor-stripping step: reduce a multiple g of the cycle length.

    The divisor list is the set of prime-power divisors of the *original*
    g that do not exceed `divisor_bound`, tested in decreasing order; g is
    replaced by g/d whenever x^(anchor_exp + g/d) = x^(anchor_exp) holds.
    The list is not recomputed as g shrinks, so prime factors above the
    bound are never removed and the result can stay a proper multiple.
    The anchor and the candidates are powers of x from one ladder.
    """
    check_context(ctx).validate(x)
    check_int(g, "g", 1)
    check_int(anchor_exp, "anchor_exp", 1)
    powers = Powers(ctx, x)
    base = powers(anchor_exp)
    for d in prime_power_divisors_below(g, divisor_bound):
        if g % d:
            continue
        cand = g // d
        if ctx.mul(powers(cand), base) == base:
            g = cand
            if record is not None:
                record.append(d)
    return g


def _monico_round(ctx, x, powers, bound, divisor_bound, trace):
    m = ceil_sqrt(bound)
    q = next_prime(bound)
    trace.bound, trace.m, trace.prime = bound, m, q
    xq = powers(q)

    # table[x^(q + i*m)] = i for i = 0..m, until the first repeat; that
    # repeat spans one period P = L/gcd(L, m) of the index, as in-cycle
    # entries repeat exactly every P steps and earlier ones never, and it
    # is all the round reads, so the walk stops there
    table, _, duplicate = table_walk(ctx, xq, powers(m), m)

    # strip at an exponent the collision certifies to lie in the cycle
    # (the smaller of two with equal powers): at a pre-cycle exponent no
    # proper divisor of g ever closes the cycle
    if duplicate is not None:
        i1, i2 = duplicate
        trace.duplicate_pair = duplicate
        g = (i2 - i1) * m
        anchor = q + i1 * m
    else:
        # least b in [1, m] with x^(offset + b) in the table, for the
        # offsets q and 2q; b = m does occur: consecutive table residues
        # can sit exactly m apart
        shifts = []
        start = x
        for _ in range(2):
            start = ctx.mul(xq, start)  # x^(q+1), then x^(2q+1)
            hit = probe_walk(ctx, table, start, x, m)
            if hit is None:
                return None
            shifts.append(hit)
        (b1, a1), (b2, a2) = shifts
        trace.collision_one = (a1, b1)
        trace.collision_two = (a2, b2)
        g = math.gcd(abs(a1 * m - b1), abs(a2 * m - b2 - q))
        if g == 0:
            return None
        # x^(q+b1) = x^(q+a1*m), x^(2q+b2) = x^(q+a2*m); g > 0 means one
        # pair has distinct exponents
        anchor = (q + min(b1, a1 * m) if a1 * m != b1
                  else min(2 * q + b2, q + a2 * m))

    trace.gcd_value = g
    stripped: list = []
    result = monico_strip(ctx, x, anchor, g, divisor_bound, stripped)
    trace.stripped_divisors = stripped
    return result


def monico_cycle_length(ctx: SemigroupContext, x, bound: int | None = None,
                        divisor_bound: int = 10 ** 4,
                        seed: int | None = None):
    """Monico's baby-step giant-step route; returns (L, MonicoTrace).

    With a valid bound (at least the order of x) or without one (the
    search then runs at internal bounds 1, 4, 16, ... until collisions
    appear), the output is a positive multiple of the cycle length; it
    equals the cycle length unless stripping misses a factor above
    `divisor_bound`, an event whose probability drops off as
    (1 - 1/B)^log(g).

    The computation is deterministic: the prime offset is the smallest
    prime above the bound.  `seed` is accepted for interface uniformity
    with the randomized routes and is unused here.
    """
    del seed
    check_context(ctx).validate(x)
    check_int(divisor_bound, "divisor_bound", 2)
    if bound is not None:
        check_int(bound, "bound", 1)
    trace = MonicoTrace(divisor_bound=divisor_bound)
    powers = Powers(ctx, x)
    return _doubling_search(
        ctx, trace,
        lambda n: _monico_round(ctx, x, powers, n, divisor_bound, trace),
        bound or 1, bound is None,
        f"no collision within bound {bound}; the bound must be at least the "
        "order of the element", trace.attempts)


def group_dlog_oracle(ctx: SemigroupContext, h, target, bound: int,
                      steps: tuple | None = None) -> int:
    """Smallest verified k' with h^k' = target found by inverse-free
    collision search, or OracleFailureError.

    Baby steps walk target*h^j for j = 1..q and giant probes h^(iq) for
    i = 1..q+1 with q = ceil(sqrt(bound)); a match suggests k' = iq - j,
    which is confirmed against h^k' = target before being returned (the
    cancellation step behind the suggestion is only sound when h already
    lies inside its cycle, so candidates are never trusted blindly).
    Candidates are scanned in increasing order, making the returned
    exponent the smallest one the table can express; it is at most
    q(q+1).  That is at most 2*bound for every bound except 1, 2 and 5,
    where q(q+1) is 6, 6 and 12.

    `steps` lets queries on the same h at the same bound, as in one
    Banin-Tsaban outer round, share their powers of h: a pair (Powers of
    h, list of the giant steps h^(iq), i = 1, 2, ..., made so far), which
    the oracle extends as it probes further.  With None (the default) a
    query builds its own.  The walk, the scan order and the answer are
    the same either way; only the products made differ.
    """
    check_context(ctx).validate(h)
    ctx.validate(target)
    check_int(bound, "oracle bound", 1)
    q = ceil_sqrt(max(bound, 2))
    # every index of a value, not table_walk's first: one index's candidate
    # can fail the power check where another's verifies.  The per-entry
    # lists also set how often Python runs a full garbage collection:
    # about 160 times in a 36 s cycle-cheap benchmark run, against once
    # with an int-valued table.  Only a full collection frees the package
    # copies the benchmark re-imports after each pass, so without the
    # lists they pile up (peak RSS 20.7 -> 24.8 MiB, seed 3)
    table = table_walk_all(ctx, target, h, q)

    prod = ctx._product
    powers, giants = steps if steps is not None else (Powers(ctx, h), [])
    if not giants:
        giants.append(powers(q))
    made = 0
    for i in range(1, q + 2):
        if i > len(giants):
            giants.append(prod(giants[-1], giants[0]))
            made += 1
        for j in reversed(table.get(giants[i - 1], ())):
            cand = i * q - j
            if cand < 1:
                continue
            if powers(cand) == target:
                ctx.mult_count += made
                return cand
    ctx.mult_count += made
    raise OracleFailureError(
        f"no exponent k' <= {q * (q + 1)} maps h to the target")


@dataclass
class BaninRound(Trace):
    z: int
    pairs: list  # (k_i, k_i') tuples
    gcd_value: int


@dataclass
class BaninTrace(Trace):
    table_peak = None  # the oracle's tables are not tracked

    bound: int = 0
    rounds: list = field(default_factory=list)
    lcm_candidate: int = 0
    anchor_exponent: int | None = None
    verified: bool = False
    corrected_from: int | None = None
    failed_bounds: list = field(default_factory=list)
    multiplications: int = 0
    cycle_length: int | None = None


# Banin-Tsaban's default rounds.  Every answer is verified and reduced to
# the exact L, so the outer rounds buy only the chance p that an attempt
# verifies; a failed one retries at 4x the bound, which costs 2x as much.
# With o outer rounds an attempt costs o units and the expected total is
# o / (2p - 1).  An attempt at a bound >= the order verifies whenever
# gcd(z_1, ..., z_o, L) = 1, which for z drawn from a long range happens
# with probability prod_{p | L} (1 - p^-o) >= 1/zeta(o)
# (tests/test_success_rates.py measures it).  So whatever L is, the cost
# is at most o / (2/zeta(o) - 1) units: 9.27 at o = 2, 4.52 at o = 3,
# 4.72 at o = 4, 5.38 at o = 5 and 6.21 at o = 6; at o = 1 there is no
# bound for even L, where p is then near 1/2.
INNER_ROUNDS = 4
OUTER_ROUNDS = 3


def _banin_attempt(ctx, powers, bound, inner, outer, rng, trace):
    """One attempt at one bound, its powers of x taken from the ladder
    `powers`.  An outer round's h, its targets h^k and its oracle queries
    share one ladder of h and one list of giant steps."""
    rounds = []
    acc = 1
    anchor = None
    for _ in range(outer):
        z = rng.randint(max(1, bound // 2), bound)
        h = powers(z)
        h_powers = Powers(ctx, h)
        steps = (h_powers, [])
        g = 0
        pairs = []
        for _ in range(inner):
            k = rng.randint(bound + 1, 2 * bound)
            target = h_powers(k)
            try:
                kp = group_dlog_oracle(ctx, h, target, bound, steps)
            except OracleFailureError:
                trace.rounds = rounds
                return None
            pairs.append((k, kp))
            if kp != k:
                # equal elements at distinct exponents z*kp and z*k certify
                # that z*kp already sits inside the cycle
                cert = z * min(kp, k)
                anchor = cert if anchor is None else min(anchor, cert)
            g = math.gcd(g, abs(k - kp))
        rounds.append(BaninRound(z, pairs, g))
        if g:
            acc = math.lcm(acc, g)
    trace.rounds = rounds
    trace.lcm_candidate = acc
    trace.anchor_exponent = anchor
    if anchor is None or acc >= 1 << 63:
        return None
    length = _least_period(ctx, powers, powers(anchor), acc)
    if length is None:
        return None
    trace.verified = True
    trace.corrected_from = acc if length != acc else None
    return length


def banin_tsaban_cycle_length(ctx: SemigroupContext, x, bound: int = 16,
                              inner_rounds: int = INNER_ROUNDS,
                              outer_rounds: int | None = None,
                              seed: int = 0):
    """Banin-Tsaban cycle length; returns (L, BaninTrace).

    Each outer round draws z in [bound/2, bound], sets h = x^z and gcds
    the differences k_i - k_i' over `inner_rounds` oracle queries with
    random k_i in [bound+1, 2*bound]; the per-round gcds accumulate by
    lcm.  The accumulated candidate is checked against a certified
    in-cycle exponent and reduced by prime cofactors to the cycle length;
    any failure (oracle miss because z fell below the cycle start, no
    certificate, candidate not a multiple) quadruples the bound and
    retries.
    Rounds default to INNER_ROUNDS = 4 and OUTER_ROUNDS = 3 (None means the
    default), the outer count that minimises the bound on the expected
    cost derived beside OUTER_ROUNDS.  `outer_rounds=1` has unbounded
    expected cost when L is even: about half the attempts draw an even z
    and fail, and o / (2p - 1) grows without limit as the chance p that
    an attempt verifies falls to 1/2.  On the 72 Banin-Tsaban tasks of
    perfbench's cycle-cheap workload (seed 11) it averages 418,133
    multiplications per call, against 8,517 at the default.
    """
    check_context(ctx).validate(x)
    check_int(bound, "bound", 2)
    check_int(inner_rounds, "inner_rounds", 1)
    if outer_rounds is not None:
        check_int(outer_rounds, "outer_rounds", 1)
    outer = OUTER_ROUNDS if outer_rounds is None else outer_rounds
    rng = random.Random(seed)
    trace = BaninTrace()
    powers = Powers(ctx, x)

    def attempt(m):
        trace.bound = m
        return _banin_attempt(ctx, powers, m, inner_rounds, outer, rng,
                              trace)

    return _doubling_search(ctx, trace, attempt, bound, True, None,
                            trace.failed_bounds)


CYCLE_ALGORITHMS = ("deterministic", "monico", "banin-tsaban", "brute")


def find_cycle(ctx: SemigroupContext, x, alg: str, bound: int | None = None,
               divisor_bound: int = 10 ** 4, rounds: tuple | None = None,
               seed: int = 0):
    """Cycle structure of x by the algorithm named `alg`, one of
    CYCLE_ALGORITHMS; returns (CycleStructure, trace or None).

    "brute" enumerates powers and has no trace.  Every other algorithm
    computes the cycle length (bound-free when `bound` is None) and then
    runs cycle_start_search.  `divisor_bound` and `seed` go to Monico;
    Banin-Tsaban takes its starting bound from `bound` (16 when None),
    `rounds` = (inner, outer) (None: (INNER_ROUNDS, OUTER_ROUNDS) =
    (4, 3)) and `seed`.
    """
    if alg == "brute":
        return brute_force_cycle(ctx, x), None
    if alg == "deterministic":
        length, trace = deterministic_cycle_length(ctx, x, bound)
    elif alg == "monico":
        length, trace = monico_cycle_length(ctx, x, bound, divisor_bound,
                                            seed)
    elif alg == "banin-tsaban":
        try:
            inner, outer = rounds or (INNER_ROUNDS, OUTER_ROUNDS)
        except (TypeError, ValueError):
            raise DomainError(f"rounds must be a pair (inner, outer), "
                              f"got {rounds!r}") from None
        length, trace = banin_tsaban_cycle_length(
            ctx, x, 16 if bound is None else bound, inner_rounds=inner,
            outer_rounds=outer, seed=seed)
    else:
        raise SemigroupError(f"unknown cycle algorithm {alg!r}; expected "
                             f"one of {', '.join(CYCLE_ALGORITHMS)}")
    return CycleStructure(cycle_start_search(ctx, x, length), length), trace


def cycle_structure(ctx: SemigroupContext, x,
                    known_bound: int | None = None) -> CycleStructure:
    """Full (start, length, order) via the deterministic route."""
    return find_cycle(ctx, x, "deterministic", known_bound)[0]
