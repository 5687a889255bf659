"""Cycle-length and cycle-start computation for torsion elements.

Four routes to the cycle structure:

  brute_force_cycle           exhaustive power enumeration; the ground
                              truth every other route is tested against
  deterministic_cycle_length  doubling baby-step/giant-step rounds; exact
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
    OracleFailureError,
    SemigroupContext,
    SemigroupError,
    power,
)
from .numtheory import (
    ceil_sqrt,
    factor_integer,
    next_prime,
    prime_power_divisors_below,
)

BRUTE_FORCE_CAP = 10 ** 7
_DOUBLING_CAP = 1 << 62


def brute_force_cycle(ctx: SemigroupContext, x, cap: int = BRUTE_FORCE_CAP) -> CycleStructure:
    """Exact cycle structure by iterating x, x^2, ... until the first
    repeated value.

    The first repeated value, seen at exponent b with an earlier
    occurrence at a, gives cycle start a and cycle length b - a.  Raises
    when no repeat shows up within `cap` steps (element not torsion within
    cap).
    """
    ctx.validate(x)
    seen = {}
    cur = x
    exp = 1
    while exp <= cap:
        prior = seen.get(cur)
        if prior is not None:
            return CycleStructure(prior, exp - prior)
        seen[cur] = exp
        cur = ctx.mul(cur, x)
        exp += 1
    raise SemigroupError(f"no repeated power within {cap} steps; "
                         "element may not be torsion")


@dataclass(frozen=True)
class Alg4Round:
    """One doubling round of the deterministic algorithm."""

    bound: int
    stride: int
    baby_hit: int | None
    giant_hit: tuple | None
    candidate: int | None
    accepted: bool
    table_size: int

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "stride": self.stride,
            "baby_hit": self.baby_hit,
            "giant_hit": list(self.giant_hit) if self.giant_hit else None,
            "candidate": self.candidate,
            "accepted": self.accepted,
            "table_size": self.table_size,
        }


@dataclass
class Alg4Trace:
    rounds: list = field(default_factory=list)
    multiplications: int = 0
    cycle_length: int | None = None

    @property
    def table_peak(self) -> int:
        return max((r.table_size for r in self.rounds), default=0)

    def to_json(self) -> dict:
        return {
            "rounds": [r.to_json() for r in self.rounds],
            "multiplications": self.multiplications,
            "cycle_length": self.cycle_length,
            "table_peak": self.table_peak,
        }


def _alg4_round(ctx: SemigroupContext, x, bound: int):
    """One baby/giant round at the given bound.

    Baby phase: walk x^N, x^(N+1), ..., x^(N+q) with q = ceil(sqrt(N)),
    comparing each against x^N (a hit at step j means the cycle length is
    exactly j, since equal powers at distinct exponents certify both lie
    in the cycle).  The powers x^(N+j) for j < q form the lookup table,
    keyed by the element; a value met twice keeps its largest j.

    Giant phase: probe x^(N+iq) for i = 1..q against the table.  A match
    at minimal i yields candidate iq - j, which is provably the cycle
    length when N >= max(cycle start, cycle length) but can be a proper
    multiple when the table straddles the cycle start.  The candidate is
    therefore accepted only after checking x^N = x^(N + candidate); a
    failed check means this round's bound was too small and the caller
    doubles.
    """
    q = ceil_sqrt(bound)
    base = power(ctx, x, bound)
    table = {base: 0}
    cur = base
    for j in range(1, q + 1):
        cur = ctx.mul(cur, x)
        if cur == base:
            # x^N .. x^(N+j-1) were tabulated
            rec = Alg4Round(bound, q, j, None, j, True, j)
            return j, rec
        if j < q:
            table[cur] = j

    step = power(ctx, x, q)
    probe = cur  # x^(N+q), the i = 1 giant value
    for i in range(1, q + 1):
        if i > 1:
            probe = ctx.mul(probe, step)
        j = table.get(probe)
        if j is not None:
            candidate = i * q - j
            accepted = ctx.mul(power(ctx, x, candidate), base) == base
            rec = Alg4Round(bound, q, None, (i, j), candidate, accepted, q)
            return (candidate if accepted else None), rec
    rec = Alg4Round(bound, q, None, None, None, False, q)
    return None, rec


def deterministic_cycle_length(ctx: SemigroupContext, x,
                               known_bound: int | None = None):
    """Exact cycle length of a torsion element; returns (L, Alg4Trace).

    Without a bound, rounds run at N = 1, 2, 4, ... until a validated
    collision appears, which is guaranteed once N reaches
    max(cycle start, cycle length).  With `known_bound` (an upper bound on
    the order), a single round at that bound suffices and a failure to
    find a collision raises instead of doubling.
    """
    ctx.validate(x)
    trace = Alg4Trace()
    start_count = ctx.mult_count
    if known_bound is not None:
        if known_bound < 1:
            raise SemigroupError("known_bound must be >= 1")
        result, rec = _alg4_round(ctx, x, known_bound)
        trace.rounds.append(rec)
        trace.multiplications = ctx.mult_count - start_count
        if result is None:
            raise SemigroupError(
                f"no validated collision at bound {known_bound}; the bound "
                "must be at least max(cycle start, cycle length)")
        trace.cycle_length = result
        return result, trace

    bound = 1
    while bound <= _DOUBLING_CAP:
        result, rec = _alg4_round(ctx, x, bound)
        trace.rounds.append(rec)
        if result is not None:
            trace.multiplications = ctx.mult_count - start_count
            trace.cycle_length = result
            return result, trace
        bound *= 2
    raise SemigroupError("doubling cap exceeded; element may not be torsion")


def cycle_start_search(ctx: SemigroupContext, x, cycle_length: int,
                       max_start: int = _DOUBLING_CAP) -> int:
    """Cycle start via doubling then bisection, given the true cycle length.

    The predicate "x^(c + L) = x^c" holds exactly for c >= cycle start
    (it also holds when L is any positive multiple of the true cycle
    length, so a Monico-style overshoot still yields the correct start).
    Costs O((log N)^2) multiplications.  `max_start` guards against a
    candidate L that is not a multiple of the true cycle length, for which
    the predicate never holds.
    """
    ctx.validate(x)
    if cycle_length < 1:
        raise SemigroupError("cycle_length must be >= 1")
    step = power(ctx, x, cycle_length)

    def holds(c: int) -> bool:
        xc = power(ctx, x, c)
        return ctx.mul(xc, step) == xc

    s = 1
    while not holds(s):
        s *= 2
        if s > max_start:
            raise SemigroupError(
                f"x^(c+{cycle_length}) never equals x^c for c <= {max_start}; "
                "the supplied cycle length is not a multiple of the true one")
    if s == 1:
        return 1
    lo = s // 2  # predicate known false here
    while s - lo >= 2:
        mid = (lo + s) // 2
        if holds(mid):
            s = mid
        else:
            lo = mid
    return s


def least_period(ctx: SemigroupContext, x, base, g: int) -> int:
    """The cycle length, from a multiple g of it verified at an in-cycle
    element `base` (so x^g * base = base).

    Prime-cofactor reduction: for each prime p of g in ascending order,
    divide g by p while x^(g/p) * base = base still holds.  The periods of
    `base` are exactly the multiples of the cycle length, so what remains
    is the least one.  Costs at most one check per prime factor of g,
    counted with multiplicity, plus one per distinct prime.
    """
    try:
        primes = factor_integer(g)
    except ValueError as exc:
        raise SemigroupError(f"cannot reduce {g}: {exc}") from None
    for p, _ in primes:
        while g % p == 0 and ctx.mul(power(ctx, x, g // p), base) == base:
            g //= p
    return g


@dataclass
class MonicoTrace:
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
        return self.m + 1

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "m": self.m,
            "prime": self.prime,
            "duplicate_pair": list(self.duplicate_pair) if self.duplicate_pair else None,
            "collision_one": list(self.collision_one) if self.collision_one else None,
            "collision_two": list(self.collision_two) if self.collision_two else None,
            "gcd": self.gcd_value,
            "divisor_bound": self.divisor_bound,
            "stripped_divisors": self.stripped_divisors,
            "failed_bounds": self.attempts,
            "multiplications": self.multiplications,
            "cycle_length": self.cycle_length,
        }


def monico_strip(ctx: SemigroupContext, x, anchor_exp: int, g: int,
                 divisor_bound: int, record: list | None = None) -> int:
    """Divisor-stripping step: reduce a multiple g of the cycle length.

    The divisor list is the set of prime-power divisors of the *original*
    g that do not exceed `divisor_bound`, tested in decreasing order; g is
    replaced by g/d whenever x^(anchor_exp + g/d) = x^(anchor_exp) holds.
    The list is not recomputed as g shrinks, so prime factors above the
    bound are never removed and the result can stay a proper multiple.
    """
    ctx.validate(x)
    if g < 1:
        raise SemigroupError("g must be >= 1")
    base = power(ctx, x, anchor_exp)
    for d in prime_power_divisors_below(g, divisor_bound):
        if g % d:
            continue
        cand = g // d
        if cand < 1:
            continue
        if ctx.mul(power(ctx, x, cand), base) == base:
            g = cand
            if record is not None:
                record.append(d)
    return g


def _monico_round(ctx, x, bound, divisor_bound, trace):
    m = ceil_sqrt(bound)
    q = next_prime(bound)
    trace.bound, trace.m, trace.prime = bound, m, q

    # table[x^(q + i*m)] = the first i reaching that value, i = 0..m; the
    # first repeat met spans one period P = L/gcd(L, m) of the index, as
    # in-cycle entries repeat exactly every P steps and earlier ones never
    cur = power(ctx, x, q)
    step = power(ctx, x, m)
    table = {cur: 0}
    duplicate = None
    for i in range(1, m + 1):
        cur = ctx.mul(cur, step)
        first = table.setdefault(cur, i)
        if first != i and duplicate is None:
            duplicate = (first, i)

    # strip at an exponent the collision certifies to lie in the cycle
    # (the smaller of two with equal powers): at a pre-cycle exponent no
    # proper divisor of g ever closes the cycle
    if duplicate is not None:
        i1, i2 = duplicate
        trace.duplicate_pair = duplicate
        g = (i2 - i1) * m
        anchor = q + i1 * m
    else:
        def least_shift(offset_exp):
            # smallest b in [1, m] with x^(offset_exp + b) in the table;
            # b = m does occur: consecutive table residues can sit exactly
            # m apart, so the open window [1, m) is not always enough
            cur = power(ctx, x, offset_exp)
            for b in range(1, m + 1):
                cur = ctx.mul(cur, x)
                i = table.get(cur)
                if i is not None:
                    return b, i
            return None, None

        b1, a1 = least_shift(q)
        if b1 is None:
            return None
        b2, a2 = least_shift(2 * q)
        if b2 is None:
            return None
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
    search then doubles an internal bound until collisions appear), the
    output is a positive multiple of the cycle length; it equals the cycle
    length unless stripping misses a factor above `divisor_bound`, an
    event whose probability drops off as (1 - 1/B)^log(g).

    The computation is deterministic: the prime offset is the smallest
    prime above the bound.  `seed` is accepted for interface uniformity
    with the randomized routes and is unused here.
    """
    del seed
    ctx.validate(x)
    if divisor_bound < 2:
        raise SemigroupError("divisor_bound must be >= 2")
    trace = MonicoTrace(divisor_bound=divisor_bound)
    start_count = ctx.mult_count
    doubling = bound is None
    n = 1 if doubling else bound
    if n < 1:
        raise SemigroupError("bound must be >= 1")
    while True:
        result = _monico_round(ctx, x, n, divisor_bound, trace)
        if result is not None:
            trace.multiplications = ctx.mult_count - start_count
            trace.cycle_length = result
            return result, trace
        if not doubling:
            raise SemigroupError(
                f"no collision within bound {bound}; the bound must be at "
                "least the order of the element")
        trace.attempts.append(n)
        n *= 2
        if n > _DOUBLING_CAP:
            raise SemigroupError("doubling cap exceeded; element may not be torsion")


def group_dlog_oracle(ctx: SemigroupContext, h, target, bound: int) -> int:
    """Smallest verified k' with h^k' = target found by inverse-free
    collision search, or OracleFailureError.

    Baby steps walk target*h^j for j = 1..q and giant probes h^(iq) for
    i = 1..q+1 with q = ceil(sqrt(bound)); a match suggests k' = iq - j,
    which is confirmed against h^k' = target before being returned (the
    cancellation step behind the suggestion is only sound when h already
    lies inside its cycle, so candidates are never trusted blindly).
    Candidates are scanned in increasing order, making the returned
    exponent the smallest one the table can express; it is at most
    q(q+1) <= 2*bound.
    """
    ctx.validate(h)
    ctx.validate(target)
    if bound < 1:
        raise SemigroupError("oracle bound must be >= 1")
    q = ceil_sqrt(max(bound, 2))
    table = {target: [0]}  # element -> every j with target*h^j equal to it
    cur = target
    for j in range(1, q + 1):
        cur = ctx.mul(cur, h)
        table.setdefault(cur, []).append(j)

    step = power(ctx, h, q)
    probe = step
    for i in range(1, q + 2):
        if i > 1:
            probe = ctx.mul(probe, step)
        for j in reversed(table.get(probe, ())):
            cand = i * q - j
            if cand < 1:
                continue
            if power(ctx, h, cand) == target:
                return cand
    raise OracleFailureError(
        f"no exponent k' <= {q * (q + 1)} maps h to the target")


@dataclass
class BaninRound:
    z: int
    pairs: list  # (k_i, k_i') tuples
    gcd_value: int

    def to_json(self) -> dict:
        return {"z": self.z, "pairs": [list(p) for p in self.pairs],
                "gcd": self.gcd_value}


@dataclass
class BaninTrace:
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

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "rounds": [r.to_json() for r in self.rounds],
            "lcm_candidate": self.lcm_candidate,
            "anchor_exponent": self.anchor_exponent,
            "verified": self.verified,
            "corrected_from": self.corrected_from,
            "failed_bounds": self.failed_bounds,
            "multiplications": self.multiplications,
            "cycle_length": self.cycle_length,
        }


def _default_outer_rounds(bound: int) -> int:
    if bound < 4:
        return 2
    return math.ceil(math.log2(max(2.0, math.log2(bound)))) + 1


def _banin_attempt(ctx, x, bound, inner, outer, rng, trace):
    rounds = []
    acc = 1
    anchor = None
    for _ in range(outer):
        z = rng.randint(max(1, bound // 2), bound)
        h = power(ctx, x, z)
        g = 0
        pairs = []
        for _ in range(inner):
            k = rng.randint(bound + 1, 2 * bound)
            target = power(ctx, h, k)
            try:
                kp = group_dlog_oracle(ctx, h, target, bound)
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
    base = power(ctx, x, anchor)
    if ctx.mul(power(ctx, x, acc), base) != base:
        return None
    # candidate verified to be a multiple of the cycle length; reduce it
    # by its prime cofactors to the cycle length
    length = least_period(ctx, x, base, acc)
    trace.verified = True
    trace.corrected_from = acc if length != acc else None
    return length


def banin_tsaban_cycle_length(ctx: SemigroupContext, x, bound: int = 16,
                              inner_rounds: int = 4,
                              outer_rounds: int | None = None,
                              seed: int = 0, max_doublings: int = 48):
    """Banin-Tsaban cycle length; returns (L, BaninTrace).

    Each outer round draws z in [bound/2, bound], sets h = x^z and gcds
    the differences k_i - k_i' over `inner_rounds` oracle queries with
    random k_i in [bound+1, 2*bound]; the per-round gcds accumulate by
    lcm.  The accumulated candidate is checked against a certified
    in-cycle exponent and reduced by prime cofactors to the cycle length;
    any failure (oracle miss because z fell below the cycle start, no
    certificate, candidate not a multiple) doubles the bound and retries.
    Outer rounds default to ceil(log2 log2 bound) + 1.
    """
    ctx.validate(x)
    if bound < 2:
        raise SemigroupError("bound must be >= 2")
    if inner_rounds < 1:
        raise SemigroupError("inner_rounds must be >= 1")
    if outer_rounds is not None and outer_rounds < 1:
        raise SemigroupError("outer_rounds must be >= 1")
    rng = random.Random(seed)
    trace = BaninTrace()
    start_count = ctx.mult_count
    m = bound
    for _ in range(max_doublings):
        outer = outer_rounds if outer_rounds is not None else _default_outer_rounds(m)
        trace.bound = m
        result = _banin_attempt(ctx, x, m, inner_rounds, outer, rng, trace)
        if result is not None:
            trace.multiplications = ctx.mult_count - start_count
            trace.cycle_length = result
            return result, trace
        trace.failed_bounds.append(m)
        m *= 2
    raise SemigroupError(
        f"no verified cycle length within {max_doublings} doublings")


CYCLE_ALGORITHMS = ("deterministic", "monico", "banin-tsaban", "brute")


def find_cycle(ctx: SemigroupContext, x, alg: str, bound: int | None = None,
               divisor_bound: int = 10 ** 4, rounds: tuple | None = None,
               seed: int = 0):
    """Cycle structure of x by the algorithm named `alg`, one of
    CYCLE_ALGORITHMS; returns (CycleStructure, trace or None).

    "brute" enumerates powers and has no trace.  Every other algorithm
    computes the cycle length (bound-free when `bound` is None) and then
    runs cycle_start_search.  `divisor_bound` and `seed` go to Monico;
    Banin-Tsaban takes `bound` or 16 as its starting bound, `rounds` =
    (inner, outer) or (4, None), and `seed`.
    """
    if alg == "brute":
        return brute_force_cycle(ctx, x), None
    if alg == "deterministic":
        length, trace = deterministic_cycle_length(ctx, x, bound)
    elif alg == "monico":
        length, trace = monico_cycle_length(ctx, x, bound, divisor_bound,
                                            seed)
    elif alg == "banin-tsaban":
        inner, outer = rounds or (4, None)
        length, trace = banin_tsaban_cycle_length(
            ctx, x, bound or 16, inner_rounds=inner, outer_rounds=outer,
            seed=seed)
    else:
        raise SemigroupError(f"unknown cycle algorithm {alg!r}; expected "
                             f"one of {', '.join(CYCLE_ALGORITHMS)}")
    return CycleStructure(cycle_start_search(ctx, x, length), length), trace


def cycle_structure(ctx: SemigroupContext, x,
                    known_bound: int | None = None) -> CycleStructure:
    """Full (start, length, order) via the deterministic route."""
    return find_cycle(ctx, x, "deterministic", known_bound)[0]
