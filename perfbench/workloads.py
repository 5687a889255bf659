"""Seeded task lists for the three benchmark workloads.

A task is one cycle-structure computation or one discrete log.  The task
list is a pure function of (workload, seed): it holds plain parameters and
elements, never a context, so two calls with the same seed compare equal.

Sizes sit on a fixed log-spaced grid; the seed moves each task a little
inside its slot of the grid and picks everything else (splits, primes,
elements).  Every pass therefore holds the same mix of shapes, families
and algorithms at the same scales, which keeps the end-to-end figures
steady from one seed to the next.  For the same reason the randomized
cycle algorithms get the task's position as their seed: Banin-Tsaban's
cost alone swings by a quarter from one algorithm seed to another.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from arith import is_prime, prime_factors, primes_up_to

CYCLE_ALGS = ("deterministic", "monico", "banin-tsaban")
DLOG_SOLVERS = ("semigroup_dlog", "pohlig_hellman")

_SMALL_PRIMES = primes_up_to(1024)


@dataclass(frozen=True)
class Task:
    """One unit of work.

    Elements travel as element spec documents (JSON text), the package's
    external format, so the task list does not depend on how the package
    represents elements internally.
    """

    kind: str          # "cycle" or "dlog"
    label: str         # family/shape combination, for reporting
    family: str
    x_spec: str
    alg: str           # a CYCLE_ALGS or DLOG_SOLVERS entry
    alg_seed: int = 0
    planted: tuple | None = None   # (s, L) of x when known by construction
    y_spec: str | None = None      # dlog target
    m: int | None = None           # planted exponent; None for a non-power


def _spec(family: str, **fields) -> str:
    return json.dumps({"type": family, **fields}, sort_keys=True)


def _grid(rng, lo: float, hi: float, levels: int, i: int, j: int,
          slots: int) -> float:
    """Point for combination j of cell i of a `levels`-cell grid over
    [lo, hi].  Each cell is cut into `slots` sub-cells dealt out to the
    combinations by a fixed stride, and the seed jitters the point by up
    to a tenth of a sub-cell: sizes cover the range evenly and every seed
    gets nearly the same ones."""
    sub = (j * 7) % slots + 0.5 + rng.uniform(-0.1, 0.1)
    return lo + (hi - lo) * (i + sub / slots) / levels


# -- zmod elements with a planted cycle structure -------------------------

def _element_of_order(p: int, length: int, primes: list, rng) -> int:
    """Residue of multiplicative order exactly `length` modulo prime p."""
    cof = (p - 1) // length
    while True:
        h = pow(rng.randrange(2, p - 1), cof, p)
        if all(pow(h, length // r, p) != 1 for r in primes):
            return h


def _prime_with_subgroup(length: int, rng) -> int:
    """A prime p = k*length + 1 with even k >= 2, so <h> is a proper
    subgroup of the units and non-powers exist."""
    k = 2 * rng.randrange(1, 32)
    step = 1 if length % 2 == 0 else 2
    while not is_prime(k * length + 1):
        k += step
    return k * length + 1


def _crt_two(r_two: int, a: int, r_p: int, p: int) -> int:
    """Residue mod 2^a * p that is r_two mod 2^a and r_p mod p."""
    two = 1 << a
    return r_p + p * ((r_two - r_p) * pow(p, -1, two) % two)


def _zmod_planted(start: int, length: int, primes: list, rng):
    """(n, x, p, h) with x of cycle start `start` and cycle length `length`.

    n = 2^a * p with x = 2 (mod 2^a) and x of order `length` mod p: the
    2-part dies at exponent a, so the cycle starts at a (a >= 2), and
    start = 1 uses n = p alone.
    """
    p = _prime_with_subgroup(length, rng)
    h = _element_of_order(p, length, primes, rng)
    if start == 1:
        return p, h, p, h
    if start < 2:
        raise ValueError("zmod cycle start must be 1 or >= 2")
    return p << start, _crt_two(2, start, h, p), p, h




# -- cycle-cheap -----------------------------------------------------------

CHEAP_COMBOS = (
    ("monogenic", "s=1"), ("monogenic", "s~L"), ("monogenic", "s~N"),
    ("monogenic", "small-s"), ("zmod", "s=1"), ("zmod", "small-s"),
)


def cycle_cheap(seed: int, levels: int = 12, lo: float = 14.0,
                hi: float = 20.0) -> list:
    """Monogenic and zmod bases with orders log-spread over 2^lo..2^hi, in
    the four (s, L) shapes of the complexity envelope (zmod only has the
    two with a short tail), each algorithm on every combination."""
    rng = random.Random(f"cycle-cheap/{seed}")
    combos = [(f, sh, a) for f, sh in CHEAP_COMBOS for a in CYCLE_ALGS]
    tasks = []
    for i in range(levels):
        for j, (family, shape, alg) in enumerate(combos):
            order = round(2 ** _grid(rng, lo, hi, levels, i, j, len(combos)))
            s = {"s=1": 1, "s~L": order // 2,
                 "s~N": order - rng.randint(1, 4) + 1,
                 "small-s": rng.randint(2, 40)}[shape]
            length = order - s + 1
            if family == "monogenic":
                spec = _spec("monogenic", s=s, L=length, e=1)
            else:
                n, x, _, _ = _zmod_planted(s, length, prime_factors(length),
                                           rng)
                spec = _spec("zmod", modulus=n, value=x)
            tasks.append(Task("cycle", f"{family}/{shape}",
                              family, spec, alg, len(tasks), (s, length)))
    return tasks


# -- cycle-costly ----------------------------------------------------------

def _coprime_lengths(target: float, budget: int, rng) -> list:
    """Pairwise coprime prime powers summing to at most `budget`, with a
    product close to `target` (best of a few seeded draws)."""
    pool = [q for q in _SMALL_PRIMES if q <= budget]
    best, best_err = [1], float("inf")
    for _ in range(25):
        rng.shuffle(pool)
        picked, prod, used = [], 1, 0
        for q in pool:
            pk = q
            while (prod * pk * q <= target and used + pk * q <= budget
                   and rng.random() < 0.5):
                pk *= q
            if prod * pk <= target * 1.5 and used + pk <= budget:
                picked.append(pk)
                prod *= pk
                used += pk
        err = abs(math.log(prod / target))
        if err < best_err:
            best, best_err = picked or [1], err
    return best


def _planted_map(degree: int, cycles: list, depth: int, rng) -> list:
    """0-indexed images of a self-map of {0..degree-1} whose cycles have
    the given lengths and whose deepest point sits `depth` steps from a
    cycle (every leftover point maps straight onto a cycle)."""
    points = list(range(degree))
    rng.shuffle(points)
    image = [0] * degree
    pos = 0
    on_cycle = []
    for c in cycles:
        ring = points[pos:pos + c]
        pos += c
        for j, v in enumerate(ring):
            image[v] = ring[(j + 1) % c]
        on_cycle.extend(ring)
    target = rng.choice(on_cycle)
    for v in points[pos:pos + depth]:  # a chain, deepest point last
        image[v] = target
        target = v
    for v in points[pos + depth:]:
        image[v] = rng.choice(on_cycle)
    return image


def _boolmat_of_map(image: list) -> list:
    d = len(image)
    return [[1 if image[i] == j else 0 for j in range(d)] for i in range(d)]


COSTLY_COMBOS = (
    ("transformation", "short-tail"), ("transformation", "long-tail"),
    ("transformation", "random"), ("matmod", "random"),
    ("boolmat", "planted"), ("boolmat", "random"),
)
_MATMOD_PRIMES = (3, 5, 7, 11, 13, 17, 19)


def cycle_costly(seed: int, levels: int = 12, lo: float = 6.0,
                 hi: float = 12.0) -> list:
    """Transformation (degree 64-255), 3x3 matmod (small prime moduli) and
    boolmat (8x8 to 12x12) elements, each algorithm on every combination.

    Planted transformations get coprime cycle lengths with a product
    log-spread over 2^lo..2^hi and a tail of 0-3 or 8-16 points; planted
    boolmats are the matrices of permutation-plus-tail maps; random
    elements have uniform entries.
    """
    rng = random.Random(f"cycle-costly/{seed}")
    combos = [(f, sh, a) for f, sh in COSTLY_COMBOS for a in CYCLE_ALGS]
    tasks = []
    for i in range(levels):
        for j, (family, shape, alg) in enumerate(combos):
            pos = _grid(rng, 0.0, 1.0, levels, i, j, len(combos))
            planted = None
            if family == "transformation":
                degree = min(255, round(2 ** (6 + 2 * pos)))
                if shape == "random":
                    image = [rng.randrange(degree) for _ in range(degree)]
                else:
                    depth = rng.randint(0, 3) if shape == "short-tail" \
                        else rng.randint(8, 16)
                    cycles = _coprime_lengths(2 ** (lo + (hi - lo) * pos),
                                              degree - depth, rng)
                    image = _planted_map(degree, cycles, depth, rng)
                    planted = (max(1, depth), math.prod(cycles))
                spec = _spec(family, map=[v + 1 for v in image])
            elif family == "matmod":
                p = _MATMOD_PRIMES[min(len(_MATMOD_PRIMES) - 1,
                                       int(pos * len(_MATMOD_PRIMES)))]
                spec = _spec(family, modulus=p, entries=[
                    [rng.randrange(p) for _ in range(3)] for _ in range(3)])
            else:
                dim = min(12, 8 + int(5 * pos))
                if shape == "planted":
                    depth = rng.randint(0, 3)
                    cycles = _coprime_lengths(10 ** 3, dim - depth, rng)
                    entries = _boolmat_of_map(
                        _planted_map(dim, cycles, depth, rng))
                    planted = (max(1, depth), math.prod(cycles))
                else:
                    entries = [[rng.randrange(2) for _ in range(dim)]
                               for _ in range(dim)]
                spec = _spec(family, entries=entries)
            tasks.append(Task("cycle", f"{family}/{shape}",
                              family, spec, alg, len(tasks), planted))
    return tasks


# -- dlog ------------------------------------------------------------------

def _smooth_length(target: float, rng) -> list:
    """Prime factors (with multiplicity), all below 2^10, of a number
    within a few parts in a million of `target`: random primes up to
    about 2^20 below the target, then the 2^10-smooth integer nearest the
    remaining ratio."""
    factors, prod = [], 1
    while target / prod > 1 << 20:
        q = rng.choice(_SMALL_PRIMES)
        factors.append(q)
        prod *= q
    rest = round(target / prod)
    for d in range(rest):
        for n in (rest + d, rest - d):
            if n > 1 and max(_factor_small(n)) <= 1024:
                return sorted(factors + _factor_small(n))
    return sorted(factors)


def _factor_small(n: int) -> list:
    """Prime factors of n with multiplicity, by trial division."""
    out = []
    for p in prime_factors(n):
        while n % p == 0:
            out.append(p)
            n //= p
    return out


_COFACTOR_PRIMES = (11, 13, 17, 19)


def _rough_length(target: float, cofactors: int, rng) -> list:
    """Prime factors of u * P: `cofactors` small primes u and one large
    prime P close to target / u.  The small primes lie within a factor 2
    of each other, so a slot's P, which sets Pohlig-Hellman's cost, has
    nearly the same size for every seed."""
    small = [rng.choice(_COFACTOR_PRIMES) for _ in range(cofactors)]
    big = round(target / math.prod(small)) | 1
    while not is_prime(big):
        big += 2
    return sorted(small) + [big]


DLOG_COMBOS = tuple(
    (family, solver, lkind, target)
    for family in ("monogenic", "zmod")
    for solver in DLOG_SOLVERS
    for lkind in ("smooth", "rough")
    for target in ("unique", "progression", "non-power"))


def dlog(seed: int, levels: int = 12, lo: float = 20.0,
         hi: float = 30.0) -> list:
    """Discrete logs to monogenic and zmod bases whose planted cycle length
    is log-spread over 2^lo..2^hi, smooth or with one large prime factor.

    Targets are planted powers below the cycle start (answer `unique`),
    planted powers inside the cycle (answer `progression`) and same-instance
    non-powers (answer NoSolutionError).  Monogenic bases are g^c with
    c in {2, 3}, so the odd or non-multiple-of-3 exponents are non-powers;
    zmod non-powers leave the subgroup <x> modulo p.
    """
    rng = random.Random(f"dlog/{seed}")
    tasks = []
    for i in range(levels):
        for j, (family, solver, lkind, target) in enumerate(DLOG_COMBOS):
            size = 2 ** _grid(rng, lo, hi, levels, i, j, len(DLOG_COMBOS))
            factors = _smooth_length(size, rng) if lkind == "smooth" \
                else _rough_length(size, (i + j) % 3, rng)
            length = math.prod(factors)
            shape = "small-s" if target == "unique" else \
                ("s=1", "small-s", "s~L")[(i + j) % 3]
            if family == "zmod" and shape == "s~L":
                shape = "small-s"
            s = {"s=1": 1, "small-s": rng.randint(8, 40),
                 "s~L": length // 2 + rng.randrange(length)}[shape]
            if family == "monogenic" and target == "unique" and i % 2:
                s = length // 2 + rng.randrange(length)
            m = None
            if target == "unique":
                m = rng.randint(1, s - 1)
            elif target == "progression":
                m = s + rng.randrange(4 * length)

            if family == "monogenic":
                c = rng.choice((2, 3))
                gen_s, gen_len = c * s - rng.randrange(c), c * length
                order = gen_s + gen_len - 1

                def canon(e, gen_s=gen_s, gen_len=gen_len, order=order):
                    return e if e <= order else \
                        (e - gen_s) % gen_len + gen_s

                if m is not None:
                    y = canon(c * m)
                elif gen_s > 1 and i % 2:
                    y = rng.randrange(1, gen_s)  # pre-cycle
                    y += (y % c == 0) * (1 if y + 1 < gen_s else -1)
                else:
                    y = gen_s + rng.randrange(gen_len)
                    y += (y % c == 0) * (1 if y < order else -1)
                x_spec = _spec(family, s=gen_s, L=gen_len, e=c)
                y_spec = _spec(family, s=gen_s, L=gen_len, e=y)
            else:
                n, x, p, h = _zmod_planted(s, length, sorted(set(factors)),
                                           rng)
                if m is not None:
                    y = pow(x, m, n)
                else:
                    r = rng.randrange(2, p - 1)
                    while pow(r, length, p) == 1:
                        r = rng.randrange(2, p - 1)
                    if s == 1:
                        y = r
                    elif i % 2:  # pre-cycle: 2-adic part of x^a, a < s
                        a = rng.randint(1, s - 1)
                        while r == pow(h, a, p):
                            r = rng.randrange(2, p - 1)
                        y = _crt_two(2 ** a, s, r, p)
                    else:
                        y = _crt_two(0, s, r, p)
                x_spec = _spec(family, modulus=n, value=x)
                y_spec = _spec(family, modulus=n, value=y)
            tasks.append(Task("dlog",
                              f"{family}/{lkind}/{target}", family, x_spec,
                              solver, 0, (s, length), y_spec, m))
    return tasks


WORKLOADS = {
    "cycle-cheap": cycle_cheap,
    "cycle-costly": cycle_costly,
    "dlog": dlog,
}
