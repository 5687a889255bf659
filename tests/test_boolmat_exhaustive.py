"""Every boolean matrix of dimension 1-3 against the brute-force oracle.

Boolean matrices are the family whose in-memory form is furthest from its
spec (one packed int), and the small dimensions are few enough to take
all of them: 2 + 16 + 512 elements.
"""

import random

import pytest

from semidlog import (
    BoolMatContext,
    NoSolutionError,
    brute_force_cycle,
    find_cycle,
    parse_element_spec,
    pohlig_hellman_dlog,
    power,
    semigroup_dlog,
    solution_set,
)


def all_boolmats(dim):
    """Every dim x dim boolean matrix, built from its nested rows."""
    n = dim * dim
    for bits in range(1 << n):
        flat = [(bits >> (n - 1 - p)) & 1 for p in range(n)]
        rows = [flat[i:i + dim] for i in range(0, n, dim)]
        ctx, x = parse_element_spec({"type": "boolmat", "entries": rows})
        yield ctx, x


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("alg", ["deterministic", "monico", "banin-tsaban"])
def test_every_boolmat_cycle_matches_brute_force(dim, alg):
    count = 0
    for ctx, x in all_boolmats(dim):
        expected = brute_force_cycle(BoolMatContext(dim), x)
        got, _ = find_cycle(ctx, x, alg)
        assert got == expected, (alg, ctx.element_json(x))
        count += 1
    assert count == 2 ** (dim * dim)


def test_boolmat_dlog_round_trip():
    rng = random.Random(11)
    for dim in (2, 3):
        elems = list(all_boolmats(dim))
        for ctx, x in rng.sample(elems, 12):
            cyc = brute_force_cycle(ctx, x)
            for m in sorted(rng.sample(range(1, 3 * cyc.order + 2), 4)):
                y = power(ctx, x, m)
                for solver in (semigroup_dlog, pohlig_hellman_dlog):
                    sol, _ = solver(ctx, x, y, cyc)
                    assert sol == solution_set(m, cyc)
            # any other matrix: the least exponent reaching it, or none
            powers = {}
            for k in range(cyc.order, 0, -1):
                powers[power(ctx, x, k)] = k
            _, z = rng.choice(elems)
            for solver in (semigroup_dlog, pohlig_hellman_dlog):
                if z in powers:
                    sol, _ = solver(ctx, x, z, cyc)
                    assert sol == solution_set(powers[z], cyc)
                else:
                    with pytest.raises(NoSolutionError):
                        solver(ctx, x, z, cyc)
