"""The fast products against the plain generator-expression products they
replaced: the packed boolmat product, the itemgetter transformation
product and the generated per-dimension matmod kernel.

The product references work on nested row tuples and 0-indexed image
tuples; they live in `semidlog.selftest`, whose product-reference suite
uses them too.  Products and keys of the fast forms must agree with them,
products through `element_json` and keys byte for byte with version 1.
The matmod kernel is shared by every modulus of one dimension, so it must
reduce by the modulus it is given, never by one fixed when it was built.
"""

import random

import pytest

from semidlog import (
    BoolMatContext,
    IncompatibleElementError,
    MatModContext,
    TransformationContext,
    parse_element_spec,
)
from semidlog.selftest import (
    ref_boolmat_product,
    ref_matmod_product,
    ref_transformation_product,
)


def ref_boolmat_key(a):
    val = 0
    for row in a:
        for bit in row:
            val = (val << 1) | bit
    return val.to_bytes((len(a) ** 2 + 7) // 8, "big")


def ref_transformation_key(a):
    return bytes(v + 1 for v in a)


def ref_transformation_valid(degree, a):
    return (isinstance(a, tuple) and len(a) == degree
            and all(isinstance(v, int) and 0 <= v < degree for v in a))


def _rows(doc):
    return tuple(tuple(row) for row in doc["entries"])


@pytest.mark.parametrize("dim", range(1, 13))
def test_boolmat_product_matches_reference(dim):
    rng = random.Random(f"boolmat-ref/{dim}")
    ctx = BoolMatContext(dim)
    # uniform, sparse and dense entries
    for density in (0.5, 0.1, 0.9):
        for _ in range(15):
            rows = [[int(rng.random() < density) for _ in range(dim)]
                    for _ in range(dim)]
            _, a = parse_element_spec({"type": "boolmat", "entries": rows})
            b = ctx.mul(a, a)
            c = ctx.mul(a, b)
            for x, y in ((a, a), (a, b), (b, a), (c, a), (b, c)):
                ra, rb = _rows(ctx.element_json(x)), _rows(ctx.element_json(y))
                got = ctx.element_json(ctx._product(x, y))
                assert _rows(got) == ref_boolmat_product(ra, rb)
                assert ctx.key(x) == ref_boolmat_key(ra)
                assert ctx.validate(x) == x


def test_boolmat_element_is_its_key_integer():
    ctx, a = parse_element_spec(
        {"type": "boolmat", "entries": [[1, 1, 1], [0, 0, 0], [1, 0, 1]]})
    assert a == 0b111_000_101 == int.from_bytes(ctx.key(a), "big")
    assert ctx.element_json(a)["entries"] == [[1, 1, 1], [0, 0, 0],
                                              [1, 0, 1]]


@pytest.mark.parametrize("bad", [
    ((1, 0), (0, 1)), -1, 1 << 4, 1.0, "9", None, True, False])
def test_boolmat_validate_rejects(bad):
    with pytest.raises(IncompatibleElementError):
        BoolMatContext(2).validate(bad)


@pytest.mark.parametrize("modulus", [2, 19, 27, 2 ** 61 - 1])
@pytest.mark.parametrize("dim", [*range(1, 9), 16, 64])
def test_matmod_kernel_matches_reference(dim, modulus):
    rng = random.Random(f"matmod-ref/{dim}/{modulus}")
    ctx = MatModContext(dim, modulus)
    rng_dim = range(dim)
    zero = tuple(tuple(0 for _ in rng_dim) for _ in rng_dim)
    ident = tuple(tuple(int(i == j) for j in rng_dim) for i in rng_dim)
    # random entries, and the largest residue everywhere, whose sums of
    # products run past 2^64 at modulus 2^61 - 1
    top = tuple(tuple(modulus - 1 for _ in rng_dim) for _ in rng_dim)
    elems = [top] + [
        tuple(tuple(rng.randrange(modulus) for _ in rng_dim)
              for _ in rng_dim)
        for _ in range(3 if dim < 16 else 1)]
    for a in elems:
        for x, y in ((a, a), (a, elems[-1]), (elems[-1], a), (a, zero),
                     (zero, a), (a, ident), (ident, a)):
            got = ctx._product(x, y)
            assert got == ref_matmod_product(x, y, modulus)
            assert ctx.validate(got) == got
        assert ctx._product(a, zero) == ctx._product(zero, a) == zero
        assert ctx._product(a, ident) == ctx._product(ident, a) == a


def test_matmod_kernel_is_shared_per_dimension_and_takes_the_modulus():
    small, large = MatModContext(3, 19), MatModContext(3, 27)
    assert small._kernel is large._kernel
    assert MatModContext(2, 19)._kernel is not small._kernel
    a = ((18, 18, 18), (1, 2, 3), (0, 17, 5))  # an element of both
    # both contexts exist before any product, and they alternate, so a
    # modulus fixed when the kernel was built fails one of them
    for ctx in (small, large, small):
        assert ctx._product(a, a) == ref_matmod_product(a, a, ctx.modulus)
    assert small._product(a, a) != large._product(a, a)


@pytest.mark.parametrize("degree", [1, 2, 64, 255])
def test_transformation_product_matches_reference(degree):
    rng = random.Random(f"transformation-ref/{degree}")
    ctx = TransformationContext(degree)
    for _ in range(40):
        maps = [[rng.randrange(degree) + 1 for _ in range(degree)]
                for _ in range(2)]
        a, b = (parse_element_spec({"type": "transformation", "map": m})[1]
                for m in maps)
        got = ctx._product(a, b)
        assert type(got) is tuple
        assert ctx.element_json(got) == ctx.element_json(
            ref_transformation_product(a, b))
        assert ctx.key(a) == ref_transformation_key(a)
        assert ctx.validate(got) == got


class _Int(int):
    pass


class _Tuple(tuple):
    pass


class _Index:
    """Not an int, but bytes() takes it as one."""

    def __index__(self):
        return 0


class _IntLike(_Index):
    """Not an int, but it also equals and hashes as 0."""

    def __eq__(self, other):
        return other == 0

    def __hash__(self):
        return 0


class _BadIndex:
    def __index__(self):
        raise ZeroDivisionError


@pytest.mark.parametrize("degree", [1, 2, 5, 64, 255])
def test_transformation_validate_matches_reference(degree):
    ok = tuple(range(degree))
    candidates = [
        ok, ok[::-1], (0,) * degree, (degree - 1,) * degree,
        list(ok), ok[:-1], ok + (0,), (),
        (degree,) + ok[1:], (-1,) + ok[1:], (1 << 70,) + ok[1:],
        (255,) + ok[1:], (256,) + ok[1:],
        (True,) + ok[1:], (False,) + ok[1:], (_Int(0),) + ok[1:],
        (_Int(degree),) + ok[1:], _Tuple(ok), _Tuple((degree,) + ok[1:]),
        (_Index(),) + ok[1:], (_IntLike(),) + ok[1:], (_BadIndex(),) + ok[1:],
        (0.0,) + ok[1:], ("0",) + ok[1:], (None,) + ok[1:],
        bytes(ok), "0" * degree, None, 0,
    ]
    ctx = TransformationContext(degree)
    for a in candidates:
        if ref_transformation_valid(degree, a):
            assert ctx.validate(a) is a
        else:
            with pytest.raises(IncompatibleElementError):
                ctx.validate(a)
