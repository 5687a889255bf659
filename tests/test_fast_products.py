"""The packed boolmat and itemgetter transformation products against the
plain nested-tuple and generator-expression products they replaced.

The product references work on the old in-memory forms (nested 0/1 row
tuples, 0-indexed image tuples); they live in `semidlog.selftest`, whose
product-reference suite uses them too.  Products and keys of the fast
forms must agree with them, products through `element_json` and keys
byte for byte with version 1.
"""

import random

import pytest

from semidlog import (
    BoolMatContext,
    IncompatibleElementError,
    TransformationContext,
    parse_element_spec,
)
from semidlog.selftest import ref_boolmat_product, ref_transformation_product


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
    ((1, 0), (0, 1)), -1, 1 << 4, 1.0, "9", None])
def test_boolmat_validate_rejects(bad):
    with pytest.raises(IncompatibleElementError):
        BoolMatContext(2).validate(bad)


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


@pytest.mark.parametrize("degree", [1, 2, 5])
def test_transformation_validate_matches_reference(degree):
    ok = tuple(range(degree))
    candidates = [
        ok, ok[::-1], (0,) * degree, (degree - 1,) * degree,
        list(ok), ok[:-1], ok + (0,), (),
        (degree,) + ok[1:], (-1,) + ok[1:], (1 << 70,) + ok[1:],
        (True,) + ok[1:], (False,) + ok[1:], (_Int(0),) + ok[1:],
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
