import json
import random

import pytest

from semidlog import (
    BoolMatContext,
    ElementSpecError,
    MatModContext,
    MonogenicContext,
    TransformationContext,
    ZModContext,
    brute_force_cycle,
    canonical_key,
    make_context,
    parse_element_spec,
    power,
    random_element,
)
from semidlog.instances import FAMILIES


def test_parse_zmod():
    ctx, elem = parse_element_spec('{"type":"zmod","modulus":100,"value":2}')
    assert isinstance(ctx, ZModContext)
    assert ctx.modulus == 100 and elem == 2


def test_parse_transformation_is_one_indexed_externally():
    ctx, elem = parse_element_spec('{"type":"transformation","map":[2,1,1,3]}')
    assert isinstance(ctx, TransformationContext)
    assert ctx.degree == 4
    assert elem == (1, 0, 0, 2)  # 0-indexed internally
    assert ctx.element_json(elem) == {"type": "transformation",
                                      "map": [2, 1, 1, 3]}


def test_parse_monogenic_generator():
    ctx, elem = parse_element_spec('{"type":"monogenic","s":5,"L":12,"e":1}')
    assert isinstance(ctx, MonogenicContext)
    assert (ctx.cycle_start, ctx.cycle_length) == (5, 12)
    assert elem == 1
    # e defaults to the generator
    _, elem2 = parse_element_spec('{"type":"monogenic","s":5,"L":12}')
    assert elem2 == 1


def test_parse_rejects_non_object_documents():
    with pytest.raises(ElementSpecError):
        parse_element_spec("[1, 2, 3]")
    with pytest.raises(ElementSpecError):
        parse_element_spec('"zmod"')


def test_parse_matrix_families():
    ctx, elem = parse_element_spec(
        '{"type":"matmod","modulus":5,"entries":[[1,2],[3,4]]}')
    assert ctx.describe() == {"type": "matmod", "dim": 2, "modulus": 5}
    assert elem == ((1, 2), (3, 4))
    ctx2, elem2 = parse_element_spec(
        '{"type":"boolmat","entries":[[1,0],[0,1]]}')
    assert isinstance(ctx2, BoolMatContext)
    assert elem2 == 0b1001


def test_parse_round_trip_through_element_json(instance_pool):
    for factory, elem in instance_pool[::6]:
        ctx = factory()
        doc = ctx.element_json(elem)
        ctx2, elem2 = parse_element_spec(json.dumps(doc))
        assert ctx2.describe() == ctx.describe()
        assert canonical_key(ctx2, elem2) == canonical_key(ctx, elem)


def test_parse_errors_carry_positions():
    with pytest.raises(ElementSpecError) as err:
        parse_element_spec('{"type":"octonion","x":1}')
    assert "$.type" in str(err.value)
    with pytest.raises(ElementSpecError) as err:
        parse_element_spec('{"type":"zmod","modulus":100,"value":100}')
    assert "$.value" in str(err.value)
    with pytest.raises(ElementSpecError) as err:
        parse_element_spec('{"type":"transformation","map":[2,1,5,3]}')
    assert "$.map[2]" in str(err.value)
    with pytest.raises(ElementSpecError) as err:
        parse_element_spec("{nope")
    assert "line 1" in str(err.value)
    with pytest.raises(ElementSpecError):
        parse_element_spec('{"type":"zmod","modulus":100}')
    with pytest.raises(ElementSpecError):
        parse_element_spec('{"type":"matmod","modulus":5,"entries":[[1,2],[3]]}')
    # JSON true is not the integer 1; an unhashable tag is an unknown family
    for spec, where in [
            ('{"type":"monogenic","s":3,"L":4,"e":true}', "$.e"),
            ('{"type":"transformation","map":[true,2]}', "$.map[0]"),
            ('{"type":[]}', "$.type"),
            ('{"type":"matmod","modulus":5,"entries":7}', "$.entries"),
            ('{"type":"boolmat","entries":[[1,0],[0,1.0]]}',
             "$.entries[1][1]"),
            # a field element_json does not write; the first in document
            # order, not sorted
            ('{"type":"monogenic","s":5,"L":12,"E":3}', "$.E"),
            ('{"z":0,"type":"zmod","modulus":9,"value":2,"a":0}', "$.z")]:
        with pytest.raises(ElementSpecError) as err:
            parse_element_spec(spec)
        assert err.value.where == where


# each constructor checks its parameters and names their spec paths
@pytest.mark.parametrize("cls,args,where", [
    (ZModContext, (1,), "$.modulus"),
    (MatModContext, (2, 1), "$.modulus"),
    (MatModContext, (0, 5), "$.entries"),
    (BoolMatContext, (0,), "$.entries"),
    (TransformationContext, (0,), "$.map"),
    (TransformationContext, (256,), "$.map"),
    (MonogenicContext, (0, 4), "$.s"),
    (MonogenicContext, (3, 0), "$.L"),
    (MatModContext, (65, 5), "$.dim"),
    (MatModContext, (10 ** 100, 5), "$.dim"),
    (BoolMatContext, (257,), "$.dim"),
    (BoolMatContext, (10 ** 9,), "$.dim"),
    (ZModContext, ("7",), "$.modulus"),
    (MatModContext, (2.0, 5), "$.dim"),
    (BoolMatContext, (True,), "$.dim"),
    (TransformationContext, (3.0,), "$.degree"),
    (MonogenicContext, (1.5, 2), "$.s"),
    (MonogenicContext, (1, None), "$.L"),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_constructors_reject_out_of_range_parameters(cls, args, where):
    with pytest.raises(ElementSpecError) as err:
        cls(*args)
    assert err.value.where == where


def test_matrix_dimension_caps():
    # the caps bound the constructors' precomputation (see the classes)
    assert (MatModContext.max_dim, BoolMatContext.max_dim) == (64, 256)
    assert BoolMatContext(256).dim == 256
    with pytest.raises(ElementSpecError, match="dim must be <= 64"):
        make_context("matmod", {"dim": 65, "modulus": 5})
    rows = [[0] * 257 for _ in range(257)]
    with pytest.raises(ElementSpecError, match="dim must be <= 256") as err:
        parse_element_spec({"type": "boolmat", "entries": rows})
    assert err.value.where == "$.dim"


def test_parse_rejects_bytes_that_are_not_unicode_text():
    with pytest.raises(ElementSpecError) as err:
        parse_element_spec(b"\xff\xfe{")
    assert "not UTF-8" in str(err.value)
    ctx, x = parse_element_spec(b'{"type":"zmod","modulus":10,"value":3}')
    assert (ctx.modulus, x) == (10, 3)


@pytest.mark.parametrize("text", [
    '{"type":"zmod","modulus":' + "9" * 5000 + ',"value":1}',
    "[" * 100000 + "]" * 100000,
], ids=["integer-past-digit-limit", "nesting-past-recursion-limit"])
def test_parse_rejects_json_past_decoder_limits(text):
    with pytest.raises(ElementSpecError) as err:
        parse_element_spec(text)
    assert str(err.value).startswith("malformed JSON: ")


# make_context takes exactly the integer fields of describe(); the
# constructors still check their ranges
@pytest.mark.parametrize("family, params, where, message", [
    ("zmod", {}, "$", "missing field 'modulus'"),
    ("matmod", {"dim": 2}, "$", "missing field 'modulus'"),
    ("zmod", {"modulus": 5, "value": 2}, "$.value", "unknown field"),
    ("monogenic", {"s": 1, "L": 2, "e": 1}, "$.e", "unknown field"),
    ("zmod", {"modulus": 5.0}, "$.modulus", "must be an integer"),
    ("transformation", {"degree": "3"}, "$.degree", "must be an integer"),
    ("boolmat", {"dim": True}, "$.dim", "must be an integer"),
    ("zmod", [("modulus", 5)], "$", "must be an object"),
    ("octonion", {}, "$.type", "unknown family"),
    ("monogenic", {"s": 0, "L": 3}, "$.s", "s must be >= 1"),
])
def test_make_context_rejects_malformed_parameters(family, params, where,
                                                   message):
    with pytest.raises(ElementSpecError, match=message) as err:
        make_context(family, params)
    assert err.value.where == where


def test_make_context_round_trips_describe():
    contexts = [ZModContext(100), MatModContext(3, 7), BoolMatContext(4),
                TransformationContext(6), MonogenicContext(5, 12)]
    # bench seeds are derived from each family's position in FAMILIES
    assert tuple(ctx.family for ctx in contexts) == FAMILIES
    for ctx in contexts:
        again = make_context(ctx.family, ctx.describe())
        assert type(again) is type(ctx)
        assert again.describe() == ctx.describe()


def test_random_element_is_seed_deterministic():
    for family, params in [
        ("zmod", {"modulus": 100}),
        ("matmod", {"dim": 2, "modulus": 5}),
        ("boolmat", {"dim": 3}),
        ("transformation", {"degree": 6}),
        ("monogenic", {"s": 4, "L": 9}),
    ]:
        a = random_element(family, params, 7)
        b = random_element(family, params, 7)
        assert a == b
        ctx = make_context(family, params)
        ctx.validate(a)


def test_random_elements_differ_across_seeds():
    elems = {random_element("matmod", {"dim": 2, "modulus": 5}, seed)
             for seed in range(100)}
    # 100 draws from 625 possibilities: birthday collisions expected but few
    assert len(elems) >= 85
    wide = {random_element("zmod", {"modulus": 2 ** 32}, seed)
            for seed in range(100)}
    assert len(wide) == 100


def test_monogenic_realizes_prescribed_cycle_structure():
    for s in (1, 2, 5, 13, 40):
        for length in (1, 2, 12, 31):
            ctx = MonogenicContext(s, length)
            cyc = brute_force_cycle(ctx, 1)  # the generator
            assert (cyc.cycle_start, cyc.cycle_length) == (s, length)


def test_cycle_length_counterexample_scenario():
    # (s, L) = (5, 12): 12 = 15 - 3 but x^15 != x^3
    ctx = MonogenicContext(5, 12)
    assert power(ctx, 1, 15) != power(ctx, 1, 3)


def test_dlog_counterexample_scenario():
    # (s, L) = (10, 15): y = x^5 collides as y*x^6 = x^11 = x^26,
    # but y != x^20
    ctx = MonogenicContext(10, 15)
    y = power(ctx, 1, 5)
    lhs = ctx.mul(y, power(ctx, 1, 6))
    assert lhs == power(ctx, 1, 11)
    assert power(ctx, 1, 11) == power(ctx, 1, 26)
    assert y != power(ctx, 1, 20)


def test_known_cycle_structures():
    cyc = brute_force_cycle(ZModContext(100), 2)
    assert (cyc.cycle_start, cyc.cycle_length, cyc.order) == (2, 20, 21)
    tr = brute_force_cycle(TransformationContext(4), (1, 0, 0, 2))
    assert (tr.cycle_start, tr.cycle_length) == (2, 2)


def test_boolmat_cycles_can_have_late_starts():
    # a nilpotent-ish shift plus diagonal: pre-cycle before stabilizing
    ctx = BoolMatContext(3)
    shift = 0b010_001_000
    cyc = brute_force_cycle(ctx, shift)
    assert cyc.cycle_start > 1
    assert cyc.cycle_length == 1


# small parameters, so random pairs and products are often equal
EQUALITY_SWEEP = [
    ("zmod", {"modulus": 12}),
    ("zmod", {"modulus": 70000}),
    ("matmod", {"dim": 2, "modulus": 2}),
    ("matmod", {"dim": 3, "modulus": 300}),
    ("boolmat", {"dim": 2}),
    ("boolmat", {"dim": 3}),
    ("transformation", {"degree": 3}),
    ("monogenic", {"s": 3, "L": 4}),
    ("monogenic", {"s": 1, "L": 300}),
]


@pytest.mark.parametrize("family,params", EQUALITY_SWEEP)
def test_element_equality_is_key_equality(family, params):
    # collision tables are dicts keyed by the element and equality tests
    # use ==, which is sound only if == and hash agree with key equality
    rng = random.Random(f"{family}-{sorted(params.items())}")
    ctx = make_context(family, params)
    elems = [random_element(family, params, rng.randrange(1 << 30))
             for _ in range(40)]
    elems += [ctx.mul(a, b) for a, b in zip(elems, reversed(elems))]
    for a in elems:
        for b in elems:
            assert (a == b) == (ctx.key(a) == ctx.key(b))
            if a == b:
                assert hash(a) == hash(b)
    parsed = [parse_element_spec(ctx.element_json(a))[1] for a in elems]
    assert parsed == elems
    assert len({ctx.key(a) for a in elems}) == len(set(elems))


GOLDEN_KEYS = [
    ("zmod", {"type": "zmod", "modulus": 100, "value": 68}, "44"),
    ("zmod", {"type": "zmod", "modulus": 70000, "value": 68}, "000044"),
    ("boolmat", {"type": "boolmat", "entries": [[1, 0], [0, 1]]}, "09"),
    ("boolmat", {"type": "boolmat",
                 "entries": [[1, 1, 1], [0, 0, 0], [1, 0, 1]]}, "01c5"),
    ("transformation", {"type": "transformation", "map": [2, 3, 4, 2]},
     "02030402"),
    ("matmod", {"type": "matmod", "modulus": 5,
                "entries": [[1, 2], [3, 4]]}, "01020304"),
    ("matmod", {"type": "matmod", "modulus": 1000,
                "entries": [[1, 999], [0, 4]]}, "000103e700000004"),
    ("monogenic", {"type": "monogenic", "s": 5, "L": 12, "e": 11}, "0b"),
]


@pytest.mark.parametrize("family,doc,expected_hex", GOLDEN_KEYS)
def test_golden_key_encodings(family, doc, expected_hex):
    # encoding version 1: bit-exact contract for stored tables
    ctx, elem = parse_element_spec(json.dumps(doc))
    assert ctx.family == family
    assert canonical_key(ctx, elem).hex() == expected_hex
