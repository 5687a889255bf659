"""Property tests over all five families, with hypothesis.

Five properties, each checked on small drawn instances of every family:
every cycle algorithm agrees with brute force, both dlog solvers recover
the solution set of a drawn exponent, the fixed-base ladder agrees with
`power` at the cost of its new squares, keys are injective, and element
specs round-trip through emit and parse.  Two more feed JSON-like junk to
`parse_element_spec` and `make_context` and check that only typed
`SemigroupError`s escape.  Runs are derandomized, so a failure reproduces
on every run.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from semidlog import (  # noqa: E402
    CYCLE_ALGORITHMS,
    DLOG_SOLVERS,
    SemigroupError,
    brute_force_cycle,
    find_cycle,
    make_context,
    parse_element_spec,
    power,
    solution_set,
)
from semidlog.core import Powers  # noqa: E402
from semidlog.instances import FAMILIES  # noqa: E402

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True,
                    database=None)


def _params(family):
    """Strategy for small instance parameters (spec field names)."""
    if family == "zmod":
        return st.fixed_dictionaries({"modulus": st.integers(2, 500)})
    if family == "matmod":
        return st.fixed_dictionaries({"dim": st.integers(1, 3),
                                      "modulus": st.integers(2, 7)})
    if family == "boolmat":
        return st.fixed_dictionaries({"dim": st.integers(1, 5)})
    if family == "transformation":
        return st.fixed_dictionaries({"degree": st.integers(1, 8)})
    return st.fixed_dictionaries({"s": st.integers(1, 200),
                                  "L": st.integers(1, 200)})


def _element(family, params):
    """Strategy for an element of the instance `params`, in its in-memory
    form."""
    if family == "zmod":
        return st.integers(0, params["modulus"] - 1)
    if family == "matmod":
        d, m = params["dim"], params["modulus"]
        row = st.tuples(*[st.integers(0, m - 1)] * d)
        return st.tuples(*[row] * d)
    if family == "boolmat":
        return st.integers(0, (1 << params["dim"] ** 2) - 1)
    if family == "transformation":
        d = params["degree"]
        return st.tuples(*[st.integers(0, d - 1)] * d)
    return st.integers(1, params["s"] + params["L"] - 1)


def _draw_instance(data, family):
    params = data.draw(_params(family), label="params")
    return params, data.draw(_element(family, params), label="x")


@pytest.mark.parametrize("family", FAMILIES)
@PROPERTY
@given(data=st.data())
def test_every_algorithm_matches_brute_force(family, data):
    params, x = _draw_instance(data, family)
    truth = brute_force_cycle(make_context(family, params), x)
    bound = data.draw(st.sampled_from([None, max(2, truth.order)]),
                      label="bound")
    seed = data.draw(st.integers(0, 1 << 30), label="seed")
    for alg in CYCLE_ALGORITHMS:
        cyc, _ = find_cycle(make_context(family, params), x, alg, bound,
                            seed=seed)
        assert cyc == truth, alg


@pytest.mark.parametrize("family", FAMILIES)
@PROPERTY
@given(data=st.data())
def test_dlog_round_trip(family, data):
    params, x = _draw_instance(data, family)
    cyc = brute_force_cycle(make_context(family, params), x)
    k = data.draw(st.integers(1, 3 * cyc.order), label="k")
    y = power(make_context(family, params), x, k)
    for name, solver in DLOG_SOLVERS.items():
        sol, _ = solver(make_context(family, params), x, y, cyc)
        assert sol == solution_set(k, cyc), name
        assert sol.contains(k), name


@pytest.mark.parametrize("family", FAMILIES)
@PROPERTY
@given(data=st.data())
def test_ladder_matches_power(family, data):
    """Over a run of exponents, one ladder returns power's x^e, and each
    call costs the squares no earlier call made plus popcount(e) - 1."""
    params, x = _draw_instance(data, family)
    exponents = data.draw(st.lists(st.integers(1, 1 << 70), min_size=1,
                                   max_size=8), label="exponents")
    ctx = make_context(family, params)
    ref = make_context(family, params)
    powers = Powers(ctx, x)
    squared = 0  # x^(2^squared) is the highest square made so far
    for e in exponents:
        before = ctx.mult_count
        assert powers(e) == power(ref, x, e)
        new = max(0, e.bit_length() - 1 - squared)
        squared += new
        assert ctx.mult_count - before == new + e.bit_count() - 1


@pytest.mark.parametrize("family", FAMILIES)
@PROPERTY
@given(data=st.data())
def test_key_injective(family, data):
    params = data.draw(_params(family), label="params")
    elems = data.draw(st.lists(_element(family, params), min_size=1,
                               max_size=40), label="elems")
    ctx = make_context(family, params)
    # products and a power walk add repeats and computed (not drawn) values
    elems += [ctx.mul(a, b) for a, b in zip(elems, reversed(elems))]
    elems += [power(ctx, elems[0], k) for k in range(1, 60)]
    by_key = {}
    for u in elems:
        assert by_key.setdefault(ctx.key(u), u) == u
    assert len(by_key) == len(set(elems))


@pytest.mark.parametrize("family", FAMILIES)
@PROPERTY
@given(data=st.data())
def test_spec_round_trip(family, data):
    params, x = _draw_instance(data, family)
    ctx = make_context(family, params)
    doc = ctx.element_json(x)
    ctx2, x2 = parse_element_spec(json.dumps(doc))
    assert ctx2.describe() == ctx.describe()
    assert x2 == x
    assert ctx2.key(x2) == ctx.key(x)
    assert ctx2.element_json(x2) == doc


# JSON-like junk
_FIELDS = ["type", "modulus", "value", "entries", "dim", "map", "degree",
           "s", "L", "e"]
_KEYS = st.sampled_from(_FIELDS) | st.text(max_size=4)


def _junk(integers):
    scalars = (st.none() | st.booleans() | integers
               | st.floats(allow_nan=True, allow_infinity=True)
               | st.text(max_size=6))
    return st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(_KEYS, inner, max_size=4)),
        max_leaves=16)


# integers of any size: a spec's dimensions are the lengths of its
# arrays, and make_context's `dim` is capped per matrix family
_SPEC_JUNK = _junk(st.integers())
_PARAM_JUNK = _SPEC_JUNK
# spec-shaped documents: a type tag and some of the known fields
_SPEC = st.builds(lambda tag, rest: {"type": tag, **rest},
                  st.sampled_from(FAMILIES) | _SPEC_JUNK,
                  st.dictionaries(_KEYS, _SPEC_JUNK, max_size=4))
# what parse_element_spec takes: a document, its JSON text or UTF-8 bytes,
# or arbitrary text and bytes
_SPEC_INPUT = (_SPEC | _SPEC_JUNK | (_SPEC | _SPEC_JUNK).map(json.dumps)
               | (_SPEC | _SPEC_JUNK).map(lambda d: json.dumps(d).encode())
               | st.text(max_size=40) | st.binary(max_size=40))


@PROPERTY
@given(spec=_SPEC_INPUT)
def test_parse_junk_raises_only_typed_errors(spec):
    try:
        parse_element_spec(spec)
    except SemigroupError:
        pass


@PROPERTY
@given(family=st.sampled_from(FAMILIES) | _PARAM_JUNK,
       params=st.dictionaries(_KEYS, _PARAM_JUNK, max_size=4) | _PARAM_JUNK)
def test_make_context_junk_raises_only_typed_errors(family, params):
    try:
        make_context(family, params)
    except SemigroupError:
        pass
