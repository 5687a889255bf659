"""Property tests over all five families, with hypothesis.

Four properties, each checked on small drawn instances of every family:
every cycle algorithm agrees with brute force, both dlog solvers recover
the solution set of a drawn exponent, keys are injective, and element
specs round-trip through emit and parse.  Runs are derandomized, so a
failure reproduces on every run.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from semidlog import (  # noqa: E402
    CYCLE_ALGORITHMS,
    DLOG_SOLVERS,
    brute_force_cycle,
    find_cycle,
    make_context,
    parse_element_spec,
    power,
    solution_set,
)
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
