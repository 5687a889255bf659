"""One malformed input for every callable in `semidlog.__all__`.

The package's contract is that a public entry point fails only with a
`SemigroupError` subclass.  Entry points get a wrong-typed integer, a
foreign element, a plain tuple for a CycleStructure or a bad spec, and
must raise a typed error.  Record types (traces, views, solutions) and
the error classes store what they are given and must not raise at all.
A callable added to `__all__` without an entry here fails the coverage
test.
"""

import pytest

import semidlog
from semidlog import (
    Alg4Trace,
    BaninTrace,
    BoolMatContext,
    CycleStructure,
    DlogSolution,
    DlogTrace,
    DomainError,
    ElementSpecError,
    GroupView,
    IncompatibleElementError,
    MatModContext,
    MonicoTrace,
    MonogenicContext,
    NoSolutionError,
    OracleFailureError,
    PohligHellmanTrace,
    SemigroupError,
    TransformationContext,
    ZModContext,
    banin_tsaban_cycle_length,
    brute_force_cycle,
    bsgs_group_dlog,
    canonical_key,
    crt_combine,
    cycle_start_search,
    cycle_structure,
    deterministic_cycle_length,
    factor_integer,
    find_cycle,
    group_dlog_oracle,
    in_group,
    inverse_in_group,
    least_period,
    make_context,
    make_group_view,
    monico_cycle_length,
    monico_strip,
    multiply,
    parse_element_spec,
    pohlig_hellman_dlog,
    power,
    random_element,
    semigroup_dlog,
    solution_set,
)
from semidlog.bench import run_sweep
from semidlog.core import Powers, probe_walk


def _zmod():
    return ZModContext(100)


def _view():
    return make_group_view(_zmod(), 2, CycleStructure(2, 20))


# name -> a call with one malformed argument; each must raise a
# SemigroupError subclass
ENTRY_POINTS = {
    "banin_tsaban_cycle_length":
        lambda: banin_tsaban_cycle_length(_zmod(), 2, "16"),
    "brute_force_cycle": lambda: brute_force_cycle(_zmod(), 2, cap=2.5),
    "bsgs_group_dlog": lambda: bsgs_group_dlog(_zmod(), _view(), 52, 68,
                                               "20"),
    "canonical_key": lambda: canonical_key(_zmod(), 1000),
    "crt_combine": lambda: crt_combine([(1, "4")]),
    "cycle_start_search": lambda: cycle_start_search(_zmod(), 2, "20"),
    "cycle_structure": lambda: cycle_structure(_zmod(), 2, "x"),
    "deterministic_cycle_length":
        lambda: deterministic_cycle_length(_zmod(), 2, 2.5),
    "factor_integer": lambda: factor_integer("12"),
    "find_cycle": lambda: find_cycle(_zmod(), 2, "deterministic", "5"),
    "group_dlog_oracle": lambda: group_dlog_oracle(_zmod(), 2, 4, "16"),
    "in_group": lambda: in_group(_zmod(), _view(), "a"),
    "inverse_in_group": lambda: inverse_in_group(_zmod(), _view(), "3"),
    "least_period": lambda: least_period(_zmod(), 2, 4, 2.5),
    "make_context": lambda: make_context("zmod", {"modulus": "7"}),
    "make_group_view": lambda: make_group_view(_zmod(), 2, (2, 20)),
    "monico_cycle_length": lambda: monico_cycle_length(_zmod(), 2, 20, "x"),
    "monico_strip": lambda: monico_strip(_zmod(), 2, 3, "20", 10),
    "multiply": lambda: multiply(_zmod(), 2, "a"),
    "parse_element_spec": lambda: parse_element_spec(b"\xff\xfe{"),
    "pohlig_hellman_dlog":
        lambda: pohlig_hellman_dlog(_zmod(), 2, 68, (2, 20)),
    "power": lambda: power(_zmod(), 2, "3"),
    "random_element": lambda: random_element("zmod", {"modulus": 1}, 3),
    "semigroup_dlog": lambda: semigroup_dlog(_zmod(), 2, 68, (2, 20)),
    "solution_set": lambda: solution_set("3", CycleStructure(2, 20)),
    "CycleStructure": lambda: CycleStructure("1", 2),
    "ZModContext": lambda: ZModContext(2.5),
    "MatModContext": lambda: MatModContext(2, "5"),
    "BoolMatContext": lambda: BoolMatContext(10 ** 9),
    "TransformationContext": lambda: TransformationContext(3.0),
    "MonogenicContext": lambda: MonogenicContext(1.5, 2),
}

# further malformed inputs to the entry points above: values that once
# leaked a raw TypeError or ValueError or were taken as integers (a bool
# exponent)
MORE_ENTRY_CASES = {
    "find_cycle-rounds-not-a-pair":
        lambda: find_cycle(_zmod(), 2, "banin-tsaban", rounds=5),
    "find_cycle-rounds-one-value":
        lambda: find_cycle(_zmod(), 2, "banin-tsaban", rounds=(1,)),
    "crt_combine-not-iterable": lambda: crt_combine(5),
    "crt_combine-pair-too-short": lambda: crt_combine([(1,)]),
    "random_element-list-seed":
        lambda: random_element("zmod", {"modulus": 7}, [1]),
    "power-bool-exponent": lambda: power(_zmod(), 2, True),
}

# an integer below its least value, one case per range check (the
# checks of factor_integer, crt_combine and CycleStructure have their own
# DomainError tests); each raises DomainError
RANGE_CASES = {
    "cycle_start_search-length-0": lambda: cycle_start_search(_zmod(), 2, 0),
    "monico_strip-g-0": lambda: monico_strip(_zmod(), 2, 3, 0, 10),
    "monico_strip-anchor-0": lambda: monico_strip(_zmod(), 2, 0, 20, 10),
    "least_period-g-0": lambda: least_period(_zmod(), 2, 4, 0),
    "monico_cycle_length-B-1":
        lambda: monico_cycle_length(_zmod(), 2, 20, 1),
    "group_dlog_oracle-bound-0": lambda: group_dlog_oracle(_zmod(), 2, 4, 0),
    "banin_tsaban-inner-rounds-0":
        lambda: banin_tsaban_cycle_length(_zmod(), 2, inner_rounds=0),
    "banin_tsaban-outer-rounds-0":
        lambda: banin_tsaban_cycle_length(_zmod(), 2, outer_rounds=0),
    "bsgs_group_dlog-order-0":
        lambda: bsgs_group_dlog(_zmod(), _view(), 52, 68, 0),
    "solution_set-exponent-0": lambda: solution_set(0, CycleStructure(2, 20)),
    "deterministic_cycle_length-known-bound-0":
        lambda: deterministic_cycle_length(_zmod(), 2, known_bound=0),
    "monico_cycle_length-bound-0":
        lambda: monico_cycle_length(_zmod(), 2, bound=0),
    "banin_tsaban-bound-1": lambda: banin_tsaban_cycle_length(_zmod(), 2, 1),
    "inverse_in_group-before-cycle-start":
        lambda: inverse_in_group(_zmod(), _view(), 1),
    "power-exponent-0": lambda: power(_zmod(), 2, 0),
    "Powers-exponent-0": lambda: Powers(_zmod(), 2)(0),
    "probe_walk-n-0": lambda: probe_walk(_zmod(), {4: 0}, 2, 2, 0),
    "run_sweep-size-0": lambda: run_sweep("zmod", "deterministic", [0]),
}

# a context that is not a SemigroupContext, or a group view that is not a
# GroupView, once leaked AttributeError; each public function that takes
# one raises DomainError
FOREIGN_ARGUMENT_CASES = {
    "power-none": lambda: power(None, 1, 2),
    "multiply-object": lambda: multiply(object(), 1, 2),
    "canonical_key-none": lambda: canonical_key(None, 1),
    "find_cycle-family-name":
        lambda: find_cycle("zmod", 1, "deterministic"),
    "find_cycle-brute-family-name": lambda: find_cycle("zmod", 1, "brute"),
    "cycle_structure-none": lambda: cycle_structure(None, 1),
    "brute_force_cycle-none": lambda: brute_force_cycle(None, 1),
    "deterministic_cycle_length-none":
        lambda: deterministic_cycle_length(None, 1),
    "monico_cycle_length-none": lambda: monico_cycle_length(None, 1),
    "banin_tsaban_cycle_length-none":
        lambda: banin_tsaban_cycle_length(None, 1),
    "cycle_start_search-none": lambda: cycle_start_search(None, 1, 2),
    "least_period-none": lambda: least_period(None, 1, 1, 2),
    "monico_strip-none": lambda: monico_strip(None, 1, 1, 2, 10),
    "group_dlog_oracle-none": lambda: group_dlog_oracle(None, 1, 1, 4),
    "make_group_view-none":
        lambda: make_group_view(None, 2, CycleStructure(2, 20)),
    "semigroup_dlog-none":
        lambda: semigroup_dlog(None, 2, 4, CycleStructure(2, 20)),
    "pohlig_hellman_dlog-none":
        lambda: pohlig_hellman_dlog(None, 2, 4, CycleStructure(2, 20)),
    "in_group-none-view": lambda: in_group(_zmod(), None, 1),
    "in_group-none-context": lambda: in_group(None, _view(), 1),
    "bsgs_group_dlog-string-view":
        lambda: bsgs_group_dlog(_zmod(), "gv", 52, 68, 20),
    "bsgs_group_dlog-none-context":
        lambda: bsgs_group_dlog(None, _view(), 52, 68, 20),
    "inverse_in_group-int-view": lambda: inverse_in_group(_zmod(), 5, 3),
    "inverse_in_group-none-context":
        lambda: inverse_in_group(None, _view(), 3),
}

# name -> a call with junk values; these store their arguments unchecked
RECORDS = {
    "Alg4Trace": lambda: Alg4Trace(rounds="junk"),
    "BaninTrace": lambda: BaninTrace(bound="junk"),
    "MonicoTrace": lambda: MonicoTrace(bound="junk"),
    "DlogTrace": lambda: DlogTrace(b="junk"),
    "PohligHellmanTrace": lambda: PohligHellmanTrace(prime_records="junk"),
    "GroupView": lambda: GroupView(*["junk"] * 6),
    "DlogSolution": lambda: DlogSolution("junk", "junk"),
    "SemigroupError": lambda: SemigroupError(object()),
    "DomainError": lambda: DomainError(object()),
    "ElementSpecError": lambda: ElementSpecError(object(), object()),
    "IncompatibleElementError": lambda: IncompatibleElementError(object()),
    "NoSolutionError": lambda: NoSolutionError(object()),
    "OracleFailureError": lambda: OracleFailureError(object()),
}

# an abstract base class: Python refuses to instantiate it before any of
# the package's code runs
EXEMPT = {"SemigroupContext"}


def test_every_public_callable_has_an_entry():
    public = {name for name in semidlog.__all__
              if callable(getattr(semidlog, name))}
    assert public == set(ENTRY_POINTS) | set(RECORDS) | EXEMPT
    assert not set(ENTRY_POINTS) & set(RECORDS)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_malformed_input_raises_a_typed_error(name):
    with pytest.raises(SemigroupError):
        ENTRY_POINTS[name]()


# range cases whose message names the argument, not the exponent of a
# power that fails further in
RANGE_MESSAGES = {
    "monico_strip-anchor-0": "anchor_exp must be >= 1, got 0",
    "least_period-g-0": "g must be >= 1, got 0",
}


# one test over both tables; a range case must raise the stricter
# DomainError
@pytest.mark.parametrize("name", sorted(MORE_ENTRY_CASES | RANGE_CASES))
def test_more_malformed_inputs_raise_typed_errors(name):
    if name in RANGE_CASES:
        with pytest.raises(DomainError, match=RANGE_MESSAGES.get(name)):
            RANGE_CASES[name]()
    else:
        with pytest.raises(SemigroupError):
            MORE_ENTRY_CASES[name]()


@pytest.mark.parametrize("name", sorted(FOREIGN_ARGUMENT_CASES))
def test_foreign_context_or_view_raises_domain_error(name):
    with pytest.raises(DomainError):
        FOREIGN_ARGUMENT_CASES[name]()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_accept_any_values(name):
    RECORDS[name]()
