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

# further malformed inputs to the entry points above, each of which once
# leaked a raw TypeError or ValueError
MORE_ENTRY_CASES = {
    "find_cycle-rounds-not-a-pair":
        lambda: find_cycle(_zmod(), 2, "banin-tsaban", rounds=5),
    "find_cycle-rounds-one-value":
        lambda: find_cycle(_zmod(), 2, "banin-tsaban", rounds=(1,)),
    "crt_combine-not-iterable": lambda: crt_combine(5),
    "crt_combine-pair-too-short": lambda: crt_combine([(1,)]),
    "random_element-list-seed":
        lambda: random_element("zmod", {"modulus": 7}, [1]),
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


@pytest.mark.parametrize("name", sorted(MORE_ENTRY_CASES))
def test_more_malformed_inputs_raise_typed_errors(name):
    with pytest.raises(SemigroupError):
        MORE_ENTRY_CASES[name]()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_accept_any_values(name):
    RECORDS[name]()
