"""The benchmark's tracer wraps package functions by module attribute.

`perfbench/tracer.py` replaces `module.attr` with a span-recording wrapper,
which only sees a call when the package looks the function up through that
module at call time.  This guard wraps the same attributes with call
recorders, runs every cycle algorithm and both dlog solvers once, and
checks that each wrapper saw a call, so a rename or a changed import shows
up here rather than as a silently empty layer metric.
"""

import importlib.util
from pathlib import Path

import semidlog
from semidlog import (
    CYCLE_ALGORITHMS,
    CycleStructure,
    MonogenicContext,
    find_cycle,
    pohlig_hellman_dlog,
    power,
    semigroup_dlog,
)

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# entries that no package code calls through the named module:
# cycle.divisors no longer exists, and every factor_integer caller
# imports it into its own module
_UNCALLED = {("cycle", "divisors"), ("numtheory", "factor_integer")}


def _traced_attributes():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    spanned = [(mod, attr) for mod, attr, _ in tracer.SPANNED
               if (mod, attr) not in _UNCALLED]
    # core.power is not called through core: the walks import it
    powered = [(mod, "power") for mod in tracer.POWER_USERS if mod != "core"]
    return spanned + powered


def test_every_traced_attribute_is_called(monkeypatch):
    entries = _traced_attributes()
    called = set()
    for mod_name, attr in entries:
        module = getattr(semidlog, mod_name)

        def counted(*args, _key=(mod_name, attr), _fn=getattr(module, attr),
                    **kwargs):
            called.add(_key)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    for alg in CYCLE_ALGORITHMS:
        find_cycle(MonogenicContext(37, 360), 1, alg)
    cyc = CycleStructure(37, 360)
    for solver in (semigroup_dlog, pohlig_hellman_dlog):
        ctx = MonogenicContext(37, 360)
        solver(ctx, 1, power(ctx, 1, 1000), cyc)
    assert [entry for entry in entries if entry not in called] == []
