"""Set-up and execution of benchmark tasks through the package's public API.

The package is imported as a module object and every call goes through
it, so a traced run can swap in wrapped functions (see tracer.py) without
the task code knowing.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

from workloads import WORKLOADS, Task

PACKAGE = "semidlog"


def import_package():
    """Import the package afresh, dropping any copy already loaded."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(PACKAGE)


@dataclass
class Prepared:
    task: Task
    ctx: object
    x: object
    y: object = None
    cycle: object = None   # CycleStructure handed to the dlog solvers


def prepare(api, tasks: list) -> list:
    """Parse every task's element specs into a context of its own."""
    out = []
    for task in tasks:
        ctx, x = api.parse_element_spec(task.x_spec)
        prep = Prepared(task, ctx, x)
        if task.kind == "dlog":
            _, prep.y = api.parse_element_spec(task.y_spec)
            prep.cycle = api.CycleStructure(*task.planted)
        out.append(prep)
    return out


def setup(workload: str, seed: int):
    """Import the package afresh, generate the task list and prepare it;
    returns (api, prepared tasks, seconds taken)."""
    t0 = time.perf_counter()
    api = import_package()
    prepared = prepare(api, WORKLOADS[workload](seed))
    return api, prepared, time.perf_counter() - t0


class Calls:
    """The public entry points a task calls, by benchmark name.

    A tracer replaces entries with span-recording wrappers.
    """

    def __init__(self, api):
        self.by_name = {
            "cycle.deterministic": api.deterministic_cycle_length,
            "cycle.monico": api.monico_cycle_length,
            "cycle.banin_tsaban": api.banin_tsaban_cycle_length,
            "cycle.start_search": api.cycle_start_search,
            "dlp.semigroup_dlog": api.semigroup_dlog,
            "dlp.pohlig_hellman": api.pohlig_hellman_dlog,
        }
        self.no_solution = api.NoSolutionError


DLOG_SPAN = {"semigroup_dlog": "dlp.semigroup_dlog",
             "pohlig_hellman": "dlp.pohlig_hellman"}


def run_task(calls: Calls, prep: Prepared):
    """Run one task; returns (answer, algorithm trace or None).

    Cycle answers are ("cycle", s, L); dlog answers are ("dlog", kind, m0,
    period) or ("no-solution",).  The cycle algorithms run bound-free with
    the command line's defaults.
    """
    task, ctx, x = prep.task, prep.ctx, prep.x
    fn = calls.by_name
    if task.kind == "cycle":
        if task.alg == "deterministic":
            length, trace = fn["cycle.deterministic"](ctx, x)
        elif task.alg == "monico":
            length, trace = fn["cycle.monico"](ctx, x, None, 10 ** 4,
                                               task.alg_seed)
        else:
            length, trace = fn["cycle.banin_tsaban"](
                ctx, x, 16, inner_rounds=4, outer_rounds=None,
                seed=task.alg_seed)
        start = fn["cycle.start_search"](ctx, x, length)
        return ("cycle", start, length), trace
    try:
        sol, trace = fn[DLOG_SPAN[task.alg]](ctx, x, prep.y, prep.cycle)
    except calls.no_solution:
        return ("no-solution",), None
    return ("dlog", sol.kind, sol.m0, sol.period), trace


@dataclass
class Record:
    """One execution of one task in the timed loop."""

    index: int          # position in the prepared list
    seconds: float
    mults: int
    answer: tuple


def timed_passes(calls: Calls, prepared: list, seconds: float,
                 keep_traces: bool = False, tracer=None, between=None):
    """Closed loop, one task at a time: whole passes over the task list
    until `seconds` have elapsed, calling `between()` after each pass.
    Returns (records, wall seconds, algorithm traces of the first pass when
    asked for).  With a tracer, each task runs inside a root span tagged
    with its index."""
    run = tracer.wrap("task", run_task) if tracer else run_task
    records, traces = [], []
    t_start = time.perf_counter()
    first = True
    while first or time.perf_counter() - t_start < seconds:
        for i, prep in enumerate(prepared):
            if tracer:
                tracer.task_id = i
            before = prep.ctx.mult_count
            t0 = time.perf_counter()
            try:
                answer, trace = run(calls, prep)
            except Exception as exc:  # a failed task is a result, not a crash
                answer, trace = ("error", f"{type(exc).__name__}: {exc}"), None
            t1 = time.perf_counter()
            records.append(Record(i, t1 - t0, prep.ctx.mult_count - before,
                                  answer))
            if first and keep_traces:
                traces.append(trace)
        first = False
        if between:
            between()
    return records, time.perf_counter() - t_start, traces
