"""Per-layer metrics of a traced run.

Layers are the package modules: `instances` (the families' raw product,
key and validate), `core` (counted `mul`, `power`, key traffic),
`numtheory`, `cycle` and `dlp`.  Time and multiplication figures per call
are means over the traced run; `.calls` figures are per task unless the
name says otherwise.
"""

from __future__ import annotations

import math
import statistics
import time

FAMILIES = ("zmod", "matmod", "boolmat", "transformation", "monogenic")
CYCLE_ALG_SPANS = {"deterministic": "cycle.deterministic",
                   "monico": "cycle.monico",
                   "banin-tsaban": "cycle.banin_tsaban"}
SOLVER_SPANS = ("dlp.semigroup_dlog", "dlp.pohlig_hellman")


def _timer(calls, round_s: float):
    """A function timing one round of `calls` (a list of (bound method,
    args)), sized after a warm-up to take about `round_s` seconds and
    returning ns per call."""
    def one_round(reps):
        t0 = time.perf_counter()
        for _ in range(reps):
            for fn, args in calls:
                fn(*args)
        return time.perf_counter() - t0

    one_round(1)
    reps = 1
    while (dt := one_round(reps)) < round_s / 4:
        reps *= 2
    reps = max(1, round(reps * round_s / dt))
    return lambda: one_round(reps) / (reps * len(calls)) * 1e9


def microbench(prepared: list, per_family: int = 12, rounds: int = 9,
               round_s: float = 0.01) -> dict:
    """ns/op of _product, mul, key and validate per family, on up to
    `per_family` of the workload's own elements (x and x*x), each on the
    context it belongs to.  The four operations are timed round by round
    in turn and each figure is a median over rounds; `mul_overhead` is the
    median of the per-round differences mul - _product, which cancels
    most of the host's speed swings."""
    out = {}
    for family in FAMILIES:
        preps = [p for p in prepared if p.task.family == family][:per_family]
        if not preps:
            continue
        sq = [(p.ctx, p.x, p.ctx._product(p.x, p.x)) for p in preps]
        timers = {
            "product": _timer([(c._product, (a, b)) for c, a, b in sq],
                              round_s),
            "mul": _timer([(c.mul, (a, b)) for c, a, b in sq], round_s),
            "key": _timer([(c.key, (b,)) for c, a, b in sq], round_s),
            "validate": _timer([(c.validate, (b,)) for c, a, b in sq],
                               round_s),
        }
        samples = {op: [] for op in timers}
        for _ in range(rounds):
            for op, timer in timers.items():
                samples[op].append(timer())
        fam = {op: statistics.median(v) for op, v in samples.items()}
        fam["mul_overhead"] = statistics.median(
            m - p for m, p in zip(samples["mul"], samples["product"]))
        out[family] = fam
    return out


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _per_call(rows, column: int) -> float:
    return _mean(r[column] for r in rows)


def layer_metrics(api, prepared, records, first_traces, verdicts, truths,
                  tracer, ns, tps_untraced, tps_traced) -> dict:
    """All per-layer metrics.  `records` are the traced loop's; the
    algorithm traces, verdicts and truths belong to the first (untraced)
    pass, one entry per prepared task."""
    m = {}
    n_tasks = len(records)
    mults_total = sum(r.mults for r in records) or 1
    fam_mults = {f: 0 for f in FAMILIES}
    for r in records:
        fam_mults[prepared[r.index].task.family] += r.mults
    spans = tracer.by_name()

    # instances
    for f in FAMILIES:
        fam = ns.get(f, {})
        m[f"instances.product_ns.{f}"] = (fam.get("product", 0.0), "ns")
        m[f"instances.key_ns.{f}"] = (fam.get("key", 0.0), "ns")
        m[f"instances.validate_ns.{f}"] = (fam.get("validate", 0.0), "ns")
    m["instances.product_busy_s"] = (sum(
        fam_mults[f] * ns.get(f, {}).get("product", 0.0)
        for f in FAMILIES) * 1e-9 / n_tasks, "s")

    # core
    for f in FAMILIES:
        fam = ns.get(f, {})
        m[f"core.mul_overhead_ns.{f}"] = (fam.get("mul_overhead", 0.0), "ns")
    key_calls = sum(tracer.key_calls.values())
    m["core.key_calls"] = (key_calls / n_tasks, "count")
    m["core.keys_per_mult"] = (key_calls / mults_total, "ratio")
    m["core.key_busy_s"] = (sum(
        n * ns.get(f, {}).get("key", 0.0)
        for f, n in tracer.key_calls.items()) * 1e-9 / n_tasks, "s")
    m["core.power_calls"] = (tracer.power_calls / n_tasks, "count")
    m["core.power_mult_frac"] = (tracer.power_mults / mults_total, "ratio")

    # numtheory (inclusive seconds per task)
    factor = spans.get("numtheory.factor", [])
    m["numtheory.factor_calls"] = (len(factor) / n_tasks, "count")
    m["numtheory.factor_s"] = (sum(r[0] for r in factor) / n_tasks, "s")
    m["numtheory.next_prime_s"] = (sum(
        r[0] for r in spans.get("numtheory.next_prime", [])) / n_tasks, "s")
    m["numtheory.divisor_list_s"] = (sum(
        r[0] for r in spans.get("numtheory.divisors", [])) / n_tasks, "s")

    # cycle
    for alg, span in CYCLE_ALG_SPANS.items():
        rows = spans.get(span, [])
        idx = [i for i, p in enumerate(prepared) if p.task.kind == "cycle"
               and p.task.alg == alg]
        key = span.split(".", 1)[1]
        m[f"cycle.{key}.s"] = (_per_call(rows, 0), "s")
        m[f"cycle.{key}.mults"] = (_per_call(rows, 1), "count")
        m[f"cycle.{key}.exact_frac"] = (
            _mean(verdicts[i] == "exact" for i in idx), "ratio")
    det = [i for i, p in enumerate(prepared) if p.task.kind == "cycle"
           and p.task.alg == "deterministic" and first_traces[i] is not None]
    m["cycle.deterministic.rounds"] = (_mean(
        len(getattr(first_traces[i], "rounds", ())) for i in det), "count")
    m["cycle.deterministic.table_peak"] = (_mean(
        getattr(first_traces[i], "table_peak", 0) for i in det), "count")
    m["cycle.deterministic.mults_per_sqrtN"] = (_mean(
        first_traces[i].multiplications / math.sqrt(sum(truths[i]) - 1)
        for i in det if truths[i]), "ratio")
    m["cycle.deterministic.useful_mult_frac"] = (
        _useful_mult_frac(api, prepared, first_traces, det), "ratio")
    mon = [t for i, t in enumerate(first_traces) if t is not None
           and prepared[i].task.alg == "monico"]
    n_mon = len(spans.get("cycle.monico", [])) or 1
    m["cycle.monico.failed_bounds"] = (_mean(
        len(getattr(t, "attempts", ())) for t in mon), "count")
    m["cycle.monico.strip_s"] = (sum(
        r[0] for r in spans.get("cycle.monico.strip", [])) / n_mon, "s")
    bt = [t for i, t in enumerate(first_traces) if t is not None
          and prepared[i].task.alg == "banin-tsaban"]
    n_bt = len(spans.get("cycle.banin_tsaban", [])) or 1
    oracle = spans.get("cycle.banin_tsaban.oracle", [])
    m["cycle.banin_tsaban.oracle_calls"] = (len(oracle) / n_bt, "count")
    m["cycle.banin_tsaban.oracle_s"] = (sum(r[0] for r in oracle) / n_bt,
                                        "s")
    m["cycle.banin_tsaban.failed_bounds"] = (_mean(
        len(getattr(t, "failed_bounds", ())) for t in bt), "count")
    start = spans.get("cycle.start_search", [])
    m["cycle.start_search.s"] = (_per_call(start, 0), "s")
    m["cycle.start_search.mults"] = (_per_call(start, 1), "count")

    # dlp (sub-layer figures are per solver call)
    solver_rows = []
    for span in SOLVER_SPANS:
        rows = spans.get(span, [])
        solver_rows += rows
        key = span.split(".", 1)[1]
        m[f"dlp.{key}.s"] = (_per_call(rows, 0), "s")
        m[f"dlp.{key}.mults"] = (_per_call(rows, 1), "count")
    n_solve = len(solver_rows) or 1
    m["dlp.group_view.s"] = (sum(
        r[0] for r in spans.get("dlp.group_view", [])) / n_solve, "s")
    bsgs = spans.get("dlp.bsgs", [])
    m["dlp.bsgs.calls"] = (len(bsgs) / n_solve, "count")
    m["dlp.bsgs.s"] = (sum(r[0] for r in bsgs) / n_solve, "s")
    m["dlp.bsgs.mults"] = (sum(r[1] for r in bsgs) / n_solve, "count")
    m["dlp.search.s"] = (sum(r[2] for r in solver_rows) / n_solve, "s")
    m["dlp.search.mult_frac"] = (
        sum(r[3] for r in solver_rows)
        / (sum(r[1] for r in solver_rows) or 1), "ratio")

    m["trace.overhead_frac"] = (tps_untraced / tps_traced - 1.0, "ratio")
    return m


def _useful_mult_frac(api, prepared, first_traces, det) -> float:
    """Multiplications of one round at the accepted bound, rerun on a
    fresh context, over those of the whole doubling run."""
    useful = total = 0
    for i in det:
        trace = first_traces[i]
        rounds = getattr(trace, "rounds", None)
        if not rounds:
            continue
        ctx, x = api.parse_element_spec(prepared[i].task.x_spec)
        api.deterministic_cycle_length(ctx, x, known_bound=rounds[-1].bound)
        useful += ctx.mult_count
        total += trace.multiplications
    return useful / total if total else 0.0
