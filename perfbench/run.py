"""semidlog benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Single process, single thread, closed loop: one task at a time, whole
passes over a seeded task list until S seconds have elapsed.  Every answer
is checked afterwards on fresh contexts.  The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run (which also times one untraced pass, for the tracing overhead).
Lines before it are a human-readable report and the run's metadata.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import layers  # noqa: E402
import runner  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = ROOT / ".perfbench-out"


def _commit() -> str:
    """HEAD of the enclosing git checkout, read from .git, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "commit": _commit()}


def check_all(api, prepared, first_answers, records):
    """Check the first pass's answers; every later run of a task must
    repeat its first answer.

    Returns (per-task verdicts, per-task cycle truths, failed runs,
    inexact runs, correct).  A run fails when its answer is wrong or it
    raised.  A Monico proper multiple is inexact but not failed: Monico
    documents that it may return one, so the operation did what it
    promises, and the defect shows in `exact_frac` instead.
    """
    verdicts, truths = [], []
    for prep, answer in zip(prepared, first_answers):
        verdict, truth = checker.check(api, prep.task, answer)
        verdicts.append(verdict)
        truths.append(truth)
    failed = inexact = 0
    for r in records:
        verdict = verdicts[r.index] if r.answer == first_answers[r.index] \
            else checker.WRONG
        if verdict == checker.EXACT:
            continue
        if verdict == checker.MULTIPLE and \
                prepared[r.index].task.alg == "monico":
            inexact += 1
        else:
            failed += 1
    return verdicts, truths, failed, inexact, failed == 0


def best_times(records, n_tasks) -> list:
    """Each task's fastest run in the loop.  Other load on the host only
    ever adds time, and the loop spreads a task's runs over the whole
    timed interval, so the fastest run is the steadiest estimate of what
    the task itself costs."""
    best = [float("inf")] * n_tasks
    for r in records:
        best[r.index] = min(best[r.index], r.seconds)
    return best


def end_to_end(records, setup_s, n_tasks, failed, inexact) -> dict:
    """The end-to-end metrics of an untraced run.  Timings are over the
    pass's tasks, each at its best time; `mults_per_task` is over the
    first pass, which makes it exact for a seed."""
    times = best_times(records, n_tasks)
    first_pass = records[:n_tasks]
    return {
        "setup_s": (setup_s, "s"),
        "task_s_p50": (statistics.median(times), "s"),
        "task_s_p90": (statistics.quantiles(times, n=10,
                                            method="inclusive")[8], "s"),
        "tasks_per_s": (n_tasks / sum(times), "1/s"),
        "mults_per_task": (sum(r.mults for r in first_pass) / n_tasks,
                           "count"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, "MiB"),
        "exact_frac": (1 - (failed + inexact) / len(records), "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / runner.PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    api, prepared, setup_s = runner.setup(args.workload, args.seed)
    calls = runner.Calls(api)
    n_tasks = len(prepared)

    if args.trace:
        plain, plain_wall, first_traces = runner.timed_passes(
            calls, prepared, 0, keep_traces=True)
        tracer = Tracer(api)
        tracer.install(calls, [p.ctx for p in prepared])
        try:
            records, wall, _ = runner.timed_passes(calls, prepared,
                                                   args.seconds,
                                                   tracer=tracer)
        finally:
            tracer.uninstall(calls)
        first_answers = [r.answer for r in plain]
    else:
        # set-up is timed again after every pass, so that its samples
        # spread over the run as the tasks' runs do
        setup_times = [setup_s]
        records, _, _ = runner.timed_passes(
            calls, prepared, args.seconds,
            between=lambda: setup_times.append(
                runner.setup(args.workload, args.seed)[2]))
        setup_s = statistics.median(setup_times)
        first_answers = [r.answer for r in records[:n_tasks]]

    verdicts, truths, failed, inexact, correct = check_all(
        api, prepared, first_answers, records)
    if args.trace:
        ns = layers.microbench(prepared)
        metrics = layers.layer_metrics(
            api, prepared, records, first_traces, verdicts, truths, tracer,
            ns, len(plain) / plain_wall, len(records) / wall)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")
    else:
        metrics = end_to_end(records, setup_s, n_tasks, failed, inexact)

    meta = metadata(args)
    meta["tasks_per_pass"] = n_tasks
    meta["samples"] = len(records)
    print("# meta " + json.dumps(meta, sort_keys=True))
    counts = collections.Counter(
        f"{p.task.alg}:{v}" for p, v in zip(prepared, verdicts))
    print("# verdicts (first pass) " + json.dumps(counts, sort_keys=True))
    print(f"# failed_frac {(failed + inexact) / len(records):.6g} "
          f"({failed} failed and {inexact} Monico proper multiples "
          f"of {len(records)} task runs)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
