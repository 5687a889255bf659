"""Spans and counters around the calls into each package layer.

Everything is recorded from the benchmark's side: the tracer replaces
module-level functions of the package with wrappers for the duration of a
traced run and restores them afterwards.  A function a later version of
the package no longer has is simply not traced.

A span is (task id, name, start, end, parent span index, multiplications
made inside it).  Spans stay in memory until the run ends.  `power` and
`key` calls are only counted: they are too frequent to span.
"""

from __future__ import annotations

import collections
import json
import time

# (module, attribute, span name); the attribute is looked up by the
# calling module, so that is where the wrapper goes
SPANNED = (
    ("cycle", "monico_strip", "cycle.monico.strip"),
    ("cycle", "group_dlog_oracle", "cycle.banin_tsaban.oracle"),
    ("cycle", "next_prime", "numtheory.next_prime"),
    ("cycle", "divisors", "numtheory.divisors"),
    ("cycle", "prime_power_divisors_below", "numtheory.divisors"),
    ("numtheory", "factor_integer", "numtheory.factor"),
    ("dlp", "factor_integer", "numtheory.factor"),
    ("dlp", "make_group_view", "dlp.group_view"),
    ("dlp", "bsgs_group_dlog", "dlp.bsgs"),
)
POWER_USERS = ("core", "cycle", "dlp")


class Tracer:
    def __init__(self, api):
        self.api = api
        self.spans = []
        self.stack = []
        self.task_id = -1
        self.power_calls = 0
        self.power_mults = 0
        self.key_calls = collections.Counter()   # by family
        self._patched = []
        self._keyed = []
        self._entry_points = None

    def wrap(self, name: str, fn):
        """`fn` wrapped in a span; a first argument with a `mult_count`
        (a context) gives the span its multiplication count."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            ctx = args[0] if args and hasattr(args[0], "mult_count") else None
            m0 = ctx.mult_count if ctx is not None else 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (self.task_id, name, t0, t1, parent,
                              ctx.mult_count - m0 if ctx is not None else 0)

        return traced

    def _count_power(self, fn):
        def counted(ctx, x, e):
            m0 = ctx.mult_count
            self.power_calls += 1
            try:
                return fn(ctx, x, e)
            finally:
                self.power_mults += ctx.mult_count - m0

        return counted

    def _count_key(self, ctx):
        fn, counter, family = ctx.key, self.key_calls, ctx.family

        def counted(a):
            counter[family] += 1
            return fn(a)

        return counted

    def _patch(self, module, attr, value):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self, calls, contexts):
        """Wrap the package's inner layers, the task's entry points in
        `calls`, and the `key` method of each benchmark context."""
        for mod_name, attr, span in SPANNED:
            module = getattr(self.api, mod_name, None)
            if hasattr(module, attr):
                self._patch(module, attr, self.wrap(span, getattr(module,
                                                                  attr)))
        for mod_name in POWER_USERS:
            module = getattr(self.api, mod_name, None)
            if hasattr(module, "power"):
                self._patch(module, "power", self._count_power(module.power))
        self._entry_points = calls.by_name
        calls.by_name = {name: self.wrap(name, fn)
                         for name, fn in calls.by_name.items()}
        for ctx in contexts:
            ctx.key = self._count_key(ctx)
            self._keyed.append(ctx)

    def uninstall(self, calls):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        calls.by_name = self._entry_points
        for ctx in self._keyed:
            del ctx.key
        self._keyed.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per span index: (self seconds, self multiplications), i.e. the
        span minus what its direct children cover."""
        child_t = [0.0] * len(self.spans)
        child_m = [0] * len(self.spans)
        for _, _, t0, t1, parent, mults in self.spans:
            if parent >= 0:
                child_t[parent] += t1 - t0
                child_m[parent] += mults
        return [(sp[3] - sp[2] - child_t[i], sp[5] - child_m[i])
                for i, sp in enumerate(self.spans)]

    def by_name(self):
        """name -> list of (seconds, mults, self seconds, self mults)."""
        out = collections.defaultdict(list)
        for sp, (st, sm) in zip(self.spans, self.self_times()):
            out[sp[1]].append((sp[3] - sp[2], sp[5], st, sm))
        return out

    def write(self, path, limit: int = 50_000):
        """Write the first `limit` spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, sp in enumerate(self.spans[:limit]):
                task, name, t0, t1, parent, mults = sp
                fh.write(json.dumps({"i": i, "task": task, "name": name,
                                     "start": t0, "end": t1,
                                     "parent": parent, "mults": mults})
                         + "\n")
