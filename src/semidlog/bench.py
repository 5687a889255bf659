"""Seeded benchmark sweeps over instance families and algorithms.

One BenchRecord per (instance, trial): the multiplication count comes
straight from the context counter, the table peak from the algorithm
trace, and the success flag from comparison against the brute-force
oracle whenever the order is small enough to enumerate.  Records are
sorted before emission so output is deterministic under a fixed seed
(wall-clock times excepted; see README).
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import asdict, dataclass, fields

from .core import DomainError, SemigroupError, check_int
from .cycle import brute_force_cycle, find_cycle
from .instances import FAMILIES, make_context, random_element


@dataclass(frozen=True)
class BenchRecord:
    instance: str
    order: int | None
    algorithm: str
    trial: int
    seed: int
    multiplications: int
    table_peak: int | None
    wall_time_s: float
    success: bool | None

    def to_json(self) -> dict:
        return asdict(self)

    sort_key = property(lambda self: (self.instance, self.algorithm, self.trial))


def _instance_params(family: str, size: int, rng: random.Random, dim: int,
                     modulus: int) -> dict:
    """Seeded family parameters with `size` steering the instance scale."""
    if family == "monogenic":
        # split size = order into cycle start + length
        length = rng.randint(1, size)
        return {"s": size + 1 - length, "L": length}
    if family == "zmod":
        return {"modulus": max(2, size)}
    if family == "matmod":
        return {"dim": dim, "modulus": modulus}
    if family == "boolmat":
        return {"dim": dim}
    return {"degree": max(1, size)}  # transformation


def run_sweep(family: str, algorithm: str, sizes, trials: int = 1,
              seed: int = 0, bound: int | None = None,
              divisor_bound: int = 10 ** 4, rounds=None, dim: int = 2,
              modulus: int = 5, check_oracle: bool = True) -> list:
    if family not in FAMILIES:
        raise SemigroupError(f"unknown bench family {family!r}")
    try:
        sizes = list(sizes)
    except TypeError:
        raise DomainError("bench sizes must be an iterable of integers, "
                          f"got {sizes!r}") from None
    for value in (trials, seed, *sizes):
        check_int(value, "each bench size, trial count and seed")
    if trials < 1 or min(sizes, default=1) < 1:
        raise DomainError("bench sizes and trials must be >= 1")
    records = []
    for size in sizes:
        for trial in range(trials):
            mix = (seed * 1_000_003 + (FAMILIES.index(family) + 1) * 7919
                   + size * 104_729 + trial)
            trial_seed = random.Random(mix).randrange(1 << 62)
            rng = random.Random(trial_seed)
            params = _instance_params(family, size, rng, dim, modulus)
            ctx = make_context(family, params)
            if family == "monogenic":
                # the generator realizes the instance's (s, L) exactly, so
                # `size` is the order actually exercised
                elem = 1
            else:
                elem = random_element(family, params, rng.randrange(1 << 62))
            run_bound = bound
            if bound is None and family == "monogenic" and algorithm in ("monico", "banin-tsaban"):
                run_bound = size  # the construction pins the order
            t0 = time.perf_counter()
            before = ctx.mult_count
            cyc, trace = find_cycle(ctx, elem, algorithm, run_bound,
                                    divisor_bound, rounds, trial_seed)
            # brute force tabulates every power; the others report their own
            peak = trace.table_peak if trace else cyc.order
            mults = ctx.mult_count - before
            elapsed = time.perf_counter() - t0
            success = None
            order = None
            if check_oracle:
                oracle_ctx = make_context(family, params)
                try:
                    truth = brute_force_cycle(oracle_ctx, elem)
                except SemigroupError:
                    truth = None
                if truth is not None:
                    order = truth.order
                    success = cyc == truth
            records.append(BenchRecord(
                instance=json.dumps(ctx.describe(), sort_keys=True),
                order=order,
                algorithm=algorithm,
                trial=trial,
                seed=trial_seed,
                multiplications=mults,
                table_peak=peak,
                wall_time_s=round(elapsed, 6),
                success=success,
            ))
    records.sort(key=lambda r: r.sort_key)
    return records


CSV_FIELDS = tuple(f.name for f in fields(BenchRecord))


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for rec in records:
        writer.writerow(rec.to_json())
    return buf.getvalue()


def records_to_jsonl(records) -> str:
    return "".join(json.dumps(rec.to_json(), sort_keys=True) + "\n"
                   for rec in records)
