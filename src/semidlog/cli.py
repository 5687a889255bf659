"""semidlog command line: cycle, dlog, bench, selftest.

Element specs are inline JSON documents or @file references.  Exit codes
form a stable contract:

  0  success
  1  selftest failure
  2  element spec / argument parse error
  3  verification failure (a probabilistic result failed its check),
     or another SemigroupError, such as a cycle length that
     pohlig-hellman needs factored and cannot factor
  4  no solution (dlog target is not a power of the base)

Randomized commands are reproducible from (arguments, seed); the default
seed is DEFAULT_SEED, overridable with the SEMIDLOG_SEED environment
variable or --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bench
from .core import NoSolutionError, SemigroupError, power
from .cycle import (CYCLE_ALGORITHMS, DIVISOR_BOUND, INNER_ROUNDS,
                    OUTER_ROUNDS, find_cycle, least_period)
from .dlp import DLOG_SOLVERS
from .instances import FAMILIES, ElementSpecError, parse_element_spec
from .selftest import run_selftests

DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_NO_SOLUTION = 4

DLOG_ALGS = tuple(DLOG_SOLVERS)


def _default_seed() -> int:
    env = os.environ.get("SEMIDLOG_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ElementSpecError(f"SEMIDLOG_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def _load_spec(spec: str):
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ElementSpecError(f"cannot read spec file: {exc}", spec)
        return parse_element_spec(text)
    return parse_element_spec(spec)


def _parse_rounds(text: str):
    try:
        r, s = (int(part) for part in text.split(","))
    except ValueError:
        raise ElementSpecError("--rounds expects 'r,s' with integers", text)
    if r < 1 or s < 1:
        raise ElementSpecError("--rounds values must be >= 1", text)
    return r, s


def _check_bounds(args):
    """Reject out-of-range --bound and --B values as argument errors."""
    bound = getattr(args, "bound", None)
    if bound is not None:
        least = 2 if getattr(args, "alg", None) == "banin-tsaban" else 1
        if bound < least:
            raise ElementSpecError(f"--bound must be >= {least}", "--bound")
    if getattr(args, "divisor_bound", 2) < 2:
        raise ElementSpecError("--B must be >= 2", "--B")


def _emit(payload: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ElementSpecError(f"cannot write output file: {exc}",
                                   "--out")
    else:
        sys.stdout.write(payload)


def _report(args, result: dict, lines: list) -> None:
    """Write `result` as one sorted-key JSON line under --json-output,
    else `lines` as text."""
    if args.json_output:
        _emit(json.dumps(result, sort_keys=True) + "\n", args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)


def _verify_cycle(ctx, x, start, length) -> str | None:
    """Cheap exactness check of a reported (start, length) pair.

    Confirms the minimality of the start; least_period then confirms the
    defining equality and the minimality of the length, and its refusal
    is a failure too.  Returns an error string on failure.
    """
    if start > 1:
        prev = power(ctx, x, start - 1)
        if ctx.mul(power(ctx, x, length), prev) == prev:
            return f"cycle start {start} is not minimal"
    try:
        least = least_period(ctx, x, power(ctx, x, start), length)
    except SemigroupError as exc:
        return str(exc)
    if least != length:
        return (f"reported length {length} is a proper multiple: "
                f"x^{start + least} = x^{start}")
    return None


def cmd_cycle(args) -> int:
    ctx, x = _load_spec(args.element)
    seed = args.seed
    rounds = _parse_rounds(args.rounds) if args.rounds else None
    cyc, trace = find_cycle(ctx, x, args.alg, args.bound, args.divisor_bound,
                            rounds, seed)
    start, length = cyc.cycle_start, cyc.cycle_length

    problem = None if args.no_verify else _verify_cycle(ctx, x, start, length)
    result = {
        "command": "cycle",
        "algorithm": args.alg,
        "instance": ctx.describe(),
        "element": ctx.element_json(x),
        "cycle": cyc.to_json(),
        "multiplications": ctx.mult_count,
        "seed": seed,
        "verified": None if args.no_verify else problem is None,
        "trace": trace.to_json() if trace else None,
    }
    lines = [
        f"instance: {json.dumps(ctx.describe(), sort_keys=True)}",
        f"algorithm: {args.alg}",
        f"cycle_start={start} cycle_length={length} order={cyc.order}",
        f"multiplications: {ctx.mult_count}",
    ]
    if problem:
        lines.append(f"VERIFICATION FAILED: {problem}")
    _report(args, result, lines)
    if problem:
        print(f"error: verification failed: {problem}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_dlog(args) -> int:
    ctx, x = _load_spec(args.base)
    ctx_y, y = _load_spec(args.target)
    if ctx.describe() != ctx_y.describe():
        raise ElementSpecError(
            f"base and target live in different instances: "
            f"{ctx.describe()} vs {ctx_y.describe()}")
    cyc, _ = find_cycle(ctx, x, "deterministic", args.bound)
    sol, trace = DLOG_SOLVERS[args.alg](ctx, x, y, cyc)
    result = {
        "command": "dlog",
        "algorithm": args.alg,
        "instance": ctx.describe(),
        "base": ctx.element_json(x),
        "target": ctx.element_json(y),
        "cycle": cyc.to_json(),
        "solution": sol.to_json(),
        "multiplications": ctx.mult_count,
        "seed": args.seed,
        "trace": trace.to_json(),
    }
    if sol.kind == "unique":
        desc = f"unique m={sol.m0}"
    else:
        desc = f"progression m0={sol.m0} period={sol.period}"
    _report(args, result, [
        f"instance: {json.dumps(ctx.describe(), sort_keys=True)}",
        f"solution: {desc}",
        f"multiplications: {ctx.mult_count}"])
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.trials < 1:
        raise ElementSpecError("--trials must be >= 1", "--trials")
    sizes = []
    if args.sizes:
        for part in args.sizes.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                size = int(part, 0)
            except ValueError:
                raise ElementSpecError(f"bad size {part!r}", "--sizes")
            if size < 1:
                raise ElementSpecError(f"size must be >= 1, got {size}",
                                       "--sizes")
            sizes.append(size)
    rounds = _parse_rounds(args.rounds) if args.rounds else None
    records = bench.run_sweep(
        family=args.family, algorithm=args.alg, sizes=sizes,
        trials=args.trials, seed=args.seed, bound=args.bound,
        divisor_bound=args.divisor_bound, rounds=rounds, dim=args.dim,
        modulus=args.modulus, check_oracle=not args.no_oracle)
    if args.format == "csv":
        payload = bench.records_to_csv(records)
    else:
        payload = bench.records_to_jsonl(records)
    _emit(payload, args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    results = run_selftests(args.seed)
    _report(args, {"command": "selftest", "seed": args.seed,
                   "suites": [r.to_json() for r in results]},
            [f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}"
             for r in results])
    failures = [r for r in results if not r.passed]
    if failures:
        print(f"error: {len(failures)} suite(s) failed: "
              + ", ".join(r.name for r in failures), file=sys.stderr)
        return EXIT_SELFTEST
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semidlog",
        description="Cycle structure and discrete logarithms for torsion "
                    "elements of finite semigroups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: SEMIDLOG_SEED or "
                            f"{DEFAULT_SEED})")
        p.add_argument("--json-output", action="store_true",
                       help="emit a machine-readable JSON document")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write output to FILE instead of stdout")

    def algorithm_flags(p):
        p.add_argument("--alg", choices=CYCLE_ALGORITHMS,
                       default="deterministic")
        p.add_argument("--bound", type=int, default=None,
                       help="known bound: one round at it, not bounds "
                            "growing x4; deterministic needs it >= the "
                            "cycle length and its square >= the cycle "
                            "start, monico needs it >= the order "
                            "(banin-tsaban: the first bound of its x4 "
                            "schedule)")
        p.add_argument("--B", dest="divisor_bound", type=int,
                       default=DIVISOR_BOUND, metavar="N",
                       help="divisor bound for monico stripping")
        p.add_argument("--rounds", metavar="r,s", default=None,
                       help="inner,outer round counts for banin-tsaban "
                            f"(default {INNER_ROUNDS},{OUTER_ROUNDS})")

    p_cycle = sub.add_parser("cycle", help="compute cycle start and length")
    p_cycle.add_argument("element", metavar="ELEMENT_SPEC",
                         help="inline JSON element spec or @file")
    algorithm_flags(p_cycle)
    p_cycle.add_argument("--no-verify", action="store_true",
                         help="skip the exactness verification of the result")
    common(p_cycle)

    p_dlog = sub.add_parser("dlog", help="solve x^m = y")
    p_dlog.add_argument("base", metavar="X_SPEC")
    p_dlog.add_argument("target", metavar="Y_SPEC")
    p_dlog.add_argument("--alg", choices=DLOG_ALGS, default="reduction")
    p_dlog.add_argument("--bound", type=int, default=None,
                        help="known upper bound on the order of the base")
    common(p_dlog)

    p_bench = sub.add_parser("bench", help="seeded benchmark sweep")
    p_bench.add_argument("--family", required=True, choices=FAMILIES)
    algorithm_flags(p_bench)
    p_bench.add_argument("--sizes", default="",
                         help="comma-separated instance sizes (0x/0b forms ok)")
    p_bench.add_argument("--trials", type=int, default=1)
    p_bench.add_argument("--dim", type=int, default=2,
                         help="matrix dimension for matmod/boolmat")
    p_bench.add_argument("--modulus", type=int, default=5,
                         help="modulus for matmod")
    p_bench.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_bench.add_argument("--no-oracle", action="store_true",
                         help="skip brute-force success checking")
    common(p_bench)

    p_self = sub.add_parser("selftest", help="run built-in consistency suites")
    common(p_self)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        _check_bounds(args)
        handler = {
            "cycle": cmd_cycle,
            "dlog": cmd_dlog,
            "bench": cmd_bench,
            "selftest": cmd_selftest,
        }[args.command]
        return handler(args)
    except ElementSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NoSolutionError as exc:
        print(f"error: no solution: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except SemigroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
