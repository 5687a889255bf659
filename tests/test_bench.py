import json
import math

import pytest

from semidlog import DomainError, SemigroupError
from semidlog.bench import (
    records_to_csv,
    records_to_jsonl,
    run_sweep,
)


def test_sweep_deterministic_alg_envelope():
    # multiplications grow like sqrt(N) (log N)^2 at worst over the sweep
    sizes = [2 ** k for k in range(8, 17, 2)]
    records = run_sweep("monogenic", "deterministic", sizes, trials=2, seed=3)
    assert len(records) == 2 * len(sizes)
    for rec in records:
        assert rec.success is True
        n = rec.order
        assert rec.multiplications <= 16 * math.sqrt(n) * math.log2(n) ** 2
        assert rec.table_peak is not None


def test_sweep_monico_success_fraction():
    records = run_sweep("monogenic", "monico", [500, 2000, 5000], trials=20,
                        seed=9, divisor_bound=10 ** 4)
    successes = sum(1 for rec in records if rec.success)
    assert successes / len(records) >= 0.99


def test_sweep_records_sorted_and_counter_backed():
    records = run_sweep("zmod", "deterministic", [64, 128], trials=3, seed=1)
    keys = [(r.instance, r.algorithm, r.trial) for r in records]
    assert keys == sorted(keys)
    assert all(r.multiplications > 0 for r in records)


def test_sweep_reproducible_modulo_walltime():
    a = run_sweep("transformation", "brute", [5, 6], trials=2, seed=4)
    b = run_sweep("transformation", "brute", [5, 6], trials=2, seed=4)
    strip = lambda recs: [
        {k: v for k, v in r.to_json().items() if k != "wall_time_s"}
        for r in recs]
    assert strip(a) == strip(b)


def test_serialization_round_trip():
    records = run_sweep("monogenic", "brute", [32], trials=2, seed=0)
    csv_text = records_to_csv(records)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("instance,order,algorithm")
    assert len(lines) == 3
    jsonl = records_to_jsonl(records)
    rows = [json.loads(line) for line in jsonl.strip().splitlines()]
    assert rows[0]["algorithm"] == "brute"
    assert rows[0]["order"] == 32


def test_empty_sweep_yields_no_records():
    assert run_sweep("zmod", "deterministic", [], trials=5, seed=0) == []


def test_sweep_rejects_unknown_family():
    for sizes in ([8], []):
        with pytest.raises(SemigroupError, match="unknown bench family"):
            run_sweep("nope", "deterministic", sizes)


@pytest.mark.parametrize("sizes, trials", [([0], 1), ([8, -3], 1), ([8], 0),
                                           ([], -1)])
def test_sweep_rejects_sizes_and_trials_below_one(sizes, trials):
    with pytest.raises(DomainError, match="sizes and trials must be >= 1"):
        run_sweep("monogenic", "deterministic", sizes, trials=trials)


# a float size used to reach make_context and fail about `modulus`
@pytest.mark.parametrize("sizes, trials, seed", [
    (["8"], 1, 0), ([8.5], 1, 0), ([True], 1, 0), ([8], "2", 0),
    ([8], 2.0, 0), ([8], True, 0), ([8], 1, "x"), (8, 1, 0)])
def test_sweep_rejects_non_integer_sizes_trials_and_seed(sizes, trials,
                                                         seed):
    with pytest.raises(DomainError, match="integer"):
        run_sweep("zmod", "deterministic", sizes, trials=trials, seed=seed)
