"""The benchmark's own tests: python3 -m pytest perfbench"""

import checker
import runner
import workloads

SMALL = {
    "cycle-cheap": lambda seed: workloads.cycle_cheap(seed, levels=1,
                                                      lo=10.0, hi=12.0),
    "cycle-costly": lambda seed: workloads.cycle_costly(seed, levels=2,
                                                        lo=5.0, hi=8.0),
    "dlog": lambda seed: workloads.dlog(seed, levels=1, lo=12.0, hi=14.0),
}


def _run_once(tasks):
    api = runner.import_package()
    prepared = runner.prepare(api, tasks)
    records, _, _ = runner.timed_passes(runner.Calls(api), prepared, 0)
    return api, prepared, records


def test_task_list_is_a_pure_function_of_the_seed():
    for make in workloads.WORKLOADS.values():
        assert make(11) == make(11)
        assert make(11) != make(12)


def test_mults_per_task_repeat_exactly():
    for name, make in SMALL.items():
        _, _, first = _run_once(make(5))
        _, _, second = _run_once(make(5))
        assert [r.mults for r in first] == [r.mults for r in second], name
        assert [r.answer for r in first] == [r.answer for r in second], name


def test_checker_accepts_answers_and_flags_doctored_ones():
    for name, make in SMALL.items():
        api, prepared, records = _run_once(make(7))
        for prep, rec in zip(prepared, records):
            task, answer = prep.task, rec.answer
            verdict, truth = checker.check(api, task, answer)
            if task.kind == "cycle":
                if task.alg != "monico":
                    assert verdict == checker.EXACT, (name, task, answer)
                if verdict != checker.EXACT:
                    continue
                _, s, length = answer
                for bad in (("cycle", s, 2 * length), ("cycle", s + 1, length),
                            ("cycle", s - 1, length) if s > 1 else None):
                    if bad is not None:
                        assert checker.check(api, task, bad)[0] \
                            != checker.EXACT, (task, bad)
            else:
                assert verdict == checker.EXACT, (name, task, answer)
                if answer[0] == "dlog":
                    _, kind, m0, period = answer
                    bad = ("dlog", kind, m0 + 1, period)
                    assert checker.check_dlog(api, task, bad) == checker.WRONG
                    assert checker.check_dlog(api, task, ("no-solution",)) \
                        == checker.WRONG
                else:
                    assert checker.check_dlog(
                        api, task, ("dlog", "unique", 1, None)) == checker.WRONG


def test_doctored_unplanted_cycle_answers_are_flagged():
    # random elements have no planted answer: the certificate decides
    api, prepared, records = _run_once(SMALL["cycle-costly"](3))
    seen = 0
    for prep, rec in zip(prepared, records):
        if prep.task.planted is not None or prep.task.alg == "monico":
            continue
        verdict, truth = checker.check(api, prep.task, rec.answer)
        assert verdict == checker.EXACT and truth == rec.answer[1:]
        _, s, length = rec.answer
        assert checker.check(api, prep.task, ("cycle", s, 2 * length))[0] \
            == checker.MULTIPLE
        assert checker.check(api, prep.task, ("cycle", s + 1, length))[0] \
            == checker.WRONG
        seen += 1
    assert seen >= 4
