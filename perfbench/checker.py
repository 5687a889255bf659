"""Answer checker.

It runs after the timed loop, on fresh contexts parsed from the task's
element specs, so none of its multiplications are counted.  Powers are
computed here by plain square-and-multiply over the raw product, and
elements are compared through their spec documents, so the check trusts
neither `power` nor the key encoding it is measuring.

Verdicts:
  exact      the complete, correct answer
  multiple   right cycle start, but a proper multiple of the cycle length
             (bound-free Monico's known defect; counted as a failure)
  wrong      anything else, including an unexpected exception
"""

from __future__ import annotations

from arith import prime_factors

EXACT, MULTIPLE, WRONG = "exact", "multiple", "wrong"


class Fresh:
    """A freshly parsed context with an uncounted power and an equality
    that goes through the external element format."""

    def __init__(self, api, spec: str):
        self.ctx, self.x = api.parse_element_spec(spec)

    def power(self, e: int):
        result, base = None, self.x
        while True:
            if e & 1:
                result = base if result is None else \
                    self.ctx._product(result, base)
            e >>= 1
            if not e:
                return result
            base = self.ctx._product(base, base)

    def same(self, a, b) -> bool:
        return self.ctx.element_json(a) == self.ctx.element_json(b)

    def periodic(self, start: int, period: int) -> bool:
        """x^(start + period) == x^start."""
        return self.same(self.power(start + period), self.power(start))


def true_cycle(fresh: Fresh, s: int, length: int):
    """The exact (s, L) of x, certified from a reported (s, length) whose
    length is a multiple of the true one; None when (s, length) is not a
    period of x at its start or s is not the minimal start.

    x^(s+length) = x^s shows s >= true start and L | length; a failing
    x^(s-1+length) = x^(s-1) then pins s; dividing out every prime r of
    length while x^(s + length/r) = x^s still holds leaves the true L.
    """
    if s < 1 or length < 1 or not fresh.periodic(s, length):
        return None
    if s > 1 and fresh.periodic(s - 1, length):
        return None
    for r in prime_factors(length):
        while length % r == 0 and fresh.periodic(s, length // r):
            length //= r
    return s, length


def check_cycle(api, task, answer):
    """(verdict, (s, L) truth or None) for one cycle answer."""
    fresh = Fresh(api, task.x_spec)
    truth = task.planted
    if answer[0] != "cycle":
        return WRONG, truth
    _, s, length = answer
    if truth is None:
        truth = true_cycle(fresh, s, length)
        if truth is None:
            return WRONG, None
    if (s, length) == tuple(truth):
        # a planted answer is checked against the element as well
        if task.planted is not None and true_cycle(fresh, s, length) \
                != (s, length):
            return WRONG, truth
        return EXACT, truth
    if s == truth[0] and length % truth[1] == 0:
        return MULTIPLE, truth
    return WRONG, truth


def check_dlog(api, task, answer) -> str:
    """Verdict for one dlog answer against the planted exponent."""
    if task.m is None:
        return EXACT if answer == ("no-solution",) else WRONG
    if answer[0] != "dlog":
        return WRONG
    _, kind, m0, period = answer
    s, length = task.planted
    if task.m < s:
        expected = ("unique", task.m, None)
    else:
        expected = ("progression", s + (task.m - s) % length, length)
    if (kind, m0, period) != expected:
        return WRONG
    fresh = Fresh(api, task.x_spec)
    _, y = api.parse_element_spec(task.y_spec)
    return EXACT if fresh.same(fresh.power(m0), y) else WRONG


def check(api, task, answer):
    """(verdict, cycle truth or None) for any task."""
    if task.kind == "cycle":
        return check_cycle(api, task, answer)
    return check_dlog(api, task, answer), None
