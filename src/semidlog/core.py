"""Semigroup computation contract.

Everything downstream (cycle-length algorithms, discrete-log solvers, the
bench harness) talks to a semigroup through a SemigroupContext: an object
that knows how to multiply two elements, how to serialize an element to a
canonical byte key, and that counts every semigroup multiplication it
performs.  Elements themselves are plain immutable Python values (ints,
tuples); only the context interprets them.

No identity element is ever assumed: exponents start at 1 and x^0 is a
domain error.  Every family represents an element by one canonical,
hashable value, so `==` and `hash` are element equality: collision tables
are plain dicts keyed by the element, and equality tests compare elements
directly.  The byte key is the stable serialization format only (golden
encodings, output); no algorithm needs it.  Besides `power`, the module
holds `Powers`, the plain squares ladder every power without a closed
form is taken on, and the collision-table primitive: `table_walk`,
`probe_walk` and `table_walk_all`, written once as a template,
instantiated once per (BIND, STEP) pair of a product step and looked up
by the context's `_walk_step` on every call (see SemigroupContext).
`Record` is the one JSON rule of every serialized dataclass record but
`DlogSolution`: its fields, in order, under their own names.

The public functions check their context argument with `check_context`
and their integer arguments with `check_int`.  Both run on every call,
so both decide the common case at C level: a context's class is looked
up in the registry `SemigroupContext.__init_subclass__` fills, and an
exact `int` skips the bool and subclass tests.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from types import SimpleNamespace


class SemigroupError(Exception):
    """Base error for semigroup computations."""


class IncompatibleElementError(SemigroupError):
    """Element does not belong to the context's instance."""


class NoSolutionError(SemigroupError):
    """The requested discrete logarithm has no solution."""


class OracleFailureError(SemigroupError):
    """A discrete-log oracle found no exponent within its bound."""


class DomainError(SemigroupError, ValueError):
    """An argument outside the domain its function accepts: an integer
    argument of the wrong type or below its least value, among others.
    Also a ValueError, so callers that catch ValueError keep working."""


def check_int(value, name: str, least: int | None = None) -> int:
    """`value` if it is an integer (a bool is not one) and, when `least`
    is given, at least `least`; else DomainError.

    The one type and range check on the public functions' integer
    arguments; an exact int passes the type test at its first step.
    """
    if type(value) is not int and (not isinstance(value, int)
                                   or isinstance(value, bool)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return value


# The generic (BIND, STEP) pair of the walks: the walk's fixed step bound
# once per call through `_right`, then applied once per step
_GENERIC_STEP = ("times = ctx._right(step)", "cur = times(cur)")
# every subclass of SemigroupContext, added as its class is created: the
# C-level test in check_context
_CONTEXT_CLASSES = set()


class SemigroupContext(ABC):
    """A concrete semigroup instance plus its multiplication counter.

    Subclasses fix the element representation and implement the raw
    product, the canonical key encoding and element validation.  Each
    element must have exactly one hashable representation, so that `==`
    agrees with key equality.  The counter (`mult_count`) is the only
    mutable state; it counts semigroup multiplications only, never integer
    arithmetic.  Single-writer: do not
    share one context across threads that multiply concurrently.

    `mult_count` is exact whenever a public function returns or raises.
    The bulk counters in this module, `power`, the fixed-base ladder
    `Powers` and the three collision walks `table_walk`, `probe_walk` and
    `table_walk_all`, make their products without `mul` and add them to
    the counter in one step per exit, so inside one it is updated only at
    that exit.  Only a family whose product raises can leave it wrong:
    short by the products made so far.  `mul` stays the one counted
    single product, for code outside the bulk counters.

    The walks come from one template (`_WALK_TEMPLATE`), instantiated once
    per distinct `_walk_step` pair and looked up by it on every call, so a
    pair set on one instance takes effect there.  The generic pair binds
    the walk's fixed step once per call through `_right(b)`, a callable
    a -> a*b, which the walk then applies about sqrt(bound) times: the
    default wraps `_product` (boolmat), and matmod and transformation
    override it to do the work depending on b alone once per binding.
    Only the walks bind.  A family whose product is a line or two of
    arithmetic (zmod, monogenic) writes it into the walks instead, and
    `_power(a, e)` takes a^e in one step of the same arithmetic, so its
    walks, powers and ladders call no `_product`.  Every other family
    takes powers on the squares ladder `Powers`, one `_product` per
    product.  A family that overrides `_walk_step`, `_right` or `_power`
    must step exactly as its `_product` multiplies and return the power
    that its `_product` would.
    """

    family: str = "abstract"
    # (BIND, STEP) source fragments of the walks' product step
    _walk_step = _GENERIC_STEP
    # a^e in one step, uncounted, for a family with a closed form; None
    # takes powers on the squares ladder
    _power = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        _CONTEXT_CLASSES.add(cls)

    def __init__(self) -> None:
        self.mult_count = 0

    @abstractmethod
    def _product(self, a, b):
        """Raw associative product, no counting, no validation."""

    @abstractmethod
    def key(self, a) -> bytes:
        """Deterministic, instance-stable canonical encoding of `a`.

        Equal elements produce equal keys and vice versa.  Encodings are
        fixed per family (see README) so golden tests stay bit-exact.
        """

    @abstractmethod
    def validate(self, a):
        """Return `a` if it belongs to this instance, else raise."""

    @abstractmethod
    def describe(self) -> dict:
        """Instance descriptor (family tag plus parameters), JSON-able."""

    @abstractmethod
    def element_json(self, a) -> dict:
        """Element as a parseable spec document (see instances module)."""

    def _right(self, b):
        """The product by the fixed right factor b, a -> a*b, uncounted,
        for many products by one b.  The default wraps `_product`."""
        product = self._product
        return lambda a: product(a, b)

    def mul(self, a, b):
        """Counted product. Internal fast path, inputs assumed valid."""
        self.mult_count += 1
        return self._product(a, b)

    def __repr__(self) -> str:
        params = ", ".join(
            f"{k}={v}" for k, v in self.describe().items() if k != "type"
        )
        return f"{type(self).__name__}({params})"


def check_context(ctx) -> SemigroupContext:
    """`ctx` if it is a SemigroupContext, else DomainError: the type
    check on the public functions' context argument.  A context's class
    is found in the registry `__init_subclass__` fills; the ABC's own test
    runs only for anything else (a class registered as a virtual
    subclass, or no context at all)."""
    if type(ctx) in _CONTEXT_CLASSES or isinstance(ctx, SemigroupContext):
        return ctx
    raise DomainError(f"ctx must be a SemigroupContext, got {ctx!r}")


def multiply(ctx: SemigroupContext, a, b):
    """Product a*b in `ctx`, incrementing the multiplication counter by 1.

    Raises IncompatibleElementError when either operand does not belong to
    the context's instance (wrong dimension, out-of-range entries, ...).
    """
    check_context(ctx).validate(a)
    ctx.validate(b)
    return ctx.mul(a, b)


def power(ctx: SemigroupContext, x, e: int):
    """x^e, for e >= 1, by the family's one-step power (zmod, monogenic;
    see SemigroupContext) or on a squares ladder `Powers`.

    Counts exactly (bit_length(e) - 1) + (popcount(e) - 1)
    multiplications, the products of square and multiply, which is at
    most 2*floor(log2 e) + 1, added to the counter at the exit.  Raises
    IncompatibleElementError when x does not belong to the context's
    instance.
    """
    check_context(ctx).validate(x)
    check_int(e, "exponent", 1)  # no x^0: a semigroup has no identity
    one_step = ctx._power
    if one_step is None:
        return Powers(ctx, x)(e)
    result = one_step(x, e)
    ctx.mult_count += e.bit_length() + e.bit_count() - 2
    return result


class Powers:
    """Fixed-base powers x^e of one base x, at the cost of stored squares.

    Brickell, Gordon, McCurley and Wilson's fixed-base exponentiation in
    its plainest form: the ladder keeps the squares x^(2^i) made so far,
    and x^e multiplies those of e's set bits with `ctx._product`.  A
    family with a one-step `_power` (zmod, monogenic) makes each x^e by
    it and stores no squares.  Both count, at the exit, popcount(e) - 1
    plus bit_length(e) - top when positive, `top` being the largest bit
    length reached so far.  Build one inside a call and drop it at the
    end; the squares are never shared between calls.
    """

    __slots__ = ("ctx", "squares", "top", "one_step")

    def __init__(self, ctx: SemigroupContext, x) -> None:
        self.ctx = ctx
        self.squares = [x]
        self.top = 1  # x = x^(2^0) is the first square
        self.one_step = ctx._power

    def __call__(self, e: int):
        check_int(e, "exponent", 1)
        squares = self.squares
        bits = e.bit_length()
        if self.one_step is not None:
            result = self.one_step(squares[0], e)
        else:
            prod = self.ctx._product
            for _ in range(len(squares), bits):
                squares.append(prod(squares[-1], squares[-1]))
            low = e & -e
            rest = e ^ low
            result = squares[low.bit_length() - 1]
            while rest:
                low = rest & -rest
                rest ^= low
                result = prod(result, squares[low.bit_length() - 1])
        made = e.bit_count() - 1
        if bits > self.top:
            made += bits - self.top
            self.top = bits
        self.ctx.mult_count += made
        return result


# The collision walks, written once.  A family's `_walk_step` is a pair
# of source fragments: BIND, the statements that read what its product
# needs from `ctx` and the fixed factor `step`, and STEP, the statements
# that set `cur` to cur*step.  The template is instantiated once per
# distinct pair, on first use, and shared by every context with that
# pair.
_WALK_TEMPLATE = """\
def table_walk(ctx, start, step, n, table=None):
    BIND
    if table is None:
        table = {}
    index = len(table)
    table[start] = index
    cur = start
    for k in range(index + 1, index + n + 1):
        STEP
        first = table.setdefault(cur, k)
        if first != k:
            ctx.mult_count += k - index
            return table, cur, (first, k)
    ctx.mult_count += max(n, 0)
    return table, cur, None


def probe_walk(ctx, table, cur, step, n):
    BIND
    for i in range(1, n + 1):
        if i > 1:
            STEP
        value = table.get(cur)
        if value is not None:
            ctx.mult_count += i - 1
            return i, value
    ctx.mult_count += n - 1
    return None


def table_walk_all(ctx, start, step, n):
    BIND
    table = {start: [0]}
    cur = start
    for k in range(1, n + 1):
        STEP
        table.setdefault(cur, []).append(k)
    ctx.mult_count += max(n, 0)
    return table
"""


class _Walks(dict):
    """(BIND, STEP) pair -> the three walks of _WALK_TEMPLATE for it,
    instantiated on the pair's first lookup.

    Each placeholder line is replaced by the fragment's lines at that
    line's indentation.  The source is built from the families' own class
    attributes only, never from input.
    """

    def __missing__(self, walk_step: tuple) -> SimpleNamespace:
        fragments = dict(zip(("BIND", "STEP"), walk_step))

        def fill(match):
            indent = match.group(1)
            return "\n".join(indent + line for line in
                             fragments[match.group(2)].splitlines())

        source = re.sub(r"^( *)(BIND|STEP)$", fill, _WALK_TEMPLATE,
                        flags=re.M)
        namespace = {}
        exec(compile(source, "<semidlog walks>", "exec"), namespace)
        walks = self[walk_step] = SimpleNamespace(**{
            name: namespace[name] for name in (
                "table_walk", "probe_walk", "table_walk_all")})
        return walks


_WALKS = _Walks()


def table_walk(ctx: SemigroupContext, start, step, n: int,
               table: dict | None = None):
    """Tabulate start*step^k -> index + k for k = 0..n up to the first
    repeated value, index = len(table); returns (table, last value,
    repeat).  `repeat` is (k1, k2) for the least k2 with value(k2) =
    value(k1), k1 < k2, else None; the table keeps first indices.  Adds
    the products made, k2 - index or n, to the counter once, at the exit.

    With `table`, whose values are 0..len(table) - 1, the walk continues
    it in place from `start`, a value not yet in it, and a repeat may
    reach back to any earlier entry.  Without one it starts a new table.
    """
    return _WALKS[ctx._walk_step].table_walk(ctx, start, step, n, table)


def probe_walk(ctx: SemigroupContext, table, cur, step, n: int):
    """First i in 1..n with cur*step^(i-1) in `table`, as (i, table
    value), or None.  Adds the products made, i - 1 or n - 1, to the
    counter once, at the exit.  DomainError unless n is an integer >= 1.
    """
    check_int(n, "n", 1)
    return _WALKS[ctx._walk_step].probe_walk(ctx, table, cur, step, n)


def table_walk_all(ctx: SemigroupContext, start, step, n: int) -> dict:
    """Tabulate start*step^k -> [every k with that value] for k = 0..n,
    indices ascending, with no stop at a repeat.  Adds the n products to
    the counter once, at the exit.
    """
    return _WALKS[ctx._walk_step].table_walk_all(ctx, start, step, n)


def canonical_key(ctx: SemigroupContext, a) -> bytes:
    """Canonical byte key of `a`; key equality is element equality.

    Raises IncompatibleElementError when `a` does not belong to `ctx`.
    """
    check_context(ctx)
    return ctx.key(ctx.validate(a))


class Record:
    """Base of every serialized dataclass record: the traces and their
    round records, CycleStructure, SuiteResult and BenchRecord.  Its JSON
    form is its fields, in order, under their own names, nested alike."""

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CycleStructure(Record):
    """Cycle start s, cycle length L and order N = s + L - 1 of a torsion
    element.

    The power sequence x, x^2, ... takes N distinct values; x^{s} is the
    first value ever revisited, and x^{s+L} = x^{s} with L minimal.
    """

    cycle_start: int
    cycle_length: int
    order: int = 0

    def __post_init__(self):
        check_int(self.cycle_start, "cycle start", 1)
        check_int(self.cycle_length, "cycle length", 1)
        check_int(self.order, "order")
        expected = self.cycle_start + self.cycle_length - 1
        if self.order == 0:
            object.__setattr__(self, "order", expected)
        elif self.order != expected:
            raise DomainError(
                f"order {self.order} != cycle_start + cycle_length - 1 = {expected}"
            )
