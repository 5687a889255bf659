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
holds `Powers`, the fixed-base ladder for many powers of one base, and
the collision-table primitive, `table_walk` and `probe_walk`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass


class SemigroupError(Exception):
    """Base error for semigroup computations."""


class IncompatibleElementError(SemigroupError):
    """Element does not belong to the context's instance."""


class NoSolutionError(SemigroupError):
    """The requested discrete logarithm has no solution."""


class OracleFailureError(SemigroupError):
    """A discrete-log oracle found no exponent within its bound."""


class DomainError(SemigroupError, ValueError):
    """A number outside the domain its function accepts.  Also a
    ValueError, so callers that catch ValueError keep working."""


def check_int(value, name: str) -> int:
    """`value` if it is an integer (a bool is not one), else DomainError.

    The type check on the public functions' integer arguments; each
    keeps its own range check and message.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return value


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
    `Powers`, `table_walk` and `probe_walk`, plus the Banin-Tsaban
    oracle's own walk, call `_product` directly and add their
    multiplications to the counter in one step per exit, so inside one it
    is updated only at that exit.  Only a family whose `_product` raises
    can leave it wrong: short by the products made so far, or, in
    `power`, which counts before it multiplies, ahead.  `mul` stays the
    one counted single product, for code outside the bulk counters.
    """

    family: str = "abstract"

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

    def mul(self, a, b):
        """Counted product. Internal fast path, inputs assumed valid."""
        self.mult_count += 1
        return self._product(a, b)

    def __repr__(self) -> str:
        params = ", ".join(
            f"{k}={v}" for k, v in self.describe().items() if k != "type"
        )
        return f"{type(self).__name__}({params})"


def multiply(ctx: SemigroupContext, a, b):
    """Product a*b in `ctx`, incrementing the multiplication counter by 1.

    Raises IncompatibleElementError when either operand does not belong to
    the context's instance (wrong dimension, out-of-range entries, ...).
    """
    ctx.validate(a)
    ctx.validate(b)
    return ctx.mul(a, b)


def power(ctx: SemigroupContext, x, e: int):
    """x^e by square and multiply, for e >= 1.

    Uses exactly (bit_length(e) - 1) + (popcount(e) - 1) multiplications,
    which is at most 2*floor(log2 e) + 1, added to the counter up front.
    e = 0 is rejected: a semigroup has no identity to return.
    """
    if not isinstance(e, int) or e < 1:
        raise SemigroupError(f"exponent must be a positive integer, got {e!r} "
                             "(no identity element exists for x^0)")
    ctx.mult_count += e.bit_length() + e.bit_count() - 2
    prod = ctx._product
    result = None
    base = x
    k = e
    while True:
        if k & 1:
            result = base if result is None else prod(result, base)
        k >>= 1
        if not k:
            return result
        base = prod(base, base)


class Powers:
    """Fixed-base powers x^e of one base x, from stored squares.

    Keeps the squares x^(2^i) made so far, so x^e costs only the squares
    it is the first to need plus popcount(e) - 1 products, added to the
    counter once, at the exit.  Brickell, Gordon, McCurley and Wilson's
    fixed-base exponentiation in its plainest form: worth it wherever one
    call takes several powers of the same base.  Build one inside a call
    and drop it at the end; the squares are never shared between calls.
    """

    __slots__ = ("ctx", "squares")

    def __init__(self, ctx: SemigroupContext, x) -> None:
        self.ctx = ctx
        self.squares = [x]

    def __call__(self, e: int):
        if not isinstance(e, int) or e < 1:
            raise SemigroupError(f"exponent must be a positive integer, "
                                 f"got {e!r}")
        squares = self.squares
        prod = self.ctx._product
        made = 0
        for _ in range(len(squares), e.bit_length()):
            squares.append(prod(squares[-1], squares[-1]))
            made += 1
        result = None
        i = 0
        while e:
            if e & 1:
                if result is None:
                    result = squares[i]
                else:
                    result = prod(result, squares[i])
                    made += 1
            e >>= 1
            i += 1
        self.ctx.mult_count += made
        return result


def table_walk(ctx: SemigroupContext, start, step, n: int):
    """Tabulate start*step^k -> k for k = 0..n up to the first repeated
    value; returns (table, last value, repeat).  `repeat` is (k1, k2) for
    the least k2 with start*step^k2 = start*step^k1, k1 < k2, else None;
    the table keeps first indices.  Adds the products made, k2 or n, to
    the counter once, at the exit.
    """
    prod = ctx._product
    table = {start: 0}
    cur = start
    for k in range(1, n + 1):
        cur = prod(cur, step)
        first = table.setdefault(cur, k)
        if first != k:
            ctx.mult_count += k
            return table, cur, (first, k)
    ctx.mult_count += max(n, 0)
    return table, cur, None


def probe_walk(ctx: SemigroupContext, table, cur, step, n: int):
    """First i in 1..n (n >= 1) with cur*step^(i-1) in `table`, as
    (i, table value), or None.  Adds the products made, i - 1 or n - 1, to
    the counter once, at the exit.
    """
    prod = ctx._product
    for i in range(1, n + 1):
        if i > 1:
            cur = prod(cur, step)
        value = table.get(cur)
        if value is not None:
            ctx.mult_count += i - 1
            return i, value
    ctx.mult_count += n - 1
    return None


def canonical_key(ctx: SemigroupContext, a) -> bytes:
    """Canonical byte key of `a`; key equality is element equality.

    Raises IncompatibleElementError when `a` does not belong to `ctx`.
    """
    return ctx.key(ctx.validate(a))


@dataclass(frozen=True)
class CycleStructure:
    """Cycle start s, cycle length L and order N = s + L - 1 of a torsion
    element.

    The power sequence x, x^2, ... takes N distinct values; x^{s} is the
    first value ever revisited, and x^{s+L} = x^{s} with L minimal.
    """

    cycle_start: int
    cycle_length: int
    order: int = 0

    def __post_init__(self):
        check_int(self.cycle_start, "cycle start")
        check_int(self.cycle_length, "cycle length")
        check_int(self.order, "order")
        if self.cycle_start < 1 or self.cycle_length < 1:
            raise DomainError("cycle start and cycle length must be >= 1")
        expected = self.cycle_start + self.cycle_length - 1
        if self.order == 0:
            object.__setattr__(self, "order", expected)
        elif self.order != expected:
            raise DomainError(
                f"order {self.order} != cycle_start + cycle_length - 1 = {expected}"
            )

    def to_json(self) -> dict:
        return asdict(self)


_JSON_KEYS = {"gcd_value": "gcd", "attempts": "failed_bounds",
              "prime_records": "primes"}


class Trace:
    """Base of the algorithm traces and their per-round records, all
    dataclasses: the JSON form is the fields in order under their names,
    the three in _JSON_KEYS renamed, with nested records serialized alike.
    """

    def to_json(self) -> dict:
        return asdict(self, dict_factory=lambda items: {
            _JSON_KEYS.get(name, name): value for name, value in items})
