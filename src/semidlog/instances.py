"""Concrete semigroup families and the element-spec parser.

Five families, all torsion (every element has a finite power sequence):

  zmod            integers modulo n under multiplication (zero divisors
                  allowed, so genuinely a semigroup, not a group)
  matmod          d x d integer matrices modulo m
  boolmat         d x d matrices over the boolean semiring ({0,1},
                  OR-addition, AND-multiplication)
  transformation  self-maps of {1..d} under composition
  monogenic       the abstract semigroup generated by one element with a
                  prescribed cycle start s and cycle length L; elements
                  are canonical exponents in [1, s+L-1]

Element spec documents are UTF-8 JSON with a "type" tag, e.g.
{"type": "zmod", "modulus": 100, "value": 2}.  Matrices are row-major
arrays of arrays; transformation maps are 1-indexed externally (and
0-indexed internally).  A boolmat element is held as one packed int, the
integer of its key (see BoolMatContext).

Each family is one class: `from_spec` reads its spec documents,
`describe`/`element_json` write them and `draw` samples an element.  Its
constructor is the one place that checks the instance parameters.
"""

from __future__ import annotations

import inspect
import json
import marshal
import random
from functools import cache
from itertools import repeat
from operator import itemgetter

from .core import (
    IncompatibleElementError,
    SemigroupContext,
    SemigroupError,
    check_int,
)

# bytes.translate table taking v to v + 1: 0-indexed images to key bytes
_PLUS_ONE = bytes(range(1, 256)) + b"\0"


class ElementSpecError(SemigroupError):
    """Malformed or out-of-range element spec; `where` locates the fault."""

    def __init__(self, message: str, where: str = "$"):
        super().__init__(f"{message} (at {where})")
        self.where = where


def _byte_width(max_value: int) -> int:
    return max(1, (max(max_value, 1).bit_length() + 7) // 8)


def _pack_bits(bits) -> int:
    """A boolmat element from its 0/1 entries in row-major order, first
    entry most significant."""
    val = 0
    for bit in bits:
        val = (val << 1) | bit
    return val


def _is_int(val) -> bool:
    """A JSON integer: bool is an int subclass, but true is not 1 here."""
    return type(val) is int or (isinstance(val, int)
                                and not isinstance(val, bool))


def _int_param(value, name: str, least: int | None = None):
    """A constructor's integer parameter `name`, at least `least` when
    that is given, else ElementSpecError at $.name."""
    if not _is_int(value):
        raise ElementSpecError(f"{name} must be an integer", f"$.{name}")
    if least is not None and value < least:
        raise ElementSpecError(f"{name} must be >= {least}", f"$.{name}")
    return value


def _require(doc: dict, name: str, kind):
    if name not in doc:
        raise ElementSpecError(f"missing field {name!r}")
    val = doc[name]
    if kind is int and not _is_int(val):
        raise ElementSpecError(f"field {name!r} must be an integer",
                               f"$.{name}")
    if kind is list and not isinstance(val, list):
        raise ElementSpecError(f"field {name!r} must be an array",
                               f"$.{name}")
    return val


def _parse_matrix(doc: dict, limit: int, message: str):
    """The "entries" of a matrix spec, a square array of integer arrays
    with entries in [0, limit), as a tuple of row tuples; `message` names
    an entry out of range.  The dimension is the caller's to check."""
    rows = _require(doc, "entries", list)
    dim = len(rows)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ElementSpecError(
                f"row {i} must be an array of length {dim}",
                f"$.entries[{i}]")
        for j, v in enumerate(row):
            if not _is_int(v):
                raise ElementSpecError("matrix entries must be integers",
                                       f"$.entries[{i}][{j}]")
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not 0 <= v < limit:
                raise ElementSpecError(message, f"$.entries[{i}][{j}]")
    return tuple(map(tuple, rows))


def _check_dim(ctx, dim):
    """A matrix family's dimension in [1, type(ctx).max_dim], else
    ElementSpecError."""
    if _int_param(dim, "dim") < 1:
        raise ElementSpecError("matrix must have at least one row",
                               "$.entries")
    if dim > ctx.max_dim:
        raise ElementSpecError(
            f"dim must be <= {ctx.max_dim} for {ctx.family}", "$.dim")


class ZModContext(SemigroupContext):
    """Multiplicative semigroup of integers modulo n."""

    family = "zmod"
    _walk_step = ("m = ctx.modulus", "cur = cur * step % m")

    def __init__(self, modulus: int):
        _int_param(modulus, "modulus", 2)
        super().__init__()
        self.modulus = modulus
        self._width = _byte_width(modulus - 1)

    @classmethod
    def from_spec(cls, doc: dict):
        modulus = _require(doc, "modulus", int)
        value = _require(doc, "value", int)
        ctx = cls(modulus)
        if not 0 <= value < modulus:
            raise ElementSpecError(
                f"value must be in [0, {modulus})", "$.value")
        return ctx, value

    def draw(self, rng):
        return rng.randrange(self.modulus)

    def _product(self, a, b):
        return a * b % self.modulus

    def _power(self, a, e):
        return pow(a, e, self.modulus)

    def key(self, a) -> bytes:
        # fixed-width big-endian residue
        return a.to_bytes(self._width, "big")

    def validate(self, a):
        if not _is_int(a) or not 0 <= a < self.modulus:
            raise IncompatibleElementError(
                f"{a!r} is not a residue modulo {self.modulus}")
        return a

    def describe(self) -> dict:
        return {"type": "zmod", "modulus": self.modulus}

    def element_json(self, a) -> dict:
        return {"type": "zmod", "modulus": self.modulus, "value": a}


@cache
def _matmod_kernel(dim: int):
    """The product of two dim x dim matrices modulo m, as straight-line
    code generated once per dimension and shared by every modulus: the
    pair (kernel, bind).

    `kernel(a, b, m)` unpacks b into dim*dim local names and builds each
    row of a*b from one row of a with dim unrolled dot products, each
    reduced modulo m.  `bind(b, m)` unpacks b and m once and returns the
    same product by that b as a one-argument closure.  The source is
    built from range(dim) indices only.  It has O(dim^2) terms, so
    generating it costs about as much as a few products: ~0.3 ms at dim
    3, ~0.2 s and ~12 MiB of peak memory at dim 64.
    """
    rng = range(dim)

    def names(prefix):
        return "".join(f"{prefix}{k}, " for k in rng)

    rows_of_b = "".join(f"({names(f'b{k}_')}), " for k in rng)
    row_of_c = "".join(
        "(" + " + ".join(f"r{k}*b{k}_{j}" for k in rng) + ") % m, "
        for j in rng)
    product = f"tuple([({row_of_c}) for ({names('r')}) in a])"
    namespace = {}
    # compiled one at a time, which keeps the peak memory of one
    exec("def kernel(a, b, m):\n"
         f"    ({rows_of_b}) = b\n"
         f"    return {product}\n", namespace)
    exec("def bind(b, m):\n"
         f"    ({rows_of_b}) = b\n"
         "    def times(a):\n"
         f"        return {product}\n"
         "    return times\n", namespace)
    return namespace["kernel"], namespace["bind"]


class MatModContext(SemigroupContext):
    """d x d matrices over Z/mZ under matrix multiplication.

    An element is a tuple of d row tuples.  Products run a kernel generated
    once per dimension (see `_matmod_kernel`), with the modulus passed in;
    the walks bind their fixed right factor into the kernel's closure
    form once.  The kernel's source grows as d^3, so d is capped
    at `max_dim` = 64, where building both forms takes 0.2-0.8 s and
    10-16 MiB and one product ~10 ms.
    """

    family = "matmod"
    max_dim = 64

    def __init__(self, dim: int, modulus: int):
        _int_param(modulus, "modulus", 2)
        _check_dim(self, dim)
        super().__init__()
        self.dim = dim
        self.modulus = modulus
        self._width = _byte_width(modulus - 1)
        self._kernel, self._bind = _matmod_kernel(dim)

    @classmethod
    def from_spec(cls, doc: dict):
        modulus = _require(doc, "modulus", int)
        message = f"entry must be in [0, {modulus})"
        try:
            mat = _parse_matrix(doc, modulus, message)
        except ElementSpecError:
            cls(1, modulus)  # a bad modulus is reported before bad entries
            raise
        return cls(len(mat), modulus), mat

    def draw(self, rng):
        d, m = self.dim, self.modulus
        return tuple(tuple(rng.randrange(m) for _ in range(d))
                     for _ in range(d))

    def _product(self, a, b):
        return self._kernel(a, b, self.modulus)

    def _right(self, b):
        return self._bind(b, self.modulus)

    def key(self, a) -> bytes:
        w = self._width
        return b"".join(
            entry.to_bytes(w, "big") for row in a for entry in row)

    def validate(self, a):
        ok = (
            isinstance(a, tuple) and len(a) == self.dim
            and all(isinstance(r, tuple) and len(r) == self.dim for r in a)
            and all(_is_int(v) and 0 <= v < self.modulus
                    for r in a for v in r)
        )
        if not ok:
            raise IncompatibleElementError(
                f"not a {self.dim}x{self.dim} matrix mod {self.modulus}")
        return a

    def describe(self) -> dict:
        return {"type": "matmod", "dim": self.dim, "modulus": self.modulus}

    def element_json(self, a) -> dict:
        return {"type": "matmod", "modulus": self.modulus,
                "entries": [list(row) for row in a]}


class BoolMatContext(SemigroupContext):
    """d x d boolean matrices: entry_ij = OR_k (a_ik AND b_kj).

    An element is one int: its d*d entries row-major, first entry most
    significant, which is the integer its version-1 key encodes.  Row i
    fills bits [(d-1-i)*d, (d-i)*d) and entry (i, j) is bit
    (d-1-i)*d + d-1-j.  Nested 0/1 rows become an element through
    `from_spec`, and `element_json` turns it back.  The constructor keeps
    d masks of d^2 bits, so d is capped at `max_dim` = 256, where they
    take ~2 MiB and one product ~20 ms.  It keeps the default `_right`,
    which calls `_product` once per product.  A bound form that copies
    b's rows into every row once was not measurably faster when the
    ladders bound each square too, most of them used once or twice; only
    the walks bind now, each bound step applied about sqrt(bound) times,
    and a bound form has not been measured there.
    """

    family = "boolmat"
    max_dim = 256

    def __init__(self, dim: int):
        _check_dim(self, dim)
        super().__init__()
        self.dim = dim
        self._width = (dim * dim + 7) // 8
        self._limit = 1 << (dim * dim)
        self._rowfill = (1 << dim) - 1  # the lowest row, all ones
        self._rowrep = sum(1 << (i * dim) for i in range(dim))  # row low bits
        # for each k: column k's mask, its shift to the rows' low bits,
        # and the shift that brings row k down to the lowest row
        self._steps = tuple(
            (self._rowrep << (dim - 1 - k), dim - 1 - k, (dim - 1 - k) * dim)
            for k in range(dim))

    @classmethod
    def from_spec(cls, doc: dict):
        mat = _parse_matrix(doc, 2, "boolean matrix entries must be 0 or 1")
        return cls(len(mat)), _pack_bits(v for row in mat for v in row)

    def draw(self, rng):
        return _pack_bits(rng.randrange(2) for _ in range(self.dim ** 2))

    def _product(self, a, b):
        # word-parallel: term k spreads a's column k over whole rows and
        # copies b's row k into every row; c is the OR of their ANDs
        fill, rep = self._rowfill, self._rowrep
        c = 0
        for colmask, sh, rsh in self._steps:
            c |= (((a & colmask) >> sh) * fill) & (((b >> rsh) & fill) * rep)
        return c

    def key(self, a) -> bytes:
        # row-major bits, first entry most significant
        return a.to_bytes(self._width, "big")

    def validate(self, a):
        if not _is_int(a) or not 0 <= a < self._limit:
            raise IncompatibleElementError(
                f"not a {self.dim}x{self.dim} boolean matrix")
        return a

    def describe(self) -> dict:
        return {"type": "boolmat", "dim": self.dim}

    def element_json(self, a) -> dict:
        d = self.dim
        bits = format(a, f"0{d * d}b")
        return {"type": "boolmat",
                "entries": [[int(c) for c in bits[i:i + d]]
                            for i in range(0, d * d, d)]}


class TransformationContext(SemigroupContext):
    """Full transformation semigroup on {1..d}.

    Elements are 0-indexed image tuples internally; mul(a, b) applies b
    first, then a, as `itemgetter(*b)(a)`.  A bound right factor b keeps
    its itemgetter.  Keys use the 1-indexed images, one byte per point,
    which caps the supported degree at 255.
    """

    family = "transformation"

    def __init__(self, degree: int):
        if not 1 <= _int_param(degree, "degree") <= 255:
            raise ElementSpecError("degree must be in [1, 255]", "$.map")
        super().__init__()
        self.degree = degree
        self._points = bytes(range(degree))

    @classmethod
    def from_spec(cls, doc: dict):
        images = _require(doc, "map", list)
        ctx = cls(len(images))
        for i, v in enumerate(images):
            if not _is_int(v) or not 1 <= v <= ctx.degree:
                raise ElementSpecError(
                    f"image must be in [1, {ctx.degree}]", f"$.map[{i}]")
        return ctx, tuple(v - 1 for v in images)

    def draw(self, rng):
        return tuple(rng.randrange(self.degree) for _ in range(self.degree))

    def _product(self, a, b):
        # itemgetter with a single index returns the bare item
        return itemgetter(*b)(a) if self.degree > 1 else (a[b[0]],)

    def _right(self, b):
        if self.degree > 1:
            return itemgetter(*b)
        i, = b
        return lambda a: (a[i],)

    def key(self, a) -> bytes:
        return bytes(a).translate(_PLUS_ONE)

    def validate(self, a):
        d = self.degree
        if isinstance(a, tuple) and len(a) == d:
            try:
                # bytes() takes the points with __index__ in [0, 256),
                # translate deletes those below d, and of objects with
                # __index__ marshal writes only ints and bools: a C-level
                # pass each
                if (not bytes(a).translate(None, self._points)
                        and marshal.dumps(a, 2)):
                    return a
            except Exception:  # what __index__ raises, among others
                pass
            # the same test point by point, calling no __index__: for
            # subclasses of int or of tuple, which marshal refuses, and
            # for whatever the fast test refused
            if (all(map(isinstance, a, repeat(int)))
                    and min(a) >= 0 and max(a) < d):
                return a
        raise IncompatibleElementError(
            f"not a transformation of degree {self.degree}")

    def describe(self) -> dict:
        return {"type": "transformation", "degree": self.degree}

    def element_json(self, a) -> dict:
        return {"type": "transformation", "map": [v + 1 for v in a]}


class MonogenicContext(SemigroupContext):
    """Abstract monogenic semigroup with prescribed cycle start and length.

    Elements are canonical exponents e in [1, s+L-1] of the generator;
    products add exponents and reduce with canon(n) = n for n <= s+L-1,
    else ((n - s) mod L) + s, so the power a^k is canon(a*k).  The
    generator (e = 1) has cycle start exactly s and cycle length exactly
    L, which makes abstract (s, L) scenarios executable.
    """

    family = "monogenic"
    _walk_step = ("order, s, L = ctx.order, ctx.cycle_start, "
                  "ctx.cycle_length",
                  "cur += step\n"
                  "if cur > order:\n"
                  "    cur = (cur - s) % L + s")

    def __init__(self, s: int, L: int):
        _int_param(s, "s", 1)
        _int_param(L, "L", 1)
        super().__init__()
        self.cycle_start = s
        self.cycle_length = L
        self.order = s + L - 1
        self._width = _byte_width(self.order)

    @classmethod
    def from_spec(cls, doc: dict):
        ctx = cls(_require(doc, "s", int), _require(doc, "L", int))
        e = doc.get("e", 1)
        if not _is_int(e) or not 1 <= e <= ctx.order:
            raise ElementSpecError(f"e must be in [1, {ctx.order}]", "$.e")
        return ctx, e

    def draw(self, rng):
        return rng.randint(1, self.order)

    def _product(self, a, b):
        n = a + b  # canon inlined: one Python call per product
        if n <= self.order:
            return n
        return (n - self.cycle_start) % self.cycle_length + self.cycle_start

    def _power(self, a, e):
        n = a * e  # a^e = canon(a*e), reduced once
        if n <= self.order:
            return n
        return (n - self.cycle_start) % self.cycle_length + self.cycle_start

    def key(self, a) -> bytes:
        return a.to_bytes(self._width, "big")

    def validate(self, a):
        if not _is_int(a) or not 1 <= a <= self.order:
            raise IncompatibleElementError(
                f"{a!r} is not a canonical exponent in [1, {self.order}]")
        return a

    def describe(self) -> dict:
        return {"type": "monogenic", "s": self.cycle_start,
                "L": self.cycle_length}

    def element_json(self, a) -> dict:
        return {"type": "monogenic", "s": self.cycle_start,
                "L": self.cycle_length, "e": a}


_CONTEXTS = {cls.family: cls for cls in (
    ZModContext, MatModContext, BoolMatContext, TransformationContext,
    MonogenicContext)}

FAMILIES = tuple(_CONTEXTS)


def _context_class(family):
    # a tuple test, not a dict lookup: the tag may be an unhashable value
    if family not in FAMILIES:
        raise ElementSpecError(f"unknown family {family!r}", "$.type")
    return _CONTEXTS[family]


def make_context(family: str, params: dict) -> SemigroupContext:
    """Context for a named family; `params` holds exactly the integer
    fields of `describe()` (the constructor's parameters) and may carry a
    "type" key, so `describe()` output round-trips."""
    cls = _context_class(family)
    if not isinstance(params, dict):
        raise ElementSpecError("parameters must be an object")
    names = inspect.signature(cls).parameters
    for key in params:
        if key != "type" and key not in names:
            raise ElementSpecError(f"unknown field {key!r}", f"$.{key}")
    return cls(*(_require(params, name, int) for name in names))


def parse_element_spec(text):
    """Parse an element spec document into (context, element).

    `text` may be a JSON string or an already-decoded dict.  The first
    field, in document order, that `element_json` does not write is an
    error.  Errors carry the position of the offending field; malformed
    JSON reports line and column from the decoder.
    """
    if isinstance(text, (str, bytes)):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ElementSpecError(
                f"malformed JSON: {exc.msg}",
                f"line {exc.lineno} column {exc.colno}") from exc
        except UnicodeDecodeError as exc:
            raise ElementSpecError(
                f"spec bytes are not UTF-8, UTF-16 or UTF-32: {exc.reason}",
                f"byte {exc.start}") from exc
        except (ValueError, RecursionError) as exc:
            # the decoder's limits: integer digits and nesting depth
            raise ElementSpecError(f"malformed JSON: {exc}") from exc
    else:
        doc = text
    if not isinstance(doc, dict):
        raise ElementSpecError("element spec must be a JSON object")
    ctx, element = _context_class(doc.get("type")).from_spec(doc)
    written = ctx.element_json(element)
    for key in doc:
        if key not in written:
            raise ElementSpecError(f"unknown field {key!r}", f"$.{key}")
    return ctx, element


def random_element(family: str, params: dict, seed: int):
    """Seed-deterministic element of the given family, uniform entries."""
    return make_context(family, params).draw(
        random.Random(check_int(seed, "seed")))
