"""Certified diagonal reduction over Bezout rings.

The pipeline brings a matrix to diagonal form with a divisibility chain
while accumulating the transforms and their inverses factor by factor, so
the produced ``ReductionCertificate`` can be re-verified by nothing but
ring arithmetic:

1. Pivot sweeps clear the pivot row and column. Entries divisible by the
   pivot are removed with shear operations (which never disturb already
   cleared entries); the rest go through a Hermite 2x2 step, which strictly
   enlarges the pivot's ideal, so the sweep terminates.
2. Divisibility enforcement folds any minor entry not divisible by the
   pivot into the pivot row and re-sweeps, again strictly enlarging the
   pivot's ideal.
3. On finite rings the trailing 2x2 block goes through a dedicated kernel
   (Kaplansky's comaximal shift, ``_kernel_transforms``): triangularize,
   pull out the common factor of the three entries as the first chain
   entry, and find a shift r making (b + a*r) comaximal with c. These
   steps multiply out into one left and one right 2x2 transform, each
   applied once with its inverse. A whole 2x2 matrix builds no reducer:
   ``_reduce_2x2`` takes the transforms as P, Pinv, Q and Qinv and writes
   D down in closed form, as straight-line code on the cache's tables.

Strategies: ``euclidean_Z`` (integer matrices, minimal-absolute-value
pivoting), ``finite_search`` (any finite ring, kernel enabled), and
``zloc_structural`` (localized integers, where pivot ideals are governed
by the valuations at the localized primes). Rings outside these kinds are
not reducible here.

Reduction, the 2x2 kernel and verification all run on raw grids (lists
of rows) through one scalar adapter: cache indices on finite rings
(``_FiniteOps``), reduced integer pairs on zloc (``_RatioOps``), and
canonical payloads on the others (``_ValueOps``, ``_NativeOps`` for Z).
The raw core is ``_reduce_raw``, ``_comax_triangular_raw`` and
``_verify_raw``.
Every ``RingMatrix`` holds a raw grid with its ring's adapter, the
handle's cache adapter when the handle holds a cache, and boxes
``entries`` into ``Element``s only when read. ``RingMatrix(ring,
entries)`` unboxes its elements once, when it is built, with the
membership check; ``_box`` wraps a result grid, and ``from_strings``
and ``to_strings`` go straight between strings and the grid through the
adapter's ``parse`` and ``fmt``, which reject an entry that is not a
string with ParseError. ``_unbox`` hands the grid back as it
is, and a matrix of another ring handle raises MixedRings. On a finite
ring the adapter needs the cache, so a matrix over a ring past the size
bound, with no cache on its handle, raises TooLarge when it is built.
``engine.build_cache`` checks the bound once, when it builds the
tables, so a handle that holds a cache built under a larger bound makes
its matrices with it. Reducing, verifying and the witness methods go
through ``_scalar_ops``, which still refuses a ring past the default
bound.
A kept grid is never written to: the reducer copies its input.
The corpus runner calls the raw core directly and formats a
matrix only when it reports a failure.

Every adapter offers the same fused kernels, and the raw core does its
arithmetic through them alone: ``add``, ``mul``, ``neg``,
``lin(x, p, y, q)`` = x*p + y*q, ``comb(xs, u, ys, v)`` (``lin`` entry by
entry over two rows), ``dot`` and ``matmul``. A row or column operation
on a pair of rows or columns is one 2x2 matrix E with its inverse
(``_Reducer.row_pair`` and ``col_pair``): one ``comb`` per row, or one
``lin`` per entry of a column, and a matrix product is one call with no
call per entry. The finite kernels index the cache's flat add/mul tables
inline (no second copy of the tables: they are n^2 entries each), and a
product's accumulator starts at its first term. The finite and Z
adapters also write out the three products that check a 2x2 certificate
(``products_2x2``), and the verifier then checks that shape in one
straight-line pass. Certificates of other shapes with every dimension up
to ``_UNROLL_CAP`` (6) are checked by compiled code: ``_kernel`` writes
each entry out as straight-line source once per process and (kind,
shape), "table" on the cache's tables, summed in the loops' order, or
"int". On the finite and Z adapters the verifier gets P*A*Q, P*Pinv and
Q*Qinv from one fused kernel (``products``); zloc's ``matmul`` runs the
int kernel. Past the cap the loops run: compiling costs about k^3. The
finite and Z ``matmul`` stay loops at every shape, as nothing but
``RingMatrix.mat_mul`` calls them. The 2x2 check keeps its hand-written
form, which needs no dispatch on shape for the thousands of 2x2
certificates a corpus check verifies. On Z the
raw add and mul are the + and * of int, so its kernels use the operators
directly. On zloc a raw entry is ``(num, den)``, the ints in lowest
terms with den > 0 that ``Fraction.as_integer_ratio()`` gives, so equal
values are equal tuples and the verifier's comparisons are tuple
comparisons. An output entry such as x*p + y*q is worked out as one
numerator over one common denominator with one ``math.gcd``, where the
Fraction operators would normalise each product and the sum; a compiled
``matmul`` scales each grid to integers over the lcm of its
denominators instead. Units, divisibility, the Bezout data and the unit
canon come from the ring's integer prime part (``_int_prime_part``). A
``Fraction`` is made only at the boundary: boxing an entry
(``Element.value`` stays a Fraction), and parsing a string other than
the ASCII ``m`` and ``m/n`` forms that ``fmt`` writes. dualint and
``polyq:0`` go through the ring's raw methods.
The adapters are the one definition of the witness operations:
``is_unit``, ``divides``, ``bezout`` (the values of ``BezoutData``, in
its order) and ``unit_canon``. ``Ring.is_unit``, ``divides`` and
``bezout_gcd`` unbox their arguments, call the adapter and box the result.
On a finite ring these are the cache's own methods, bound once on the
adapter with the 2x2 kernel's ``cofactor_triple``, ``shift`` and
``comax_witness``, and the kernel reads its adapter only.
``_scalar_ops`` builds the adapter once per cache (or per ring handle for
infinite rings), since every public call asks for it. The adapter also
keeps one identity grid per size as a template: the reducer copies its
starting P, Pinv, Q and Qinv from it.

The verifier compares P*Pinv and Q*Qinv with that identity template, one
list comparison each. The comaximal triangular reduction
(``_comax_triangular_raw``) writes D = diag(1, -a*c) in closed form: its
P*A*Q equals that matrix exactly whenever w*x + c*y = 1; so does
``_reduce_2x2`` with D = diag(g, -g*ta*tc). The verifier does not rely on
that: it still multiplies P*A*Q and compares it with D, so a wrong D, or
a wrong transform, is rejected as before.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from .cache import DEFAULT_SIZE_BOUND, EngineCache
from .engine import PropertyResult, build_cache
from .errors import (
    MixedRings,
    NoResidue,
    NotBezout,
    NotComaximal,
    ParseError,
    ReductionFailed,
    TooLarge,
    UnsupportedSpec,
)
from .rings import Element, Ring, int_xgcd

_SWEEP_LIMIT = 1000


class RingMatrix:
    """Immutable matrix of ring elements, row-major.

    Every matrix holds a raw grid with the scalar adapter of its ring and
    boxes ``entries`` into ``Element``s on first read. ``RingMatrix(ring,
    entries)`` unboxes its elements once, checking that each belongs to
    the ring; ``from_strings``, ``identity`` and the reducer's results
    write the grid directly.
    """

    __slots__ = ("ring", "rows", "cols", "_entries", "_raw")

    def __init__(self, ring: Ring, entries):
        ops = _matrix_ops(ring)
        from_elem = ops.from_elem
        grid = [list(map(from_elem, row)) for row in entries]
        _check_shape(grid)
        self.ring, self.rows, self.cols = ring, len(grid), len(grid[0])
        self._entries, self._raw = None, (ops, grid)

    @property
    def entries(self) -> tuple[tuple[Element, ...], ...]:
        entries = self._entries
        if entries is None:
            # Boxed on first read. Threads that race here store equal
            # tuples, so either result may stay.
            ops, grid = self._raw
            to_elem = ops.to_elem
            entries = self._entries = tuple(
                tuple(map(to_elem, row)) for row in grid)
        return entries

    @classmethod
    def from_raw(cls, ring: Ring, rows) -> "RingMatrix":
        return cls(ring, [[ring.make(v) for v in row] for row in rows])

    @classmethod
    def from_strings(cls, ring: Ring, rows) -> "RingMatrix":
        """Parse a list of rows of element strings.

        The ring's adapter comes first, so a finite ring past the size
        bound raises TooLarge before any entry is read.
        """
        ops = _matrix_ops(ring)
        if not isinstance(rows, (list, tuple)) or not all(
                isinstance(row, (list, tuple)) for row in rows):
            raise ParseError("a matrix is a list of rows of element strings")
        parse = ops.parse  # raises ParseError on an entry that is not a str
        grid = [list(map(parse, row)) for row in rows]
        _check_shape(grid)
        return _box(ops, grid)

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "RingMatrix":
        ops = _matrix_ops(ring)
        grid = ops.identity(n)  # the template: a kept grid is never written to
        _check_shape(grid)
        return _box(ops, grid)

    def mat_mul(self, other: "RingMatrix") -> "RingMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        ops, grid = self._raw
        return _box(ops, ops.matmul(grid, _unbox(ops, other)))

    def __eq__(self, other):
        return (isinstance(other, RingMatrix) and self.ring is other.ring
                and self._raw[1] == other._raw[1])

    def __hash__(self):
        return hash((id(self.ring), tuple(map(tuple, self._raw[1]))))

    def diagonal(self) -> list[Element]:
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]

    def to_strings(self) -> list[list[str]]:
        ops, grid = self._raw
        fmt = ops.fmt
        return [list(map(fmt, row)) for row in grid]

    def __repr__(self):
        return f"<{self.rows}x{self.cols} matrix over {self.ring.spec_string()}>"


def _check_shape(grid) -> None:
    """A matrix has at least one row and column, and all rows one length."""
    if not grid or not grid[0]:
        raise ValueError("matrix needs at least one row and column")
    for row in grid:
        if len(row) != len(grid[0]):
            raise ValueError("ragged matrix")


@dataclass(frozen=True)
class ReductionCertificate:
    """P*A*Q = D with stored inverses; verified by verify_certificate."""

    P: RingMatrix
    Pinv: RingMatrix
    D: RingMatrix
    Q: RingMatrix
    Qinv: RingMatrix

    def to_json(self, verified: bool) -> dict:
        return {
            "P": self.P.to_strings(),
            "Pinv": self.Pinv.to_strings(),
            "D": self.D.to_strings(),
            "Q": self.Q.to_strings(),
            "Qinv": self.Qinv.to_strings(),
            "verified": verified,
        }

    @classmethod
    def from_json(cls, ring: Ring, data: dict) -> "ReductionCertificate":
        return cls(
            P=RingMatrix.from_strings(ring, data["P"]),
            Pinv=RingMatrix.from_strings(ring, data["Pinv"]),
            D=RingMatrix.from_strings(ring, data["D"]),
            Q=RingMatrix.from_strings(ring, data["Q"]),
            Qinv=RingMatrix.from_strings(ring, data["Qinv"]),
        )


# ---------------------------------------------------------------------------
# compiled product kernels
# ---------------------------------------------------------------------------

# The largest dimension whose products are written out. Compiling grows as
# k^3, and a one-shot verify pays it in full: a k x k "table" certificate
# kernel took 1.9 ms at k = 3, 6.8 at 5, 11.5 at 6, 28 at 8 and 530 ms at
# 20 (Python 3.11, 2-core Xeon), where a 20x20 integer verify takes 0.01 s.
_UNROLL_CAP = 6

_KERNELS: dict[tuple, Callable] = {}  # (kind, what, shape) -> kernel


def _kernel(kind: str, what: str, shape: tuple[int, ...]) -> Callable:
    """The straight-line product kernel of one (kind, what, shape).

    Kind "table" reads the cache's flat add and mul tables, which the
    caller passes as ``n, add, mul``, with each left factor scaled by n
    and each sum taken left to right from its first product, as the loop
    ``_FiniteOps.matmul`` does; kind "int" uses + and *. What
    "certificate" of shape (rows, cols) is ``kernel(*tables, A, P, Pinv,
    Q, Qinv)``, the grids P*A*Q, P*Pinv and Q*Qinv; what "matmul", of
    kind "int" only (zloc's ``matmul`` is its one user), of shape (rows,
    inner, cols) is ``kernel(X, Y)``, the product grid. The grids are
    lists of rows, as the loops return them.

    Each kernel is compiled once per process and shared by every adapter,
    which passes its tables in, so adapters stay picklable. The source is
    built from the shape's integers and fixed names only, the way the
    standard library's ``dataclasses`` writes methods: the shapes are
    ``len()`` of grids that ``_check_shape`` refuses when empty, no
    entry or other input text reaches ``exec``, and a dimension past
    ``_UNROLL_CAP`` is refused here.
    """
    key = (kind, what, shape)
    fn = _KERNELS.get(key)
    if fn is None:
        if not all(type(d) is int and 1 <= d <= _UNROLL_CAP for d in shape):
            raise ValueError(f"no compiled kernel for shape {shape!r}")
        if (kind, what) == ("table", "matmul"):
            raise ValueError("no compiled table matmul: the loops are its one path")
        source = _kernel_source(kind, what, shape)
        namespace: dict = {}
        exec(compile(source, f"<ringlab {kind} {what} {shape}>", "exec"), namespace)
        fn = _KERNELS[key] = namespace["kernel"]
    return fn


def _kernel_source(kind: str, what: str, shape: tuple[int, ...]) -> str:
    """The source of ``_kernel(kind, what, shape)``: one ``def kernel``."""
    table = kind == "table"

    def names(letter, rows, cols):
        return [[f"{letter}{i}_{j}" for j in range(cols)] for i in range(rows)]

    def unpack(grid, arg):
        return ", ".join(f"({', '.join(row)},)" for row in grid) + f", = {arg}"

    def scale(grid):
        flat = [e for row in grid for e in row]
        return f"{', '.join(flat)}, = {', '.join(e + ' * n' for e in flat)},"

    def entry(left, right):
        if not table:
            return " + ".join(f"{x} * {y}" for x, y in zip(left, right))
        acc = f"mul[{left[0]} + {right[0]}]"
        for x, y in zip(left[1:], right[1:]):
            acc = f"add[{acc} * n + mul[{x} + {y}]]"
        return acc

    def product(L, R):
        cols = list(zip(*R))
        return [[entry(row, col) for col in cols] for row in L]

    def grid(entries):
        return "[" + ", ".join(f"[{', '.join(row)}]" for row in entries) + "]"

    if what == "matmul":
        rows, inner, cols = shape
        X, Y = names("x", rows, inner), names("y", inner, cols)
        args = "X, Y"
        body = [unpack(X, "X"), unpack(Y, "Y"), f"return {grid(product(X, Y))}"]
    else:  # "certificate"
        rows, cols = shape
        A, B = names("a", rows, cols), names("b", rows, cols)
        P, Pinv = names("p", rows, rows), names("i", rows, rows)
        Q, Qinv = names("q", cols, cols), names("j", cols, cols)
        args = "A, P, Pinv, Q, Qinv"
        body = [unpack(M, arg) for M, arg in
                ((A, "A"), (P, "P"), (Pinv, "Pinv"), (Q, "Q"), (Qinv, "Qinv"))]
        if table:
            body.append(scale(P))
        PA = [e + " * n" if table else e for row in product(P, A) for e in row]
        body.append(f"{', '.join(e for row in B for e in row)}, = {', '.join(PA)},")
        body.append(f"prod = {grid(product(B, Q))}")
        if table:
            body.append(scale(Q))
        body.append(f"return prod, {grid(product(P, Pinv))}, {grid(product(Q, Qinv))}")
    if table:
        args = "n, add, mul, " + args
    return f"def kernel({args}):\n" + "".join(f"    {line}\n" for line in body)


# ---------------------------------------------------------------------------
# scalar adapters
# ---------------------------------------------------------------------------


class _Adapter:
    """What every scalar adapter shares: identity grids made once per size,
    and a matrix product of one ``dot`` per entry, which the finite and Z
    adapters replace with their own loops and zloc with a compiled kernel
    up to ``_UNROLL_CAP``.

    ``identity(n)`` is a template: callers copy its rows before writing
    to them, and compare other grids with it as a whole.
    """

    products_2x2 = None  # set where a 2x2 certificate has a written-out check
    products = None  # set where a certificate's products have compiled kernels

    def __init__(self):
        self._identities: dict[int, list[list]] = {}

    def identity(self, n: int) -> list[list]:
        grid = self._identities.get(n)
        if grid is None:
            z, o = self.zero, self.one
            grid = self._identities[n] = [
                [o if i == j else z for j in range(n)] for i in range(n)]
        return grid

    def is_zero(self, x):
        return x == self.zero

    def matmul(self, X, Y):
        """The product of two raw grids, one ``dot`` per entry."""
        cols = list(zip(*Y))
        dot = self.dot
        return [[dot(row, col) for col in cols] for row in X]


class _FiniteOps(_Adapter):
    """Scalar kernels on EngineCache indices (finite rings).

    The kernels index the cache's flat add/mul tables inline; no kernel
    makes a call per entry. The searches are the cache's own methods,
    bound once: ``is_unit`` (the inverse, or None), ``divides``,
    ``bezout``, and the 2x2 kernel's ``cofactor_triple``, ``shift`` and
    ``comax_witness``. ``unit_canon`` stays a method, as the canon is lazy.
    """

    kernel = True

    def __init__(self, cache: EngineCache):
        super().__init__()
        self.c = cache
        self.ring = cache.ring
        self.zero = cache.zero
        self.one = cache.one
        self.n = cache.n
        self._add = cache.add
        self._mul = cache.mul
        self._neg = cache.neg
        self._parsed = cache.parsed
        self.is_unit = cache.units.get
        self.divides = cache.divides
        self.bezout = cache.bezout
        self.cofactor_triple = cache.cofactor_triple
        self.shift = cache.shift
        self.comax_witness = cache.comax_witness

    def from_elem(self, e: Element) -> int:
        return self.c.idx[self.ring._member(e)]

    def to_elem(self, x: int) -> Element:
        return self.c.element(x)

    @property
    def fmt(self):
        """Formatter of one raw entry: the cache's list of names."""
        return self.c.names.__getitem__

    def parse(self, text):
        """Parser of one element string to a raw entry, once per string."""
        try:
            return self._parsed[text]
        except TypeError:  # unhashable, so not a string either
            raise ParseError(f"element {text!r} is not a string") from None

    def add(self, x, y):
        return self._add[x * self.n + y]

    def mul(self, x, y):
        return self._mul[x * self.n + y]

    def neg(self, x):
        return self._neg[x]

    def lin(self, x, p, y, q):
        """x*p + y*q."""
        n, mul = self.n, self._mul
        return self._add[mul[x * n + p] * n + mul[y * n + q]]

    def comb(self, xs, u, ys, v):
        """The row x*u + y*v over the paired entries of two rows."""
        n, add, mul = self.n, self._add, self._mul
        un, vn = u * n, v * n  # the tables are symmetric: x*u = u*x
        return [add[mul[un + x] * n + mul[vn + y]] for x, y in zip(xs, ys)]

    def dot(self, xs, ys):
        """Sum of the products x*y over the paired entries."""
        n, add, mul = self.n, self._add, self._mul
        acc = self.zero
        for x, y in zip(xs, ys):
            acc = add[acc * n + mul[x * n + y]]
        return acc

    def matmul(self, X, Y):
        """The product of two raw grids.

        Each accumulator starts at its first product, not at zero, and the
        inner loop indexes by position: on the 2x2 to 5x5 grids of a
        certificate that beats zipping each row with each column.
        """
        n, add, mul = self.n, self._add, self._mul
        cols = list(zip(*Y))
        rest = range(1, len(Y))
        out = []
        for row in X:
            row_n = [x * n for x in row]
            x0 = row_n[0]
            out_row = []
            for col in cols:
                acc = mul[x0 + col[0]]
                for k in rest:
                    acc = add[acc * n + mul[row_n[k] + col[k]]]
                out_row.append(acc)
            out.append(out_row)
        return out

    def products(self, A, P, Pinv, Q, Qinv):
        """P*A*Q, P*Pinv and Q*Qinv by the compiled certificate kernel."""
        return _kernel("table", "certificate", (len(A), len(A[0])))(
            self.n, self._add, self._mul, A, P, Pinv, Q, Qinv)

    def products_2x2(self, A, P, Pinv, Q, Qinv):
        """P*A*Q, P*Pinv and Q*Qinv of a 2x2 certificate, written out."""
        n, add, mul = self.n, self._add, self._mul
        (a00, a01), (a10, a11) = A
        (p00, p01), (p10, p11) = [[p * n for p in row] for row in P]
        (i00, i01), (i10, i11) = Pinv
        (q00, q01), (q10, q11) = Q
        (j00, j01), (j10, j11) = Qinv
        b00 = add[mul[p00 + a00] * n + mul[p01 + a10]] * n
        b01 = add[mul[p00 + a01] * n + mul[p01 + a11]] * n
        b10 = add[mul[p10 + a00] * n + mul[p11 + a10]] * n
        b11 = add[mul[p10 + a01] * n + mul[p11 + a11]] * n
        prod = (add[mul[b00 + q00] * n + mul[b01 + q10]],
                add[mul[b00 + q01] * n + mul[b01 + q11]],
                add[mul[b10 + q00] * n + mul[b11 + q10]],
                add[mul[b10 + q01] * n + mul[b11 + q11]])
        q00, q01, q10, q11 = q00 * n, q01 * n, q10 * n, q11 * n
        return prod, (add[mul[p00 + i00] * n + mul[p01 + i10]],
                      add[mul[p00 + i01] * n + mul[p01 + i11]],
                      add[mul[p10 + i00] * n + mul[p11 + i10]],
                      add[mul[p10 + i01] * n + mul[p11 + i11]]), \
            (add[mul[q00 + j00] * n + mul[q01 + j10]],
             add[mul[q00 + j01] * n + mul[q01 + j11]],
             add[mul[q10 + j00] * n + mul[q11 + j10]],
             add[mul[q10 + j01] * n + mul[q11 + j11]])

    def unit_canon(self, x):
        return self.c.associate_canon[x]

    def pivot_key(self, x):
        return x  # enumeration order


class _ValueOps(_Adapter):
    """Scalar kernels on raw payloads, through the ring's raw methods
    (dualint and ``polyq:0``; Z overrides them in ``_NativeOps``)."""

    kernel = False

    def __init__(self, ring: Ring):
        super().__init__()
        self.ring = ring
        self.zero = ring._zero_raw()
        self.one = ring._one_raw()
        self.add = ring._add
        self.mul = ring._mul
        self.neg = ring._neg

    def from_elem(self, e: Element):
        return self.ring._member(e)

    def to_elem(self, x) -> Element:
        return Element(self.ring, x)

    @property
    def fmt(self):
        """Formatter of one raw entry."""
        return self.ring._format

    def parse(self, text: str):
        """Parser of one element string to a raw entry."""
        if not isinstance(text, str):
            raise ParseError(f"element {text!r} is not a string")
        ring = self.ring
        return ring._canon(ring._parse(text))

    def lin(self, x, p, y, q):
        """x*p + y*q."""
        mul = self.mul
        return self.add(mul(x, p), mul(y, q))

    def comb(self, xs, u, ys, v):
        """The row x*u + y*v over the paired entries of two rows."""
        add, mul = self.add, self.mul
        return [add(mul(x, u), mul(y, v)) for x, y in zip(xs, ys)]

    def dot(self, xs, ys):
        """Sum of the products x*y over the paired entries."""
        return reduce(self.add, map(self.mul, xs, ys), self.zero)

    def is_unit(self, x):
        return self.ring._is_unit_raw(x)

    def divides(self, x, y):
        return self.ring._divides_raw(x, y)

    def bezout(self, x, y):
        return self.ring._bezout_raw(x, y)


class _NativeOps(_ValueOps):
    """Payload kernels for Z, whose raw add and mul are the + and * of int:
    the kernels use the operators themselves. Its witness kernels are Z's
    one definition of them, with extended Euclid for the Bezout data."""

    pivot_key = staticmethod(abs)

    def __init__(self, ring: Ring):
        super().__init__(ring)
        self.add, self.mul, self.neg = operator.add, operator.mul, operator.neg

    def is_unit(self, x):
        return x if x in (1, -1) else None

    def divides(self, x, y):
        if x == 0:
            return 0 if y == 0 else None
        q, r = divmod(y, x)
        return q if r == 0 else None

    def bezout(self, x, y):
        if x == 0 and y == 0:  # zero ideal: keep the comaximality slot total
            return (0, 0, 0, 1, 0, 1, 0)
        g, s, t = int_xgcd(x, y)
        # Over a domain a1*s + b1*t = 1 follows from x*s + y*t = g.
        return (g, s, t, x // g, y // g, s, t)

    def unit_canon(self, x):
        return (-x, -1, -1) if x < 0 else (x, 1, 1)

    def lin(self, x, p, y, q):
        return x * p + y * q

    def comb(self, xs, u, ys, v):
        return [x * u + y * v for x, y in zip(xs, ys)]

    def dot(self, xs, ys):
        return sum(map(operator.mul, xs, ys), self.zero)

    def matmul(self, X, Y):
        """The product of two raw grids, in plain loops like the finite
        kernel's: no ``sum(map())`` per entry."""
        cols = list(zip(*Y))
        rest = range(1, len(Y))
        out = []
        for row in X:
            x0 = row[0]
            out_row = []
            for col in cols:
                acc = x0 * col[0]
                for k in rest:
                    acc += row[k] * col[k]
                out_row.append(acc)
            out.append(out_row)
        return out

    @staticmethod
    def products(A, P, Pinv, Q, Qinv):
        """P*A*Q, P*Pinv and Q*Qinv by the compiled certificate kernel."""
        return _kernel("int", "certificate", (len(A), len(A[0])))(
            A, P, Pinv, Q, Qinv)

    def products_2x2(self, A, P, Pinv, Q, Qinv):
        """P*A*Q, P*Pinv and Q*Qinv of a 2x2 certificate, written out."""
        (a00, a01), (a10, a11) = A
        (p00, p01), (p10, p11) = P
        (i00, i01), (i10, i11) = Pinv
        (q00, q01), (q10, q11) = Q
        (j00, j01), (j10, j11) = Qinv
        b00, b01 = p00 * a00 + p01 * a10, p00 * a01 + p01 * a11
        b10, b11 = p10 * a00 + p11 * a10, p10 * a01 + p11 * a11
        return ((b00 * q00 + b01 * q10, b00 * q01 + b01 * q11,
                 b10 * q00 + b11 * q10, b10 * q01 + b11 * q11),
                (p00 * i00 + p01 * i10, p00 * i01 + p01 * i11,
                 p10 * i00 + p11 * i10, p10 * i01 + p11 * i11),
                (q00 * j00 + q01 * j10, q00 * j01 + q01 * j11,
                 q10 * j00 + q11 * j10, q10 * j01 + q11 * j11))


class _RatioOps(_Adapter):
    """Scalar kernels for zloc on reduced integer pairs.

    A raw entry is ``(num, den)``, ints in lowest terms with den > 0. Each
    kernel works an output entry out as one numerator over one
    denominator and divides out one ``math.gcd``; ``is_unit``,
    ``divides``, ``bezout`` and ``unit_canon`` read the prime part of the
    numerator, and are zloc's only definition of them. A ``Fraction`` is
    made only in ``to_elem``, and in ``parse`` for strings that are not
    ASCII ``m`` or ``m/n``.
    """

    kernel = False
    zero, one = (0, 1), (1, 1)

    def __init__(self, ring: Ring):
        super().__init__()
        self.ring = ring
        self.primes = ring.primes
        self._prime_part = ring._int_prime_part

    def from_elem(self, e: Element):
        return self.ring._member(e).as_integer_ratio()

    def to_elem(self, x) -> Element:
        return Element(self.ring, Fraction(*x))

    @staticmethod
    def fmt(x) -> str:
        """Formatter of one raw entry, as the ring's ``_format`` writes it."""
        num, den = x
        return str(num) if den == 1 else f"{num}/{den}"

    def parse(self, text):
        """Parser of one element string to a raw entry. "0" and "1", most
        of the entries of a certificate, skip the regular expression."""
        if text == "0":
            return self.zero
        if text == "1":
            return self.one
        ring = self.ring
        try:
            ratio = ring._ascii_ratio(text)
        except TypeError:
            raise ParseError(f"element {text!r} is not a string") from None
        if ratio is None:
            return ring._canon(ring._parse(text)).as_integer_ratio()
        return ring._local_pair(*ratio)

    @staticmethod
    def add(x, y):
        (a, b), (c, d) = x, y
        return _lowest(a * d + c * b, b * d)

    @staticmethod
    def mul(x, y):
        return _lowest(x[0] * y[0], x[1] * y[1])

    @staticmethod
    def neg(x):
        return -x[0], x[1]

    @staticmethod
    def lin(x, p, y, q):
        """x*p + y*q."""
        (a, b), (c, d), (e, f), (u, v) = x, p, y, q
        bd, fv = b * d, f * v
        if bd == fv:
            num, den = a * c + e * u, bd
        else:
            num, den = a * c * fv + e * u * bd, bd * fv
        g = gcd(num, den)
        return (num // g, den // g) if g != 1 else (num, den)

    @staticmethod
    def comb(xs, u, ys, v):
        """The row x*u + y*v over the paired entries of two rows."""
        (c, d), (s, t) = u, v
        out = []
        for (a, b), (e, f) in zip(xs, ys):
            bd, ft = b * d, f * t
            if bd == ft:
                num, den = a * c + e * s, bd
            else:
                num, den = a * c * ft + e * s * bd, bd * ft
            g = gcd(num, den)
            out.append((num // g, den // g) if g != 1 else (num, den))
        return out

    @staticmethod
    def dot(xs, ys):
        """Sum of the products x*y over one common denominator."""
        num, den = 0, 1
        for (a, b), (c, d) in zip(xs, ys):
            bd = b * d
            if bd == den:
                num += a * c
            else:
                num, den = num * bd + a * c * den, den * bd
        g = gcd(num, den)
        return (num // g, den // g) if g != 1 else (num, den)

    def matmul(self, X, Y):
        """The product of two raw grids. Up to ``_UNROLL_CAP`` each grid is
        scaled to integers over the lcm of its denominators, the compiled
        int kernel multiplies them, and each entry is put in lowest terms:
        the pairs ``dot`` gives, as lowest terms with den > 0 are unique.
        Past the cap, one ``dot`` per entry."""
        shape = len(X), len(Y), len(Y[0])
        if max(shape) > _UNROLL_CAP:
            return super().matmul(X, Y)
        dx = lcm(*[den for row in X for _, den in row])
        dy = lcm(*[den for row in Y for _, den in row])
        den = dx * dy
        Z = _kernel("int", "matmul", shape)(
            [[num * (dx // d) for num, d in row] for row in X],
            [[num * (dy // d) for num, d in row] for row in Y])
        return [[(z // g, den // g) if (g := gcd(z, den)) != 1 else (z, den)
                 for z in row] for row in Z]

    @staticmethod
    def is_zero(x):
        return not x[0]

    def pivot_key(self, x):
        return self._prime_part(x[0])

    def is_unit(self, x):
        num, den = x
        if not num or any(num % p == 0 for p in self.primes):
            return None
        return _lowest(den, num)

    def divides(self, x, y):
        """y/x, if its denominator is prime to the localized primes."""
        (a, b), (c, d) = x, y
        if not c:
            return self.zero
        if not a:
            return None
        t = _lowest(c * b, d * a)
        return None if any(t[1] % p == 0 for p in self.primes) else t

    def bezout(self, x, y):
        """d = gcd of the prime parts, a1 = x/d, b1 = y/d, and (gx, gy)
        from the integer Bezout pair of the prime parts of a1 and b1; the
        cofactors a1 and b1 are comaximal through (gx, gy) as well."""
        (xn, xd), (yn, yd) = x, y
        zero, prime_part = self.zero, self._prime_part
        if not xn or not yn:
            if not xn and not yn:
                return zero, zero, zero, self.one, zero, self.one, zero
            num, den = x if xn else y
            d = prime_part(num)
            unit, inv = (num // d, den), _lowest(den, num // d)
            if xn:
                return (d, 1), inv, zero, unit, zero, inv, zero
            return (d, 1), zero, inv, zero, unit, zero, inv
        px, py = prime_part(xn), prime_part(yn)
        d = gcd(px, py)
        _, k, l = int_xgcd(px // d, py // d)
        # gx = k * pp(a1) / a1 = k * xd / (xn / px); gy likewise.
        gx, gy = _lowest(k * xd, xn // px), _lowest(l * yd, yn // py)
        return (d, 1), gx, gy, (xn // d, xd), (yn // d, yd), gx, gy

    def unit_canon(self, x):
        """(c, c/x, x/c) for c the prime part of x."""
        num, den = x
        if not num:
            return self.zero, self.one, self.one
        c = self._prime_part(num)
        return (c, 1), _lowest(den, num // c), (num // c, den)


def _lowest(num: int, den: int) -> tuple[int, int]:
    """num/den as a zloc raw pair, for den != 0: lowest terms, den > 0."""
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    return (num // g, den // g) if g != 1 else (num, den)


_PAYLOAD_OPS = {"Z": _NativeOps, "zloc": _RatioOps}


def _cache_ops(cache: EngineCache) -> _FiniteOps:
    """The index adapter of a cache, built once and kept on the cache."""
    ops = cache._ext.get("scalar_ops")
    if ops is None:
        ops = cache._ext["scalar_ops"] = _FiniteOps(cache)
    return ops


def _scalar_ops(ring: Ring):
    """The ring's scalar adapter, built once and memoized.

    Index kernels on finite rings, memoized on the EngineCache; payload
    kernels on the others, memoized on the ring handle. A finite ring past
    the default size bound raises TooLarge: ``build_cache`` refuses it
    with no cache on its handle, and this check refuses it with one, so
    reducing, verifying and the witness methods answer only within the
    default bound.
    """
    if ring.cardinality is not None:
        cache = build_cache(ring)
        if ring.cardinality > DEFAULT_SIZE_BOUND:
            raise TooLarge(f"{ring.spec_string()} exceeds requested bound "
                           f"{DEFAULT_SIZE_BOUND}")
        return _cache_ops(cache)
    ops = getattr(ring, "_scalar_ops_obj", None)
    if ops is None:
        cls = _PAYLOAD_OPS.get(ring.kind, _ValueOps)
        ops = ring._scalar_ops_obj = cls(ring)
    return ops


def _matrix_ops(ring: Ring):
    """The adapter a RingMatrix over ``ring`` keeps: the cache adapter of
    a finite ring, whatever bound its cache was built under, else
    ``_scalar_ops(ring)``."""
    if ring.cardinality is not None:
        return _cache_ops(build_cache(ring))
    return _scalar_ops(ring)


_STRATEGIES = {  # strategy -> (does it reduce over a ring, the error if not)
    "finite_search": (lambda r: r.cardinality is not None,
                      "finite_search needs a finite ring"),
    "euclidean_Z": (lambda r: r.kind == "Z", "euclidean_Z reduces integer matrices only"),
    "zloc_structural": (lambda r: r.kind == "zloc",
                        "zloc_structural reduces zloc matrices only"),
}


def _ops_for(ring: Ring, strategy: str | None):
    """The scalar adapter of ``ring``, once ``strategy`` (by default the
    first that reduces over the ring) is checked against it."""
    if strategy is None:
        strategy = next((s for s, (fits, _) in _STRATEGIES.items() if fits(ring)), None)
        if strategy is None:
            raise UnsupportedSpec(f"no reduction strategy for ring kind {ring.kind!r}")
    if strategy not in _STRATEGIES:
        raise UnsupportedSpec(f"unknown strategy {strategy!r}")
    fits, error = _STRATEGIES[strategy]
    if not fits(ring):
        raise UnsupportedSpec(error)
    return _scalar_ops(ring)


# ---------------------------------------------------------------------------
# raw matrices: lists of rows of payloads or cache indices
# ---------------------------------------------------------------------------


def _box(ops, grid) -> RingMatrix:
    """A RingMatrix over ``ops.ring`` that keeps the raw grid.

    The payloads come from ``ops`` arithmetic or its parser, so they
    belong to the ring by construction and skip the membership checks of
    ``RingMatrix()``. The matrix owns the grid from here on, and nothing
    writes to it.
    """
    M = object.__new__(RingMatrix)
    M.ring, M.rows, M.cols = ops.ring, len(grid), len(grid[0])
    M._entries, M._raw = None, (ops, grid)
    return M


def _unbox(ops, M: RingMatrix) -> list[list]:
    """The raw grid of a RingMatrix over ``ops.ring``, for reading only.

    A matrix of another ring handle, even one of the same spec, raises
    MixedRings.
    """
    kept, grid = M._raw
    if kept is not ops:
        raise MixedRings(f"{M!r} belongs to another handle than {ops.ring!r}")
    return grid


def _verify_raw(ops, A, P, Pinv, D, Q, Qinv):
    """First violated certificate invariant as ``(invariant, position)``.

    Shapes must already match: P and Pinv rows x rows, D rows x cols, Q
    and Qinv cols x cols. Returns None when every invariant holds.
    """
    rows, cols = len(A), len(A[0])
    if rows == cols == 2 and ops.products_2x2 is not None:
        # The same checks in the same order, on row-major entry tuples.
        prod, pp, qq = ops.products_2x2(A, P, Pinv, Q, Qinv)
        (d00, d01), (d10, d11) = D
        want, z, o = (d00, d01, d10, d11), ops.zero, ops.one
        if prod != want:
            k = next(k for k in range(4) if prod[k] != want[k])
            return "product", [k >> 1, k & 1]
        if d01 != z or d10 != z:
            return "diagonal", [0, 1] if d01 != z else [1, 0]
        if ops.divides(d00, d11) is None:
            return "divisibility_chain", 0
        if pp != (o, z, z, o):
            return "P_invertible", None
        return None if qq == (o, z, z, o) else ("Q_invertible", None)
    if ops.products is not None and max(rows, cols) <= _UNROLL_CAP:
        prod, pp, qq = ops.products(A, P, Pinv, Q, Qinv)
    else:
        matmul = ops.matmul
        prod, pp, qq = matmul(matmul(P, A), Q), matmul(P, Pinv), matmul(Q, Qinv)
    if prod != D:  # equal grids skip the entrywise search
        for i in range(rows):
            got, want = prod[i], D[i]
            for j in range(cols):
                if got[j] != want[j]:
                    return "product", [i, j]
    z = ops.zero
    for i in range(rows):
        for j in range(cols):
            if i != j and D[i][j] != z:
                return "diagonal", [i, j]
    for i in range(min(rows, cols) - 1):
        if ops.divides(D[i][i], D[i + 1][i + 1]) is None:
            return "divisibility_chain", i
    if not _is_identity(ops, pp):
        return "P_invertible", None
    if not _is_identity(ops, qq):
        return "Q_invertible", None
    return None


def _is_identity(ops, M) -> bool:
    """M is the identity: one comparison with the adapter's template."""
    return M == ops.identity(len(M))


def _violation(invariant: str, position=None) -> dict:
    """Counterexample payload of a rejected certificate."""
    payload = {"invariant": invariant}
    if position is not None:
        payload["position"] = position
    return payload


# ---------------------------------------------------------------------------
# the reducer
# ---------------------------------------------------------------------------


class _Reducer:
    def __init__(self, ops, grid, rows, cols):
        self.ops = ops
        self.A = grid
        self.rows = rows
        self.cols = cols
        I_rows, I_cols = ops.identity(rows), ops.identity(cols)
        self.P = [row[:] for row in I_rows]
        self.Pinv = [row[:] for row in I_rows]
        self.Q = [row[:] for row in I_cols]
        self.Qinv = [row[:] for row in I_cols]

    # -- elementary column operations (A <- A*E, Q <- Q*E, Qinv <- Einv*Qinv) --

    def col_pair(self, k, j, E, Einv):
        """Columns (k, j) times the 2x2 matrix E, given its inverse Einv.

        (ck, cj) <- (ck*E00 + cj*E10, ck*E01 + cj*E11) in A and Q; rows
        k and j of Qinv become Einv times them.
        """
        ops = self.ops
        lin = ops.lin
        (e00, e01), (e10, e11) = E
        for M in (self.A, self.Q):
            for row in M:
                ck, cj = row[k], row[j]
                row[k] = lin(ck, e00, cj, e10)
                row[j] = lin(ck, e01, cj, e11)
        (f00, f01), (f10, f11) = Einv
        R = self.Qinv
        rk, rj = R[k], R[j]
        R[k] = ops.comb(rk, f00, rj, f01)
        R[j] = ops.comb(rk, f10, rj, f11)

    def col_combine(self, k, j, x, y, b1, a1):
        """Columns (k, j) <- (x*ck + y*cj, -b1*ck + a1*cj); det = 1."""
        self.col_pair(k, j, *_hermite_cols(self.ops, x, y, b1, a1))

    def col_add(self, j, k, t):
        """Column j += t * column k."""
        ops = self.ops
        lin, one = ops.lin, ops.one
        for M in (self.A, self.Q):
            for row in M:
                row[j] = lin(row[j], one, row[k], t)
        R = self.Qinv
        R[k] = ops.comb(R[k], one, R[j], ops.neg(t))

    def col_swap(self, k, j):
        for M in (self.A, self.Q):
            for row in M:
                row[k], row[j] = row[j], row[k]
        R = self.Qinv
        R[k], R[j] = R[j], R[k]

    # -- elementary row operations (A <- E*A, P <- E*P, Pinv <- Pinv*Einv) --

    def row_pair(self, k, i, E, Einv):
        """Rows (k, i) <- E times them in A and P, given the inverse Einv.

        (rk, ri) <- (E00*rk + E01*ri, E10*rk + E11*ri); columns k and i
        of Pinv become them times Einv.
        """
        ops = self.ops
        comb, lin = ops.comb, ops.lin
        (e00, e01), (e10, e11) = E
        for M in (self.A, self.P):
            rk, ri = M[k], M[i]
            M[k] = comb(rk, e00, ri, e01)
            M[i] = comb(rk, e10, ri, e11)
        (f00, f01), (f10, f11) = Einv
        for row in self.Pinv:
            ck, ci = row[k], row[i]
            row[k] = lin(ck, f00, ci, f10)
            row[i] = lin(ck, f01, ci, f11)

    def row_combine(self, k, i, x, y, b1, a1):
        """Rows (k, i) <- (x*rk + y*ri, -b1*rk + a1*ri); det = 1."""
        neg = self.ops.neg
        self.row_pair(k, i, ((x, y), (neg(b1), a1)), ((a1, neg(y)), (b1, x)))

    def row_add(self, i, k, t):
        """Row i += t * row k."""
        ops = self.ops
        lin, one = ops.lin, ops.one
        for M in (self.A, self.P):
            M[i] = ops.comb(M[i], one, M[k], t)
        nt = ops.neg(t)
        for row in self.Pinv:
            row[k] = lin(row[k], one, row[i], nt)

    def row_swap(self, k, i):
        for M in (self.A, self.P):
            M[k], M[i] = M[i], M[k]
        for row in self.Pinv:
            row[k], row[i] = row[i], row[k]

    def row_scale_unit(self, i, u, uinv):
        mul = self.ops.mul
        for M in (self.A, self.P):
            M[i] = [mul(u, p) for p in M[i]]
        for row in self.Pinv:
            row[i] = mul(row[i], uinv)

    # -- pipeline ------------------------------------------------------------

    def select_pivot(self, k) -> bool:
        ops = self.ops
        best = None
        for i in range(k, self.rows):
            for j in range(k, self.cols):
                v = self.A[i][j]
                if ops.is_zero(v):
                    continue
                key = ops.pivot_key(v)
                if best is None or key < best[0]:
                    best = (key, i, j)
        if best is None:
            return False
        _, i, j = best
        if i != k:
            self.row_swap(k, i)
        if j != k:
            self.col_swap(k, j)
        return True

    def sweep(self, k):
        """Clear row k and column k outside the pivot."""
        ops = self.ops
        A = self.A
        for _ in range(_SWEEP_LIMIT):
            for j in range(k + 1, self.cols):
                e = A[k][j]
                if ops.is_zero(e):
                    continue
                t = ops.divides(A[k][k], e)
                if t is not None:
                    self.col_add(j, k, ops.neg(t))
                else:
                    d, x, y, a1, b1, _, _ = ops.bezout(A[k][k], e)
                    self.col_combine(k, j, x, y, b1, a1)
            dirty = False
            for i in range(k + 1, self.rows):
                e = A[i][k]
                if ops.is_zero(e):
                    continue
                t = ops.divides(A[k][k], e)
                if t is not None:
                    self.row_add(i, k, ops.neg(t))
                else:
                    d, x, y, a1, b1, _, _ = ops.bezout(A[k][k], e)
                    self.row_combine(k, i, x, y, b1, a1)
                    dirty = True  # the Hermite row step mixes row i into row k
            if not dirty:
                return
        raise ReductionFailed(f"sweep did not stabilize at pivot {k}")

    def enforce_divisibility(self, k):
        """Make the pivot divide every entry of the trailing minor."""
        ops = self.ops
        for _ in range(_SWEEP_LIMIT):
            p = self.A[k][k]
            bad = None
            for i in range(k + 1, self.rows):
                for j in range(k + 1, self.cols):
                    if ops.divides(p, self.A[i][j]) is None:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                return
            self.row_add(k, bad, ops.one)
            self.sweep(k)
        raise ReductionFailed(f"divisibility enforcement stalled at pivot {k}")

    def kernel_2x2(self, k):
        """The trailing 2x2 block of a larger matrix: the kernel's L on
        rows (k, k+1) and M on columns (k, k+1), with their inverses."""
        j = k + 1
        L, Linv, M, Minv, _, _ = _kernel_transforms(
            self.ops, *self.A[k][k:], *self.A[j][k:])
        self.row_pair(k, j, L, Linv)
        self.col_pair(k, j, M, Minv)

    def normalize_units(self):
        ops = self.ops
        for i in range(min(self.rows, self.cols)):
            c, u, uinv = ops.unit_canon(self.A[i][i])
            if u != ops.one:
                self.row_scale_unit(i, u, uinv)

    def run(self):
        k = 0
        while k < min(self.rows, self.cols):
            if self.ops.kernel and self.rows - k == 2 and self.cols - k == 2:
                self.kernel_2x2(k)
                break
            if not self.select_pivot(k):
                break
            self.sweep(k)
            self.enforce_divisibility(k)
            k += 1
        self.normalize_units()


def _hermite_cols(ops, x, y, b1, a1):
    """The column step (ck, cj) <- (x*ck + y*cj, -b1*ck + a1*cj) as a 2x2
    matrix and its inverse; its determinant x*a1 + y*b1 is 1."""
    neg = ops.neg
    return ((x, neg(b1)), (y, a1)), ((a1, b1), (neg(y), x))


def _kernel_transforms(ops: _FiniteOps, a, b, c, d):
    """Finite-ring kernel for the 2x2 block [[a, b], [c, d]].

    A column step R1 triangularizes the block to [[a', 0], [b', c']].
    The gcd generator g of a', b', c' is factored out with cofactors
    (ta, tb, tc) comaximal as a triple, and a shift r makes
    w = tb + tc*r comaximal with ta: w*x + ta*y = 1. With s = -tc*x,
    one left and one right transform then reach diag(g, -g*ta*tc):

        L = [[y, x], [w, -ta]],  L^-1 = [[ta, x], [w, -y]],
        M = R1 * [[1, s], [r, 1 + r*s]],
        M^-1 = [[1 + r*s, -s], [-r, 1]] * R1^-1.

    L is [[x, y], [-ta, w]] times the row swap, and M is R1 times the
    column swap, [[1, r], [0, 1]], [[1, 0], [s, 1]] and the column swap
    again. Returns (L, L^-1, M, M^-1, g, -g*ta*tc); the zero block gets
    identity transforms and g = 0. The ReductionFailed witnesses show the
    block as those steps leave it: after R1, and also after the swaps for
    a missing shift.
    """
    n, add, mul, neg = ops.n, ops._add, ops._mul, ops._neg
    one, zero = ops.one, ops.zero
    if b == zero:
        R1 = None
        ap, bp, cp = a, c, d
    else:
        t = ops.divides(a, b)
        if t is not None:  # b = a*t
            R1 = ((one, neg[t]), (zero, one)), ((one, t), (zero, one))
        else:
            _, x, y, a1, b1, _, _ = ops.bezout(a, b)
            R1 = _hermite_cols(ops, x, y, b1, a1)
        (m00, m01), (m10, m11) = R1[0]
        an, bn, cn, dn = a * n, b * n, c * n, d * n
        ap = add[mul[an + m00] * n + mul[bn + m10]]
        bp = add[mul[cn + m00] * n + mul[dn + m10]]
        cp = add[mul[cn + m01] * n + mul[dn + m11]]
    if ap == bp == cp == zero:  # so b = 0, as R1 would make a' = gcd(a, b) != 0
        return (*([[one, zero], [zero, one]] for _ in range(4)), zero, zero)
    g, trip = ops.cofactor_triple(ap, bp, cp)
    if trip is None:
        raise ReductionFailed("entry ideal of the 2x2 block is not principal" if g is None
                              else "no comaximal cofactor triple for the 2x2 block",
                              witness=_box(ops, [[ap, zero], [bp, cp]]))
    ta, tb, tc = trip
    r = ops.shift(tc, tb, ta)
    if r is None:
        raise ReductionFailed("no residue shift makes the block comaximal",
                              witness=_box(ops, [[cp, bp], [zero, ap]]))
    w = add[tb * n + mul[tc * n + r]]
    x, y = ops.comax_witness(w, ta)
    s = neg[mul[tc * n + x]]
    rs1, ns, nr = add[one * n + mul[r * n + s]], neg[s], neg[r]
    L, Linv = [[y, x], [w, neg[ta]]], [[ta, x], [w, neg[y]]]
    if R1 is None:
        M, Minv = [[one, s], [r, rs1]], [[rs1, ns], [nr, one]]
    else:
        ((m00, m01), (m10, m11)), ((f00, f01), (f10, f11)) = R1
        sn, rs1n, nrn = s * n, rs1 * n, nr * n
        M = [[add[m00 * n + mul[m01 * n + r]], add[mul[sn + m00] * n + mul[rs1n + m01]]],
             [add[m10 * n + mul[m11 * n + r]], add[mul[sn + m10] * n + mul[rs1n + m11]]]]
        Minv = [[add[mul[rs1n + f00] * n + mul[ns * n + f10]],
                 add[mul[rs1n + f01] * n + mul[ns * n + f11]]],
                [add[mul[nrn + f00] * n + f10], add[mul[nrn + f01] * n + f11]]]
    return L, Linv, M, Minv, g, neg[mul[ap * n + tc]]  # g*ta = a'


def _reduce_2x2(ops: _FiniteOps, a, b, c, d):
    """The kernel on a whole 2x2 matrix: P = L and Q = M with their
    inverses, and D = L*A*M written down as diag(g, -g*ta*tc). The unit
    u that ``normalize_units`` would use on a diagonal entry scales that
    row of P, and u^-1 that column of Pinv."""
    L, Linv, M, Minv, g, h = _kernel_transforms(ops, a, b, c, d)
    n, one, mul = ops.n, ops.one, ops._mul
    canons = ops.unit_canon(g), ops.unit_canon(h)
    for i, (_, u, uinv) in enumerate(canons):
        if u != one:
            L[i] = [mul[u * n + p] for p in L[i]]
            for row in Linv:
                row[i] = mul[row[i] * n + uinv]
    return L, Linv, [[canons[0][0], ops.zero], [ops.zero, canons[1][0]]], M, Minv


def _reduce_raw(ops, grid):
    """Reduce a raw grid; returns the raw (P, Pinv, D, Q, Qinv).

    Raises ReductionFailed; a missing Bezout gcd carries the whole input
    matrix as its witness.
    """
    rows, cols = len(grid), len(grid[0])
    try:
        if ops.kernel and rows == cols == 2:
            return _reduce_2x2(ops, *grid[0], *grid[1])
        red = _Reducer(ops, [list(row) for row in grid], rows, cols)
        red.run()
    except NotBezout as exc:
        raise ReductionFailed(str(exc), witness=_box(ops, grid)) from exc
    return red.P, red.Pinv, red.A, red.Q, red.Qinv


def _comax_triangular_raw(ops, a, b, c, r):
    """Raw (P, Pinv, D, Q, Qinv) for [[a, b], [0, c]] with b + a*r comaximal c.

    With w = b + a*r and w*x + c*y = 1, P = [[x, y], [-c, w]] and the right
    transform [[1, r], [0, 1]] * [[1, 0], [-a*x, 1]] * [[0, 1], [1, 0]]
    multiply out to Q = [[r, 1 - r*a*x], [1, -a*x]]; their inverses are
    written down the same way. D is written down too: multiplied out, P*A*Q
    is [[w*x + c*y, 0], [0, -a*c]], and w*x + c*y = 1, so D = diag(1, -a*c).
    The verifier still multiplies P*A*Q and compares it with D.
    """
    w = ops.add(b, ops.mul(a, r))
    d, gx, gy, _, _, _, _ = ops.bezout(w, c)
    dinv = ops.is_unit(d)
    if dinv is None:
        raise NotComaximal(
            f"({ops.to_elem(w)}, {ops.to_elem(c)}) generate a proper ideal")
    add, mul, neg = ops.add, ops.mul, ops.neg
    x, y = mul(gx, dinv), mul(gy, dinv)
    ax = mul(a, x)
    nax, nr = neg(ax), neg(r)
    one, zero = ops.one, ops.zero
    P = [[x, y], [neg(c), w]]
    Pinv = [[w, neg(y)], [c, x]]
    Q = [[r, add(one, mul(r, nax))], [one, nax]]
    Qinv = [[ax, add(one, mul(ax, nr))], [one, nr]]
    D = [[one, zero], [zero, neg(mul(a, c))]]
    return P, Pinv, D, Q, Qinv


def _certificate(ops, raw) -> ReductionCertificate:
    return ReductionCertificate(*(_box(ops, M) for M in raw))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def hermite_step(ring: Ring, a: Element, b: Element
                 ) -> tuple[Element, RingMatrix]:
    """One Hermite column step: (a b) * Q = (d 0) with Q invertible.

    Q is assembled from the raw Hermite witness as columns (x, y) and
    (-b1, a1); its determinant is x*a1 + y*b1, the comaximality
    combination, which the witness construction pins to 1. The degenerate
    pair (0, 0) returns the identity transform.
    """
    ops = _scalar_ops(ring)
    x, y = ops.from_elem(a), ops.from_elem(b)
    if ops.is_zero(x) and ops.is_zero(y):
        return ring.zero, RingMatrix.identity(ring, 2)
    d, x, y, a1, b1, _, _ = ops.bezout(x, y)
    return ops.to_elem(d), _box(ops, [[x, ops.neg(b1)], [y, a1]])


def comax_triangular_reduce(ring: Ring, a: Element, b: Element, c: Element,
                            r: Element) -> ReductionCertificate:
    """Reduce [[a, b], [0, c]] to diag(1, -a*c) given (b + a*r) comaximal c.

    The left transform is [[x, y], [-c, b+a*r]] for the comaximality
    witness (b+a*r)*x + c*y = 1; the right transform is the product
    [[1, r], [0, 1]] * [[1, 0], [-a*x, 1]] * [[0, 1], [1, 0]]. Raises
    NotComaximal when no witness exists.
    """
    ops = _scalar_ops(ring)
    raw = _comax_triangular_raw(ops, *(ops.from_elem(e) for e in (a, b, c, r)))
    return _certificate(ops, raw)


def solve_reduction_residue(ring: Ring, a: Element, b: Element, c: Element,
                            strategy: str = "search") -> Element:
    """Find r with (b + a*r) comaximal to c on a finite ring.

    ``search`` is ``EngineCache.shift``, the kernel's scan. ``quotient`` builds
    R/cR and scans for the first r whose image makes b + a*r invertible
    there, then returns that r; both strategies must agree on solvability.
    Raises NoResidue when the scan is exhausted.
    """
    cache = build_cache(ring)
    ia, ib, ic = (cache.index_of(v) for v in (a, b, c))
    n = cache.n
    if strategy == "search":
        r = cache.shift(ia, ib, ic)
        if r is None:
            raise NoResidue("no residue shift exists for this triple")
        return cache.element(r)
    if strategy == "quotient":
        from .concrete import quotient_ring

        q, proj = quotient_ring(ring, [c])
        qcache = build_cache(q)
        for r in range(n):
            w = cache.add[ib * n + cache.mul[ia * n + r]]
            img = proj[cache.element(w)]
            if qcache.index_of(img) in qcache.units:
                return cache.element(r)
        raise NoResidue("no residue shift exists for this triple (quotient route)")
    raise ValueError(f"unknown strategy {strategy!r}")


def diagonal_reduce(ring: Ring, A: RingMatrix,
                    strategy: str | None = None) -> ReductionCertificate:
    """Produce a verified-by-construction diagonal reduction certificate.

    Raises ReductionFailed (carrying the irreducible block as witness) when
    the ring cannot reduce the instance, which is a legitimate negative
    result for non-Bezout table rings.
    """
    if A.ring is not ring:
        raise ValueError("matrix does not belong to the ring")
    ops = _ops_for(ring, strategy)
    return _certificate(ops, _reduce_raw(ops, _unbox(ops, A)))


def verify_certificate(ring: Ring, A: RingMatrix,
                       cert: ReductionCertificate) -> PropertyResult:
    """Re-check every certificate invariant by direct arithmetic.

    Checks the shapes of all five matrices, P*A*Q = D entrywise, diagonality
    of D, the divisibility chain d_i | d_{i+1} (with d | 0 for every d), and
    P*Pinv = Q*Qinv = I, on cache indices for finite rings and on payloads
    otherwise. The verdict names the first violated invariant and its
    position.
    """
    mats = (cert.P, cert.Pinv, cert.D, cert.Q, cert.Qinv)
    r, c = A.rows, A.cols
    shapes = ((r, r), (r, r), (r, c), (c, c), (c, c))
    if any((M.rows, M.cols) != shape for M, shape in zip(mats, shapes)):
        return PropertyResult("certificate", False,
                              counterexample=_violation("shape"))
    ops = _scalar_ops(ring)
    raw = [_unbox(ops, M) for M in (A, *mats)]
    bad = _verify_raw(ops, *raw)
    if bad is not None:
        return PropertyResult("certificate", False,
                              counterexample=_violation(*bad))
    D, fmt = raw[3], ops.fmt
    return PropertyResult("certificate", True,
                          witness={"diagonal": [fmt(D[i][i])
                                                for i in range(min(r, c))]})


def matrix_to_json(A: RingMatrix) -> dict:
    return {"ring": A.ring.spec_string(), "rows": A.to_strings()}


def matrix_from_json(ring: Ring, data: dict) -> RingMatrix:
    return RingMatrix.from_strings(ring, data["rows"])
