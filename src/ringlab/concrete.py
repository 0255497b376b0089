"""Concrete ring kinds and the ring-spec grammar.

Supported kinds (spec syntax in parentheses):

* the integers (``Z``)
* modular integers (``Zn:<n>``, n >= 2)
* finite direct products (``prod(<spec>,<spec>[,...])``)
* polynomial quotients Z[x]/(n, f) (``polyq:<n>:<f>``, monic f; ``n=0`` is
  allowed only with ``f = x^2-1`` and gives the infinite ring Z[a], a^2 = 1)
* the integers localized away from a finite prime set
  (``zloc:{p1,p2,...}``: fractions m/n with no p dividing n; each p < 2^31)
* dual integers a + b*x with integer a, rational b and x^2 = 0 (``dualint``)
* table rings loaded from JSON files (``table:<path>``)
* quotients of finite rings by one element (``quot(<finite-spec>,<element>)``)

Table-ring files are JSON objects ``{size, add, mul, zero, one}`` with
row-major integer index tables (``size``, ``zero``, ``one`` and every
entry a JSON integer) of at most ``TABLE_VERIFY_LIMIT`` elements. The ring
axioms are decided over the whole table at load time, on the index tables,
in O(n²·|G|) lookups (``_check_table_axioms``), for the additive generating
set G that the ``cache`` module docstring describes, of at most log2 n
elements. Quotient rings are materialized as table rings whose elements are
coset representatives of least enumeration index.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import product as iter_product
from math import gcd, isqrt
from pathlib import Path
from typing import Callable

from .cache import EngineCache, additive_generators
from .engine import build_cache
from .errors import (
    AxiomViolation,
    ParseError,
    TooLarge,
    UnsupportedSpec,
)
from .rings import Element, Ring, int_xgcd

TABLE_VERIFY_LIMIT = 512
# The largest exponent a polynomial string may name: parsing allocates one
# coefficient per power.
POLY_DEGREE_LIMIT = 100_000
# The deepest bracket nesting of a spec or element: make_ring recurses per level.
SPEC_NESTING_LIMIT = 64
# zloc primes are tested by trial division up to sqrt(p) < 46,341.
ZLOC_PRIME_LIMIT = 2**31
# polyq:n:f is refused (TooLarge) when deg(f) times the bit length of n
# exceeds this, so that its cardinality n^deg(f) is never computed.
POLYQ_SIZE_BITS = 2**20


# ---------------------------------------------------------------------------
# integer polynomial strings
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^([+-]?)(\d+)?(x(?:\^(\d+))?)?$")


def parse_int_poly(text: str) -> tuple[int, ...]:
    """Parse a univariate integer polynomial like ``x^2-1`` or ``3+2x``.

    Returns ascending coefficients, trailing zeros stripped (``(0,)`` for
    the zero polynomial). An exponent above ``POLY_DEGREE_LIMIT`` or an
    integer past ``sys.get_int_max_str_digits()`` is a ParseError, raised
    before the coefficient list is allocated.
    """
    s = text.replace(" ", "").replace("**", "^").replace("*", "")
    if not s:
        raise ParseError("empty polynomial")
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ParseError(f"malformed polynomial {text!r}")
    coeffs: dict[int, int] = {}
    for term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ParseError(f"bad term {term!r} in polynomial {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        try:
            coef = int(m.group(2)) if m.group(2) is not None else 1
            power = int(m.group(4) or 1) if m.group(3) else 0
        except ValueError as exc:  # past sys.get_int_max_str_digits()
            raise ParseError(f"bad term in polynomial: {exc}") from exc
        if power > POLY_DEGREE_LIMIT:
            raise ParseError(f"exponent {power} is above the limit "
                             f"{POLY_DEGREE_LIMIT}")
        coeffs[power] = coeffs.get(power, 0) + sign * coef
    deg = max(coeffs)
    out = [coeffs.get(i, 0) for i in range(deg + 1)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def format_int_poly(coeffs, descending: bool = False) -> str:
    """Format ascending coefficients as a compact polynomial string."""
    terms = [(p, c) for p, c in enumerate(coeffs) if c != 0]
    if not terms:
        return "0"
    if descending:
        terms.reverse()
    parts = []
    for i, (p, c) in enumerate(terms):
        sign = "-" if c < 0 else ("+" if i > 0 else "")
        mag = abs(c)
        if p == 0:
            body = str(mag)
        else:
            xpart = "x" if p == 1 else f"x^{p}"
            body = xpart if mag == 1 else f"{mag}{xpart}"
        parts.append(sign + body)
    return "".join(parts)


def _split_top_level(s: str, sep: str) -> list[str]:
    """Split on ``sep`` outside any (), {}, [] nesting. ``s`` is inside one
    bracket pair, so nesting past ``SPEC_NESTING_LIMIT`` is a ParseError."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "({[":
            depth += 1
            if depth >= SPEC_NESTING_LIMIT:
                raise ParseError(
                    f"brackets nested deeper than the limit {SPEC_NESTING_LIMIT}")
        elif ch in ")}]":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced brackets in {s!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced brackets in {s!r}")
    parts.append("".join(cur))
    return parts


# ---------------------------------------------------------------------------
# infinite structured kinds
# ---------------------------------------------------------------------------


class IntegerRing(Ring):
    """The ring of integers with extended-Euclid Bezout witnesses."""

    kind = "Z"
    cardinality = None

    def _canon(self, value):
        if not isinstance(value, int):
            raise ParseError(f"integer expected, got {value!r}")
        return value

    def _add(self, x, y):
        return x + y

    def _mul(self, x, y):
        return x * y

    def _neg(self, x):
        return -x

    def _zero_raw(self):
        return 0

    def _one_raw(self):
        return 1

    def _format(self, value):
        return str(value)

    def _parse(self, text):
        try:
            return int(text.strip())
        except ValueError as exc:
            raise ParseError(f"bad integer {text!r}") from exc

    def spec_string(self):
        return "Z"


class IntQuadRing(Ring):
    """Z[x]/(x^2 - 1): pairs a + b*x with x^2 = 1.

    Decidable through the evaluation embedding x -> (1, -1) into Z x Z,
    whose image is the set of pairs with equal parity. Supports arithmetic,
    units, and divisibility only; the ring is not assumed Bezout.
    """

    kind = "polyq"
    cardinality = None

    def _canon(self, value):
        a, b = value
        if not (isinstance(a, int) and isinstance(b, int)):
            raise ParseError(f"integer pair expected, got {value!r}")
        return (a, b)

    def _add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def _mul(self, x, y):
        a, b = x
        c, d = y
        return (a * c + b * d, a * d + b * c)

    def _neg(self, x):
        return (-x[0], -x[1])

    def _zero_raw(self):
        return (0, 0)

    def _one_raw(self):
        return (1, 0)

    def _format(self, value):
        return format_int_poly(value)

    def _parse(self, text):
        coeffs = parse_int_poly(text)
        if len(coeffs) > 2:
            raise ParseError(f"element {text!r} has degree > 1")
        a = coeffs[0]
        b = coeffs[1] if len(coeffs) > 1 else 0
        return (a, b)

    @staticmethod
    def embed(value) -> tuple[int, int]:
        """Evaluation at x = +1 and x = -1."""
        a, b = value
        return (a + b, a - b)

    @staticmethod
    def unembed(u: int, v: int) -> tuple[int, int]:
        if (u - v) % 2:
            raise ValueError(f"({u}, {v}) is not in the embedded image")
        return ((u + v) // 2, (u - v) // 2)

    def _is_unit_raw(self, x):
        u, v = self.embed(x)
        if u in (1, -1) and v in (1, -1):
            return x  # all four units square to 1
        return None

    def _divides_raw(self, x, y):
        xu, xv = self.embed(x)
        yu, yv = self.embed(y)
        tu = tv = None
        if xu == 0:
            if yu != 0:
                return None
        else:
            q, r = divmod(yu, xu)
            if r:
                return None
            tu = q
        if xv == 0:
            if yv != 0:
                return None
        else:
            q, r = divmod(yv, xv)
            if r:
                return None
            tv = q
        if tu is None and tv is None:
            return (0, 0)
        if tu is None:
            tu = tv
        if tv is None:
            tv = tu
        if (tu - tv) % 2:
            return None
        return self.unembed(tu, tv)

    def spec_string(self):
        return "polyq:0:x^2-1"


_EXPONENT_RE = re.compile(r"[eE]([-+]?[0-9][0-9_]*)$")
# The form ``_format`` writes: an ASCII integer or integer ratio.
_RATIO_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# 0 (no limit) on 3.10 releases older than 3.10.7, which have no limit.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _more_digits(n: int, limit: int) -> bool:
    """True iff |n| has more than ``limit`` decimal digits."""
    n = abs(n)
    # Below 2^(3*limit) < 10^limit no power of ten is needed.
    return n.bit_length() > 3 * limit and n >= 10 ** limit


class LocalizedIntegerRing(Ring):
    """Integers localized at a finite prime set P: fractions m/n, no p | n.

    Element structure is governed by the p-adic valuations of the numerator
    at the primes of P; everything else is a unit. Divisibility and Bezout
    data follow by comparing valuations.
    """

    kind = "zloc"
    cardinality = None

    def __init__(self, primes):
        ps = sorted(set(int(p) for p in primes))
        if not ps:
            raise UnsupportedSpec("zloc needs at least one prime")
        for p in ps:
            if p >= ZLOC_PRIME_LIMIT:
                raise UnsupportedSpec(f"zloc primes must be below 2^31, got {p}")
            if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
                raise UnsupportedSpec(f"{p} is not prime")
        if len(ps) != len(list(primes)):
            raise UnsupportedSpec("zloc primes must be distinct")
        self.primes = tuple(ps)

    def _canon(self, value):
        # A Fraction (what ``_parse`` returns) is already in lowest terms.
        f = value if type(value) is Fraction else Fraction(value)
        self._local_pair(f.numerator, f.denominator)
        return f

    def _local_pair(self, num: int, den: int) -> tuple[int, int]:
        """``(num, den)``, in lowest terms with den > 0, if no localized
        prime divides den; ParseError otherwise."""
        for p in self.primes:
            if den % p == 0:
                raise ParseError(
                    f"{Fraction(num, den)} is not in {self.spec_string()}: "
                    f"denominator divisible by {p}"
                )
        return num, den

    def _add(self, x, y):
        return x + y

    def _mul(self, x, y):
        return x * y

    def _neg(self, x):
        return -x

    def _zero_raw(self):
        return Fraction(0)

    def _one_raw(self):
        return Fraction(1)

    def _format(self, value):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"

    def _ascii_ratio(self, text: str) -> tuple[int, int] | None:
        """The ASCII ``m`` and ``m/n`` forms, which ``_format`` writes, as
        ``(num, den)`` in lowest terms with den > 0; None for any other
        string. ``int`` enforces the digit limit."""
        ratio = _RATIO_RE.fullmatch(text)
        if ratio is None:
            return None
        num, den = ratio.groups()
        try:
            num, den = int(num), int(den or 1)
        except ValueError as exc:
            raise ParseError(f"bad fraction {text!r}") from exc
        if not den:
            raise ParseError(f"bad fraction {text!r}")
        g = gcd(num, den)
        return num // g, den // g

    def _parse(self, text):
        """A fraction string; at most ``sys.get_int_max_str_digits()``
        digits in the numerator and in the denominator, as for Z.

        The ASCII forms are read by ``_ascii_ratio``; every other string
        goes through ``Fraction``.
        """
        ratio = self._ascii_ratio(text)
        if ratio is not None:
            return Fraction(*ratio)
        limit = _int_max_str_digits()
        try:
            s = text.strip()
            exp = _EXPONENT_RE.search(s)
            if limit and exp and abs(int(exp.group(1))) > limit + len(s):
                # Fraction would compute 10**exponent first (even for a
                # zero mantissa); a nonzero value would have too many
                # digits.
                raise ParseError(f"exponent of {text!r} is out of range")
            f = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad fraction {text!r}") from exc
        if limit and (_more_digits(f.numerator, limit)
                      or _more_digits(f.denominator, limit)):
            raise ParseError(f"fraction {text!r} has more than {limit} digits")
        return f

    def valuation(self, value: Fraction, p: int) -> int | None:
        """p-adic valuation of the numerator; None means infinite (value 0)."""
        m = value.numerator
        if m == 0:
            return None
        v = 0
        while m % p == 0:
            m //= p
            v += 1
        return v

    def _int_prime_part(self, m: int) -> int:
        """Product of p^v_p(m) over the localized primes for an int m; 0 for
        0. The prime part of a value is that of its numerator."""
        if not m:
            return 0
        out = 1
        for p in self.primes:
            while m % p == 0:
                m //= p
                out *= p
        return out

    def spec_string(self):
        return "zloc:{" + ",".join(str(p) for p in self.primes) + "}"


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Positive generator of the additive group aZ + bZ inside Q."""
    if a == 0 and b == 0:
        return Fraction(0)
    num = gcd(abs(a.numerator) * b.denominator, abs(b.numerator) * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


class DualIntRing(Ring):
    """Dual integers a + b*x with a in Z, b in Q, and x^2 = 0."""

    kind = "dualint"
    cardinality = None

    def _canon(self, value):
        a, b = value
        if not isinstance(a, int):
            raise ParseError(f"integer part of {value!r} must be an integer")
        return (a, Fraction(b))

    def _add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def _mul(self, x, y):
        a, b = x
        c, d = y
        return (a * c, a * d + b * c)

    def _neg(self, x):
        return (-x[0], -x[1])

    def _zero_raw(self):
        return (0, Fraction(0))

    def _one_raw(self):
        return (1, Fraction(0))

    def _format(self, value):
        a, b = value
        if b == 0:
            return str(a)
        sign = "-" if b < 0 else "+"
        mag = abs(b)
        if mag == 1:
            xpart = "x"
        elif mag.denominator == 1:
            xpart = f"{mag.numerator}x"
        else:
            xpart = f"{mag.numerator}/{mag.denominator} x"
        return f"{a}{sign}{xpart}"

    _XTERM_RE = re.compile(r"(?P<coef>[+-]?(?:\d+(?:/\d+)?)?)\s*\*?\s*x\s*$")

    def _parse(self, text):
        s = text.strip()
        if not s:
            raise ParseError("empty dual integer")
        if "x" not in s:
            try:
                return (int(s), Fraction(0))
            except ValueError as exc:
                raise ParseError(f"bad dual integer {text!r}") from exc
        m = self._XTERM_RE.search(s)
        if not m:
            raise ParseError(f"bad dual integer {text!r}")
        coef = m.group("coef")
        if coef in ("", "+"):
            b = Fraction(1)
        elif coef == "-":
            b = Fraction(-1)
        else:
            b = Fraction(coef)
        prefix = s[: m.start()].strip()
        try:
            a = int(prefix) if prefix else 0
        except ValueError as exc:
            raise ParseError(f"bad dual integer {text!r}") from exc
        return (a, b)

    def _is_unit_raw(self, x):
        a, b = x
        if a in (1, -1):
            return (a, -b)
        return None

    def _divides_raw(self, x, y):
        a, b = x
        c, d = y
        if a == 0:
            if c != 0:
                return None
            if b == 0:
                return (0, Fraction(0)) if d == 0 else None
            t = d / b
            if t.denominator != 1:
                return None
            return (int(t), Fraction(0))
        q, r = divmod(c, a)
        if r:
            return None
        return (q, (d - b * q) / a)

    def _bezout_raw(self, x, y):
        zero = (0, Fraction(0))
        one = (1, Fraction(0))
        a1i, b1f = x
        a2i, b2f = y
        if x == zero and y == zero:
            return (zero, zero, zero, one, zero, one, zero)
        if a1i != 0 or a2i != 0:
            p, k, l = int_xgcd(a1i, a2i)
            d = (p, Fraction(0))
            # Clear the x-coefficient of x*X + y*Y through the nonzero slot.
            if a1i != 0:
                e1 = -(b1f * k + b2f * l) / a1i
                X, Y = (k, e1), (l, Fraction(0))
            else:
                e2 = -(b1f * k + b2f * l) / a2i
                X, Y = (k, Fraction(0)), (l, e2)
            c1 = (a1i // p, b1f / p)
            c2 = (a2i // p, b2f / p)
            g, U0, V0 = int_xgcd(c1[0], c2[0])
            if c1[0] != 0:
                eu = -(c1[1] * U0 + c2[1] * V0) / c1[0]
                u, v = (U0, eu), (V0, Fraction(0))
            else:
                ev = -(c1[1] * U0 + c2[1] * V0) / c2[0]
                u, v = (U0, Fraction(0)), (V0, ev)
            return (d, X, Y, c1, c2, u, v)
        q = _frac_gcd(b1f, b2f)
        m1 = int(b1f / q)
        m2 = int(b2f / q)
        g, U0, V0 = int_xgcd(m1, m2)
        d = (0, q)
        X, Y = (U0, Fraction(0)), (V0, Fraction(0))
        return (d, X, Y, (m1, Fraction(0)), (m2, Fraction(0)), X, Y)

    def spec_string(self):
        return "dualint"


# ---------------------------------------------------------------------------
# finite kinds
# ---------------------------------------------------------------------------


class ModularRing(Ring):
    """Z/nZ with canonical representatives 0..n-1."""

    kind = "Zn"

    def __init__(self, n: int):
        n = int(n)
        if n < 2:
            raise UnsupportedSpec(f"Zn needs modulus >= 2, got {n}")
        self.n = n
        self.cardinality = n

    def _canon(self, value):
        return int(value) % self.n

    def _add(self, x, y):
        return (x + y) % self.n

    def _mul(self, x, y):
        return (x * y) % self.n

    def _neg(self, x):
        return (-x) % self.n

    def _zero_raw(self):
        return 0

    def _one_raw(self):
        return 1 % self.n

    def _values(self):
        return iter(range(self.n))

    def _format(self, value):
        return str(value)

    def _parse(self, text):
        try:
            return int(text.strip()) % self.n
        except ValueError as exc:
            raise ParseError(f"bad residue {text!r}") from exc

    def spec_string(self):
        return f"Zn:{self.n}"


class ProductRing(Ring):
    """Finite direct product with componentwise operations."""

    kind = "prod"

    def __init__(self, factors):
        factors = tuple(factors)
        if len(factors) < 2:
            raise UnsupportedSpec("prod needs at least two factors")
        for f in factors:
            if f.cardinality is None:
                raise UnsupportedSpec(
                    f"prod factors must be finite, got {f.spec_string()}"
                )
        self.factors = factors
        card = 1
        for f in factors:
            card *= f.cardinality
        self.cardinality = card

    def _canon(self, value):
        value = tuple(value)
        if len(value) != len(self.factors):
            raise ParseError(
                f"product element needs {len(self.factors)} components"
            )
        return tuple(f._canon(v) for f, v in zip(self.factors, value))

    def _add(self, x, y):
        return tuple(f._add(a, b) for f, a, b in zip(self.factors, x, y))

    def _mul(self, x, y):
        return tuple(f._mul(a, b) for f, a, b in zip(self.factors, x, y))

    def _neg(self, x):
        return tuple(f._neg(a) for f, a in zip(self.factors, x))

    def _zero_raw(self):
        return tuple(f._zero_raw() for f in self.factors)

    def _one_raw(self):
        return tuple(f._one_raw() for f in self.factors)

    def _values(self):
        return iter_product(*[list(f._values()) for f in self.factors])

    def _format(self, value):
        return "(" + "|".join(f._format(v) for f, v in zip(self.factors, value)) + ")"

    def _parse(self, text):
        s = text.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ParseError(f"product element {text!r} must look like (a|b)")
        parts = _split_top_level(s[1:-1], "|")
        if len(parts) != len(self.factors):
            raise ParseError(
                f"product element {text!r} needs {len(self.factors)} components"
            )
        return tuple(f._parse(p) for f, p in zip(self.factors, parts))

    def spec_string(self):
        return "prod(" + ",".join(f.spec_string() for f in self.factors) + ")"


class PolyQuotientRing(Ring):
    """Z[x]/(n, f) for n >= 2 and monic f: tuples of residue coefficients."""

    kind = "polyq"

    def __init__(self, n: int, f_coeffs):
        n = int(n)
        if n < 2:
            raise UnsupportedSpec(f"polyq needs modulus >= 2, got {n}")
        f = tuple(int(c) for c in f_coeffs)
        if len(f) < 2:
            raise UnsupportedSpec("polyq modulus polynomial must have degree >= 1")
        if f[-1] != 1:
            raise UnsupportedSpec("polyq modulus polynomial must be monic")
        self.n = n
        self.f = f
        self.deg = len(f) - 1
        if self.deg * n.bit_length() > POLYQ_SIZE_BITS:
            raise TooLarge(f"polyq with a {n.bit_length()}-bit modulus and "
                           f"degree {self.deg}: degree times modulus bits "
                           f"exceeds {POLYQ_SIZE_BITS}")
        self.cardinality = n ** self.deg

    def _reduce(self, coeffs) -> tuple[int, ...]:
        c = [x % self.n for x in coeffs]
        if len(c) < self.deg:
            c.extend([0] * (self.deg - len(c)))
        for k in range(len(c) - 1, self.deg - 1, -1):
            lead = c[k]
            if lead:
                off = k - self.deg
                for i, fc in enumerate(self.f):
                    c[off + i] = (c[off + i] - lead * fc) % self.n
        return tuple(c[: self.deg])

    def _canon(self, value):
        return self._reduce(list(value))

    def _add(self, x, y):
        return tuple((a + b) % self.n for a, b in zip(x, y))

    def _mul(self, x, y):
        out = [0] * (2 * self.deg - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    out[i + j] += a * b
        return self._reduce(out)

    def _neg(self, x):
        return tuple((-a) % self.n for a in x)

    def _zero_raw(self):
        return (0,) * self.deg

    def _one_raw(self):
        return tuple([1 % self.n] + [0] * (self.deg - 1))

    def _values(self):
        n, deg = self.n, self.deg
        for i in range(n**deg):
            digits = []
            t = i
            for _ in range(deg):
                digits.append(t % n)
                t //= n
            yield tuple(digits)

    def _format(self, value):
        return format_int_poly(value)

    def _parse(self, text):
        return self._reduce(list(parse_int_poly(text)))

    def spec_string(self):
        return f"polyq:{self.n}:{format_int_poly(self.f, descending=True)}"


def _check_table_axioms(add, mul, zero, one) -> None:
    """Decide the commutative-ring axioms on index tables whose rows all
    hold ``zero``, in O(n²·|G|) lookups; raise AxiomViolation at a failing
    element, pair or triple. G is the generating set of the ``cache``
    module docstring, ``additive_generators`` on the table's own add rows,
    taken only once + is known to commute, so g + x = x + g. Its walk
    reaches every index, each as g + x with g in G and x reached before it,
    from 0. So a set that holds 0 and is closed under x ↦ x + g for each g
    in G holds every index, in the order of the walk: it is the whole ring,
    and:

    1. a + 0 = a and a·1 = a for each a; + and · commute on all pairs.
    2. (a + g) + b = a + (g + b) for all a, b (Light's test). The m with
       (a + m) + b = a + (m + b) for all a, b hold 0, and m + m' with m,
       m': (a + (m + m')) + b = ((a + m) + m') + b = (a + m) + (m' + b) =
       a + (m + (m' + b)) = a + ((m + m') + b). So + is a group.
    3. a(b + g) = ab + ag for all a, b. At b = 0 it gives a·0 = 0 (G is
       empty only if n = 1). The c with a(b + c) = ab + ac for all a, b
       hold 0, and c + g with c: a(b + c + g) = ab + ac + ag = ab + a(c + g).
    4. (ab)g = a(bg) for all a, b. The c with (ab)c = a(bc) for all a, b
       hold 0, and c + g with c: (ab)(c + g) = a(bc) + a(bg) = a(b(c + g)).
    """
    n = len(add)
    for a in range(n):
        if add[a][zero] != a:
            raise AxiomViolation(f"a + 0 != a at {a}")
        if mul[a][one] != a:
            raise AxiomViolation(f"a * 1 != a at {a}")
    for a in range(n):
        for b in range(a + 1, n):
            if add[a][b] != add[b][a]:
                raise AxiomViolation(f"addition not commutative at {a}, {b}")
            if mul[a][b] != mul[b][a]:
                raise AxiomViolation(f"multiplication not commutative at {a}, {b}")
    for g in additive_generators(n, zero, add.__getitem__)[0]:
        for a in range(n):
            add_a, mul_a = add[a], mul[a]  # each law as two rows over b
            for message, left, right in (
                    ("addition not associative at {a}, {g}, {b}",
                     add[add_a[g]], [add_a[v] for v in add[g]]),
                    ("distributivity fails at {a}, {b}, {g}",
                     [mul_a[v] for v in add[g]], [add[mul_a[g]][u] for u in mul_a]),
                    ("multiplication not associative at {a}, {b}, {g}",
                     [mul[g][u] for u in mul_a], [mul_a[v] for v in mul[g]])):
                if left != right:
                    b = next(b for b in range(n) if left[b] != right[b])
                    raise AxiomViolation(message.format(a=a, b=b, g=g))


class TableRing(Ring):
    """Finite ring given by explicit operation tables over element indices."""

    kind = "table"

    def __init__(self, size, add_table, mul_table, zero, one,
                 spec_str: str | None = None, verify: bool = True):
        size = int(size)
        if size < 1:
            raise AxiomViolation("table ring must have at least one element")
        add_table = [list(map(int, row)) for row in add_table]
        mul_table = [list(map(int, row)) for row in mul_table]
        for name, tab in (("add", add_table), ("mul", mul_table)):
            if len(tab) != size or any(len(row) != size for row in tab):
                raise AxiomViolation(f"{name} table is not {size}x{size}")
            if any(v < 0 or v >= size for row in tab for v in row):
                raise AxiomViolation(f"{name} table has out-of-range entries")
        if not (0 <= zero < size and 0 <= one < size):
            raise AxiomViolation("zero/one indices out of range")
        self.size = size
        self.add_table = add_table
        self.mul_table = mul_table
        self.zero_idx = int(zero)
        self.one_idx = int(one)
        self.cardinality = size
        self._spec_str = spec_str
        # Additive inverses must exist for this to be a ring at all.
        for i, row in enumerate(add_table):
            if self.zero_idx not in row:
                raise AxiomViolation(f"element {i} has no additive inverse")
        self._negs = [row.index(self.zero_idx) for row in add_table]
        if verify:
            if size > TABLE_VERIFY_LIMIT:
                raise TooLarge(
                    f"table ring of size {size} exceeds the exhaustive "
                    f"verification limit {TABLE_VERIFY_LIMIT}"
                )
            _check_table_axioms(add_table, mul_table, self.zero_idx, self.one_idx)

    def _canon(self, value):
        v = int(value)
        if not 0 <= v < self.size:
            raise ParseError(f"index {value!r} out of range for {self.spec_string()}")
        return v

    def _add(self, x, y):
        return self.add_table[x][y]

    def _mul(self, x, y):
        return self.mul_table[x][y]

    def _neg(self, x):
        return self._negs[x]

    def _zero_raw(self):
        return self.zero_idx

    def _one_raw(self):
        return self.one_idx

    def _values(self):
        return iter(range(self.size))

    def _format(self, value):
        return str(value)

    def _parse(self, text):
        try:
            return self._canon(int(text.strip()))
        except ValueError as exc:
            raise ParseError(f"bad table index {text!r}") from exc

    def spec_string(self):
        return self._spec_str or f"table:<anonymous-{self.size}>"


def load_table_ring(path: str) -> TableRing:
    """Load a table ring from a JSON file, verifying the ring axioms."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read table ring file {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, huge int, deep nesting
        raise ParseError(f"bad JSON in table ring file {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"table ring file {path!r} is not a JSON object")
    try:
        size, add, mul, zero, one = (data[k] for k in
                                     ("size", "add", "mul", "zero", "one"))
    except KeyError as exc:
        raise ParseError(f"table ring file {path!r} is missing key {exc}") from exc
    # bool is a subclass of int, and float or string entries would be
    # rounded or parsed by TableRing: only plain JSON integers are indices.
    tables_ok = all(isinstance(tab, list)
                    and all(isinstance(row, list)
                            and all(type(v) is int for v in row) for row in tab)
                    for tab in (add, mul))
    if not (tables_ok and all(type(v) is int for v in (size, zero, one))):
        raise ParseError(f"table ring file {path!r}: size, zero and one must "
                         f"be integers, add and mul lists of rows of integers")
    return TableRing(size, add, mul, zero, one, spec_str=f"table:{path}")


def export_table_data(ring: Ring) -> dict:
    """Materialize any finite ring as table-ring JSON data."""
    c = build_cache(ring)
    n = c.n
    return {
        "size": n,
        "add": [[c.add[i * n + j] for j in range(n)] for i in range(n)],
        "mul": [[c.mul[i * n + j] for j in range(n)] for i in range(n)],
        "zero": c.zero,
        "one": c.one,
    }


def builtin_table_path(name: str = "nonbezout8") -> str:
    """Path of a table ring shipped with the package."""
    return str(Path(__file__).parent / "data" / f"{name}.json")


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------


def check_ideal(c: EngineCache, ideal: frozenset[int]) -> None:
    """Raise AxiomViolation unless the nonempty index set is an ideal.

    The set must be closed under + (|I|² lookups) and under multiplication
    by every element of c's ring on either side (n·|I|); the latter puts
    x·0 = 0 in it.
    """
    n, add, mul = c.n, c.add, c.mul
    member = bytearray(n)
    for x in ideal:
        member[x] = 1
    for x in ideal:
        row = x * n
        if not all(member[add[row + y]] for y in ideal):
            raise AxiomViolation("set is not closed under addition")
        if not (all(map(member.__getitem__, mul[row:row + n]))
                and all(map(member.__getitem__, mul[x::n]))):
            raise AxiomViolation("set is not closed under multiplication by the ring")


def _generated_ideal(c: EngineCache, gens: list[int]) -> int:
    """Id of the ideal g1·R + ... + gk·R, for generator indices: their
    classes folded into the zero ideal through ``EngineCache.sum_ideal_id``.
    A g the running ideal holds is skipped, as a sum of right ideals is a
    right ideal and so holds g·R. ``quotient_ring`` checks it is an ideal."""
    cls = c.ideal_class
    ident = cls[c.zero]
    for g in gens:
        if g not in c.ideal_set(ident):
            ident = c.sum_ideal_id(ident, cls[g])
    return ident


def quotient_ring(ring: Ring, gens: list[Element]
                  ) -> tuple[TableRing, dict[Element, Element]]:
    """Quotient of a finite ring by the ideal generated by ``gens``.

    Returns the quotient as a table ring (cosets named by their least
    representative's index) together with the projection map.

    The generated set I = g1·R + ... + gk·R is checked to be an ideal
    (``check_ideal``) before any coset is formed: closed under + (|I|²
    lookups) and under multiplication by R on either side (n·|I|). This
    is the same test as asking, at all n² pairs, that the projection
    a -> a + I respect + and · for the coset tables built from least
    representatives r(a). If I is an ideal, a = r(a) + i and b = r(b) + j
    put a + b and a·b in the cosets of r(a) + r(b) and r(a)·r(b), so the
    projection respects both operations. Conversely, if it respects ·,
    then for i in I the coset of a·i is that of r(a)·r(i) = r(a)·r(0),
    which is the coset of a·0 = 0, that is I itself; likewise for i·a.
    And a nonempty set closed under + is a subgroup of the finite
    additive group. Raises AxiomViolation when the check fails.

    The representatives, and each element's, come from the one coset
    scan, ``EngineCache.cosets``.
    """
    if ring.cardinality is None:
        raise UnsupportedSpec("quotients are supported for finite rings only")
    c = build_cache(ring)
    n, add, mul = c.n, c.add, c.mul
    ideal = c.ideal_set(_generated_ideal(c, [c.index_of(g) for g in gens]))
    check_ideal(c, ideal)
    rep_of, cosets = c.cosets(ideal)
    reps = list(cosets)
    m = len(reps)
    if m * len(ideal) != n:
        raise AxiomViolation(
            f"{m} cosets of a {len(ideal)}-element ideal do not cover "
            f"the {n} elements")
    qindex = {r: k for k, r in enumerate(reps)}
    qadd = [[qindex[rep_of[add[a * n + b]]] for b in reps] for a in reps]
    qmul = [[qindex[rep_of[mul[a * n + b]]] for b in reps] for a in reps]
    if len(gens) == 1:
        label = f"quot({ring.spec_string()},{ring.format_element(gens[0])})"
    else:
        inner = ";".join(ring.format_element(g) for g in gens)
        label = f"quot({ring.spec_string()},[{inner}])"
    q = TableRing(m, qadd, qmul, qindex[rep_of[c.zero]], qindex[rep_of[c.one]],
                  spec_str=label, verify=False)
    projection = {
        c.element(i): Element(q, qindex[rep_of[i]]) for i in range(n)
    }
    return q, projection


def localized_residue_map(ring: LocalizedIntegerRing
                          ) -> tuple[Ring, Callable[[Element], Element]]:
    """Reduction of a localized ring onto the product of its residue fields.

    Sends m/den to (m * den^-1 mod p) componentwise; the map is a surjective
    homomorphism whose kernel is the set of elements whose numerator is
    divisible by every localized prime. For one prime p the target is the
    residue field Zn:p itself.
    """
    if not isinstance(ring, LocalizedIntegerRing):
        raise UnsupportedSpec("residue map is defined for zloc rings")
    primes = ring.primes
    single = len(primes) == 1
    target = (ModularRing(primes[0]) if single
              else ProductRing([ModularRing(p) for p in primes]))

    def mapping(a: Element) -> Element:
        f = ring._member(a)
        comps = tuple(
            (f.numerator * pow(f.denominator, -1, p)) % p for p in primes
        )
        return target.make(comps[0] if single else comps)

    return target, mapping


# ---------------------------------------------------------------------------
# ring-spec parsing
# ---------------------------------------------------------------------------


def make_ring(spec: str) -> Ring:
    """Build a ring handle from a spec string. See the module docstring."""
    s = spec.strip()
    if not s:
        raise ParseError("empty ring spec")
    if s == "Z":
        return IntegerRing()
    if s == "dualint":
        return DualIntRing()
    if s.startswith("Zn:"):
        try:
            n = int(s[3:])
        except ValueError as exc:
            raise ParseError(f"bad modulus in {spec!r}") from exc
        return ModularRing(n)
    if s.startswith("polyq:"):
        parts = s.split(":", 2)
        if len(parts) != 3:
            raise ParseError(f"polyq spec needs modulus and polynomial: {spec!r}")
        try:
            n = int(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad modulus in {spec!r}") from exc
        f = parse_int_poly(parts[2])
        if n == 0:
            if f != (-1, 0, 1):
                raise UnsupportedSpec(
                    "polyq with modulus 0 is supported only for f = x^2-1"
                )
            return IntQuadRing()
        return PolyQuotientRing(n, f)
    if s.startswith("zloc:"):
        body = s[5:].strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise ParseError(f"zloc spec needs a prime set: {spec!r}")
        try:
            primes = [int(p) for p in body[1:-1].split(",") if p.strip()]
        except ValueError as exc:
            raise ParseError(f"bad prime in {spec!r}") from exc
        return LocalizedIntegerRing(primes)
    if s.startswith("table:"):
        return load_table_ring(s[6:])
    if s.startswith("prod(") and s.endswith(")"):
        parts = _split_top_level(s[5:-1], ",")
        return ProductRing([make_ring(p) for p in parts])
    if s.startswith("quot(") and s.endswith(")"):
        parts = _split_top_level(s[5:-1], ",")
        if len(parts) != 2:
            raise ParseError(f"quot spec needs a ring and one element: {spec!r}")
        base = make_ring(parts[0])
        if base.cardinality is None:
            raise UnsupportedSpec("quot requires a finite base ring")
        gen = base.parse_element(parts[1])
        q, _ = quotient_ring(base, [gen])
        q._spec_str = s
        return q
    raise ParseError(f"unrecognized ring spec {spec!r}")
