"""Core ring abstractions: handles, elements, and Bezout witnesses.

Every concrete ring is an immutable handle exposing the same small surface:
exact arithmetic on canonical payloads, unit and divisibility tests that
return witnesses rather than bare booleans, and (for Bezout kinds) a full
gcd record ``BezoutData`` carrying cofactors and a comaximality certificate.
All operations are pure, so handles and elements can be shared freely
between threads or worker processes.

Two handles built from the same spec string are distinct rings as far as
elements are concerned: an element always belongs to the handle that made
it, and mixing handles raises ``MixedRings``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from .errors import MixedRings


def int_xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid over the integers.

    Returns:
        ``(g, x, y)`` with ``g = gcd(a, b) >= 0`` and ``a*x + b*y = g``.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class Element:
    """A canonical ring value bound to the handle that produced it.

    Payloads are kind-specific (int, tuple, Fraction pair, ...) but always
    canonical: equal ring values have identical payloads.
    """

    __slots__ = ("ring", "value")

    def __init__(self, ring: "Ring", value: Any):
        self.ring = ring
        self.value = value

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and other.ring is self.ring
            and other.value == self.value
        )

    def __hash__(self):
        return hash((id(self.ring), self.value))

    def __str__(self):
        return self.ring._format(self.value)

    def __repr__(self):
        return f"<{self.ring.spec_string()} elt {self.ring._format(self.value)}>"


@dataclass(frozen=True)
class BezoutData:
    """Full witness record of one gcd computation.

    For inputs ``a, b`` the record satisfies four identities, all checkable
    by plain ring arithmetic:

        a*x + b*y = d        (d generates aR + bR)
        a = a1 * d
        b = b1 * d
        a1*u + b1*v = 1      (the cofactors are comaximal)
    """

    d: Element
    x: Element
    y: Element
    a1: Element
    b1: Element
    u: Element
    v: Element


def verify_bezout(ring: "Ring", a: Element, b: Element, data: BezoutData) -> list[str]:
    """Re-check all four BezoutData identities; returns the failed ones."""
    failed = []
    lhs = ring.add(ring.mul(a, data.x), ring.mul(b, data.y))
    if lhs != data.d:
        failed.append("a*x + b*y = d")
    if ring.mul(data.a1, data.d) != a:
        failed.append("a = a1*d")
    if ring.mul(data.b1, data.d) != b:
        failed.append("b = b1*d")
    comb = ring.add(ring.mul(data.a1, data.u), ring.mul(data.b1, data.v))
    if comb != ring.one:
        failed.append("a1*u + b1*v = 1")
    return failed


def _scalar_ops(ring: "Ring"):
    """The ring's scalar adapter. Its home, reduction, imports this module,
    so the first call imports it and rebinds this name to
    ``reduction._scalar_ops``, which checks the size bound on every call."""
    global _scalar_ops
    from .reduction import _scalar_ops

    return _scalar_ops(ring)


class Ring:
    """Abstract commutative ring with identity.

    Subclasses implement the raw payload layer (``_canon``, ``_add``,
    ``_mul``, ``_neg``, ``_format``, ``_parse`` and, where meaningful,
    ``_values``). The public layer wraps payloads in ``Element`` and
    enforces handle membership.

    The witness methods ``is_unit``, ``divides`` and ``bezout_gcd`` are
    served by the ring's scalar adapter (see ``reduction``), so a finite
    ring past the default size bound raises TooLarge. dualint and
    ``polyq:0`` define the ``_is_unit_raw``, ``_divides_raw`` and
    ``_bezout_raw`` that their adapter calls.
    """

    kind: str = "?"
    cardinality: int | None = None

    # --- raw payload layer -------------------------------------------------

    def _canon(self, value):
        raise NotImplementedError

    def _add(self, x, y):
        raise NotImplementedError

    def _mul(self, x, y):
        raise NotImplementedError

    def _neg(self, x):
        raise NotImplementedError

    def _sub(self, x, y):
        return self._add(x, self._neg(y))

    def _zero_raw(self):
        raise NotImplementedError

    def _one_raw(self):
        raise NotImplementedError

    def _values(self) -> Iterator[Any]:
        raise NotImplementedError(f"{self.kind} is not enumerable")

    def _format(self, value) -> str:
        raise NotImplementedError

    def _parse(self, text: str):
        raise NotImplementedError

    def _bezout_raw(self, x, y):
        """Return (d, x', y', a1, b1, u, v) payloads, or raise NotBezout."""
        from .errors import NotBezout

        raise NotBezout(f"no Bezout gcd available on ring kind {self.kind!r}")

    def spec_string(self) -> str:
        raise NotImplementedError

    # --- public Element layer ----------------------------------------------

    def make(self, value) -> Element:
        """Wrap a raw payload (canonicalizing it) as an Element."""
        return Element(self, self._canon(value))

    def _member(self, a: Element) -> Any:
        if not isinstance(a, Element) or a.ring is not self:
            raise MixedRings(f"element {a!r} does not belong to {self.spec_string()}")
        return a.value

    @property
    def zero(self) -> Element:
        z = getattr(self, "_zero_elt", None)
        if z is None:
            z = Element(self, self._zero_raw())
            self._zero_elt = z
        return z

    @property
    def one(self) -> Element:
        o = getattr(self, "_one_elt", None)
        if o is None:
            o = Element(self, self._one_raw())
            self._one_elt = o
        return o

    def add(self, a: Element, b: Element) -> Element:
        return Element(self, self._add(self._member(a), self._member(b)))

    def sub(self, a: Element, b: Element) -> Element:
        return Element(self, self._sub(self._member(a), self._member(b)))

    def mul(self, a: Element, b: Element) -> Element:
        return Element(self, self._mul(self._member(a), self._member(b)))

    def neg(self, a: Element) -> Element:
        return Element(self, self._neg(self._member(a)))

    def elements(self) -> Iterator[Element]:
        """Canonical enumeration of the whole ring (finite kinds only)."""
        for v in self._values():
            yield Element(self, v)

    def is_unit(self, a: Element) -> Element | None:
        """Return the inverse of ``a`` if ``a`` is a unit, else None."""
        ops = _scalar_ops(self)
        inv = ops.is_unit(ops.from_elem(a))
        return None if inv is None else ops.to_elem(inv)

    def divides(self, a: Element, b: Element) -> Element | None:
        """Return t with ``b = a*t`` if one exists, else None."""
        ops = _scalar_ops(self)
        t = ops.divides(ops.from_elem(a), ops.from_elem(b))
        return None if t is None else ops.to_elem(t)

    def bezout_gcd(self, a: Element, b: Element) -> BezoutData:
        """Full gcd witness for ``aR + bR``; raises NotBezout if none exists."""
        ops = _scalar_ops(self)
        parts = ops.bezout(ops.from_elem(a), ops.from_elem(b))
        return BezoutData(*map(ops.to_elem, parts))

    def parse_element(self, text: str) -> Element:
        return Element(self, self._canon(self._parse(text)))

    def format_element(self, a: Element) -> str:
        return self._format(self._member(a))

    def __repr__(self):
        return f"<ring {self.spec_string()}>"


def arith(ring: Ring, op: str, a: Element, b: Element | None = None) -> Element:
    """Dispatch one arithmetic op by name: add, mul, sub, or neg (unary)."""
    if op == "add":
        return ring.add(a, b)
    if op == "mul":
        return ring.mul(a, b)
    if op == "sub":
        return ring.sub(a, b)
    if op == "neg":
        return ring.neg(a)
    raise ValueError(f"unknown arith op {op!r}")


def is_unit(ring: Ring, a: Element) -> Element | None:
    return ring.is_unit(a)


def divides(ring: Ring, a: Element, b: Element) -> Element | None:
    return ring.divides(a, b)


def bezout_gcd(ring: Ring, a: Element, b: Element) -> BezoutData:
    return ring.bezout_gcd(a, b)
