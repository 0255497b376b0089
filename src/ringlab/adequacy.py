"""Constructive adequacy witnesses on the structured infinite rings.

Over the integers, adequacy witnesses are produced by a gcd-only peeling
loop (no factorization): split c = r*s so that gcd(r, a) = 1 while every
prime of s divides a. The dual-integer and localized-integer constructions
bootstrap from that split and certify their own clauses exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .concrete import DualIntRing, IntQuadRing, LocalizedIntegerRing
from .errors import ZeroInput, ZeroIntegerPart
from .rings import Element, int_xgcd


@dataclass(frozen=True)
class AdequateFactorization:
    """Split c = r*s with gcd(r, a) = 1 and rad(s) dividing rad(a)."""

    c: int
    a: int
    r: int
    s: int

    def holds(self) -> bool:
        if self.s <= 0 or self.r * self.s != self.c:
            return False
        if gcd(self.r, self.a) != 1:
            return False
        # Every prime of s must divide a (gcd(s, 0) = s, so a = 0 passes).
        s = self.s
        while s != 1:
            g = gcd(s, self.a)
            if g == 1:
                return False
            s //= g
        return True


def adequate_factor_Z(c: int, a: int) -> AdequateFactorization:
    """Adequacy split of c relative to a over the integers.

    Gcd-only algorithm: start with r = c, s = 1, g = gcd(r, a); while g is
    not 1, move g from r into s and recompute g = gcd(r, g). The sign stays
    on r, s is positive.
    """
    if c == 0:
        raise ZeroInput("adequate_factor_Z needs a nonzero c")
    r, s = c, 1
    g = gcd(r, a)
    while g != 1:
        r //= g
        s *= g
        g = gcd(r, g)
    return AdequateFactorization(c=c, a=a, r=r, s=s)


@dataclass(frozen=True)
class DualAdequacyWitness:
    """Factorization f = s(x) * t(x) witnessing adequacy against h.

    ``comax_k`` and ``comax_l`` are integers with k*s + l*z = 1 (z the
    integer part of h), so k*s(x) + l*h differs from 1 by a radical element
    and is therefore a unit: the comaximality certificate for (s(x), h).
    """

    s: Element
    t: Element
    comax_k: int
    comax_l: int


def adequate_witness_dualint(f: Element, h: Element) -> DualAdequacyWitness:
    """Adequacy witness for a dual integer f = y + b*x with y != 0.

    Splits y = s*t against the integer part z of h, then solves
    s*e + d*t = b over the rationals from a Bezout relation k*s + l*t = 1,
    giving f = (s + d*x)(t + e*x).
    """
    ring = f.ring
    if not isinstance(ring, DualIntRing):
        raise TypeError("dual-integer witness needs dualint elements")
    y, b = ring._member(f)
    z, _ = ring._member(h)
    if y == 0:
        raise ZeroIntegerPart(
            "no adequacy construction for elements with zero integer part")
    fac = adequate_factor_Z(y, z)
    s_int, t_int = fac.r, fac.s  # gcd(s_int, z) = 1; primes of t_int divide z
    g, k, l = int_xgcd(s_int, t_int)
    if g != 1:
        raise AssertionError("split parts are not coprime")
    e = b * k
    d = b * l
    s_el = ring.make((s_int, d))
    t_el = ring.make((t_int, e))
    if ring.mul(s_el, t_el) != f:
        raise AssertionError("product identity failed")
    g2, k2, l2 = int_xgcd(s_int, z)
    if g2 != 1:
        raise AssertionError("comaximality certificate failed")
    return DualAdequacyWitness(s=s_el, t=t_el, comax_k=k2, comax_l=l2)


def dual_comax_certificate_holds(wit: DualAdequacyWitness, h: Element) -> bool:
    """Check k*s(x) + l*h lands in 1 + radical, hence is a unit."""
    ring = wit.s.ring
    k = ring.make((wit.comax_k, Fraction(0)))
    l = ring.make((wit.comax_l, Fraction(0)))
    combo = ring.add(ring.mul(k, wit.s), ring.mul(l, h))
    a, _ = ring._member(combo)
    return a == 1  # 1 + q*x is a unit for any rational q


def dualint_witness_failures(ring: DualIntRing, seed: str, count: int,
                             int_max: int, frac_max: int) -> int:
    """How many of ``count`` seeded pairs (f, h) get an
    ``adequate_witness_dualint`` whose product is not f or whose
    comaximality certificate fails. f, then h, is drawn from
    ``random.Random(seed)`` as (±randint(1, int_max),
    randint(-frac_max, frac_max)/randint(1, frac_max)), in that order."""
    rng = random.Random(seed)

    def draw() -> Element:
        return ring.make((rng.choice([-1, 1]) * rng.randint(1, int_max),
                          Fraction(rng.randint(-frac_max, frac_max),
                                   rng.randint(1, frac_max))))

    failures = 0
    for _ in range(count):
        f, h = draw(), draw()
        wit = adequate_witness_dualint(f, h)
        if ring.mul(wit.s, wit.t) != f or not dual_comax_certificate_holds(wit, h):
            failures += 1
    return failures


def adequate_witness_zloc(ring: LocalizedIntegerRing, c: Element,
                          a: Element) -> tuple[Element, Element]:
    """Adequacy witness (r, s) for c != 0 in a localized integer ring.

    Only the localized primes matter: s collects p^v_p(c) for each prime p
    dividing the target's numerator (every prime divides zero), r = c/s.
    """
    cf = ring._member(c)
    af = ring._member(a)
    if cf == 0:
        raise ZeroInput("adequacy witness needs a nonzero c")
    s = 1
    for p in ring.primes:
        if af == 0 or af.numerator % p == 0:
            s *= p ** ring.valuation(cf, p)
    r = cf / Fraction(s)
    return ring.make(r), ring.make(Fraction(s))


def zloc_witness_clauses_hold(ring: LocalizedIntegerRing, c: Element,
                              a: Element, r: Element, s: Element) -> bool:
    """Valuation-level check of all three adequacy clauses for (r, s)."""
    if ring.mul(r, s) != c:
        return False
    rf, sf, af = ring._member(r), ring._member(s), ring._member(a)
    for p in ring.primes:
        vr = ring.valuation(rf, p)
        va = ring.valuation(af, p)
        # clause 2: r and a share no prime
        if vr not in (0, None) and va != 0:
            return False
        if vr is None and va != 0:  # r = 0 only when c = 0, excluded
            return False
        # clause 3: every prime of s divides a
        vs = ring.valuation(sf, p)
        if vs not in (0, None) and va == 0:
            return False
    return True


def zalpha_case_study() -> dict:
    """Divisibility case study in Z[x]/(x^2 - 1) with s' = 5-3x, s = 3+x.

    Computes (i) whether s' divides s in the ring itself, via the
    evaluation embedding x -> (1, -1), and (ii) the images of both
    elements in the quotients by (1-x) (evaluation at +1) and by (1+x)
    (evaluation at -1), with integer divisibility there. Exactly one of
    the two sign choices produces the pair (2, 4) with 2 a noninvertible
    divisor of 4; the report records which one, because the labels in the
    source material disagree, and that mismatch is surfaced, not resolved.
    """
    ring = IntQuadRing()
    s_prime = ring.make((5, -3))
    s = ring.make((3, 1))
    in_ring = ring.divides(s_prime, s)
    quotients = {}
    divisible_from = None
    for ideal, point in (("(1-x)", 1), ("(1+x)", -1)):
        sp_img = 5 + (-3) * point
        s_img = 3 + 1 * point
        divides_there = sp_img != 0 and s_img % sp_img == 0
        entry = {
            "evaluation_at": point,
            "s_prime_image": sp_img,
            "s_image": s_img,
            "divides": divides_there,
            "divisor_noninvertible": abs(sp_img) != 1,
        }
        quotients[ideal] = entry
        if divides_there and entry["divisor_noninvertible"] \
                and (sp_img, s_img) == (2, 4):
            divisible_from = ideal
    return {
        "ring": ring.spec_string(),
        "s_prime": ring.format_element(s_prime),
        "s": ring.format_element(s),
        "divides_in_ring": in_ring is not None,
        "embedding": {
            "s_prime": list(IntQuadRing.embed((5, -3))),
            "s": list(IntQuadRing.embed((3, 1))),
        },
        "quotients": quotients,
        "divisible_pair_ideal": divisible_from,
        # The (2, 4) pair arises from (1-x) although it is labeled (1+x)
        # where this example originates; both computations are reported.
        "sign_discrepancy": divisible_from != "(1+x)",
    }
