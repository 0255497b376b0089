import random
import re
import sys
from fractions import Fraction

import pytest

from ringlab import rings
from ringlab.concrete import make_ring
from ringlab.errors import MixedRings, NotBezout, ParseError
from ringlab.rings import arith, int_xgcd, verify_bezout

from .oracles import check_ring_axioms


@pytest.fixture
def Z():
    return make_ring("Z")


@pytest.fixture
def Z12():
    return make_ring("Zn:12")


def test_arith_examples(Z, Z12):
    # (Z/12, mul, 4, 9) -> 0 because 36 = 3*12
    assert arith(Z12, "mul", Z12.make(4), Z12.make(9)) == Z12.zero
    assert arith(Z, "add", Z.make(5), Z.make(-5)) == Z.zero
    du = make_ring("dualint")
    got = arith(du, "mul", du.parse_element("3+1/2 x"), du.parse_element("4-1/2 x"))
    assert du.format_element(got) == "12+1/2 x"


MODULE_LEVEL_SAMPLES = {
    "Z": ("6", "-4", "0", "1"),
    "Zn:12": ("4", "9", "0", "5"),
    "zloc:{2,3}": ("6", "1/5", "0", "4/7"),
    "dualint": ("3+1/2 x", "4-1/2 x", "0+1/2 x", "1"),
    "polyq:0:x^2-1": ("1+x", "-x", "3", "0"),
}


def _outcome(call, *args):
    try:
        return call(*args)
    except NotBezout as exc:
        return type(exc)


@pytest.mark.parametrize("spec", list(MODULE_LEVEL_SAMPLES))
def test_module_level_functions_match_the_methods(spec):
    ring = make_ring(spec)
    elems = [ring.parse_element(t) for t in MODULE_LEVEL_SAMPLES[spec]]
    for a in elems:
        inv = rings.is_unit(ring, a)
        assert inv == ring.is_unit(a)
        assert inv is None or ring.mul(a, inv) == ring.one
        assert arith(ring, "neg", a) == ring.neg(a)
        for b in elems:
            t = rings.divides(ring, a, b)
            assert t == ring.divides(a, b)
            assert t is None or ring.mul(a, t) == b
            assert arith(ring, "sub", a, b) == ring.sub(a, b)
            assert (_outcome(rings.bezout_gcd, ring, a, b)
                    == _outcome(ring.bezout_gcd, a, b))
    with pytest.raises(ValueError, match="unknown arith op"):
        arith(ring, "div", elems[0], elems[1])


def test_mixed_rings_rejected(Z12):
    other = make_ring("Zn:12")
    with pytest.raises(MixedRings):
        Z12.add(Z12.make(1), other.make(1))


def test_canonicalization_idempotent(Z12):
    du = make_ring("dualint")
    zl = make_ring("zloc:{3,5}")
    for ring, raws in ((Z12, [25, -1, 0]),
                       (du, [(4, Fraction(6, 4)), (-3, Fraction(0))]),
                       (zl, [Fraction(14, 4), Fraction(-6, 3)])):
        for raw in raws:
            once = ring._canon(raw)
            assert ring._canon(once) == once


def test_int_xgcd_identity():
    rng = random.Random(7)
    for _ in range(300):
        a, b = rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9)
        g, x, y = int_xgcd(a, b)
        assert g >= 0 and a * x + b * y == g


def test_is_unit_examples(Z, Z12):
    inv = Z12.is_unit(Z12.make(5))
    assert inv == Z12.make(5)  # 25 = 24 + 1
    assert Z.is_unit(Z.make(2)) is None
    zl = make_ring("zloc:{3,5}")
    inv = zl.is_unit(zl.parse_element("2/7"))
    assert zl.format_element(inv) == "7/2"
    assert zl.is_unit(zl.parse_element("6")) is None  # 3 divides 6


def test_divides_examples(Z, Z12):
    assert Z.divides(Z.make(6), Z.make(18)) == Z.make(3)
    assert Z.divides(Z.make(4), Z.make(6)) is None
    assert Z.divides(Z.zero, Z.zero) == Z.zero
    assert Z.divides(Z.zero, Z.make(3)) is None
    t = Z12.divides(Z12.make(4), Z12.make(8))
    assert t is not None and Z12.mul(Z12.make(4), t) == Z12.make(8)
    # Z[x]/(x^2-1): 5-3x does not divide 3+x (component 1/4 is not integral)
    za = make_ring("polyq:0:x^2-1")
    assert za.divides(za.parse_element("5-3x"), za.parse_element("3+x")) is None
    assert za.divides(za.parse_element("2"), za.parse_element("4")) is not None
    # parity constraint: (1+x)/... embedding (2,0), target (2,2) needs t=(1, ?)
    assert za.divides(za.parse_element("1+x"), za.parse_element("1+x")) is not None


def test_bezout_z_frozen_witness(Z):
    data = Z.bezout_gcd(Z.make(12), Z.make(18))
    assert [e.value for e in (data.d, data.x, data.y, data.a1, data.b1,
                              data.u, data.v)] == [6, -1, 1, 2, 3, -1, 1]
    assert verify_bezout(Z, Z.make(12), Z.make(18), data) == []


def test_bezout_zero_convention(Z):
    for ring in (Z, make_ring("Zn:6"), make_ring("zloc:{3,5}"),
                 make_ring("dualint")):
        data = ring.bezout_gcd(ring.zero, ring.zero)
        assert data.d == ring.zero
        assert (data.a1, data.b1) == (ring.one, ring.zero)
        assert (data.u, data.v) == (ring.one, ring.zero)
        assert verify_bezout(ring, ring.zero, ring.zero, data) == []


def test_bezout_z6_unit_ideal():
    Z6 = make_ring("Zn:6")
    data = Z6.bezout_gcd(Z6.make(2), Z6.make(3))
    assert data.d == Z6.one
    assert verify_bezout(Z6, Z6.make(2), Z6.make(3), data) == []


@pytest.mark.parametrize("spec", ["Zn:6", "Zn:12", "Zn:8", "Zn:9",
                                  "prod(Zn:2,Zn:2)", "prod(Zn:2,Zn:3)",
                                  "polyq:2:x^2-1", "polyq:3:x^2",
                                  "polyq:2:x^3", "quot(Zn:12,4)"])
def test_bezout_identities_exhaustive_small(spec):
    ring = make_ring(spec)
    elems = list(ring.elements())
    for a in elems:
        for b in elems:
            data = ring.bezout_gcd(a, b)
            assert verify_bezout(ring, a, b, data) == [], (spec, str(a), str(b))


def test_divides_agrees_with_element_scan():
    ring = make_ring("Zn:12")
    elems = list(ring.elements())
    for a in elems:
        for b in elems:
            t = ring.divides(a, b)
            brute = [u for u in elems if ring.mul(a, u) == b]
            if t is None:
                assert brute == [], (str(a), str(b))
            else:
                assert ring.mul(a, t) == b and t in brute


def test_bezout_zloc_and_dualint():
    zl = make_ring("zloc:{3,5}")
    rng = random.Random(11)
    for _ in range(200):
        a = zl.make(Fraction(rng.randint(-200, 200), rng.choice([1, 2, 7, 11])))
        b = zl.make(Fraction(rng.randint(-200, 200), rng.choice([1, 4, 13])))
        assert verify_bezout(zl, a, b, zl.bezout_gcd(a, b)) == []
    du = make_ring("dualint")
    for _ in range(200):
        f = du.make((rng.randint(-60, 60), Fraction(rng.randint(-9, 9),
                                                    rng.randint(1, 9))))
        h = du.make((rng.randint(-60, 60), Fraction(rng.randint(-9, 9),
                                                    rng.randint(1, 9))))
        assert verify_bezout(du, f, h, du.bezout_gcd(f, h)) == []
    # pure x-line pair: ideal is (q*x)
    f = du.parse_element("0+2/3 x")
    h = du.parse_element("0+1/2 x")
    data = du.bezout_gcd(f, h)
    assert verify_bezout(du, f, h, data) == []
    assert data.d.value[0] == 0 and data.d.value[1] == Fraction(1, 6)


def test_no_bezout_on_zalpha():
    za = make_ring("polyq:0:x^2-1")
    with pytest.raises(NotBezout):
        za.bezout_gcd(za.one, za.one)


def test_axioms_on_infinite_samples(Z):
    rng = random.Random(3)
    sample = [Z.make(rng.randint(-40, 40)) for _ in range(6)]
    check_ring_axioms(Z, sample)
    du = make_ring("dualint")
    sample = [du.make((rng.randint(-9, 9), Fraction(rng.randint(-6, 6), 3)))
              for _ in range(6)]
    check_ring_axioms(du, sample)
    za = make_ring("polyq:0:x^2-1")
    sample = [za.make((rng.randint(-9, 9), rng.randint(-9, 9))) for _ in range(6)]
    check_ring_axioms(za, sample)


def test_element_parse_format_roundtrip():
    cases = {
        "Z": ["-5", "0", "123456789123456789"],
        "Zn:12": ["0", "5", "11"],
        "prod(Zn:2,Zn:3)": ["(0|2)", "(1|0)"],
        "polyq:6:x^2-1": ["0", "3+2x", "5x"],
        "zloc:{3,5}": ["7/2", "-4", "0"],
        "dualint": ["12+1/2 x", "4-x", "7", "0+3x", "-5+2/7 x"],
        "polyq:0:x^2-1": ["5-3x", "-2+x"],
    }
    for spec, texts in cases.items():
        ring = make_ring(spec)
        for text in texts:
            e = ring.parse_element(text)
            assert ring.parse_element(ring.format_element(e)) == e


def test_zloc_rejects_bad_denominator():
    zl = make_ring("zloc:{3,5}")
    with pytest.raises(ParseError):
        zl.parse_element("7/10")


def test_zloc_canon_keeps_a_fraction():
    zl = make_ring("zloc:{3,5}")
    f = Fraction(-10, 4)
    assert zl._canon(f) is f
    assert zl._canon(7) == Fraction(7) and type(zl._canon(7)) is Fraction
    with pytest.raises(ParseError, match="divisible by 5"):
        zl._canon(Fraction(7, 10))


def fraction_parse(text):
    """The zloc parse written with ``Fraction(str)`` alone, for comparison."""
    s = text.strip()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        exp = re.search(r"[eE]([-+]?[0-9][0-9_]*)$", s)
        if limit and exp and abs(int(exp.group(1))) > limit + len(s):
            raise ParseError(f"exponent of {text!r} is out of range")
        f = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad fraction {text!r}") from exc
    if limit and max(abs(f.numerator), f.denominator) >= 10 ** limit:
        raise ParseError(f"fraction {text!r} has more than {limit} digits")
    return f


@pytest.mark.parametrize("text", [
    "7", "-7", "0", "-0", "007", "7/2", "-10/4", "0/5", "1/0", "3/-4", "-3/4/",
    "1_0", "٣", " 3 ", "1e5", "+3", "1.5", "", "-", "/2", "1/",
    "9" * 4300, "9" * 4301, "1/" + "7" * 4301, "-" + "9" * 4301 + "/7",
], ids=lambda text: ascii(text) if len(text) < 12 else f"{len(text)}-chars")
def test_zloc_parse_matches_fraction_parse(text):
    zl = make_ring("zloc:{3,5}")
    try:
        want = fraction_parse(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            zl._parse(text)
        assert str(got.value) == str(exc)
    else:
        got = zl._parse(text)
        assert got == want and type(got) is Fraction


def test_intquad_units_are_plus_minus_one_and_x():
    ring = make_ring("polyq:0:x^2-1")
    units = {(1, 0), (-1, 0), (0, 1), (0, -1)}
    for a in range(-3, 4):
        for b in range(-3, 4):
            x = ring.make((a, b))
            inv = ring.is_unit(x)
            assert (inv is not None) == ((a, b) in units), (a, b)
            if inv is not None:
                assert ring.mul(x, inv) == ring.one


@pytest.mark.parametrize("x, y, quotient", [
    ("0+1/2 x", "0+3/2 x", "3"),
    ("0+1/2 x", "0+1/3 x", None),   # 2/3 is not an integer part
    ("0+1/2 x", "1", None),         # a nonzero integer part is not reached
    ("0+2 x", "0", "0"),
    ("0", "0", "0"),
    ("0", "0+1/2 x", None),
])
def test_dualint_divides_with_a_zero_integer_part(x, y, quotient):
    du = make_ring("dualint")
    a, b = du.parse_element(x), du.parse_element(y)
    t = du.divides(a, b)
    if quotient is None:
        assert t is None
    else:
        assert t == du.parse_element(quotient) and du.mul(a, t) == b
