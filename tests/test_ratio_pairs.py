"""zloc grids on reduced integer pairs.

The zloc scalar adapter (``_RatioOps``) keeps every entry as ``(num,
den)``: ints in lowest terms with den > 0. It is the one definition of
zloc's units, divisibility, Bezout data and unit canon, and the oracles
share no code with it: the ``Fraction`` operators for the arithmetic; for
the witness kernels, their defining properties in ``Fraction`` arithmetic
with the prime part found by trial division; and the parser zloc had
before the pairs for ``parse``. A spy on ``Fraction.__new__`` checks that a
reduce -> verify -> JSON -> verify cycle makes no ``Fraction``, and every
adapter must reject an entry that is not a string with ParseError.
"""

import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import Phase, given, settings

from ringlab.concrete import _RATIO_RE, _int_max_str_digits, make_ring
from ringlab.errors import ParseError
from ringlab.reduction import (
    ReductionCertificate,
    RingMatrix,
    _matrix_ops,
    _scalar_ops,
    diagonal_reduce,
    verify_certificate,
)

RINGS = {spec: make_ring(spec) for spec in ("zloc:{2,3}", "zloc:{5}")}
BIG = 10**40


def fractions(ring):
    """Values of ``ring``: zero, small and 40-digit numerators, numerators
    with high powers of the localized primes, and denominators prime to
    them, small and large."""
    primes = ring.primes

    def strip(k):
        for p in primes:
            while k % p == 0:
                k //= p
        return k

    def times_primes(m, exps):
        for p, e in zip(primes, exps):
            m *= p ** e
        return m

    exps = st.lists(st.integers(0, 12), min_size=len(primes),
                    max_size=len(primes))
    nums = st.one_of(st.just(0), st.integers(-50, 50),
                     st.integers(-BIG, BIG),
                     st.builds(times_primes, st.integers(-BIG, BIG), exps))
    dens = st.one_of(st.integers(1, 50), st.integers(1, BIG)).map(strip)
    return st.builds(Fraction, nums, dens)


def check_pair(ops, got, want):
    """``got`` is the reduced pair of the Fraction ``want``, and boxes
    into an Element whose value is that Fraction."""
    num, den = got
    assert type(num) is int and type(den) is int
    assert den > 0 and gcd(num, den) == 1
    assert got == want.as_integer_ratio()
    value = ops.to_elem(got).value
    assert type(value) is Fraction
    assert value.as_integer_ratio() == got


def check_pairs(ops, got, want):
    """The same, for tuples of pairs (or None) against tuples of Fractions."""
    if want is None:
        assert got is None
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        check_pair(ops, g, w)


def prime_part(ring, value):
    """The product of p^v_p of the numerator over the localized primes,
    by trial division; 0 for 0."""
    m, out = value.numerator, 1
    if not m:
        return 0
    for p in ring.primes:
        while m % p == 0:
            m, out = m // p, out * p
    return out


def check_bezout(ring, ops, x, y, got):
    """``got`` is a Bezout record (d, x', y', a1, b1, u, v) of (x, y), as
    reduced pairs of the ring: the four identities of ``verify_bezout``
    hold in Fraction arithmetic, d is the gcd of the prime parts, and
    (u, v) = (x', y') unless x = y = 0."""
    assert len(got) == 7
    for v in got:
        num, den = v
        assert type(num) is int and type(den) is int
        assert den > 0 and gcd(num, den) == 1
        assert all(den % p for p in ring.primes)
    d, gx, gy, a1, b1, u, v = (Fraction(*w) for w in got)
    assert x * gx + y * gy == d
    assert a1 * d == x and b1 * d == y
    assert a1 * u + b1 * v == 1
    assert d == gcd(prime_part(ring, x), prime_part(ring, y))
    if x != 0 or y != 0:
        assert (u, v) == (gx, gy)


# No shrink phase: shrinking the 40-digit numerators one draw at a time
# took minutes before a failure was reported; the failing example is
# printed unshrunk instead.
@settings(max_examples=300, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(st.data())
def test_pair_kernels_match_fractions_and_the_ring(data):
    ring = RINGS[data.draw(st.sampled_from(sorted(RINGS)))]
    ops = _scalar_ops(ring)
    values = fractions(ring)

    def raw(f):
        return ops.from_elem(ring.make(f))

    x, p, y, q = (data.draw(values) for _ in range(4))
    X, P, Y, Q = map(raw, (x, p, y, q))
    for got, want in ((X, x), (P, p), (Y, y), (Q, q)):
        check_pair(ops, got, want)
    check_pair(ops, ops.add(X, Y), x + y)
    check_pair(ops, ops.mul(X, Y), x * y)
    check_pair(ops, ops.neg(X), -x)
    check_pair(ops, ops.lin(X, P, Y, Q), x * p + y * q)
    k = data.draw(st.integers(0, 4))
    xs, ys = (data.draw(st.lists(values, min_size=k, max_size=k))
              for _ in range(2))
    got = ops.comb(list(map(raw, xs)), P, list(map(raw, ys)), Q)
    assert len(got) == k
    for v, a, b in zip(got, xs, ys):
        check_pair(ops, v, a * p + b * q)
    check_pair(ops, ops.dot(list(map(raw, xs)), list(map(raw, ys))),
               sum((a * b for a, b in zip(xs, ys)), Fraction(0)))
    r, c, k = (data.draw(st.integers(1, 3)) for _ in range(3))
    A = [data.draw(st.lists(values, min_size=k, max_size=k)) for _ in range(r)]
    B = [data.draw(st.lists(values, min_size=c, max_size=c)) for _ in range(k)]
    got = ops.matmul([list(map(raw, row)) for row in A],
                     [list(map(raw, row)) for row in B])
    assert len(got) == r and all(len(row) == c for row in got)
    for i in range(r):
        for j in range(c):
            check_pair(ops, got[i][j],
                       sum((A[i][t] * B[t][j] for t in range(k)), Fraction(0)))

    assert ops.is_zero(X) == (x == 0)
    assert ops.pivot_key(X) == prime_part(ring, x)

    primes = ring.primes
    inv = ops.is_unit(X)
    if x == 0 or any(x.numerator % p == 0 for p in primes):
        assert inv is None
    else:
        check_pair(ops, inv, 1 / x)
    # y itself, and a multiple x*t that x always divides
    t = data.draw(values)
    for z in (y, x * t):
        got = ops.divides(X, raw(z))
        if x == 0:
            assert got is None if z != 0 else got == ops.zero
        elif any((z / x).denominator % p == 0 for p in primes):
            assert got is None
        else:
            check_pair(ops, got, z / x)
    check_bezout(ring, ops, x, y, ops.bezout(X, Y))
    c = Fraction(prime_part(ring, x))
    if x == 0:
        check_pairs(ops, ops.unit_canon(X), (c, Fraction(1), Fraction(1)))
    else:
        check_pairs(ops, ops.unit_canon(X), (c, c / x, x / c))


def old_parse(ring, text):
    """zloc's parser before the pairs: the ASCII ``m`` and ``m/n`` forms
    through ``Fraction(int(m), int(n))``, every other string through the
    ring's ``Fraction`` path, then the denominator check of ``_canon``."""
    ratio = _RATIO_RE.fullmatch(text)
    if ratio is None:
        return ring._canon(ring._parse(text))
    num, den = ratio.groups()
    try:
        f = Fraction(int(num), int(den)) if den else Fraction(int(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad fraction {text!r}") from exc
    return ring._canon(f)


LIMIT = _int_max_str_digits()
SPACES = st.sampled_from(("", " ", "  ", "\t", "\n", " \t"))
SIGNS = st.sampled_from(("", "-", "+", "--"))
DIGITS = st.one_of(st.integers(0, 10**6).map(str),
                   st.integers(0, 10**45).map(str),
                   st.builds(lambda z, n: "0" * z + str(n),
                             st.integers(1, 4), st.integers(0, 999)))
NON_ASCII = st.sampled_from(("٣", "５", "१२",
                             "١/٣", "１/７", "²"))


def numbers():
    """Digit strings up to 10**45, with leading zeros, and (when the
    interpreter has a limit) at the digit limit and one past it."""
    if not LIMIT:
        return DIGITS
    return st.one_of(DIGITS, st.builds(
        lambda n, lead: lead * "1" + "7" * (n - 1),
        st.sampled_from((LIMIT, LIMIT + 1)), st.integers(0, 1)))


def zloc_strings():
    ints = st.builds(lambda a, s, n, b: a + s + n + b,
                     SPACES, SIGNS, numbers(), SPACES)
    ratios = st.builds(lambda a, s, n, d, b: f"{a}{s}{n}/{d}{b}",
                       SPACES, SIGNS, numbers(), numbers(), SPACES)
    special = st.sampled_from(("1/0", "0/0", "-5/00", "3/4", "1/6", "-7/15",
                               "2/10", "0/3", "10/4", "-0", "", " ", "/",
                               "1/", "/2", "1/-2", "1//2", "1_000",
                               "1/2/3", "abc"))
    decimals = st.builds(lambda s, m, f, e: f"{s}{m}.{f}{e}", SIGNS,
                         st.integers(0, 999).map(str),
                         st.integers(0, 999).map(str),
                         st.sampled_from(("", "e3", "E-2", "e+10", "e-50")))
    exponents = st.builds(lambda m, e: f"{m}e{e}",
                          st.integers(-99, 99).map(str),
                          st.sampled_from((0, 5, -5, 40, -40, 4301, 20000,
                                           -20000, 400000)))
    return st.one_of(ints, ratios, special, decimals, exponents, NON_ASCII,
                     st.text(max_size=8))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_parse_matches_the_fraction_parser(data):
    ring = RINGS[data.draw(st.sampled_from(sorted(RINGS)))]
    ops = _scalar_ops(ring)
    text = data.draw(zloc_strings())
    try:
        want = old_parse(ring, text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            ops.parse(text)
        assert str(got.value) == str(exc)
    else:
        check_pair(ops, ops.parse(text), want)


def test_parse_edge_cases():
    ops = _scalar_ops(RINGS["zloc:{2,3}"])
    assert ops.parse("-010/0025") == (-2, 5)
    assert ops.parse("0/35") == (0, 1)
    assert ops.parse(" 7/5 ") == (7, 5)  # not the ASCII form: Fraction reads it
    for text in ("1/0", "1/2", "5/6", "1e400000"):
        with pytest.raises(ParseError):
            ops.parse(text)


@pytest.mark.parametrize("spec", sorted(RINGS))
def test_parse_of_zero_and_one_skips_the_regex_with_the_same_pairs(spec):
    """"0" and "1" return before the regular expression, with the pairs
    the ASCII path and the ``Fraction`` parser give; the ints 0 and 1 are
    not strings, so they still raise."""
    ring = RINGS[spec]
    ops = _scalar_ops(ring)
    for text, want in (("0", (0, 1)), ("1", (1, 1))):
        assert ops.parse(text) == ring._local_pair(*ring._ascii_ratio(text)) == want
        check_pair(ops, ops.parse(text), old_parse(ring, text))
    for entry in (0, 1, 0.0, True):
        with pytest.raises(ParseError):
            ops.parse(entry)


def cycle(ring, A):
    """The reduce benchmark's op: reduce, verify, JSON round trip, verify."""
    cert = diagonal_reduce(ring, A)
    ok = verify_certificate(ring, A, cert).verdict
    data = json.loads(json.dumps(cert.to_json(ok)))
    back = ReductionCertificate.from_json(ring, data)
    return ok and verify_certificate(ring, A, back).verdict


@pytest.mark.parametrize("spec", sorted(RINGS))
def test_a_cycle_makes_no_fraction(spec, monkeypatch):
    """Matrices parsed from the strings ``to_strings`` writes, or built
    from Elements beforehand, go through the whole cycle without one
    ``Fraction.__new__`` call; boxing an entry is where one is made."""
    ring = make_ring(spec)
    rng = random.Random(f"ratio-pairs:{spec}")
    dens = (1, 1, 5, 7, 25, 35) if spec == "zloc:{2,3}" else (1, 1, 2, 3, 9)

    def entry():
        num, den = rng.randint(-200, 200), rng.choice(dens)
        return f"{num}/{den}" if rng.random() < 0.5 else str(Fraction(num, den))

    texts = [[[entry() for _ in range(k)] for _ in range(k)]
             for k in (1, 2, 3, 4, 5) for _ in range(4)]
    built = [RingMatrix(ring, [[ring.parse_element(s) for s in row]
                               for row in rows]) for rows in texts]
    made = Counter()
    new = Fraction.__new__

    def spy(cls, *args, **kwargs):
        made[cls] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    for rows, B in zip(texts, built):
        A = RingMatrix.from_strings(ring, rows)
        assert A == B
        assert cycle(ring, A) and cycle(ring, B)
    assert not made
    A.entries  # noqa: B018 - boxing is the boundary
    assert made[Fraction] == A.rows * A.cols
    monkeypatch.undo()
    assert Fraction(3, 6) == Fraction(1, 2)


ADAPTER_SPECS = ("Zn:6", "Z", "zloc:{2,3}", "dualint")
NOT_STRINGS = (5, None, ["1"], {})


@pytest.mark.parametrize("spec", ADAPTER_SPECS)
def test_every_adapter_rejects_entries_that_are_not_strings(spec):
    ring = make_ring(spec)
    ops = _matrix_ops(ring)
    for entry in NOT_STRINGS:
        with pytest.raises(ParseError):
            ops.parse(entry)
        with pytest.raises(ParseError):
            RingMatrix.from_strings(ring, [["1", entry], ["0", "1"]])
    with pytest.raises(ParseError):
        RingMatrix.from_strings(ring, [["1", "0"], "01"])


@pytest.mark.parametrize("spec", ADAPTER_SPECS)
def test_reduce_on_entries_that_are_not_strings_exits_2(spec, tmp_path):
    path = tmp_path / "m.json"
    for entry in NOT_STRINGS:
        path.write_text(json.dumps({"ring": spec,
                                    "rows": [["1", entry], ["0", "1"]]}))
        res = subprocess.run([sys.executable, "-m", "ringlab.cli", "reduce",
                              str(path)], capture_output=True, text=True,
                             timeout=60)
        assert res.returncode == 2, (entry, res.stderr)
        assert "parse error" in res.stderr, entry
        assert "Traceback" not in res.stderr, entry
