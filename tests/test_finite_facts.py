"""Finite-ring facts that the library reads off its cache, checked against
their definitions on drawn rings.

``fza_witness`` builds r = 1 - e, s = e from the pi-regular decomposition,
with no search behind it: every witness it returns must meet the feckly
adequacy clauses, recomputed from the definitions in ``tests/oracles.py``.
``pi_regular_decomposition`` must meet its four identities on every
element. The lab's domain and local hypotheses count units and radical
elements; here they are compared with n^2 scans of the ring's arithmetic.

The drawn rings have at most 32 elements. Z/4[x]/(x^2) is not Bezout, so
polyq draws and their quotients, such as quot(polyq:9:x^2,3x), give
non-Bezout rings beside the built-in table ring. The zero ring
quot(Zn:4,1) and the non-Bezout quotients of the corpus pin are named
examples.
"""

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from ringlab import engine, lab
from ringlab.concrete import (
    ModularRing,
    PolyQuotientRing,
    ProductRing,
    builtin_table_path,
    load_table_ring,
    make_ring,
    quotient_ring,
)
from ringlab.errors import ReverifyFailed

from . import oracles

LIMIT = 32
TABLE = load_table_ring(builtin_table_path())
NAMED = [make_ring(spec) for spec in (
    "quot(Zn:4,1)", "quot(polyq:4:x^2,2x)", "quot(polyq:9:x^2,3x)",
    "prod(Zn:3,quot(polyq:4:x^2,2x))")]
CONFIG = lab.CorpusConfig(ring_specs=())


@st.composite
def _small(draw, limit):
    """Zn or polyq with at most ``limit`` elements."""
    if draw(st.booleans()):
        return ModularRing(draw(st.integers(2, limit)))
    m = draw(st.integers(2, min(9, limit)))
    deg = draw(st.integers(1, max(d for d in range(1, 7) if m ** d <= limit)))
    low = draw(st.lists(st.integers(0, m - 1), min_size=deg, max_size=deg))
    return PolyQuotientRing(m, low + [1])


@st.composite
def finite_rings(draw):
    """Zn, polyq, a product of two of them or the table ring, of up to 81
    elements, or its quotient by a drawn non-unit, taken where it has more
    than ``LIMIT`` elements or a draw asks for one. (The zero ring is one
    of the named examples.)"""
    kind = draw(st.sampled_from(["small", "prod", "table"]))
    if kind == "small":
        ring = draw(_small(81))
    elif kind == "prod":
        first = draw(_small(9))
        ring = ProductRing([first, draw(_small(81 // first.cardinality))])
    else:
        ring = TABLE
    if ring.cardinality > LIMIT or draw(st.booleans()):
        nonunits = [a for a in ring.elements() if ring.is_unit(a) is None]
        ring, _ = quotient_ring(ring, [draw(st.sampled_from(nonunits))])
    assume(ring.cardinality <= LIMIT)
    return ring


def with_named_rings(test):
    for ring in NAMED + [TABLE]:
        test = example(ring)(test)
    return test


@settings(max_examples=50, deadline=None)
@given(finite_rings())
@with_named_rings
def test_fza_witness_meets_the_feckly_clauses(ring):
    cache = engine.build_cache(ring)
    holds = oracles.feckly_adequacy_checker(ring)
    targets = {}
    for a in ring.elements():
        w = engine.fza_witness(cache, a)
        assert (w.target, w.variant) == (a, "feckly")
        assert w.j == ring.sub(ring.zero, ring.mul(w.r, w.s))
        assert holds(ring.zero, a, w.r, w.s, w.comax_x, w.comax_y), (ring, a)
        targets[ring.format_element(a)] = w.payload(ring)
    # As one payload the witnesses also pass the engine's reverify.
    result = engine.PropertyResult("feckly_zero_adequate", True,
                                   witness={"targets": targets})
    assert engine.reverify(cache, result)


@pytest.mark.parametrize("value", [0, 3])
def test_fza_witness_rechecks_what_it_builds(monkeypatch, value):
    """With e replaced by 1 - e, the witness against 0 is not comaximal
    with it, and the one against the unit 3 has s = 0, which the
    non-unit 0 divides and 0R + 3R = R: both are refused."""
    ring = make_ring("Zn:7")
    cache = engine.build_cache(ring)
    real = engine.pi_regular_decomposition

    def flipped(c, a):
        got = real(c, a)
        return dataclasses.replace(got, e=ring.sub(ring.one, got.e))

    monkeypatch.setattr(engine, "pi_regular_decomposition", flipped)
    with pytest.raises(ReverifyFailed, match="failed re-verification"):
        engine.fza_witness(cache, ring.make(value))


@settings(max_examples=50, deadline=None)
@given(finite_rings())
@with_named_rings
def test_pi_regular_decomposition_meets_its_identities(ring):
    """Every element decomposes: the search is never empty, and a^n =
    e*u + w with e = a^n*b, u = 1 - e + a^n a unit, and e - e^2 and w in
    the radical, recomputed from the definitions."""
    cache = engine.build_cache(ring)
    units, radical = oracles.brute_units(ring), oracles.brute_radical(ring)
    for a in ring.elements():
        d = engine.pi_regular_decomposition(cache, a)
        power = ring.one
        for _ in range(d.n):
            power = ring.mul(power, a)
        assert d.e == ring.mul(power, d.b)
        assert d.u == ring.add(ring.sub(ring.one, d.e), power) and d.u in units
        assert ring.sub(d.e, ring.mul(d.e, d.e)) in radical and d.w in radical
        assert ring.add(ring.mul(d.e, d.u), d.w) == power, (ring, a)


def test_pi_regular_decomposition_rechecks_what_it_builds(monkeypatch):
    """With the search planted to answer (1, 0), the decomposition of 2
    in Z/7 is e = 0, u = 3 and w = 2, and w is not in the radical 0."""
    ring = make_ring("Zn:7")
    cache = engine.build_cache(ring)
    monkeypatch.setattr(engine, "_searcher", lambda p, c: lambda i: (1, c.zero))
    with pytest.raises(ReverifyFailed, match="pi-regular decomposition of 2"):
        engine.pi_regular_decomposition(cache, ring.make(2))


@settings(max_examples=50, deadline=None)
@given(finite_rings())
@with_named_rings
def test_domain_and_local_hypotheses_match_the_scans(ring):
    ctx = lab._RingCtx.from_ring(ring, CONFIG)
    _, is_domain = lab._DOMAIN
    assert is_domain(ctx) == (ctx.is_bezout() and oracles.brute_is_domain(ring))
    assert lab._check_p33_info(ctx)["detail"]["local"] == oracles.brute_is_local(ring)
