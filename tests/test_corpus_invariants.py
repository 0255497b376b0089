"""Corpus-wide spot checks of the core witness identities.

The acceptance module exercises the theorem-level checks; these tests
sweep the witness identities themselves across every default corpus
ring with seeded element pairs (exhaustive pair coverage for the small
rings lives in test_rings).
"""

import random

import pytest

from ringlab import lab
from ringlab.concrete import make_ring
from ringlab.errors import NotBezout
from ringlab.rings import verify_bezout


@pytest.fixture(scope="module")
def corpus_rings():
    return [make_ring(spec) for spec in lab.default_corpus_specs()]


def test_bezout_identities_across_corpus(corpus_rings):
    rng = random.Random("corpus-bezout")
    for ring in corpus_rings:
        elems = list(ring.elements())
        for _ in range(30):
            a, b = rng.choice(elems), rng.choice(elems)
            try:
                data = ring.bezout_gcd(a, b)
            except NotBezout:
                continue  # the control ring has non-principal pair ideals
            failed = verify_bezout(ring, a, b, data)
            assert failed == [], (ring.spec_string(), str(a), str(b), failed)


def test_divides_witnesses_across_corpus(corpus_rings):
    rng = random.Random("corpus-divides")
    for ring in corpus_rings:
        elems = list(ring.elements())
        for _ in range(30):
            a, b = rng.choice(elems), rng.choice(elems)
            t = ring.divides(a, b)
            if t is not None:
                assert ring.mul(a, t) == b, (ring.spec_string(), str(a), str(b))
            prod = ring.mul(a, b)
            t = ring.divides(a, prod)
            assert t is not None and ring.mul(a, t) == prod


def test_unit_witnesses_across_corpus(corpus_rings):
    for ring in corpus_rings:
        for a in ring.elements():
            inv = ring.is_unit(a)
            if inv is not None:
                assert ring.mul(a, inv) == ring.one, (ring.spec_string(), str(a))


def test_witness_methods_are_exact_on_small_rings(corpus_rings):
    """On every corpus ring of at most 16 elements, the non-Bezout control
    ring among them, the witness methods give exactly what a search of
    ``ring.elements()`` with public arithmetic finds, at every pair (a, b):
    a unit is a with some a*b = 1, ``divides`` returns the first t in
    enumeration order with a*t = b, and ``bezout_gcd`` raises NotBezout
    exactly when aR + bR is not principal, and otherwise returns a
    verified record whose d generates aR + bR."""
    small = [ring for ring in corpus_rings if ring.cardinality <= 16]
    assert len(small) == 23
    assert any(ring.kind == "table" for ring in small)
    for ring in small:
        spec, elems = ring.spec_string(), list(ring.elements())
        prod = {(a, b): ring.mul(a, b) for a in elems for b in elems}
        principal = {a: frozenset(prod[a, t] for t in elems) for a in elems}
        for a in elems:
            inv = ring.is_unit(a)
            if inv is None:
                assert all(prod[a, b] != ring.one for b in elems), (spec, str(a))
            else:
                assert prod[a, inv] == ring.one, (spec, str(a))
            for b in elems:
                first = next((t for t in elems if prod[a, t] == b), None)
                assert ring.divides(a, b) == first, (spec, str(a), str(b))
                ideal = {ring.add(x, y) for x in principal[a] for y in principal[b]}
                is_principal = ideal in principal.values()
                try:
                    data = ring.bezout_gcd(a, b)
                except NotBezout:
                    assert not is_principal, (spec, str(a), str(b))
                    continue
                assert is_principal, (spec, str(a), str(b))
                assert verify_bezout(ring, a, b, data) == [], (spec, str(a), str(b))
                assert principal[data.d] == ideal, (spec, str(a), str(b))
