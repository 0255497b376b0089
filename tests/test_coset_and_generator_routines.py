"""The coset scan and the additive generating set, each shared by two callers.

``EngineCache.cosets`` splits a finite ring into the cosets of an additive
subgroup: ``jac_cosets`` (the feckly adequacy search) is it applied to J,
and ``concrete.quotient_ring`` takes its coset representatives from it.
``cache.additive_generators`` gives both the cache's table build and the
table-file axiom check their generating set G. Each is checked here
against its stated contract, on the rings of both corpora and on small
hypothesis-drawn rings.
"""

import pytest
from hypothesis import given, settings

from ringlab import engine
from ringlab.cache import additive_generators
from ringlab.concrete import make_ring, quotient_ring

from .test_payload_rows import CORPUS, _spec_id, small_rings


def assert_cosets_split_the_ring(c, subgroup):
    """n-element ``least``, and one ascending |I|-element coset v + I per
    key, keyed by its least element, the keys ascending and the cosets
    disjoint and covering the ring."""
    n, add = c.n, c.add
    least, members = c.cosets(subgroup)
    keys = list(members)
    assert keys == sorted(keys)
    assert len(least) == n and len(keys) * len(subgroup) == n
    covered = []
    for key, coset in members.items():
        assert list(coset) == sorted({add[key * n + i] for i in subgroup})
        assert coset[0] == key and len(coset) == len(subgroup)
        covered.extend(coset)
    assert sorted(covered) == list(range(n))
    for v in range(n):
        assert v in members[least[v]]
    return least, keys


def assert_shared_routines(c):
    ring, n = c.ring, c.n
    assert c.jac_cosets == c.cosets(c.jac)
    assert_cosets_split_the_ring(c, c.jac)
    for g, *_ in c.class_gens:
        least, keys = assert_cosets_split_the_ring(c, c.ideal_set(c.ideal_class[g]))
        q, projection = quotient_ring(ring, [c.element(g)])
        assert q.cardinality == len(keys)
        position = {key: k for k, key in enumerate(keys)}
        assert [projection[c.element(i)].value for i in range(n)] == [
            position[least[i]] for i in range(n)]

    gens, rows, steps = additive_generators(
        n, c.zero, lambda g: c.add[g * n:g * n + n])
    assert gens == sorted(gens) and 2 ** len(gens) <= n
    assert rows == [c.add[g * n:g * n + n] for g in gens]
    assert sorted(y for y, _, _ in steps) == [i for i in range(n) if i != c.zero]
    reached = {c.zero}
    for y, x, k in steps:
        assert x in reached and c.add[gens[k] * n + x] == y
        reached.add(y)


@pytest.mark.parametrize("spec", CORPUS, ids=_spec_id)
def test_shared_routines_on_the_corpora(spec):
    assert_shared_routines(engine.build_cache(make_ring(spec)))


@settings(max_examples=60, deadline=None)
@given(small_rings())
def test_shared_routines_on_small_rings(spec):
    c = engine.build_cache(make_ring(spec))
    assert c.n <= 32
    assert_shared_routines(c)
