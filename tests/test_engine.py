import pytest

from ringlab import engine
from ringlab.concrete import builtin_table_path, make_ring
from ringlab.errors import TooLarge

from .oracles import brute_idempotents, brute_radical, brute_units


@pytest.fixture(scope="module")
def z12():
    ring = make_ring("Zn:12")
    return ring, engine.build_cache(ring)


def _idx_set(cache, indices):
    return {cache.vals[i] for i in indices}


def test_build_cache_z12_sets(z12):
    ring, cache = z12
    assert _idx_set(cache, cache.jac) == {0, 6}
    assert _idx_set(cache, cache.units) == {1, 5, 7, 11}
    assert _idx_set(cache, cache.idempotents) == {0, 1, 4, 9}


def test_build_cache_matches_brute_force_oracles():
    for spec in ("Zn:12", "Zn:4", "prod(Zn:2,Zn:2)", "polyq:2:x^2"):
        ring = make_ring(spec)
        cache = engine.build_cache(ring)
        assert _idx_set(cache, cache.units) == \
            {u.value for u in brute_units(ring)}
        assert _idx_set(cache, cache.jac) == {x.value for x in brute_radical(ring)}
        assert _idx_set(cache, cache.idempotents) == \
            {e.value for e in brute_idempotents(ring)}


def test_build_cache_z4_and_product():
    ring = make_ring("Zn:4")
    cache = engine.build_cache(ring)
    assert _idx_set(cache, cache.jac) == {0, 2}
    assert _idx_set(cache, cache.units) == {1, 3}
    assert _idx_set(cache, cache.idempotents) == {0, 1}
    prod = make_ring("prod(Zn:2,Zn:2)")
    pcache = engine.build_cache(prod)
    assert _idx_set(pcache, pcache.jac) == {(0, 0)}
    assert len(pcache.idempotents) == 4


def test_build_cache_bound():
    with pytest.raises(TooLarge):
        engine.build_cache(make_ring("Zn:50"), bound=10)


def test_element_predicates_z4():
    ring = make_ring("Zn:4")
    cache = engine.build_cache(ring)
    two = ring.make(2)
    assert not engine.element_predicate(cache, two, "regular").verdict
    res = engine.element_predicate(cache, two, "pi_regular")
    assert res.verdict and res.witness["n"] == 2
    assert engine.element_predicate(cache, ring.make(3), "clean").verdict


def test_feckly_adequate_zero_on_z12(z12):
    ring, cache = z12
    res = engine.element_predicate(cache, ring.zero, "feckly_adequate")
    assert res.verdict
    assert engine.reverify(cache, res)


def test_element_adequate_reverify_both_verdicts():
    ring = make_ring("Zn:6")
    cache = engine.build_cache(ring)
    for a in ring.elements():
        for pid in ("adequate", "feckly_adequate", "adequate_cvariant"):
            res = engine.element_predicate(cache, a, pid)
            assert engine.reverify(cache, res), (str(a), pid, res.verdict)


def test_adequate_variants_differ_meaningfully(z12):
    ring, cache = z12
    # both variants are exposed; on Z/12 the zero element passes both
    for pid in ("adequate", "adequate_cvariant"):
        res = engine.element_predicate(cache, ring.zero, pid)
        assert res.verdict, pid


def test_ring_predicates_z12(z12):
    ring, cache = z12
    expected = {
        "bezout": True,
        "hermite": True,
        "feckly_zero_adequate": True,
        "regular_mod_J": True,
        "pi_regular_mod_J": True,
        "clean": True,
        "feckly_clean": True,
        "semiregular": True,
        "zero_adequate": True,
        "stable_range_1": True,
        "idempotents_lift_mod_J": True,
        "t216_cond2": True,
        "t216_cond3": True,
        "c217_cond2": True,
        "c217_cond3": True,
        "feckly_adequate_range_1": True,
        "everywhere_adequate": True,
        "regular": False,  # 2 is not von Neumann regular mod nothing
    }
    for pid, want in expected.items():
        res = engine.ring_predicate(cache, pid)
        assert res.verdict is want, pid
        assert engine.reverify(cache, res), pid


def test_nonbezout_table_ring_witness():
    ring = make_ring(f"table:{builtin_table_path()}")
    cache = engine.build_cache(ring)
    res = engine.ring_predicate(cache, "bezout")
    assert not res.verdict
    assert len(res.counterexample["ideal"]) == 4
    assert engine.reverify(cache, res)
    assert not engine.ring_predicate(cache, "hermite").verdict


def test_pi_regular_decomposition_identities(z12):
    ring, cache = z12
    for a in ring.elements():
        wit = engine.pi_regular_decomposition(cache, a)
        power = a
        for _ in range(wit.n - 1):
            power = ring.mul(power, a)
        assert ring.add(ring.mul(wit.e, wit.u), wit.w) == power
        assert cache.index_of(ring.sub(wit.e, ring.mul(wit.e, wit.e))) in cache.jac
        assert cache.index_of(wit.w) in cache.jac
        assert cache.index_of(wit.u) in cache.units


def test_pi_regular_decomposition_trivial_cases(z12):
    ring, cache = z12
    wit = engine.pi_regular_decomposition(cache, ring.zero)
    assert wit.n == 1 and wit.e == ring.zero and wit.w == ring.zero
    wit = engine.pi_regular_decomposition(cache, ring.make(3))
    assert ring.add(ring.mul(wit.e, wit.u), wit.w) == ring.make(3)


def _clauses_hold(cache, wit, cval):
    ring = cache.ring
    prod = ring.mul(wit.r, wit.s)
    if cache.index_of(ring.sub(cval, prod)) not in cache.jac:
        return False
    comb = ring.add(ring.mul(wit.r, wit.comax_x),
                    ring.mul(wit.target, wit.comax_y))
    if comb != ring.one:
        return False
    si = cache.index_of(wit.s)
    ti = cache.index_of(wit.target)
    return all(not cache.comax[sp][ti]
               for sp in cache.nonunit_divisors[cache.ideal_class[si]])


def test_fza_witness_constructive_and_reverified(z12):
    ring, cache = z12
    for a in ring.elements():
        wit = engine.fza_witness(cache, a)
        assert _clauses_hold(cache, wit, ring.zero), str(a)
    # the unit target gets the constructive (r, s) = (0, 1) witness
    wit = engine.fza_witness(cache, ring.make(1))
    assert (wit.r, wit.s) == (ring.make(0), ring.make(1))


def test_fza_witness_on_field():
    ring = make_ring("Zn:7")
    cache = engine.build_cache(ring)
    wit = engine.fza_witness(cache, ring.zero)
    assert _clauses_hold(cache, wit, ring.zero)
    # the constructive route gives r = 1 - e = 1, s = e = 0 against zero
    assert (wit.r, wit.s) == (ring.one, ring.zero)


def test_ring_predicates_z4_local():
    cache = engine.build_cache(make_ring("Zn:4"))
    assert engine.ring_predicate(cache, "clean").verdict
    assert engine.ring_predicate(cache, "stable_range_1").verdict


def test_j_characterization(z12):
    ring, cache = z12
    assert engine.j_characterization_check(cache).verdict
    for spec in ("prod(Zn:2,Zn:2)", "Zn:7", "Zn:9"):
        c = engine.build_cache(make_ring(spec))
        assert engine.j_characterization_check(c).verdict, spec


def test_adequate_witness_single(z12):
    ring, cache = z12
    wit = engine.adequate_witness_single(cache, ring.zero, ring.make(5), "feckly")
    assert wit is not None and _clauses_hold(cache, wit, ring.zero)
    assert engine.adequate_witness_single(cache, ring.zero, ring.make(2),
                                          "classic") is not None


def test_fza_witness_on_product_of_fields():
    ring = make_ring("prod(Zn:2,Zn:3)")
    cache = engine.build_cache(ring)
    for a in ring.elements():
        wit = engine.fza_witness(cache, a)
        assert _clauses_hold(cache, wit, ring.zero)


def test_theorem_25_equivalence_small_sample():
    for spec in ("Zn:8", "Zn:9", "Zn:30", "polyq:2:x^3", "prod(Zn:4,Zn:9)"):
        cache = engine.build_cache(make_ring(spec))
        if not engine.ring_predicate(cache, "bezout").verdict:
            continue
        verdicts = {
            engine.ring_predicate(cache, "feckly_zero_adequate").verdict,
            engine.ring_predicate(cache, "regular_mod_J").verdict,
            engine.ring_predicate(cache, "pi_regular_mod_J").verdict,
        }
        assert len(verdicts) == 1, spec
