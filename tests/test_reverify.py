"""reverify must reject forged, truncated and malformed payloads.

Every ring predicate gets its genuine payload first (which must verify),
then copies that drop an entry, repeat an entry under another spelling,
or carry a wrong witness value. Each copy must be rejected, not raised.
"""

import copy

import pytest

from ringlab import engine
from ringlab.concrete import builtin_table_path, make_ring
from ringlab.engine import PropertyResult

from .oracles import brute_radical

# Zn:12 satisfies every ring predicate except von Neumann regularity, which
# Zn:6 (a product of fields) satisfies.
RING_FOR = {pid: "Zn:6" if pid == "regular" else "Zn:12"
            for pid in engine.RING_PREDICATES}

_CACHES = {}


def _cache(spec):
    if spec not in _CACHES:
        _CACHES[spec] = engine.build_cache(make_ring(spec))
    return _CACHES[spec]


def _genuine(pid):
    cache = _cache(RING_FOR[pid])
    res = engine.ring_predicate(cache, pid)
    assert res.verdict, pid
    assert engine.reverify(cache, res), pid
    return cache, res


def _with_witness(res, witness):
    return PropertyResult(res.predicate, res.verdict, witness=witness,
                          exercised=dict(res.exercised))


def _collection(witness):
    """The dict or list that quantifies over the predicate's domain."""
    for key in ("map", "pairs", "targets", "elements"):
        if key in witness:
            return key
    raise AssertionError(f"no collection in {sorted(witness)}")


def _alias(name, n):
    """Another spelling of the same residue in Zn:n."""
    return str(int(name) + n)


@pytest.mark.parametrize("pid", [p for p in engine.RING_PREDICATES
                                 if p != "semiregular"])
def test_truncated_payload_rejected(pid):
    cache, res = _genuine(pid)
    key = _collection(res.witness)
    for drop in (0, -1):
        wit = copy.deepcopy(res.witness)
        items = wit[key]
        if isinstance(items, dict):
            del items[list(items)[drop]]
        else:
            del items[drop]
        assert not engine.reverify(cache, _with_witness(res, wit)), (pid, drop)
    wit = copy.deepcopy(res.witness)
    wit[key] = {} if isinstance(wit[key], dict) else []
    assert not engine.reverify(cache, _with_witness(res, wit)), pid


@pytest.mark.parametrize("pid", [p for p in engine.RING_PREDICATES
                                 if p != "semiregular"])
def test_repeated_entry_rejected(pid):
    """The entry count stays right, but one domain item is covered twice."""
    cache, res = _genuine(pid)
    wit = copy.deepcopy(res.witness)
    key = _collection(wit)
    items = wit[key]
    if isinstance(items, dict):
        names = list(items)
        first, last = names[0], names[-1]
        value = items.pop(last)
        items[_alias(first, cache.n)] = (value if pid != "idempotents_lift_mod_J"
                                         else items[first])
    else:
        items[-1] = copy.deepcopy(items[0])
    assert len(wit[key]) == len(res.witness[key])
    assert not engine.reverify(cache, _with_witness(res, wit)), pid


def _set(path, value):
    def forge(wit):
        node = wit
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    return forge


# One wrong witness value per predicate, at an entry where it must fail.
FORGERIES = {
    "bezout": [_set(("pairs", 0, "d"), "1")],          # 0R + 0R is not R
    "hermite": [_set(("pairs", 0, "u"), "0")],         # a1*u + b1*v != 1
    "regular": [_set(("map", "1"), "0")],              # 1*0*1 != 1
    "regular_mod_J": [_set(("map", "1"), "0")],
    "pi_regular_mod_J": [_set(("map", "1"), {"n": 1, "b": "0"}),
                         _set(("map", "1", "n"), 0),
                         _set(("map", "1", "n"), "1")],
    "clean": [_set(("map", "0"), "0")],                # 0 - 0 is no unit
    "feckly_clean": [_set(("map", "0"), "0")],
    "zero_adequate": [_set(("targets", "5", "y"), "1"),  # 0*x + 5*1 != 1
                      _set(("targets", "5", "j"), "6"),
                      _set(("targets", "0", "r"), "2"),
                      # r*s = 0 still, but 0 lies in 2R and 2 is comaximal
                      # with the unit 5: only clause (3) fails.
                      _set(("targets", "5", "s"), "0")],
    "feckly_zero_adequate": [_set(("targets", "5", "y"), "1"),
                             _set(("targets", "2", "j"), "0"),
                             _set(("targets", "5", "s"), "0")],
    "stable_range_1": [_set(("pairs", 0, "y"), "0"),
                       _set(("pairs", 0, "a"), "2"),   # (2, b) not comaximal
                       ],
    "idempotents_lift_mod_J": [_set(("map", "0"), "1"),
                               _set(("map", "0"), "3")],  # 3 not idempotent
    "t216_cond2": [_set(("pairs", 0, "e"), "0")],
    "t216_cond3": [_set(("map", "0"), "0")],
    "c217_cond2": [_set(("pairs", 0, "e"), "0"),
                   _set(("pairs", 0, "e"), "3")],      # 3 not idempotent
    "c217_cond3": [_set(("map", "0"), "0")],
    "feckly_adequate_range_1": [_set(("pairs", 0, "b"), "2")],
    "everywhere_adequate": [_set(("elements", "4", "0", "s"), "1"),
                            _set(("elements", "4", "5", "x"), "1")],
}


@pytest.mark.parametrize("pid", sorted(FORGERIES))
def test_forged_witness_value_rejected(pid):
    cache, res = _genuine(pid)
    for i, forge in enumerate(FORGERIES[pid]):
        wit = copy.deepcopy(res.witness)
        forge(wit)
        assert wit != res.witness, (pid, i)
        assert not engine.reverify(cache, _with_witness(res, wit)), (pid, i)


def test_forgeries_cover_every_ring_predicate():
    assert set(FORGERIES) | {"semiregular"} == set(engine.RING_PREDICATES)


def test_idempotent_lift_key_outside_domain_rejected():
    cache, res = _genuine("idempotents_lift_mod_J")
    wit = copy.deepcopy(res.witness)
    value = wit["map"].pop("3")
    wit["map"]["2"] = value                            # 2 is no quasi-idempotent
    assert not engine.reverify(cache, _with_witness(res, wit))


def test_empty_payloads_named_in_the_roadmap():
    control = _cache(f"table:{builtin_table_path()}")
    assert not engine.ring_predicate(control, "bezout").verdict
    forged = PropertyResult("bezout", True, witness={"pairs": []})
    assert not engine.reverify(control, forged)
    z12 = _cache("Zn:12")
    for pid, wit in (("regular", {"map": {}}),
                     ("regular_mod_J", {"map": {}}),
                     ("pi_regular_mod_J", {"map": {}}),
                     ("hermite", {"pairs": []}),
                     ("stable_range_1", {"pairs": []})):
        assert not engine.reverify(z12, PropertyResult(pid, True, witness=wit)), pid


def test_semiregular_is_decided_again():
    cache, res = _genuine("semiregular")
    for forged in (
        PropertyResult("semiregular", False, counterexample={"a": "2"}),
        PropertyResult("semiregular", True,
                       witness={"regular_mod_J": True,
                                "idempotents_lift_mod_J": False}),
        PropertyResult("semiregular", True, witness={}),
        PropertyResult("semiregular", True),
    ):
        assert not engine.reverify(cache, forged), forged


def test_j_characterization_compares_the_radical():
    cache = _cache("Zn:12")
    res = engine.j_characterization_check(cache)
    assert res.verdict and engine.reverify(cache, res)
    for radical in (["0"], ["0", "6", "3"], ["0", "18"], []):
        forged = PropertyResult("j_characterization", True,
                                witness={"radical": radical})
        assert not engine.reverify(cache, forged), radical
    flipped = PropertyResult("j_characterization", False,
                             counterexample={"element": "3", "in_radical": False})
    assert not engine.reverify(cache, flipped)


def test_forged_counterexamples_rejected():
    z12 = _cache("Zn:12")
    z6 = _cache("Zn:6")
    control = _cache(f"table:{builtin_table_path()}")
    cases = [
        (z6, PropertyResult("regular", False, counterexample={"a": "2"})),
        (z12, PropertyResult("bezout", False,
                             counterexample={"a": "2", "b": "3",
                                             "ideal": ["0"]})),
        (z12, PropertyResult("stable_range_1", False,
                             counterexample={"a": "1", "b": "0"})),
        (z12, PropertyResult("zero_adequate", False,
                             counterexample={"target": "2"})),
    ]
    res = engine.ring_predicate(control, "bezout")
    bad = copy.deepcopy(res.counterexample)
    bad["ideal"] = bad["ideal"][:-1]
    cases.append((control, PropertyResult("bezout", False, counterexample=bad)))
    for cache, forged in cases:
        assert not engine.reverify(cache, forged), forged


@pytest.mark.parametrize("witness", [
    None,
    {"map": [["0", "0"]]},
    {"map": {"0": 0}},
    {"map": {"0": None}},
    {"map": {"(0|1)": "0"}},
    {"pairs": {"a": "0"}},
])
def test_malformed_payload_rejected_not_raised(witness):
    cache = _cache("Zn:12")
    for pid in ("regular_mod_J", "clean", "hermite", "stable_range_1"):
        assert not engine.reverify(cache, PropertyResult(pid, True,
                                                         witness=witness))


# ---------------------------------------------------------------------------
# element-level results
# ---------------------------------------------------------------------------

ELEMENT_IDENTITY_RINGS = ("Zn:6", "Zn:12", "prod(Zn:4,Zn:3)",
                          f"table:{builtin_table_path()}")


def _power(ring, a, n):
    out = a
    for _ in range(n - 1):
        out = ring.mul(out, a)
    return out


def _element_identity(ring, radical, pid, a, witness):
    """The defining identity, from the public Element arithmetic alone."""
    if pid == "regular":
        return ring.mul(ring.mul(a, witness["b"]), a) == a
    if pid == "pi_regular":
        p = _power(ring, a, witness["n"])
        return ring.mul(ring.mul(p, witness["b"]), p) == p
    e = witness["e"]
    defect = ring.sub(e, ring.mul(e, e))
    ok = defect in radical if pid == "feckly_clean" else defect == ring.zero
    return ok and ring.is_unit(ring.sub(a, e)) is not None


@pytest.mark.parametrize("spec", ELEMENT_IDENTITY_RINGS)
def test_element_results_verify_and_forged_witnesses_fail(spec):
    cache = _cache(spec)
    ring = cache.ring
    radical = brute_radical(ring)
    fmt = ring.format_element
    elems = list(ring.elements())
    for a in elems:
        for pid in ("regular", "pi_regular", "clean", "feckly_clean"):
            res = engine.element_predicate(cache, a, pid)
            assert engine.reverify(cache, res), (spec, str(a), pid, res)
            if not res.verdict:
                continue
            assert res.witness["element"] == fmt(a)
            key = "b" if "b" in res.witness else "e"
            for w in elems:
                forged = dict(res.witness, **{key: fmt(w)})
                parsed = dict(forged, **{key: w})
                want = _element_identity(ring, radical, pid, a, parsed)
                got = engine.reverify(cache, PropertyResult(pid, True,
                                                            witness=forged))
                assert got == want, (spec, str(a), pid, str(w))


def test_element_results_of_two_in_z6():
    """2 in Zn:6 is regular, pi-regular, clean and feckly clean."""
    cache = _cache("Zn:6")
    two = cache.ring.make(2)
    for pid in ("regular", "pi_regular", "clean", "feckly_clean"):
        res = engine.element_predicate(cache, two, pid)
        assert res.verdict and res.witness["element"] == "2"
        assert engine.reverify(cache, res), pid
        other = dict(res.witness, element="3")  # 3*b*3 = 3 fails for b = 2
        if pid in ("regular", "pi_regular"):
            assert not engine.reverify(cache, PropertyResult(pid, True,
                                                             witness=other))


def test_forged_element_negatives_rejected():
    cache = _cache("Zn:4")
    for pid, a, want in (("regular", "2", True), ("regular", "3", False),
                         ("pi_regular", "2", False), ("clean", "2", False),
                         ("feckly_clean", "2", False)):
        res = PropertyResult(pid, False, counterexample={"a": a})
        assert engine.reverify(cache, res) is want, (pid, a)
    bad_n = PropertyResult("pi_regular", True,
                           witness={"element": "2", "n": 0, "b": "0"})
    assert not engine.reverify(cache, bad_n)
