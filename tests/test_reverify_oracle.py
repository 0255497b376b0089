"""Property test: reverify accepts an edited payload exactly when the
predicate's definition holds for the edited entry.

The genuine payload of a ring predicate is copied, and one drawn entry's
witness is overwritten with a drawn element. Every other entry stays
genuine, so reverify must accept the copy iff the definition holds for the
edited entry. The oracle evaluates each definition on a second ring handle
of the same spec, one that never builds a cache, from the public ``Element``
arithmetic and ``tests/oracles.py`` only.
"""

import copy

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from ringlab import engine
from ringlab.concrete import make_ring
from ringlab.engine import PropertyResult

from .oracles import brute_idempotents, brute_radical, brute_units

MAP_PREDICATES = ("regular_mod_J", "pi_regular_mod_J", "clean", "feckly_clean",
                  "t216_cond3", "c217_cond3", "idempotents_lift_mod_J")
PAIR_PREDICATES = ("stable_range_1", "t216_cond2", "c217_cond2")


class Definitions:
    """Each predicate's defining identity on one entry, from the definition."""

    def __init__(self, spec):
        ring = self.ring = make_ring(spec)
        self.elems = list(ring.elements())
        self.units = set(brute_units(ring))
        self.radical = brute_radical(ring)
        self.idempotents = brute_idempotents(ring)
        self.quasi = {e for e in self.elems
                      if ring.sub(e, ring.mul(e, e)) in self.radical}
        self.ideal = {a: {ring.mul(a, r) for r in self.elems} for a in self.elems}

    def meet_in_radical(self, a, e):
        return self.ideal[a] & self.ideal[e] <= self.radical

    def holds(self, pid, a, w, b=None, k=None):
        """The identity for element a (or the pair (a, b)) and witness w."""
        ring = self.ring
        if pid in ("regular_mod_J", "pi_regular_mod_J"):
            p = a
            for _ in range((k or 1) - 1):
                p = ring.mul(p, a)
            return ring.sub(p, ring.mul(ring.mul(p, w), p)) in self.radical
        if pid == "idempotents_lift_mod_J":
            return w in self.idempotents and ring.sub(a, w) in self.radical
        if pid in PAIR_PREDICATES:
            ok = ring.add(a, ring.mul(b, w)) in self.units
            if pid == "stable_range_1":
                return ok
        else:
            ok = ring.sub(a, w) in self.units
        pool = self.quasi if pid.startswith(("feckly", "t216")) else self.idempotents
        if pid in ("clean", "feckly_clean"):
            return ok and w in pool
        return ok and w in pool and self.meet_in_radical(a, w)


_RINGS = {}


def _ring(spec):
    """(cache, genuine results, definitions) for one spec, built once."""
    if spec not in _RINGS:
        cache = engine.build_cache(make_ring(spec))
        _RINGS[spec] = (cache, {}, Definitions(spec))
    return _RINGS[spec]


def specs():
    zn = st.integers(2, 40).map(lambda n: f"Zn:{n}")
    prod = st.integers(2, 20).flatmap(
        lambda a: st.integers(2, 40 // a).map(lambda b: f"prod(Zn:{a},Zn:{b})"))
    return st.one_of(zn, prod)


@settings(max_examples=150, deadline=None)
@given(spec=specs(), pid=st.sampled_from(MAP_PREDICATES + PAIR_PREDICATES),
       data=st.data())
def test_reverify_accepts_an_edited_entry_iff_it_holds(spec, pid, data):
    cache, genuine, defs = _ring(spec)
    if pid not in genuine:
        genuine[pid] = engine.ring_predicate(cache, pid)
    res = genuine[pid]
    assume(res.verdict)
    ring = defs.ring
    witness = copy.deepcopy(res.witness)
    w = data.draw(st.sampled_from(defs.elems), label="witness")
    name = ring.format_element(w)
    if pid in MAP_PREDICATES:
        key = data.draw(st.sampled_from(sorted(witness["map"])), label="entry")
        a, b = ring.parse_element(key), None
        k = None
        if pid == "pi_regular_mod_J":
            k = witness["map"][key]["n"]
            witness["map"][key]["b"] = name
        else:
            witness["map"][key] = name
    else:
        entry = data.draw(st.sampled_from(witness["pairs"]), label="entry")
        a, b, k = ring.parse_element(entry["a"]), ring.parse_element(entry["b"]), None
        entry["y" if "y" in entry else "e"] = name
    forged = PropertyResult(pid, True, witness=witness,
                            exercised=dict(res.exercised))
    want = defs.holds(pid, a, w, b=b, k=k)
    assert engine.reverify(cache, forged) is want, (spec, pid, str(a), name)


def test_bezout_payload_covers_ideal_classes_not_element_pairs():
    """A bezout payload that names one pair of ideal classes twice, through
    other generators, and drops another pair has the right entry count and
    valid entries, but does not cover the class pairs."""
    cache, _, defs = _ring("Zn:12")
    ring = defs.ring
    res = engine.ring_predicate(cache, "bezout")
    pairs = copy.deepcopy(res.witness["pairs"])
    generators = {}
    for e in defs.elems:
        generators.setdefault(frozenset(defs.ideal[e]), []).append(
            ring.format_element(e))
    # the first entry whose a has another generator of the same ideal
    i, other = next((i, g) for i, rec in enumerate(pairs)
                    for g in generators[frozenset(defs.ideal[ring.parse_element(rec["a"])])]
                    if g != rec["a"])
    dropped = pairs[-1] if i != len(pairs) - 1 else pairs[0]
    pairs[pairs.index(dropped)] = dict(pairs[i], a=other)
    forged = PropertyResult("bezout", True, witness={"pairs": pairs})
    assert engine.reverify(cache, res)
    assert len(pairs) == len(res.witness["pairs"])
    assert not engine.reverify(cache, forged)
