"""Oracles for the engine's row kernels.

``hermite``, the comaximal-pair predicates and the adequacy targets run
one row at a time, with what depends on the row bound once. The
reference here is the per-item path they replaced: every item of the
domain searched on its own, in enumeration order, for the first witness
of its pool that the definition accepts. Units, radical, idempotents,
comaximality and the meet in the radical are recomputed from the cache's
tables by brute force; Bezout data and single-target adequacy witnesses
come from the per-item ``EngineCache.bezout`` and
``engine.adequate_witness_single``. Each reference works on a ring
handle of its own, so it shares no memo with the result under test.
"""

import copy
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ringlab import engine
from ringlab.concrete import PolyQuotientRing, builtin_table_path, make_ring
from ringlab.errors import NotBezout

CONTROL = f"table:{builtin_table_path()}"
PAIR_PREDICATES = ("hermite", "stable_range_1", "t216_cond2", "c217_cond2",
                   "feckly_adequate_range_1")
TARGET_PREDICATES = ("zero_adequate", "feckly_zero_adequate", "everywhere_adequate")
ROW_PREDICATES = PAIR_PREDICATES + TARGET_PREDICATES


class Reference:
    """Each row-kernel predicate on one ring, one item at a time."""

    def __init__(self, spec):
        c = self.c = engine.build_cache(make_ring(spec))
        n, add, mul, neg = c.n, c.add, c.mul, c.neg
        self.n, self.names = n, c.names
        self.ideal = [frozenset(mul[i * n:i * n + n]) for i in range(n)]
        self.units = {i for i in range(n) if c.one in self.ideal[i]}
        one_row = c.one * n
        self.radical = {x for x in range(n)
                        if all(add[one_row + neg[v]] in self.units
                               for v in self.ideal[x])}
        squares = [mul[e * n + e] for e in range(n)]
        self.idempotents = [e for e in range(n) if squares[e] == e]
        self.quasi = [e for e in range(n) if add[e * n + neg[squares[e]]] in self.radical]
        self._comax, self._fa = {}, {}

    def comax(self, i, j):
        key = (self.ideal[i], self.ideal[j])
        if key not in self._comax:
            n, add, one = self.n, self.c.add, self.c.one
            self._comax[key] = any(add[x * n + y] == one
                                   for x in key[0] for y in key[1])
        return self._comax[key]

    def feckly_adequate(self, v):
        if v not in self._fa:
            c = self.c
            self._fa[v] = all(
                engine.adequate_witness_single(c, c.element(v), c.element(t),
                                               "feckly") is not None
                for t in range(self.n))
        return self._fa[v]

    def pair_search(self, pid):
        """(items in order, search(a, b) -> witness fields or None)."""
        n, add, mul, names, c = self.n, self.c.add, self.c.mul, self.names, self.c
        if pid == "hermite":
            def hermite(a, b):
                try:
                    d, _, _, a1, b1, u, v = c.bezout(a, b)
                except NotBezout:
                    return None
                return dict(zip(("d", "a1", "b1", "u", "v"),
                                (names[i] for i in (d, a1, b1, u, v))))
            return [(a, b) for a in range(n) for b in range(n)], hermite
        pool = {"t216_cond2": self.quasi, "c217_cond2": self.idempotents}.get(
            pid, range(n))
        letter = "e" if pid in ("t216_cond2", "c217_cond2") else "y"

        def holds(a, b, w):
            v = add[a * n + mul[b * n + w]]
            if pid == "feckly_adequate_range_1":
                return self.feckly_adequate(v)
            ok = v in self.units
            if pid == "stable_range_1":
                return ok
            return ok and self.ideal[a] & self.ideal[w] <= self.radical

        def find(a, b):
            for w in pool:
                if holds(a, b, w):
                    return {letter: names[w]}
            return None
        return [(a, b) for a in range(n) for b in range(n) if self.comax(a, b)], find

    def pairs(self, pid):
        items, find = self.pair_search(pid)
        names, out = self.names, []
        for count, (a, b) in enumerate(items, 1):
            fields = find(a, b)
            if fields is None:
                bad = {"a": names[a], "b": names[b]}
                if pid == "hermite":
                    bad["note"] = "no comaximal cofactor witness"
                    count = self.n * self.n
                return {"verdict": False, "counterexample": bad,
                        "exercised": self.tally(pid, count)}
            out.append({"a": names[a], "b": names[b], **fields})
        return {"verdict": True, "witness": {"pairs": out},
                "exercised": self.tally(pid, len(out))}

    @staticmethod
    def tally(pid, count):
        return {"pairs" if pid == "hermite" else "comax_pairs": count}

    def targets(self, variant, cval):
        """({target: fields}, None) or (None, first target without a witness)."""
        c, table = self.c, {}
        for t in range(self.n):
            w = engine.adequate_witness_single(c, c.element(cval), c.element(t),
                                               variant)
            if w is None:
                return None, t
            table[self.names[t]] = w.payload(c.ring)
        return table, None

    def result(self, pid):
        n, names = self.n, self.names
        if pid in PAIR_PREDICATES:
            return self.pairs(pid)
        if pid == "everywhere_adequate":
            tables = {}
            for cval in range(n):
                table, bad = self.targets("classic", cval)
                if bad is not None:
                    return {"verdict": False,
                            "counterexample": {"c": names[cval], "target": names[bad]},
                            "exercised": {"elements": cval + 1}}
                tables[names[cval]] = table
            return {"verdict": True, "witness": {"elements": tables},
                    "exercised": {"elements": n}}
        variant = "feckly" if pid.startswith("feckly") else "classic"
        table, bad = self.targets(variant, self.c.zero)
        if bad is not None:
            return {"verdict": False,
                    "counterexample": {"target": names[bad], "pairs_searched": n * n},
                    "exercised": {"targets": bad + 1}}
        return {"verdict": True, "witness": {"targets": table},
                "exercised": {"targets": n}}


def assert_rows_match(spec):
    cache = engine.build_cache(make_ring(spec))
    ref = Reference(spec)
    for pid in ROW_PREDICATES:
        res = engine.ring_predicate(cache, pid)
        # json.dumps keeps insertion order, so the keys must come in order too.
        assert json.dumps(res.to_json()) == json.dumps(ref.result(pid)), (spec, pid)
        assert engine.reverify(cache, res), (spec, pid)


@pytest.mark.parametrize("spec", ["Zn:12", "Zn:16", "prod(Zn:4,Zn:9)",
                                  "polyq:3:x^2-1", "polyq:2:x^3", CONTROL],
                         ids=lambda s: "control" if s == CONTROL else s)
def test_row_kernels_match_the_per_item_reference(spec):
    assert_rows_match(spec)


def small_specs():
    zn = st.integers(2, 40).map(lambda n: f"Zn:{n}")
    prod = st.integers(2, 20).flatmap(
        lambda a: st.integers(2, 40 // a).map(lambda b: f"prod(Zn:{a},Zn:{b})"))
    polyq = st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2),
                             (3, 3), (4, 1), (4, 2), (5, 1), (5, 2)]).flatmap(
        lambda md: st.lists(st.integers(0, md[0] - 1), min_size=md[1],
                            max_size=md[1]).map(
            lambda low: PolyQuotientRing(md[0], low + [1]).spec_string()))
    return st.one_of(zn, prod, polyq)


@settings(max_examples=30, deadline=None)
@given(small_specs())
def test_row_kernels_match_the_per_item_reference_on_random_rings(spec):
    assert_rows_match(spec)


@pytest.mark.parametrize("spec", ["Zn:12", "prod(Zn:4,Zn:9)", "polyq:3:x^2-1",
                                  CONTROL],
                         ids=lambda s: "control" if s == CONTROL else s)
def test_hermite_search_leaves_the_bezout_memo_empty(spec):
    """The hermite rows call the memo-free search; the memoized
    ``EngineCache.bezout`` still gives each entry's (d, a1, b1, u, v)."""
    cache = engine.build_cache(make_ring(spec))
    names, parsed = cache.names, cache.parsed
    res = engine.ring_predicate(cache, "hermite")
    assert engine.reverify(cache, res)
    assert cache._bezout_memo == {}
    if not res.verdict:
        bad = res.counterexample
        with pytest.raises(NotBezout):
            cache.bezout(parsed[bad["a"]], parsed[bad["b"]])
        return
    for e in res.witness["pairs"]:
        d, _, _, a1, b1, u, v = cache.bezout(parsed[e["a"]], parsed[e["b"]])
        assert [names[i] for i in (d, a1, b1, u, v)] == [
            e["d"], e["a1"], e["b1"], e["u"], e["v"]]
    assert len(cache._bezout_memo) == cache.n * cache.n


def _genuine(pid):
    cache = engine.build_cache(make_ring("Zn:12"))
    res = engine.ring_predicate(cache, pid)
    assert res.verdict and engine.reverify(cache, res), pid
    return cache, res


@pytest.mark.parametrize("pid", ROW_PREDICATES)
def test_an_extra_copy_of_an_entry_is_rejected(pid):
    """Every entry holds and every item is covered, but one is covered
    twice: a pair listed again at the end, or a target (and an element)
    under a second spelling of its residue."""
    cache, res = _genuine(pid)
    wit = copy.deepcopy(res.witness)
    if pid in PAIR_PREDICATES:
        wit["pairs"].append(copy.deepcopy(wit["pairs"][0]))
        forged = [wit]
    elif pid == "everywhere_adequate":
        again = copy.deepcopy(wit)
        again["elements"]["13"] = copy.deepcopy(again["elements"]["1"])
        wit["elements"]["4"]["12"] = copy.deepcopy(wit["elements"]["4"]["0"])
        forged = [wit, again]
    else:
        wit["targets"]["12"] = copy.deepcopy(wit["targets"]["0"])
        forged = [wit]
    for w in forged:
        assert not engine.reverify(cache, engine.PropertyResult(pid, True, witness=w))


@pytest.mark.parametrize("pid", ["t216_cond2", "c217_cond2"])
def test_a_witness_outside_the_pool_is_rejected(pid):
    """Some w outside the pool passes the identity (a + b*w is a unit and
    aR intersect wR lies in the radical) at some entry; set there, it must
    be rejected all the same."""
    cache, res = _genuine(pid)
    ref = Reference("Zn:12")
    n, add, mul, parsed = cache.n, cache.add, cache.mul, cache.parsed
    pool = ref.quasi if pid == "t216_cond2" else ref.idempotents
    forged = 0
    for i, e in enumerate(res.witness["pairs"]):
        a, b = parsed[e["a"]], parsed[e["b"]]
        for w in range(n):
            if (w not in pool and add[a * n + mul[b * n + w]] in ref.units
                    and ref.ideal[a] & ref.ideal[w] <= ref.radical):
                wit = copy.deepcopy(res.witness)
                wit["pairs"][i]["e"] = cache.names[w]
                assert not engine.reverify(
                    cache, engine.PropertyResult(pid, True, witness=wit)), (a, b, w)
                forged += 1
    assert forged


# No finite ring above fails these predicates, so their failure paths are
# planted: a smaller set of marked values for the pair rows, and one
# missing adequacy pair for the targets rows.


@pytest.mark.parametrize("spec", ["Zn:12", "prod(Zn:4,Zn:9)", "polyq:3:x^2-1"])
def test_a_planted_pair_failure_matches_the_reference(spec):
    """stable_range_1 with "a + b*y is a unit other than 1": the pair
    (1, 0) has no witness."""
    cache = engine.build_cache(make_ring(spec))
    ref = Reference(spec)
    ref.units = ref.units - {cache.one}
    marked = [i in ref.units for i in range(cache.n)]
    p = engine._Predicate("stable_range_1", engine._COMAX_PAIRS,
                          **engine._range_kernels("y", "elements", lambda c: marked))
    res = p.domain.decide(p, cache)
    assert res.to_json() == ref.pairs("stable_range_1")
    assert not res.verdict and p.domain.verify(p, cache, res)
    genuine = engine.ring_predicate(cache, "stable_range_1")
    assert engine.reverify(cache, genuine) and not p.domain.verify(p, cache, genuine)


@pytest.mark.parametrize("spec", ["Zn:12", "prod(Zn:4,Zn:9)", "polyq:3:x^2-1"])
def test_a_planted_target_failure_matches_the_reference(spec, monkeypatch):
    """No (r, s) for the element 1 against the targets of the last ideal
    class (1 is adequate against none of them), nor for 0 in its feckly
    search."""
    real = engine._first_adequate_pair
    probe = engine.build_cache(make_ring(spec))
    last = max(probe.ideal_class)

    def planted(c, cval, target, variant):
        if c.ideal_class[target] == last and (cval, variant) in (
                (c.one, "classic"), (c.zero, "feckly")):
            return None
        return real(c, cval, target, variant)

    monkeypatch.setattr(engine, "_first_adequate_pair", planted)
    cache = engine.build_cache(make_ring(spec))
    ref = Reference(spec)
    for pid in TARGET_PREDICATES:
        res = engine.ring_predicate(cache, pid)
        assert res.to_json() == ref.result(pid), pid
        assert res.verdict == (pid == "zero_adequate"), pid
        assert engine.reverify(cache, res), pid
