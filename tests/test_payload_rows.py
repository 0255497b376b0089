"""Index-row payloads: names, edits after a read, provenance, equivalence.

A positive result of ``ring_predicate`` keeps its witness as rows of cache
indices and formats the named payload on the first read of ``witness`` or
``to_json``. ``reverify`` checks the kept rows directly when they come from
the cache it is given, and parses the named payload otherwise. So:

* the search's own names are never parsed in process, and a fault in the
  cache's format/parse pair shows here, in the name bijection, instead;
* once the payload is read, reverify sees exactly what the caller holds,
  edits included;
* rows of one cache are never checked against another;
* the kept rows and the named payload they format to verify alike.
"""

import copy
import json
import pickle
from functools import cache
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ringlab import engine, lab
from ringlab.concrete import PolyQuotientRing, make_ring
from ringlab.engine import PropertyResult

from .test_reverify import FORGERIES, RING_FOR

QUOTIENT_CORPUS = json.loads(
    (Path(__file__).parent / "quotient_corpus.json").read_text())
CORPUS = tuple(lab.default_corpus_specs()) + tuple(QUOTIENT_CORPUS)


def _spec_id(spec):
    return "control" if spec.startswith("table:") else spec


@cache
def _cache(spec):
    return engine.build_cache(make_ring(spec))


def _fresh(spec, pid):
    """A kept result on a cache of its own: nothing has read its witness."""
    return engine.ring_predicate(engine.build_cache(make_ring(spec)), pid)


def _rebuilt(res):
    """A PropertyResult with the named payload of ``res.to_json()``."""
    out = res.to_json()
    return PropertyResult(res.predicate, out["verdict"], witness=out.get("witness"),
                          counterexample=out.get("counterexample"),
                          exercised=out.get("exercised"))


# ---------------------------------------------------------------------------
# the name bijection
# ---------------------------------------------------------------------------


def name_bijection_faults(c):
    """Indices whose name is shared or does not parse back to the index."""
    names, parsed = c.names, c.parsed
    shared = [i for i, name in enumerate(names) if names.index(name) != i]
    return shared + [i for i in range(c.n) if parsed[names[i]] != i]


@pytest.mark.parametrize("spec", CORPUS, ids=_spec_id)
def test_names_and_parse_are_a_bijection_on_the_corpora(spec):
    assert name_bijection_faults(engine.build_cache(make_ring(spec))) == []


def small_rings():
    """Zn, prod, polyq and quot rings of at most 32 elements."""
    zn = st.integers(2, 32).map(lambda n: f"Zn:{n}")
    prod = st.integers(2, 16).flatmap(
        lambda a: st.integers(2, 32 // a).map(lambda b: f"prod(Zn:{a},Zn:{b})"))
    polyq = st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2),
                             (3, 3), (4, 1), (4, 2), (5, 1), (5, 2)]).flatmap(
        lambda md: st.lists(st.integers(0, md[0] - 1), min_size=md[1],
                            max_size=md[1]).map(
            lambda low: PolyQuotientRing(md[0], low + [1]).spec_string()))
    quot = st.one_of(zn, prod, polyq).flatmap(
        lambda spec: st.sampled_from(_cache(spec).names).map(
            lambda name: f"quot({spec},{name})"))
    return st.one_of(zn, prod, polyq, quot)


@settings(max_examples=60, deadline=None)
@given(small_rings())
def test_names_and_parse_are_a_bijection_on_small_rings(spec):
    c = engine.build_cache(make_ring(spec))
    assert c.n <= 32
    assert name_bijection_faults(c) == []


def test_a_planted_duplicate_name_is_found():
    c = engine.build_cache(make_ring("Zn:12"))
    c.names = list(c.names)
    c.names[5] = c.names[7]
    assert name_bijection_faults(c) == [7, 5]


# ---------------------------------------------------------------------------
# edits after a read, and provenance
# ---------------------------------------------------------------------------

ROW_RINGS = ("Zn:12", "prod(Zn:4,Zn:9)")


def _positive(spec):
    pids = [pid for pid in engine.RING_PREDICATES if pid != "semiregular"]
    return [(spec, pid) for pid in pids if _fresh(spec, pid).verdict]


def _forgeries(spec, pid):
    """In-place edits of a named payload that reverify must reject: those of
    ``test_reverify`` on its ring, else the first one-value edit of the
    first entry that a fresh, parsed copy fails."""
    if spec == RING_FOR[pid]:
        return FORGERIES[pid]
    c, witness = _cache(spec), _fresh(spec, pid).witness
    for path in _leaves(witness):
        for name in c.names:
            forge = _set(path, name)
            forged = copy.deepcopy(witness)
            forge(forged)
            if not engine.reverify(c, PropertyResult(pid, True, witness=forged)):
                return [forge]
    raise AssertionError(f"no rejected edit of {pid} on {spec}")


def _leaves(node, path=()):
    """Paths to the element names of a payload, first entry first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, str):
            yield path + (key,)
        elif isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))


def _set(path, value):
    def forge(witness):
        node = witness
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    return forge


@pytest.mark.parametrize("spec,pid", [case for spec in ROW_RINGS
                                      for case in _positive(spec)])
@pytest.mark.parametrize("read", ["witness", "to_json"])
def test_an_edit_after_the_read_is_what_reverify_sees(spec, pid, read):
    for i, forge in enumerate(_forgeries(spec, pid)):
        c = engine.build_cache(make_ring(spec))
        res = engine.ring_predicate(c, pid)
        assert engine.reverify(c, res), (pid, i)
        payload = res.witness if read == "witness" else res.to_json()["witness"]
        before = copy.deepcopy(payload)
        forge(payload)
        assert payload != before, (pid, i)
        assert res.witness is payload
        assert not engine.reverify(c, res), (pid, i)


@pytest.mark.parametrize("pid", engine.RING_PREDICATES)
def test_a_second_handle_of_the_spec_gives_the_verdict(pid):
    """Its names are not the rows' names, so the named payload is parsed."""
    res = _fresh("Zn:12", pid)
    assert engine.reverify(engine.build_cache(make_ring("Zn:12")), res), pid


@pytest.mark.parametrize("pid", [p for p in engine.RING_PREDICATES
                                 if p != "semiregular"])
def test_a_result_of_another_ring_is_rejected_not_raised(pid):
    """``semiregular`` names no element, so it verifies on any ring whose
    parts hold; every other kept Zn:12 result fails on Zn:6's cache."""
    assert engine.reverify(_cache("Zn:6"), _fresh("Zn:12", pid)) is False, pid


@pytest.mark.parametrize("pid", engine.RING_PREDICATES)
def test_a_kept_result_pickles_to_an_equal_witness(pid):
    res = _fresh("prod(Zn:4,Zn:9)", pid)
    back = pickle.loads(pickle.dumps(res))
    assert back == res
    assert back.witness == _fresh("prod(Zn:4,Zn:9)", pid).witness
    assert copy.copy(_fresh("Zn:12", pid)).to_json() == _fresh("Zn:12", pid).to_json()


def test_element_results_keep_rows_and_read_alike():
    c = _cache("Zn:12")
    for pid in engine.ELEMENT_PREDICATES:
        for a in range(c.n):
            res = engine.element_predicate(c, c.element(a), pid)
            assert engine.reverify(c, res), (pid, a)
            assert engine.reverify(c, _rebuilt(res)), (pid, a)
            if res.verdict:
                assert res.witness["element"] == c.names[a], (pid, a)


# ---------------------------------------------------------------------------
# kept rows and their named payload verify alike
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", CORPUS, ids=_spec_id)
def test_kept_rows_and_their_named_payload_both_verify(spec):
    c = engine.build_cache(make_ring(spec))
    for pid in engine.RING_PREDICATES:
        res = engine.ring_predicate(c, pid)
        assert engine.reverify(c, res), (spec, pid)
        assert engine.reverify(c, _rebuilt(res)), (spec, pid)
        assert engine.reverify(c, res), (spec, pid)  # now from the named payload
