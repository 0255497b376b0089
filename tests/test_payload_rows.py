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
from ringlab.concrete import PolyQuotientRing, builtin_table_path, make_ring
from ringlab.engine import PropertyResult

from .test_reverify import FORGERIES, RING_FOR

QUOTIENT_CORPUS = json.loads(
    (Path(__file__).parent / "quotient_corpus.json").read_text())
CORPUS = tuple(lab.default_corpus_specs()) + tuple(QUOTIENT_CORPUS)
CONTROL = f"table:{builtin_table_path()}"


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


# ---------------------------------------------------------------------------
# flat column payloads and the order rule
# ---------------------------------------------------------------------------

# Values per row of each positive payload: the item(s), then the witness.
WIDTH = {"bezout": 3, "hermite": 7, "regular": 2, "regular_mod_J": 2,
         "pi_regular_mod_J": 3, "clean": 2, "feckly_clean": 2, "zero_adequate": 6,
         "feckly_zero_adequate": 6, "stable_range_1": 3, "idempotents_lift_mod_J": 2,
         "t216_cond2": 3, "t216_cond3": 2, "c217_cond2": 3, "c217_cond3": 2,
         "feckly_adequate_range_1": 3, "everywhere_adequate": 6}
BENCH_RINGS = ("Zn:96", "polyq:2:x^6", "prod(Zn:4,Zn:9)", CONTROL)


def _tables(res):
    """The flat index lists a kept result holds, one per table."""
    rows = res._kept[1]
    if res.predicate == "everywhere_adequate":
        return rows[1]
    return [rows[1]] if res.predicate.endswith("zero_adequate") else [rows]


@pytest.mark.parametrize("spec", ("Zn:12", "prod(Zn:4,Zn:9)", CONTROL), ids=_spec_id)
def test_a_kept_payload_is_one_flat_index_list_per_table(spec):
    c = _cache(spec)
    for pid in WIDTH:
        res = _fresh(spec, pid)
        if not res.verdict:
            continue
        size = next(iter(res.exercised.values()))  # items of the domain
        tables = _tables(res)
        assert len(tables) == (c.n if pid == "everywhere_adequate" else 1), pid
        for table in tables:
            assert type(table) is list and len(table) == WIDTH[pid] * size, pid
            assert all(type(v) is int for v in table), pid


@pytest.mark.parametrize("spec", ["Zn:12", "prod(Zn:4,Zn:9)", "polyq:3:x^2-1"])
def test_a_negative_pair_result_counts_the_pairs_searched(spec):
    """stable_range_1 with "a + b*y is a unit other than 1": the comaximal
    pairs are searched in order up to (1, 0), which has no witness, and
    ``exercised`` counts them, (1, 0) included."""
    c = _cache(spec)
    marked = [i in c.units and i != c.one for i in range(c.n)]
    p = engine._Predicate("stable_range_1", engine._COMAX_PAIRS,
                          **engine._range_kernels("y", "elements", lambda c: marked))
    res = p.domain.decide(p, c)
    pairs = [(a, b) for a in range(c.n) for b in range(c.n) if c.comax[a][b]]
    assert res.counterexample == {"a": c.names[c.one], "b": c.names[c.zero]}
    assert res.exercised == {"comax_pairs": pairs.index((c.one, c.zero)) + 1}


def _named_round_trip(res):
    """The result read back from the JSON text the CLI writes."""
    back = json.loads(lab.report_to_json({"predicates": {res.predicate: res.to_json()}}))
    out = back["predicates"][res.predicate]
    return PropertyResult(res.predicate, out["verdict"], witness=out.get("witness"),
                          counterexample=out.get("counterexample"),
                          exercised=out.get("exercised"))


@pytest.mark.parametrize("spec", BENCH_RINGS, ids=_spec_id)
def test_payloads_verify_in_any_row_order(spec):
    """Dict payloads come back from the CLI's file in name order, and a
    pairs list may come in any order: both are sorted into domain order."""
    c = _cache(spec)
    for pid in engine.RING_PREDICATES:
        back = _named_round_trip(engine.ring_predicate(c, pid))
        assert engine.reverify(c, back), (spec, pid)
        if back.verdict and "pairs" in back.witness:
            back.witness["pairs"].reverse()
            assert engine.reverify(c, back), (spec, pid)


def _row_edits(width):
    """Edits of a flat index list: its last row dropped, or its first row
    replaced by a copy of its last, of its second (in a pair domain, a row
    of the same a) or of the next with the same second value (a row of
    the same b)."""
    def dropped(flat):
        del flat[-width:]

    def copied(flat):
        flat[:width] = flat[-width:]

    def copied_next(flat):
        flat[:width] = flat[width:2 * width]

    def copied_same_second(flat):
        k = next((k for k in range(width, len(flat), width) if flat[k + 1] == flat[1]),
                 len(flat) - width)
        flat[:width] = flat[k:k + width]
    return dropped, copied, copied_next, copied_same_second


@pytest.mark.parametrize("spec", BENCH_RINGS, ids=_spec_id)
def test_a_dropped_or_copied_row_is_refused(spec):
    """In the kept index rows of every table, and in a pairs list read back
    from the CLI's JSON; a dict payload cannot repeat a key, so there the
    row is dropped only."""
    c = _cache(spec)
    for pid in WIDTH:
        if not engine.ring_predicate(c, pid).verdict:
            continue
        for edit in _row_edits(WIDTH[pid]):
            res = engine.ring_predicate(c, pid)
            edit(_tables(res)[-1])
            assert not engine.reverify(c, res), (spec, pid, edit.__name__)
        named = _named_round_trip(engine.ring_predicate(c, pid)).witness
        key = next(k for k in ("map", "pairs", "targets", "elements") if k in named)
        forged = copy.deepcopy(named)
        if key == "pairs":
            forged[key][0] = copy.deepcopy(forged[key][-1])
            assert not engine.reverify(c, PropertyResult(pid, True, witness=forged)), pid
            forged = copy.deepcopy(named)
            del forged[key][len(forged[key]) // 2]
        else:
            del forged[key][sorted(forged[key])[len(forged[key]) // 2]]
        assert not engine.reverify(c, PropertyResult(pid, True, witness=forged)), pid
