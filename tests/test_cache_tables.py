"""Oracle tests for the finite-ring tables and for quotients.

``EngineCache`` builds its add and mul tables from a generating set of the
additive group. The reference here is the pair-by-pair table written out
from the ring's own raw ``_add``, ``_mul`` and ``_neg``, with no code from
``cache.py``. Quotients are checked against cosets formed by brute force
from the same raw operations.

The principal-ideal layer (``ideal_class``, the class sets, generators,
ideal sums, ``nonunit_divisors`` and ``_generated_ideal``) is checked
against the principal ideals aR = {a·t} read off the pairwise tables, the
``hermite`` witnesses against a pair-by-pair search on the same tables,
and the engine's verdicts against the same ring with its indices permuted.
``units``, ``jac``, the unit canon and ``divides``, which read the class
layer and the preimage layer, are checked against their definitions on
the public ``Element`` arithmetic.
"""

import subprocess
import sys
import textwrap
import tracemalloc
from math import isqrt

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ringlab import engine
from ringlab.cache import EngineCache
from ringlab.concrete import (
    ModularRing,
    PolyQuotientRing,
    ProductRing,
    TableRing,
    _generated_ideal,
    builtin_table_path,
    check_ideal,
    export_table_data,
    load_table_ring,
    make_ring,
    quotient_ring,
)
from ringlab.errors import AxiomViolation
from ringlab.reduction import RingMatrix, diagonal_reduce, verify_certificate
from ringlab.rings import Element, _scalar_ops

from .oracles import brute_radical, brute_units
from .test_engine_memos import unit_before_one_ring


def pairwise_tables(ring):
    """Every entry from one raw ring call: (vals, idx, add, mul, neg)."""
    vals = list(ring._values())
    idx = {v: i for i, v in enumerate(vals)}
    add = [idx[ring._add(x, y)] for x in vals for y in vals]
    mul = [idx[ring._mul(x, y)] for x in vals for y in vals]
    neg = [idx[ring._neg(x)] for x in vals]
    return vals, idx, add, mul, neg


def assert_tables_match(ring):
    vals, idx, add, mul, neg = pairwise_tables(ring)
    c = engine.build_cache(ring)
    spec = ring.spec_string()
    assert c.vals == vals, spec
    assert c.add == add, spec
    assert c.mul == mul, spec
    assert c.neg == neg, spec
    assert c.zero == idx[ring._zero_raw()], spec
    assert c.one == idx[ring._one_raw()], spec


def control():
    return load_table_ring(builtin_table_path())


def quotient_oracle(ring, gens):
    """(add, mul, zero, one, projection) of R/I from raw ops and brute force.

    I is the additive closure of every g·r; each coset is named by its
    least index and the quotient indexes the cosets in ascending order.
    """
    vals, idx, add, mul, _ = pairwise_tables(ring)
    n = len(vals)
    ideal = {idx[ring._zero_raw()]}
    ideal |= {idx[ring._mul(g.value, v)] for g in gens for v in vals}
    while True:
        grown = ideal | {add[x * n + y] for x in ideal for y in ideal}
        if grown == ideal:
            break
        ideal = grown
    least = [min(add[a * n + i] for i in ideal) for a in range(n)]
    reps = sorted(set(least))
    pos = {r: k for k, r in enumerate(reps)}
    qadd = [[pos[least[add[a * n + b]]] for b in reps] for a in reps]
    qmul = [[pos[least[mul[a * n + b]]] for b in reps] for a in reps]
    proj = [pos[least[a]] for a in range(n)]
    return (qadd, qmul, pos[least[idx[ring._zero_raw()]]],
            pos[least[idx[ring._one_raw()]]], proj)


QUOTIENTS = {
    "Zn:12 by 4": ("Zn:12", ["4"]),
    "polyq:9:x^2-1 by x+1": ("polyq:9:x^2-1", ["x+1"]),
    "prod(Zn:4,Zn:9) by (2|3)": ("prod(Zn:4,Zn:9)", ["(2|3)"]),
    "Zn:36 by 4, 6": ("Zn:36", ["4", "6"]),
    "prod(Zn:4,Zn:9) by (2|0), (0|3)": ("prod(Zn:4,Zn:9)", ["(2|0)", "(0|3)"]),
    "polyq:6:x^2 by x, 3": ("polyq:6:x^2", ["x", "3"]),
}


def build_quotient(name):
    spec, gens = QUOTIENTS[name]
    ring = make_ring(spec)
    gens = [ring.parse_element(g) for g in gens]
    return ring, gens, quotient_ring(ring, gens)


RINGS = {
    "Zn:2": lambda: make_ring("Zn:2"),
    "Zn:97": lambda: make_ring("Zn:97"),
    "prod(Zn:4,Zn:9)": lambda: make_ring("prod(Zn:4,Zn:9)"),
    "prod(prod(Zn:2,Zn:3),Zn:4)": lambda: make_ring("prod(prod(Zn:2,Zn:3),Zn:4)"),
    "prod(Zn:2,control)": lambda: ProductRing([ModularRing(2), control()]),
    "prod(control,Zn:3)": lambda: ProductRing([control(), ModularRing(3)]),
    "polyq:4:x^3+2x+1": lambda: make_ring("polyq:4:x^3+2x+1"),
    "polyq:6:x^2": lambda: make_ring("polyq:6:x^2"),
    "polyq:9:x^2-1": lambda: make_ring("polyq:9:x^2-1"),
    "control": control,
    **{f"quot {name}": (lambda name=name: build_quotient(name)[2][0])
       for name in QUOTIENTS},
}


@pytest.mark.parametrize("name", list(RINGS))
def test_tables_equal_the_pairwise_tables(name):
    assert_tables_match(RINGS[name]())


@pytest.mark.parametrize("name", list(QUOTIENTS))
def test_quotient_equals_brute_force_cosets(name):
    ring, gens, (q, projection) = build_quotient(name)
    qadd, qmul, zero, one, proj = quotient_oracle(ring, gens)
    assert q.add_table == qadd
    assert q.mul_table == qmul
    assert (q.zero_idx, q.one_idx) == (zero, one)
    got = [projection[Element(ring, v)] for v in ring._values()]
    assert all(e.ring is q for e in got)
    assert [e.value for e in got] == proj


@st.composite
def small_rings(draw, limit=256):
    """Zn, polyq or a product of two of them, with at most ``limit`` elements."""
    kind = draw(st.sampled_from(["Zn", "polyq", "prod"] if limit >= 4
                                else ["Zn", "polyq"]))
    if kind == "Zn":
        return ModularRing(draw(st.integers(2, limit)))
    if kind == "polyq":
        m = draw(st.integers(2, min(6, limit)))
        top = 1
        while m ** (top + 1) <= limit:
            top += 1
        deg = draw(st.integers(1, top))
        low = draw(st.lists(st.integers(0, m - 1), min_size=deg, max_size=deg))
        return PolyQuotientRing(m, low + [1])
    first = draw(small_rings(limit=isqrt(limit)))
    second = draw(small_rings(limit=limit // first.cardinality))
    return ProductRing([first, second])


@settings(max_examples=40, deadline=None)
@given(small_rings())
def test_tables_equal_the_pairwise_tables_on_random_rings(ring):
    assert_tables_match(ring)


def test_ideal_check_rejects_planted_sets():
    c = engine.build_cache(make_ring("prod(Zn:2,Zn:2)"))
    zero, diagonal = c.idx[(0, 0)], c.idx[(1, 1)]
    # {0, (1|1)} is an additive subgroup, but (1|0)·(1|1) = (1|0).
    with pytest.raises(AxiomViolation, match="multiplication"):
        check_ideal(c, frozenset([zero, diagonal]))
    c = engine.build_cache(make_ring("Zn:4"))
    with pytest.raises(AxiomViolation, match="addition"):
        check_ideal(c, frozenset([0, 1]))
    check_ideal(c, frozenset([0, 2]))


def test_structural_checks_survive_python_O():
    # A Z/4 addition with 1*2 = 3: its units {1, 3} are not closed under
    # product (1*3 = 2), and the given table is the one the build derives.
    # Every path that gives a handle its cache runs the check: a matrix
    # made after a refused quotient still finds no cache on the handle.
    code = textwrap.dedent("""
        from ringlab import engine
        from ringlab.concrete import TableRing, export_table_data, quotient_ring
        from ringlab.errors import AxiomViolation
        from ringlab.reduction import RingMatrix
        add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        mul = [[0, 0, 0, 0], [0, 1, 3, 2], [0, 2, 2, 0], [0, 3, 1, 2]]
        assert False, "asserts must be off"

        def matrix_after_quotient(ring):
            try:
                quotient_ring(ring, [ring.zero])
            except AxiomViolation:
                pass
            RingMatrix.from_strings(ring, [["1", "2"], ["3", "1"]])

        calls = {"build_cache": engine.build_cache,
                 "quotient_ring": lambda ring: quotient_ring(ring, [ring.zero]),
                 "export_table_data": export_table_data,
                 "from_strings": matrix_after_quotient}
        for name, call in calls.items():
            try:
                call(TableRing(4, add, mul, 0, 1, verify=False))
                print(name, "returned")
            except AxiomViolation as exc:
                print(name, "AxiomViolation:", exc)
    """)
    res = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "build_cache", "quotient_ring", "export_table_data", "from_strings"]
    for line in lines:
        assert "AxiomViolation: " in line and "units not closed under product" in line


@pytest.mark.parametrize("name", list(RINGS))
def test_comax_rows_equal_the_definition(name):
    """comax[i][j] is iR + jR = R, by brute force from the raw operations:
    some i*x + j*y equals 1. Elements of one ideal class share one row."""
    ring = RINGS[name]()
    vals, idx, add, mul, _ = pairwise_tables(ring)
    n, one = len(vals), idx[ring._one_raw()]
    ideal = [frozenset(mul[i * n:i * n + n]) for i in range(n)]
    c = engine.build_cache(ring)
    for i in range(n):
        for j in range(n):
            want = any(add[x * n + y] == one for x in ideal[i] for y in ideal[j])
            assert c.comax[i][j] is want, (name, i, j)
        assert c.comax[i] is c.comax[min(k for k in range(n) if ideal[k] == ideal[i])]
    assert len({id(row) for row in c.comax}) == len(set(ideal))


# Two rings that are not Bezout: in Z/4[x]/(x^2, 2x), 2R + xR is not principal.
NON_BEZOUT_QUOTIENTS = ["quot(polyq:4:x^2,2x)", "prod(Zn:3,quot(polyq:4:x^2,2x))"]


def assert_class_layer_matches(ring):
    """The cache's principal-ideal layer against aR = {a·t} from the raw
    pairwise tables, for every element, every pair of classes and every
    two-generator ideal."""
    vals, idx, add, mul, _ = pairwise_tables(ring)
    n, zero, one = len(vals), idx[ring._zero_raw()], idx[ring._one_raw()]
    ideal = [frozenset(mul[a * n:a * n + n]) for a in range(n)]
    c = engine.build_cache(ring)
    spec = ring.spec_string()
    cls = c.ideal_class
    # Classes are the partition aR = bR, numbered by least generator.
    firsts = {}
    for a in range(n):
        firsts.setdefault(ideal[a], len(firsts))
    assert cls == [firsts[ideal[a]] for a in range(n)], spec
    for a in range(n):
        assert c.ideal_set(cls[a]) == ideal[a], (spec, a)
        assert c.generators_of(cls[a]) == tuple(
            b for b in range(n) if ideal[b] == ideal[a]), (spec, a)
    assert len(c.class_gens) == len(firsts), spec
    reps = [gens[0] for gens in c.class_gens]
    # Sums of two principal ideals: {a·x + b·y}, and its generators if any.
    sums = {}
    for a in reps:
        for b in reps:
            want = frozenset(add[x * n + y] for x in ideal[a] for y in ideal[b])
            got = c.sum_ideal_id(cls[a], cls[b])
            assert c.ideal_set(got) == want, (spec, a, b)
            assert c.generators_of(got) == tuple(
                d for d in range(n) if ideal[d] == want), (spec, a, b)
            sums[cls[a], cls[b]] = want
    # Per class of s: the non-units t with s in tR.
    for s in range(n):
        assert c.nonunit_divisors[cls[s]] == tuple(
            t for t in range(n) if one not in ideal[t] and s in ideal[t]), (spec, s)
    # Generated ideals: none, J (the additive closure of every j·r), and
    # every pair (a, b) with b a class representative.
    assert c.ideal_set(_generated_ideal(c, [])) == {zero}, spec
    jac = sorted(c.jac)
    want = {zero} | {mul[j * n + r] for j in jac for r in range(n)}
    while (grown := want | {add[x * n + y] for x in want for y in want}) != want:
        want = grown
    assert c.ideal_set(_generated_ideal(c, jac)) == want, spec
    for a in range(n):
        for b in reps:
            got = c.ideal_set(_generated_ideal(c, [a, b]))
            assert got == sums[cls[a], cls[b]], (spec, a, b)


@pytest.mark.parametrize("name", list(RINGS) + NON_BEZOUT_QUOTIENTS)
def test_class_layer_equals_the_definition(name):
    assert_class_layer_matches(RINGS[name]() if name in RINGS else make_ring(name))


@settings(max_examples=30, deadline=None)
@given(small_rings(limit=64))
def test_class_layer_equals_the_definition_on_random_rings(ring):
    assert_class_layer_matches(ring)


def assert_classes_are_unit_multiples(ring):
    """Each class of ``class_gens`` is {u·g : u a unit}, g its least
    generator: aR = bR makes a and b associates. ``_adequate_flags``
    copies one verdict per class on this ground."""
    vals, idx, _, mul, _ = pairwise_tables(ring)
    n, one = len(vals), idx[ring._one_raw()]
    units = [u for u in range(n) if one in mul[u * n:u * n + n]]
    c = engine.build_cache(ring)
    assert c.vals == vals
    for gens in c.class_gens:
        g = gens[0]
        assert g == min(gens)
        assert set(gens) == {mul[u * n + g] for u in units}, (ring.spec_string(), g)


UNIT_MULTIPLE_RINGS = {**RINGS, **{name: (lambda name=name: make_ring(name))
                                    for name in NON_BEZOUT_QUOTIENTS},
                       "Zn:10, 1 and 3 swapped": unit_before_one_ring}


@pytest.mark.parametrize("name", list(UNIT_MULTIPLE_RINGS))
def test_classes_are_unit_multiples(name):
    assert_classes_are_unit_multiples(UNIT_MULTIPLE_RINGS[name]())


@settings(max_examples=40, deadline=None)
@given(small_rings(limit=32))
def test_classes_are_unit_multiples_on_random_rings(ring):
    assert_classes_are_unit_multiples(ring)


def hermite_oracle(ring):
    """Every pair's Hermite witness, row by row, from the pairwise tables.

    For each pair (a, b) in row order: aR + bR by brute force, its
    generators ascending, then the first (d, a1, b1) with d·a1 = a,
    d·b1 = b and a1R + b1R = R; x is the first one with 1 - a1·x in b1R
    and y the first multiplier of b1 onto 1 - a1·x. The pair (0, 0) takes
    the zero-ideal convention d = 0, (a1, b1) = (1, 0), (u, v) = (1, 0).
    Returns the ``{"a", "b", "d", "a1", "b1", "u", "v"}`` entries found,
    and the first pair without a witness (None if every pair has one).
    """
    vals, idx, add, mul, neg = pairwise_tables(ring)
    n, zero, one = len(vals), idx[ring._zero_raw()], idx[ring._one_raw()]
    names = [ring._format(v) for v in vals]
    ideal = [frozenset(mul[a * n:a * n + n]) for a in range(n)]
    sums = {}

    def ideal_sum(a, b):
        key = ideal[a], ideal[b]
        if key not in sums:
            sums[key] = frozenset(add[x * n + y] for x in key[0] for y in key[1])
        return sums[key]

    def one_minus(v):
        return add[one * n + neg[v]]

    entries = []
    for a in range(n):
        for b in range(n):
            if a == b == zero:
                d, a1, b1, u, v = zero, one, zero, one, zero
            else:
                total = ideal_sum(a, b)
                found = next(((d, a1, b1) for d in range(n) if ideal[d] == total
                              for a1 in range(n) if mul[d * n + a1] == a
                              for b1 in range(n) if mul[d * n + b1] == b
                              and one in ideal_sum(a1, b1)), None)
                if found is None:
                    return entries, (names[a], names[b])
                d, a1, b1 = found
                u = next(x for x in range(n) if one_minus(mul[a1 * n + x]) in ideal[b1])
                v = mul[b1 * n:b1 * n + n].index(one_minus(mul[a1 * n + u]))
            entries.append({"a": names[a], "b": names[b], "d": names[d],
                            "a1": names[a1], "b1": names[b1],
                            "u": names[u], "v": names[v]})
    return entries, None


def assert_hermite_matches_oracle(ring):
    entries, failing = hermite_oracle(ring)
    got = engine.ring_predicate(engine.build_cache(ring), "hermite")
    spec = ring.spec_string()
    assert got.verdict is (failing is None), spec
    if failing is None:
        assert got.witness["pairs"] == entries, spec
    else:
        bad = got.counterexample
        assert (bad["a"], bad["b"]) == failing, spec


@pytest.mark.parametrize("name", list(RINGS) + NON_BEZOUT_QUOTIENTS)
def test_hermite_witnesses_equal_the_oracle(name):
    assert_hermite_matches_oracle(RINGS[name]() if name in RINGS else make_ring(name))


@settings(max_examples=30, deadline=None)
@given(small_rings(limit=32))
def test_hermite_witnesses_equal_the_oracle_on_random_rings(ring):
    assert_hermite_matches_oracle(ring)


def relabelled(ring, perm):
    """``ring`` as a table ring whose element of index i has index perm[i]."""
    table = export_table_data(ring)
    n = table["size"]
    inv = sorted(range(n), key=perm.__getitem__)

    def relabel(tab):
        return [[perm[tab[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]

    return TableRing(n, relabel(table["add"]), relabel(table["mul"]),
                     perm[table["zero"]], perm[table["one"]])


@settings(max_examples=27, deadline=None)
@given(st.data())
def test_relabelled_ring_has_the_same_verdicts(data):
    """The same ring with its indices permuted, loaded as a table ring, gets
    the same verdict on every ring predicate, and each payload reverifies:
    no verdict depends on how elements or ideal classes are numbered."""
    ring = data.draw(small_rings(limit=32))
    perm = data.draw(st.permutations(range(ring.cardinality)))
    moved = relabelled(ring, perm)
    before, after = engine.build_cache(ring), engine.build_cache(moved)
    for name in engine.RING_PREDICATES:
        want = engine.ring_predicate(before, name)
        got = engine.ring_predicate(after, name)
        assert got.verdict == want.verdict, (ring.spec_string(), perm, name)
        assert engine.reverify(before, want) and engine.reverify(after, got), name


def test_class_layer_memory_on_zn_1024():
    """Classes, class sets, units and nonunit_divisors of Z/1024 take
    under 2 MB: one set per class (11 of them), not one principal ideal per
    element. The units are read off the classes, so they are traced too."""
    c = EngineCache(make_ring("Zn:1024"))
    tracemalloc.start()
    try:
        c.ideal_class, c.nonunit_divisors
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(c.class_gens) == 11
    assert peak < 2 * 2**20, peak


def test_adequacy_memo_memory_on_zn_1024():
    """The adequacy search of all three variants on Z/1024 keeps under
    32 MB: a preimage map per non-unit r and one J-coset table. A unit r
    reads its s from r^-1*c + I, so it needs no map (a map per r would
    take about 58 MB)."""
    c = engine.build_cache(make_ring("Zn:1024"))
    c.comax, c.nonunit_divisors  # built before tracing: not part of the memo
    tracemalloc.start()
    try:
        for variant in ("classic", "feckly", "cvariant"):
            engine._adequate_flags(c, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


def test_reduce_memory_on_zn_1024():
    """One 2x2 reduction over Z/1024 and its verification keep under 4 MB
    once the cache is built: preimage maps for the few elements queried and
    one canon per element, no table of n rows."""
    ring = make_ring("Zn:1024")
    engine.build_cache(ring)
    A = RingMatrix.from_strings(ring, [["12", "20"], ["28", "36"]])
    tracemalloc.start()
    try:
        cert = diagonal_reduce(ring, A)
        got = verify_certificate(ring, A, cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.verdict, got.counterexample
    assert peak < 4 * 2**20, peak


def assert_units_radical_canon_divides(ring):
    """``units``, ``jac``, ``unit_canon`` and ``divides`` against their
    definitions on the public Element arithmetic: inverses, the radical,
    the least associate by a scan of the units (start at (a, 1), replace on
    a strictly smaller u*a), and the first t with a*t = b for every pair."""
    elems = list(ring.elements())
    pos = {e: k for k, e in enumerate(elems)}
    prod = [[ring.mul(a, t) for t in elems] for a in elems]
    units = brute_units(ring)
    c = engine.build_cache(ring)
    spec = ring.spec_string()
    assert {elems[u]: elems[v] for u, v in c.units.items()} == units, spec
    assert {elems[x] for x in c.jac} == brute_radical(ring), spec
    ops = _scalar_ops(ring)
    for i, a in enumerate(elems):
        best, best_u = a, ring.one
        for u in elems:
            if u in units and pos[prod[pos[u]][i]] < pos[best]:
                best, best_u = prod[pos[u]][i], u
        want = (pos[best], pos[best_u], pos[units[best_u]])
        assert ops.unit_canon(i) == want, (spec, str(a))
        first = {}
        for t, v in enumerate(prod[i]):
            first.setdefault(v, t)
        for j, b in enumerate(elems):
            assert c.divides(i, j) == first.get(b), (spec, str(a), str(b))


@pytest.mark.parametrize("name", list(UNIT_MULTIPLE_RINGS))
def test_units_radical_canon_divides_equal_the_definitions(name):
    assert_units_radical_canon_divides(UNIT_MULTIPLE_RINGS[name]())


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_units_radical_canon_divides_on_relabelled_rings(data):
    ring = data.draw(small_rings(limit=32))
    perm = data.draw(st.permutations(range(ring.cardinality)))
    assert_units_radical_canon_divides(relabelled(ring, perm))
