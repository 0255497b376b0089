"""The table-ring axiom check against the O(n³) reference.

``TableRing`` decides the ring axioms from additive generators, in
O(n²·|G|) lookups; ``oracles.check_ring_axioms`` tries every triple of
elements. Both run here on the tables of real rings and on tables with
planted faults: they must accept the same tables, and every message of the
check must name elements at which the reference confirms that the named
axiom fails.
"""

import json
import re
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ringlab import cli, engine
from ringlab.concrete import (TableRing, _additive_generators, builtin_table_path,
                              export_table_data, make_ring)
from ringlab.errors import AxiomViolation

from .oracles import check_ring_axioms

SPECS = (
    "Zn:2", "Zn:4", "Zn:6", "Zn:8", "Zn:9", "Zn:12", "Zn:27",
    "prod(Zn:2,Zn:2)", "prod(Zn:2,Zn:2,Zn:2)", "prod(Zn:2,Zn:4)",
    "prod(Zn:3,Zn:3)", "prod(Zn:2,Zn:2,Zn:2,Zn:2)", "prod(Zn:3,Zn:9)",
    "polyq:2:x^2", "polyq:2:x^3+x+1", "polyq:3:x^2+1", "polyq:4:x^2-1",
    "polyq:3:x^3", "quot(Zn:12,4)", "quot(polyq:2:x^3,x^2)",
    "quot(prod(Zn:4,Zn:6),(2|3))",
)
ZERO_RING = {"size": 1, "add": [[0]], "mul": [[0]], "zero": 0, "one": 0}


@cache
def table(name: str) -> dict:
    if name == "zero ring":
        return ZERO_RING
    if name == "builtin":
        return json.loads(Path(builtin_table_path()).read_text())
    return export_table_data(make_ring(name))


NAMES = SPECS + ("builtin", "zero ring")

# What each message claims fails, recomputed with the public arithmetic.
AXIOMS = {
    "a + 0 != a": lambda R, a: R.add(a, R.zero) != a,
    "a * 1 != a": lambda R, a: R.mul(a, R.one) != a,
    "addition not commutative": lambda R, a, b: R.add(a, b) != R.add(b, a),
    "multiplication not commutative": lambda R, a, b: R.mul(a, b) != R.mul(b, a),
    "addition not associative":
        lambda R, a, b, c: R.add(R.add(a, b), c) != R.add(a, R.add(b, c)),
    "multiplication not associative":
        lambda R, a, b, c: R.mul(R.mul(a, b), c) != R.mul(a, R.mul(b, c)),
    "distributivity fails":
        lambda R, a, b, c: R.mul(a, R.add(b, c)) != R.add(R.mul(a, b), R.mul(a, c)),
}
# These checks come first, in the reference's order: a table that fails one
# of them fails first at the same element or pair, with the same message.
SAME_FIRST_FAILURE = ("a + 0", "a * 1", "addition not commutative",
                      "multiplication not commutative")


def build(data, verify):
    return TableRing(data["size"], data["add"], data["mul"], data["zero"],
                     data["one"], verify=verify)


def assert_agrees_with_reference(data) -> str | None:
    """Check ``data`` both ways; return the check's message, or None."""
    try:
        ring = build(data, verify=False)
    except AxiomViolation:  # a row without zero: no additive inverse
        with pytest.raises(AxiomViolation, match="no additive inverse"):
            build(data, verify=True)
        return "no additive inverse"
    try:
        check_ring_axioms(ring, list(ring.elements()))
        expected = None
    except AxiomViolation as exc:
        expected = str(exc)
    try:
        build(data, verify=True)
        got = None
    except AxiomViolation as exc:
        got = str(exc)
    assert (got is None) == (expected is None), (got, expected)
    if got is not None:
        what, at = re.fullmatch(r"(.*) at (\d+(?:, \d+)*)", got).groups()
        elems = [ring.make(int(i)) for i in at.split(", ")]
        assert AXIOMS[what](ring, *elems), got
        if got.startswith(SAME_FIRST_FAILURE) or expected.startswith(SAME_FIRST_FAILURE):
            assert got == expected
    return got


def copy(data) -> dict:
    return {**data, "add": [row[:] for row in data["add"]],
            "mul": [row[:] for row in data["mul"]]}


@pytest.mark.parametrize("name", NAMES)
def test_ring_tables_are_accepted(name):
    assert assert_agrees_with_reference(table(name)) is None


def test_every_single_entry_fault_on_small_rings():
    for name in ("Zn:4", "prod(Zn:2,Zn:2)", "zero ring"):
        data = table(name)
        n = data["size"]
        for op in ("add", "mul"):
            for i in range(n):
                for j in range(n):
                    for v in range(n):
                        if v != data[op][i][j]:
                            bad = copy(data)
                            bad[op][i][j] = v
                            assert assert_agrees_with_reference(bad) is not None


def test_every_symmetric_pair_fault_on_a_small_ring():
    data = table("polyq:2:x^2")
    n = data["size"]
    verdicts = set()
    for op in ("add", "mul"):
        for i in range(n):
            for j in range(i, n):
                for v in range(n):
                    bad = copy(data)
                    bad[op][i][j] = bad[op][j][i] = v
                    verdicts.add(assert_agrees_with_reference(bad) is None)
    assert verdicts == {True, False}  # v equal to the entry changes nothing


def relabel(data, perm) -> dict:
    """The same ring with element i renamed perm[i]: a ring again."""
    n = data["size"]
    out = {"size": n, "zero": perm[data["zero"]], "one": perm[data["one"]]}
    for op in ("add", "mul"):
        tab = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                tab[perm[i]][perm[j]] = perm[data[op][i][j]]
        out[op] = tab
    return out


@st.composite
def faulty_tables(draw):
    data = copy(table(draw(st.sampled_from(NAMES))))
    n = data["size"]
    index = st.integers(0, n - 1)
    kind = draw(st.sampled_from(("entry", "pair", "rows")))
    op = draw(st.sampled_from(("add", "mul")))
    tab = data[op]
    if kind == "entry":
        tab[draw(index)][draw(index)] = draw(index)
    elif kind == "pair":
        i, j, v = draw(index), draw(index), draw(index)
        tab[i][j] = tab[j][i] = v
    else:
        tab[:] = [tab[i] for i in draw(st.permutations(range(n)))]
    return data


@settings(max_examples=150, deadline=None)
@given(faulty_tables())
def test_planted_faults_agree_with_the_reference(data):
    assert_agrees_with_reference(data)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(NAMES), st.data())
def test_relabelled_rings_are_accepted(name, draw):
    data = table(name)
    perm = draw.draw(st.permutations(range(data["size"])))
    data = relabel(data, perm)
    assert assert_agrees_with_reference(data) is None
    # The generators span the group, and each one at least doubles the span.
    add, zero = data["add"], data["zero"]
    span = {zero}
    for g in _additive_generators(add, zero):
        assert g not in span
        grown = span
        while True:
            more = grown | {add[x][g] for x in grown}
            if more == grown:
                break
            grown = more
        assert len(grown) >= 2 * len(span)
        span = grown
    assert span == set(range(data["size"]))


def test_generators_of_cyclic_and_elementary_groups():
    assert _additive_generators(table("Zn:27")["add"], 0) == [1]
    data = table("prod(Zn:2,Zn:2,Zn:2,Zn:2)")
    assert len(_additive_generators(data["add"], data["zero"])) == 4
    assert _additive_generators(ZERO_RING["add"], 0) == []


def test_a_noncommutative_ring_is_refused():
    """Upper triangular 2x2 matrices over F2, [[a, b], [0, c]] as index
    a + 2b + 4c: a ring, but not a commutative one."""
    def times(x, y):
        a, b, c = x & 1, x >> 1 & 1, x >> 2
        a2, b2, c2 = y & 1, y >> 1 & 1, y >> 2
        return a * a2 + 2 * ((a * b2 + b * c2) % 2) + 4 * c * c2
    data = {"size": 8, "zero": 0, "one": 5,
            "add": [[x ^ y for y in range(8)] for x in range(8)],
            "mul": [[times(x, y) for y in range(8)] for x in range(8)]}
    message = assert_agrees_with_reference(data)
    assert message.startswith("multiplication not commutative at ")


def test_a_fault_that_only_a_later_generator_exposes():
    """F2[x]/(x³) on the basis 1, x, x², element a0 + 2·a1 + 4·a2, so that +
    is XOR; but with x·x² = 1 where the ring has 0. The product is still
    bilinear, so it distributes, yet x²·(x·x) = 0 and (x²·x)·x = x. The
    generators are 1, x, x² (indices 1, 2, 4), and every triple whose
    generator slot lies in the span {0, 1} of the first satisfies all
    three laws: a check on G[0] alone, or on 1 alone, accepts the table."""
    def table_with(x_times_x2):
        basis = {(0, 0): 1, (0, 1): 2, (0, 2): 4, (1, 1): 4, (1, 2): x_times_x2,
                 (2, 2): 0}

        def times(a, b):
            out = 0
            for i in range(3):
                for j in range(3):
                    if a >> i & b >> j & 1:
                        out ^= basis[min(i, j), max(i, j)]
            return out
        return {"size": 8, "zero": 0, "one": 1,
                "add": [[a ^ b for b in range(8)] for a in range(8)],
                "mul": [[times(a, b) for b in range(8)] for a in range(8)]}

    assert assert_agrees_with_reference(table_with(0)) is None
    data = table_with(1)
    ring = build(data, verify=False)
    elems = list(ring.elements())
    for a in elems:
        for b in elems:
            for g in elems[:2]:
                assert not AXIOMS["addition not associative"](ring, a, g, b)
                assert not AXIOMS["distributivity fails"](ring, a, b, g)
                assert not AXIOMS["multiplication not associative"](ring, a, b, g)
    message = assert_agrees_with_reference(data)
    assert message.startswith("multiplication not associative at ")


def classify(argv, capsys) -> dict:
    assert cli.main(["classify", *argv]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["ring_spec"]
    return report


def test_an_exported_table_classifies_as_its_ring(tmp_path, capsys):
    path = tmp_path / "zn64.json"
    report = classify(["Zn:64", "--export-table", str(path)], capsys)
    assert classify([f"table:{path}"], capsys) == report


def test_a_table_at_the_verification_limit(tmp_path, capsys):
    path = tmp_path / "x7.json"
    report = classify(["polyq:2:x^7", "--export-table", str(path)], capsys)
    table_report = classify([f"table:{path}"], capsys)
    assert table_report["cardinality"] == 128
    verdicts = {pid: res["verdict"] for pid, res in report["predicates"].items()}
    assert {pid: res["verdict"]
            for pid, res in table_report["predicates"].items()} == verdicts
    assert not verdicts["regular"] and verdicts["feckly_zero_adequate"]


def test_a_table_past_the_verification_limit_exits_4(tmp_path, capsys):
    path = tmp_path / "zn513.json"
    path.write_text(json.dumps(export_table_data(make_ring("Zn:513"))))
    assert cli.main(["classify", f"table:{path}"]) == 4
    assert capsys.readouterr().err.startswith(
        "too large: table ring of size 513 exceeds the exhaustive verification limit 512")


def test_a_256_element_export_reads_back_with_equal_verdicts(tmp_path):
    """The file ``classify Zn:256 --export-table`` writes loads as a table
    ring, and each ring predicate has the same verdict, re-verified, on both."""
    path = tmp_path / "zn256.json"
    path.write_text(json.dumps(export_table_data(make_ring("Zn:256")), sort_keys=True))

    def verdicts(spec):
        cache = engine.build_cache(make_ring(spec))
        results = {pid: engine.ring_predicate(cache, pid)
                   for pid in engine.RING_PREDICATES}
        assert all(engine.reverify(cache, res) for res in results.values()), spec
        return {pid: res.verdict for pid, res in results.items()}

    ring = verdicts("Zn:256")
    assert verdicts(f"table:{path}") == ring
    assert ring["hermite"] and not ring["regular"]


def test_an_export_past_the_limit_exits_4_and_writes_nothing(tmp_path, capsys,
                                                             monkeypatch):
    """It is refused before the ring is classified."""
    monkeypatch.setattr(cli, "_classify_finite", None)  # a call would raise
    path = tmp_path / "zn600.json"
    assert cli.main(["classify", "Zn:600", "--export-table", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.err == ("too large: cannot export Zn:600: a table ring file "
                            "holds at most 512 elements\n")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []
