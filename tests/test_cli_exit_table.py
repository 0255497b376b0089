"""The CLI's exit-code table, subcommand by subcommand.

``cli.EXIT_TABLE`` maps each error type to an exit code and a stderr
prefix. Each case below runs one command and checks the code, the prefix
and that no traceback appears. The ReverifyFailed row (exit 3, ``error``)
needs a planted fault; ``tests/test_cli.py`` covers it for classify and
adequate.

Inputs that used to hang or exhaust memory (huge exponents, zloc primes,
cardinalities) run in a child process under a 1 GiB address-space limit
and a timeout, and must end in under one second.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ringlab import cli
from ringlab.concrete import (SPEC_NESTING_LIMIT, builtin_table_path,
                               localized_residue_map, make_ring)
from ringlab.errors import ParseError

TABLE = json.loads(Path(builtin_table_path()).read_text())

# The malformed table-ring files: each is a parse error.
BAD_TABLES = {
    "size_string": {**TABLE, "size": "abc"},
    "not_an_object": [1, 2],
    "string_entries": {**TABLE, "add": [[str(v) for v in row]
                                        for row in TABLE["add"]]},
    "add_int": {**TABLE, "add": 5},
    "zero_string": {**TABLE, "zero": "x"},
    "zero_float": {**TABLE, "zero": 0.5},
    "one_bool": {**TABLE, "one": True},
    "float_entries": {**TABLE, "mul": [[float(v) for v in row]
                                       for row in TABLE["mul"]]},
    "rows_not_lists": {**TABLE, "mul": [5] * TABLE["size"]},
}

# Nested past make_ring's bracket limit, and past json's recursion limit.
DEEP_SPEC = "prod(" * 1500 + "Zn:2" + ",Zn:2)" * 1500
DEEP_JSON = "[" * 100_000 + "]" * 100_000

# A 2-element table whose element 1 has no additive inverse.
NOT_A_RING = {"size": 2, "add": [[0, 1], [1, 1]], "mul": [[0, 0], [0, 1]],
              "zero": 0, "one": 1}


@pytest.fixture
def files(tmp_path, monkeypatch):
    """Write the input files and return the placeholder-to-path map."""
    monkeypatch.delenv("RINGLAB_WORKERS", raising=False)

    def write(name, data):
        path = tmp_path / name
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        return str(path)

    paths = {
        "NOT_JSON": write("not.json", "not json"),
        "Z_MATRIX": write("z.json", {"ring": "Z", "rows": [["2", "4"],
                                                          ["6", "8"]]}),
        "TABLE_MATRIX": write("t.json", {"ring": f"table:{builtin_table_path()}",
                                         "rows": [["2", "4"], ["0", "0"]]}),
        "BIG_MATRIX": write("big.json", {"ring": "Zn:5000", "rows": [["1"]]}),
        "DUALINT_MATRIX": write("d.json", {"ring": "dualint", "rows": [["1"]]}),
        "NOT_A_RING": "table:" + write("notring.json", NOT_A_RING),
        "INT_CORPUS": write("ints.json", [5]),
        "CORPUS": write("corpus.json", ["Zn:6"]),
        "UNWRITABLE": str(tmp_path / "no" / "such" / "dir" / "x.json"),
        "DEEP_SPEC": DEEP_SPEC,
        "DEEP_JSON": write("deep.json", DEEP_JSON),
    }
    paths["DEEP_TABLE"] = "table:" + paths["DEEP_JSON"]
    for name, data in BAD_TABLES.items():
        paths[name] = write(f"{name}.json", data)
    return paths


CASES = [
    # reduce
    (["reduce", "NOT_JSON"], 2, "parse error: "),
    (["reduce", "Z_MATRIX", "--verify", "NOT_JSON"], 2, "parse error: "),
    (["reduce", "Z_MATRIX", "--out", "UNWRITABLE"], 2, "error: cannot write "),
    (["reduce", "TABLE_MATRIX"], 3, "reduction failed: "),
    (["reduce", "BIG_MATRIX"], 4, "too large: "),
    (["reduce", "DUALINT_MATRIX"], 5, "unsupported: "),
    (["reduce", "DEEP_JSON"], 2, "parse error: "),
    (["reduce", "Z_MATRIX", "--verify", "DEEP_JSON"], 2, "parse error: "),
    # classify
    (["classify", "Zn:0x"], 2, "parse error: "),
    (["classify", "polyq:2:x^100001"], 2, "parse error: exponent 100001 "),
    (["classify", "Zn:5000"], 4, "too large: "),
    (["classify", "prod(Zn:2)"], 5, "unsupported: "),
    (["classify", "Z", "--export-table", "UNWRITABLE"], 5,
     "unsupported: cannot export an infinite ring\n"),
    (["classify", "Zn:6", "--export-table", "UNWRITABLE"], 2, "error: "),
    (["classify", "NOT_A_RING"], 5, "error: element 1 has no additive"),
    (["classify", "DEEP_SPEC"], 2, "parse error: brackets nested deeper "),
    (["classify", "DEEP_TABLE"], 2, "parse error: bad JSON in table ring "),
    # adequate
    (["adequate", "Zn:12", "zzz", "5"], 2, "parse error: "),
    (["adequate", "Zn:12", "4", "6", "--size-bound", "5"], 4, "too large: "),
    (["adequate", "polyq:0:x^3", "1", "2"], 5,
     "unsupported: polyq with modulus 0 "),
    (["adequate", "polyq:0:x^2-1", "1", "2"], 5,
     "unsupported: unsupported ring kind for adequacy\n"),
    (["adequate", "Z", "0", "5"], 5, "unsupported input: "),
    (["adequate", "dualint", "0+1/2 x", "10"], 5, "unsupported input: "),
    # check-theorems and case-study
    (["check-theorems", "--corpus", "INT_CORPUS"], 2, "parse error: "),
    (["check-theorems", "--corpus", "DEEP_JSON"], 2, "parse error: "),
    (["check-theorems", "--corpus", "CORPUS", "--checks", "NOPE"], 2,
     "parse error: "),
    (["check-theorems", "--corpus", "CORPUS", "--checks", "T2.5",
      "--out", "UNWRITABLE"], 2, "error: cannot write "),
    (["case-study", "--out", "UNWRITABLE"], 2, "error: cannot write "),
]


@pytest.mark.parametrize("argv, code, prefix", CASES,
                         ids=[" ".join(case[0]) for case in CASES])
def test_exit_table(argv, code, prefix, files, capsys):
    assert cli.main([files.get(a, a) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix), err
    assert "Traceback" not in err


def test_every_table_row_is_exercised():
    rows = {(code, prefix) for _, code, prefix in cli.EXIT_TABLE}
    seen = {(code, prefix.split(":")[0]) for _, code, prefix in CASES}
    assert rows - seen == {(3, "error")}  # ReverifyFailed: see the docstring


@pytest.mark.parametrize("name", sorted(BAD_TABLES))
def test_malformed_table_file_is_a_parse_error(name, files, tmp_path, capsys):
    spec = f"table:{files[name]}"
    assert cli.main(["classify", spec]) == 2
    assert capsys.readouterr().err.startswith("parse error: table ring file ")
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"ring": spec, "rows": [["1"]]}))
    assert cli.main(["reduce", str(matrix)]) == 2
    assert capsys.readouterr().err.startswith("parse error: table ring file ")
    # In a corpus run the spec gets an error row and the others still run.
    corpus, out = tmp_path / "c.json", tmp_path / "report.json"
    corpus.write_text(json.dumps([spec, "Zn:6"]))
    assert cli.main(["check-theorems", "--corpus", str(corpus),
                     "--checks", "T2.5", "--out", str(out)]) == 1
    assert "summary: 0 pass, 1 fail" in capsys.readouterr().err
    rows = {r["ring"]: r for r in
            json.loads(out.read_text())["results"][0]["rings"]}
    assert {ring: r["verdict"] for ring, r in rows.items()} == {
        spec: False, "Zn:6": True}
    assert rows[spec]["error"].startswith("table ring file ")


def test_spec_nesting_limit():
    """make_ring takes brackets nested SPEC_NESTING_LIMIT deep, and no deeper."""
    def nested(depth):
        return "prod(" * depth + "Zn:2" + ",Zn:2)" * depth

    ring = make_ring(nested(SPEC_NESTING_LIMIT))
    assert ring.cardinality == 2 ** (SPEC_NESTING_LIMIT + 1)
    with pytest.raises(ParseError, match="nested deeper"):
        make_ring(nested(SPEC_NESTING_LIMIT + 1))


def test_deep_spec_in_a_corpus_is_an_error_row(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("RINGLAB_WORKERS", raising=False)
    corpus, out = tmp_path / "c.json", tmp_path / "report.json"
    corpus.write_text(json.dumps([DEEP_SPEC, "Zn:6"]))
    assert cli.main(["check-theorems", "--corpus", str(corpus),
                     "--checks", "T2.5", "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    rows = {r["ring"]: r for r in
            json.loads(out.read_text())["results"][0]["rings"]}
    assert rows[DEEP_SPEC]["error"].startswith("brackets nested deeper ")
    assert not rows[DEEP_SPEC]["verdict"] and rows["Zn:6"]["verdict"]


# Each child sets a 1 GiB address-space limit, runs cli.main in-process and
# writes the time main took as the last stderr line.
CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from ringlab.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
sys.stderr.write(f"{time.perf_counter() - start:.3f}\\n")
sys.exit(code)
"""

HUGE_TERM = "x^1000000000"  # a dense coefficient list would need ~16 GB

HAZARDS = [
    (["classify", "polyq:2:" + HUGE_TERM], 2, "parse error: exponent "),
    (["classify", "polyq:2:x^2+" + "1" * 5000], 2, "parse error: "),
    (["adequate", "polyq:2:x^2", HUGE_TERM, "1"], 2, "parse error: exponent "),
    (["classify", "polyq:2:x^100000"], 4, "too large: polyq:2:x^100000 has "
                                          "at least 2^100000 elements"),
    (["classify", "polyq:" + "9" * 4000 + ":x^100000"], 4, "too large: "),
    (["adequate", "polyq:" + "9" * 4000 + ":x^100000", "1", "1"], 4,
     "too large: "),
    (["classify", f"prod(Zn:{'9' * 3000},Zn:{'9' * 3000})"], 4, "too large: "),
    (["classify", "zloc:{2147483647}"], 4, "too large: Zn:2147483647 "),
    (["classify", "zloc:{2147483659}"], 5, "unsupported: zloc primes must "),
    (["classify", "zloc:{1000000000000000003}"], 5,
     "unsupported: zloc primes must "),
    (["classify", "zloc:{" + "1" * 401 + "}"], 5,
     "unsupported: zloc primes must "),
]


@pytest.mark.parametrize("argv, code, prefix", HAZARDS,
                         ids=[" ".join(case[0])[:40] for case in HAZARDS])
def test_hazardous_inputs_end_fast(argv, code, prefix):
    res = subprocess.run([sys.executable, "-c", CHILD, *argv],
                         capture_output=True, text=True, timeout=60)
    *lines, elapsed = res.stderr.splitlines()
    assert res.returncode == code, res.stderr[-2000:]
    assert lines[0].startswith(prefix) and "Traceback" not in res.stderr
    assert float(elapsed) < 1.0


@pytest.mark.parametrize("p", [2, 5])
def test_classify_one_prime_zloc(p, capsys):
    assert cli.main(["classify", f"zloc:{{{p}}}"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["residue_image"] == f"Zn:{p}"
    assert report["residue_image_regular"] is True
    assert report["predicates"]["feckly_zero_adequate"] == {
        "verdict": True, "note": f"via the residue image Zn:{p}"}


def test_classify_two_prime_zloc_is_unchanged(capsys):
    assert cli.main(["classify", "zloc:{3,5}"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "ring_spec": "zloc:{3,5}",
        "cardinality": "infinite",
        "predicates": {
            "bezout": {"verdict": True,
                       "note": "valuation gcd with explicit witnesses"},
            "feckly_zero_adequate": {
                "verdict": True, "note": "via the residue image prod(Zn:3,Zn:5)"},
            "zero_adequate": {"verdict": False, "status": "asserted_untested",
                              "note": "infinite ring, not machine-checkable"},
        },
        "residue_image": "prod(Zn:3,Zn:5)",
        "residue_image_regular": True,
    }


@pytest.mark.parametrize("p", [2, 7])
def test_one_prime_residue_map_is_a_surjective_homomorphism(p):
    """The checks E2.11 makes for {3, 5}, on seeded samples."""
    ring = make_ring(f"zloc:{{{p}}}")
    target, mapping = localized_residue_map(ring)
    assert target.spec_string() == f"Zn:{p}"
    rng = random.Random(f"one-prime:{p}")

    def sample():
        den = rng.choice([d for d in range(1, 60) if d % p])
        return ring.make(Fraction(rng.randint(-400, 400), den))

    for _ in range(300):
        a, b = sample(), sample()
        assert mapping(ring.add(a, b)) == target.add(mapping(a), mapping(b))
        assert mapping(ring.mul(a, b)) == target.mul(mapping(a), mapping(b))
        # the kernel is the set of elements with numerator divisible by p
        assert ((mapping(a) == target.zero)
                == (ring._member(a).numerator % p == 0))
    assert {mapping(ring.make(Fraction(r))).value for r in range(p)} \
        == set(range(p))
    assert mapping(ring.parse_element("1/3")) == target.make(pow(3, -1, p))
