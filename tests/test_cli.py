import hashlib
import json
import os
import subprocess
import sys

import pytest

from ringlab.concrete import builtin_table_path


def run_cli(*args, cwd=None, env=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "ringlab.cli", *args],
        capture_output=True, text=True, cwd=cwd, timeout=timeout,
        env=None if env is None else {**os.environ, **env})


@pytest.fixture
def z_matrix(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"ring": "Z", "rows": [["2", "4"], ["6", "8"]]}))
    return path


def test_reduce_writes_verified_certificate(z_matrix, tmp_path):
    out = tmp_path / "cert.json"
    res = run_cli("reduce", str(z_matrix), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert "D = diag(2, 4)" in res.stdout
    assert "2 | 4" in res.stdout
    cert = json.loads(out.read_text())
    assert cert["verified"] is True
    assert set(cert) >= {"P", "Pinv", "D", "Q", "Qinv", "verified"}


def test_reduce_verify_roundtrip(z_matrix, tmp_path):
    out = tmp_path / "cert.json"
    assert run_cli("reduce", str(z_matrix), "--out", str(out)).returncode == 0
    res = run_cli("reduce", str(z_matrix), "--verify", str(out))
    assert res.returncode == 0
    assert "VERIFIED" in res.stdout


def test_reduce_verify_rejects_tampered(z_matrix, tmp_path):
    out = tmp_path / "cert.json"
    run_cli("reduce", str(z_matrix), "--out", str(out))
    cert = json.loads(out.read_text())
    cert["D"][0][0] = "7"
    tampered = tmp_path / "bad.json"
    tampered.write_text(json.dumps(cert))
    res = run_cli("reduce", str(z_matrix), "--verify", str(tampered))
    assert res.returncode == 3
    assert "REJECTED" in res.stdout


@pytest.fixture
def z6_certificate(tmp_path):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"ring": "Zn:6",
                                  "rows": [["2", "3"], ["0", "4"]]}))
    out = tmp_path / "cert.json"
    assert run_cli("reduce", str(matrix), "--out", str(out)).returncode == 0
    return matrix, json.loads(out.read_text())


@pytest.mark.parametrize("field, value, code", [
    ("Q", [["1", "0"], ["0"]], 2),                  # ragged: parse error
    ("P", 5, 2),                                    # not a list of rows
    ("D", [[1, 0], [0, 1]], 2),                     # entries not strings
    ("Pinv", [["1", "0"], ["0", "1"], ["0", "0"]], 3),  # 3x2: shape
    ("Qinv", [["1"]], 3),                           # 1x1: shape
])
def test_reduce_verify_malformed_certificate(z6_certificate, tmp_path,
                                             field, value, code):
    matrix, cert = z6_certificate
    cert[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    res = run_cli("reduce", str(matrix), "--verify", str(bad))
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    if code == 3:
        assert "REJECTED" in res.stdout and "'shape'" in res.stdout


def test_reduce_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"ring": "wat:7", "rows": [["1"]]}')
    assert run_cli("reduce", str(bad)).returncode == 2
    bad.write_text("not json")
    assert run_cli("reduce", str(bad)).returncode == 2
    for text in ('[1, 2]', '{"ring": 5, "rows": [["1"]]}',
                 '{"ring": "Zn:6", "rows": 5}'):
        bad.write_text(text)
        res = run_cli("reduce", str(bad))
        assert res.returncode == 2 and "Traceback" not in res.stderr, text


@pytest.mark.parametrize("entry", ["1e400000", "1e20000"])
def test_reduce_zloc_huge_entry_exit_2(tmp_path, entry):
    """A zloc entry with more digits than sys.get_int_max_str_digits() is
    a parse error, found before any arithmetic on it (1e400000 used to
    spin in the valuation loop for minutes)."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"ring": "zloc:{2,3}", "rows": [[entry]]}))
    res = run_cli("reduce", str(path), timeout=60)
    assert res.returncode == 2, res.stderr
    assert "parse error" in res.stderr and "Traceback" not in res.stderr


def test_reduce_result_past_the_digit_limit_exit_4(tmp_path):
    """Two coprime 3001-digit integers parse, but D = diag(1, a*b) has
    about 6001 digits, past the int-to-string limit: exit 4, no file."""
    a, b = 10**3000 + 1, 10**3000 + 3
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"ring": "Z",
                                "rows": [[str(a), "0"], ["0", str(b)]]}))
    out = tmp_path / "cert.json"
    res = run_cli("reduce", str(path), "--out", str(out), timeout=60)
    assert res.returncode == 4, res.stderr
    assert "too large" in res.stderr and "Traceback" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("rows", [[["1", "2"], ["3", "4"]],
                                  [["abc", "2"], ["3", "4"]]])
def test_reduce_past_the_size_bound_exit_4(tmp_path, rows):
    """Zn:5000 is past the default size bound: the bound is checked before
    the entries are parsed, so a bad entry exits 4 as well."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"ring": "Zn:5000", "rows": rows}))
    res = run_cli("reduce", str(path))
    assert res.returncode == 4, res.stderr
    assert "too large" in res.stderr and "Traceback" not in res.stderr


def test_reduce_failure_exit_3(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "ring": f"table:{builtin_table_path()}",
        "rows": [["2", "4"], ["0", "0"]],
    }))
    res = run_cli("reduce", str(path))
    assert res.returncode == 3
    assert "irreducible" in res.stderr


def test_reduce_unsupported_ring_exit_5(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"ring": "dualint", "rows": [["1", "0"],
                                                            ["0", "1"]]}))
    assert run_cli("reduce", str(path)).returncode == 5


def test_classify_finite_and_structural(tmp_path):
    out = tmp_path / "r.json"
    res = run_cli("classify", "Zn:12", "--out", str(out))
    assert res.returncode == 0
    rep = json.loads(out.read_text())
    assert rep["predicates"]["feckly_zero_adequate"]["verdict"] is True
    assert rep["predicates"]["clean"]["verdict"] is True
    res = run_cli("classify", "zloc:{3,5}")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["predicates"]["feckly_zero_adequate"]["verdict"] is True
    assert rep["predicates"]["zero_adequate"]["status"] == "asserted_untested"
    res = run_cli("classify", f"table:{builtin_table_path()}")
    rep = json.loads(res.stdout)
    assert rep["predicates"]["bezout"]["verdict"] is False
    assert rep["predicates"]["bezout"]["counterexample"]["ideal"]


# sha256 of the stdout of ``ringlab classify SPEC``: every payload, verdict
# and counterexample of the three rings that the classify benchmark runs.
CLASSIFY_STDOUT_SHA256 = {
    "Zn:96": "19df255c3b05b89e1fcc0442138197b71573464ba146442d803b0d67ec6f5927",
    "polyq:2:x^6": "52bf85e8928bb4080735133ab7776e1090e821e0958af7d3caa6594047360243",
    "prod(Zn:4,Zn:9)": "2774721ecaa3f431676c088400538809ad85e7a5f630e446bdad86b7ec8f5d8f",
    "dualint": "93297d9d0330f1bf1fb71f34a68acfcad9614ee5bf6c6fdb8d6bdccbff5cf90d",
    "polyq:0:x^2-1": "a22388e2f24fcf34072b2d6c3c7ef79631da5ec611458d4bf877fe4abfeb377b",
}


@pytest.mark.parametrize("spec", list(CLASSIFY_STDOUT_SHA256))
def test_classify_stdout_bytes_pinned(spec, capsys):
    from ringlab import cli

    assert cli.main(["classify", spec]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_STDOUT_SHA256[spec]


def test_adequate_command_on_zloc(capsys):
    from ringlab import cli

    assert cli.main(["adequate", "zloc:{3,5}", "45/2", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["ring"], rep["r"], rep["s"]) == ("zloc:{3,5}", "5/2", "9")
    assert rep["clauses_hold"] is True


def test_classify_exit_codes():
    assert run_cli("classify", "Zn:0x").returncode == 2
    assert run_cli("classify", "Zn:5000").returncode == 4


def test_classify_export_table(tmp_path):
    out = tmp_path / "z6.json"
    res = run_cli("classify", "quot(Zn:12,2)", "--export-table", str(out))
    assert res.returncode == 0
    data = json.loads(out.read_text())
    assert data["size"] == 2 and "add" in data and "mul" in data


def test_adequate_command_variants(tmp_path):
    res = run_cli("adequate", "Z", "12", "10")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert (rep["r"], rep["s"]) == ("3", "4") and rep["clauses_hold"]
    res = run_cli("adequate", "Zn:12", "0", "5", "--variant", "feckly")
    rep = json.loads(res.stdout)
    assert rep["witness"] is not None
    res = run_cli("adequate", "dualint", "12+1/2 x", "10+0 x")
    rep = json.loads(res.stdout)
    assert rep["s"] == "3+1/2 x" and rep["t"] == "4-1/2 x"
    assert run_cli("adequate", "dualint", "0+1/2 x", "10").returncode == 5
    assert run_cli("adequate", "Z", "0", "5").returncode == 5
    assert run_cli("adequate", "Zn:12", "zzz", "5").returncode == 2


def test_check_theorems_small_corpus(tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(["Zn:6", "Zn:7"]))
    out = tmp_path / "report.json"
    res = run_cli("check-theorems", "--corpus", str(corpus),
                  "--checks", "T2.5,E2.10,ZALPHA", "--out", str(out))
    assert res.returncode == 0, res.stderr
    rep = json.loads(out.read_text())
    assert [r["id"] for r in rep["results"]] == ["T2.5", "E2.10", "ZALPHA"]
    assert rep["summary"]["fail"] == 0
    assert "summary:" in res.stderr


QUOTIENT_CORPUS = os.path.join(os.path.dirname(__file__), "quotient_corpus.json")
QUOTIENT_CORPUS_REPORT_SHA256 = (
    "55a8909a4a04265220a5274c247a541ccd446641e537950c5a5a289ed5ef52e2")


def test_quotient_corpus_report_pinned(tmp_path, capsys):
    """Non-Bezout quotients and the zero ring quot(Zn:4,1), which is not a
    domain, so the domain-gated info checks skip it as vacuous."""
    from ringlab import cli

    out = tmp_path / "report.json"
    assert cli.main(["check-theorems", "--corpus", QUOTIENT_CORPUS,
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == QUOTIENT_CORPUS_REPORT_SHA256
    rows = {r["id"]: r["rings"] for r in json.loads(out.read_text())["results"]}
    for cid in ("C3.2-info", "P3.3-info"):
        zero_ring = next(row for row in rows[cid] if row["ring"] == "quot(Zn:4,1)")
        assert zero_ring["vacuous"] and zero_ring["reason"] == "not a finite Bezout domain"


@pytest.mark.parametrize("content", ["[5]", '{"a": 1}', '"Zn:6"', "[null]"])
def test_check_theorems_rejects_malformed_corpus(tmp_path, content):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(content)
    res = run_cli("check-theorems", "--corpus", str(corpus), "--checks", "T2.5")
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert "list of ring spec strings" in res.stderr


def test_check_theorems_unbuildable_spec_fails(tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(["Zn:1", "bogus"]))
    out = tmp_path / "report.json"
    res = run_cli("check-theorems", "--corpus", str(corpus), "--checks", "T2.5",
                  "--out", str(out))
    assert res.returncode == 1, res.stderr
    assert "Traceback" not in res.stderr
    assert "summary: 0 pass, 1 fail" in res.stderr
    assert "rings_exercised=2" in res.stderr
    rows = json.loads(out.read_text())["results"][0]["rings"]
    assert [(r["ring"], r["verdict"]) for r in rows] == [("Zn:1", False),
                                                         ("bogus", False)]
    assert all(r["error"] for r in rows)


def test_check_theorems_rejects_unknown_check_id(tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(["Zn:6"]))
    res = run_cli("check-theorems", "--corpus", str(corpus),
                  "--checks", "T2.5,NOPE")
    assert res.returncode == 2, res.stderr
    assert "NOPE" in res.stderr and "Traceback" not in res.stderr
    assert res.stdout == ""


def test_check_theorems_rejects_empty_check_list(tmp_path):
    """--checks "" selects no check: an error, not a run of all of them."""
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(["Zn:6"]))
    res = run_cli("check-theorems", "--corpus", str(corpus), "--checks", "")
    assert res.returncode == 2, res.stderr
    assert "check id" in res.stderr and "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_check_theorems_rejects_bad_worker_count(tmp_path, value):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(["Zn:6", "Zn:7"]))
    res = run_cli("check-theorems", "--corpus", str(corpus), "--checks", "T2.5",
                  env={"RINGLAB_WORKERS": value})
    assert res.returncode == 2, res.stderr
    assert "RINGLAB_WORKERS" in res.stderr and "Traceback" not in res.stderr


def test_case_study_command():
    res = run_cli("case-study")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["divisible_pair_ideal"] == "(1-x)"


def test_unknown_flag_rejected(z_matrix):
    res = run_cli("reduce", str(z_matrix), "--bogus")
    assert res.returncode == 2


def test_strategy_ring_mismatch_exit_5(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"ring": "Zn:6", "rows": [["1", "2"],
                                                         ["3", "4"]]}))
    res = run_cli("reduce", str(path), "--strategy", "euclidean_Z")
    assert res.returncode == 5


def test_reduce_zloc_matrix(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"ring": "zloc:{3,5}",
                                "rows": [["45/2", "3"], ["5", "9/7"]]}))
    res = run_cli("reduce", str(path), "--strategy", "zloc_structural")
    assert res.returncode == 0
    assert "D = diag(" in res.stdout


def test_classify_reverify_failure_exits_3(monkeypatch, capsys):
    from ringlab import cli, engine

    monkeypatch.setattr(engine, "reverify", lambda cache, res: False)
    assert cli.main(["classify", "Zn:6"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: bezout payload failed re-verification\n"
    assert captured.out == ""


def test_adequate_reverify_failure_exits_3(monkeypatch, capsys):
    from ringlab import cli, engine

    monkeypatch.setattr(engine, "_adequate",
                        lambda variant, cval, cache: lambda target, *w: False)
    assert cli.main(["adequate", "Zn:12", "0", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("error: Zn:12: adequacy witness of 0 against 5 "
                            "failed re-verification\n")
    assert captured.out == ""


def test_check_theorems_reverify_failure_fails_the_check(monkeypatch, tmp_path,
                                                         capsys):
    from ringlab import cli, engine

    monkeypatch.delenv("RINGLAB_WORKERS", raising=False)
    monkeypatch.setattr(engine, "reverify", lambda cache, res: False)
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(["Zn:6"]))
    out = tmp_path / "report.json"
    assert cli.main(["check-theorems", "--corpus", str(corpus),
                     "--checks", "T2.5", "--out", str(out)]) == 1
    assert "summary: 0 pass, 1 fail" in capsys.readouterr().err
    rows = json.loads(out.read_text())["results"][0]["rings"]
    assert rows == [{"ring": "Zn:6", "verdict": False, "vacuous": False,
                     "error": "Zn:6: bezout payload failed re-verification"}]


@pytest.mark.parametrize("command", [
    ["reduce", "MATRIX"],
    ["classify", "Zn:6"],
    ["adequate", "Zn:12", "4", "6"],
    ["check-theorems", "--corpus", "CORPUS", "--checks", "T2.5"],
    ["case-study"],
], ids=lambda command: command[0])
def test_unwritable_out_exits_2(command, z_matrix, tmp_path, monkeypatch,
                                capsys):
    from ringlab import cli

    monkeypatch.delenv("RINGLAB_WORKERS", raising=False)
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(["Zn:6"]))
    argv = [{"MATRIX": str(z_matrix), "CORPUS": str(corpus)}.get(a, a)
            for a in command]
    missing = tmp_path / "no" / "such" / "dir" / "x.json"
    assert cli.main([*argv, "--out", str(missing)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {missing}: No such file or directory\n" in err
    # A directory in place of the file: the rename fails, no temp file stays.
    assert cli.main([*argv, "--out", str(tmp_path)]) == 2
    assert f"error: cannot write {tmp_path}: " in capsys.readouterr().err
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".ringlab-")]
