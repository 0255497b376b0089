import json

import pytest

from ringlab import lab
from ringlab.concrete import builtin_table_path


def _small_config(**overrides):
    base = dict(
        ring_specs=("Zn:12", "Zn:5", "prod(Zn:2,Zn:2)",
                    f"table:{builtin_table_path()}"),
        sample_2x2=25,
        sample_3x3=5,
    )
    base.update(overrides)
    return lab.CorpusConfig(**base)


def test_report_is_deterministic():
    cfg = _small_config()
    rep1 = lab.run_corpus(cfg)
    rep2 = lab.run_corpus(cfg)
    assert lab.report_to_json(rep1) == lab.report_to_json(rep2)


def test_report_shape_and_order():
    rep = lab.run_corpus(_small_config())
    ids = [r["id"] for r in rep["results"]]
    assert ids == list(lab.CHECK_ORDER)
    for res in rep["results"]:
        rings = [r["ring"] for r in res["rings"]]
        assert rings == sorted(rings)
        assert res["aggregate"] == all(
            r["verdict"] for r in res["rings"] if r["verdict"] is not None)
    assert set(rep["summary"]) == {"pass", "fail", "info"}
    assert rep["summary"]["info"] == 2


def test_nonbezout_ring_is_vacuous_not_failing():
    rep = lab.run_corpus(_small_config(checks=("E2.10", "T2.5")))
    for res in rep["results"]:
        table_rows = [r for r in res["rings"] if r["ring"].startswith("table:")]
        assert len(table_rows) == 1
        assert table_rows[0]["vacuous"] is True
        assert table_rows[0]["verdict"] is None
        assert res["aggregate"] is True


def test_unknown_check_id_is_rejected():
    with pytest.raises(ValueError, match="NOPE"):
        _small_config(checks=("T2.5", "NOPE"))


@pytest.mark.parametrize("value, want", [("", 1), ("1", 1), ("3", 3),
                                         ("abc", None), ("0", None), ("-1", None)])
def test_worker_count(monkeypatch, value, want):
    monkeypatch.setenv("RINGLAB_WORKERS", value)
    if want is None:
        with pytest.raises(ValueError, match="RINGLAB_WORKERS"):
            lab.worker_count()
    else:
        assert lab.worker_count() == want


def test_check_filter():
    rep = lab.run_corpus(_small_config(checks=("T2.5", "ZALPHA")))
    assert [r["id"] for r in rep["results"]] == ["T2.5", "ZALPHA"]


def test_example_2_11_check():
    res = lab.check_example_2_11(seed=7, samples=300)
    assert res["verdict"] is True
    detail = res["detail"]
    assert detail["homomorphism_on_samples"]
    assert detail["surjective_onto_15_targets"]
    assert detail["kernel_is_15_divisibility"]
    assert detail["residue_image_regular"]
    assert detail["zero_adequate"]["status"] == "asserted_untested"


def test_info_checks_marked_and_excluded():
    rep = lab.run_corpus(_small_config(checks=("C3.2-info", "P3.3-info")))
    for res in rep["results"]:
        assert res["info"] is True
        # Zn:5 is the only finite Bezout domain in the small corpus
        exercised = [r for r in res["rings"] if not r.get("vacuous")]
        assert [r["ring"] for r in exercised] == ["Zn:5"]
    assert rep["summary"]["fail"] == 0 and rep["summary"]["pass"] == 0


def test_fingerprint_of_config_in_report():
    cfg = _small_config()
    rep = lab.run_corpus(cfg)
    assert rep["config"]["seed"] == lab.DEFAULT_SEED
    assert rep["config"]["ring_specs"] == list(cfg.ring_specs)
    json.dumps(rep)  # entire report is JSON-serializable


def test_worker_fanout_matches_sequential(monkeypatch):
    cfg = _small_config(checks=("T2.5", "E2.10", "C2.8"))
    seq = lab.report_to_json(lab.run_corpus(cfg))
    monkeypatch.setenv("RINGLAB_WORKERS", "2")
    par = lab.report_to_json(lab.run_corpus(cfg))
    assert seq == par


def test_reduction_checks_report_bytes_pinned():
    """sha256 of a report over the C2.6/C3.9 battery, T3.8 and L3.7.

    Any drift in the reducer, the verifier or the battery's sampling changes
    these bytes. No table spec, so no checkout path enters the report.
    """
    import hashlib

    cfg = lab.CorpusConfig(
        ring_specs=("Zn:6", "Zn:12", "prod(Zn:4,Zn:9)", "polyq:9:x^2-1"),
        checks=("C2.6", "C3.9", "T3.8", "L3.7"))
    text = lab.report_to_json(lab.run_corpus(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "72bc3f2b562548ff5f6b4cd6e9412e9f0e4bc49c7675a27666395fb050f5f592")


def test_battery_failure_payloads(monkeypatch):
    """A rejected certificate and a failed reduction are reported with the
    matrix as element strings and the verifier's invariant and position."""
    from ringlab.errors import ReductionFailed

    def config():
        return lab.CorpusConfig(ring_specs=("Zn:2",), checks=("C2.6",),
                                sample_2x2=0, sample_3x3=0)

    monkeypatch.setattr(lab, "_verify_raw", lambda ops, A, *cert: ("product", [0, 1]))
    row = lab.run_corpus(config())["results"][0]["rings"][0]
    assert row["verdict"] is False and row["exercised"]["matrices"] == 16
    assert row["counterexample"][0] == {
        "matrix": [["0", "0"], ["0", "0"]],
        "violation": {"invariant": "product", "position": [0, 1]}}

    def fail(ops, A):
        raise ReductionFailed("no gcd")

    monkeypatch.setattr(lab, "_reduce_raw", fail)
    row = lab.run_corpus(config())["results"][0]["rings"][0]
    assert row["counterexample"][1] == {"matrix": [["1", "0"], ["0", "0"]],
                                        "reason": "no gcd"}


def test_unbuildable_spec_fails_every_requested_check():
    """A spec that cannot be built is a failing row, never a vacuous one."""
    cfg = lab.CorpusConfig(ring_specs=("Zn:1", "bogus", "Zn:5"),
                           checks=("T2.5", "E2.10"))
    rep = lab.run_corpus(cfg)
    for res in rep["results"]:
        rows = {r["ring"]: r for r in res["rings"]}
        assert set(rows) == {"Zn:1", "bogus", "Zn:5"}
        for spec in ("Zn:1", "bogus"):
            row = rows[spec]
            assert row["verdict"] is False and row["vacuous"] is False
            assert row["error"] and "reason" not in row
        assert rows["Zn:5"]["verdict"] is True
        assert res["aggregate"] is False and res["rings_exercised"] == 3
    assert rep["summary"] == {"pass": 0, "fail": 2, "info": 0}


def test_ring_past_the_size_bound_fails():
    rep = lab.run_corpus(lab.CorpusConfig(ring_specs=("Zn:12",), size_bound=10,
                                          checks=("T2.5",)))
    row = rep["results"][0]["rings"][0]
    assert row["verdict"] is False and "bound" in row["error"]
    assert rep["summary"]["fail"] == 1


def test_quotient_context_from_ring():
    """A quotient context is built like a corpus one, named by its spec."""
    ctx = lab._RingCtx("Zn:12", lab.make_ring("Zn:12"), _small_config())
    sub = lab._radical_quotient_ctx(ctx)
    assert sub.spec == sub.ring.spec_string() and sub.finite
    assert sub.config is ctx.config and sub.cache.n == 6
    assert sub.is_bezout() and sub.verdict("zero_adequate")


def test_battery_uses_the_run_cache(monkeypatch):
    """C2.6 and T3.8 take the adapter of the run's own cache, so a
    --size-bound above the library default still reaches them."""
    from ringlab import reduction
    from ringlab.errors import TooLarge

    def refuse(ring, *args, **kwargs):
        raise TooLarge("default bound")

    cfg = lab.CorpusConfig(ring_specs=("Zn:4",), checks=("C2.6", "T3.8"),
                           sample_2x2=5, sample_3x3=2)
    ctx = lab._RingCtx("Zn:4", lab.make_ring("Zn:4"), cfg)
    monkeypatch.setattr(reduction, "build_cache", refuse)
    assert lab._check_c26(ctx)["verdict"] is True
    assert lab._check_t38(ctx)["verdict"] is True


@pytest.mark.parametrize("seed", [lab.DEFAULT_SEED, 7])
def test_battery_draws_the_randrange_stream(monkeypatch, seed):
    """The C2.6/C3.9 battery draws the matrices random.Random.randrange
    draws, in the same order, in both sampling regimes.

    The report pin holds only counts and failures, so it would not see a
    drifted draw stream; this test does.
    """
    import random

    drawn = []
    reduce_raw = lab._reduce_raw

    def spy(ops, rows):
        drawn.append([list(row) for row in rows])
        return reduce_raw(ops, rows)

    monkeypatch.setattr(lab, "_reduce_raw", spy)
    # Zn:12 is sampled at 1000 + 200 matrices, polyq:9:x^2-1 (81 elements,
    # past sampled_max_size) at 100 + 10; neither is exhaustive.
    for spec, n, count2, count3 in (("Zn:12", 12, 1000, 200),
                                    ("polyq:9:x^2-1", 81, 100, 10)):
        cfg = lab.CorpusConfig(ring_specs=(spec,), seed=seed)
        drawn.clear()
        lab._matrix_battery(lab._RingCtx(spec, lab.make_ring(spec), cfg))
        rng = random.Random(f"{seed}:{spec}:matrices")
        want = [[[rng.randrange(n) for _ in range(size)] for _ in range(size)]
                for size, count in ((2, count2), (3, count3))
                for _ in range(count)]
        assert drawn == want, spec


@pytest.mark.parametrize("seed", [lab.DEFAULT_SEED, 7])
def test_l37_draws_the_randint_stream(monkeypatch, seed):
    """L3.7's Z tuples are those four random.Random.randint(-100, 100)
    calls per tuple give, keeping the ones with gcd(b + a*r, c) = 1."""
    import random
    from math import gcd

    class Enough(Exception):
        pass

    got = []
    triangular = lab._comax_triangular_raw

    def spy(ops, a, b, c, r):
        if ops.ring.kind == "Z":
            got.append((a, b, c, r))
            if len(got) == 500:
                raise Enough
        return triangular(ops, a, b, c, r)

    monkeypatch.setattr(lab, "_comax_triangular_raw", spy)
    with pytest.raises(Enough):
        lab._check_l37_global(seed)
    rng = random.Random(f"{seed}:l37")
    want = []
    while len(want) < 500:
        a, b, c, r = (rng.randint(-100, 100) for _ in range(4))
        if gcd(b + a * r, c) == 1:
            want.append((a, b, c, r))
    assert got == want


def test_every_check_and_reason_pinned():
    """sha256 of one report that reaches every check id, every vacuous
    reason a corpus ring can reach, an error row and three infinite rings.

    The checkout path of the built-in table is replaced by ``<table>``, so
    the digest does not depend on where the package lives.
    """
    import hashlib

    table = builtin_table_path()
    cfg = lab.CorpusConfig(
        ring_specs=("Zn:5", "Zn:12", "Zn:4", "prod(Zn:2,Zn:2)", "polyq:2:x^2",
                    "quot(polyq:4:x^2,2x)", f"table:{table}", "Z", "zloc:{2}",
                    "dualint", "bogus"),
        sample_2x2=25, sample_3x3=5)
    text = lab.report_to_json(lab.run_corpus(cfg)).replace(table, "<table>")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7741a27a46911679cf2cfe453ef82f54b02684d7eab899e327d226fb4fb09cc2")


def test_c214_factor_verdicts_are_reverified(monkeypatch):
    """C2.14's factor verdicts go through reverify like every other verdict:
    a factor whose payload fails re-verification makes an error row."""
    reverify = lab.engine.reverify
    monkeypatch.setattr(lab.engine, "reverify",
                        lambda cache, res: cache.n != 4 and reverify(cache, res))
    rep = lab.run_corpus(lab.CorpusConfig(ring_specs=("prod(Zn:4,Zn:9)",),
                                          checks=("C2.14",)))
    row = rep["results"][0]["rings"][0]
    assert row["verdict"] is False and "Zn:4" in row["error"]
    assert rep["summary"]["fail"] == 1


def test_empty_check_list_is_rejected():
    """checks=() would run nothing and report "checks": null, which means
    every check; it is an error, as ``--checks ""`` is on the command line."""
    with pytest.raises(ValueError, match="no check"):
        _small_config(checks=())


def test_t38_tests_the_size_before_bezout():
    """A ring that fails two hypotheses of a check gets the reason of the
    first in the check's order. The 16-element non-Bezout ring below is
    past T3.8's exhaustive size bound, so T3.8 reports the size."""
    rep = lab.run_corpus(lab.CorpusConfig(
        ring_specs=("prod(Zn:2,quot(polyq:4:x^2,2x))",), checks=("T3.8",)))
    row = rep["results"][0]["rings"][0]
    assert row["vacuous"] and row["reason"] == "beyond the exhaustive size bound"
