"""A corpus ring task does each piece of work once.

Quotient contexts are memoized per ideal on the ring's ``_RingCtx``, and
the C2.6/C3.9 battery reads a sampled 2x2 grid's outcome from the
exhaustive pass on rings small enough for one. Each memo is checked here
against work done afresh through the public API.
"""

import random

import pytest

from ringlab import lab
from ringlab.concrete import builtin_table_path, make_ring, quotient_ring
from ringlab.engine import build_cache
from ringlab.errors import ReductionFailed
from ringlab.reduction import RingMatrix, diagonal_reduce, verify_certificate

VERDICTS = ("bezout", "zero_adequate", "feckly_zero_adequate",
            "idempotents_lift_mod_J")


def _ctx(spec, **overrides):
    cfg = lab.CorpusConfig(ring_specs=(spec,), **overrides)
    return lab._RingCtx(spec, make_ring(spec), cfg)


def _fresh(ctx, gens):
    """A quotient context built from quotient_ring with no memo."""
    q = quotient_ring(ctx.ring, [ctx.cache.element(g) for g in gens])[0]
    return lab._RingCtx.from_ring(q, ctx.config)


def _same_quotient(memo, fresh):
    assert memo.cache.n == fresh.cache.n
    for p in VERDICTS:
        assert memo.verdict(p) == fresh.verdict(p), p


@pytest.mark.parametrize("spec", ["Zn:6", "Zn:12", "Zn:30", "Zn:60",
                                  "prod(Zn:4,Zn:9)", "polyq:9:x^2-1"])
def test_quotient_memo_matches_fresh_quotients(spec):
    """Every generator of a principal ideal gets the one memoized context,
    and it reaches the verdicts of a quotient built afresh; so does R/J.
    R/0 is the ring's own context, and is not kept in the memo."""
    ctx = _ctx(spec)
    cache = ctx.cache
    for cls in sorted(set(cache.ideal_class)):
        gens = cache.generators_of(cls)
        memo = lab._quotient_ctx(ctx, [gens[0]])
        assert all(lab._quotient_ctx(ctx, [g]) is memo for g in gens)
        _same_quotient(memo, _fresh(ctx, [gens[0]]))
    assert lab._quotient_ctx(ctx, [cache.zero]) is ctx
    jac = sorted(cache.jac)
    _same_quotient(lab._radical_quotient_ctx(ctx), _fresh(ctx, jac))
    ideals = set(map(cache.ideal_set, cache.ideal_class)) | {cache.jac}
    assert len(ctx._quotients) == len(ideals - {frozenset({cache.zero})})


def test_generators_of_one_ideal_share_one_build(monkeypatch):
    """4 and 8 both generate 4·Z/12: one quotient_ring call, one context."""
    builds = []
    real = lab.quotient_ring

    def spy(ring, gens):
        builds.append(gens)
        return real(ring, gens)

    monkeypatch.setattr(lab, "quotient_ring", spy)
    ctx = _ctx("Zn:12")
    four, eight = (ctx.cache.index_of(ctx.ring.make(v)) for v in (4, 8))
    sub = lab._quotient_ctx(ctx, [four])
    assert lab._quotient_ctx(ctx, [eight]) is sub
    assert len(builds) == 1 and sub.cache.n == 4


def test_no_quotient_outlives_a_run(monkeypatch):
    """Two equal runs make the same quotient builds: no memo is kept
    between ring tasks or between runs."""
    count = [0]
    real = lab.quotient_ring

    def spy(ring, gens):
        count[0] += 1
        return real(ring, gens)

    monkeypatch.setattr(lab, "quotient_ring", spy)
    cfg = lab.CorpusConfig(ring_specs=("Zn:12", "Zn:30", "prod(Zn:4,Zn:9)"),
                           checks=("C2.7", "P2.13", "C2.15", "T3.1"))
    counts = []
    for _ in range(2):
        count[0] = 0
        lab.run_corpus(cfg)
        counts.append(count[0])
    assert counts[0] == counts[1] > 0


def _reference_battery(spec, cfg):
    """The battery's entry, by reducing and verifying every matrix it
    draws through the public diagonal_reduce and verify_certificate."""
    ring = make_ring(spec)
    names = build_cache(ring).names
    n = len(names)
    grids = []
    if n <= cfg.exhaustive_2x2_max:
        grids += [[[t % n, t // n % n], [t // n**2 % n, t // n**3 % n]]
                  for t in range(n**4)]
    rng = random.Random(f"{cfg.seed}:{spec}:matrices")
    drawn2 = [[[rng.randrange(n) for _ in range(2)] for _ in range(2)]
              for _ in range(cfg.sample_2x2)]
    drawn3 = [[[rng.randrange(n) for _ in range(3)] for _ in range(3)]
              for _ in range(cfg.sample_3x3)]
    def failures_of(group):
        out = []
        for grid in group:
            A = RingMatrix.from_strings(ring, [[names[x] for x in row]
                                               for row in grid])
            try:
                cert = diagonal_reduce(ring, A)
            except ReductionFailed as exc:
                out.append({"matrix": A.to_strings(), "reason": exc.reason})
                continue
            res = verify_certificate(ring, A, cert)
            if not res.verdict:
                out.append({"matrix": A.to_strings(),
                            "violation": res.counterexample})
        return out

    sampled_2x2_failures = failures_of(drawn2)
    entry = {"matrices": len(grids) + len(drawn2) + len(drawn3),
             "exhaustive_2x2": len(grids),
             "failures": (failures_of(grids) + sampled_2x2_failures
                          + failures_of(drawn3))}
    return entry, drawn2, sampled_2x2_failures


@pytest.mark.parametrize("spec", [f"table:{builtin_table_path()}", "Zn:6"])
def test_battery_reuse_matches_reducing_every_matrix(spec):
    """On an exhaustive ring, sampled 2x2 grids take the exhaustive pass's
    outcome: the same counts and the same failures, repeats included, as
    reducing each drawn matrix again."""
    ctx = _ctx(spec, sample_2x2=2000, sample_3x3=20)
    want, drawn2, sampled_failures = _reference_battery(spec, ctx.config)
    assert len({str(g) for g in drawn2}) < len(drawn2)  # some grids repeat
    assert lab._matrix_battery(ctx) == want
    assert want["exhaustive_2x2"] == ctx.cache.n ** 4
    # The non-Bezout ring reaches the failure path on sampled grids too.
    assert bool(sampled_failures) == spec.startswith("table:")
