"""Corpus runner: maps ring-theoretic claims to machine checks.

Every check is one entry of the ordered table ``_CHECKS``. A per-ring
check names its hypotheses, each a ``(reason, holds)`` pair such as
``_FINITE`` or ``_BEZOUT``; ``_run_check`` tests them in order on each
corpus ring and records the ring as vacuous, with the reason of the first
that fails, so a ring outside a theorem's hypotheses never passes
silently. A global check runs once, from the seed, on fixed structured
rings. An info check counts neither as a pass nor as a failure.

Every witness produced by the predicate engine is re-verified before it
enters the report, and counterexamples are re-verified too, so a failing
report is itself certified. A corpus spec that cannot be built fails every
requested per-ring check with an ``error`` row instead of passing as
vacuous.

A ring task does each piece of work once. Its context memoizes predicate
verdicts, the matrix battery, and the context of every quotient R/I a
check asks for, keyed by the ideal I, since R/I does not depend on the
generators that name I. These memos live on the task's ``_RingCtx`` and
die with it; nothing is cached across tasks or runs.

Reports are deterministic: a fixed seed drives all sampling, per-check
ring entries are sorted by ring spec, and the JSON serializer sorts keys.
Set the environment variable RINGLAB_WORKERS to fan per-ring work out to
that many processes; the merged report is identical either way. A value
that is not an integer of at least 1, a check id outside CHECK_ORDER, or
an empty check list raises ValueError before any work starts.
"""

from __future__ import annotations

import json
import os
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from . import adequacy, engine
from .cache import DEFAULT_SIZE_BOUND
from .concrete import (
    LocalizedIntegerRing,
    ProductRing,
    _generated_ideal,
    builtin_table_path,
    localized_residue_map,
    make_ring,
    quotient_ring,
)
from .errors import ReductionFailed, ReverifyFailed, RinglabError
from .reduction import (
    _box,
    _cache_ops,
    _comax_triangular_raw,
    _reduce_raw,
    _scalar_ops,
    _verify_raw,
    _violation,
)
from .rings import Ring, int_xgcd

DEFAULT_SEED = 1729
# The zero-adequacy verdict on an infinite ring: stated, not searched.
STRUCTURAL_NOTE = {"verdict": False, "status": "asserted_untested",
                   "note": "infinite ring, not machine-checkable"}


@dataclass(frozen=True)
class CorpusConfig:
    """Configuration of one corpus run; equal configs give identical reports."""

    ring_specs: tuple[str, ...]
    size_bound: int = DEFAULT_SIZE_BOUND
    seed: int = DEFAULT_SEED
    checks: tuple[str, ...] | None = None
    exhaustive_2x2_max: int = 8
    sampled_max_size: int = 60
    sample_2x2: int = 1000
    sample_3x3: int = 200
    large_sample_2x2: int = 100
    large_sample_3x3: int = 10

    def __post_init__(self):
        if self.checks is not None and not self.checks:
            raise ValueError("no check requested: name at least one check id, "
                             "or leave checks unset to run them all")
        unknown = [cid for cid in self.checks or () if cid not in _CHECKS]
        if unknown:
            raise ValueError("unknown check id(s): " + ", ".join(map(repr, unknown)))

    def to_json(self) -> dict:
        return {
            "ring_specs": list(self.ring_specs),
            "size_bound": self.size_bound,
            "seed": self.seed,
            "checks": list(self.checks) if self.checks else None,
            "exhaustive_2x2_max": self.exhaustive_2x2_max,
            "sampled_max_size": self.sampled_max_size,
            "sample_2x2": self.sample_2x2,
            "sample_3x3": self.sample_3x3,
            "large_sample_2x2": self.large_sample_2x2,
            "large_sample_3x3": self.large_sample_3x3,
        }


def default_corpus_specs() -> list[str]:
    """The standard corpus: Z/n for 2..60, four products, polynomial
    quotients, and the non-Bezout 8-element control ring."""
    specs = [f"Zn:{n}" for n in range(2, 61)]
    specs += ["prod(Zn:4,Zn:9)", "prod(Zn:2,Zn:2)", "prod(Zn:8,Zn:3)",
              "prod(Zn:6,Zn:6)"]
    specs += [f"polyq:{n}:x^2-1" for n in (2, 3, 4, 6, 8, 9)]
    specs += [f"polyq:{p}:x^{k}" for p in (2, 3, 5) for k in (2, 3)]
    specs += [f"table:{builtin_table_path()}"]
    return specs


def default_config(**overrides) -> CorpusConfig:
    return CorpusConfig(ring_specs=tuple(default_corpus_specs()), **overrides)


# ---------------------------------------------------------------------------
# per-ring context
# ---------------------------------------------------------------------------


class _RingCtx:
    """One corpus ring with memoized, re-verified predicate results.

    ``_quotients`` holds the context of each quotient R/I by a nonzero
    ideal that a check asks for, keyed by the cache's id of I, so every
    ideal is built and searched once however many generators name it. It
    lives as long as the context: a ring task's memo dies with the task.
    """

    def __init__(self, spec: str, ring: Ring, config: CorpusConfig):
        self.spec = spec
        self.config = config
        self.ring = ring
        self.finite = ring.cardinality is not None
        self.cache = (engine.build_cache(self.ring, config.size_bound)
                      if self.finite else None)
        self._preds: dict[str, engine.PropertyResult] = {}
        self._quotients: dict[int, _RingCtx] = {}
        self._matrix_entry = None
        self._exhaustive_2x2: list = []  # the battery's 2x2 outcomes, by code

    def pred(self, predicate: str) -> engine.PropertyResult:
        got = self._preds.get(predicate)
        if got is None:
            got = engine.ring_predicate(self.cache, predicate)
            if not engine.reverify(self.cache, got):
                raise ReverifyFailed(
                    f"{self.spec}: {predicate} payload failed re-verification")
            self._preds[predicate] = got
        return got

    def verdict(self, predicate: str) -> bool:
        return self.pred(predicate).verdict

    def is_bezout(self) -> bool:
        return self.verdict("bezout")

    def is_fza_ring(self) -> bool:
        """The ring-level notion: Bezout and 0 feckly adequate."""
        return self.is_bezout() and self.verdict("feckly_zero_adequate")

    @classmethod
    def from_ring(cls, ring: Ring, config: CorpusConfig) -> "_RingCtx":
        """Context of a ring built in the run, such as a quotient, named by
        its spec string."""
        return cls(ring.spec_string(), ring, config)


def _vacuous(spec: str, reason: str) -> dict:
    return {"ring": spec, "verdict": None, "vacuous": True, "reason": reason}


def _entry(spec: str, verdict: bool, exercised=None, detail=None,
           counterexample=None) -> dict:
    out = {"ring": spec, "verdict": verdict, "vacuous": False}
    if exercised:
        out["exercised"] = exercised
    if detail is not None:
        out["detail"] = detail
    if counterexample is not None:
        out["counterexample"] = counterexample
    return out


# ---------------------------------------------------------------------------
# hypotheses: (vacuous reason, holds(ctx)), tested in a check's order
# ---------------------------------------------------------------------------


def _nonradical_elements_fa(ctx: _RingCtx) -> bool:
    """Every element outside the Jacobson radical is feckly adequate."""
    fa = engine._adequate_flags(ctx.cache, "feckly")
    return all(fa[i] for i in range(ctx.cache.n) if i not in ctx.cache.jac)


_FINITE = ("infinite ring", lambda ctx: ctx.finite)
_BEZOUT = ("not Bezout", _RingCtx.is_bezout)
_FZA = ("not a feckly zero-adequate ring", _RingCtx.is_fza_ring)
_PRODUCT = ("not a product ring", lambda ctx: isinstance(ctx.ring, ProductRing))
# A finite domain is a field: 1 != 0, and multiplying by a nonzero element
# that is not a zero divisor permutes the ring, so it is a unit.
_DOMAIN = ("not a finite Bezout domain",
           lambda ctx: ctx.finite and ctx.is_bezout() and ctx.cache.one != ctx.cache.zero
           and len(ctx.cache.units) == ctx.cache.n - 1)
_SMALL = ("beyond the exhaustive size bound",
          lambda ctx: ctx.cache.n <= ctx.config.exhaustive_2x2_max)
_FAR1 = ("no feckly adequate range 1",
         lambda ctx: ctx.is_bezout() and ctx.verdict("feckly_adequate_range_1"))
_NONRADICAL_FA = ("some element outside the radical is not feckly adequate",
                  _nonradical_elements_fa)


# ---------------------------------------------------------------------------
# seeded sampling, and the matrix battery of the reduction checks
# ---------------------------------------------------------------------------


def _draw_below(rng: random.Random, n: int):
    """A function drawing from [0, n) what ``rng.randrange(n)`` would.

    It draws ``n.bit_length()`` random bits and draws again while the
    value is at least n. That is CPython's own ``randrange`` algorithm
    for a Random instance (``_randbelow_with_getrandbits``), so the stream
    of values is the same, without the argument checks ``randrange`` and
    ``randint`` make on every call.
    """
    getrandbits, k = rng.getrandbits, n.bit_length()

    def draw():
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return draw


def _matrix_battery(ctx: _RingCtx) -> dict:
    """Reduce and verify a seeded battery of matrices over one finite ring.

    Matrices stay cache-index grids; only a failing one is formatted. The
    entries are drawn with ``_draw_below``, which runs CPython's own
    ``randrange`` algorithm on ``getrandbits``: the seeded stream is the
    one ``rng.randrange(n)`` gives, at a fraction of its cost per draw.

    On a ring small enough for the exhaustive pass, that pass records the
    outcome of every 2x2 grid [[a, b], [c, d]] under its code
    a + n·(b + n·(c + n·d)), and a sampled 2x2 grid reuses the outcome of
    its code instead of being reduced again. It still counts as a matrix,
    and a failing one adds its failure again. T3.8 reads the outcomes
    (None, or the failure entry) from ``ctx._exhaustive_2x2``.
    """
    if ctx._matrix_entry is not None:
        return ctx._matrix_entry
    cfg = ctx.config
    ops = _cache_ops(ctx.cache)  # the run's size bound, not the default
    n = ctx.cache.n

    def failure(rows):
        """None if the grid reduces and verifies, else its failure entry."""
        try:
            bad = _verify_raw(ops, rows, *_reduce_raw(ops, rows))
        except ReductionFailed as exc:
            return {"matrix": _box(ops, rows).to_strings(), "reason": exc.reason}
        if bad is None:
            return None
        return {"matrix": _box(ops, rows).to_strings(),
                "violation": _violation(*bad)}

    exhaustive = []  # the outcome of every 2x2 grid, by code
    if n <= cfg.exhaustive_2x2_max:
        exhaustive = [failure([[t % n, (t // n) % n],
                               [(t // n**2) % n, (t // n**3) % n]])
                      for t in range(n**4)]
    if n <= cfg.sampled_max_size:
        count2, count3 = cfg.sample_2x2, cfg.sample_3x3
    else:
        count2, count3 = cfg.large_sample_2x2, cfg.large_sample_3x3
    draw = _draw_below(random.Random(f"{cfg.seed}:{ctx.spec}:matrices"), n)
    outcomes = list(exhaustive)
    for _ in range(count2):
        a, b, c, d = draw(), draw(), draw(), draw()
        outcomes.append(exhaustive[a + n * (b + n * (c + n * d))] if exhaustive
                        else failure([[a, b], [c, d]]))
    for _ in range(count3):
        outcomes.append(failure([[draw() for _ in range(3)] for _ in range(3)]))
    ctx._exhaustive_2x2 = exhaustive
    ctx._matrix_entry = {
        "matrices": len(outcomes),
        "exhaustive_2x2": len(exhaustive),
        "failures": [f for f in outcomes if f is not None],
    }
    return ctx._matrix_entry


# ---------------------------------------------------------------------------
# per-ring checks
# ---------------------------------------------------------------------------


def _agree(ctx: _RingCtx, detail: dict, exercised=None) -> dict:
    """A row that passes when every verdict in ``detail`` is the same."""
    return _entry(ctx.spec, len(set(detail.values())) == 1,
                  exercised=exercised, detail=detail)


def _same_verdicts(*predicates: str, elements: bool = False):
    """A check that the ring predicates all reach one verdict; with
    ``elements`` its rows also give the ring size as exercised."""
    return lambda ctx: _agree(ctx, {p: ctx.verdict(p) for p in predicates},
                              {"elements": ctx.cache.n} if elements else None)


def _holds(predicate: str):
    """A check that one ring predicate holds."""
    return lambda ctx: _entry(ctx.spec, ctx.verdict(predicate),
                              exercised={"elements": ctx.cache.n})


def _check_l24(ctx: _RingCtx) -> dict:
    res = engine.j_characterization_check(ctx.cache)
    return _entry(ctx.spec, res.verdict, exercised=res.exercised,
                  counterexample=res.counterexample)


def _check_c26(ctx: _RingCtx) -> dict:
    battery = _matrix_battery(ctx)
    return _entry(ctx.spec, not battery["failures"],
                  exercised={"matrices": battery["matrices"],
                             "exhaustive_2x2": battery["exhaustive_2x2"]},
                  counterexample=battery["failures"][:3] or None)


def _quotient_ctx(ctx: _RingCtx, gens: list[int]) -> _RingCtx:
    """Context of R/I, for the ideal I the generator indices produce.

    ``quotient_ring`` names each coset by its least representative, so
    R/I's tables depend on I alone, not on its generators; only the spec
    label differs, and no label enters the report. So the first request
    for I builds the context and every later one reuses it.
    R/0 is R: its singleton cosets keep their indices, so its tables are
    R's. It gets ``ctx`` itself, kept out of the memo (a reference cycle).
    """
    cache = ctx.cache
    ident = _generated_ideal(cache, gens)
    if ident == cache.ideal_class[cache.zero]:
        return ctx
    sub = ctx._quotients.get(ident)
    if sub is None:
        q = quotient_ring(ctx.ring, [cache.element(g) for g in gens])[0]
        sub = ctx._quotients[ident] = _RingCtx.from_ring(q, ctx.config)
    return sub


def _radical_quotient_ctx(ctx: _RingCtx) -> _RingCtx:
    return _quotient_ctx(ctx, sorted(ctx.cache.jac))


def _check_c27(ctx: _RingCtx) -> dict:
    lhs = ctx.is_fza_ring()
    rq = _radical_quotient_ctx(ctx)
    rhs = ctx.is_bezout() and rq.is_bezout() and rq.verdict("zero_adequate")
    return _agree(ctx, {"fza_ring": lhs, "radical_quotient_zero_adequate": rhs},
                  {"quotient_size": rq.cache.n})


def _check_c28(ctx: _RingCtx) -> dict:
    return _agree(ctx, {
        "zero_adequate": ctx.verdict("zero_adequate"),
        "fza_and_lifts": (ctx.verdict("feckly_zero_adequate")
                          and ctx.verdict("idempotents_lift_mod_J")),
    })


def _check_p213(ctx: _RingCtx) -> dict:
    cache = ctx.cache
    bad = None
    for gen, *_ in cache.class_gens:
        sub = _quotient_ctx(ctx, [gen])
        if not sub.verdict("feckly_zero_adequate"):
            bad = {"generator": cache.names[gen], "quotient_size": sub.cache.n}
            break
    return _entry(ctx.spec, bad is None,
                  exercised={"principal_ideals": len(cache.class_gens)},
                  counterexample=bad)


def _check_c214(ctx: _RingCtx) -> dict:
    lhs = ctx.is_fza_ring()
    factors = [_RingCtx.from_ring(f, ctx.config).is_fza_ring()
               for f in ctx.ring.factors]
    return _entry(ctx.spec, lhs == all(factors),
                  detail={"product": lhs, "factors": factors})


def _check_c215(ctx: _RingCtx) -> dict:
    rq = _radical_quotient_ctx(ctx)
    return _agree(ctx, {"ring": ctx.verdict("feckly_zero_adequate"),
                        "radical_quotient": rq.verdict("feckly_zero_adequate")},
                  {"quotient_size": rq.cache.n})


def _check_t31(ctx: _RingCtx) -> dict:
    cache = ctx.cache
    fa = engine._adequate_flags(cache, "feckly")
    # Flags are per ideal class, and class ids number the classes by least
    # generator: one generator per feckly adequate class, in id order.
    gens = [g for g, *_ in cache.class_gens if fa[g]]
    bad = None
    per_ideal = {}
    for gen in gens:
        sub = _quotient_ctx(ctx, [gen])
        ok = sub.verdict("feckly_zero_adequate")
        per_ideal[cache.names[gen]] = ok
        if not ok and bad is None:
            bad = {"element": cache.names[gen], "quotient_size": sub.cache.n}
    return _entry(ctx.spec, bad is None,
                  exercised={"elements": cache.n, "feckly_adequate": sum(fa),
                             "ideals_tested": len(gens)},
                  detail={"quotients_by_generator": per_ideal},
                  counterexample=bad)


def _check_c32_info(ctx: _RingCtx) -> dict:
    cache = ctx.cache
    bad = None
    classic, feckly = (engine._adequate_flags(cache, v) for v in ("classic", "feckly"))
    for a in range(cache.n):
        lhs, fa = classic[a], feckly[a]
        sub = _quotient_ctx(ctx, [a])
        lifts = sub.verdict("idempotents_lift_mod_J")
        if lhs != (fa and lifts):
            bad = {"a": cache.names[a]}
            break
    return _entry(ctx.spec, bad is None, exercised={"elements": cache.n},
                  counterexample=bad)


def _check_p33_info(ctx: _RingCtx) -> dict:
    c = ctx.cache
    return _agree(ctx, {
        "zero_adequate": ctx.verdict("zero_adequate"),
        "everywhere_adequate": ctx.verdict("everywhere_adequate"),
        # Local: every non-unit lies in J. A unit lies in J only if 1 = 0,
        # so that is: the units and J together have n elements.
        "local": len(c.units) + len(c.jac) == c.n,
    })


def _step_one_row_reduction(ctx: _RingCtx, a: int, b: int, c: int):
    """Trace the stable-range-2 substitution on one comaximal triple.

    Produces the pair (B, A2) = (b + c*z*(1-k*x)*h, a + c*z*k*(1-(1-k*x)*h*y))
    following the construction verbatim, and reports whether it is
    comaximal. Returns None when no k (feckly adequate shift) exists.
    """
    cache = ctx.cache
    n, mul, add = cache.n, cache.mul, cache.add

    def m(u, v):
        return mul[u * n + v]

    def s(u, v):
        return add[u * n + v]

    wit = cache.triple_comax_witness(a, b, c)
    if wit is None:
        return None
    x, y, z = wit
    byz = s(m(b, y), m(c, z))
    fa = engine._adequate_flags(cache, "feckly")
    for k in range(n):
        if fa[s(a, m(byz, k))]:
            break
    else:
        return None
    w = s(a, m(byz, k))
    one_kx = cache.sub(cache.one, m(k, x))
    for h in range(n):
        big_b = s(b, m(m(m(c, z), one_kx), h))
        if cache.comax[big_b][w]:
            break
    else:
        return None
    inner = cache.sub(cache.one, m(m(one_kx, h), y))
    big_a = s(a, m(m(m(c, z), k), inner))
    return big_b, big_a, cache.comax[big_b][big_a]


def _check_t38(ctx: _RingCtx) -> dict:
    """Step 1 on every comaximal triple (a, b, c); step 2 reads whether
    [[a, 0], [b, c]] reduced and verified in the battery's exhaustive
    pass, which covers every 2x2 grid of a ring that meets _SMALL."""
    cache = ctx.cache
    n = cache.n
    _matrix_battery(ctx)
    outcomes = ctx._exhaustive_2x2
    triples = step1_fail = step2_fail = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if not cache.triple_comax(a, b, c):
                    continue
                triples += 1
                got = _step_one_row_reduction(ctx, a, b, c)
                if got is None or not got[2]:
                    step1_fail += 1
                if outcomes[a + n * (cache.zero + n * (b + n * c))] is not None:
                    step2_fail += 1
    ok = step1_fail == 0 and step2_fail == 0
    return _entry(ctx.spec, ok,
                  exercised={"comaximal_triples": triples},
                  detail={"step1_failures": step1_fail,
                          "step2_failures": step2_fail})


def _check_c39(ctx: _RingCtx) -> dict:
    battery = _matrix_battery(ctx)
    return _entry(ctx.spec, not battery["failures"],
                  exercised={"matrices": battery["matrices"],
                             "nonradical_elements": ctx.cache.n - len(ctx.cache.jac)})


# ---------------------------------------------------------------------------
# global checks
# ---------------------------------------------------------------------------


def check_example_2_11(seed: int = DEFAULT_SEED, samples: int = 1200) -> dict:
    """Structural verification of the localized ring at {3, 5}.

    (i) the residue map is a homomorphism on samples and surjective onto
    all 15 targets (by CRT preimages); (ii) kernel membership coincides
    with 15 dividing the numerator; (iii) the residue image Z/3 x Z/5 is
    regular (engine verdict); (iv) non-zero-adequacy of the infinite ring
    is recorded as asserted, not machine-checked. Additionally the
    constructed adequacy witnesses for c = 15 are re-verified on samples,
    which is the feckly-zero-adequate route (15 lies in the radical).
    """
    ring = make_ring("zloc:{3,5}")
    assert isinstance(ring, LocalizedIntegerRing)
    target, mapping = localized_residue_map(ring)
    rng = random.Random(f"{seed}:e211")

    def sample_element():
        num = rng.randint(-400, 400)
        while True:
            den = rng.randint(1, 60)
            if den % 3 and den % 5:
                break
        return ring.make(Fraction(num, den))

    elems = [sample_element() for _ in range(samples)]
    elems += [ring.parse_element(s) for s in ("1", "1/2", "7/4", "22/7", "15/2")]
    hom_ok = all(
        mapping(ring.add(a, b)) == target.add(mapping(a), mapping(b))
        and mapping(ring.mul(a, b)) == target.mul(mapping(a), mapping(b))
        for a, b in zip(elems[::2], elems[1::2])
    )
    surj_ok = True
    for r3 in range(3):
        for r5 in range(5):
            g, u, v = int_xgcd(5, 3)
            m = (r3 * 5 * u + r5 * 3 * v)
            img = mapping(ring.make(Fraction(m)))
            if img.value != (r3, r5):
                surj_ok = False
    kernel_ok = all(
        (mapping(e) == target.zero) == (ring._member(e).numerator % 15 == 0)
        for e in elems
    )
    image_cache = engine.build_cache(target)
    image_regular = engine.ring_predicate(image_cache, "regular").verdict
    witness_ok = True
    fifteen = ring.make(Fraction(15))
    for e in elems[:200]:
        r, s = adequacy.adequate_witness_zloc(ring, fifteen, e)
        if not adequacy.zloc_witness_clauses_hold(ring, fifteen, e, r, s):
            witness_ok = False
    verdict = hom_ok and surj_ok and kernel_ok and image_regular and witness_ok
    return {
        "ring": ring.spec_string(),
        "verdict": verdict,
        "vacuous": False,
        "detail": {
            "homomorphism_on_samples": hom_ok,
            "surjective_onto_15_targets": surj_ok,
            "kernel_is_15_divisibility": kernel_ok,
            "residue_image_regular": image_regular,
            "radical_witnesses_verified": witness_ok,
            "zero_adequate": dict(STRUCTURAL_NOTE),
        },
        "exercised": {"samples": len(elems)},
    }


def _kernel_identity_holds(ops, a, b, c, r) -> bool:
    """The kernel certificate of [[a, b], [0, c]] has D = diag(1, -a*c) and verifies."""
    raw = _comax_triangular_raw(ops, a, b, c, r)
    want = [[ops.one, ops.zero], [ops.zero, ops.neg(ops.mul(a, c))]]
    return (raw[2] == want
            and _verify_raw(ops, [[a, b], [ops.zero, c]], *raw) is None)


def _check_l37_global(seed: int) -> list[dict]:
    """The 2x2 kernel identity: assembled product equals diag(1, -a*c)."""
    out = []
    ops = _scalar_ops(make_ring("Zn:6"))
    cache = ops.c
    n = cache.n
    tuples = failures = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for r in range(n):
                    w = cache.add[b * n + cache.mul[a * n + r]]
                    if not cache.comax[w][c]:
                        continue
                    tuples += 1
                    if not _kernel_identity_holds(ops, a, b, c, r):
                        failures += 1
    out.append(_entry("Zn:6", failures == 0,
                      exercised={"valid_tuples": tuples}))
    ops = _scalar_ops(make_ring("Z"))
    draw = _draw_below(random.Random(f"{seed}:l37"), 201)  # randint(-100, 100) + 100
    z_tuples = z_failures = 0
    from math import gcd
    while z_tuples < 10_000:
        a, b, c, r = draw() - 100, draw() - 100, draw() - 100, draw() - 100
        if gcd(b + a * r, c) != 1:
            continue
        z_tuples += 1
        if not _kernel_identity_holds(ops, a, b, c, r):
            z_failures += 1
    out.append(_entry("Z", z_failures == 0,
                      exercised={"valid_tuples": z_tuples}))
    return out


def _check_e310_global(seed: int, count: int = 500) -> list[dict]:
    """Seeded dual-integer adequacy witnesses: product and comaximality."""
    failures = adequacy.dualint_witness_failures(
        make_ring("dualint"), f"{seed}:e310", count, int_max=500, frac_max=20)
    return [_entry("dualint", failures == 0, exercised={"samples": count})]


def _check_zalpha_global() -> list[dict]:
    rep = adequacy.zalpha_case_study()
    ok = (not rep["divides_in_ring"]
          and rep["quotients"]["(1-x)"]["s_prime_image"] == 2
          and rep["quotients"]["(1-x)"]["s_image"] == 4
          and rep["quotients"]["(1-x)"]["divides"]
          and rep["quotients"]["(1+x)"]["s_prime_image"] == 8
          and rep["quotients"]["(1+x)"]["s_image"] == 2
          and not rep["quotients"]["(1+x)"]["divides"]
          and rep["sign_discrepancy"])
    return [_entry(rep["ring"], ok, detail=rep)]


# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Check:
    """One entry of the check table.

    A per-ring check's ``run`` maps a ``_RingCtx`` that meets every
    hypothesis in ``needs`` to the ring's row. A global check's ``run``
    maps the run's seed to the rows of its fixed rings. An ``info`` check
    counts neither as a pass nor as a failure.
    """

    run: Callable
    needs: tuple[tuple[str, Callable[[_RingCtx], bool]], ...] = ()
    per_ring: bool = True
    info: bool = False


_CHECKS = {
    "T2.5": _Check(_same_verdicts("feckly_zero_adequate", "regular_mod_J",
                                  "pi_regular_mod_J", elements=True),
                   (_FINITE, _BEZOUT)),
    "L2.3": _Check(_holds("feckly_clean"), (_FINITE, _FZA)),
    "L2.4": _Check(_check_l24, (_FINITE, _FZA)),
    "C2.6": _Check(_check_c26, (_FINITE, _FZA)),
    "C2.7": _Check(_check_c27, (_FINITE,)),
    "C2.8": _Check(_check_c28, (_FINITE, _BEZOUT)),
    "C2.9": _Check(_same_verdicts("zero_adequate", "semiregular"),
                   (_FINITE, _BEZOUT)),
    "E2.10": _Check(_holds("feckly_zero_adequate"), (_FINITE, _BEZOUT)),
    "E2.11": _Check(lambda seed: [check_example_2_11(seed)], per_ring=False),
    "P2.13": _Check(_check_p213, (_FINITE, _FZA)),
    "C2.14": _Check(_check_c214, (_PRODUCT,)),
    "C2.15": _Check(_check_c215, (_FINITE, _BEZOUT)),
    "T2.16": _Check(_same_verdicts("feckly_zero_adequate", "t216_cond2",
                                   "t216_cond3"), (_FINITE, _BEZOUT)),
    "C2.17": _Check(_same_verdicts("zero_adequate", "c217_cond2", "c217_cond3"),
                    (_FINITE, _BEZOUT)),
    "T3.1": _Check(_check_t31, (_FINITE, _BEZOUT)),
    "C3.2-info": _Check(_check_c32_info, (_DOMAIN,), info=True),
    "P3.3-info": _Check(_check_p33_info, (_DOMAIN,), info=True),
    "L3.7": _Check(_check_l37_global, per_ring=False),
    "T3.8": _Check(_check_t38, (_FINITE, _SMALL, _FAR1)),
    "C3.9": _Check(_check_c39, (_FINITE, _BEZOUT, _NONRADICAL_FA)),
    "E3.10": _Check(_check_e310_global, per_ring=False),
    "ZALPHA": _Check(lambda seed: _check_zalpha_global(), per_ring=False),
}

CHECK_ORDER = tuple(_CHECKS)
GLOBAL_CHECKS = frozenset(cid for cid, check in _CHECKS.items()
                          if not check.per_ring)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


def _error_row(spec: str, exc: RinglabError) -> dict:
    """A failing row: the ring could not be built, or a check raised."""
    return {"ring": spec, "verdict": False, "vacuous": False, "error": str(exc)}


def _run_check(check: _Check, ctx: _RingCtx) -> dict:
    """The ring's row: vacuous, with the reason of the first hypothesis of
    the check that fails, or else the check's own."""
    for reason, holds in check.needs:
        if not holds(ctx):
            return _vacuous(ctx.spec, reason)
    return check.run(ctx)


def _ring_task(args) -> tuple[str, dict]:
    """Every requested per-ring check on one spec.

    A spec that fails to build (a parse error, an unsupported ring, a ring
    past the size bound) fails every requested check with an ``error``
    row, so it can never pass as vacuous.
    """
    spec, config = args
    wanted = [cid for cid, check in _CHECKS.items() if check.per_ring
              and (config.checks is None or cid in config.checks)]
    try:
        ctx = _RingCtx(spec, make_ring(spec), config)
    except RinglabError as exc:
        return spec, {cid: _error_row(spec, exc) for cid in wanted}
    out = {}
    for cid in wanted:
        try:
            out[cid] = _run_check(_CHECKS[cid], ctx)
        except RinglabError as exc:
            out[cid] = _error_row(spec, exc)
    return spec, out


def worker_count() -> int:
    """Process count from RINGLAB_WORKERS: unset or empty means 1.

    Raises ValueError, naming the variable, for a value that is not an
    integer of at least 1.
    """
    text = os.environ.get("RINGLAB_WORKERS", "")
    if not text:
        return 1
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(
            f"RINGLAB_WORKERS must be an integer >= 1, got {text!r}")
    return workers


def run_corpus(config: CorpusConfig) -> dict:
    """Run every requested check over the corpus and assemble the report."""
    wanted = config.checks
    specs = list(config.ring_specs)
    workers = worker_count()
    tasks = [(spec, config) for spec in specs]
    if workers > 1 and len(specs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_ring = dict(pool.map(_ring_task, tasks))
    else:
        per_ring = dict(map(_ring_task, tasks))

    results = []
    for cid, check in _CHECKS.items():
        if wanted is not None and cid not in wanted:
            continue
        if check.per_ring:
            rows = [per_ring[spec][cid] for spec in specs]
        else:
            rows = check.run(config.seed)
        rows.sort(key=lambda r: r["ring"])
        exercised = sum(1 for r in rows if not r.get("vacuous"))
        aggregate = all(r["verdict"] for r in rows if r.get("verdict") is not None)
        results.append({
            "id": cid,
            "info": check.info,
            "aggregate": aggregate,
            "rings_exercised": exercised,
            "rings": rows,
        })
    summary = {
        "pass": sum(1 for r in results if not r["info"] and r["aggregate"]),
        "fail": sum(1 for r in results if not r["info"] and not r["aggregate"]),
        "info": sum(1 for r in results if r["info"]),
    }
    return {"config": config.to_json(), "results": results, "summary": summary}


def report_to_json(report: dict) -> str:
    """The JSON text of a report, and of everything the CLI writes."""
    return json.dumps(report, sort_keys=True, indent=1)
