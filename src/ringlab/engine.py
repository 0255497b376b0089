"""Exhaustive predicate engine for finite rings.

Every element- and ring-level predicate is decided by brute-force search
over the ``EngineCache`` index tables, and every positive verdict carries a
witness payload that re-verifies by plain ring arithmetic. Negative
verdicts carry a counterexample plus the size of the completed search.
Witness selection is deterministic: the first candidate in enumeration
order wins, so repeated runs produce identical reports.

The adequacy predicates come in three variants. ``classic`` demands an
exact factorization c = r*s; ``feckly`` only demands c - r*s to fall in
the Jacobson radical. Both test clause (3) against the running target a.
``cvariant`` is the classic reading with clause (3) tested against c
itself; it is kept separate because the two readings genuinely differ and
callers must choose explicitly.

Repeated work is done once per cache. The adequacy search is memoized per
(variant, c, ideal class of the target): the target enters the search only
through its comaximality row ``comax[target]`` (clause (2), and clause (3)
for the classic and feckly variants), and that row is a function of the
principal ideal aR, so every target of one class has the same first
(r, s) in enumeration order. Clause (3) itself is memoized per (ideal
class of s, ideal class of its target): ``nonunit_divisors[s]`` lists the
non-units t with s in tR, which depends only on sR. Both memos therefore
return exactly what the unmemoized search would. Element strings are
formatted once (``EngineCache.names``) and parsed once per cache: the
text -> index memo ``_ParseMemo`` lives in ``cache.py`` as
``EngineCache.parsed``, and ``_parse_memo`` returns it.

``reverify`` checks the whole domain of a positive verdict, not only the
entries it is given: every element (or every quasi-idempotent), every
comaximal pair, all n^2 pairs for ``hermite`` and every pair of ideal
classes for ``bezout``. Malformed payloads are rejected, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .cache import DEFAULT_SIZE_BOUND, EngineCache, _ParseMemo
from .errors import AxiomViolation, NoDecomposition, NotBezout, NotFZA, ParseError
from .rings import Element, Ring

ELEMENT_PREDICATES = (
    "regular",
    "pi_regular",
    "clean",
    "feckly_clean",
    "adequate",
    "feckly_adequate",
    "adequate_cvariant",
)

RING_PREDICATES = (
    "bezout",
    "hermite",
    "regular",
    "regular_mod_J",
    "pi_regular_mod_J",
    "clean",
    "feckly_clean",
    "semiregular",
    "zero_adequate",
    "feckly_zero_adequate",
    "stable_range_1",
    "idempotents_lift_mod_J",
    "t216_cond2",
    "t216_cond3",
    "c217_cond2",
    "c217_cond3",
    "feckly_adequate_range_1",
    "everywhere_adequate",
)

_VARIANTS = {"classic", "feckly", "cvariant"}

# Adequacy predicate -> the variant of the single-target search it runs.
_ADEQUACY_VARIANT = {
    "adequate": "classic",
    "feckly_adequate": "feckly",
    "adequate_cvariant": "cvariant",
    "zero_adequate": "classic",
    "feckly_zero_adequate": "feckly",
    "everywhere_adequate": "classic",
}


@dataclass
class PropertyResult:
    """Verdict plus re-verifiable payload for one predicate on one ring."""

    predicate: str
    verdict: bool
    witness: Any = None
    counterexample: Any = None
    exercised: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out: dict[str, Any] = {"verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.exercised:
            out["exercised"] = self.exercised
        return out


@dataclass(frozen=True)
class AdequateWitness:
    """One (r, s) witness for adequacy of c against a single target.

    ``j`` is c - r*s (an element of the radical; zero for the classic
    variant), and (comax_x, comax_y) certify r*comax_x + target*comax_y = 1.
    """

    target: Element
    r: Element
    s: Element
    variant: str
    j: Element
    comax_x: Element
    comax_y: Element

    def payload(self, ring: Ring) -> dict:
        fmt = ring.format_element
        return {
            "r": fmt(self.r),
            "s": fmt(self.s),
            "j": fmt(self.j),
            "x": fmt(self.comax_x),
            "y": fmt(self.comax_y),
        }


@dataclass(frozen=True)
class PiRegularWitness:
    """Decomposition a^n = e*u + w with e - e^2 and w in the radical."""

    n: int
    b: Element
    e: Element
    u: Element
    w: Element


def build_cache(ring: Ring, bound: int = DEFAULT_SIZE_BOUND) -> EngineCache:
    """Build (or fetch) the index cache and verify its structural claims.

    Checks that the radical is an ideal and that the units are closed under
    multiplication before handing the cache to callers.
    """
    if hasattr(ring, "cache"):
        cache = ring.cache(bound)
    else:
        cache = EngineCache(ring, bound)
    if not cache._ext.get("structure_verified"):
        n, add, mul = cache.n, cache.add, cache.mul
        jac, units = cache.jac, cache.unit_set
        for x in jac:
            row = x * n
            if not all(add[row + y] in jac for y in jac):
                raise AxiomViolation(
                    f"{ring.spec_string()}: radical not closed under addition")
            if not all(v in jac for v in mul[row:row + n]):
                raise AxiomViolation(f"{ring.spec_string()}: radical not an ideal")
        for u in units:
            row = u * n
            if not all(mul[row + v] in units for v in units):
                raise AxiomViolation(
                    f"{ring.spec_string()}: units not closed under product")
        cache._ext["structure_verified"] = True
    return cache


# ---------------------------------------------------------------------------
# index-level searches
# ---------------------------------------------------------------------------


def _regular_idx(c: EngineCache, a: int, mod_j: bool) -> int | None:
    n, mul = c.n, c.mul
    jac = c.jac
    for b in range(n):
        aba = mul[mul[a * n + b] * n + a]
        if (c.sub(a, aba) in jac) if mod_j else (aba == a):
            return b
    return None


def _pi_regular_idx(c: EngineCache, a: int, mod_j: bool) -> tuple[int, int] | None:
    n, mul = c.n, c.mul
    jac = c.jac
    power = a
    seen = set()
    exp = 1
    while exp <= n and power not in seen:
        seen.add(power)
        row = power * n
        for b in range(n):
            pbp = mul[mul[row + b] * n + power]
            if (c.sub(power, pbp) in jac) if mod_j else (pbp == power):
                return exp, b
        power = mul[row + a]
        exp += 1
    return None


def _clean_idx(c: EngineCache, a: int, feckly: bool) -> int | None:
    pool = c.quasi_idempotents if feckly else c.idempotents
    units = c.unit_set
    for e in sorted(pool):
        if c.sub(a, e) in units:
            return e
    return None


def _anchored(c: EngineCache, s: int, target: int) -> bool:
    """Clause (3): every non-unit divisor of s is non-comaximal with target.

    Memoized per (ideal class of s, ideal class of target); see the module
    docstring for why that is exact.
    """
    memo = c._ext.setdefault("anchored", {})
    cls = c.ideal_class
    key = (cls[s], cls[target])
    got = memo.get(key)
    if got is None:
        comax_t = c.comax[target]
        got = all(not comax_t[sp] for sp in c.nonunit_divisors[s])
        memo[key] = got
    return got


def _adequate_pair_idx(c: EngineCache, cval: int, target: int,
                       variant: str) -> tuple[int, int] | None:
    """First (r, s) in enumeration order witnessing adequacy of cval.

    Memoized per (variant, cval, ideal class of target); see the module
    docstring for why that is exact.
    """
    memo = c._ext.setdefault("adequate_pair", {})
    key = (variant, cval, c.ideal_class[target])
    if key not in memo:
        memo[key] = _first_adequate_pair(c, cval, target, variant)
    return memo[key]


def _first_adequate_pair(c: EngineCache, cval: int, target: int,
                         variant: str) -> tuple[int, int] | None:
    n, mul = c.n, c.mul
    # r*s is acceptable iff it equals cval (classic, cvariant) or
    # cval - r*s = j lies in the radical (feckly), i.e. r*s = cval - j.
    if variant == "feckly":
        hits = {c.sub(cval, j) for j in c.jac}
    else:
        hits = {cval}
    clause3_target = cval if variant == "cvariant" else target
    comax_target = c.comax[target]
    for r in range(n):
        if not comax_target[r]:
            continue
        row = r * n
        for s in range(n):
            if mul[row + s] in hits and _anchored(c, s, clause3_target):
                return r, s
    return None


def _fa_element_idx(c: EngineCache, cval: int, variant: str) -> tuple[bool, Any]:
    """Adequacy of cval against every target; memoized per (variant, cval).

    Returns (True, {target: (r, s)}) or (False, failing_target).
    """
    memo = c._ext.setdefault("adequate_elem", {})
    key = (variant, cval)
    got = memo.get(key)
    if got is None:
        table = {}
        got = (True, table)
        for target in range(c.n):
            pair = _adequate_pair_idx(c, cval, target, variant)
            if pair is None:
                got = (False, target)
                break
            table[target] = pair
        memo[key] = got
    return got


def _meet_in_radical(c: EngineCache, a: int, e: int) -> bool:
    """aR intersect eR contained in the radical (memoized per ideal pair)."""
    memo = c._ext.setdefault("meet_radical", {})
    key = (c.ideal_class[a], c.ideal_class[e])
    got = memo.get(key)
    if got is None:
        got = (c.pid[a] & c.pid[e]) <= c.jac
        memo[key] = got
    return got


def _comax_pairs(c: EngineCache):
    comax = c.comax
    for a in range(c.n):
        row = comax[a]
        for b in range(c.n):
            if row[b]:
                yield a, b


# ---------------------------------------------------------------------------
# public element predicates
# ---------------------------------------------------------------------------


def element_predicate(cache: EngineCache, a: Element, predicate: str) -> PropertyResult:
    """Decide one element-level predicate, attaching a re-verifiable payload.

    A positive witness names its element (``"element"``), so ``reverify``
    can tell it from the ring-level result of the same predicate name.
    """
    if predicate not in ELEMENT_PREDICATES:
        raise ValueError(f"unknown element predicate {predicate!r}")
    c = cache
    ring = c.ring
    fmt = ring.format_element
    i = c.index_of(a)

    if predicate == "regular":
        b = _regular_idx(c, i, mod_j=False)
        if b is None:
            return PropertyResult(predicate, False,
                                  counterexample={"a": fmt(a)},
                                  exercised={"candidates": c.n})
        return PropertyResult(predicate, True,
                              witness={"element": fmt(a), "b": c.names[b]},
                              exercised={"candidates": b + 1})

    if predicate == "pi_regular":
        res = _pi_regular_idx(c, i, mod_j=False)
        if res is None:
            return PropertyResult(predicate, False,
                                  counterexample={"a": fmt(a)},
                                  exercised={"exponent_bound": c.n})
        n_exp, b = res
        return PropertyResult(predicate, True,
                              witness={"element": fmt(a), "n": n_exp,
                                       "b": c.names[b]})

    if predicate in ("clean", "feckly_clean"):
        e = _clean_idx(c, i, feckly=predicate == "feckly_clean")
        if e is None:
            return PropertyResult(predicate, False, counterexample={"a": fmt(a)})
        return PropertyResult(predicate, True,
                              witness={"element": fmt(a), "e": c.names[e]})

    variant = _ADEQUACY_VARIANT[predicate]
    ok, data = _fa_element_idx(c, i, variant)
    if not ok:
        return PropertyResult(
            predicate, False,
            counterexample={"element": fmt(a),
                            "target": c.names[data],
                            "pairs_searched": c.n * c.n},
            exercised={"targets": data + 1})
    witness = {
        c.names[t]: _pair_payload(c, i, t, rs, variant)
        for t, rs in data.items()
    }
    return PropertyResult(predicate, True,
                          witness={"element": fmt(a), "targets": witness},
                          exercised={"targets": c.n})


def _pair_payload(c: EngineCache, cval: int, target: int,
                  rs: tuple[int, int], variant: str) -> dict:
    r, s = rs
    j = c.sub(cval, c.mul[r * c.n + s])
    wit = c.comax_witness(r, target)
    x, y = wit if wit is not None else (None, None)
    out = {"r": c.names[r], "s": c.names[s], "j": c.names[j]}
    if x is not None:
        out["x"] = c.names[x]
        out["y"] = c.names[y]
    return out


def adequate_witness_single(cache: EngineCache, cval: Element, target: Element,
                            variant: str = "classic") -> AdequateWitness | None:
    """Single-target adequacy witness, or None after an exhaustive search."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown adequacy variant {variant!r}")
    c = cache
    ic, it = c.index_of(cval), c.index_of(target)
    pair = _adequate_pair_idx(c, ic, it, variant)
    if pair is None:
        return None
    r, s = pair
    j = c.sub(ic, c.mul[r * c.n + s])
    wit = c.comax_witness(r, it)
    x, y = wit if wit is not None else (c.zero, c.zero)
    mk = c.element
    return AdequateWitness(target=mk(it), r=mk(r), s=mk(s), variant=variant,
                           j=mk(j), comax_x=mk(x), comax_y=mk(y))


# ---------------------------------------------------------------------------
# public ring predicates
# ---------------------------------------------------------------------------


def ring_predicate(cache: EngineCache, predicate: str) -> PropertyResult:
    """Decide one ring-level predicate by exhaustive search with witnesses."""
    if predicate not in RING_PREDICATES:
        raise ValueError(f"unknown ring predicate {predicate!r}")
    c = cache
    n = c.n
    names = c.names

    if predicate == "bezout":
        k = len(set(c.ideal_class))
        full = c.ideal_class[c.one]
        pairs = []
        for c1 in range(k):
            for c2 in range(c1, k):
                sid = c.sum_ideal_id(c1, c2)
                gens = c.generators_of(sid)
                rep1 = c.generators_of(c1)[0]
                rep2 = c.generators_of(c2)[0]
                if not gens:
                    ideal = sorted(c.ideal_set(sid))
                    return PropertyResult(
                        predicate, False,
                        counterexample={
                            "a": names[rep1],
                            "b": names[rep2],
                            "ideal": [names[i] for i in ideal],
                            "note": "no element generates this ideal",
                        },
                        exercised={"ideal_pairs": k * (k + 1) // 2})
                pairs.append({"a": names[rep1], "b": names[rep2],
                              "d": names[gens[0]]})
        return PropertyResult(predicate, True, witness={"pairs": pairs},
                              exercised={"ideal_pairs": k * (k + 1) // 2,
                                         "element_pairs": n * n})

    if predicate == "hermite":
        entries = []
        for a in range(n):
            for b in range(n):
                try:
                    d, x, y, a1, b1, u, v = c.bezout(a, b)
                except NotBezout:
                    return PropertyResult(
                        predicate, False,
                        counterexample={"a": names[a], "b": names[b],
                                        "note": "no comaximal cofactor witness"},
                        exercised={"pairs": n * n})
                entries.append({"a": names[a], "b": names[b],
                                "d": names[d], "a1": names[a1],
                                "b1": names[b1], "u": names[u],
                                "v": names[v]})
        return PropertyResult(predicate, True, witness={"pairs": entries},
                              exercised={"pairs": n * n})

    if predicate in ("regular", "regular_mod_J"):
        mod_j = predicate == "regular_mod_J"
        table = {}
        for a in range(n):
            b = _regular_idx(c, a, mod_j)
            if b is None:
                return PropertyResult(predicate, False,
                                      counterexample={"a": names[a]},
                                      exercised={"elements": n})
            table[names[a]] = names[b]
        return PropertyResult(predicate, True, witness={"map": table},
                              exercised={"elements": n})

    if predicate == "pi_regular_mod_J":
        table = {}
        for a in range(n):
            res = _pi_regular_idx(c, a, mod_j=True)
            if res is None:
                return PropertyResult(predicate, False,
                                      counterexample={"a": names[a]},
                                      exercised={"elements": n})
            table[names[a]] = {"n": res[0], "b": names[res[1]]}
        return PropertyResult(predicate, True, witness={"map": table},
                              exercised={"elements": n})

    if predicate in ("clean", "feckly_clean"):
        feckly = predicate == "feckly_clean"
        table = {}
        for a in range(n):
            e = _clean_idx(c, a, feckly)
            if e is None:
                return PropertyResult(predicate, False,
                                      counterexample={"a": names[a]},
                                      exercised={"elements": n})
            table[names[a]] = names[e]
        return PropertyResult(predicate, True, witness={"map": table},
                              exercised={"elements": n})

    if predicate == "semiregular":
        return _semiregular(c, ring_predicate(c, "regular_mod_J"),
                            ring_predicate(c, "idempotents_lift_mod_J"))

    if predicate == "idempotents_lift_mod_J":
        table = {}
        for x in sorted(c.quasi_idempotents):
            hit = None
            for e in sorted(c.idempotents):
                if c.sub(x, e) in c.jac:
                    hit = e
                    break
            if hit is None:
                return PropertyResult(predicate, False,
                                      counterexample={"x": names[x]},
                                      exercised={"quasi_idempotents":
                                                 len(c.quasi_idempotents)})
            table[names[x]] = names[hit]
        return PropertyResult(predicate, True, witness={"map": table},
                              exercised={"quasi_idempotents":
                                         len(c.quasi_idempotents)})

    if predicate in ("zero_adequate", "feckly_zero_adequate"):
        variant = _ADEQUACY_VARIANT[predicate]
        ok, data = _fa_element_idx(c, c.zero, variant)
        if not ok:
            return PropertyResult(
                predicate, False,
                counterexample={"target": names[data],
                                "pairs_searched": n * n},
                exercised={"targets": data + 1})
        witness = {names[t]: _pair_payload(c, c.zero, t, rs, variant)
                   for t, rs in data.items()}
        return PropertyResult(predicate, True, witness={"targets": witness},
                              exercised={"targets": n})

    if predicate == "stable_range_1":
        entries = []
        count = 0
        for a, b in _comax_pairs(c):
            count += 1
            hit = None
            for y in range(n):
                if c.add[a * n + c.mul[b * n + y]] in c.unit_set:
                    hit = y
                    break
            if hit is None:
                return PropertyResult(predicate, False,
                                      counterexample={"a": names[a],
                                                      "b": names[b]},
                                      exercised={"comax_pairs": count})
            entries.append({"a": names[a], "b": names[b],
                            "y": names[hit]})
        return PropertyResult(predicate, True, witness={"pairs": entries},
                              exercised={"comax_pairs": count})

    if predicate in ("t216_cond2", "c217_cond2"):
        pool = sorted(c.quasi_idempotents if predicate == "t216_cond2"
                      else c.idempotents)
        entries = []
        count = 0
        for a, b in _comax_pairs(c):
            count += 1
            hit = None
            for e in pool:
                if (c.add[a * n + c.mul[b * n + e]] in c.unit_set
                        and _meet_in_radical(c, a, e)):
                    hit = e
                    break
            if hit is None:
                return PropertyResult(predicate, False,
                                      counterexample={"a": names[a],
                                                      "b": names[b]},
                                      exercised={"comax_pairs": count})
            entries.append({"a": names[a], "b": names[b],
                            "e": names[hit]})
        return PropertyResult(predicate, True, witness={"pairs": entries},
                              exercised={"comax_pairs": count})

    if predicate in ("t216_cond3", "c217_cond3"):
        pool = sorted(c.quasi_idempotents if predicate == "t216_cond3"
                      else c.idempotents)
        table = {}
        for a in range(n):
            hit = None
            for e in pool:
                if c.sub(a, e) in c.unit_set and _meet_in_radical(c, a, e):
                    hit = e
                    break
            if hit is None:
                return PropertyResult(predicate, False,
                                      counterexample={"a": names[a]},
                                      exercised={"elements": n})
            table[names[a]] = names[hit]
        return PropertyResult(predicate, True, witness={"map": table},
                              exercised={"elements": n})

    if predicate == "feckly_adequate_range_1":
        entries = []
        count = 0
        for a, b in _comax_pairs(c):
            count += 1
            hit = None
            for y in range(n):
                w = c.add[a * n + c.mul[b * n + y]]
                if _fa_element_idx(c, w, "feckly")[0]:
                    hit = y
                    break
            if hit is None:
                return PropertyResult(predicate, False,
                                      counterexample={"a": names[a],
                                                      "b": names[b]},
                                      exercised={"comax_pairs": count})
            entries.append({"a": names[a], "b": names[b],
                            "y": names[hit]})
        return PropertyResult(predicate, True, witness={"pairs": entries},
                              exercised={"comax_pairs": count})

    if predicate == "everywhere_adequate":
        per_element = {}
        for cv in range(n):
            ok, data = _fa_element_idx(c, cv, "classic")
            if not ok:
                return PropertyResult(
                    predicate, False,
                    counterexample={"c": names[cv],
                                    "target": names[data]},
                    exercised={"elements": cv + 1})
            per_element[names[cv]] = {
                names[t]: _pair_payload(c, cv, t, rs, "classic")
                for t, rs in data.items()
            }
        return PropertyResult(predicate, True,
                              witness={"elements": per_element},
                              exercised={"elements": n})

    raise AssertionError(f"unhandled predicate {predicate!r}")


def _semiregular(c: EngineCache, reg: PropertyResult,
                 lift: PropertyResult) -> PropertyResult:
    """Semiregularity from its two decided parts."""
    verdict = reg.verdict and lift.verdict
    payload = {"regular_mod_J": reg.verdict,
               "idempotents_lift_mod_J": lift.verdict}
    bad = reg.counterexample or lift.counterexample
    return PropertyResult("semiregular", verdict,
                          witness=payload if verdict else None,
                          counterexample=None if verdict else bad,
                          exercised={"elements": c.n})


# ---------------------------------------------------------------------------
# constructive witnesses
# ---------------------------------------------------------------------------


def pi_regular_decomposition(cache: EngineCache, a: Element) -> PiRegularWitness:
    """Decompose a^n = e*u + w with e = a^n*b and u = 1 - a^n*b + a^n.

    Searches the least exponent n and multiplier b with a^n - a^n*b*a^n in
    the radical, then applies the closed formulas and re-verifies every
    identity. Raises NoDecomposition when the search is exhausted.
    """
    c = cache
    i = c.index_of(a)
    res = _pi_regular_idx(c, i, mod_j=True)
    if res is None:
        raise NoDecomposition(
            f"{c.ring.spec_string()}: no pi-regular decomposition for "
            f"{c.ring.format_element(a)}")
    n_exp, b = res
    n = c.n
    power = i
    for _ in range(n_exp - 1):
        power = c.mul[power * n + i]
    e = c.mul[power * n + b]
    u = c.add[c.sub(c.one, e) * n + power]
    w = c.sub(power, c.mul[e * n + u])
    if u not in c.unit_set:
        raise NoDecomposition("derived u is not a unit")
    # These hold in every commutative ring, so a failure is a broken ring.
    if c.sub(e, c.mul[e * n + e]) not in c.jac:
        raise AxiomViolation("e - e^2 not in radical")
    if w not in c.jac:
        raise AxiomViolation("w not in radical")
    if c.add[c.mul[e * n + u] * n + w] != power:
        raise AxiomViolation("a^n != e*u + w")
    mk = c.element
    return PiRegularWitness(n=n_exp, b=mk(b), e=mk(e), u=mk(u), w=mk(w))


def fza_witness(cache: EngineCache, a: Element) -> AdequateWitness:
    """Feckly-adequacy witness for c = 0 against target ``a``.

    Built constructively from the pi-regular decomposition of ``a``
    (r = 1 - e, s = e), with all three clauses re-verified; falls back to
    the definition search if the constructive route fails, and raises
    NotFZA when no witness exists at all.
    """
    c = cache
    i = c.index_of(a)
    try:
        dec = pi_regular_decomposition(c, a)
        e = c.index_of(dec.e)
        r, s = c.sub(c.one, e), e
        if (c.mul[r * c.n + s] in c.jac and c.comax[r][i]
                and _anchored(c, s, i)):
            wit = c.comax_witness(r, i)
            mk = c.element
            return AdequateWitness(
                target=a, r=mk(r), s=mk(s), variant="feckly",
                j=mk(c.neg[c.mul[r * c.n + s]]),
                comax_x=mk(wit[0]), comax_y=mk(wit[1]))
    except NoDecomposition:
        pass
    fallback = adequate_witness_single(c, c.element(c.zero), a, "feckly")
    if fallback is None:
        raise NotFZA(
            f"{c.ring.spec_string()}: 0 is not feckly adequate against "
            f"{c.ring.format_element(a)}")
    return fallback


def j_characterization_check(cache: EngineCache) -> PropertyResult:
    """Compare J(R) with the set of x whose difference with every unit is a unit."""
    c = cache
    units = sorted(c.unit_set)
    alt = frozenset(
        x for x in range(c.n)
        if all(c.sub(x, u) in c.unit_set for u in units)
    )
    if alt == c.jac:
        return PropertyResult("j_characterization", True,
                              witness={"radical": [c.names[x]
                                                   for x in sorted(c.jac)]},
                              exercised={"elements": c.n, "units": len(units)})
    diff = sorted(alt.symmetric_difference(c.jac))
    return PropertyResult("j_characterization", False,
                          counterexample={"element": c.names[diff[0]],
                                          "in_radical": diff[0] in c.jac},
                          exercised={"elements": c.n})


# ---------------------------------------------------------------------------
# payload re-verification
# ---------------------------------------------------------------------------


def _parse_memo(c: EngineCache) -> _ParseMemo:
    """The cache's element-string memo (see ``cache._ParseMemo``)."""
    return c.parsed


def _power(c: EngineCache, a: int, e: int) -> int:
    """a^e for e >= 1, by repeated squaring."""
    n, mul = c.n, c.mul
    out, base, e = a, a, e - 1
    while e:
        if e & 1:
            out = mul[out * n + base]
        base = mul[base * n + base]
        e >>= 1
    return out


def _covers(keys: list, size: int) -> bool:
    """True iff ``keys`` are pairwise distinct and exactly ``size`` many."""
    return len(keys) == size and len(set(keys)) == size


def _same_result(a: PropertyResult, b: PropertyResult) -> bool:
    return (a.verdict == b.verdict and a.witness == b.witness
            and a.counterexample == b.counterexample)


def reverify(cache: EngineCache, result: PropertyResult) -> bool:
    """Re-check a PropertyResult payload by direct ring arithmetic.

    Positive verdicts are accepted only if the stored witnesses cover the
    predicate's whole domain and each satisfies its defining identity;
    negative verdicts only if the counterexample still fails an exhaustive
    re-search. ``semiregular`` and ``j_characterization`` are decided
    again and compared. An element-level result (its witness names the
    element) is checked for that element only. Unknown or malformed
    payloads fail.
    """
    try:
        return _reverify(cache, result)
    except (KeyError, ValueError, TypeError, AttributeError, ParseError):
        return False


def _reverify(c: EngineCache, result: PropertyResult) -> bool:
    parsed = _parse_memo(c)
    n, add, mul = c.n, c.add, c.mul
    p = result.predicate
    if p in _ADEQUACY_VARIANT:
        return _reverify_adequate(c, result)
    if p == "pi_regular" or (p in _ELEMENT_IDENTITY and result.verdict
                             and "element" in result.witness):
        return _reverify_element(c, result)
    if p in ("regular", "regular_mod_J", "pi_regular_mod_J", "clean",
             "feckly_clean", "t216_cond3", "c217_cond3",
             "idempotents_lift_mod_J"):
        return _reverify_map(c, result)
    if p in ("stable_range_1", "t216_cond2", "c217_cond2",
             "feckly_adequate_range_1"):
        return _reverify_comax_pairs(c, result)
    if p == "semiregular":
        reg = ring_predicate(c, "regular_mod_J")
        lift = ring_predicate(c, "idempotents_lift_mod_J")
        return (_reverify_map(c, reg) and _reverify_map(c, lift)
                and _same_result(result, _semiregular(c, reg, lift)))
    if p == "j_characterization":
        return _same_result(result, j_characterization_check(c))
    if p == "bezout":
        cls = c.ideal_class
        if not result.verdict:
            bad = result.counterexample
            a, b = parsed[bad["a"]], parsed[bad["b"]]
            sid = c.sum_ideal_id(cls[a], cls[b])
            ideal = sorted(parsed[x] for x in bad["ideal"])
            return not c.generators_of(sid) and ideal == sorted(c.ideal_set(sid))
        keys = []
        for rec in result.witness["pairs"]:
            a, b, d = [parsed[rec[k]] for k in ("a", "b", "d")]
            sid = c.sum_ideal_id(cls[a], cls[b])
            if c.pid[d] != c.ideal_set(sid):
                return False
            keys.append((min(cls[a], cls[b]), max(cls[a], cls[b])))
        k = len(set(cls))
        return _covers(keys, k * (k + 1) // 2)
    if p == "hermite":
        if not result.verdict:
            a = parsed[result.counterexample["a"]]
            b = parsed[result.counterexample["b"]]
            try:
                c.bezout(a, b)
            except NotBezout:
                return True
            return False
        keys = []
        for rec in result.witness["pairs"]:
            a, b, d, a1, b1, u, v = [
                parsed[rec[k]] for k in ("a", "b", "d", "a1", "b1", "u", "v")]
            if mul[a1 * n + d] != a or mul[b1 * n + d] != b:
                return False
            if add[mul[a1 * n + u] * n + mul[b1 * n + v]] != c.one:
                return False
            keys.append((a, b))
        return _covers(keys, n * n)
    return False


_ELEMENT_IDENTITY = frozenset({"regular", "pi_regular", "clean", "feckly_clean"})


def _reverify_element(c: EngineCache, result: PropertyResult) -> bool:
    """Element-level regular, pi_regular, clean and feckly_clean.

    A positive witness names its element a, and a's identity is checked:
    a*b*a = a, a^n*b*a^n = a^n, or e idempotent (quasi-idempotent for
    feckly_clean) with a - e a unit. A negative ``pi_regular`` is searched
    again; the other negatives have the ring-level shape ``{"a": ...}``
    and meaning, so ``_reverify_map`` checks them.
    """
    parsed = _parse_memo(c)
    n, mul = c.n, c.mul
    p = result.predicate
    if not result.verdict:
        a = parsed[result.counterexample["a"]]
        return _pi_regular_idx(c, a, mod_j=False) is None
    w = result.witness
    a = parsed[w["element"]]
    if p in ("regular", "pi_regular"):
        b = parsed[w["b"]]
        if p == "pi_regular":
            e = w["n"]
            if type(e) is not int or e < 1:
                return False
            a = _power(c, a, e)
        return mul[mul[a * n + b] * n + a] == a
    e = parsed[w["e"]]
    pool = c.quasi_idempotents if p == "feckly_clean" else c.idempotents
    return e in pool and c.sub(a, e) in c.unit_set


def _reverify_map(c: EngineCache, result: PropertyResult) -> bool:
    """Predicates whose witness maps each element of a domain to a witness.

    The domain is every element, or the quasi-idempotents for
    ``idempotents_lift_mod_J``.
    """
    n, mul = c.n, c.mul
    jac, units = c.jac, c.unit_set
    parsed = _parse_memo(c)
    p = result.predicate
    domain = None  # every element
    if p in ("regular", "regular_mod_J"):
        mod_j = p == "regular_mod_J"

        def refuted(a):
            return _regular_idx(c, a, mod_j) is None

        def holds(a, w):
            b = parsed[w]
            aba = mul[mul[a * n + b] * n + a]
            return c.sub(a, aba) in jac if mod_j else aba == a
    elif p == "pi_regular_mod_J":
        def refuted(a):
            return _pi_regular_idx(c, a, True) is None

        def holds(a, w):
            b, e = parsed[w["b"]], w["n"]
            if type(e) is not int or e < 1:
                return False
            power = _power(c, a, e)
            return c.sub(power, mul[mul[power * n + b] * n + power]) in jac
    elif p in ("clean", "feckly_clean"):
        feckly = p == "feckly_clean"
        pool = c.quasi_idempotents if feckly else c.idempotents

        def refuted(a):
            return _clean_idx(c, a, feckly) is None

        def holds(a, w):
            e = parsed[w]
            return e in pool and c.sub(a, e) in units
    elif p in ("t216_cond3", "c217_cond3"):
        pool = c.quasi_idempotents if p == "t216_cond3" else c.idempotents

        def meets(a, e):
            return c.sub(a, e) in units and _meet_in_radical(c, a, e)

        def refuted(a):
            return not any(meets(a, e) for e in pool)

        def holds(a, w):
            e = parsed[w]
            return e in pool and meets(a, e)
    else:  # idempotents_lift_mod_J
        domain = c.quasi_idempotents

        def refuted(x):
            return x in domain and all(c.sub(x, e) not in jac
                                       for e in c.idempotents)

        def holds(x, w):
            e = parsed[w]
            return x in domain and e in c.idempotents and c.sub(x, e) in jac
    if not result.verdict:
        key = "a" if domain is None else "x"
        return refuted(parsed[result.counterexample[key]])
    keys = []
    for astr, w in result.witness["map"].items():
        a = parsed[astr]
        if not holds(a, w):
            return False
        keys.append(a)
    return _covers(keys, n if domain is None else len(domain))


def _reverify_comax_pairs(c: EngineCache, result: PropertyResult) -> bool:
    """Predicates quantified over the comaximal pairs (a, b).

    Each pair carries one witness element (``y`` or ``e``); the pairs must
    be exactly the comaximal pairs of the ring.
    """
    n, add, mul = c.n, c.add, c.mul
    units = c.unit_set
    parsed = _parse_memo(c)
    p = result.predicate
    if p == "stable_range_1":
        key, pool = "y", range(n)

        def holds(a, b, w):
            return add[a * n + mul[b * n + w]] in units
    elif p == "feckly_adequate_range_1":
        key, pool = "y", range(n)

        def holds(a, b, w):
            return _fa_element_idx(c, add[a * n + mul[b * n + w]], "feckly")[0]
    else:  # t216_cond2, c217_cond2
        key = "e"
        pool = c.quasi_idempotents if p == "t216_cond2" else c.idempotents

        def holds(a, b, w):
            return (w in pool and add[a * n + mul[b * n + w]] in units
                    and _meet_in_radical(c, a, w))
    if not result.verdict:
        a = parsed[result.counterexample["a"]]
        b = parsed[result.counterexample["b"]]
        return c.comax[a][b] and not any(holds(a, b, w) for w in pool)
    keys = []
    for rec in result.witness["pairs"]:
        a, b, w = [parsed[rec[k]] for k in ("a", "b", key)]
        if not c.comax[a][b] or not holds(a, b, w):
            return False
        keys.append((a, b))
    return _covers(keys, _comax_pair_count(c))


def _comax_pair_count(c: EngineCache) -> int:
    got = c._ext.get("comax_pairs")
    if got is None:
        got = c._ext["comax_pairs"] = sum(map(sum, c.comax))
    return got


def _reverify_adequate(c: EngineCache, result: PropertyResult) -> bool:
    parsed = _parse_memo(c)
    n, add, mul = c.n, c.add, c.mul
    p = result.predicate
    variant = _ADEQUACY_VARIANT[p]

    def check_table(cval: int, table: dict) -> bool:
        """Every target has (r, s, j, x, y) with c - r*s = j, r*x + t*y = 1."""
        keys = []
        for tstr, rec in table.items():
            t = parsed[tstr]
            r, s, j, x, y = [parsed[rec[k]] for k in ("r", "s", "j", "x", "y")]
            if c.sub(cval, mul[r * n + s]) != j:
                return False
            if (j not in c.jac) if variant == "feckly" else (j != c.zero):
                return False
            if add[mul[r * n + x] * n + mul[t * n + y]] != c.one:
                return False
            if not _anchored(c, s, cval if variant == "cvariant" else t):
                return False
            keys.append(t)
        return _covers(keys, n)

    if p == "everywhere_adequate":
        if not result.verdict:
            cv = parsed[result.counterexample["c"]]
            t = parsed[result.counterexample["target"]]
            return _adequate_pair_idx(c, cv, t, variant) is None
        keys = []
        for cstr, table in result.witness["elements"].items():
            cv = parsed[cstr]
            if not check_table(cv, table):
                return False
            keys.append(cv)
        return _covers(keys, n)

    if p in ("zero_adequate", "feckly_zero_adequate"):
        cval = c.zero
    elif result.verdict:
        cval = parsed[result.witness["element"]]
    else:
        cval = parsed[result.counterexample["element"]]
    if not result.verdict:
        t = parsed[result.counterexample["target"]]
        return _adequate_pair_idx(c, cval, t, variant) is None
    return check_table(cval, result.witness["targets"])
