"""Exhaustive predicate engine for finite rings.

Every predicate is one entry of a registry (``_REGISTRY``): a domain, a
check and a search. The check is the predicate's defining identity on one
item of the domain and one witness, in cache-index arithmetic; witnesses
come from the entry's pool (every element, the idempotents or the
quasi-idempotents), and reverify rejects one from outside it. The search
finds the witness of one item: by default the first candidate, in
enumeration order, that the check accepts, so repeated runs produce
identical reports. ``hermite`` (``EngineCache.bezout``), ``bezout`` (the
first generator of the sum ideal), ``pi_regular*`` (the regular search on
each power until the powers cycle) and the adequacy family (the memoized
search below) bring their own search.

The domain is the predicate's quantifier. There are six:

* every element: ``{"map": {a: w}}``, counterexample ``{"a"}``;
* the quasi-idempotents: ``{"map": {x: w}}``, counterexample ``{"x"}``;
* the comaximal pairs: ``{"pairs": [{"a", "b", "y" or "e"}]}``;
* all n^2 pairs (``hermite``), listed the same way;
* one pair per two principal-ideal classes (``bezout``), the same way;
* adequacy targets: ``{"targets": {t: {r, s, j, x, y}}}``, which
  ``everywhere_adequate`` nests per element.

Each domain states once the payload and counterexample shapes, the
``exercised`` counts, membership and coverage. ``ring_predicate``,
``element_predicate`` and ``reverify`` are generic code over the registry.
``reverify`` accepts a positive verdict only if the witnesses cover the
whole domain, each item once, and the check holds on each. A negative
verdict names one item; it is accepted only if the item is in the domain
and its search, run again, finds nothing. The search is exhaustive, so the
re-search is the test that no witness exists. Malformed payloads are
rejected, never raised. ``semiregular`` is the conjunction of
``regular_mod_J`` and ``idempotents_lift_mod_J``, decided once per cache.

The adequacy predicates come in three variants. ``classic`` demands an
exact factorization c = r*s; ``feckly`` only demands c - r*s to fall in
the Jacobson radical. Both test clause (3) against the running target a.
``cvariant`` is the classic reading with clause (3) tested against c
itself; it is kept separate because the two readings genuinely differ and
callers must choose explicitly.

The adequacy search is memoized per (variant, c, ideal class of the
target): the target enters the search only through its comaximality row
``comax[target]`` (clause (2), and clause (3) for the classic and feckly
variants), and that row is a function of the principal ideal aR, so every
target of one class has the same first (r, s) in enumeration order.
Clause (3) itself is memoized per (ideal class of s, ideal class of its
target): ``nonunit_divisors[s]`` lists the non-units t with s in tR,
which depends only on sR. Both memos therefore return exactly what the
unmemoized search would. Element strings are formatted once per cache
(``EngineCache.names``) and parsed once (``EngineCache.parsed``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Any, Callable, NamedTuple

from .cache import DEFAULT_SIZE_BOUND, EngineCache
from .errors import (AxiomViolation, NoDecomposition, NotBezout, NotFZA, ParseError,
                     ReverifyFailed)
from .rings import Element, Ring

_VARIANTS = ("classic", "feckly", "cvariant")


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
        values = (self.r, self.s, self.j, self.comax_x, self.comax_y)
        return _adequacy_fields([ring.format_element(v) for v in values], range(5))


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
# adequacy search
# ---------------------------------------------------------------------------


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


def _adequacy_witness(c: EngineCache, cval: int, target: int, r: int,
                      s: int) -> tuple[int, ...] | None:
    """(r, s, j, x, y) with j = cval - r*s and r*x + target*y = 1, or None
    if r and the target are not comaximal."""
    wit = c.comax_witness(r, target)
    if wit is None:
        return None
    return (r, s, c.sub(cval, c.mul[r * c.n + s])) + wit


def _adequacy_search(variant: str, cval: int | None, c: EngineCache) -> Callable:
    """find(target): the first adequacy witness of cval (0 if None)."""
    cval = c.zero if cval is None else cval

    def find(target: int):
        pair = _adequate_pair_idx(c, cval, target, variant)
        return pair and _adequacy_witness(c, cval, target, *pair)
    return find


# ---------------------------------------------------------------------------
# the predicates: check(c) and search(c) bind to one cache
# ---------------------------------------------------------------------------


def _regular(c: EngineCache) -> Callable:
    """a*b*a = a."""
    n, mul = c.n, c.mul
    return lambda a, b: mul[mul[a * n + b] * n + a] == a


def _regular_mod_j(c: EngineCache) -> Callable:
    """a - a*b*a lies in the radical."""
    n, mul, sub, jac = c.n, c.mul, c.sub, c.jac
    return lambda a, b: sub(a, mul[mul[a * n + b] * n + a]) in jac


def _on_power(check: Callable) -> Callable:
    """``check`` for a^k, on the witness (k, b)."""
    def bind(c: EngineCache) -> Callable:
        holds = check(c)
        return lambda a, w: holds(_power(c, a, w[0]), w[1])
    return bind


def _unit_difference(c: EngineCache) -> Callable:
    """a - e is a unit."""
    sub, units = c.sub, c.unit_set
    return lambda a, e: sub(a, e) in units


def _clean_meet(c: EngineCache) -> Callable:
    """a - e is a unit and aR intersect eR lies in the radical."""
    sub, units, meets = c.sub, c.unit_set, _meet_in_radical(c)
    return lambda a, e: sub(a, e) in units and meets(a, e)


def _lifts(c: EngineCache) -> Callable:
    """x - e lies in the radical."""
    sub, jac = c.sub, c.jac
    return lambda x, e: sub(x, e) in jac


def _stable_range_1(c: EngineCache) -> Callable:
    """a + b*y is a unit."""
    n, add, mul, units = c.n, c.add, c.mul, c.unit_set
    return lambda ab, y: add[ab[0] * n + mul[ab[1] * n + y]] in units


def _unit_range(c: EngineCache) -> Callable:
    """a + b*e is a unit and aR intersect eR lies in the radical."""
    n, add, mul, units, meets = c.n, c.add, c.mul, c.unit_set, _meet_in_radical(c)
    return lambda ab, e: (add[ab[0] * n + mul[ab[1] * n + e]] in units
                          and meets(ab[0], e))


def _meet_in_radical(c: EngineCache) -> Callable:
    """meets(a, e): aR intersect eR lies in the radical (memoized per
    pair of ideal classes)."""
    memo, cls, pid, jac = c._ext.setdefault("meet_radical", {}), c.ideal_class, c.pid, c.jac

    def meets(a: int, e: int) -> bool:
        key = (cls[a], cls[e])
        got = memo.get(key)
        if got is None:
            got = memo[key] = (pid[a] & pid[e]) <= jac
        return got
    return meets


def _feckly_adequate_range_1(c: EngineCache) -> Callable:
    """a + b*y is feckly adequate."""
    n, add, mul = c.n, c.add, c.mul
    return lambda ab, y: _fa_element_idx(c, add[ab[0] * n + mul[ab[1] * n + y]],
                                         "feckly")[0]


def _hermite(c: EngineCache) -> Callable:
    """a = a1*d, b = b1*d and a1*u + b1*v = 1."""
    n, add, mul, one = c.n, c.add, c.mul, c.one

    def holds(ab: tuple[int, int], w: tuple) -> bool:
        d, a1, b1, u, v = w
        return (mul[a1 * n + d] == ab[0] and mul[b1 * n + d] == ab[1]
                and add[mul[a1 * n + u] * n + mul[b1 * n + v]] == one)
    return holds


def _bezout(c: EngineCache) -> Callable:
    """dR = aR + bR."""
    return lambda ab, d: c.pid[d] == c.ideal_set(_sum_ideal_id(c, ab))


def _adequate(variant: str, cval: int | None, c: EngineCache) -> Callable:
    """Adequacy of cval (0 if None) against a target, on (r, s, j, x, y).

    (1) cval - r*s = j, with j = 0 (classic, cvariant) or j in J (feckly);
    (2) r*x + target*y = 1; (3) every non-unit divisor of s is
    non-comaximal with the target (with cval for the cvariant).
    """
    cval = c.zero if cval is None else cval
    n, add, mul, one = c.n, c.add, c.mul, c.one
    allowed_j = c.jac if variant == "feckly" else {c.zero}

    def holds(target: int, w: tuple) -> bool:
        r, s, j, x, y = w
        return (c.sub(cval, mul[r * n + s]) == j and j in allowed_j
                and add[mul[r * n + x] * n + mul[target * n + y]] == one
                and _anchored(c, s, cval if variant == "cvariant" else target))
    return holds


def _power_search(check: Callable) -> Callable:
    """First (k, b) with b a ``check`` witness for a^k; stops when powers cycle."""
    def bind(c: EngineCache) -> Callable:
        n, mul, holds = c.n, c.mul, check(c)

        def find(a: int):
            power, seen, k = a, set(), 1
            while k <= n and power not in seen:
                seen.add(power)
                b = _first(holds, range(n), power)
                if b is not None:
                    return k, b
                power = mul[power * n + a]
                k += 1
            return None
        return find
    return bind


def _hermite_search(c: EngineCache) -> Callable:
    def find(ab: tuple[int, int]):
        try:
            d, _, _, a1, b1, u, v = c.bezout(*ab)
        except NotBezout:
            return None
        return d, a1, b1, u, v
    return find


def _bezout_search(c: EngineCache) -> Callable:
    def find(ab: tuple[int, int]):
        gens = c.generators_of(_sum_ideal_id(c, ab))
        return gens[0] if gens else None
    return find


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


# Witnesses of several values: index tuple <-> payload fields.


def _power_fields(names, w) -> dict:
    return {"n": w[0], "b": names[w[1]]}


def _power_values(parsed, rec) -> tuple[int, int]:
    k = rec["n"]
    if type(k) is not int or k < 1:
        raise ValueError(f"exponent {k!r} is not a positive int")
    return k, parsed[rec["b"]]


def _hermite_fields(names, w) -> dict:
    d, a1, b1, u, v = w
    return {"d": names[d], "a1": names[a1], "b1": names[b1], "u": names[u],
            "v": names[v]}


def _hermite_values(parsed, rec) -> tuple:
    return (parsed[rec["d"]], parsed[rec["a1"]], parsed[rec["b1"]],
            parsed[rec["u"]], parsed[rec["v"]])


def _adequacy_fields(names, w) -> dict:
    r, s, j, x, y = w
    return {"r": names[r], "s": names[s], "j": names[j], "x": names[x],
            "y": names[y]}


def _adequacy_values(parsed, rec) -> tuple:
    return (parsed[rec["r"]], parsed[rec["s"]], parsed[rec["j"]],
            parsed[rec["x"]], parsed[rec["y"]])


# ---------------------------------------------------------------------------
# domains: generic search, check, payload and coverage
# ---------------------------------------------------------------------------


def _pool(c: EngineCache, name: str):
    """Candidate witnesses in enumeration order: every element, or a sorted set."""
    return range(c.n) if name == "elements" else sorted(getattr(c, name))


def _first(holds: Callable, pool, item):
    """The first candidate of ``pool`` that ``holds`` accepts for ``item``."""
    for w in pool:
        if holds(item, w):
            return w
    return None


def _searcher(p: _Predicate, c: EngineCache) -> Callable:
    """search(item) on one cache: a witness for the item, or None if none exists."""
    if p.search is not None:
        return p.search(c)
    return partial(_first, p.check(c), _pool(c, p.pool))


def _checker(p: _Predicate, c: EngineCache) -> Callable:
    """holds(item, value) on one cache: a payload value (an element name, or
    the fields of a several-value witness) is a witness from the pool that
    the check accepts."""
    check, parsed = p.check(c), c.parsed
    if not p.field:
        return lambda item, value: check(item, p.values(parsed, value))
    if p.pool == "elements":
        return lambda item, value: check(item, parsed[value])
    pool = getattr(c, p.pool)

    def holds(item, value) -> bool:
        w = parsed[value]
        return w in pool and check(item, w)
    return holds


def _covers(keys: list, size: int) -> bool:
    """True iff ``keys`` are pairwise distinct and exactly ``size`` many."""
    return len(keys) == size and len(set(keys)) == size


class _Domain(NamedTuple):
    """Items that each carry one witness, and how a payload lists them.

    A ``"pairs"`` payload lists ``{"a", "b", **witness fields}``; any other
    collection maps each item's name to its witness. A counterexample names
    one item, ``{"a", "b"}`` or ``{letter: name}``, plus ``extra`` fields,
    which ``refutes`` re-checks.
    """

    collection: str
    items: Callable                 # c -> the items, in enumeration order
    size: Callable                  # c -> the number of items
    exercised: Callable             # (c, items searched, verdict) -> dict
    letter: str = "a"
    member: Callable | None = None  # (c, item) -> bool, if not every item
    key: Callable | None = None     # (c, item) -> coverage key, if not the item
    extra: Callable = lambda c, item: {}
    refutes: Callable = lambda c, item, bad: True

    def counterexample(self, c: EngineCache, item) -> dict:
        if self.collection == "pairs":
            named = {"a": c.names[item[0]], "b": c.names[item[1]]}
        else:
            named = {self.letter: c.names[item]}
        return {**named, **self.extra(c, item)}

    def decide(self, p: _Predicate, c: EngineCache) -> PropertyResult:
        names, f, search = c.names, p.field, _searcher(p, c)
        pairs = self.collection == "pairs"
        out = [] if pairs else {}
        for count, item in enumerate(self.items(c), 1):
            w = search(item)
            if w is None:
                return PropertyResult(p.name, False,
                                      counterexample=self.counterexample(c, item),
                                      exercised=self.exercised(c, count, False))
            if not pairs:
                out[names[item]] = names[w] if f else p.fields(names, w)
            elif f:
                out.append({"a": names[item[0]], "b": names[item[1]], f: names[w]})
            else:
                out.append({"a": names[item[0]], "b": names[item[1]],
                            **p.fields(names, w)})
        return PropertyResult(p.name, True, witness={self.collection: out},
                              exercised=self.exercised(c, len(out), True))

    def covered(self, p: _Predicate, c: EngineCache, listed) -> bool:
        """Every entry holds, and the entries are the domain, each once."""
        parsed, f, pairs = c.parsed, p.field, self.collection == "pairs"
        holds, member, items = _checker(p, c), self.member, []
        for entry in listed if pairs else listed.items():
            if pairs:
                item = parsed[entry["a"]], parsed[entry["b"]]
                value = entry[f] if f else entry
            else:
                item, value = parsed[entry[0]], entry[1]
            if not ((member is None or member(c, item)) and holds(item, value)):
                return False
            items.append(item)
        keys = items if self.key is None else [self.key(c, i) for i in items]
        return _covers(keys, self.size(c))

    def verify(self, p: _Predicate, c: EngineCache, result: PropertyResult) -> bool:
        if result.verdict:
            return self.covered(p, c, result.witness[self.collection])
        bad, parsed = result.counterexample, c.parsed
        item = ((parsed[bad["a"]], parsed[bad["b"]]) if self.collection == "pairs"
                else parsed[bad[self.letter]])
        return ((self.member is None or self.member(c, item))
                and _searcher(p, c)(item) is None and self.refutes(c, item, bad))

    def element(self, p: _Predicate, c: EngineCache, a: int) -> PropertyResult:
        """One element: ``{"element", **witness fields}`` or a counterexample."""
        names = c.names
        w = _searcher(p, c)(a)
        tally = p.tally(c, w) if p.tally else {}
        if w is None:
            return PropertyResult(p.name, False, exercised=tally,
                                  counterexample=self.counterexample(c, a))
        fields = {p.field: names[w]} if p.field else p.fields(names, w)
        return PropertyResult(p.name, True, witness={"element": names[a], **fields},
                              exercised=tally)

    def verify_element(self, p: _Predicate, c: EngineCache,
                       result: PropertyResult) -> bool:
        if not result.verdict:
            return self.verify(p, c, result)
        w = result.witness
        return _checker(p, c)(c.parsed[w["element"]], w[p.field] if p.field else w)


def _comax_pairs(c: EngineCache):
    comax = c.comax
    for a in range(c.n):
        row = comax[a]
        for b in range(c.n):
            if row[b]:
                yield a, b


def _comax_pair_count(c: EngineCache) -> int:
    got = c._ext.get("comax_pairs")
    if got is None:
        got = c._ext["comax_pairs"] = sum(map(sum, c.comax))
    return got


def _class_pairs(c: EngineCache) -> list[tuple[int, int]]:
    """The first generators of each two principal-ideal classes."""
    gens = [c.generators_of(k)[0] for k in range(len(set(c.ideal_class)))]
    return [(g1, g2) for i, g1 in enumerate(gens) for g2 in gens[i:]]


def _sum_ideal_id(c: EngineCache, ab: tuple[int, int]) -> int:
    cls = c.ideal_class
    return c.sum_ideal_id(cls[ab[0]], cls[ab[1]])


def _sum_ideal(c: EngineCache, ab: tuple[int, int]) -> list[int]:
    return sorted(c.ideal_set(_sum_ideal_id(c, ab)))


_ELEMENTS = _Domain("map", lambda c: range(c.n), lambda c: c.n,
                    lambda c, count, ok: {"elements": c.n})
_QUASI_IDEMPOTENTS = _Domain(
    "map", lambda c: _pool(c, "quasi_idempotents"),
    lambda c: len(c.quasi_idempotents),
    lambda c, count, ok: {"quasi_idempotents": len(c.quasi_idempotents)},
    letter="x", member=lambda c, x: x in c.quasi_idempotents)
_COMAX_PAIRS = _Domain("pairs", _comax_pairs, _comax_pair_count,
                       lambda c, count, ok: {"comax_pairs": count},
                       member=lambda c, ab: c.comax[ab[0]][ab[1]])
_ALL_PAIRS = _Domain("pairs", lambda c: product(range(c.n), repeat=2),
                     lambda c: c.n * c.n, lambda c, count, ok: {"pairs": c.n * c.n},
                     extra=lambda c, ab: {"note": "no comaximal cofactor witness"})
_CLASS_PAIRS = _Domain(
    "pairs", _class_pairs, lambda c: len(_class_pairs(c)),
    lambda c, count, ok: ({"ideal_pairs": len(_class_pairs(c)),
                           "element_pairs": c.n * c.n} if ok
                          else {"ideal_pairs": len(_class_pairs(c))}),
    key=lambda c, ab: tuple(sorted((c.ideal_class[ab[0]], c.ideal_class[ab[1]]))),
    extra=lambda c, ab: {"ideal": [c.names[i] for i in _sum_ideal(c, ab)],
                         "note": "no element generates this ideal"},
    refutes=lambda c, ab, bad: sorted(map(c.parsed.__getitem__, bad["ideal"]))
    == _sum_ideal(c, ab))
# Adequacy of one element against each target t (``_at`` says which).
_TARGETS = _Domain("targets", lambda c: range(c.n), lambda c: c.n,
                   lambda c, count, ok: {"targets": count}, letter="target",
                   extra=lambda c, t: {"pairs_searched": c.n * c.n})


class _OfElement:
    """Element-level adequacy: the targets of the element a payload names."""

    def element(self, p: _Predicate, c: EngineCache, a: int) -> PropertyResult:
        res = _TARGETS.decide(_at(p, a), c)
        head = {"element": c.names[a]}
        if res.verdict:
            res.witness = {**head, **res.witness}
        else:
            res.counterexample = {**head, **res.counterexample}
        return res

    def verify_element(self, p: _Predicate, c: EngineCache,
                       result: PropertyResult) -> bool:
        named = result.witness if result.verdict else result.counterexample
        return _TARGETS.verify(_at(p, c.parsed[named["element"]]), c, result)


class _EveryElement:
    """The targets of every element c: ``{"elements": {c: {t: ...}}}``."""

    def decide(self, p: _Predicate, c: EngineCache) -> PropertyResult:
        names, per_element = c.names, {}
        for cv in range(c.n):
            res = _TARGETS.decide(_at(p, cv), c)
            if not res.verdict:
                return PropertyResult(
                    p.name, False, exercised={"elements": cv + 1},
                    counterexample={"c": names[cv],
                                    "target": res.counterexample["target"]})
            per_element[names[cv]] = res.witness["targets"]
        return PropertyResult(p.name, True, witness={"elements": per_element},
                              exercised={"elements": c.n})

    def verify(self, p: _Predicate, c: EngineCache, result: PropertyResult) -> bool:
        parsed = c.parsed
        if not result.verdict:
            bad = result.counterexample
            return _searcher(_at(p, parsed[bad["c"]]), c)(parsed[bad["target"]]) is None
        tables = result.witness["elements"]
        return (all(_TARGETS.covered(_at(p, parsed[name]), c, table)
                    for name, table in tables.items())
                and _covers([parsed[name] for name in tables], c.n))


class _Semiregular:
    """regular_mod_J and idempotents_lift_mod_J, each decided once per cache."""

    PARTS = ("regular_mod_J", "idempotents_lift_mod_J")

    def parts(self, c: EngineCache) -> list[PropertyResult]:
        got = c._ext.get("semiregular_parts")
        if got is None:
            got = c._ext["semiregular_parts"] = [
                _REGISTRY[q].domain.decide(_REGISTRY[q], c) for q in self.PARTS]
        return got

    def decide(self, p: _Predicate, c: EngineCache) -> PropertyResult:
        bad = [part.counterexample for part in self.parts(c) if not part.verdict]
        if bad:
            return PropertyResult(p.name, False, counterexample=bad[0],
                                  exercised={"elements": c.n})
        return PropertyResult(p.name, True, witness=dict.fromkeys(self.PARTS, True),
                              exercised={"elements": c.n})

    def verify(self, p: _Predicate, c: EngineCache, result: PropertyResult) -> bool:
        return (all(_verify(c, part) for part in self.parts(c))
                and _same_result(result, self.decide(p, c)))


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


class _Predicate(NamedTuple):
    """One predicate: its domain, defining identity and witness search.

    ``check(c)`` binds the identity holds(item, w) on one item and one
    witness drawn from ``pool``. ``search(c)`` binds find(item), a witness
    or None; by default the first candidate of ``pool`` the check accepts.
    A one-value witness is an element named ``field`` in a payload;
    ``fields`` and ``values`` convert a witness of several values.
    ``tally`` gives the ``exercised`` counts of an element-level result.
    """

    name: str
    domain: Any
    check: Callable | None = None
    field: str = ""
    pool: str = "elements"
    search: Callable | None = None
    fields: Callable | None = None
    values: Callable | None = None
    ring: bool = True
    element: bool = False
    tally: Callable | None = None
    variant: str = ""


def _adequacy(name: str, variant: str, domain: Any = _TARGETS,
              element: bool = False) -> _Predicate:
    return _at(_Predicate(name, domain, fields=_adequacy_fields,
                          values=_adequacy_values, ring=not element,
                          element=element, variant=variant), None)


def _at(p: _Predicate, cval: int | None) -> _Predicate:
    """The adequacy entry ``p`` for the element cval (0 if None)."""
    return p._replace(check=partial(_adequate, p.variant, cval),
                      search=partial(_adequacy_search, p.variant, cval))


_REGISTRY = {p.name: p for p in (
    _Predicate("bezout", _CLASS_PAIRS, _bezout, "d", search=_bezout_search),
    _Predicate("hermite", _ALL_PAIRS, _hermite, search=_hermite_search,
               fields=_hermite_fields, values=_hermite_values),
    _Predicate("regular", _ELEMENTS, _regular, "b", element=True,
               tally=lambda c, b: {"candidates": c.n if b is None else b + 1}),
    _Predicate("pi_regular", _ELEMENTS, _on_power(_regular),
               search=_power_search(_regular), fields=_power_fields,
               values=_power_values, ring=False, element=True,
               tally=lambda c, w: {} if w else {"exponent_bound": c.n}),
    _Predicate("regular_mod_J", _ELEMENTS, _regular_mod_j, "b"),
    _Predicate("pi_regular_mod_J", _ELEMENTS, _on_power(_regular_mod_j),
               search=_power_search(_regular_mod_j), fields=_power_fields,
               values=_power_values),
    _Predicate("clean", _ELEMENTS, _unit_difference, "e", "idempotents",
               element=True),
    _Predicate("feckly_clean", _ELEMENTS, _unit_difference, "e",
               "quasi_idempotents", element=True),
    _adequacy("adequate", "classic", _OfElement(), element=True),
    _adequacy("feckly_adequate", "feckly", _OfElement(), element=True),
    _adequacy("adequate_cvariant", "cvariant", _OfElement(), element=True),
    _Predicate("semiregular", _Semiregular()),
    _adequacy("zero_adequate", "classic"),
    _adequacy("feckly_zero_adequate", "feckly"),
    _Predicate("stable_range_1", _COMAX_PAIRS, _stable_range_1, "y"),
    _Predicate("idempotents_lift_mod_J", _QUASI_IDEMPOTENTS, _lifts, "e",
               "idempotents"),
    _Predicate("t216_cond2", _COMAX_PAIRS, _unit_range, "e", "quasi_idempotents"),
    _Predicate("t216_cond3", _ELEMENTS, _clean_meet, "e", "quasi_idempotents"),
    _Predicate("c217_cond2", _COMAX_PAIRS, _unit_range, "e", "idempotents"),
    _Predicate("c217_cond3", _ELEMENTS, _clean_meet, "e", "idempotents"),
    _Predicate("feckly_adequate_range_1", _COMAX_PAIRS, _feckly_adequate_range_1,
               "y"),
    _adequacy("everywhere_adequate", "classic", _EveryElement()),
)}

RING_PREDICATES = tuple(name for name, p in _REGISTRY.items() if p.ring)
ELEMENT_PREDICATES = tuple(name for name, p in _REGISTRY.items() if p.element)


# ---------------------------------------------------------------------------
# public predicates and witnesses
# ---------------------------------------------------------------------------


def element_predicate(cache: EngineCache, a: Element, predicate: str) -> PropertyResult:
    """Decide one element-level predicate, attaching a re-verifiable payload.

    A positive witness names its element (``"element"``), so ``reverify``
    can tell it from the ring-level result of the same predicate name.
    """
    if predicate not in ELEMENT_PREDICATES:
        raise ValueError(f"unknown element predicate {predicate!r}")
    p = _REGISTRY[predicate]
    return p.domain.element(p, cache, cache.index_of(a))


def ring_predicate(cache: EngineCache, predicate: str) -> PropertyResult:
    """Decide one ring-level predicate by exhaustive search with witnesses."""
    if predicate not in RING_PREDICATES:
        raise ValueError(f"unknown ring predicate {predicate!r}")
    p = _REGISTRY[predicate]
    return p.domain.decide(p, cache)


def adequate_witness_single(cache: EngineCache, cval: Element, target: Element,
                            variant: str = "classic") -> AdequateWitness | None:
    """Single-target adequacy witness, or None after an exhaustive search.

    The witness is re-checked by the adequacy check before it is returned;
    a failure raises ReverifyFailed.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown adequacy variant {variant!r}")
    c = cache
    ic, it = c.index_of(cval), c.index_of(target)
    w = _adequacy_search(variant, ic, c)(it)
    if w is None:
        return None
    if not _adequate(variant, ic, c)(it, w):
        raise ReverifyFailed(
            f"{c.ring.spec_string()}: adequacy witness of {c.names[ic]} against "
            f"{c.names[it]} failed re-verification")
    return _adequate_witness(c, it, variant, w)


def _adequate_witness(c: EngineCache, target: int, variant: str,
                      w: tuple) -> AdequateWitness:
    r, s, j, x, y = map(c.element, w)
    return AdequateWitness(target=c.element(target), r=r, s=s, variant=variant,
                           j=j, comax_x=x, comax_y=y)


def pi_regular_decomposition(cache: EngineCache, a: Element) -> PiRegularWitness:
    """Decompose a^n = e*u + w with e = a^n*b and u = 1 - a^n*b + a^n.

    Searches the least exponent n and multiplier b with a^n - a^n*b*a^n in
    the radical, then applies the closed formulas and re-verifies every
    identity. Raises NoDecomposition when the search is exhausted.
    """
    c = cache
    i = c.index_of(a)
    res = _searcher(_REGISTRY["pi_regular_mod_J"], c)(i)
    if res is None:
        raise NoDecomposition(
            f"{c.ring.spec_string()}: no pi-regular decomposition for "
            f"{c.ring.format_element(a)}")
    n_exp, b = res
    n = c.n
    power = _power(c, i, n_exp)
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
    (r = 1 - e, s = e) and taken when the ``feckly_zero_adequate`` check
    accepts it; otherwise found by the definition search. Raises NotFZA
    when no witness exists at all.
    """
    c = cache
    i = c.index_of(a)
    try:
        e = c.index_of(pi_regular_decomposition(c, a).e)
        w = _adequacy_witness(c, c.zero, i, c.sub(c.one, e), e)
        if w is not None and _REGISTRY["feckly_zero_adequate"].check(c)(i, w):
            return _adequate_witness(c, i, "feckly", w)
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


def _same_result(a: PropertyResult, b: PropertyResult) -> bool:
    return (a.verdict == b.verdict and a.witness == b.witness
            and a.counterexample == b.counterexample)


def reverify(cache: EngineCache, result: PropertyResult) -> bool:
    """Re-check a PropertyResult payload by direct ring arithmetic.

    Positive verdicts are accepted only if the stored witnesses cover the
    predicate's whole domain and each satisfies its defining identity;
    negative verdicts only if the counterexample is in the domain and a
    re-run of its exhaustive search finds no witness. ``semiregular``
    re-checks its parts, and ``j_characterization`` is decided again and
    compared. An element-level result (its payload names the element) is
    checked for that element only. Unknown or malformed payloads fail.
    """
    try:
        return _verify(cache, result)
    except (KeyError, ValueError, TypeError, AttributeError, ParseError):
        return False


def _verify(c: EngineCache, result: PropertyResult) -> bool:
    if result.predicate == "j_characterization":
        return _same_result(result, j_characterization_check(c))
    p = _REGISTRY[result.predicate]
    named = result.witness if result.verdict else result.counterexample
    if p.element and (not p.ring or "element" in named):
        return p.domain.verify_element(p, c, result)
    return p.ring and p.domain.verify(p, c, result)
