"""Exhaustive predicate engine for finite rings.

Every predicate is one entry of a registry (``_REGISTRY``): a domain, a
check and a search. The check is the predicate's defining identity, in
cache-index arithmetic; witnesses come from the entry's pool (every
element, the idempotents or the quasi-idempotents), and reverify rejects
one from outside it. The search finds witnesses: by default the first
candidate, in enumeration order, that the check accepts, so repeated runs
produce identical reports.

The domain is the predicate's quantifier. There are six, each with a
named payload and rows of cache indices:

* every element: ``{"map": {a: w}}``, rows (a, w), counterexample ``{"a"}``;
* the quasi-idempotents: ``{"map": {x: w}}``, the same, counterexample ``{"x"}``;
* the comaximal pairs: ``{"pairs": [{"a", "b", "y" or "e"}]}``, rows (a, b, w);
* all n^2 pairs (``hermite``), listed the same way;
* one pair per two principal-ideal classes (``bezout``), the same way;
* adequacy targets: ``{"targets": {t: {r, s, j, x, y}}}``, rows
  (t, r, s, j, x, y), which ``everywhere_adequate`` nests per element.

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

A positive payload lives in two forms. The search emits rows, and the
``PropertyResult`` keeps them with its cache's ``names`` list. The first
read of ``witness`` (or ``to_json``) formats the named payload, which is
the public form, and drops the rows, so that a later ``reverify`` sees the
payload as the caller holds it, edits included; a copy or a pickle takes
the named payload too. The check runs on rows only. ``reverify`` hands it
the kept rows when they are rows of the cache it is given (``names is
c.names``), and otherwise the named payload parsed on that cache by the
domain's one parser; a payload that does not parse is rejected. So rows
never meet another cache's tables, and the search's own names are never
parsed back in process: the name bijection (``EngineCache.parsed`` inverts
``EngineCache.names``) is what the tests check for that. Counterexamples
name one item and stay in named form.

The domains of n^2 items run row by row: pair domains one first
coordinate a at a time, adequacy targets one element c at a time. A pair
predicate's search and check bind per row what depends on a alone (the
offset a*n, flags such as "a + v is a unit" for every v), and per ideal
class of a what depends only on aR: the pool witnesses that meet a in the
radical, as a list and as the set the check tests membership against.
That is exact because the meet aR intersect wR is already memoized per
pair of classes. So per entry only table lookups and one tuple remain. A
row's check tests each witness for pool membership and the identity; the
domain then tests membership of each pair and that the rows cover the
domain, each pair once. ``hermite`` runs ``EngineCache.bezout_row`` on
each row, which builds its search state once per ideal class of b; its
n^2 results stay out of the memo of ``EngineCache.bezout``, the reducer's
single-pair case.

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
target): the non-units t with s in tR depend only on sR, and the cache
keeps them as one ``nonunit_divisors`` row per class. Both memos
therefore return exactly what the unmemoized search would. By the same
argument a targets row names r, s, j = c - r*s and x (the first one with
1 - r*x in tR) once per ideal class of the target t, and looks up only y,
the multiplier of t, per target; and c is adequate against every target
iff it is against one target per class. Principal ideals come from the
cache's class layer, which interns every ideal once, so the ``bezout``
check dR = aR + bR compares ideal ids, not sets.

``_adequate_flags`` also takes one c per class: the least generator of
each class, against one target per class, k^2 searches for k classes
instead of n*k, and copies the verdict to every element of the class. That
is exact because aR = bR makes a and b associates. If b = a*x and
a = b*y, then a = a*x*y, so a*(1 - x*y) = 0; and x*y + (1 - x*y) = 1, so
xR + (1 - x*y)R = R. Every finite ring has stable range 1, so
u = x + (1 - x*y)*t is a unit for some t, and then
a*u = a*x + a*(1 - x*y)*t = b. Now if (r, s) witnesses adequacy of c
against a target, then (u*r, s) witnesses it for u*c, in all three
variants: u*c - (u*r)*s = u*(c - r*s) is 0, or in J when c - r*s is; u*r
is comaximal with the target exactly when r is; and clause (3) reads only
s and the class of the target, or of c, which u*c shares. The unit u^-1
carries witnesses back, so every element of a class has the flag of its
least generator.

The adequacy search looks its candidate s up instead of scanning r's mul
row. The acceptable s for r are those with r*s in c + I, I = 0 (classic,
cvariant) or J (feckly): the radical is closed under negation, so the
products c - j with j in J are the coset c + J. For a unit r they are the
coset r^-1*c + I, since r^-1*I = I: one element for I = 0, and for I = J
one member list of the cache's ``jac_cosets``. Any other r reads its
preimage map, keyed by value or by the least element of a J-coset
(``EngineCache._preimages``). r still runs over ``comax[target]``
ascending and each candidate list is ascending in s, so the first (r, s)
is the one a scan of the rows would find. The classic variant builds no
per-cache table; its unit candidates cost one multiplication each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import compress, groupby
from operator import itemgetter
from typing import Any, Callable, Iterator, NamedTuple

from .cache import DEFAULT_SIZE_BOUND, EngineCache
from .errors import (AxiomViolation, NotBezout, ParseError, ReverifyFailed,
                     TooLarge)
from .rings import Element, Ring

_VARIANTS = ("classic", "feckly", "cvariant")


class PropertyResult:
    """Verdict plus re-verifiable payload for one predicate on one ring.

    A positive result of ``ring_predicate`` or ``element_predicate`` keeps
    its witness as index rows with its cache's ``names`` until the first
    read of ``witness`` (or ``to_json``) formats the named payload; see the
    module docstring.
    """

    _kept = None  # (names, rows, element level), until the witness is read

    def __init__(self, predicate: str, verdict: bool, witness: Any = None,
                 counterexample: Any = None, exercised: dict | None = None):
        self.predicate, self.verdict, self._witness = predicate, verdict, witness
        self.counterexample = counterexample
        self.exercised = {} if exercised is None else exercised

    @property
    def witness(self) -> Any:
        if self._kept is not None:
            names, rows, element = self._kept
            p = _REGISTRY[self.predicate]
            self._witness, self._kept = p.domain.format(p, names, rows, element), None
        return self._witness

    @witness.setter
    def witness(self, value: Any) -> None:
        self._witness, self._kept = value, None

    def _fields(self) -> tuple:
        return (self.predicate, self.verdict, self.witness, self.counterexample,
                self.exercised)

    def __getstate__(self) -> dict:
        self.witness  # a copy or a pickle takes the named payload, never the rows
        return self.__dict__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PropertyResult):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return f"PropertyResult{self._fields()!r}"

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
        return dict(zip("rsjxy", map(ring.format_element, values)))


@dataclass(frozen=True)
class PiRegularWitness:
    """Decomposition a^n = e*u + w with e - e^2 and w in the radical."""

    n: int
    b: Element
    e: Element
    u: Element
    w: Element


def _count(n: int) -> str:
    """``n`` in decimal, or the largest power of two at most ``n`` when
    ``n`` has more digits than ``sys.get_int_max_str_digits()`` allows to
    print."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"


def build_cache(ring: Ring, bound: int = DEFAULT_SIZE_BOUND) -> EngineCache:
    """The ring handle's index cache, the only way a handle gets one.

    This is the one place that compares a ring's size with a bound. The
    first call refuses an infinite ring, or one past ``bound``, with
    TooLarge, builds the tables, and keeps the cache on the handle only
    once the radical is an ideal and the units are closed under
    multiplication. A later call returns the held cache as it is, whatever
    ``bound`` it passes: the tables exist, and the run that built them
    chose their bound.
    """
    cache = getattr(ring, "_cache_obj", None)
    if cache is not None:
        return cache
    if ring.cardinality is None:
        raise TooLarge(f"{ring.spec_string()} is infinite")
    if ring.cardinality > bound:
        raise TooLarge(f"{ring.spec_string()} has {_count(ring.cardinality)} "
                       f"elements, bound is {bound}")
    cache = EngineCache(ring)
    n, add, mul = cache.n, cache.add, cache.mul
    jac, units = cache.jac, cache.units
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
    ring._cache_obj = cache
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
        got = all(not comax_t[sp] for sp in c.nonunit_divisors[key[0]])
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
    """r ascending over ``comax[target]``, then the s with r*s in cval + I
    ascending, I = 0 or J: the first pair whose s passes clause (3). The s
    are looked up, not scanned; see the module docstring."""
    n, mul, inverse = c.n, c.mul, c.units
    feckly = variant == "feckly"
    if feckly:
        least, members = c.jac_cosets
        key = least[cval]
    else:
        key = cval
    anchor = cval if variant == "cvariant" else target
    anchored, cls = c._ext.setdefault("anchored", {}), c.ideal_class
    anchor_cls = cls[anchor]
    for r in compress(range(n), c.comax[target]):
        r_inv = inverse.get(r)
        if r_inv is None:
            candidates = c._preimages(r, feckly).get(key, ())
        elif feckly:
            candidates = members[least[mul[r_inv * n + cval]]]
        else:
            candidates = (mul[r_inv * n + cval],)
        for s in candidates:
            got = anchored.get((cls[s], anchor_cls))  # ``_anchored``'s memo hit
            if got is None:
                got = _anchored(c, s, anchor)
            if got:
                return r, s
    return None


def _adequate_flags(c: EngineCache, variant: str) -> list[bool]:
    """Per element: adequate against every target (memoized per variant).

    The least generator of each ideal class, against one target per class,
    decides it for the whole class; see the module docstring.
    """
    key = ("adequate_flags", variant)
    got = c._ext.get(key)
    if got is None:
        reps = [gens[0] for gens in c.class_gens]
        per_class = [all(_adequate_pair_idx(c, g, t, variant) is not None for t in reps)
                     for g in reps]
        got = c._ext[key] = list(map(per_class.__getitem__, c.ideal_class))
    return got


def _adequacy_witness(c: EngineCache, cval: int, target: int, r: int,
                      s: int) -> tuple[int, ...] | None:
    """(r, s, j, x, y) with j = cval - r*s and r*x + target*y = 1, or None
    if r and the target are not comaximal."""
    wit = c.comax_witness(r, target)
    if wit is None:
        return None
    return (r, s, c.sub(cval, c.mul[r * c.n + s])) + wit


def _adequate(variant: str, cval: int, c: EngineCache) -> Callable:
    """holds(target, r, s, j, x, y): the adequacy of cval against a target.

    (1) cval - r*s = j, with j = 0 (classic, cvariant) or j in J (feckly);
    (2) r*x + target*y = 1; (3) every non-unit divisor of s is
    non-comaximal with the target (with cval for the cvariant).
    """
    n, add, mul, neg, one = c.n, c.add, c.mul, c.neg, c.one
    crow = cval * n
    allowed_j = c.jac if variant == "feckly" else {c.zero}
    fixed = cval if variant == "cvariant" else None
    anchored, cls = c._ext.setdefault("anchored", {}), c.ideal_class

    def holds(t: int, r: int, s: int, j: int, x: int, y: int) -> bool:
        if not (add[crow + neg[mul[r * n + s]]] == j and j in allowed_j
                and add[mul[r * n + x] * n + mul[t * n + y]] == one):
            return False
        anchor = t if fixed is None else fixed
        got = anchored.get((cls[s], cls[anchor]))  # ``_anchored``'s memo hit
        return _anchored(c, s, anchor) if got is None else got
    return holds


def _adequacy_table(c: EngineCache, variant: str, cval: int) -> tuple[list, Any]:
    """The targets table of cval: ([(t, r, s, j, x, y)] for every target t,
    None), or (None, the first target without a witness).

    r, s, j and x are found once per ideal class of the target, y per
    target; see the module docstring for why that is exact.
    """
    n, add, mul, neg = c.n, c.add, c.mul, c.neg
    cls, inverse, per_class, out = c.ideal_class, c.units, {}, []
    pre, pre_memo = c._preimages, c._preimage_memo
    for t in _indices(c):
        got = per_class.get(cls[t])
        if got is None:
            pair = _adequate_pair_idx(c, cval, t, variant)
            if pair is None:
                return None, t
            r, s = pair
            x = c.comax_witness(r, t)[0]
            got = per_class[cls[t]] = (r, s, add[cval * n + neg[mul[r * n + s]]], x,
                                       add[c.one * n + neg[mul[r * n + x]]])
        r, s, j, x, v = got
        t_inv = inverse.get(t)  # ``divides(t, v)`` inlined
        y = (pre_memo.get(t) or pre(t))[v][0] if t_inv is None else mul[t_inv * n + v]
        out.append((t, r, s, j, x, y))
    return out, None


def _adequacy_table_holds(c: EngineCache, variant: str, cval: int,
                          table: list) -> bool:
    """Every row of a targets table holds, and they are the n targets, each once."""
    holds = _adequate(variant, cval, c)
    return (all(holds(*row) for row in table)
            and _covers([row[0] for row in table], c.n))


def _named_targets(names: list[str], table: list) -> dict:
    return {names[t]: {"r": names[r], "s": names[s], "j": names[j], "x": names[x],
                       "y": names[y]} for t, r, s, j, x, y in _drain(table)}


def _parsed_targets(parsed, named: dict) -> list:
    return [(parsed[t], *map(parsed.__getitem__, map(w.__getitem__, "rsjxy")))
            for t, w in named.items()]


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
    sub, units = c.sub, c.units
    return lambda a, e: sub(a, e) in units


def _clean_meet(c: EngineCache) -> Callable:
    """a - e is a unit and aR intersect eR lies in the radical."""
    sub, units, meets = c.sub, c.units, _meet_in_radical(c)
    return lambda a, e: sub(a, e) in units and meets(a, e)


def _lifts(c: EngineCache) -> Callable:
    """x - e lies in the radical."""
    sub, jac = c.sub, c.jac
    return lambda x, e: sub(x, e) in jac


def _meet_in_radical(c: EngineCache) -> Callable:
    """meets(a, e): aR intersect eR lies in the radical (memoized per
    pair of ideal classes)."""
    memo, cls, jac = c._ext.setdefault("meet_radical", {}), c.ideal_class, c.jac

    def meets(a: int, e: int) -> bool:
        key = (cls[a], cls[e])
        got = memo.get(key)
        if got is None:
            got = memo[key] = (c.ideal_set(key[0]) & c.ideal_set(key[1])) <= jac
        return got
    return meets


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


def _power_fields(names, w) -> dict:
    return {"n": w[0], "b": names[w[1]]}


def _power_values(parsed, rec) -> tuple[int, int]:
    k = rec["n"]
    if type(k) is not int or k < 1:
        raise ValueError(f"exponent {k!r} is not a positive int")
    return k, parsed[rec["b"]]


# Row kernels of the pair domains: search(c) binds fill(a, bs, out), which
# appends the index row (a, b, *witness) of each b in bs to out and returns
# the first b without a witness (None if there is none); check(c) binds
# holds(a, rows), the b of each row, or None if a witness is outside the
# pool or fails. ``field`` names the witness values of a row after a and b.


def _range_kernels(letter: str, pool: str, flags: Callable, meet: bool = False) -> dict:
    """a + b*w lies in the set ``flags(c)`` marks (the units, or the feckly
    adequate elements), for w from ``pool``; with ``meet``, aR intersect wR
    also lies in the radical."""
    def bind(c):
        n, add, mul = c.n, c.add, c.mul
        marked, wits, cls = flags(c), _pool(c, pool), c.ideal_class
        meets = _meet_in_radical(c) if meet else None
        usable = {}  # ideal class of a (or None) -> the usable witnesses, list and set

        def row(a):  # good[v]: a + v is marked; the witnesses usable in row a
            good = list(map(marked.__getitem__, add[a * n:a * n + n]))
            key = cls[a] if meet else None
            got = usable.get(key)
            if got is None:
                cands = [w for w in wits if meets(a, w)] if meet else wits
                got = usable[key] = cands, set(cands)
            return good, got

        def fill(a, bs, out):
            good, (cands, _) = row(a)
            for b in bs:
                brow = b * n
                for w in cands:
                    if good[mul[brow + w]]:
                        break
                else:
                    return b
                out.append((a, b, w))
            return None

        def holds(a, rows):
            good, (_, allowed) = row(a)
            bs = []
            for _, b, w in rows:
                if w not in allowed or not good[mul[b * n + w]]:
                    return None
                bs.append(b)
            return bs
        return holds, fill
    return {"check": lambda c: bind(c)[0], "search": lambda c: bind(c)[1],
            "field": (letter,)}


def _units(c: EngineCache) -> list[bool]:
    return list(map(c.units.__contains__, range(c.n)))


def _hermite(c: EngineCache) -> Callable:
    """a = a1*d, b = b1*d and a1*u + b1*v = 1."""
    n, add, mul, one = c.n, c.add, c.mul, c.one

    def holds(a, rows):
        bs = []
        for _, b, d, a1, b1, u, v in rows:
            if not (mul[a1 * n + d] == a and mul[b1 * n + d] == b
                    and add[mul[a1 * n + u] * n + mul[b1 * n + v]] == one):
                return None
            bs.append(b)
        return bs
    return holds


def _hermite_search(c: EngineCache) -> Callable:
    row = c.bezout_row

    def fill(a, bs, out):
        start = len(out)
        try:
            for b, (d, _, _, a1, b1, u, v) in zip(bs, row(a, bs)):
                out.append((a, b, d, a1, b1, u, v))
        except NotBezout:
            return bs[len(out) - start]
        return None
    return fill


def _bezout(c: EngineCache) -> Callable:
    """dR = aR + bR."""
    cls = c.ideal_class

    def holds(a, rows):
        bs = []
        for _, b, d in rows:
            if cls[d] != c.sum_ideal_id(cls[a], cls[b]):
                return None
            bs.append(b)
        return bs
    return holds


def _bezout_search(c: EngineCache) -> Callable:
    cls, sums = c.ideal_class, c.class_sum_gens

    def fill(a, bs, out):
        for b in bs:
            gens = sums[cls[a]][cls[b]]
            if not gens:
                return b
            out.append((a, b, gens[0]))
        return None
    return fill


# ---------------------------------------------------------------------------
# domains: search, check, payload and coverage
# ---------------------------------------------------------------------------


def _indices(c: EngineCache) -> list[int]:
    """0, ..., n-1 as the int objects of the add table's zero row, so that
    index rows share them instead of holding n^2 new ints past 256."""
    return c.add[c.zero * c.n:(c.zero + 1) * c.n]


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


def _covers(keys: list, size: int) -> bool:
    """True iff ``keys`` are pairwise distinct and exactly ``size`` many."""
    return len(keys) == size and len(set(keys)) == size


def _drain(rows: list) -> Iterator:
    """The rows in order, each removed from the list as it is read, so that
    the payload formatted from them reuses their memory."""
    rows.reverse()
    rows.insert(0, None)
    return iter(rows.pop, None)


def _keep(p: _Predicate, c: EngineCache, rows: Any, exercised: dict,
          element: bool = False) -> PropertyResult:
    """A positive result holding its witness as index rows of ``c``."""
    res = PropertyResult(p.name, True, exercised=exercised)
    res._kept = (c.names, rows, element)
    return res


def _rows(p: _Predicate, c: EngineCache, result: PropertyResult, element: bool):
    """The index rows of a positive result: the kept ones if ``c`` made
    them, else its named payload parsed on ``c``."""
    kept = result._kept
    if kept is not None and kept[0] is c.names:
        return kept[1]
    return p.domain.parse(p, c, result.witness, element)


class _Domain(NamedTuple):
    """Elements that each carry one witness: ``{"map": {a: witness}}``, rows
    (a, w). A counterexample names one item, ``{letter: name}``.
    """

    items: Callable                 # c -> the items, in enumeration order
    size: Callable                  # c -> the number of items
    exercised: Callable             # (c, items searched, verdict) -> dict
    letter: str = "a"
    member: Callable | None = None  # (c, item) -> bool, if not every item

    def decide(self, p: _Predicate, c: EngineCache) -> PropertyResult:
        search, rows = _searcher(p, c), []
        for count, item in enumerate(self.items(c), 1):
            w = search(item)
            if w is None:
                return PropertyResult(p.name, False,
                                      counterexample={self.letter: c.names[item]},
                                      exercised=self.exercised(c, count, False))
            rows.append((item, w))
        return _keep(p, c, rows, self.exercised(c, len(rows), True))

    def element(self, p: _Predicate, c: EngineCache, a: int) -> PropertyResult:
        """One element: ``{"element", **witness fields}``, the row (a, w), or
        a counterexample."""
        w = _searcher(p, c)(a)
        tally = p.tally(c, w) if p.tally else {}
        if w is None:
            return PropertyResult(p.name, False, exercised=tally,
                                  counterexample={self.letter: c.names[a]})
        return _keep(p, c, [(a, w)], tally, element=True)

    def format(self, p: _Predicate, names: list[str], rows: list, element: bool) -> dict:
        value = names.__getitem__ if p.field else partial(p.fields, names)
        if element:
            (a, w), = rows
            return {"element": names[a], **({p.field: value(w)} if p.field else value(w))}
        return {"map": {names[a]: value(w) for a, w in _drain(rows)}}

    def parse(self, p: _Predicate, c: EngineCache, witness: dict, element: bool) -> list:
        parsed = c.parsed
        value = parsed.__getitem__ if p.field else partial(p.values, parsed)
        if element:
            return [(parsed[witness["element"]],
                     value(witness[p.field] if p.field else witness))]
        return [(parsed[a], value(w)) for a, w in witness["map"].items()]

    def verify(self, p: _Predicate, c: EngineCache, result: PropertyResult,
               element: bool = False) -> bool:
        member = self.member
        if not result.verdict:
            item = c.parsed[result.counterexample[self.letter]]
            return (member is None or member(c, item)) and _searcher(p, c)(item) is None
        check, rows = p.check(c), _rows(p, c, result, element)
        pool = None if p.pool == "elements" else getattr(c, p.pool)
        for item, w in rows:
            if not ((member is None or member(c, item)) and (pool is None or w in pool)
                    and check(item, w)):
                return False
        return element or _covers([item for item, _ in rows], self.size(c))


class _Pairs(NamedTuple):
    """Pairs (a, b), decided and re-verified one row a at a time.

    A payload lists ``{"a", "b", **witness fields}``, rows (a, b, *w), in
    row order; a counterexample names one pair plus ``extra`` fields, which
    ``refutes`` re-checks. The rows must cover the domain, each ``key``
    once: the pair itself unless the domain says otherwise.
    """

    rows: Callable                  # c -> [(a, the b of row a)], in enumeration order
    exercised: Callable             # (c, pairs searched, pairs in all, verdict) -> dict
    member: Callable = lambda c, a, bs: True
    key: Callable = lambda c, a, bs: map((a * c.n).__add__, bs)
    extra: Callable = lambda c, a, b: {}
    refutes: Callable = lambda c, a, b, bad: True

    def decide(self, p: _Predicate, c: EngineCache) -> PropertyResult:
        fill, out, rows = p.search(c), [], self.rows(c)
        total = sum(len(bs) for _, bs in rows)
        for a, bs in rows:
            b = fill(a, bs, out)
            if b is not None:
                names = c.names
                return PropertyResult(
                    p.name, False,
                    counterexample={"a": names[a], "b": names[b], **self.extra(c, a, b)},
                    exercised=self.exercised(c, len(out) + 1, total, False))
        return _keep(p, c, out, self.exercised(c, total, total, True))

    def format(self, p: _Predicate, names: list[str], rows: list, element: bool) -> dict:
        # dict displays for one or five values: ``dict(zip(...))`` is 5x slower
        if len(p.field) == 1:
            k, = p.field
            return {"pairs": [{"a": names[a], "b": names[b], k: names[w]}
                              for a, b, w in _drain(rows)]}
        kd, ka1, kb1, ku, kv = p.field
        return {"pairs": [{"a": names[a], "b": names[b], kd: names[d], ka1: names[a1],
                           kb1: names[b1], ku: names[u], kv: names[v]}
                          for a, b, d, a1, b1, u, v in _drain(rows)]}

    def parse(self, p: _Predicate, c: EngineCache, witness: dict, element: bool) -> list:
        get, keys = c.parsed.__getitem__, ("a", "b", *p.field)
        return [tuple(map(get, map(e.__getitem__, keys))) for e in witness["pairs"]]

    def verify(self, p: _Predicate, c: EngineCache, result: PropertyResult,
               element: bool = False) -> bool:
        parsed = c.parsed
        if not result.verdict:
            bad = result.counterexample
            a, b = parsed[bad["a"]], parsed[bad["b"]]
            return (self.member(c, a, [b]) and p.search(c)(a, [b], []) is not None
                    and self.refutes(c, a, b, bad))
        holds, keys, count = p.check(c), set(), 0
        for a, rows in groupby(_rows(p, c, result, element), itemgetter(0)):
            bs = holds(a, rows)
            if bs is None or not self.member(c, a, bs):
                return False
            keys.update(self.key(c, a, bs))
            count += len(bs)
        return count == len(keys) == sum(len(bs) for _, bs in self.rows(c))


def _comax_rows(c: EngineCache) -> list[tuple[int, list[int]]]:
    """Each a with the b comaximal with it; one b list per ideal class."""
    n, cls, comax = c.n, c.ideal_class, c.comax
    cols = [list(compress(range(n), comax[gens[0]])) for gens in c.class_gens]
    return [(a, cols[cls[a]]) for a in range(n)]


def _class_rows(c: EngineCache) -> list[tuple[int, tuple[int, ...]]]:
    """The first generator of each principal-ideal class, paired with itself
    and every later one."""
    gens = tuple(g[0] for g in c.class_gens)
    return [(g, gens[i:]) for i, g in enumerate(gens)]


def _sum_ideal(c: EngineCache, a: int, b: int) -> list[int]:
    cls = c.ideal_class
    return sorted(c.ideal_set(c.sum_ideal_id(cls[a], cls[b])))


_ELEMENTS = _Domain(lambda c: range(c.n), lambda c: c.n,
                    lambda c, count, ok: {"elements": c.n})
_QUASI_IDEMPOTENTS = _Domain(
    lambda c: _pool(c, "quasi_idempotents"), lambda c: len(c.quasi_idempotents),
    lambda c, count, ok: {"quasi_idempotents": len(c.quasi_idempotents)},
    letter="x", member=lambda c, x: x in c.quasi_idempotents)
_COMAX_PAIRS = _Pairs(_comax_rows, lambda c, count, total, ok: {"comax_pairs": count},
                      member=lambda c, a, bs: all(map(c.comax[a].__getitem__, bs)))
_ALL_PAIRS = _Pairs(lambda c: [(a, ids) for ids in [_indices(c)] for a in ids],
                    lambda c, count, total, ok: {"pairs": total},
                    extra=lambda c, a, b: {"note": "no comaximal cofactor witness"})
_CLASS_PAIRS = _Pairs(
    _class_rows,
    lambda c, count, total, ok: ({"ideal_pairs": total, "element_pairs": c.n * c.n}
                                 if ok else {"ideal_pairs": total}),
    key=lambda c, a, bs: [tuple(sorted((c.ideal_class[a], c.ideal_class[b])))
                          for b in bs],
    extra=lambda c, a, b: {"ideal": [c.names[i] for i in _sum_ideal(c, a, b)],
                           "note": "no element generates this ideal"},
    refutes=lambda c, a, b, bad: sorted(map(c.parsed.__getitem__, bad["ideal"]))
    == _sum_ideal(c, a, b))


class _Targets:
    """Adequacy of one element c against every target t, one targets table:
    ``{"targets": {t: {r, s, j, x, y}}}``, rows (c, [(t, r, s, j, x, y)]),
    counterexample ``{"target"}``. Ring level c is 0; element level the
    payload names c first.
    """

    def decide(self, p: _Predicate, c: EngineCache, cval: int | None = None
               ) -> PropertyResult:
        element, cval = cval is not None, c.zero if cval is None else cval
        table, bad = _adequacy_table(c, p.variant, cval)
        if bad is None:
            return _keep(p, c, (cval, table), {"targets": c.n}, element)
        head = {"element": c.names[cval]} if element else {}
        return PropertyResult(p.name, False, exercised={"targets": bad + 1},
                              counterexample={**head, "target": c.names[bad],
                                              "pairs_searched": c.n * c.n})

    element = decide

    def format(self, p: _Predicate, names: list[str], rows: tuple, element: bool) -> dict:
        cval, table = rows
        head = {"element": names[cval]} if element else {}
        return {**head, "targets": _named_targets(names, table)}

    def parse(self, p: _Predicate, c: EngineCache, witness: dict, element: bool) -> tuple:
        cval = c.parsed[witness["element"]] if element else c.zero
        return cval, _parsed_targets(c.parsed, witness["targets"])

    def verify(self, p: _Predicate, c: EngineCache, result: PropertyResult,
               element: bool = False) -> bool:
        if result.verdict:
            return _adequacy_table_holds(c, p.variant, *_rows(p, c, result, element))
        bad = result.counterexample
        cval = c.parsed[bad["element"]] if element else c.zero
        return _adequate_pair_idx(c, cval, c.parsed[bad["target"]], p.variant) is None


class _EveryElement:
    """The targets table of every element c: ``{"elements": {c: {t: ...}}}``,
    rows [(c, table)]."""

    def decide(self, p: _Predicate, c: EngineCache) -> PropertyResult:
        rows = []
        for cval in range(c.n):
            table, bad = _adequacy_table(c, p.variant, cval)
            if bad is not None:
                return PropertyResult(
                    p.name, False, exercised={"elements": cval + 1},
                    counterexample={"c": c.names[cval], "target": c.names[bad]})
            rows.append((cval, table))
        return _keep(p, c, rows, {"elements": c.n})

    def format(self, p: _Predicate, names: list[str], rows: list, element: bool) -> dict:
        return {"elements": {names[cval]: _named_targets(names, table)
                             for cval, table in _drain(rows)}}

    def parse(self, p: _Predicate, c: EngineCache, witness: dict, element: bool) -> list:
        parsed = c.parsed
        return [(parsed[cval], _parsed_targets(parsed, table))
                for cval, table in witness["elements"].items()]

    def verify(self, p: _Predicate, c: EngineCache, result: PropertyResult,
               element: bool = False) -> bool:
        parsed = c.parsed
        if not result.verdict:
            bad = result.counterexample
            return _adequate_pair_idx(c, parsed[bad["c"]], parsed[bad["target"]],
                                      p.variant) is None
        rows = _rows(p, c, result, element)
        return (all(_adequacy_table_holds(c, p.variant, cval, table)
                    for cval, table in rows)
                and _covers([cval for cval, _ in rows], c.n))


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

    def verify(self, p: _Predicate, c: EngineCache, result: PropertyResult,
               element: bool = False) -> bool:
        return (all(_verify(c, part) for part in self.parts(c))
                and _same_result(result, self.decide(p, c)))


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


class _Predicate(NamedTuple):
    """One predicate: its domain, defining identity and witness search.

    On the element domains ``check(c)`` binds the identity holds(item, w)
    on one item and one witness drawn from ``pool``, and ``search(c)``
    binds find(item), a witness or None; by default the first candidate of
    ``pool`` the check accepts. A one-value witness is an element named
    ``field`` in a payload; ``fields`` and ``values`` convert a witness of
    several values. On the pair domains both are row kernels (see
    ``_range_kernels``); the adequacy domains need only the ``variant``.
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


_TARGETS = _Targets()

_REGISTRY = {p.name: p for p in (
    _Predicate("bezout", _CLASS_PAIRS, _bezout, ("d",), search=_bezout_search),
    _Predicate("hermite", _ALL_PAIRS, _hermite, ("d", "a1", "b1", "u", "v"),
               search=_hermite_search),
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
    _Predicate("adequate", _TARGETS, ring=False, element=True, variant="classic"),
    _Predicate("feckly_adequate", _TARGETS, ring=False, element=True,
               variant="feckly"),
    _Predicate("adequate_cvariant", _TARGETS, ring=False, element=True,
               variant="cvariant"),
    _Predicate("semiregular", _Semiregular()),
    _Predicate("zero_adequate", _TARGETS, variant="classic"),
    _Predicate("feckly_zero_adequate", _TARGETS, variant="feckly"),
    _Predicate("stable_range_1", _COMAX_PAIRS,
               **_range_kernels("y", "elements", _units)),
    _Predicate("idempotents_lift_mod_J", _QUASI_IDEMPOTENTS, _lifts, "e",
               "idempotents"),
    _Predicate("t216_cond2", _COMAX_PAIRS,
               **_range_kernels("e", "quasi_idempotents", _units, meet=True)),
    _Predicate("t216_cond3", _ELEMENTS, _clean_meet, "e", "quasi_idempotents"),
    _Predicate("c217_cond2", _COMAX_PAIRS,
               **_range_kernels("e", "idempotents", _units, meet=True)),
    _Predicate("c217_cond3", _ELEMENTS, _clean_meet, "e", "idempotents"),
    _Predicate("feckly_adequate_range_1", _COMAX_PAIRS,
               **_range_kernels("y", "elements",
                                lambda c: _adequate_flags(c, "feckly"))),
    _Predicate("everywhere_adequate", _EveryElement(), variant="classic"),
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
    pair = _adequate_pair_idx(c, ic, it, variant)
    if pair is None:
        return None
    return _checked_witness(c, variant, ic, it, *pair,
                            what=f"adequacy witness of {c.names[ic]}")


def _checked_witness(c: EngineCache, variant: str, cval: int, target: int,
                     r: int, s: int, what: str) -> AdequateWitness:
    """The AdequateWitness (r, s) of cval against target, once the
    variant's adequacy check passes it; ReverifyFailed names ``what``."""
    w = _adequacy_witness(c, cval, target, r, s)
    if w is None or not _adequate(variant, cval, c)(target, *w):
        raise ReverifyFailed(f"{c.ring.spec_string()}: {what} against "
                             f"{c.names[target]} failed re-verification")
    r, s, j, x, y = map(c.element, w)
    return AdequateWitness(target=c.element(target), r=r, s=s, variant=variant,
                           j=j, comax_x=x, comax_y=y)


def pi_regular_decomposition(cache: EngineCache, a: Element) -> PiRegularWitness:
    """Decompose a^n = e*u + w with e = a^n*b and u = 1 - a^n*b + a^n.

    Takes the least exponent n and multiplier b with a^n - a^n*b*a^n in
    the radical, then applies the closed formulas. The search always finds
    one. It walks the powers a, a^2, ... until one repeats, so it visits
    every member of their cycle {a^m, ..., a^(m+p-1)}. The cycle is closed
    under multiplication and is a cyclic group whose identity is an
    idempotent a^k; its member a^m has an inverse b in it, and then
    a^m*b*a^m = a^m exactly. The decomposition is re-checked all the
    same (u a unit; e - e^2, w in the radical; a^n = e*u + w), and a
    rejected one raises ReverifyFailed.
    """
    c = cache
    i = c.index_of(a)
    n_exp, b = _searcher(_REGISTRY["pi_regular_mod_J"], c)(i)
    n = c.n
    power = _power(c, i, n_exp)
    e = c.mul[power * n + b]
    u = c.add[c.sub(c.one, e) * n + power]
    w = c.sub(power, c.mul[e * n + u])
    if not (u in c.units and c.sub(e, c.mul[e * n + e]) in c.jac and w in c.jac
            and c.add[c.mul[e * n + u] * n + w] == power):
        raise ReverifyFailed(f"{c.ring.spec_string()}: pi-regular decomposition "
                             f"of {c.names[i]} failed re-verification")
    mk = c.element
    return PiRegularWitness(n=n_exp, b=mk(b), e=mk(e), u=mk(u), w=mk(w))


def fza_witness(cache: EngineCache, a: Element) -> AdequateWitness:
    """Feckly-adequacy witness of c = 0 against the target ``a``: r = 1 - e
    and s = e, with e = a^n*b from ``pi_regular_decomposition``.

    It passes the check in every finite commutative ring, where R/J is a
    product of fields (Atiyah-Macdonald, Thm 8.7). There a^n - a^n*b*a^n in
    J makes e, mod J, 1 where a is nonzero and 0 elsewhere. So (1) r*s =
    e - e^2 lies in J; (2) r + a*(a^(n-1)*b) = 1; (3) a divisor t of s that
    is comaximal with a is nonzero mod J where a is nonzero (t divides e)
    and where a is zero (tR + aR = R): a unit mod J, and so a unit. The
    same argument shows that u = 1 - e + a^n is a unit. The witness is
    re-checked all the same: a rejected one raises ReverifyFailed, as in
    ``adequate_witness_single``.
    """
    c = cache
    i = c.index_of(a)
    e = c.index_of(pi_regular_decomposition(c, a).e)
    return _checked_witness(c, "feckly", c.zero, i, c.sub(c.one, e), e,
                            what="feckly zero-adequacy witness")


def j_characterization_check(cache: EngineCache) -> PropertyResult:
    """Compare J(R) with the set of x whose difference with every unit is a unit."""
    c = cache
    units = c.units
    alt = frozenset(x for x in range(c.n) if all(c.sub(x, u) in units for u in units))
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
    if result._kept is not None:
        element = result._kept[2]
    else:
        named = result.witness if result.verdict else result.counterexample
        element = p.element and (not p.ring or "element" in named)
    return (p.ring or element) and p.domain.verify(p, c, result, element)
