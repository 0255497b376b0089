"""Index-level structure cache for finite rings.

``EngineCache`` enumerates a finite ring once, assigns every element an
index, and precomputes flat addition/multiplication tables. Everything the
predicate engine and the reduction pipeline need on finite rings (units,
Jacobson radical, idempotents, principal ideals with multiplier witnesses,
comaximality, Bezout gcd search) is then pure integer-index arithmetic.

The tables come from the additive structure, not from n² calls of the
ring's own ``_add`` and ``_mul`` (``_build_tables``), by the library's one
additive generating set G, ``additive_generators``, which the table-file
axiom check (``concrete._check_table_axioms``) also uses. Scanning the
indices upward, each element not yet in the subgroup H spanned by the
earlier picks becomes a generator g, and a breadth-first walk along
y = g' + x, g' in G, closes the reached set again. It then holds H and
the coset g + H, disjoint from H, so each pick at least doubles it and
|G| <= log2 n: one generator for Zn, at most two for a product of two
cyclic rings and ``deg`` for polyq. Every element y other than 0 is
reached once, from a parent x reached before it and a generator g with
y = g + x, and its rows follow from its parent's:

* add[y][a] = (g + x) + a = g + add[x][a], a lookup in the column g + ·;
* mul[y][a] = (g + x)·a = g·a + mul[x][a], a lookup in the add table.

The rows of 0 are 0 + a = a and 0·a = 0. So a build makes 2·n·|G| ring
calls (g + a and g·a for every generator g and element a) plus n² list
lookups. The result equals the pairwise table entry for entry in any
ring, because it uses only ring axioms (associativity of + and
distributivity), and every finite ring built here is one: Zn, prod and
polyq by construction, table files by the exhaustive axiom check at load,
and quotients by the ideal check in ``concrete.quotient_ring``. A table
ring built with ``verify=False`` is trusted to be a ring: if it is not,
its cache tables are not its given tables.

Heavy artifacts are built lazily and memoized on the cache. Distinct
elements often generate the same principal ideal, so principal ideals
are kept per class: one pass (``ideal_class``) reads each mul row once as
the set aR and interns it in a registry of one set per ideal, which
``ideal_set`` and ``generators_of`` read by id. ``sum_ideal_id`` is the
one place that forms an ideal sum and interns it too, so equal ideals
have equal ids. It forms I1 + I2, I1 the larger, as a union of I1-cosets
I1 + y, one per y of I2 not yet in the union: a y already in it lies in
a coset already added, so the union is exact, and it costs about
|I2| + |I1 + I2| table reads instead of |I1|·|I2| sums. What depends on a
only through aR is kept or decided per class: ``comax`` (k·n entries for
k classes, not n²), ``nonunit_divisors``, the units (u is one iff 1 is in
uR), the radical (x is in J iff 1 - v is a unit for every v in xR) and
``associate_canon`` (the associates of a are the generators of aR, as the
``engine`` module docstring proves, so the least is the least generator).
``_preimages`` is the one preimage layer: per queried element d, the map
from a value v to every t with d*t = v, or, keyed by the least element of
a coset of the Jacobson radical J (``jac_cosets``), to every t with
d*t in v + J; the t ascending in both. ``divides`` (the first such t, or
d^-1*v for a unit d), ``bezout_row`` and ``cofactor_triple`` read the
first form, the adequacy search both. ``bezout`` is ``bezout_row`` on a
row of one pair, memoized per pair for the reducer; the engine's
exhaustive ``hermite`` search runs ``bezout_row`` one row at a time and
keeps nothing past the row, so both give one witness order.

The reducer's 2x2 kernel reaches ``bezout``, ``cofactor_triple``, ``shift``
and ``comax_witness`` through its scalar adapter. A ring handle gets its
cache only from ``engine.build_cache``, which compares the ring's size
with a bound before the tables are built and checks their structure
after; ``EngineCache`` itself takes no bound.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from functools import cached_property
from itertools import compress
from operator import add as _plus

from .errors import AxiomViolation, NotBezout, ParseError
from .rings import Element, Ring

DEFAULT_SIZE_BOUND = 4096


def additive_generators(n: int, zero: int, plus: Callable[[int], list[int]]
                        ) -> tuple[list[int], list[list[int]], list[tuple]]:
    """(G, rows, steps) of the module docstring's walk on indices 0..n-1,
    ``plus(g)[x]`` the index of g + x: rows[k] is ``plus(G[k])``, and steps
    holds each index y but ``zero`` once, in walk order, as (y, x, k) with
    y = G[k] + x and x reached before y."""
    seen = bytearray(n)
    seen[zero] = 1
    order = [zero]
    gens: list[int] = []
    rows: list[list[int]] = []
    steps = []
    for g in range(n):
        if seen[g]:
            continue
        gens.append(g)
        rows.append(plus(g))
        for x in order:  # the reached set grows while it is walked
            for k, row in enumerate(rows):
                y = row[x]
                if not seen[y]:
                    seen[y] = 1
                    order.append(y)
                    steps.append((y, x, k))
    return gens, rows, steps


def _build_tables(ring: Ring, vals: list, idx: dict, zero: int
                  ) -> tuple[list[int], list[int]]:
    """Flat add and mul tables from a generating set of the additive group.

    See the module docstring for the recurrence and why it is exact.
    """
    n = len(vals)
    _add, _mul = ring._add, ring._mul
    gens, plus, steps = additive_generators(
        n, zero, lambda g: [idx[_add(vals[g], v)] for v in vals])
    # per generator g: n * (index of g·a) for every a
    times = [[n * idx[_mul(vals[g], v)] for v in vals] for g in gens]
    add = [0] * (n * n)
    mul = [0] * (n * n)
    add[zero * n:zero * n + n] = range(n)
    mul[zero * n:zero * n + n] = [zero] * n
    for y, x, k in steps:
        row, parent = y * n, x * n
        add[row:row + n] = map(plus[k].__getitem__, add[parent:parent + n])
    # mul rows read arbitrary rows of add, so they wait for the whole table.
    add_at = add.__getitem__
    for y, x, k in steps:
        row, parent = y * n, x * n
        mul[row:row + n] = map(add_at, map(_plus, times[k], mul[parent:parent + n]))
    return add, mul


class _ParseMemo(dict):
    """Element string -> index for one cache; a miss parses the string.

    Only strings the ring's parser accepts are stored, so a rejected
    string raises again on every lookup.
    """

    def __init__(self, cache: EngineCache):
        super().__init__()
        self.cache = cache

    def __missing__(self, text):
        if not isinstance(text, str):
            raise ParseError(f"element {text!r} is not a string")
        ring = self.cache.ring
        got = self[text] = self.cache.idx[ring._canon(ring._parse(text))]
        return got


class EngineCache:
    """Exhaustive index tables for one finite ring handle."""

    def __init__(self, ring: Ring):
        self.ring = ring
        self.vals = list(ring._values())
        n = len(self.vals)
        self.idx = {v: i for i, v in enumerate(self.vals)}
        if n != ring.cardinality or len(self.idx) != n:
            raise AxiomViolation(
                f"{ring.spec_string()}: enumeration yielded {n} elements "
                f"({len(self.idx)} distinct), cardinality says "
                f"{ring.cardinality}")
        self.n = n
        self.zero = self.idx[ring._zero_raw()]
        self.one = self.idx[ring._one_raw()]
        # Flat row-major tables: op[i*n + j].
        self.add, self.mul = _build_tables(ring, self.vals, self.idx, self.zero)
        self.neg = [self.idx[ring._neg(v)] for v in self.vals]
        self._bezout_memo: dict[tuple[int, int], tuple] = {}
        self._ideal_ids: dict[frozenset[int], int] = {}  # the ideal registry
        self._ideal_sets: list[frozenset[int]] = []      # and its inverse
        self._sum_memo: dict[tuple[int, int], int] = {}
        self._comax_x_memo: dict[tuple[int, int], int] = {}
        self._preimage_memo: dict[int, dict[int, list[int]]] = {}
        self._ext: dict = {}  # scratch memo space for the predicate engine

    # --- element/index conversion -------------------------------------------

    def element(self, i: int) -> Element:
        return Element(self.ring, self.vals[i])

    def index_of(self, a: Element) -> int:
        return self.idx[self.ring._member(a)]

    def sub(self, i: int, j: int) -> int:
        return self.add[i * self.n + self.neg[j]]

    @cached_property
    def names(self) -> list[str]:
        """Formatted string of every element, in index order."""
        fmt = self.ring._format
        return [fmt(v) for v in self.vals]

    @cached_property
    def parsed(self) -> _ParseMemo:
        """Element string -> index, each string parsed once."""
        return _ParseMemo(self)

    # --- basic structure ------------------------------------------------------

    def _members(self, holds: Callable) -> Iterator[int]:
        """The elements a with holds(aR), ascending; one call per class."""
        flags = list(map(holds, self._ideal_sets[:len(self.class_gens)]))
        return compress(range(self.n), map(flags.__getitem__, self.ideal_class))

    @cached_property
    def units(self) -> dict[int, int]:
        """Unit index -> inverse index, ascending: u is a unit iff 1 is in
        uR, and its inverse is the first position of 1 in its mul row."""
        n, index, one = self.n, self.mul.index, self.one
        return {u: index(one, u * n, u * n + n) - u * n
                for u in self._members(lambda s: one in s)}

    @cached_property
    def jac(self) -> frozenset[int]:
        """Jacobson radical: x such that 1 - v is a unit for every v in xR."""
        n, add, neg, units = self.n, self.add, self.neg, self.units
        one_row = self.one * n
        # unit_after[v]: 1 - v is a unit
        unit_after = [add[one_row + neg[v]] in units for v in range(n)]
        return frozenset(self._members(lambda s: all(map(unit_after.__getitem__, s))))

    def cosets(self, subgroup: Iterable[int]
               ) -> tuple[list[int], dict[int, list[int]]]:
        """(least, members) for an additive subgroup I: least[v] is the
        least element of the coset v + I, and members maps each such least
        element to its coset, ascending, in ascending order of keys.

        Cosets partition the ring, so one upward scan finds them all: the
        first index no coset holds yet is the least element of its own, and
        every later index joins the coset marked for it, in ascending order.
        """
        n, add = self.n, self.add
        least = [-1] * n
        members = {}
        for v in range(n):
            key = least[v]
            if key < 0:  # v is the least element of a new coset
                row = v * n
                for j in subgroup:
                    least[add[row + j]] = v
                members[v] = [v]
            else:
                members[key].append(v)
        return least, members

    @cached_property
    def jac_cosets(self) -> tuple[list[int], dict[int, list[int]]]:
        """``cosets`` of the Jacobson radical J."""
        return self.cosets(self.jac)

    @cached_property
    def idempotents(self) -> frozenset[int]:
        return frozenset(i for i in range(self.n) if self.mul[i * self.n + i] == i)

    @cached_property
    def quasi_idempotents(self) -> frozenset[int]:
        """Elements e with e - e^2 in the radical."""
        n, add, neg, mul, jac = self.n, self.add, self.neg, self.mul, self.jac
        return frozenset(
            i for i in range(n) if add[i * n + neg[mul[i * n + i]]] in jac)

    # --- principal ideals -------------------------------------------------------

    @cached_property
    def ideal_class(self) -> list[int]:
        """Element index -> id of its principal ideal iR.

        The one pass of the class layer: each mul row is interned as the
        set iR, and its element joins its class in ``class_gens``. Ids
        0..k-1 number the k principal classes by least generator.
        """
        n, mul = self.n, self.mul
        cls: list[int] = []
        gens: list[list[int]] = []
        for i in range(n):
            ident = self.ideal_id_of_set(frozenset(mul[i * n:i * n + n]))
            if ident == len(gens):
                gens.append([])
            gens[ident].append(i)
            cls.append(ident)
        self.class_gens = list(map(tuple, gens))
        return cls

    @cached_property
    def class_gens(self) -> list[tuple[int, ...]]:
        """Principal class id -> its generators, ascending (filled in by
        the ``ideal_class`` pass)."""
        self.ideal_class
        return self.__dict__["class_gens"]

    def ideal_id_of_set(self, s: frozenset[int]) -> int:
        """Intern an arbitrary ideal set (registering it if new)."""
        ident = self._ideal_ids.setdefault(s, len(self._ideal_ids))
        if ident == len(self._ideal_sets):
            self._ideal_sets.append(s)
        return ident

    def ideal_set(self, ident: int) -> frozenset[int]:
        """The index set of the ideal with this id."""
        return self._ideal_sets[ident]

    def sum_ideal_id(self, id1: int, id2: int) -> int:
        """Id of the ideal I1 + I2 (memoized on ideal ids).

        With I1 the larger of the two, I1 + I2 is the union of the cosets
        I1 + y over y in I2. The union grown so far is always a union of
        I1-cosets, so a y already in it lies in a coset already added and
        is skipped. A sum then costs |I2| membership tests and |I1 + I2|
        table reads (the cosets are disjoint), not |I1|·|I2| pairwise sums.
        """
        if id1 > id2:
            id1, id2 = id2, id1
        key = (id1, id2)
        got = self._sum_memo.get(key)
        if got is not None:
            return got
        s1, s2 = self.ideal_set(id1), self.ideal_set(id2)
        if len(s1) < len(s2):
            s1, s2 = s2, s1
        n, at = self.n, self.add.__getitem__
        total: set[int] = set()
        for y in s2:
            if y not in total:
                total.update(map(at, map((y * n).__add__, s1)))
        ident = self.ideal_id_of_set(frozenset(total))
        self._sum_memo[key] = ident
        return ident

    @cached_property
    def class_sum_gens(self) -> list[list[tuple[int, ...]]]:
        """[k1][k2]: ``generators_of`` the sum of principal classes k1 and k2."""
        k = range(len(self.class_gens))
        return [[self.generators_of(self.sum_ideal_id(k1, k2)) for k2 in k] for k1 in k]

    def generators_of(self, ident: int) -> tuple[int, ...]:
        """Elements generating the ideal with this id (empty if not principal)."""
        gens = self.class_gens
        return gens[ident] if ident < len(gens) else ()

    # --- comaximality ----------------------------------------------------------

    @cached_property
    def comax(self) -> list[list[bool]]:
        """comax[i][j] is True iff iR + jR = R.

        It depends on i only through iR, so there is one row per ideal class:
        comax[i] is the row of ideal_class[i], shared by every element of
        that class, and k·n entries in all instead of n². Read it only.
        """
        cls, full = self.ideal_class, self.ideal_class[self.one]
        k = len(self.class_gens)
        rows = [[self.sum_ideal_id(c1, c2) == full for c2 in range(k)]
                for c1 in range(k)]
        rows = [list(map(row.__getitem__, cls)) for row in rows]
        return list(map(rows.__getitem__, cls))

    def comax_witness(self, i: int, j: int) -> tuple[int, int] | None:
        """First (x, y) in scan order with i*x + j*y = 1, or None.

        x is the first one with 1 - i*x in jR, so it is memoized per
        (i, ideal class of j); y is then the first multiplier of j.
        """
        if not self.comax[i][j]:
            return None
        n, add, neg, mul = self.n, self.add, self.neg, self.mul
        one_row, row = self.one * n, i * n
        key = (i, self.ideal_class[j])
        x = self._comax_x_memo.get(key)
        if x is None:
            ideal = self._ideal_sets[key[1]]
            for x in range(n):
                if add[one_row + neg[mul[row + x]]] in ideal:
                    break
            else:
                return None
            self._comax_x_memo[key] = x
        return x, self.divides(j, add[one_row + neg[mul[row + x]]])

    def triple_sum_id(self, i: int, j: int, k: int) -> int:
        """Id of the ideal iR + jR + kR.

        Reads ``sum_ideal_id``'s memo inline and calls it only on a miss:
        the reducer asks for nearly the same few sums over and over.
        """
        cls, memo = self.ideal_class, self._sum_memo
        a, b, c = cls[i], cls[j], cls[k]
        s = memo.get((a, b) if a <= b else (b, a))
        if s is None:
            s = self.sum_ideal_id(a, b)
        t = memo.get((s, c) if s <= c else (c, s))
        return self.sum_ideal_id(s, c) if t is None else t

    def triple_comax(self, i: int, j: int, k: int) -> bool:
        """True iff iR + jR + kR = R."""
        return self.triple_sum_id(i, j, k) == self.ideal_class[self.one]

    def triple_comax_witness(self, i: int, j: int, k: int) -> tuple[int, int, int] | None:
        """First (x, y, z) with i*x + j*y + k*z = 1, or None."""
        if not self.triple_comax(i, j, k):
            return None
        n, add, neg, mul = self.n, self.add, self.neg, self.mul
        one_row, i_row, j_row, divides = self.one * n, i * n, j * n, self.divides
        for x in range(n):
            r1_row = add[one_row + neg[mul[i_row + x]]] * n
            for y in range(n):
                z = divides(k, add[r1_row + neg[mul[j_row + y]]])
                if z is not None:
                    return x, y, z
        return None

    def cofactor_triple(self, a: int, b: int, c: int):
        """(g, (ta, tb, tc)): g the first generator of aR + bR + cR, and the
        first triple, in nested order over the first t of each ideal class
        with g*t = a, b and c (ascending), with taR + tbR + tcR = R. g is
        None when that ideal is not principal, the triple None when no such
        triple is comaximal."""
        cls = self.ideal_class
        gens = self.generators_of(self.triple_sum_id(a, b, c))
        if not gens:
            return None, None
        pre, full = self._preimages(gens[0]), cls[self.one]
        triple_sum_id, reps = self.triple_sum_id, []
        for v in (a, b, c):
            firsts = {}  # class -> its first t, in order of first t
            for t in pre[v]:
                firsts.setdefault(cls[t], t)
            reps.append(firsts.values())
        reps_a, reps_b, reps_c = reps
        for ta in reps_a:
            for tb in reps_b:
                for tc in reps_c:
                    if triple_sum_id(ta, tb, tc) == full:
                        return gens[0], (ta, tb, tc)
        return gens[0], None

    def shift(self, a: int, b: int, c: int) -> int | None:
        """First r with b + a*r comaximal with c, or None."""
        n, add, mul, comax_c = self.n, self.add, self.mul, self.comax[c]
        b_row, a_row = b * n, a * n
        for r in range(n):
            if comax_c[add[b_row + mul[a_row + r]]]:
                return r
        return None

    # --- divisibility ------------------------------------------------------------

    @cached_property
    def nonunit_divisors(self) -> list[tuple[int, ...]]:
        """Per ideal class of s: every non-unit t with s in tR, ascending.

        s is in tR iff sR is inside tR, and t is a unit iff 1 is in tR, so
        k² tests on class sets decide it: index it by ``ideal_class[s]``.
        """
        one = self.one
        return [tuple(self._members(lambda high: low <= high and one not in high))
                for low in self._ideal_sets[:len(self.class_gens)]]

    def divides(self, i: int, j: int) -> int | None:
        """First t with i*t = j, or None: the first of ``_preimages(i)[j]``,
        or for a unit i whose map is not built, i^-1*j, the only one."""
        pre = self._preimage_memo.get(i)  # ``_preimages``' memo hit, inline
        if pre is None and i in self.units:
            return self.mul[self.units[i] * self.n + j]
        got = (pre or self._preimages(i)).get(j)
        return got and got[0]

    # --- unit normalization ---------------------------------------------------

    @cached_property
    def associate_canon(self) -> list[tuple[int, int, int]]:
        """Per element a: (c, u, u_inv), c = u*a the least generator of aR,
        and u 1 if c = a, else the first unit t with a*t = c, i.e. with
        a = t^-1*c: one pass over the units per class finds it."""
        n, mul, one, units = self.n, self.mul, self.one, self.units
        ts, inverses = list(units)[::-1], list(units.values())[::-1]
        out: list = [None] * n
        for c, *others in self.class_gens:
            # Units walked downward: the last t written for a is the first.
            first = dict(zip(map(mul.__getitem__, map((c * n).__add__, inverses)), ts))
            out[c] = (c, one, one)
            for a in others:
                out[a] = (c, first[a], units[first[a]])
        return out

    # --- Bezout gcd -----------------------------------------------------------

    def bezout(self, ia: int, ib: int) -> tuple[int, int, int, int, int, int, int]:
        """The Bezout witness of one pair, ``bezout_row`` on the row (ib,),
        memoized per pair for the reducer."""
        key = (ia, ib)
        got = self._bezout_memo.get(key)
        if got is None:
            row: list[int] = []
            self.bezout_row(ia, (ib,), row)
            _, _, d, a1, b1, x, y = row
            # The zero pair's gcd coefficients are 0, as on Z and zloc.
            got = self._bezout_memo[key] = (
                (d, x, y, a1, b1, x, y) if d != self.zero else (d, d, d, a1, b1, x, y))
        return got

    def bezout_row(self, ia: int, ibs: Iterable[int], out: list[int]) -> None:
        """Append the flat row ia, ib, d, a1, b1, x, y to ``out`` for each
        pair (ia, ib), ib in ``ibs`` in order, where a*x + b*y = d with
        a = a1*d, b = b1*d and a1*x + b1*y = 1; raise NotBezout at the
        first pair that has none, after the rows of the pairs before it.

        d is the first element (in enumeration order) generating the ideal
        iaR + ibR; the cofactor pair (a1, b1) is the first one, over d,
        then a1, then b1, admitting a comaximality witness. The gcd
        coefficients reuse the comaximality pair, so
        a*x + b*y = (a1*x + b1*y)*d = d holds by construction.

        Apart from the preimages b1 of ib, the search reads ib only through
        its ideal class, which fixes the generators d of iaR + ibR. What it
        reads per d, d's preimage map and the preimages a1 of ia, is looked
        up once per row, when the row first reaches d, and dies with the row.
        """
        cls, comax, x_memo, units = (
            self.ideal_class, self.comax, self._comax_x_memo, self.units)
        pre_memo, preimages = self._preimage_memo, self._preimages
        n, add, neg, mul = self.n, self.add, self.neg, self.mul
        one, one_row = self.one, self.one * n
        sums = self.class_sum_gens[cls[ia]]
        cofactors = {}  # d reached in the row -> (d's preimage map, its a1 list)
        # Zero-ideal convention: cofactors (1, 0) keep a1R + b1R = R.
        zero = self.zero if ia == self.zero else -1
        for ib in ibs:
            if ib == zero:
                out += ia, ib, zero, one, zero, one, zero
                continue
            gens = sums[cls[ib]]
            for d in gens:
                got = cofactors.get(d)
                if got is None:
                    pre = self._preimages(d)
                    got = cofactors[d] = pre, pre[ia]
                pre, cof_a = got
                cof_b = pre[ib]
                for a1 in cof_a:
                    comax_row = comax[a1]
                    for b1 in cof_b:
                        if comax_row[b1]:
                            break
                    else:
                        continue
                    break
                else:
                    continue
                break
            else:
                raise NotBezout(
                    f"{self.ring.spec_string()}: no comaximal cofactor pair for "
                    f"{self.element(ia)}, {self.element(ib)}" if gens else
                    f"{self.ring.spec_string()}: ideal generated by "
                    f"{self.element(ia)} and {self.element(ib)} is not principal"
                )
            # ``comax_witness`` and its ``divides`` inlined on a hit of its x memo.
            x = x_memo.get((a1, cls[b1]))
            if x is None:
                x, y = self.comax_witness(a1, b1)
            else:
                v, inv = add[one_row + neg[mul[a1 * n + x]]], units.get(b1)
                y = ((pre_memo.get(b1) or preimages(b1))[v][0] if inv is None
                     else mul[inv * n + v])
            out += ia, ib, d, a1, b1, x, y

    def _preimages(self, d: int, mod_jac: bool = False) -> dict[int, list[int]]:
        """Value v -> every t with d*t = v, ascending; with ``mod_jac``, the
        least element of a coset v + J -> every t with d*t in v + J,
        ascending.

        One memo holds both forms, under keys d and n + d. The value-keyed
        map serves ``bezout_row`` and ``cofactor_triple``, and both serve
        the adequacy search for a non-unit d.
        """
        key = self.n + d if mod_jac else d
        got = self._preimage_memo.get(key)
        if got is None:
            got = {}
            row = d * self.n
            values = self.mul[row:row + self.n]
            if mod_jac:
                values = map(self.jac_cosets[0].__getitem__, values)
            for t, v in enumerate(values):
                got.setdefault(v, []).append(t)
            self._preimage_memo[key] = got
        return got
