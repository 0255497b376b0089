"""Index-level structure cache for finite rings.

``EngineCache`` enumerates a finite ring once, assigns every element an
index, and precomputes flat addition/multiplication tables. Everything the
predicate engine and the reduction pipeline need on finite rings (units,
Jacobson radical, idempotents, principal ideals with multiplier witnesses,
comaximality, Bezout gcd search) is then pure integer-index arithmetic.

The tables come from the additive structure, not from n² calls of the
ring's own ``_add`` and ``_mul`` (``_build_tables``). Scanning the indices
upward, each element that is not yet in the subgroup spanned by the
earlier picks becomes a generator g, and that subgroup is closed by a
breadth-first search along y = g + x. This picks one generator for Zn, at
most two for a product of two cyclic rings and ``deg`` for polyq. Every
element y other than 0 then has a parent x and a generator g with
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
only through aR is kept per class: ``comax`` (k·n entries for k classes,
not n²) and ``nonunit_divisors``.
``_preimages`` is the one preimage layer: per element d, the map from a
value v to every t with d*t = v, or, keyed by the least element of a
coset of the Jacobson radical J (``jac_cosets``), to every t with
d*t in v + J; the t ascending in both. ``bezout_row`` and the reducer's
``_comax_cofactors`` read the first form; the engine's adequacy search
reads both, for its non-unit candidates r.
``bezout`` memoizes ``bezout_search`` per pair for the reducer only; the
engine's exhaustive ``hermite`` search runs ``bezout_row`` one row at a
time and keeps nothing past the row. ``bezout_search`` is the row search
on a row of one pair, so both give one witness order.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property
from operator import add as _plus

from .errors import AxiomViolation, NotBezout, ParseError, TooLarge
from .rings import Element, Ring

DEFAULT_SIZE_BOUND = 4096


def _build_tables(ring: Ring, vals: list, idx: dict, zero: int
                  ) -> tuple[list[int], list[int]]:
    """Flat add and mul tables from a generating set of the additive group.

    See the module docstring for the recurrence and why it is exact.
    """
    n = len(vals)
    _add, _mul = ring._add, ring._mul
    seen = bytearray(n)
    seen[zero] = 1
    order = [zero]
    steps = []  # (y, x, k): y = g_k + x, in breadth-first order
    plus = []   # per generator g: index of g + a for every a
    times = []  # per generator g: n * (index of g·a) for every a
    for g in range(n):
        if seen[g]:
            continue
        gv = vals[g]
        plus_g = [idx[_add(gv, v)] for v in vals]
        k = len(plus)
        plus.append(plus_g)
        times.append([n * idx[_mul(gv, v)] for v in vals])
        for x in order:  # the subgroup grows while it is walked
            y = plus_g[x]
            if not seen[y]:
                seen[y] = 1
                order.append(y)
                steps.append((y, x, k))
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


def _count(n: int) -> str:
    """``n`` in decimal, or the largest power of two at most ``n`` when
    ``n`` has more digits than ``sys.get_int_max_str_digits()`` allows to
    print."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"


class EngineCache:
    """Exhaustive index tables for one finite ring handle."""

    def __init__(self, ring: Ring, bound: int = DEFAULT_SIZE_BOUND):
        if ring.cardinality is None:
            raise TooLarge(f"{ring.spec_string()} is infinite")
        if ring.cardinality > bound:
            raise TooLarge(
                f"{ring.spec_string()} has {_count(ring.cardinality)} elements, "
                f"bound is {bound}"
            )
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
        if a.ring is not self.ring:
            from .errors import MixedRings

            raise MixedRings(f"{a!r} does not belong to {self.ring.spec_string()}")
        return self.idx[a.value]

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

    @cached_property
    def units(self) -> dict[int, int]:
        """Unit index -> inverse index."""
        n, mul, one = self.n, self.mul, self.one
        out = {}
        for i in range(n):
            row = i * n
            for j in range(n):
                if mul[row + j] == one:
                    out[i] = j
                    break
        return out

    @cached_property
    def unit_set(self) -> frozenset[int]:
        return frozenset(self.units)

    @cached_property
    def jac(self) -> frozenset[int]:
        """Jacobson radical: x such that 1 - x*r is a unit for every r."""
        n, add, neg, mul = self.n, self.add, self.neg, self.mul
        units = self.unit_set
        one_row = self.one * n
        # unit_after[v]: 1 - v is a unit
        unit_after = [add[one_row + neg[v]] in units for v in range(n)]
        return frozenset(
            x for x in range(n)
            if all(map(unit_after.__getitem__, mul[x * n:x * n + n])))

    @cached_property
    def jac_cosets(self) -> tuple[list[int], dict[int, tuple[int, ...]]]:
        """(least, members): least[v] is the least element of the coset
        v + J, and members maps each such least element to its coset,
        ascending; n entries in each."""
        n, add, jac = self.n, self.add, self.jac
        least = [-1] * n
        members = {}
        for v in range(n):
            if least[v] < 0:  # v is the least element of a new coset
                row = v * n
                coset = members[v] = tuple(sorted(add[row + j] for j in jac))
                for m in coset:
                    least[m] = v
        return least, members

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
    def pid_witness(self) -> list[dict[int, int]]:
        """Per element a: map value v -> first t with a*t = v."""
        n, mul = self.n, self.mul
        out = []
        for i in range(n):
            row = i * n
            d: dict[int, int] = {}
            for t in range(n):
                v = mul[row + t]
                if v not in d:
                    d[v] = t
            out.append(d)
        return out

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
        return x, self.pid_witness[j][add[one_row + neg[mul[row + x]]]]

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
        one_row, i_row, j_row = self.one * n, i * n, j * n
        wit_k = self.pid_witness[k]
        for x in range(n):
            r1_row = add[one_row + neg[mul[i_row + x]]] * n
            for y in range(n):
                z = wit_k.get(add[r1_row + neg[mul[j_row + y]]])
                if z is not None:
                    return x, y, z
        return None

    # --- divisibility ------------------------------------------------------------

    @cached_property
    def nonunit_divisors(self) -> list[tuple[int, ...]]:
        """Per ideal class of s: every non-unit t with s in tR, ascending.

        s is in tR iff sR is inside tR, so k² inclusions between class
        sets decide it: index it by ``ideal_class[s]``.
        """
        cls, units = self.ideal_class, self.unit_set
        sets = self._ideal_sets[:len(self.class_gens)]
        nonunits = [t for t in range(self.n) if t not in units]
        out = []
        for low in sets:
            over = [low <= high for high in sets]
            out.append(tuple(t for t in nonunits if over[cls[t]]))
        return out

    def divides(self, i: int, j: int) -> int | None:
        """First t with i*t = j, or None."""
        return self.pid_witness[i].get(j)

    # --- unit normalization ---------------------------------------------------

    @cached_property
    def associate_canon(self) -> list[tuple[int, int, int]]:
        """Per element a: (c, u, u_inv) with c = u*a minimal among associates."""
        n, mul = self.n, self.mul
        units = self.units
        out = []
        for a in range(n):
            best, best_u = a, self.one
            for u in units:
                c = mul[u * n + a]
                if c < best:
                    best, best_u = c, u
            out.append((best, best_u, units[best_u]))
        return out

    # --- Bezout gcd -----------------------------------------------------------

    def bezout(self, ia: int, ib: int) -> tuple[int, int, int, int, int, int, int]:
        """``bezout_search``, memoized per pair for the reducer."""
        key = (ia, ib)
        got = self._bezout_memo.get(key)
        if got is None:
            got = self._bezout_memo[key] = self.bezout_search(ia, ib)
        return got

    def bezout_search(self, ia: int, ib: int) -> tuple[int, int, int, int, int, int, int]:
        """The Bezout witness of one pair: ``bezout_row`` on the row (ib,)."""
        return next(self.bezout_row(ia, (ib,)))

    def bezout_row(self, ia: int, ibs: Iterable[int]
                   ) -> Iterator[tuple[int, int, int, int, int, int, int]]:
        """Yield a full Bezout witness (d, x, y, a1, b1, u, v) by indices for
        each pair (ia, ib), ib in ``ibs`` in order; raise NotBezout at the
        first pair that has none.

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
        cls, comax, x_memo, pid_witness = (
            self.ideal_class, self.comax, self._comax_x_memo, self.pid_witness)
        n, add, neg, mul = self.n, self.add, self.neg, self.mul
        one, one_row = self.one, self.one * n
        sums = self.class_sum_gens[cls[ia]]
        cofactors = {}  # d reached in the row -> (d's preimage map, its a1 list)
        # Zero-ideal convention: cofactors (1, 0) keep a1R + b1R = R.
        zero = self.zero if ia == self.zero else -1
        for ib in ibs:
            if ib == zero:
                yield zero, zero, zero, one, zero, one, zero
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
            # ``comax_witness`` inlined on a hit of its x memo.
            x = x_memo.get((a1, cls[b1]))
            if x is None:
                x, y = self.comax_witness(a1, b1)
            else:
                y = pid_witness[b1][add[one_row + neg[mul[a1 * n + x]]]]
            yield d, x, y, a1, b1, x, y

    def _preimages(self, d: int, mod_jac: bool = False) -> dict[int, list[int]]:
        """Value v -> every t with d*t = v, ascending; with ``mod_jac``, the
        least element of a coset v + J -> every t with d*t in v + J,
        ascending.

        One memo holds both forms, under keys d and n + d. The value-keyed
        map serves ``bezout_row`` and the reducer's ``_comax_cofactors``,
        and both serve the adequacy search for a non-unit d.
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
