"""Output oracles for the reduce workload, sharing no code with ringlab.

They read ring elements only through the public ``elements``, ``add``,
``mul``, ``zero`` and ``format_element`` of a ring handle and recompute
the invariant every diagonal reduction must keep: for each k, the ideal
generated by the k x k minors of A equals that of D. D is first checked
to be diagonal, so its nonzero minors are products of diagonal entries.

- Over Z the ideals are gcds of minors, so the invariant factors
  d_k / d_(k-1) must equal |diag(D)|, as in the test-suite oracle.
- Over zloc:{p, ...} an ideal is fixed by its least p-adic valuation of a
  numerator for each localized prime.
- Over a finite ring the ideals are computed by brute-force closure.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import combinations
from math import gcd


def minors_by_size(M, add, mul, neg, zero) -> list[list]:
    """All k x k minors of M for k = 1..min(rows, cols), by cofactor expansion."""
    nr, nc = len(M), len(M[0])
    memo: dict = {}

    def det(rs, cs):
        if len(rs) == 1:
            return M[rs[0]][cs[0]]
        got = memo.get((rs, cs))
        if got is None:
            got = zero
            head, rest = rs[0], rs[1:]
            for j, col in enumerate(cs):
                term = mul(M[head][col], det(rest, cs[:j] + cs[j + 1:]))
                got = add(got, neg(term) if j % 2 else term)
            memo[(rs, cs)] = got
        return got

    return [[det(rs, cs) for rs in combinations(range(nr), k)
             for cs in combinations(range(nc), k)]
            for k in range(1, min(nr, nc) + 1)]


def off_diagonal_zero(D, zero) -> bool:
    return all(D[i][j] == zero for i in range(len(D))
               for j in range(len(D[0])) if i != j)


def diagonal_minors_by_size(D, mul) -> list[list]:
    """The k x k minors of a diagonal D that can be nonzero: products of
    k diagonal entries."""
    diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
    out = []
    for k in range(1, len(diag) + 1):
        level = []
        for picks in combinations(diag, k):
            prod = picks[0]
            for x in picks[1:]:
                prod = mul(prod, x)
            level.append(prod)
        out.append(level)
    return out


def integer_check(ring, A, D) -> bool:
    """Z: invariant factors from minors gcds equal |diag(D)|."""
    a = [[int(ring.format_element(e)) for e in row] for row in A.entries]
    d = [[int(ring.format_element(e)) for e in row] for row in D.entries]
    if not off_diagonal_zero(d, 0):
        return False
    factors, prev = [], 1
    for minors in minors_by_size(a, operator.add, operator.mul,
                                 operator.neg, 0):
        g = 0
        for m in minors:
            g = gcd(g, m)
        factors.append(0 if g == 0 or prev == 0 else g // prev)
        prev = g
    return factors == [abs(d[i][i]) for i in range(len(factors))]


def _valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def localized_check(ring, primes, A, D) -> bool:
    """zloc: the minors of A and of D generate the same ideals."""
    def ideal(minors):
        nums = [m.numerator for m in minors if m != 0]
        return tuple(min(_valuation(x, p) for x in nums)
                     for p in primes) if nums else None

    a = [[Fraction(ring.format_element(e)) for e in row] for row in A.entries]
    d = [[Fraction(ring.format_element(e)) for e in row] for row in D.entries]
    if not off_diagonal_zero(d, 0):
        return False
    lhs = minors_by_size(a, operator.add, operator.mul, operator.neg, Fraction(0))
    rhs = diagonal_minors_by_size(d, operator.mul)
    return [ideal(m) for m in lhs] == [ideal(m) for m in rhs]


class FiniteIdeals:
    """Ideal arithmetic on a finite ring, rebuilt from its public operations."""

    def __init__(self, ring):
        elems = list(ring.elements())
        self.index = {e: i for i, e in enumerate(elems)}
        n = len(elems)
        self.add = [[self.index[ring.add(a, b)] for b in elems] for a in elems]
        self.mul = [[self.index[ring.mul(a, b)] for b in elems] for a in elems]
        self.zero = self.index[ring.zero]
        self.neg = [next(j for j in range(n) if self.add[i][j] == self.zero)
                    for i in range(n)]
        self._principal: dict[int, frozenset] = {}
        self._sums: dict[tuple[frozenset, int], frozenset] = {}

    def _with(self, ideal: frozenset, s: int) -> frozenset:
        """The ideal ``ideal + sR``."""
        got = self._sums.get((ideal, s))
        if got is None:
            ps = self._principal.get(s)
            if ps is None:
                ps = self._principal[s] = frozenset(self.mul[s])
            got = frozenset(self.add[x][y] for x in ideal for y in ps)
            self._sums[(ideal, s)] = got
        return got

    def ideal(self, gens) -> frozenset:
        out = frozenset([self.zero])
        for g in set(gens):
            out = self._with(out, g)
        return out

    def check(self, A, D) -> bool:
        add, mul = self.add, self.mul
        a = [[self.index[e] for e in row] for row in A.entries]
        d = [[self.index[e] for e in row] for row in D.entries]
        if not off_diagonal_zero(d, self.zero):
            return False
        times = lambda x, y: mul[x][y]  # noqa: E731
        lhs = minors_by_size(a, lambda x, y: add[x][y], times,
                             self.neg.__getitem__, self.zero)
        rhs = diagonal_minors_by_size(d, times)
        return [self.ideal(m) for m in lhs] == [self.ideal(m) for m in rhs]
