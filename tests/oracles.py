"""Independent test oracles.

These deliberately avoid the library's own code paths: determinant-based
invariant factors for integer matrices, trial-division factor checks for
the adequacy split, and definition-level recomputation of units and the
radical straight from the public arithmetic.
"""

from itertools import combinations
from math import gcd

from ringlab.errors import AxiomViolation


def det(rows) -> int:
    """Determinant of a small integer matrix by cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * det(minor)
    return total


def minors_gcd_diagonal(rows) -> list[int]:
    """Invariant factors of an integer matrix from gcds of k x k minors."""
    r, c = len(rows), len(rows[0])
    out = []
    g_prev = 1
    for k in range(1, min(r, c) + 1):
        g = 0
        for rs in combinations(range(r), k):
            for cs in combinations(range(c), k):
                sub = [[rows[i][j] for j in cs] for i in rs]
                g = gcd(g, det(sub))
        if g == 0 or g_prev == 0:
            out.append(0)
        else:
            out.append(g // g_prev)
        g_prev = g
    return out


def prime_factors(n: int) -> set[int]:
    """Trial-division prime support of |n| (empty for 0 and units)."""
    n = abs(n)
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def adequacy_clauses_by_trial_division(c: int, a: int, r: int, s: int) -> bool:
    """Check c = r*s, gcd(r, a) = 1, and rad(s) | rad(a) by full factoring."""
    if r * s != c or s <= 0:
        return False
    if gcd(r, a) != 1:
        return False
    if a == 0:
        return True  # every prime divides zero
    return prime_factors(s) <= prime_factors(a)


def brute_units(ring) -> dict:
    """Unit -> inverse map recomputed from the public arithmetic."""
    elems = list(ring.elements())
    out = {}
    for a in elems:
        for b in elems:
            if ring.mul(a, b) == ring.one:
                out[a] = b
                break
    return out


def brute_radical(ring) -> set:
    """J(R) from the definition: 1 - x*r is a unit for every r."""
    elems = list(ring.elements())
    units = set(brute_units(ring))
    return {
        x for x in elems
        if all(ring.sub(ring.one, ring.mul(x, r)) in units for r in elems)
    }


def brute_idempotents(ring) -> set:
    return {e for e in ring.elements() if ring.mul(e, e) == e}


def brute_is_domain(ring) -> bool:
    """1 != 0 and no two nonzero elements multiply to 0: an n^2 scan."""
    zero = ring.zero
    nonzero = [a for a in ring.elements() if a != zero]
    return ring.one != zero and all(
        ring.mul(a, b) != zero for a in nonzero for b in nonzero)


def brute_is_local(ring) -> bool:
    """1 != 0 and the non-units are closed under addition, so that they are
    the one maximal ideal: an n^2 scan."""
    units = brute_units(ring)
    nonunits = [a for a in ring.elements() if a not in units]
    return ring.one != ring.zero and all(
        ring.add(x, y) not in units for x in nonunits for y in nonunits)


def feckly_adequacy_checker(ring):
    """holds(c, a, r, s, x, y): the three feckly adequacy clauses of (r, s)
    for c against a, from the definitions: c - r*s lies in J(R),
    r*x + a*y = 1, and no non-unit t with s in tR has tR + aR = R."""
    elems = list(ring.elements())
    units, radical = set(brute_units(ring)), brute_radical(ring)

    def holds(c, a, r, s, x, y):
        if ring.sub(c, ring.mul(r, s)) not in radical:
            return False
        if ring.add(ring.mul(r, x), ring.mul(a, y)) != ring.one:
            return False
        ideal_a = {ring.mul(a, v) for v in elems}
        for t in elems:
            if t in units or all(ring.mul(t, v) != s for v in elems):
                continue
            if any(ring.sub(ring.one, ring.mul(t, v)) in ideal_a for v in elems):
                return False  # 1 = t*v + a*w: t is comaximal with a
        return True
    return holds


def check_ring_axioms(ring, sample) -> None:
    """Verify the commutative-ring axioms on ``sample``, raising
    AxiomViolation on failure: all pairs for commutativity and all triples
    for associativity and distributivity. A finite ring's full element
    list makes the check exhaustive: the O(n³) reference for the table
    rings' check on generators.
    """
    zero, one = ring.zero, ring.one

    for a in sample:
        if ring.add(a, zero) != a:
            raise AxiomViolation(f"a + 0 != a at {a}")
        if ring.mul(a, one) != a:
            raise AxiomViolation(f"a * 1 != a at {a}")
        if ring.add(a, ring.neg(a)) != zero:
            raise AxiomViolation(f"a + (-a) != 0 at {a}")
    for a in sample:
        for b in sample:
            if ring.add(a, b) != ring.add(b, a):
                raise AxiomViolation(f"addition not commutative at {a}, {b}")
            if ring.mul(a, b) != ring.mul(b, a):
                raise AxiomViolation(f"multiplication not commutative at {a}, {b}")
    for a in sample:
        for b in sample:
            for c in sample:
                if ring.add(ring.add(a, b), c) != ring.add(a, ring.add(b, c)):
                    raise AxiomViolation(f"addition not associative at {a}, {b}, {c}")
                if ring.mul(ring.mul(a, b), c) != ring.mul(a, ring.mul(b, c)):
                    raise AxiomViolation(
                        f"multiplication not associative at {a}, {b}, {c}"
                    )
                lhs = ring.mul(a, ring.add(b, c))
                rhs = ring.add(ring.mul(a, b), ring.mul(a, c))
                if lhs != rhs:
                    raise AxiomViolation(f"distributivity fails at {a}, {b}, {c}")
