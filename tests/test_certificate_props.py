"""Property tests for certificate verification against a reference verifier.

The reference below is written from the definition with nothing but the
public ``ring.add`` / ``ring.mul`` on ``Element``s (divisibility by search
or by integer arithmetic), so it shares no code with the index and payload
arithmetic that ``verify_certificate`` and ``diagonal_reduce`` run on.
The two reference properties run on shapes 1..3 as before and, in a
second test each, on the shapes of 1..7 past 3x3, so every compiled
product kernel (dimensions up to ``reduction._UNROLL_CAP``, 6) and the
loops past it meet the reference.
"""

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ringlab.concrete import make_ring
from ringlab.errors import NotComaximal
from ringlab.reduction import (
    _UNROLL_CAP,
    ReductionCertificate,
    RingMatrix,
    _scalar_ops,
    comax_triangular_reduce,
    diagonal_reduce,
    verify_certificate,
)

from .test_scalar_kernels import PIN_DENOMINATORS

ZLOC_PRIMES = (2, 3)
RINGS = {spec: make_ring(spec) for spec in (
    "Z", "zloc:{2,3}", "Zn:12", "prod(Zn:4,Zn:3)", "polyq:3:x^2-1")}
FINITE_ELEMENTS = {spec: list(ring.elements()) for spec, ring in RINGS.items()
                   if ring.cardinality is not None}
NAMES = ("P", "Pinv", "D", "Q", "Qinv")
# Every compiled kernel shape and one past the cap.
SIZES = st.integers(1, _UNROLL_CAP + 1)
SMALL_SHAPES = st.tuples(st.integers(1, 3), st.integers(1, 3))
LARGE_SHAPES = st.tuples(SIZES, SIZES).filter(lambda shape: max(shape) > 3)


def elements(spec):
    ring = RINGS[spec]
    if spec == "Z":
        return st.integers(-40, 40).map(ring.make)
    if spec.startswith("zloc"):
        return st.builds(lambda p, q: ring.make(Fraction(p, q)),
                         st.integers(-40, 40), st.sampled_from((1, 5, 7, 25)))
    return st.sampled_from(FINITE_ELEMENTS[spec])


def grids(spec, rows, cols):
    return st.lists(st.lists(elements(spec), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


# ---------------------------------------------------------------------------
# the reference verifier
# ---------------------------------------------------------------------------


def ref_mat_mul(ring, X, Y):
    out = []
    for row in X:
        out_row = []
        for j in range(len(Y[0])):
            acc = ring.zero
            for k, x in enumerate(row):
                acc = ring.add(acc, ring.mul(x, Y[k][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def ref_divides(ring, a, b) -> bool:
    if ring.kind == "Z":
        return b.value == 0 if a.value == 0 else b.value % a.value == 0
    if ring.kind == "zloc":
        if a.value == 0:
            return b.value == 0
        t = b.value / a.value
        return all(t.denominator % p for p in ZLOC_PRIMES)
    return any(ring.mul(a, t) == b for t in ring.elements())


def ref_verdict(ring, A, P, Pinv, D, Q, Qinv):
    """First violated invariant as (name, position), or None."""
    r, c = len(A), len(A[0])
    want = ((r, r), (r, r), (r, c), (c, c), (c, c))
    for M, (rows, cols) in zip((P, Pinv, D, Q, Qinv), want):
        if len(M) != rows or len(M[0]) != cols:
            return "shape", None
    prod = ref_mat_mul(ring, ref_mat_mul(ring, P, A), Q)
    for i in range(r):
        for j in range(c):
            if prod[i][j] != D[i][j]:
                return "product", [i, j]
    for i in range(r):
        for j in range(c):
            if i != j and D[i][j] != ring.zero:
                return "diagonal", [i, j]
    for i in range(min(r, c) - 1):
        if not ref_divides(ring, D[i][i], D[i + 1][i + 1]):
            return "divisibility_chain", i
    for M, Minv, n, name in ((P, Pinv, r, "P_invertible"),
                             (Q, Qinv, c, "Q_invertible")):
        if ref_mat_mul(ring, M, Minv) != eye(ring, n):
            return name, None
    return None


def assert_agrees(ring, A, grids_by_name):
    cert = ReductionCertificate(**{name: RingMatrix(ring, grids_by_name[name])
                                   for name in NAMES})
    got = verify_certificate(ring, RingMatrix(ring, A), cert)
    want = ref_verdict(ring, A, *(grids_by_name[name] for name in NAMES))
    if want is None:
        assert got.verdict, got.counterexample
        return None
    name, position = want
    expected = {"invariant": name}
    if position is not None:
        expected["position"] = position
    assert not got.verdict and got.counterexample == expected
    return name


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def eye(ring, n):
    return [[ring.one if i == j else ring.zero for j in range(n)]
            for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_agrees_with_reference_on_arbitrary_certificates(data):
    check_agrees_on_arbitrary_certificate(data, SMALL_SHAPES)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_verify_agrees_with_reference_past_3x3(data):
    """The same property on the shapes of 1..7 with a dimension past 3."""
    check_agrees_on_arbitrary_certificate(data, LARGE_SHAPES)


def check_agrees_on_arbitrary_certificate(data, shape_strategy):
    spec = data.draw(st.sampled_from(sorted(RINGS)))
    ring = RINGS[spec]
    r, c = data.draw(shape_strategy)
    A = data.draw(grids(spec, r, c))
    shapes = dict(zip(NAMES, ((r, r), (r, r), (r, c), (c, c), (c, c))))
    mode = data.draw(st.sampled_from(("free", "product", "diagonal")))
    if mode == "diagonal":
        # Identity transforms and D = A diagonal: the chain decides, unless
        # one transform is replaced below.
        A = [[e if i == j else ring.zero for j, e in enumerate(row)]
             for i, row in enumerate(A)]
        mats = {"P": eye(ring, r), "Pinv": eye(ring, r), "D": A,
                "Q": eye(ring, c), "Qinv": eye(ring, c)}
        swap = data.draw(st.sampled_from((None,) * 4 + ("P", "Pinv", "Q", "Qinv")))
        if swap is not None:
            mats[swap] = data.draw(grids(spec, *shapes[swap]))
    else:
        mats = {name: data.draw(grids(spec, *shapes[name])) for name in NAMES}
        if mode == "product":
            mats["D"] = ref_mat_mul(ring, ref_mat_mul(ring, mats["P"], A),
                                    mats["Q"])
    misshape = data.draw(st.sampled_from((None,) * 10 + NAMES))
    if misshape is not None:
        rows, cols = shapes[misshape]
        rows += data.draw(st.sampled_from((-1, 1))) if rows > 1 else 1
        mats[misshape] = data.draw(grids(spec, rows, cols))
    assert_agrees(ring, A, mats)


def changed(spec, e, data):
    """An element different from ``e``."""
    ring = RINGS[spec]
    if spec == "Z":
        delta = data.draw(st.integers(1, 9))
        return ring.make(e.value + delta)
    if spec.startswith("zloc"):
        delta = data.draw(st.sampled_from((Fraction(1), Fraction(-2, 5), Fraction(3))))
        return ring.make(e.value + delta)
    elems = FINITE_ELEMENTS[spec]
    step = data.draw(st.integers(1, len(elems) - 1))
    return elems[(elems.index(e) + step) % len(elems)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_single_entry_change_is_rejected(data):
    """P and Q each have a unique inverse, so no single-entry change to one
    of the five matrices of a valid certificate still verifies."""
    check_single_entry_changes(data, SMALL_SHAPES)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_single_entry_change_is_rejected_past_3x3(data):
    """The same property on the shapes of 1..7 with a dimension past 3."""
    check_single_entry_changes(data, LARGE_SHAPES)


def check_single_entry_changes(data, shape_strategy):
    spec = data.draw(st.sampled_from(sorted(RINGS)))
    ring = RINGS[spec]
    r, c = data.draw(shape_strategy)
    A = data.draw(grids(spec, r, c))
    cert = diagonal_reduce(ring, RingMatrix(ring, A))
    good = {name: [list(row) for row in getattr(cert, name).entries]
            for name in NAMES}
    assert assert_agrees(ring, A, good) is None
    for name in NAMES:
        for i, row in enumerate(good[name]):
            for j, e in enumerate(row):
                mats = dict(good)
                mats[name] = [list(rw) for rw in good[name]]
                mats[name][i][j] = changed(spec, e, data)
                assert assert_agrees(ring, A, mats) is not None, (name, i, j)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_comax_kernel_matches_the_shear_product(data):
    """The closed-form kernel transforms equal the products they stand for."""
    spec = data.draw(st.sampled_from(("Z", "Zn:12", "prod(Zn:4,Zn:3)")))
    ring = RINGS[spec]
    a, b, c, r = (data.draw(elements(spec)) for _ in range(4))
    w = ring.add(b, ring.mul(a, r))
    try:
        cert = comax_triangular_reduce(ring, a, b, c, r)
    except NotComaximal:
        assert ring.is_unit(ring.bezout_gcd(w, c).d) is None
        return
    one, zero, neg = ring.one, ring.zero, ring.neg
    x = cert.P.entries[0][0]
    ax = ring.mul(a, x)

    def m(rows):
        return RingMatrix(ring, rows)

    Q = m([[one, r], [zero, one]]).mat_mul(m([[one, zero], [neg(ax), one]])) \
        .mat_mul(m([[zero, one], [one, zero]]))
    Qinv = m([[zero, one], [one, zero]]).mat_mul(m([[one, zero], [ax, one]])) \
        .mat_mul(m([[one, neg(r)], [zero, one]]))
    assert cert.Q == Q and cert.Qinv == Qinv
    A = m([[a, b], [zero, c]])
    assert cert.D == cert.P.mat_mul(A).mat_mul(Q)
    assert cert.D == m([[one, zero], [zero, neg(ring.mul(a, c))]])
    assert verify_certificate(ring, A, cert).verdict


@pytest.mark.parametrize("spec", ["Z", "Zn:12", "prod(Zn:4,Zn:3)", "polyq:3:x^2-1"])
def test_planted_faults_in_2x2_certificates(spec):
    """Each kind of fault planted in a genuine 2x2 certificate is named
    by the written-out 2x2 check exactly as by the reference."""
    assert type(_scalar_ops(RINGS[spec])).products_2x2 is not None
    check_planted_faults(spec, 2, 40)


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("spec", sorted(RINGS))
def test_planted_faults_in_kxk_certificates(spec, k):
    """The same planted faults in 3x3 to 5x5 certificates, which the
    compiled certificate kernel (finite rings and Z) or the compiled
    matmul kernel (zloc) checks, are named exactly as by the reference."""
    check_planted_faults(spec, k, 12)


def check_planted_faults(spec, k, count):
    """Plant each kind of fault in genuine k x k certificates of a
    diag(1, 0, ..., 0) matrix and ``count`` seeded ones, and compare each
    verdict with ``ref_verdict``: a changed entry of D at each position,
    P or Q (or both) sheared so that P*A*Q = D has an off-diagonal entry
    in row or column 0, two transforms' rows and columns i, i+1 swapped so
    that D's chain breaks at i (when d_i+1 does not divide d_i), and a
    changed entry of Pinv or Qinv."""
    ring = RINGS[spec]
    one, zero, neg = ring.one, ring.zero, ring.neg
    rng = random.Random(f"planted-{spec}" if k == 2 else f"planted-{spec}-{k}")
    if spec == "Z":
        draw = lambda: ring.make(rng.randint(-40, 40))  # noqa: E731

        def other(e):
            return ring.make(e.value + rng.randint(1, 9))
    elif spec.startswith("zloc"):
        draw = lambda: ring.make(Fraction(rng.randint(-40, 40),  # noqa: E731
                                          rng.choice((1, 5, 7, 25))))

        def other(e):
            return ring.make(e.value + rng.choice((1, Fraction(-2, 5), 3)))
    else:
        elems = FINITE_ELEMENTS[spec]
        draw = lambda: rng.choice(elems)  # noqa: E731

        def other(e):
            return elems[(elems.index(e) + rng.randrange(1, len(elems))) % len(elems)]

    def mul(X, Y):
        return ref_mat_mul(ring, X, Y)

    def elementary(i, j, e):
        """The identity with e at (i, j)."""
        M = eye(ring, k)
        M[i][j] = e
        return M

    seen = set()
    grids = [[[one if i == j == 0 else zero for j in range(k)] for i in range(k)]]
    grids += [[[draw() for _ in range(k)] for _ in range(k)] for _ in range(count)]
    for A in grids:
        if all(e == zero for row in A for e in row):
            continue  # P*A*Q = 0 whatever the transforms
        cert = diagonal_reduce(ring, RingMatrix(ring, A))
        good = {name: [list(row) for row in getattr(cert, name).entries]
                for name in NAMES}
        assert assert_agrees(ring, A, good) is None
        P, Pinv, D, Q, Qinv = (good[name] for name in NAMES)
        planted = []
        for i in range(k):
            for j in range(k):
                bad = [row[:] for row in D]
                bad[i][j] = other(D[i][j])
                planted.append((("product", [i, j]), {**good, "D": bad}))
        j = rng.randrange(1, k) if k > 2 else 1
        E, Einv = elementary(0, j, one), elementary(0, j, neg(one))  # column j += column 0
        planted.append((("diagonal", [0, j]), {
            **good, "Q": mul(Q, E), "Qinv": mul(Einv, Qinv), "D": mul(D, E)}))
        F, Finv = elementary(j, 0, one), elementary(j, 0, neg(one))  # row j += row 0
        planted.append((("diagonal", [j, 0]), {
            **good, "P": mul(F, P), "Pinv": mul(Pinv, Finv), "D": mul(F, D)}))
        planted.append((("diagonal", [0, j]), {
            "P": mul(F, P), "Pinv": mul(Pinv, Finv), "D": mul(mul(F, D), E),
            "Q": mul(Q, E), "Qinv": mul(Einv, Qinv)}))
        i = next((i for i in range(k - 1)
                  if not ref_divides(ring, D[i + 1][i + 1], D[i][i])), None)
        if i is not None:
            swap = eye(ring, k)
            swap[i], swap[i + 1] = swap[i + 1], swap[i]
            planted.append((("divisibility_chain", i), {
                "P": mul(swap, P), "Pinv": mul(Pinv, swap), "D": mul(mul(swap, D), swap),
                "Q": mul(Q, swap), "Qinv": mul(swap, Qinv)}))
        for name, want in (("Pinv", "P_invertible"), ("Qinv", "Q_invertible")):
            i, j = rng.randrange(k), rng.randrange(k)
            bad = [row[:] for row in good[name]]
            bad[i][j] = other(bad[i][j])
            planted.append(((want, None), {**good, name: bad}))
        for want, mats in planted:
            assert ref_verdict(ring, A, *(mats[name] for name in NAMES)) == want
            assert assert_agrees(ring, A, mats) == want[0], (A, want)
            seen.add(want[0])
    assert seen == {"product", "diagonal", "divisibility_chain",
                    "P_invertible", "Q_invertible"}


def matmul_elements(spec):
    """Entries for the matmul property; zloc numerators up to 10**6 over
    the pinned denominators, 11**9 among them, so the lcm scaling meets
    large values."""
    if spec.startswith("zloc"):
        ring = RINGS[spec]
        return st.builds(lambda p, q: ring.make(Fraction(p, q)),
                         st.integers(-10**6, 10**6),
                         st.sampled_from(PIN_DENOMINATORS[spec]))
    return elements(spec)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matmul_agrees_with_reference_product(data):
    """``ops.matmul`` gives the reference product's raw entries on grids
    of shapes 1..7: the finite and Z loops, and zloc's compiled kernel up
    to the cap and one ``dot`` per entry past it, with its pairs in lowest
    terms, as ``from_elem`` writes them."""
    spec = data.draw(st.sampled_from(sorted(RINGS)))
    ring, ops = RINGS[spec], _scalar_ops(RINGS[spec])
    r, k, c = data.draw(SIZES), data.draw(SIZES), data.draw(SIZES)
    X, Y = (data.draw(st.lists(st.lists(matmul_elements(spec), min_size=cols,
                                        max_size=cols),
                               min_size=rows, max_size=rows))
            for rows, cols in ((r, k), (k, c)))
    raw = ops.from_elem
    got = ops.matmul([list(map(raw, row)) for row in X],
                     [list(map(raw, row)) for row in Y])
    assert got == [list(map(raw, row)) for row in ref_mat_mul(ring, X, Y)]
