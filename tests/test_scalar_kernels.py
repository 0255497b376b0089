"""Oracle tests for the scalar kernels of the certificate core.

The reference is the public ``ring.add`` / ``ring.mul`` on ``Element``s
(and ``RingMatrix.mat_mul``, built on them), which shares no code with the
index tables and payload operators the adapters of ``reduction`` use. The
zloc kernels, which work on integer ratios, are also checked against the
``Fraction`` operators, and the certificates of a seeded batch are pinned
by digest.
"""

import hashlib
import json
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ringlab.concrete import builtin_table_path, make_ring
from ringlab.errors import NotBezout, NotComaximal, ReductionFailed
from ringlab.reduction import (
    ReductionCertificate,
    RingMatrix,
    _FiniteOps,
    _NativeOps,
    _RatioOps,
    _ValueOps,
    _scalar_ops,
    _unbox,
    _verify_raw,
    comax_triangular_reduce,
    diagonal_reduce,
    verify_certificate,
)

TABLE = f"table:{builtin_table_path()}"
RINGS = {spec: make_ring(spec) for spec in (
    "Z", "zloc:{2,3}", "dualint", "Zn:12", "prod(Zn:4,Zn:3)",
    "polyq:3:x^2-1", TABLE)}
FINITE_ELEMENTS = {spec: list(ring.elements()) for spec, ring in RINGS.items()
                   if ring.cardinality is not None}
# Rings the reducer handles (the control table ring may refuse a matrix).
REDUCIBLE = ("Z", "zloc:{2,3}", "Zn:12", "prod(Zn:4,Zn:3)", "polyq:3:x^2-1",
             TABLE)


def elements(spec):
    ring = RINGS[spec]
    if spec == "Z":
        return st.integers(-40, 40).map(ring.make)
    if spec.startswith("zloc"):
        return st.builds(lambda p, q: ring.make(Fraction(p, q)),
                         st.integers(-40, 40), st.sampled_from((1, 5, 7, 25)))
    if spec == "dualint":
        return st.builds(lambda a, p, q: ring.make((a, Fraction(p, q))),
                         st.integers(-20, 20), st.integers(-20, 20),
                         st.integers(1, 6))
    return st.sampled_from(FINITE_ELEMENTS[spec])


def grids(spec, rows, cols):
    return st.lists(st.lists(elements(spec), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def ref_dot(ring, xs, ys):
    acc = ring.zero
    for x, y in zip(xs, ys):
        acc = ring.add(acc, ring.mul(x, y))
    return acc


def ref_matmul(ring, X, Y):
    return [[ref_dot(ring, row, [r[j] for r in Y]) for j in range(len(Y[0]))]
            for row in X]


def eye(ring, n):
    return [[ring.one if i == j else ring.zero for j in range(n)]
            for i in range(n)]


def test_one_adapter_per_ring():
    for spec, ring in RINGS.items():
        ops = _scalar_ops(ring)
        assert _scalar_ops(ring) is ops, spec
    assert type(_scalar_ops(RINGS["Z"])) is _NativeOps
    assert type(_scalar_ops(RINGS["zloc:{2,3}"])) is _RatioOps
    assert type(_scalar_ops(RINGS["dualint"])) is _ValueOps
    assert type(_scalar_ops(RINGS["Zn:12"])) is _FiniteOps


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernels_match_public_arithmetic(data):
    spec = data.draw(st.sampled_from(sorted(RINGS)))
    ring = RINGS[spec]
    ops = _scalar_ops(ring)
    raw, box = ops.from_elem, ops.to_elem
    x, p, y, q = (data.draw(elements(spec)) for _ in range(4))
    add, mul = ring.add, ring.mul
    assert box(ops.add(raw(x), raw(y))) == add(x, y)
    assert box(ops.mul(raw(x), raw(y))) == mul(x, y)
    assert box(ops.neg(raw(x))) == ring.neg(x)
    assert box(ops.lin(raw(x), raw(p), raw(y), raw(q))) == \
        add(mul(x, p), mul(y, q))
    k = data.draw(st.integers(1, 4))
    xs, ys = data.draw(grids(spec, 2, k))
    got = ops.comb([raw(e) for e in xs], raw(p), [raw(e) for e in ys], raw(q))
    assert [box(e) for e in got] == [add(mul(a, p), mul(b, q))
                                     for a, b in zip(xs, ys)]
    assert box(ops.dot([raw(e) for e in xs], [raw(e) for e in ys])) == \
        ref_dot(ring, xs, ys)
    r, c = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    X, Y = data.draw(grids(spec, r, k)), data.draw(grids(spec, k, c))
    got = ops.matmul([[raw(e) for e in row] for row in X],
                     [[raw(e) for e in row] for row in Y])
    assert [[box(e) for e in row] for row in got] == ref_matmul(ring, X, Y)
    # Every adapter, every example: the 2x2 product (on lists and on
    # tuples of tuples) and the shapes next to it.
    for r, k, c in ((2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 2), (1, 2, 1)):
        X, Y = data.draw(grids(spec, r, k)), data.draw(grids(spec, k, c))
        want = ref_matmul(ring, X, Y)
        Xr = [[raw(e) for e in row] for row in X]
        Yr = [[raw(e) for e in row] for row in Y]
        got = ops.matmul(Xr, Yr)
        assert [[box(e) for e in row] for row in got] == want, (r, k, c)
        if (r, k, c) == (2, 2, 2):
            got = ops.matmul(tuple(map(tuple, Xr)), tuple(map(tuple, Yr)))
            assert [[box(e) for e in row] for row in got] == want


def nonzero(spec, data):
    ring = RINGS[spec]
    return data.draw(elements(spec).filter(lambda e: e != ring.zero))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_planted_off_identity_entry_is_caught(data):
    """Right-multiplying P^-1 (or Q^-1) by I + t*E_ij makes P*P^-1 (or
    Q*Q^-1) the identity with one entry changed, at every position; the
    other invariants still hold, so the verifier names that invariant."""
    spec = data.draw(st.sampled_from(REDUCIBLE))
    ring = RINGS[spec]
    ops = _scalar_ops(ring)
    r, c = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    A = data.draw(grids(spec, r, c))
    try:
        cert = diagonal_reduce(ring, RingMatrix(ring, A))
        mats = [[list(row) for row in getattr(cert, name).entries]
                for name in ("P", "Pinv", "D", "Q", "Qinv")]
    except ReductionFailed:  # the control ring: the zero matrix instead
        A = [[ring.zero] * c for _ in range(r)]
        mats = [eye(ring, r), eye(ring, r), A, eye(ring, c), eye(ring, c)]

    def verdict(grids_):
        return _verify_raw(ops, *(_unbox(ops, RingMatrix(ring, g))
                                  for g in (A, *grids_)))

    assert verdict(mats) is None
    for slot, size, name in ((1, r, "P_invertible"), (4, c, "Q_invertible")):
        for i in range(size):
            for j in range(size):
                shear = eye(ring, size)
                shear[i][j] = ring.add(shear[i][j], nonzero(spec, data))
                planted = list(mats)
                planted[slot] = ref_matmul(ring, mats[slot], shear)
                base = mats[slot - 1]
                product = ref_matmul(ring, base, planted[slot])
                off = [(a, b) for a in range(size) for b in range(size)
                       if product[a][b] != eye(ring, size)[a][b]]
                assert off == [(i, j)]
                assert verdict(planted) == (name, None), (spec, name, i, j)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_closed_form_D_equals_the_product(data):
    """comax_triangular_reduce writes D = diag(1, -a*c); it equals P*A*Q
    multiplied out with RingMatrix.mat_mul."""
    spec = data.draw(st.sampled_from(REDUCIBLE))
    ring = RINGS[spec]
    a, b, c, r = (data.draw(elements(spec)) for _ in range(4))
    try:
        cert = comax_triangular_reduce(ring, a, b, c, r)
    except (NotComaximal, NotBezout):
        return
    A = RingMatrix(ring, [[a, b], [ring.zero, c]])
    assert cert.D == cert.P.mat_mul(A).mat_mul(cert.Q)
    assert cert.D == RingMatrix(ring, [[ring.one, ring.zero],
                                       [ring.zero, ring.neg(ring.mul(a, c))]])


def zloc_fractions():
    """Fractions of zloc:{2,3}: denominators coprime to 2 and 3, small and
    large numerators and denominators."""
    dens = st.builds(lambda k, r: 6 * k + r,
                     st.one_of(st.integers(0, 20), st.integers(0, 10**40)),
                     st.sampled_from((1, 5)))
    nums = st.one_of(st.integers(-50, 50), st.integers(-10**40, 10**40))
    return st.builds(Fraction, nums, dens)


def assert_same_fraction(got, want):
    """``Element.__eq__`` would let an int 5 pass for Fraction(5): check
    the type and a positive denominator as well as the value."""
    assert type(got) is Fraction
    assert got.denominator > 0
    assert got.as_integer_ratio() == want.as_integer_ratio()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ratio_kernels_match_fraction_operators(data):
    ring = RINGS["zloc:{2,3}"]
    ops = _scalar_ops(ring)

    def raw(f):
        return ops.from_elem(ring.make(f))

    def box(v):
        return ops.to_elem(v).value

    fractions = zloc_fractions()
    x, p, y, q = (data.draw(fractions) for _ in range(4))
    assert_same_fraction(box(ops.lin(raw(x), raw(p), raw(y), raw(q))),
                         x * p + y * q)
    k = data.draw(st.integers(0, 4))
    xs, ys = (data.draw(st.lists(fractions, min_size=k, max_size=k))
              for _ in range(2))
    got = ops.comb(list(map(raw, xs)), raw(p), list(map(raw, ys)), raw(q))
    assert len(got) == k
    for v, a, b in zip(got, xs, ys):
        assert_same_fraction(box(v), a * p + b * q)
    want = Fraction(0)
    for a, b in zip(xs, ys):
        want = want + a * b
    assert_same_fraction(box(ops.dot(list(map(raw, xs)), list(map(raw, ys)))),
                         want)
    r, c, k = (data.draw(st.integers(1, 3)) for _ in range(3))
    X, Y = ([data.draw(st.lists(fractions, min_size=m, max_size=m))
             for _ in range(n)] for n, m in ((r, k), (k, c)))
    got = ops.matmul([list(map(raw, row)) for row in X],
                     [list(map(raw, row)) for row in Y])
    assert len(got) == r and all(len(row) == c for row in got)
    for i in range(r):
        for j in range(c):
            want = Fraction(0)
            for t in range(k):
                want = want + X[i][t] * Y[t][j]
            assert_same_fraction(box(got[i][j]), want)


# sha256 of the certificates of a seeded batch, one JSON line per matrix
# (json.dumps(cert.to_json(verified), sort_keys=True), or the failure and
# its witness on the control ring), taken before the zloc ratio kernels,
# the per-cache parse memo and the cofactor lists from _preimages.
PINNED_CERTIFICATES = {
    "zloc:{2,3}":
        "52ad1fb1fa71ba30a503721a1ed16d8db36ca273dc7abf398e20c2e02cab2132",
    "zloc:{5}":
        "67ab44d399815abe5303d9185e8afc3f78d04282cca0a8e58f7804e22d1d2049",
    "Zn:72":
        "6f4daff0f1ea5a9269673959256767f9ba9ecc9d0d97f0fa491ec1022862fe86",
    "prod(Zn:8,Zn:9)":
        "de9e112dbcfc6d5263a4e700efc862cb1c888a91d6afedf543dbd0e949bbcc00",
    "polyq:3:x^2-1":
        "a26cbd8a9c8692e35e1326d5ff779ad3df5f2e88efc7018b2ff982c54ecfd56c",
    "table":
        "a4cf37e709d3ed5033c00639569875ffa681d3e9f0607722ed053e2f1c0c88ad",
}
PIN_DENOMINATORS = {"zloc:{2,3}": (1, 1, 5, 7, 25, 35, 11**9),
                    "zloc:{5}": (1, 1, 2, 3, 4, 9, 7**12)}


@pytest.mark.parametrize("name", sorted(PINNED_CERTIFICATES))
def test_certificates_keep_their_bytes(name):
    """40 matrices of sizes 1..5 per ring; each certificate also verifies
    after its JSON round trip."""
    spec = TABLE if name == "table" else name
    ring = make_ring(spec)
    rng = random.Random("ringlab-pin:" + name)
    if ring.cardinality is None:
        dens = PIN_DENOMINATORS[spec]

        def draw():
            if rng.random() < 0.2:
                return ring.zero
            return ring.make(Fraction(rng.randint(-10**6, 10**6),
                                      rng.choice(dens)))
    else:
        elems = list(ring.elements())

        def draw():
            return rng.choice(elems)
    digest = hashlib.sha256()
    for k in (1, 2, 3, 4, 5):
        for _ in range(8):
            A = RingMatrix(ring, [[draw() for _ in range(k)] for _ in range(k)])
            try:
                cert = diagonal_reduce(ring, A)
            except ReductionFailed as exc:
                assert name == "table"
                out = {"failed": exc.reason.replace(spec, "<ring>"),
                       "witness": exc.witness.to_strings()}
            else:
                out = cert.to_json(verify_certificate(ring, A, cert).verdict)
                back = ReductionCertificate.from_json(
                    ring, json.loads(json.dumps(out)))
                assert out["verified"] and verify_certificate(ring, A, back).verdict
            digest.update(json.dumps(out, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == PINNED_CERTIFICATES[name]
