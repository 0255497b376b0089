import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from ringlab.concrete import builtin_table_path, make_ring
from ringlab.engine import build_cache
from ringlab.errors import (
    MixedRings,
    NoResidue,
    NotBezout,
    NotComaximal,
    ReductionFailed,
    TooLarge,
    UnsupportedSpec,
)
from ringlab.reduction import (
    ReductionCertificate,
    RingMatrix,
    _cache_ops,
    _reduce_raw,
    _scalar_ops,
    _verify_raw,
    comax_triangular_reduce,
    diagonal_reduce,
    hermite_step,
    matrix_from_json,
    matrix_to_json,
    solve_reduction_residue,
    verify_certificate,
)

from .oracles import minors_gcd_diagonal


@pytest.fixture
def Z():
    return make_ring("Z")


def test_hermite_step_frozen(Z):
    d, Q = hermite_step(Z, Z.make(12), Z.make(18))
    assert d == Z.make(6)
    assert Q.to_strings() == [["-1", "-3"], ["1", "2"]]
    row = RingMatrix.from_raw(Z, [[12, 18]])
    assert row.mat_mul(Q).to_strings() == [["6", "0"]]


def test_hermite_step_degenerate(Z):
    d, Q = hermite_step(Z, Z.make(5), Z.zero)
    assert d == Z.make(5) and Q == RingMatrix.identity(Z, 2)
    d, Q = hermite_step(Z, Z.zero, Z.zero)
    assert d == Z.zero and Q == RingMatrix.identity(Z, 2)


def test_hermite_step_z6():
    Z6 = make_ring("Zn:6")
    d, Q = hermite_step(Z6, Z6.make(2), Z6.make(3))
    assert d == Z6.one
    row = RingMatrix.from_raw(Z6, [[2, 3]])
    assert row.mat_mul(Q).to_strings() == [["1", "0"]]


def _hermite_sample(ring):
    if ring.cardinality is not None:
        return list(ring.elements())
    if ring.kind == "zloc":
        return [ring.make(Fraction(v, d)) for v in range(-6, 7) for d in (1, 5)]
    return [ring.make(v) for v in range(-12, 13)]


@pytest.mark.parametrize("spec", ["Z", "zloc:{2,3}", "Zn:12", "prod(Zn:4,Zn:3)",
                                  "polyq:2:x^3", f"table:{builtin_table_path()}"])
def test_hermite_step_matches_the_bezout_witness(spec):
    """hermite_step runs the raw Hermite kernel, the search behind
    ``bezout_gcd``: d and Q are that witness's, and a pair without a
    Bezout gcd raises NotBezout as ``bezout_gcd`` does."""
    ring = make_ring(spec)
    sample = _hermite_sample(ring)
    for a, b in itertools.product(sample, repeat=2):
        if a == ring.zero and b == ring.zero:
            continue
        try:
            data = ring.bezout_gcd(a, b)
        except NotBezout:
            with pytest.raises(NotBezout):
                hermite_step(ring, a, b)
            continue
        d, Q = hermite_step(ring, a, b)
        assert d == data.d
        assert Q == RingMatrix(ring, [[data.x, ring.neg(data.b1)],
                                      [data.y, data.a1]])


def test_hermite_step_past_the_bound_is_too_large():
    ring = make_ring("Zn:5000")
    with pytest.raises(TooLarge):
        hermite_step(ring, ring.make(2), ring.make(3))


def test_pivot_keys_of_the_payload_adapters():
    """The reducer pivots on the least |x| over Z and on the least prime
    part, the product of p^v_p over the localized primes, over zloc."""
    Z, zl = make_ring("Z"), make_ring("zloc:{2,3}")
    assert [_scalar_ops(Z).pivot_key(v) for v in (-7, 0, 12)] == [7, 0, 12]
    values = [Fraction(0), Fraction(-36, 5), Fraction(7, 25), Fraction(2, 7)]
    ops = _scalar_ops(zl)
    assert [ops.pivot_key(ops.from_elem(zl.make(v))) for v in values] == \
        [0, 36, 1, 2]


def test_triangular_kernel_z_example(Z):
    cert = comax_triangular_reduce(Z, Z.make(2), Z.make(3), Z.make(5), Z.zero)
    assert cert.D.to_strings() == [["1", "0"], ["0", "-10"]]
    A = RingMatrix.from_raw(Z, [[2, 3], [0, 5]])
    assert verify_certificate(Z, A, cert).verdict


def test_triangular_kernel_zero_product(Z):
    cert = comax_triangular_reduce(Z, Z.zero, Z.one, Z.one, Z.zero)
    assert cert.D.to_strings() == [["1", "0"], ["0", "0"]]


def test_triangular_kernel_z6():
    Z6 = make_ring("Zn:6")
    cert = comax_triangular_reduce(Z6, Z6.make(2), Z6.make(3), Z6.make(5),
                                   Z6.zero)
    assert cert.D.to_strings() == [["1", "0"], ["0", "2"]]  # -10 mod 6


def test_triangular_kernel_rejects_noncomaximal(Z):
    with pytest.raises(NotComaximal):
        comax_triangular_reduce(Z, Z.make(2), Z.make(4), Z.make(6), Z.zero)


def test_solve_reduction_residue_examples():
    Z6 = make_ring("Zn:6")
    r = solve_reduction_residue(Z6, Z6.make(2), Z6.make(3), Z6.make(4))
    w = Z6.add(Z6.make(3), Z6.mul(Z6.make(2), r))
    assert Z6.bezout_gcd(w, Z6.make(4)).d == Z6.one
    Z12 = make_ring("Zn:12")
    r = solve_reduction_residue(Z12, Z12.make(4), Z12.make(3), Z12.make(2))
    assert r == Z12.zero
    anyr = solve_reduction_residue(Z12, Z12.zero, Z12.one, Z12.make(7))
    assert anyr == Z12.zero  # 1 is comaximal with everything


def test_solve_reduction_residue_strategies_agree():
    Z12 = make_ring("Zn:12")
    cache_elems = list(Z12.elements())
    rng = random.Random(31)
    for _ in range(60):
        a, b, c = (rng.choice(cache_elems) for _ in range(3))
        try:
            r1 = solve_reduction_residue(Z12, a, b, c, strategy="search")
            ok1 = True
        except NoResidue:
            ok1 = False
        try:
            r2 = solve_reduction_residue(Z12, a, b, c, strategy="quotient")
            ok2 = True
        except NoResidue:
            ok2 = False
        assert ok1 == ok2
        if ok1:
            assert r1 == r2  # both take the first shift in enumeration order


def test_diagonal_reduce_z_examples(Z):
    A = RingMatrix.from_raw(Z, [[2, 4], [6, 8]])
    cert = diagonal_reduce(Z, A)
    assert [str(d) for d in cert.D.diagonal()] == ["2", "4"]
    assert verify_certificate(Z, A, cert).verdict
    eye = RingMatrix.from_raw(Z, [[1, 0], [0, 1]])
    cert = diagonal_reduce(Z, eye)
    assert cert.D == eye and verify_certificate(Z, eye, cert).verdict


def test_diagonal_reduce_z6_comaximal_entries():
    Z6 = make_ring("Zn:6")
    A = RingMatrix.from_raw(Z6, [[2, 0], [3, 4]])
    cert = diagonal_reduce(Z6, A)
    assert cert.D.entries[0][0] == Z6.one
    assert verify_certificate(Z6, A, cert).verdict


def test_diagonal_reduce_zero_and_rectangular(Z):
    A = RingMatrix.from_raw(Z, [[0, 0], [0, 0]])
    cert = diagonal_reduce(Z, A)
    assert verify_certificate(Z, A, cert).verdict
    A = RingMatrix.from_raw(Z, [[3, 6, 9]])
    cert = diagonal_reduce(Z, A)
    assert verify_certificate(Z, A, cert).verdict
    assert [str(d) for d in cert.D.diagonal()] == ["3"]
    A = RingMatrix.from_raw(Z, [[4], [6], [10]])
    cert = diagonal_reduce(Z, A)
    assert verify_certificate(Z, A, cert).verdict
    assert [str(d) for d in cert.D.diagonal()] == ["2"]


def test_diagonal_reduce_matches_minors_oracle(Z):
    rng = random.Random(404)
    for _ in range(60):
        rows = [[rng.randint(-30, 30) for _ in range(3)] for _ in range(3)]
        A = RingMatrix.from_raw(Z, rows)
        cert = diagonal_reduce(Z, A)
        assert verify_certificate(Z, A, cert).verdict
        want = minors_gcd_diagonal(rows)
        got = [abs(d.value) for d in cert.D.diagonal()]
        assert got == [abs(w) for w in want], rows


def test_diagonal_reduce_zloc():
    zl = make_ring("zloc:{3,5}")
    A = RingMatrix.from_strings(zl, [["45/2", "3", "7"], ["5", "9/7", "1/2"]])
    cert = diagonal_reduce(zl, A)
    assert verify_certificate(zl, A, cert).verdict
    A = RingMatrix.from_strings(zl, [["9", "15"], ["15", "25"]])
    cert = diagonal_reduce(zl, A)
    assert verify_certificate(zl, A, cert).verdict
    # invariant chain normalizes to products of the localized primes
    assert [str(d) for d in cert.D.diagonal()] == ["1", "0"]


def test_diagonal_reduce_exhaustive_small_finite():
    for spec in ("Zn:4", "polyq:2:x^2-1"):
        ring = make_ring(spec)
        elems = list(ring.elements())
        for combo in itertools.product(elems, repeat=4):
            A = RingMatrix(ring, [[combo[0], combo[1]], [combo[2], combo[3]]])
            cert = diagonal_reduce(ring, A)
            res = verify_certificate(ring, A, cert)
            assert res.verdict, (spec, A.to_strings(), res.counterexample)


def test_diagonal_reduce_3x3_finite_sample():
    rng = random.Random(77)
    for spec in ("Zn:12", "Zn:9", "prod(Zn:4,Zn:9)"):
        ring = make_ring(spec)
        elems = list(ring.elements())
        for _ in range(40):
            A = RingMatrix(ring, [[rng.choice(elems) for _ in range(3)]
                                  for _ in range(3)])
            cert = diagonal_reduce(ring, A)
            assert verify_certificate(ring, A, cert).verdict, A.to_strings()


def test_reduction_failure_on_nonbezout_table_ring():
    ring = make_ring(f"table:{builtin_table_path()}")
    A = RingMatrix.from_strings(ring, [["2", "4"], ["0", "0"]])  # u, v row
    with pytest.raises(ReductionFailed) as err:
        diagonal_reduce(ring, A)
    assert err.value.witness is not None


def test_reduce_unsupported_ring():
    du = make_ring("dualint")
    A = RingMatrix.from_strings(du, [["1", "0"], ["0", "1"]])
    with pytest.raises(UnsupportedSpec):
        diagonal_reduce(du, A)


def test_verify_certificate_tamper_cases(Z):
    A = RingMatrix.from_raw(Z, [[2, 4], [6, 8]])
    cert = diagonal_reduce(Z, A)
    swapped = ReductionCertificate(
        P=cert.P, Pinv=cert.Pinv,
        D=RingMatrix.from_raw(Z, [[4, 0], [0, 2]]),
        Q=cert.Q, Qinv=cert.Qinv)
    res = verify_certificate(Z, A, swapped)
    assert not res.verdict and res.counterexample["invariant"] == "product"
    # a diagonal that multiplies out but breaks the chain
    fake = ReductionCertificate(
        P=RingMatrix.identity(Z, 2), Pinv=RingMatrix.identity(Z, 2),
        D=RingMatrix.from_raw(Z, [[4, 0], [0, 2]]),
        Q=RingMatrix.identity(Z, 2), Qinv=RingMatrix.identity(Z, 2))
    B = RingMatrix.from_raw(Z, [[4, 0], [0, 2]])
    res = verify_certificate(Z, B, fake)
    assert not res.verdict
    assert res.counterexample["invariant"] == "divisibility_chain"
    # non-invertible P: scale a row by 2 in both P and D
    two_scaled_p = RingMatrix.from_raw(Z, [[2, 0], [0, 1]])
    bad = ReductionCertificate(
        P=two_scaled_p, Pinv=RingMatrix.identity(Z, 2),
        D=RingMatrix.from_raw(Z, [[8, 0], [0, 2]]),
        Q=RingMatrix.identity(Z, 2), Qinv=RingMatrix.identity(Z, 2))
    res = verify_certificate(Z, B, bad)
    assert not res.verdict
    assert res.counterexample["invariant"] in ("P_invertible",
                                               "divisibility_chain")


@pytest.mark.parametrize("spec", ["Z", "Zn:6"])
def test_foreign_elements_are_rejected(spec):
    ring, other = make_ring(spec), make_ring(spec)  # two distinct handles
    foreign = other.make(1)
    with pytest.raises(MixedRings):
        RingMatrix(ring, [[ring.one, foreign]])
    # The ring's own constructors skip the entry check, verification does not.
    A = RingMatrix.from_strings(ring, [["1", "0"], ["0", "1"]])
    eye = RingMatrix.identity(ring, 2)
    forged = RingMatrix.from_strings(other, [["1", "0"], ["0", "1"]])
    for i in range(5):
        mats = [eye] * 5
        mats[i] = forged
        with pytest.raises(MixedRings):
            verify_certificate(ring, A, ReductionCertificate(*mats))
    with pytest.raises(MixedRings):
        verify_certificate(ring, forged, ReductionCertificate(*[eye] * 5))


def test_matrix_json_roundtrip(Z):
    A = RingMatrix.from_raw(Z, [[2, -4], [6, 8]])
    data = matrix_to_json(A)
    assert data["ring"] == "Z"
    B = matrix_from_json(Z, data)
    assert A == B
    cert = diagonal_reduce(Z, A)
    blob = cert.to_json(verified=True)
    back = ReductionCertificate.from_json(Z, blob)
    assert verify_certificate(Z, A, back).verdict


def test_kernel_identity_seeded_z(Z):
    rng = random.Random(12)
    done = 0
    while done < 300:
        a, b, c, r = (rng.randint(-100, 100) for _ in range(4))
        if gcd(b + a * r, c) != 1:
            continue
        done += 1
        cert = comax_triangular_reduce(Z, Z.make(a), Z.make(b), Z.make(c),
                                       Z.make(r))
        assert cert.D.to_strings() == [["1", "0"], ["0", str(-a * c)]]


def test_diagonal_reduce_larger_shapes_against_oracle(Z):
    rng = random.Random(808)
    shapes = [(4, 4), (5, 3), (2, 5), (1, 1), (4, 2)]
    for rows_n, cols_n in shapes:
        for _ in range(12):
            rows = [[rng.randint(-10**6, 10**6) for _ in range(cols_n)]
                    for _ in range(rows_n)]
            A = RingMatrix.from_raw(Z, rows)
            cert = diagonal_reduce(Z, A)
            assert verify_certificate(Z, A, cert).verdict, rows
            want = minors_gcd_diagonal(rows)
            got = [abs(d.value) for d in cert.D.diagonal()]
            assert got == [abs(w) for w in want], (rows, got, want)


def test_diagonal_reduce_is_deterministic():
    ring = make_ring("Zn:12")
    A = RingMatrix.from_raw(ring, [[6, 4, 9], [2, 8, 10], [4, 4, 8]])
    one = diagonal_reduce(ring, A).to_json(verified=True)
    two = diagonal_reduce(ring, A).to_json(verified=True)
    assert one == two


@pytest.mark.parametrize("spec", ["Zn:12", "Zn:8", "prod(Zn:2,Zn:3)",
                                  "polyq:3:x^2"])
def test_kernel_identity_sampled_finite(spec):
    ring = make_ring(spec)
    cache = build_cache(ring)
    n = cache.n
    rng = random.Random(spec)
    done = 0
    while done < 150:
        a, b, c, r = (rng.randrange(n) for _ in range(4))
        w = cache.add[b * n + cache.mul[a * n + r]]
        if not cache.comax[w][c]:
            continue
        done += 1
        els = [cache.element(v) for v in (a, b, c, r)]
        cert = comax_triangular_reduce(ring, *els)
        want = RingMatrix(ring, [
            [ring.one, ring.zero],
            [ring.zero, ring.neg(ring.mul(els[0], els[2]))],
        ])
        assert cert.D == want, (spec, a, b, c, r)
        A = RingMatrix(ring, [[els[0], els[1]], [ring.zero, els[2]]])
        assert verify_certificate(ring, A, cert).verdict


@pytest.mark.parametrize("spec", ["Zn:12", "prod(Zn:4,Zn:3)", "polyq:3:x^2-1"])
def test_whole_matrix_kernel_certificates(spec):
    """On a 2x2 matrix the kernel writes P, Q and their inverses itself.

    They are inverses on both sides, the certificate verifies, and the
    adapter's identity templates, from which the reducer copies its
    starting transforms, are left as they were.
    """
    ops = _cache_ops(build_cache(make_ring(spec)))
    identity = [[ops.one, ops.zero], [ops.zero, ops.one]]
    rng = random.Random(f"whole-kernel-{spec}")
    grids = [[[ops.zero] * 2, [ops.zero] * 2]]  # the early return
    grids += [[[rng.randrange(ops.n) for _ in range(2)] for _ in range(2)]
              for _ in range(200)]
    for grid in grids:
        P, Pinv, D, Q, Qinv = _reduce_raw(ops, grid)
        assert _verify_raw(ops, grid, P, Pinv, D, Q, Qinv) is None, grid
        assert ops.matmul(Pinv, P) == identity, grid
        assert ops.matmul(Qinv, Q) == identity, grid
        assert all(type(M) is list and all(type(row) is list for row in M)
                   for M in (P, Pinv, D, Q, Qinv)), grid
    assert ops.identity(2) == identity
