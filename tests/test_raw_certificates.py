"""Every matrix keeps a raw grid through the public reduce path.

A ``RingMatrix`` holds a raw grid with its ring's scalar adapter and boxes
its entries only when they are read; ``RingMatrix(ring, entries)``
unboxes the elements once, when it is built. These tests pin what that
must not change: the conversions a reduce -> verify -> JSON -> verify
cycle makes, equality with the element-level copy, rejection of another
handle's matrices, the ownership of a kept grid, pickling, and the size
bound, which a finite ring meets when a matrix is built.
"""

import copy
import json
import pickle
import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest

from ringlab import lab
from ringlab.concrete import builtin_table_path, make_ring, quotient_ring
from ringlab.engine import build_cache
from ringlab.errors import MixedRings, ReductionFailed, TooLarge
from ringlab.reduction import (
    ReductionCertificate,
    RingMatrix,
    _scalar_ops,
    _unbox,
    diagonal_reduce,
    verify_certificate,
)

TABLE_SPEC = f"table:{builtin_table_path()}"
# One ring of each kind the reduce benchmark runs.
SPECS = ("Z", "zloc:{2,3}", "Zn:72", "prod(Zn:8,Zn:9)", "polyq:3:x^2-1",
         TABLE_SPEC)
SPEC_IDS = ["table" if spec == TABLE_SPEC else spec for spec in SPECS]
SHAPES = ((2, 2), (3, 3), (2, 3), (4, 4))
NAMES = ("P", "Pinv", "D", "Q", "Qinv")


def draw(ring, rng):
    if ring.kind == "Z":
        return ring.make(rng.randint(-10**4, 10**4))
    if ring.kind == "zloc":
        return ring.make(Fraction(rng.randint(-200, 200),
                                  rng.choice((1, 5, 7, 25, 35))))
    return rng.choice(list(ring.elements()))


def reducible(spec, seed=0, count=3):
    """(ring, user-built A, certificate) for seeded matrices of each shape
    that reduce; the non-Bezout table ring refuses some of them."""
    ring = make_ring(spec)
    rng = random.Random(f"raw-certificates:{spec}:{seed}")
    out = []
    for rows, cols in SHAPES:
        got = 0
        while got < count:
            A = RingMatrix(ring, [[draw(ring, rng) for _ in range(cols)]
                                  for _ in range(rows)])
            try:
                cert = diagonal_reduce(ring, A)
            except ReductionFailed:
                continue
            out.append((ring, A, cert))
            got += 1
    return out


def cycle(ring, A):
    """The reduce benchmark's op: reduce, verify, JSON round trip, verify."""
    cert = diagonal_reduce(ring, A)
    ok = verify_certificate(ring, A, cert).verdict
    data = json.loads(json.dumps(cert.to_json(ok)))
    back = ReductionCertificate.from_json(ring, data)
    return ok and verify_certificate(ring, A, back).verdict


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_cycle_converts_only_the_user_matrix(spec, monkeypatch):
    """The user's A is unboxed once, when it is built; the cycle then
    boxes and unboxes no entry."""
    cases = reducible(spec)
    ops_type = type(_scalar_ops(cases[0][0]))
    calls = Counter()
    for name in ("from_elem", "to_elem"):
        def spy(self, x, name=name, orig=getattr(ops_type, name)):
            calls[name] += 1
            return orig(self, x)
        monkeypatch.setattr(ops_type, name, spy)
    for ring, A, _ in cases:
        entries = A.entries
        calls.clear()
        A = RingMatrix(ring, entries)
        assert calls == {"from_elem": A.rows * A.cols}, A.to_strings()
        calls.clear()
        assert cycle(ring, A)
        assert not calls, A.to_strings()


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_library_matrices_match_their_element_copies(spec):
    for ring, A, cert in reducible(spec):
        data = json.loads(json.dumps(cert.to_json(True)))
        d00 = ring.parse_element(data["D"][0][0])
        data["D"][0][0] = ring.format_element(ring.add(d00, ring.one))
        tampered = ReductionCertificate.from_json(ring, data)
        for c in (cert, ReductionCertificate.from_json(ring, cert.to_json(True)),
                  tampered):
            mats = [getattr(c, name) for name in NAMES]
            strings = [M.to_strings() for M in mats]  # before any boxing
            verdict = verify_certificate(ring, A, c)
            copies = [RingMatrix(ring, M.entries) for M in mats]
            assert [E.to_strings() for E in copies] == strings
            for M, E in zip(mats, copies):
                assert M == E and E == M and hash(M) == hash(E)
            assert verify_certificate(
                ring, A, ReductionCertificate(*copies)) == verdict
        assert not verify_certificate(ring, A, tampered).verdict


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_matrices_of_another_handle_are_rejected(spec):
    ring, A, cert = reducible(spec, count=1)[0]
    other = make_ring(spec)  # a second handle of the same spec
    A_other = RingMatrix.from_strings(other, A.to_strings())
    cert_other = diagonal_reduce(other, A_other)
    parsed_other = ReductionCertificate.from_json(other, cert_other.to_json(True))
    for foreign in (cert_other, parsed_other):
        for i, name in enumerate(NAMES):
            mats = [getattr(cert, n) for n in NAMES]
            mats[i] = getattr(foreign, name)
            with pytest.raises(MixedRings):
                verify_certificate(ring, A, ReductionCertificate(*mats))
    with pytest.raises(MixedRings):
        verify_certificate(ring, A_other, cert)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_entries_that_are_not_elements_are_rejected(spec):
    ring = make_ring(spec)
    with pytest.raises(MixedRings):
        RingMatrix(ring, [[ring.one, 1]])


def element_product(ring, X, Y):
    """X*Y entry by entry in Element arithmetic, as a RingMatrix."""
    return RingMatrix(ring, [[reduce(ring.add, map(ring.mul, row, col), ring.zero)
                              for col in zip(*Y.entries)] for row in X.entries])


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_mat_mul_multiplies_the_grids_of_one_handle(spec):
    """mat_mul agrees with Element arithmetic, multiplies a certificate
    out to D and to identities, and rejects another handle's matrix."""
    other = make_ring(spec)
    for ring, A, cert in reducible(spec, count=1):
        for X, Y in ((A, cert.Q), (cert.P, A), (cert.Pinv, cert.D)):
            assert X.mat_mul(Y) == element_product(ring, X, Y)
        assert cert.P.mat_mul(A).mat_mul(cert.Q) == cert.D
        assert cert.P.mat_mul(cert.Pinv) == RingMatrix.identity(ring, A.rows)
        assert cert.Qinv.mat_mul(cert.Q) == RingMatrix.identity(ring, A.cols)
        A_other = RingMatrix.from_strings(other, A.to_strings())
        for X, Y in ((A, RingMatrix.identity(other, A.cols)), (A_other, cert.Q)):
            with pytest.raises(MixedRings):
                X.mat_mul(Y)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_kept_grid_is_unchanged_after_reducing_it(spec):
    for ring, A, cert in reducible(spec):
        ops = _scalar_ops(ring)
        parsed = ReductionCertificate.from_json(ring, cert.to_json(True))
        for c in (cert, parsed):
            for name in NAMES:
                M = getattr(c, name)
                grid = _unbox(ops, M)
                assert grid is M._raw[1]  # the kept grid, not a copy
                before = copy.deepcopy(grid)
                try:
                    diagonal_reduce(ring, M)
                except ReductionFailed:
                    pass
                assert grid == before, (name, M.to_strings())
            assert verify_certificate(ring, A, c).verdict


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_pickled_certificate_still_verifies(spec):
    for ring, A, cert in reducible(spec, count=1):
        for c in (cert, ReductionCertificate.from_json(ring, cert.to_json(True))):
            ring2, A2, c2 = pickle.loads(pickle.dumps((ring, A, c)))
            assert c2.D.to_strings() == c.D.to_strings()
            res = verify_certificate(ring2, A2, c2)
            assert res.verdict
            assert res == verify_certificate(ring, A, c)


@pytest.mark.parametrize("spec", SPECS[:-1], ids=SPEC_IDS[:-1])
def test_pickled_certificate_of_each_kernel_shape_still_verifies(spec):
    """One certificate of each compiled kernel shape, 1..6 by 1..6,
    verifies the same after a pickle round trip of ring, matrix and
    certificate. The adapters keep no kernel, so they still pickle. The
    control table ring, last in SPECS, refuses some matrices and is left
    out; its kernels are the other finite rings'."""
    ring = make_ring(spec)
    rng = random.Random(f"kernel-shapes:{spec}")
    done = [(A, diagonal_reduce(ring, A)) for A in (
        RingMatrix(ring, [[draw(ring, rng) for _ in range(cols)]
                          for _ in range(rows)])
        for rows in range(1, 7) for cols in range(1, 7))]
    ring2, done2 = pickle.loads(pickle.dumps((ring, done)))
    for (A, cert), (A2, cert2) in zip(done, done2):
        res = verify_certificate(ring2, A2, cert2)
        assert res.verdict, (A.rows, A.cols)
        assert res == verify_certificate(ring, A, cert)


def test_matrix_past_the_bound_is_too_large_without_a_cache():
    """Zn:5000 is past the default size bound of 4096: a matrix over a
    handle with no cache cannot be built, no witness method answers, and
    no cache is left behind."""
    ring = make_ring("Zn:5000")
    two, three = ring.make(2), ring.make(3)
    builds = (lambda: RingMatrix(ring, [[ring.make(1), ring.make(2)]]),
              lambda: RingMatrix.from_strings(ring, [["1", "2"]]),
              lambda: RingMatrix.from_strings(ring, [["abc"]]),
              lambda: RingMatrix.identity(ring, 2),
              lambda: ring.is_unit(three),
              lambda: ring.divides(two, three),
              lambda: ring.bezout_gcd(two, three))
    for build in builds:
        with pytest.raises(TooLarge):
            build()
    assert getattr(ring, "_cache_obj", None) is None


@pytest.fixture(scope="module")
def past_the_bound():
    """A Zn:4097 handle holding a cache built under a bound of 8192.
    Zn:4097 is the smallest ring past the default bound of 4096, so its
    tables are the cheapest to build; the tests share one handle."""
    ring = make_ring("Zn:4097")
    build_cache(ring, 8192)
    return ring


def test_a_held_cache_is_returned_whatever_the_bound():
    """The bound is checked when the tables are built, and only then."""
    with pytest.raises(TooLarge, match="Zn:50 has 50 elements, bound is 10"):
        build_cache(make_ring("Zn:50"), bound=10)
    ring = make_ring("Zn:50")
    cache = build_cache(ring)
    assert build_cache(ring, bound=10) is cache


def test_matrix_past_the_bound_on_a_cached_handle(past_the_bound):
    """A handle that holds a cache built under a larger bound makes its
    matrices with that cache; reducing and the witness methods still
    need the default bound."""
    ring = past_the_bound
    A = RingMatrix(ring, [[ring.make(2), ring.make(3)],
                          [ring.make(4), ring.make(4096)]])
    assert A.to_strings() == [["2", "3"], ["4", "4096"]]
    assert RingMatrix.from_strings(ring, A.to_strings()) == A
    eye = RingMatrix.identity(ring, 2)
    assert eye.to_strings() == [["1", "0"], ["0", "1"]]
    assert A.mat_mul(eye) == A and eye.mat_mul(A) == A
    with pytest.raises(TooLarge):
        diagonal_reduce(ring, A)
    with pytest.raises(TooLarge):
        verify_certificate(ring, A, ReductionCertificate(*[eye] * 5))
    two, three = ring.make(2), ring.make(3)
    for witness in (lambda: ring.is_unit(three),
                    lambda: ring.divides(two, three),
                    lambda: ring.bezout_gcd(two, three)):
        with pytest.raises(TooLarge):
            witness()


def test_quotients_of_a_handle_held_past_the_bound(past_the_bound):
    """Quotients read the cache the handle holds: R/17R is built, and the
    corpus checks that build quotients (P2.13, T3.1) give rows with no
    ``error`` under the bound the run's cache was built with."""
    ring = past_the_bound
    q, _ = quotient_ring(ring, [ring.make(17)])
    assert q.cardinality == 17
    ctx = lab._RingCtx("Zn:4097", ring,
                       lab.CorpusConfig(ring_specs=("Zn:4097",), size_bound=8192))
    assert ctx.cache is build_cache(ring)
    for cid in ("P2.13", "T3.1"):
        row = lab._run_check(lab._CHECKS[cid], ctx)
        assert "error" not in row and row["verdict"] is True, (cid, row)
