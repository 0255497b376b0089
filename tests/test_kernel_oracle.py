"""Oracle tests for the 2x2 kernel of the finite-ring reducer.

The kernel is one left and one right transform, each written in closed
form (``_kernel_transforms``): ``_reduce_raw`` takes a whole 2x2 matrix
through it as straight-line code (``_reduce_2x2``), and
``_Reducer.kernel_2x2`` applies it to the trailing block of a larger
one. The reference here is the step-by-step kernel it replaced: the
triangularizing column step, a swap of both rows and columns, a column
shift by r, the comaximal row step, a column add and a final column
swap, each applied on its own with the elementary row and column
operations, which are kept here as they were too. Both must give the
same (P, Pinv, D, Q, Qinv) index for index, and the same
``ReductionFailed`` reason and witness.

The reference kernel makes its own searches (``RawSearches``) on the
ring's raw add and mul tables, sharing no code with the cache's class
layer: the gcd generator, the cofactor triple, the shift r and the
comaximality witness.
"""

import functools
import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ringlab.concrete import builtin_table_path, make_ring
from ringlab import reduction
from ringlab.errors import NotBezout, ReductionFailed
from ringlab.engine import build_cache
from ringlab.reduction import (
    _box,
    _cache_ops,
    _reduce_raw,
    _Reducer,
)

TABLE = f"table:{builtin_table_path()}"


class RawSearches:
    """The 2x2 kernel's searches by brute force on raw index tables.

    The principal ideal tR is the set of t's mul row, a sum of ideals is
    the set of pairwise sums, and each search scans indices ascending.
    """

    def __init__(self, ops):
        n, mul = ops.n, ops._mul
        self.n, self.add, self.mul, self.neg = n, ops._add, mul, ops._neg
        self.one = ops.one
        self.ideal = [frozenset(mul[t * n:t * n + n]) for t in range(n)]
        self._sums = {}

    def plus(self, first, *rest):
        """The sum of the principal ideals of the given elements."""
        total = self.ideal[first]
        for t in rest:
            key = total, self.ideal[t]
            got = self._sums.get(key)
            if got is None:
                n, add = self.n, self.add
                got = self._sums[key] = frozenset(
                    add[x * n + y] for x in total for y in self.ideal[t])
            total = got
        return total

    def comaximal(self, *ts):
        return self.one in self.plus(*ts)

    def gcd_generator(self, a, b, c):
        """The first g with gR = aR + bR + cR, or None."""
        want = self.plus(a, b, c)
        return next((g for g in range(self.n) if self.ideal[g] == want), None)

    def cofactor_triple(self, g, a, b, c):
        """The first comaximal (ta, tb, tc), in nested order, over the first
        t of each class with g*t = a, b and c, ascending; or None."""
        n, mul = self.n, self.mul
        reps = []
        for target in (a, b, c):
            firsts, seen = [], set()
            for t in range(n):
                if mul[g * n + t] == target and self.ideal[t] not in seen:
                    seen.add(self.ideal[t])
                    firsts.append(t)
            reps.append(firsts)
        return next((trip for trip in itertools.product(*reps)
                     if self.comaximal(*trip)), None)

    def shifted(self, tb, tc, r):
        """tb + tc*r."""
        return self.add[tb * self.n + self.mul[tc * self.n + r]]

    def shift(self, ta, tb, tc):
        """The first r with tb + tc*r comaximal with ta, or None."""
        return next((r for r in range(self.n)
                     if self.comaximal(self.shifted(tb, tc, r), ta)), None)

    def comax_witness(self, w, ta):
        """The first x with 1 - w*x in taR, and the first y with ta*y = 1 - w*x."""
        n, add, mul, neg = self.n, self.add, self.mul, self.neg
        for x in range(n):
            v = add[self.one * n + neg[mul[w * n + x]]]
            if v in self.ideal[ta]:
                return x, next(y for y in range(n) if mul[ta * n + y] == v)
        raise AssertionError("w and ta are comaximal")


@functools.cache
def raw_searches(ops):
    return RawSearches(ops)


class StepwiseReducer(_Reducer):
    """The reducer with the step-by-step 2x2 kernel and row/column steps."""

    def col_combine(self, k, j, x, y, b1, a1):
        ops = self.ops
        lin = ops.lin
        nb1 = ops.neg(b1)
        for M in (self.A, self.Q):
            for row in M:
                ck, cj = row[k], row[j]
                row[k] = lin(ck, x, cj, y)
                row[j] = lin(ck, nb1, cj, a1)
        R = self.Qinv
        rk, rj = R[k], R[j]
        R[k] = ops.comb(rk, a1, rj, b1)
        R[j] = ops.comb(rk, ops.neg(y), rj, x)

    def row_combine(self, k, i, x, y, b1, a1):
        ops = self.ops
        comb, lin = ops.comb, ops.lin
        nb1 = ops.neg(b1)
        for M in (self.A, self.P):
            rk, ri = M[k], M[i]
            M[k] = comb(rk, x, ri, y)
            M[i] = comb(rk, nb1, ri, a1)
        ny = ops.neg(y)
        for row in self.Pinv:
            ck, ci = row[k], row[i]
            row[k] = lin(ck, a1, ci, b1)
            row[i] = lin(ck, ny, ci, x)

    def kernel_2x2(self, k):
        ops = self.ops
        raw = raw_searches(ops)
        A = self.A
        j = k + 1
        if not ops.is_zero(A[k][j]):
            t = ops.divides(A[k][k], A[k][j])
            if t is not None:
                self.col_add(j, k, ops.neg(t))
            else:
                d, x, y, a1, b1, _, _ = ops.bezout(A[k][k], A[k][j])
                self.col_combine(k, j, x, y, b1, a1)
        ap, bp, cp = A[k][k], A[j][k], A[j][j]
        if ops.is_zero(ap) and ops.is_zero(bp) and ops.is_zero(cp):
            return
        g = raw.gcd_generator(ap, bp, cp)
        if g is None:
            raise ReductionFailed(
                "entry ideal of the 2x2 block is not principal",
                witness=self.block(k))
        trip = raw.cofactor_triple(g, ap, bp, cp)
        if trip is None:
            raise ReductionFailed(
                "no comaximal cofactor triple for the 2x2 block",
                witness=self.block(k))
        ta, tb, tc = trip
        self.row_swap(k, j)
        self.col_swap(k, j)
        r = raw.shift(ta, tb, tc)
        if r is None:
            raise ReductionFailed(
                "no residue shift makes the block comaximal",
                witness=self.block(k))
        w = raw.shifted(tb, tc, r)
        x, y = raw.comax_witness(w, ta)
        self.col_add(j, k, r)
        self.row_combine(k, j, x, y, ta, w)
        self.col_add(k, j, ops.neg(ops.mul(tc, x)))
        self.col_swap(k, j)

    def block(self, k):
        return _box(self.ops, [row[k:] for row in self.A[k:]])


def stepwise_reduce(ops, grid):
    """``_reduce_raw`` with the stepwise reducer for every shape."""
    red = StepwiseReducer(ops, [list(row) for row in grid], len(grid), len(grid[0]))
    try:
        red.run()
    except NotBezout as exc:
        raise ReductionFailed(str(exc), witness=_box(ops, grid)) from exc
    return red.P, red.Pinv, red.A, red.Q, red.Qinv


def outcome(reduce, ops, grid):
    """(P, Pinv, D, Q, Qinv), or the failure's (reason, witness entries)."""
    try:
        return reduce(ops, grid)
    except ReductionFailed as exc:
        return "failed", exc.reason, exc.witness.entries


def assert_same(ops, grid):
    want = outcome(stepwise_reduce, ops, grid)
    assert outcome(_reduce_raw, ops, grid) == want, grid
    return want


@pytest.fixture
def whole_2x2_calls(monkeypatch):
    """The grids ``_reduce_raw`` sends to its straight-line 2x2 path."""
    calls = []
    reduce_2x2 = reduction._reduce_2x2

    def spy(ops, a, b, c, d):
        calls.append([[a, b], [c, d]])
        return reduce_2x2(ops, a, b, c, d)

    monkeypatch.setattr(reduction, "_reduce_2x2", spy)
    return calls


@pytest.mark.parametrize("spec", ["Zn:6", TABLE])
def test_every_2x2_matrix_matches_the_stepwise_kernel(spec, whole_2x2_calls):
    ops = _cache_ops(build_cache(make_ring(spec)))
    failures = 0
    grids = [[[a, b], [c, d]]
             for a, b, c, d in itertools.product(range(ops.n), repeat=4)]
    for grid in grids:
        failures += assert_same(ops, grid)[0] == "failed"
    assert whole_2x2_calls == grids
    # The control ring refuses some blocks, so the witnesses were compared.
    assert (failures > 0) == (spec == TABLE)


@pytest.mark.parametrize("spec", ["Zn:60", "prod(Zn:4,Zn:9)", "polyq:9:x^2-1"])
def test_seeded_matrices_match_the_stepwise_kernel(spec, whole_2x2_calls):
    ops = _cache_ops(build_cache(make_ring(spec)))
    rng = random.Random(f"kernel-oracle-{spec}")
    grids = [[[rng.randrange(ops.n) for _ in range(size)] for _ in range(size)]
             for size in (2, 3, 4) for _ in range(60)]
    for grid in grids:
        assert_same(ops, grid)
    assert whole_2x2_calls == [grid for grid in grids if len(grid) == 2]


class RecordingReducer(_Reducer):
    """The reducer, noting each 2x2 transform pair it applies."""

    def __init__(self, *args):
        super().__init__(*args)
        self.pairs = []

    def col_pair(self, k, j, E, Einv):
        self.pairs.append((E, Einv))
        super().col_pair(k, j, E, Einv)

    def row_pair(self, k, i, E, Einv):
        self.pairs.append((E, Einv))
        super().row_pair(k, i, E, Einv)


KERNEL_RINGS = ("Zn:12", "prod(Zn:4,Zn:3)", "polyq:3:x^2-1", TABLE)
KERNEL_OPS = {spec: _cache_ops(build_cache(make_ring(spec))) for spec in KERNEL_RINGS}


@st.composite
def kernel_blocks(draw):
    spec = draw(st.sampled_from(KERNEL_RINGS))
    n = KERNEL_OPS[spec].n
    entries = draw(st.lists(st.integers(0, n - 1), min_size=4, max_size=4))
    return spec, [entries[:2], entries[2:]], draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(kernel_blocks())
def test_kernel_transforms_are_inverse_pairs(case):
    """On a whole 2x2 matrix ``_reduce_raw`` returns the kernel's
    transforms as P, Pinv, Q and Qinv; as the trailing block of a 3x3
    matrix the kernel applies them through ``row_pair`` and ``col_pair``.
    Either way every pair checked here must be inverse."""
    spec, block, embedded = case
    ops = KERNEL_OPS[spec]
    try:
        if embedded:
            grid = [[ops.one, ops.zero, ops.zero]] + [[ops.zero] + row for row in block]
            red = RecordingReducer(ops, [row[:] for row in grid], 3, 3)
            red.kernel_2x2(1)
            # One left transform L and one right transform M.
            assert len(red.pairs) == 2, (spec, block)
            checked = red.pairs + [(red.P, red.Pinv), (red.Q, red.Qinv)]
        else:
            P, Pinv, _, Q, Qinv = _reduce_raw(ops, block)
            checked = [(P, Pinv), (Q, Qinv)]
    except (ReductionFailed, NotBezout):
        return  # the control ring refuses the block
    for E, Einv in checked:
        identity = ops.identity(len(E))
        assert ops.matmul(E, Einv) == identity, (spec, block, embedded)
        assert ops.matmul(Einv, E) == identity, (spec, block, embedded)
