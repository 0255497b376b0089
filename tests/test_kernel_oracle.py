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
"""

import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ringlab.concrete import builtin_table_path, make_ring
from ringlab import reduction
from ringlab.errors import NotBezout, ReductionFailed
from ringlab.reduction import (
    _box,
    _cache_ops,
    _comax_cofactors,
    _reduce_raw,
    _Reducer,
)

TABLE = f"table:{builtin_table_path()}"


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
        cache = ops.c
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
        cls = cache.ideal_class
        sum_id = cache.sum_ideal_id(cache.sum_ideal_id(cls[ap], cls[bp]), cls[cp])
        gens = cache.generators_of(sum_id)
        if not gens:
            raise ReductionFailed(
                "entry ideal of the 2x2 block is not principal",
                witness=self.block(k))
        trip = _comax_cofactors(cache, gens[0], ap, bp, cp)
        if trip is None:
            raise ReductionFailed(
                "no comaximal cofactor triple for the 2x2 block",
                witness=self.block(k))
        ta, tb, tc = trip
        self.row_swap(k, j)
        self.col_swap(k, j)
        r = None
        for cand in range(cache.n):
            if cache.comax[cache.add[tb * cache.n + cache.mul[tc * cache.n + cand]]][ta]:
                r = cand
                break
        if r is None:
            raise ReductionFailed(
                "no residue shift makes the block comaximal",
                witness=self.block(k))
        w = cache.add[tb * cache.n + cache.mul[tc * cache.n + r]]
        x, y = cache.comax_witness(w, ta)
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
        red.run(use_kernel=True)
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
    ops = _cache_ops(make_ring(spec).cache())
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
    ops = _cache_ops(make_ring(spec).cache())
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
KERNEL_OPS = {spec: _cache_ops(make_ring(spec).cache()) for spec in KERNEL_RINGS}


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
