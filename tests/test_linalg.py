"""The sparse elimination of ``linalg`` against the dense Gauss-Jordan
of ``oracles``, on seeded random sparse matrices over Q, F_2, F_3 and
F_32003."""

import random
from fractions import Fraction

from oracles import reference_nullspace_basis, reference_rref

from jetclosure.linalg import nullspace_basis, rref
from jetclosure.poly import FieldSpec

FIELDS = (
    FieldSpec.rationals(),
    FieldSpec.prime_field(2),
    FieldSpec.prime_field(3),
    FieldSpec.prime_field(32003),
)


def _scalar(rng, fld):
    if fld.characteristic == 0:
        return Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
    return rng.randrange(fld.characteristic)


def _random_dense(rng, fld, nrows, ncols, density):
    """A dense matrix of mostly zero entries; some columns are repeated."""
    mat = [
        [_scalar(rng, fld) if rng.random() < density else fld.zero() for _ in range(ncols)]
        for _ in range(nrows)
    ]
    for _ in range(rng.randint(0, 2)):
        if ncols >= 2:
            src, dst = rng.sample(range(ncols), 2)
            for row in mat:
                row[dst] = row[src]
    return mat


def _sparse(mat, fld):
    return [{c: x for c, x in enumerate(row) if not fld.is_zero(x)} for row in mat]


def _dense(vec: dict, ncols: int, fld) -> list:
    return [vec.get(c, fld.zero()) for c in range(ncols)]


def _check(mat, ncols, fld):
    rows = _sparse(mat, fld)
    before = [dict(r) for r in rows]
    kernel = nullspace_basis(rows, ncols, fld)
    assert rows == before  # the input rows are left alone
    assert all(not fld.is_zero(x) for v in kernel for x in v.values())
    assert [_dense(v, ncols, fld) for v in kernel] == reference_nullspace_basis(mat, ncols, fld)
    echelon = rref(rows, fld)
    ref_rows, pivots = reference_rref(mat, ncols, fld)
    assert sorted(echelon) == pivots
    assert [_dense(echelon[p], ncols, fld) for p in pivots] == ref_rows
    shuffled = list(reversed(rows)) + rows[:1]
    assert rref(shuffled, fld) == echelon  # unique: independent of order and repeats


def test_nullspace_basis_matches_dense_reference_on_random_sparse_matrices():
    rng = random.Random(20260410)
    for fld in FIELDS:
        for _ in range(80):
            nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
            _check(_random_dense(rng, fld, nrows, ncols, rng.choice((0.2, 0.4, 0.7))), ncols, fld)


def test_nullspace_basis_edge_shapes():
    for fld in FIELDS:
        one, zero = fld.one(), fld.zero()
        _check([], 0, fld)  # no rows, no columns
        _check([], 3, fld)  # no rows: every column is free
        _check([[], []], 0, fld)  # rows with no columns
        _check([[zero] * 4 for _ in range(3)], 4, fld)  # the zero matrix
        identity = [[one if i == j else zero for j in range(4)] for i in range(4)]
        _check(identity, 4, fld)  # full rank: no kernel
        assert nullspace_basis(_sparse(identity, fld), 4, fld) == []
        _check([[one, one, one], [one, one, one]], 3, fld)  # repeated columns and rows
        assert nullspace_basis([{0: one, 1: one}], 2, fld) == [{1: one, 0: fld.neg(one)}]
