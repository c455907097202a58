"""Small exact linear-algebra routines over a FieldSpec.

Matrices are lists of rows; rows are lists of scalars.  Everything here
is plain Gaussian elimination with exact field arithmetic.
"""

from __future__ import annotations

from .poly import FieldSpec


def rref(rows: list, ncols: int, fld: FieldSpec):
    """Reduced row echelon form (in place on a copy); returns (rows, pivots)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if not fld.is_zero(mat[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = fld.inv(mat[r][c])
        mat[r] = [fld.mul(x, inv) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not fld.is_zero(mat[i][c]):
                factor = mat[i][c]
                mat[i] = [fld.sub(x, fld.mul(factor, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def nullspace_basis(rows: list, ncols: int, fld: FieldSpec) -> list:
    """A canonical basis of {v : A v = 0}, one vector per free column.

    Vectors come out in free-column order, each with a 1 in its free
    column; the basis is the standard one read off the RREF, so it is
    deterministic for a fixed column order.
    """
    mat, pivots = rref(rows, ncols, fld)
    pivot_set = set(pivots)
    basis = []
    for c in range(ncols):
        if c in pivot_set:
            continue
        v = [fld.zero()] * ncols
        v[c] = fld.one()
        for r, pc in enumerate(pivots):
            v[pc] = fld.neg(mat[r][c])
        basis.append(v)
    return basis
