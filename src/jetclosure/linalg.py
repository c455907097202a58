"""Exact sparse linear algebra over a FieldSpec.

A row is a dict {column: scalar} with no zero entries, columns are
integers, and a row's pivot is its least column.  One elimination,
``rref``, serves every caller: the kernels of ``nullspace_basis``, the
truncated echelons that ``closures`` reads ideals off, and the
echelons that ``remainder`` reduces module-closure columns by.  No
dense matrix is built.
"""

from __future__ import annotations

from .poly import FieldSpec


def _subtract(row: dict, c, other: dict, p: int) -> None:
    """row -= c * other, in place, in characteristic p."""
    for k, v in other.items():
        x = row.get(k, 0) - c * v
        if p:
            x %= p
        if x:
            row[k] = x
        else:
            row.pop(k, None)


def rref(rows, fld: FieldSpec) -> dict:
    """The reduced row echelon form of the span of ``rows``, as {pivot: row}.

    Each row is monic at its pivot and has no entry at another pivot.
    The reduced echelon form of a subspace is unique, so the result
    does not depend on the order or the redundancy of ``rows``; the
    input rows are not changed.

    A forward pass reduces each row by the pivots found so far until
    its least column is a new pivot (or the row is zero); subtracting a
    row with pivot q removes column q and touches only larger columns,
    so this ends.  The backward pass then clears the other pivot
    columns, largest pivot first: the rows with larger pivots are
    already reduced, so subtracting one adds entries only at non-pivot
    columns.
    """
    p = fld.characteristic
    echelon: dict = {}
    for row in rows:
        r = dict(row)
        while r:
            lead = min(r)
            other = echelon.get(lead)
            if other is None:
                inv = fld.inv(r[lead])
                echelon[lead] = {k: fld.mul(v, inv) for k, v in r.items()}
                break
            _subtract(r, r[lead], other, p)
    for lead in sorted(echelon, reverse=True):
        row = echelon[lead]
        for col in [k for k in row if k != lead and k in echelon]:
            _subtract(row, row[col], echelon[col], p)
    return echelon


def remainder(row: dict, echelon: dict, fld: FieldSpec) -> dict:
    """The vector congruent to ``row`` modulo the span of ``echelon``, a
    ``rref`` result, with no entry at a pivot; it is zero iff ``row``
    lies in the span.

    Subtracting the row with pivot q clears column q and adds entries
    only at non-pivot columns, so one pass over the pivots that ``row``
    meets clears them all.
    """
    r = dict(row)
    for lead in [k for k in r if k in echelon]:
        _subtract(r, r[lead], echelon[lead], fld.characteristic)
    return r


def nullspace_basis(rows: list, ncols: int, fld: FieldSpec) -> list:
    """A canonical basis of {v : A v = 0}, one vector per free column.

    A has the sparse ``rows`` over the columns 0, ..., ncols-1; each
    vector comes back as a dict {column: scalar}, in free-column order.
    The pivot columns of the reduced echelon form are the columns that
    are not combinations of the columns before them, and the vector of
    the free column c is e_c minus the combination of pivot columns
    before c that equals column c: the row with pivot q has its entry
    at c in place of that coefficient.  A kernel vector is fixed by its
    free entries (each row gives v_q = -sum of row[c] v_c over free c),
    so this vector is the only kernel vector that is 1 at c, 0 at every
    other free column; the basis depends on the column order only.
    """
    echelon = rref(rows, fld)
    basis = {c: {c: fld.one()} for c in range(ncols) if c not in echelon}
    for lead, row in echelon.items():
        for c, x in row.items():
            if c != lead:
                basis[c][lead] = fld.neg(x)
    return list(basis.values())
