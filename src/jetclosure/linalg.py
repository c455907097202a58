"""Exact sparse linear algebra over a FieldSpec.

A row is a dict {column: scalar} with no zero entries, columns are
integers, and a row's pivot is its least column.  One elimination, a
forward and a backward pass, serves every caller: the truncated
echelons that ``closures`` reads ideals off (``rref``), and the one
augmented echelon from which ``nullspace_basis``, the library's only
kernel routine, reads every kernel: of the level ladder's weight-l
rows, of the socle and Matlis maps, and of module closures modulo their
relation rows.  No dense matrix is built.
"""

from __future__ import annotations

from .poly import FieldSpec


def _subtract(row: dict, c, other: dict, p: int) -> None:
    """row -= c * other, in place, in characteristic p.  Over Q an
    integral entry is stored as an int, as ``FieldSpec`` arithmetic does."""
    for k, v in other.items():
        x = row.get(k, 0) - c * v
        if p:
            x %= p
        elif x.denominator == 1:
            x = x.numerator
        if x:
            row[k] = x
        else:
            row.pop(k, None)


def rref(rows, fld: FieldSpec) -> dict:
    """The reduced row echelon form of the span of ``rows``, as {pivot: row}.

    Each row is monic at its pivot and has no entry at another pivot.
    The reduced echelon form of a subspace is unique, so the result
    does not depend on the order or the redundancy of ``rows``; the
    input rows are not changed.  It is the forward pass (``_forward``)
    followed by the backward pass over every pivot (``_backward``).
    """
    echelon = _forward(rows, fld)
    _backward(echelon, sorted(echelon, reverse=True), fld.characteristic)
    return echelon


def _forward(rows, fld: FieldSpec) -> dict:
    """An echelon of the span of ``rows``, as {pivot: row}, each row monic
    at its pivot, not yet cleared at the other pivots.

    Each row is reduced by the pivots found so far until its least
    column is a new pivot (or the row is zero), and made monic there
    unless it is already; subtracting a row with pivot q removes column
    q and touches only larger columns, so this ends.
    """
    p = fld.characteristic
    echelon: dict = {}
    for row in rows:
        r = dict(row)
        while r:
            lead = min(r)
            other = echelon.get(lead)
            if other is None:
                if r[lead] != 1:
                    inv = fld.inv(r[lead])
                    r = {k: fld.mul(v, inv) for k, v in r.items()}
                echelon[lead] = r
                break
            _subtract(r, r[lead], other, p)
    return echelon


def _backward(echelon: dict, leads, p: int) -> None:
    """Clear, in place, the other pivot columns of the ``echelon`` rows at
    ``leads``, listed largest first, where every pivot larger than one
    of ``leads`` is in ``leads`` too.  A row's entries lie at columns
    larger than its pivot, and the rows with larger pivots are already
    cleared when it is reached, so subtracting one adds entries only at
    non-pivot columns.  The rows at ``leads`` end as those of ``rref``:
    each is cleared by the same rows, in the same order.
    """
    for lead in leads:
        row = echelon[lead]
        for col in [k for k in row if k != lead and k in echelon]:
            _subtract(row, row[col], echelon[col], p)


def nullspace_basis(pairs: list, ncols: int, fld: FieldSpec) -> list:
    """The canonical basis of K = {sum l_i v_i : sum l_i image_i = 0}.

    ``pairs`` is a list of (v, image): v a vector over the columns
    0, ..., ncols-1 and image a dict over any hashable row keys, where
    the sums run over every choice of scalars l_i.  A pair with an
    empty v is a relation: its image is divided out, so K is the set of
    combinations of the other v whose image lies in the span of the
    relation images.  When each image is f(v) for one linear map f, K
    is the kernel of f (modulo the relations) on the span of the v; the
    kernel of a matrix with columns a_0, ..., a_(ncols-1) is that of
    the unit pairs ({c: 1}, a_c).  Each basis vector comes back as a
    dict {column: scalar} with no zero entries; the pairs are not
    changed.

    One elimination.  A pair becomes the augmented row (image, v): the
    image keys go to the negative columns -1, -2, ... in the order
    they are met, and column c of v goes to ncols-1-c, so every vector
    column comes after every image column, in reverse order.  The row
    space is the set of (sum l_i image_i, sum l_i v_i), so its elements
    with no image entry are the (0, w) with w in K.  In the ``rref`` a
    row's pivot is its least column, so a row led by a vector column
    is such an element.  An element with no image entry has coefficient
    0 on every row led by an image column, its entry at that pivot; so
    the rows led by a vector column span the (0, w), and as each has no
    entry at another's pivot they are a basis, the reduced echelon form
    of K in the reversed column order.  Only those rows are cleared
    (``_backward``): every vector column is larger than every image
    column, so their pivots are the largest, and a row led by a vector
    column has entries only at vector columns, so the rows led by image
    columns, which are dropped, never enter their clearing.

    The canonical basis.  Call c a free column of K when c is the
    largest column of some nonzero vector of K.  For each free c, K
    holds exactly one vector whose largest column is c, with entry 1
    there and 0 at the other free columns: the difference of two such
    vectors lies in K and is 0 at every free column, while a nonzero
    vector of K is not 0 at its largest column, a free one.  A
    combination of the rows above is led by the least pivot it uses, so
    the free columns are the c with ncols-1-c a pivot, and the row led
    by ncols-1-c, monic and 0 at the other pivots, is that vector.  So
    the result, listed by increasing c, depends on K and the column
    numbering only, not on the order, the redundancy or the row keys of
    the pairs.  For a matrix the free columns are the columns that are
    combinations of the columns before them, and the vector of the free
    column c is e_c minus that combination of the pivot columns of the
    matrix's echelon form.
    """
    top = ncols - 1
    keys: dict = {}
    rows = []
    for v, image in pairs:
        row = {keys.setdefault(k, -1 - len(keys)): x for k, x in image.items()}
        row.update((top - c, x) for c, x in v.items())
        rows.append(row)
    echelon = _forward(rows, fld)
    leads = sorted((p for p in echelon if p >= 0), reverse=True)
    _backward(echelon, leads, fld.characteristic)
    return [{top - k: x for k, x in echelon[p].items()} for p in leads]
