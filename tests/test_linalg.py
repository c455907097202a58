"""The sparse elimination of ``linalg`` against the dense Gauss-Jordan
of ``oracles``, on seeded random sparse matrices and (vector, image)
pairs over Q, F_2, F_3 and F_32003."""

import random
from fractions import Fraction

from oracles import reference_nullspace_basis, reference_pair_kernel, reference_rref

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
        return fld.scalar(Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3))))
    return rng.randrange(fld.characteristic)


def _assert_canonical(vectors, fld):
    """Every entry is an int, or over Q a Fraction with denominator > 1:
    ``FieldSpec``'s invariant, kept by the elimination on canonical input."""
    for vec in vectors:
        for x in vec.values():
            assert type(x) is int or (fld.characteristic == 0 and type(x) is Fraction and x.denominator > 1)


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


def _unit_pairs(rows, ncols, fld):
    """The matrix with sparse ``rows`` as unit pairs ({c: 1}, column c)."""
    return [({c: fld.one()}, {r: row[c] for r, row in enumerate(rows) if c in row}) for c in range(ncols)]


def _check(mat, ncols, fld):
    rows = _sparse(mat, fld)
    pairs = _unit_pairs(rows, ncols, fld)
    before = [(dict(v), dict(image)) for v, image in pairs]
    kernel = nullspace_basis(pairs, ncols, fld)
    assert pairs == before  # the input pairs are left alone
    assert all(not fld.is_zero(x) for v in kernel for x in v.values())
    _assert_canonical(kernel, fld)
    assert [_dense(v, ncols, fld) for v in kernel] == reference_nullspace_basis(mat, ncols, fld)
    before = [dict(r) for r in rows]
    echelon = rref(rows, fld)
    assert rows == before  # the input rows are left alone
    _assert_canonical(echelon.values(), fld)
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
        assert nullspace_basis(_unit_pairs(_sparse(identity, fld), 4, fld), 4, fld) == []
        _check([[one, one, one], [one, one, one]], 3, fld)  # repeated columns and rows
        pairs = [({0: one}, {0: one}), ({1: one}, {0: one})]
        assert nullspace_basis(pairs, 2, fld) == [{1: one, 0: fld.neg(one)}]
        # a relation divides its image out: column 0 alone is then in the kernel
        assert nullspace_basis([({0: one}, {"r": one})], 1, fld) == []
        assert nullspace_basis([({}, {"r": one}), ({0: one}, {"r": one})], 1, fld) == [{0: one}]


def _combine(a, x, b, y, fld):
    """a x + b y for dicts x and y, with no zero entries."""
    out = {}
    for s, d in ((a, x), (b, y)):
        for k, z in d.items():
            z = fld.add(out.pop(k, fld.zero()), fld.mul(s, z))
            if not fld.is_zero(z):
                out[k] = z
    return out


def _random_pairs(rng, fld, ncols):
    """(v, image) pairs over ``ncols`` columns and row keys of mixed
    types: random pairs, repeats and combinations of earlier pairs,
    vectors with a zero image, and relations with an empty v."""
    keys = (0, 1, "z", ("c", 2), ("c", 0, (1, 1)))

    def vector(support, density):
        return {k: x for k in support if rng.random() < density and not fld.is_zero(x := _scalar(rng, fld))}

    pairs = []
    for _ in range(rng.randint(0, 9)):
        kind = rng.choice(("random", "random", "repeat", "combine", "zero image", "relation"))
        if kind in ("repeat", "combine") and pairs:
            v, image = rng.choice(pairs)
            if kind == "combine":
                w, other = rng.choice(pairs)
                a, b = _scalar(rng, fld), _scalar(rng, fld)
                v, image = _combine(a, v, b, w, fld), _combine(a, image, b, other, fld)
            pairs.append((dict(v), dict(image)))
        elif kind == "zero image":
            pairs.append((vector(range(ncols), 0.6), {}))
        elif kind == "relation":
            pairs.append(({}, vector(keys, 0.5)))
        else:
            pairs.append((vector(range(ncols), 0.5), vector(keys, 0.4)))
    return pairs


def test_nullspace_basis_of_pairs_matches_dense_reference():
    """Dependent and repeated vectors, zero images and relation pairs,
    against a dense reference that shares no code with ``linalg``; the
    basis is canonical, so reordering the pairs leaves it as it is."""
    rng = random.Random(20261020)
    relations_matter = 0  # cases whose kernel changes without the relations
    for fld in FIELDS:
        for _ in range(120):
            ncols = rng.randint(0, 6)
            pairs = _random_pairs(rng, fld, ncols)
            before = [(dict(v), dict(image)) for v, image in pairs]
            kernel = nullspace_basis(pairs, ncols, fld)
            assert pairs == before  # the input pairs are left alone
            assert all(not fld.is_zero(x) for v in kernel for x in v.values())
            _assert_canonical(kernel, fld)
            expected = reference_pair_kernel(pairs, ncols, fld)
            assert [_dense(v, ncols, fld) for v in kernel] == expected
            shuffled = rng.sample(pairs, len(pairs))
            assert nullspace_basis(shuffled, ncols, fld) == kernel
            relations_matter += reference_pair_kernel([p for p in pairs if p[0]], ncols, fld) != expected
    assert relations_matter >= 20
