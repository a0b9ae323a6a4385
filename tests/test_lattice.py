import random

import pytest

from toricqh import lattice
from toricqh.errors import NonUnimodular


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_echelon_rank_matches_rational_rank(ref_rational_rank):
    rng = random.Random(20)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(ncols)] for _ in range(nrows)]
        ech = lattice.Echelon()
        for row in rows:
            ech.insert(dict(enumerate(row)))
        assert ech.rank == ref_rational_rank(rows)
        for col, row in ech.rows.items():
            assert min(row) == col and row[col] > 0


def test_integer_inverse_refuses_an_inexact_division():
    # pivot 2 on column 1 of [m | -I]: back substitution would need a half
    with pytest.raises(NonUnimodular, match="determinant is not"):
        lattice.integer_inverse([[1, 2], [0, 2]])
    with pytest.raises(NonUnimodular, match="determinant is not"):
        lattice.integer_inverse([[1, 2, 0], [0, 2, 1], [0, 0, 1]])


def test_integer_inverse_round_trip():
    m = [[1, 1], [0, 1]]
    inv = lattice.integer_inverse(m)
    assert mat_mul(m, inv) == identity(2)
    with pytest.raises(NonUnimodular, match="determinant is not"):
        lattice.integer_inverse([[2, 0], [0, 1]])
    with pytest.raises(NonUnimodular, match="not square"):
        lattice.integer_inverse([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(NonUnimodular, match="singular"):
        lattice.integer_inverse([[1, 1], [1, 1]])


def outcome(fn, *args):
    try:
        return fn(*args)
    except NonUnimodular as exc:
        return type(exc), str(exc)


def random_case(rng):
    """A matrix of up to 6 x 6 and a target, drawn to hit every outcome.

    No dense solve is left to take the target, but it is still drawn so
    that a seed keeps giving the same matrices.
    """
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    kind = rng.randrange(4)
    if kind == 3:
        # unimodular: the identity under random elementary row operations
        ncols = nrows
        m = identity(nrows)
        for _ in range(3 * nrows):
            i, j = rng.sample(range(nrows), 2) if nrows > 1 else (0, 0)
            if i != j:
                q = rng.randint(-2, 2)
                m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    else:
        m = [[rng.choice((0, 0, 1, -1, 2, -3, 4)) for _ in range(ncols)] for _ in range(nrows)]
    if kind == 1 and nrows > 2:
        # a row that is a combination of two others: singular, rank deficient
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    if kind == 2 and ncols > 2:
        # a column that is a combination of two others: dependent generators
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        for row in m:
            row[-1] = a * row[0] + b * row[1]
    if rng.random() < 0.5:
        coeffs = [rng.randint(-3, 3) for _ in range(ncols)]
        target = [sum(c * x for c, x in zip(coeffs, row)) for row in m]
    else:
        target = [rng.randint(-4, 4) for _ in range(nrows)]
    return m, target


def test_fraction_free_kernel_matches_fraction_references(
    ref_rational_rank, ref_integer_inverse, ref_determinant
):
    rng = random.Random(2024)
    seen = set()
    for _ in range(300):
        m, _target = random_case(rng)
        nrows, ncols = len(m), len(m[0])
        assert lattice.rank(m) == ref_rational_rank(m)
        inv = outcome(lattice.integer_inverse, m)
        assert inv == outcome(ref_integer_inverse, m)
        if nrows == ncols:
            det = ref_determinant(m)
            seen.add("singular" if det == 0 else "unimodular" if abs(det) == 1 else "regular")
        else:
            seen.add("non-square")
        if isinstance(inv, list):
            assert mat_mul(m, inv) == identity(nrows)
            assert all(type(x) is int for row in inv for x in row)
    assert seen == {"singular", "unimodular", "regular", "non-square"}
