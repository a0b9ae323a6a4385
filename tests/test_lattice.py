import random
from fractions import Fraction

import pytest

from toricqh import lattice
from toricqh.errors import NonUnimodular, RingInconsistent


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_echelon_rank_matches_rational_rank():
    rng = random.Random(20)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(ncols)] for _ in range(nrows)]
        ech = lattice.Echelon()
        for row in rows:
            ech.insert(dict(enumerate(row)))
        assert ech.rank == lattice.rational_rank(rows)
        for col, row in ech.rows.items():
            assert min(row) == col and row[col] > 0


def test_echelon_solve_kills_every_row():
    # an integral system: the free columns are a Z-basis of the quotient
    rows = [[1, 2, 0, 3], [0, 1, 1, 1], [1, 3, 1, 4]]
    ech = lattice.Echelon()
    for row in rows:
        ech.insert(dict(enumerate(row)))
    assert sorted(ech.rows) == [0, 1]
    values = ech.solve({2: {"a": 1}, 3: {"b": 1}})
    assert values[0] == {"a": 2, "b": -1} and values[1] == {"a": -1, "b": -1}
    assert all(type(x) is int for v in values.values() for x in v.values())
    for row in rows:
        total = {}
        for j, r in enumerate(row):
            for k, x in values[j].items():
                total[k] = total.get(k, 0) + r * x
        assert all(x == 0 for x in total.values())


def test_echelon_solve_refuses_an_inexact_division():
    # pivot 2 on column 1: back substitution would need a half
    ech = lattice.Echelon()
    for row in ([1, 2, 0, 3], [0, 2, 1, 1]):
        ech.insert(dict(enumerate(row)))
    with pytest.raises(RingInconsistent, match="not exact"):
        ech.solve({2: {"a": 1}, 3: {"b": 1}})


def test_integer_inverse_round_trip():
    m = [[1, 1], [0, 1]]
    inv = lattice.integer_inverse(m)
    assert mat_mul(m, inv) == lattice.identity_matrix(2)
    with pytest.raises(NonUnimodular):
        lattice.integer_inverse([[2, 0], [0, 1]])
    with pytest.raises(NonUnimodular):
        lattice.integer_inverse([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(NonUnimodular):
        lattice.integer_inverse([[1, 1], [1, 1]])


def test_determinant_values():
    assert lattice.determinant([[1, 2], [3, 4]]) == -2
    assert lattice.determinant([[3, 1], [1, 2]]) == 5
    assert lattice.determinant([[2, 4], [1, 2]]) == 0
    assert lattice.determinant([[0, 1], [1, 0]]) == -1
    assert lattice.determinant([]) == 1
    for shape in ([[1, 2]], [[1], [2]], [[1, 0], [0]]):
        with pytest.raises(ValueError, match="not square"):
            lattice.determinant(shape)


def test_primitive_vector():
    assert lattice.primitive_vector((2, 4)) == (1, 2)
    assert lattice.primitive_vector((-3, 0)) == (-1, 0)
    with pytest.raises(ValueError):
        lattice.primitive_vector((0, 0))


# The Fraction eliminations the fraction-free kernel replaced, kept as
# references for the differential test below.


class DependentGenerators(Exception):
    """Raised by the reference solve on linearly dependent columns."""


def ref_solve_columns(columns, target):
    k = len(columns)
    if k == 0:
        return [] if all(x == 0 for x in target) else None
    n = len(columns[0])
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    row = 0
    for col in range(k):
        sel = None
        for r in range(row, n):
            if aug[r][col] != 0:
                sel = r
                break
        if sel is None:
            raise DependentGenerators("generators are linearly dependent")
        aug[row], aug[sel] = aug[sel], aug[row]
        inv = Fraction(1) / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        row += 1
    for r in range(row, n):
        if aug[r][k] != 0:
            return None
    return [aug[i][k] for i in range(k)]


def ref_rational_rank(rows):
    work = [list(map(Fraction, row)) for row in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        sel = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        inv = Fraction(1) / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


def ref_integer_inverse(matrix):
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NonUnimodular("matrix is not square")
    cols = [[matrix[i][j] for i in range(n)] for j in range(n)]
    out_rows = [[0] * n for _ in range(n)]
    for idx in range(n):
        target = [1 if i == idx else 0 for i in range(n)]
        try:
            sol = ref_solve_columns(cols, target)
        except DependentGenerators:
            raise NonUnimodular("matrix is singular") from None
        if sol is None:
            raise NonUnimodular("matrix is singular")
        for j, val in enumerate(sol):
            if val.denominator != 1:
                raise NonUnimodular("matrix determinant is not +-1")
            out_rows[j][idx] = int(val)
    return out_rows


def ref_determinant(matrix):
    n = len(matrix)
    work = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        sel = None
        for r in range(col, n):
            if work[r][col] != 0:
                sel = r
                break
        if sel is None:
            return 0
        if sel != col:
            work[col], work[sel] = work[sel], work[col]
            det = -det
        det *= work[col][col]
        inv = Fraction(1) / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(col + 1, n):
            if work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return int(det)


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
        m = lattice.identity_matrix(nrows)
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


def test_fraction_free_kernel_matches_fraction_references():
    rng = random.Random(2024)
    seen = set()
    for _ in range(300):
        m, _target = random_case(rng)
        nrows, ncols = len(m), len(m[0])
        assert lattice.rational_rank(m) == ref_rational_rank(m)
        inv = outcome(lattice.integer_inverse, m)
        assert inv == outcome(ref_integer_inverse, m)
        if nrows == ncols:
            det = lattice.determinant(m)
            assert det == ref_determinant(m)
            seen.add("singular" if det == 0 else "unimodular" if abs(det) == 1 else "regular")
        else:
            seen.add("non-square")
        if isinstance(inv, list):
            assert mat_mul(m, inv) == lattice.identity_matrix(nrows)
            assert all(type(x) is int for row in inv for x in row)
    assert seen == {"singular", "unimodular", "regular", "non-square"}
