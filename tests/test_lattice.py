import random
from fractions import Fraction

import pytest

from toricqh import lattice
from toricqh.errors import DependentGenerators, NonUnimodular


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


SNF_CASES = [
    [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
    [[1, 0], [0, 1]],
    [[0, 0], [0, 0]],
    [[6]],
    [[2, 3]],
    [[2], [3]],
    [[1, 2, 3], [4, 5, 6]],
]


@pytest.mark.parametrize("matrix", SNF_CASES)
def test_smith_normal_form_certificate(matrix):
    s, d, t = lattice.smith_normal_form(matrix)
    assert mat_mul(mat_mul(s, matrix), t) == d
    assert abs(lattice.determinant(s)) == 1
    assert abs(lattice.determinant(t)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for i in range(len(diag)):
        assert diag[i] >= 0
        for j in range(len(d)):
            for k in range(len(d[0])):
                if j != k:
                    assert d[j][k] == 0
    nonzero = [x for x in diag if x != 0]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


def test_smith_normal_form_random_audit():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        matrix = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        s, d, t = lattice.smith_normal_form(matrix)
        assert mat_mul(mat_mul(s, matrix), t) == d
        assert abs(lattice.determinant(s)) == 1
        assert abs(lattice.determinant(t)) == 1


def test_integer_kernel_annihilates():
    matrix = [[1, 1, 1]]
    basis = lattice.integer_kernel(matrix)
    assert len(basis) == 2
    for v in basis:
        assert lattice.dot(matrix[0], v) == 0


def test_integer_kernel_saturated():
    # (1,1,1) pairs to 1 with (0,0,1): kernel vectors must generate the full
    # kernel lattice, so invariant factors of the kernel matrix are all 1
    basis = lattice.integer_kernel([[2, 4, 6]])
    assert len(basis) == 2
    factors = lattice.invariant_factors(lattice.mat_from_columns(basis))
    assert factors == [1, 1]


def test_integer_kernel_edge_shapes():
    assert lattice.integer_kernel([[1, 2], [2, 4]]) != []
    assert lattice.integer_kernel([]) == []
    full = lattice.integer_kernel([[0, 0], [0, 0]])
    assert len(full) == 2


def test_solve_columns_round_trip():
    cols = [(1, 0, 2), (0, 1, 3)]
    target = (5, -2, 4)
    sol = lattice.solve_columns(cols, target)
    assert sol == [Fraction(5), Fraction(-2)]
    assert lattice.solve_columns(cols, (1, 1, 5)) == [Fraction(1), Fraction(1)]
    assert lattice.solve_columns(cols, (1, 1, 6)) is None


def test_solve_columns_dependent():
    with pytest.raises(DependentGenerators):
        lattice.solve_columns([(1, 2), (2, 4)], (1, 2))


def test_solve_columns_empty():
    assert lattice.solve_columns([], (0, 0)) == []
    assert lattice.solve_columns([], (1, 0)) is None


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
    rows = [[1, 2, 0, 3], [0, 2, 1, 1], [1, 4, 1, 4]]
    ech = lattice.Echelon()
    for row in rows:
        ech.insert(dict(enumerate(row)))
    assert sorted(ech.rows) == [0, 1]
    values = ech.solve({2: {"a": Fraction(1)}, 3: {"b": Fraction(1)}})
    for row in rows:
        total = {}
        for j, r in enumerate(row):
            for k, x in values[j].items():
                total[k] = total.get(k, 0) + r * x
        assert all(x == 0 for x in total.values())


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


def test_express_in_cone():
    gens = [(1, 0), (1, 2)]
    inside = lattice.express_in_cone((2, 2), gens)
    assert inside is not None
    coeffs, interior = inside
    assert coeffs == [Fraction(1), Fraction(1)] and interior
    boundary = lattice.express_in_cone((1, 0), gens)
    assert boundary is not None and boundary[1] is False
    assert lattice.express_in_cone((-1, 0), gens) is None
    # the zero cone holds exactly the origin, interiorly
    assert lattice.express_in_cone((0, 0), []) == ([], True)
    assert lattice.express_in_cone((1, 0), []) is None


def test_quotient_map_kills_columns():
    cols = [(1, 1, 0)]
    proj = lattice.quotient_map(cols)
    assert len(proj) == 2
    assert lattice.mat_vec(proj, (1, 1, 0)) == (0, 0)
    # saturated quotient: image of a basis spans Z^2
    images = [lattice.mat_vec(proj, v) for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    assert lattice.invariant_factors(lattice.mat_from_columns(images)) == [1, 1]
    with pytest.raises(NonUnimodular):
        lattice.quotient_map([(2, 0)])


def test_primitive_vector():
    assert lattice.primitive_vector((2, 4)) == (1, 2)
    assert lattice.primitive_vector((-3, 0)) == (-1, 0)
    with pytest.raises(ValueError):
        lattice.primitive_vector((0, 0))
