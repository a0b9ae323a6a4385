"""Exact linear algebra over the integer lattice Z^n and its dual.

Everything here runs on arbitrary-precision integers and fractions.Fraction;
no floating point is ever involved.  Matrices are lists of rows, vectors are
tuples, and lattice vectors stay integer end to end.  Kernel computations go
through Smith normal form with explicit unimodular transforms so the result
is certified to be a Z-basis rather than merely a Q-basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Hashable, Mapping, Optional, Sequence

from .errors import DependentGenerators, NonUnimodular, RingInconsistent

Vector = tuple[int, ...]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError("length mismatch in pairing")
    return sum(a * b for a, b in zip(u, v))


def vadd(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: int, v: Sequence[int]) -> Vector:
    return tuple(c * a for a in v)


def is_zero(v: Sequence[int]) -> bool:
    return all(a == 0 for a in v)


def primitive_vector(v: Sequence[int]) -> Vector:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(a // g for a in v)


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(matrix: Sequence[Sequence[int]], v: Sequence[int]) -> Vector:
    return tuple(dot(row, v) for row in matrix)


def mat_from_columns(columns: Sequence[Sequence[int]]) -> list[list[int]]:
    if not columns:
        return []
    n = len(columns[0])
    return [[col[i] for col in columns] for i in range(n)]


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (S, D, T) with S * matrix * T == D, where S and T are square
    unimodular and D is diagonal with nonnegative entries d1 | d2 | ... .
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    a = [list(row) for row in matrix]
    s = identity_matrix(nrows)
    t = identity_matrix(ncols)

    def row_op(i, j, q):
        # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        s[i] = [x - q * y for x, y in zip(s[i], s[j])]

    def col_op(i, j, q):
        # col i -= q * col j
        for row in a:
            row[i] -= q * row[j]
        for row in t:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        s[i], s[j] = s[j], s[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in t:
            row[i], row[j] = row[j], row[i]

    def pivot_at(k):
        best = None
        for i in range(k, nrows):
            for j in range(k, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    k = 0
    while k < min(nrows, ncols):
        pos = pivot_at(k)
        if pos is None:
            break
        swap_rows(k, pos[0])
        swap_cols(k, pos[1])
        clean = False
        while not clean:
            clean = True
            for i in range(k + 1, nrows):
                if a[i][k] != 0:
                    row_op(i, k, a[i][k] // a[k][k])
                    if a[i][k] != 0:
                        swap_rows(k, i)
                        clean = False
            for j in range(k + 1, ncols):
                if a[k][j] != 0:
                    col_op(j, k, a[k][j] // a[k][k])
                    if a[k][j] != 0:
                        swap_cols(k, j)
                        clean = False
        k += 1

    # Enforce the divisibility chain; folding column k+1 into column k can
    # repopulate the cleared block, so rerun the elimination from k.
    k = 0
    while k + 1 < min(nrows, ncols):
        if a[k][k] != 0 and a[k + 1][k + 1] % a[k][k] != 0:
            col_op(k, k + 1, -1)
            pos = pivot_at(k)
            swap_rows(k, pos[0])
            swap_cols(k, pos[1])
            clean = False
            while not clean:
                clean = True
                for i in range(k + 1, nrows):
                    if a[i][k] != 0:
                        row_op(i, k, a[i][k] // a[k][k])
                        if a[i][k] != 0:
                            swap_rows(k, i)
                            clean = False
                for j in range(k + 1, ncols):
                    if a[k][j] != 0:
                        col_op(j, k, a[k][j] // a[k][k])
                        if a[k][j] != 0:
                            swap_cols(k, j)
                            clean = False
        else:
            k += 1

    for i in range(min(nrows, ncols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            s[i] = [-x for x in s[i]]
    return s, a, t


def integer_kernel(matrix: Sequence[Sequence[int]]) -> list[Vector]:
    """Z-basis of the integer kernel of an n x m matrix acting on columns.

    The basis vectors are columns of the unimodular column transform of the
    Smith decomposition, so they generate the kernel over Z, not just Q.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if ncols == 0:
        return []
    if nrows == 0:
        return [tuple(row) for row in identity_matrix(ncols)]
    _, d, t = smith_normal_form(matrix)
    rank = 0
    for i in range(min(nrows, ncols)):
        if d[i][i] != 0:
            rank += 1
    return [tuple(t[i][j] for i in range(ncols)) for j in range(rank, ncols)]


def invariant_factors(matrix: Sequence[Sequence[int]]) -> list[int]:
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    _, d, _ = smith_normal_form(matrix)
    return [d[i][i] for i in range(min(nrows, ncols)) if d[i][i] != 0]


def solve_columns(
    columns: Sequence[Sequence[int]], target: Sequence[int]
) -> Optional[list[Fraction]]:
    """Solve sum_j x_j * columns[j] = target exactly over Q.

    The columns must be linearly independent (DependentGenerators otherwise);
    returns None when the system is inconsistent.
    """
    k = len(columns)
    if k == 0:
        return [] if is_zero(target) else None
    n = len(columns[0])
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    pivots = []
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
        pivots.append(col)
        row += 1
    for r in range(row, n):
        if aug[r][k] != 0:
            return None
    return [aug[i][k] for i in range(k)]


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
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


class Echelon:
    """Row echelon form over Q of sparse integer rows, grown one row at a time.

    A row is a dict column -> nonzero int.  A stored row has its pivot at
    its lowest column and is divided by the gcd of its entries, so entries
    stay small integers; no two stored rows share a pivot.  Columns placed
    last are therefore the last to become pivots.
    """

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, int]] = {}  # pivot column -> row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, row: Mapping[int, int]) -> None:
        """Reduce a row by the stored ones and store what is left, if any."""
        work = {c: v for c, v in row.items() if v}
        while work:
            col = min(work)
            piv = self.rows.get(col)
            if piv is None:
                g = 0
                for v in work.values():
                    g = gcd(g, v)
                if work[col] < 0:
                    g = -g
                self.rows[col] = {c: v // g for c, v in work.items()}
                return
            # work <- a * work - b * piv clears col and stays integral
            g = gcd(piv[col], work[col])
            a, b = piv[col] // g, work[col] // g
            if a != 1:
                for c in work:
                    work[c] *= a
            for c, v in piv.items():
                nv = work.get(c, 0) - b * v
                if nv:
                    work[c] = nv
                else:
                    del work[c]

    def solve(self, free: Mapping[int, Mapping[Hashable, Fraction]]) -> dict[int, dict]:
        """The value of every column, given the values of the non-pivot ones.

        Values are sparse vectors (dicts); a pivot column gets the value that
        makes its row vanish, by back substitution from the highest pivot
        down.  free must give a value for every column that is not a pivot.
        """
        values: dict[int, dict] = {c: dict(v) for c, v in free.items()}
        for col in sorted(self.rows, reverse=True):
            row = self.rows[col]
            acc: dict = {}
            for j, r in row.items():
                if j != col:
                    for k, x in values[j].items():
                        acc[k] = acc.get(k, 0) + r * x
            lead = -row[col]
            values[col] = {k: Fraction(x) / lead for k, x in acc.items() if x}
        return values


def integer_inverse(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Inverse of a unimodular integer matrix, as an integer matrix."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NonUnimodular("matrix is not square")
    cols = [[matrix[i][j] for i in range(n)] for j in range(n)]
    out_rows: list[list[int]] = [[0] * n for _ in range(n)]
    for idx in range(n):
        target = [1 if i == idx else 0 for i in range(n)]
        try:
            sol = solve_columns(cols, target)
        except DependentGenerators:
            raise NonUnimodular("matrix is singular") from None
        if sol is None:
            raise NonUnimodular("matrix is singular")
        for j, val in enumerate(sol):
            if val.denominator != 1:
                raise NonUnimodular("matrix determinant is not +-1")
            out_rows[j][idx] = int(val)
    return out_rows


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix."""
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
    if det.denominator != 1:
        raise RingInconsistent("determinant of an integer matrix is not an integer")
    return int(det)


def express_in_cone(
    v: Sequence[int], cone_generators: Sequence[Sequence[int]]
) -> Optional[tuple[list[Fraction], bool]]:
    """Coordinates of v in the cone spanned by independent generators.

    Returns (coefficients, interior_flag) when v lies in the closed cone,
    None when it does not; interior_flag reports membership in the relative
    interior (all coefficients strictly positive).  The zero cone is handled
    uniformly: v = 0 lies in its relative interior.
    """
    sol = solve_columns(cone_generators, v)
    if sol is None:
        return None
    if any(c < 0 for c in sol):
        return None
    return sol, all(c > 0 for c in sol)


def quotient_map(columns: Sequence[Sequence[int]]) -> list[Vector]:
    """Rows of the projection Z^n -> Z^(n-k) killing exactly span(columns).

    The columns must be extendable to a Z-basis (all invariant factors 1);
    the projection is read off the row transform of the Smith decomposition.
    """
    if not columns:
        raise ValueError("need at least one column")
    n = len(columns[0])
    k = len(columns)
    s, d, _ = smith_normal_form(mat_from_columns(columns))
    for i in range(k):
        if d[i][i] != 1:
            raise NonUnimodular("columns are not part of a lattice basis")
    return [tuple(s[i]) for i in range(k, n)]
