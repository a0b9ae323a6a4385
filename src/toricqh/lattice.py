"""Exact linear algebra over the integer lattice Z^n and its dual.

Everything here runs on arbitrary-precision integers; no floating point is
ever involved.  Matrices are lists of rows, vectors are tuples, and lattice
vectors stay integer end to end.  There are two kernels: one fraction-free
dense elimination (Bareiss) behind the rank, inverse and determinant (no
solve: fan.cone_inverse answers coordinate questions, quotient maps
included), and the sparse ring-build echelon, whose back substitution
divides exactly or raises RingInconsistent.  Nothing here is rational.
"""

from __future__ import annotations

from math import gcd
from operator import add
from typing import Hashable, Mapping, Sequence

from .errors import NonUnimodular, RingInconsistent

Vector = tuple[int, ...]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError("length mismatch in pairing")
    return sum(a * b for a, b in zip(u, v))


def vadd(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(map(add, u, v))


def vsub(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: int, v: Sequence[int]) -> Vector:
    return tuple(c * a for a in v)


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


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss).

    Columns are taken left to right; a column gets a pivot when a row at or
    below the current one is nonzero there, and the first such row is
    swapped up.  A pivot p at (r, c) replaces every other row i by
    (p * a[i] - a[i][c] * a[r]) / prev, where prev is the previous pivot
    (1 at first).  By Sylvester's identity every entry is then a minor of
    the input, so the division is exact and no fraction arises.

    Returns (a, pivots, d, sign): with rank r, a[:r] is d times the reduced
    row echelon form (a[i][pivots[i]] == d for i < r), d is the last pivot
    (1 when r == 0), the minor of the row-swapped input on its first r rows
    and the pivot columns, and sign is that of the row permutation, so a
    square input of full rank has determinant sign * d.
    """
    a = [list(row) for row in rows]
    nrows = len(a)
    pivots: list[int] = []
    d, sign = 1, 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if a[i][c]), None)
        if sel is None:
            continue
        if sel != r:
            a[r], a[sel] = a[sel], a[r]
            sign = -sign
        p, prow = a[r][c], a[r]
        for i in range(nrows):
            if i != r:
                f = a[i][c]
                a[i] = [(p * x - f * y) // d for x, y in zip(a[i], prow)]
        pivots.append(c)
        d = p
    return a, pivots, d, sign


def rational_rank(rows: Sequence[Sequence[int]]) -> int:
    return len(_bareiss(rows)[1])


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

    def solve(self, free: Mapping[int, Mapping[Hashable, int]]) -> dict[int, dict]:
        """The value of every column, given the values of the non-pivot ones.

        Values are sparse integer vectors (dicts); a pivot column gets the
        value that makes its row vanish, by back substitution from the
        highest pivot down.  free must give a value for every column that is
        not a pivot.  Every division must be exact, as it is when the free
        columns are a Z-basis of the quotient; otherwise RingInconsistent.
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
            if any(x % lead for x in acc.values()):
                raise RingInconsistent(f"column {col}: division by {lead} is not exact")
            values[col] = {k: x // lead for k, x in acc.items() if x}
        return values


def integer_inverse(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Inverse of a unimodular integer matrix, as an integer matrix."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NonUnimodular("matrix is not square")
    # [matrix | I] reduces to [d * I | d * matrix^-1]
    a, pivots, d, _ = _bareiss([list(row) + e for row, e in zip(matrix, identity_matrix(n))])
    if pivots[:n] != list(range(n)):
        raise NonUnimodular("matrix is singular")
    if abs(d) != 1:
        raise NonUnimodular("matrix determinant is not +-1")
    return [[d * x for x in row[n:]] for row in a]


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    _, pivots, d, sign = _bareiss(matrix)
    return sign * d if len(pivots) == n else 0

