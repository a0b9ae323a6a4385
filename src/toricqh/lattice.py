"""Exact linear algebra over the integer lattice Z^n and its dual.

Everything here runs on arbitrary-precision integers; no floating point is
ever involved.  Matrices are lists of rows, vectors are tuples, and lattice
vectors stay integer end to end.  There is one elimination kernel, the
sparse echelon, behind the rank and the inverse; the inverse's back
substitution divides exactly or raises NonUnimodular.  There is no solve:
fan.cone_inverse answers coordinate questions, and the ring build reads
its tables off the shelling with no elimination.  Nothing here is
rational.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Mapping, Sequence

from .errors import NonUnimodular

Vector = tuple[int, ...]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError("length mismatch in pairing")
    return sum(map(mul, u, v))


def mat_vec(matrix: Sequence[Sequence[int]], v: Sequence[int]) -> Vector:
    return tuple(dot(row, v) for row in matrix)


def mat_from_columns(columns: Sequence[Sequence[int]]) -> list[list[int]]:
    if not columns:
        return []
    n = len(columns[0])
    return [[col[i] for col in columns] for i in range(n)]


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


def rank(rows: Sequence[Sequence[int]]) -> int:
    ech = Echelon()
    for row in rows:
        ech.insert(dict(enumerate(row)))
    return ech.rank


def integer_inverse(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Inverse of a unimodular integer matrix, as an integer matrix.

    The rows [matrix | -I] go into the echelon; the matrix is singular
    unless every pivot lies in its columns.  Back substitution from the
    last pivot up, with e_j on the unit column j, gives row c of the inverse
    from pivot row c, and each division by a pivot is exact exactly when
    the matrix is unimodular; otherwise NonUnimodular.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NonUnimodular("matrix is not square")
    ech = Echelon()
    for i, row in enumerate(matrix):
        ech.insert({**dict(enumerate(row)), n + i: -1})
    if any(col >= n for col in ech.rows):
        raise NonUnimodular("matrix is singular")
    inverse: list[list[int]] = [[]] * n
    for c in range(n - 1, -1, -1):
        acc = [0] * n
        for j, r in ech.rows[c].items():
            if j >= n:
                acc[j - n] += r
            elif j != c:
                acc = [a + r * x for a, x in zip(acc, inverse[j])]
        lead = -ech.rows[c][c]
        if any(a % lead for a in acc):
            raise NonUnimodular("matrix determinant is not +-1")
        inverse[c] = [a // lead for a in acc]
    return inverse
