"""Exact linear algebra over the integer lattice Z^n and its dual.

Everything here runs on arbitrary-precision integers; no floating point is
ever involved.  Matrices are lists of rows, vectors are tuples, and lattice
vectors stay integer end to end.  There is one elimination kernel, the
sparse echelon, behind the ring build, the rank and the inverse; its back
substitution divides exactly or raises RingInconsistent.  There is no
solve: fan.cone_inverse answers coordinate questions.  Nothing here is
rational.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Hashable, Mapping, Sequence

from .errors import NonUnimodular, RingInconsistent

Vector = tuple[int, ...]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError("length mismatch in pairing")
    return sum(map(mul, u, v))


def primitive_vector(v: Sequence[int]) -> Vector:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(a // g for a in v)


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


def rank(rows: Sequence[Sequence[int]]) -> int:
    ech = Echelon()
    for row in rows:
        ech.insert(dict(enumerate(row)))
    return ech.rank


def integer_inverse(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Inverse of a unimodular integer matrix, as an integer matrix: the
    rows [matrix | -I] solved with e_j on the free unit columns give column
    j, and the division is exact exactly when the matrix is unimodular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NonUnimodular("matrix is not square")
    ech = Echelon()
    for i, row in enumerate(matrix):
        ech.insert({**dict(enumerate(row)), n + i: -1})
    if any(col >= n for col in ech.rows):
        raise NonUnimodular("matrix is singular")
    try:
        values = ech.solve({n + j: {j: 1} for j in range(n)})
    except RingInconsistent:
        raise NonUnimodular("matrix determinant is not +-1") from None
    return [[values[c].get(j, 0) for j in range(n)] for c in range(n)]
