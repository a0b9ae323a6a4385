"""Cohomology of the toric variety with a pinned stratum-class basis.

The basis comes from a line shelling of the maximal cones: a generic
lattice vector orders the cones, and each cone mu_i is cut down to tau_i by
intersecting with its later facet-neighbors, read off the face index (one
lookup per facet of mu_i).  The order is closed-form, with
no search: the key (f . raysum, f_1, ..., f_n) of the cones' point
functionals f, decreasing lexicographically, which the integer vector
T^n * raysum + (T^(n-1), ..., T, 1) reproduces once T > 2 max|f|.  It costs
one sort, O(cones * n * log cones).  The classes of the strata X(tau_i)
form a basis, one class of degree d per tau_i with |tau_i| = d.

Normal forms are built once per degree from the faces alone (Fulton and
Sturmfels, Topology 36, 1997): H^k is spanned by the face monomials x_tau,
|tau| = k, modulo r(sigma, u) = sum of <u, v_i> x_(sigma + i) over the faces
sigma + i, for each (k-1)-face sigma and each u in a basis of its
annihilator (the rows of a maximal cone's inverse for its rays outside
sigma).  These rows go into a sparse exact echelon with the pinned faces
tau_i last, so none of them pivots, and back substitution gives every face
int coordinates (the strata are a Z-basis; an inexact division raises
RingInconsistent).  Other monomials are rewritten by `_CohomologyRing.form`.
The quotient dimension, faces minus echelon rank, does not depend on the
pinned basis and is checked against the shelling census.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from . import fan as fan_mod
from . import fano, lattice
from .errors import IndexOutOfRange, NotFano, PreconditionFailed, RingInconsistent
from .fan import Cone, Fan

Monomial = tuple[int, ...]  # sorted divisor indices with multiplicity
Rational = int | Fraction  # a coefficient: int unless a caller supplied a Fraction


def _strict_rational(c, what: str) -> Rational:
    # exactly int or Fraction: a float, a bool or a string is refused, not coerced
    if type(c) is not int and type(c) is not Fraction:
        raise ValueError(f"{what} {c!r} is not an int or a Fraction")
    return c


class CohomologyClass:
    """A class in the pinned basis: sparse map basis index -> int or Fraction."""

    __slots__ = ("coords",)

    def __init__(self, coords: Optional[Mapping[int, Rational]] = None):
        clean = {}
        if coords:
            for i, c in coords.items():
                if type(i) is not int:
                    fan_mod._strict_int(i, "basis index")
                c = _strict_rational(c, "coefficient")
                if c != 0:
                    clean[i] = c
        self.coords = clean

    def is_zero(self) -> bool:
        return not self.coords

    def __eq__(self, other) -> bool:
        return isinstance(other, CohomologyClass) and self.coords == other.coords

    def __hash__(self):
        return hash(tuple(sorted(self.coords.items())))

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        out = dict(self.coords)
        for i, c in other.coords.items():
            out[i] = out.get(i, 0) + c
        return CohomologyClass(out)

    def __sub__(self, other: "CohomologyClass") -> "CohomologyClass":
        return self + other.scaled(-1)

    def scaled(self, c) -> "CohomologyClass":
        c = _strict_rational(c, "scale factor")
        return CohomologyClass({i: c * v for i, v in self.coords.items()})

    def __repr__(self):
        if not self.coords:
            return "CohomologyClass(0)"
        body = " + ".join(f"{c}*b{i}" for i, c in sorted(self.coords.items()))
        return f"CohomologyClass({body})"


@dataclass(frozen=True)
class Shelling:
    """Shelling order of the maximal cones with the cut-down cones tau."""

    perturbation: tuple[int, ...]
    order: tuple[Cone, ...]
    tau: tuple[Cone, ...]


def _cone_point_functional(fan: Fan, cone: Cone) -> tuple[int, ...]:
    # the functional equal to 1 on every generator of the cone: the sum of
    # the dual functionals, which are the rows of the cone inverse
    return tuple(map(sum, zip(*fan_mod.cone_inverse(fan, cone))))


def _lex_vector(base: tuple[int, ...], bound: int) -> tuple[int, ...]:
    """T^n * base + (T^(n-1), ..., T, 1) with T = 2 * bound + 1.

    For point functionals whose entries lie in [-bound, bound], the pairing
    with this vector orders the cones as the key (f . base, f_1, ..., f_n)
    does lexicographically.  Let d = f_a - f_b for two cones, so that
    d . v = sum_j e_j T^(n-j) over the key difference e = (d . base, d_1,
    ..., d_n).  Let e_k be its first nonzero entry.  Every later entry is a
    d_j with |d_j| <= 2 * bound = T - 1, so by the geometric sum the tail
    is at most (T - 1)(T^(n-k-1) + ... + T + 1) = T^(n-k) - 1 in size,
    less than |e_k| T^(n-k).  Hence d . v has the sign of e_k, and any
    T >= 2 * bound + 1 would do.
    """
    t = 2 * bound + 1
    n = len(base)
    return tuple(t**n * b + t ** (n - 1 - j) for j, b in enumerate(base))


def shelling(fan: Fan) -> Shelling:
    """Deterministic line shelling of an accepted Fano fan.

    The cones are sorted by decreasing key (f . raysum, f_1, ..., f_n) of
    their point functionals f, with no search.  The perturbation is the
    integer vector T^n * raysum + (T^(n-1), ..., T, 1) whose pairing gives
    the same order (see `_lex_vector`); it is generic, so the order is a
    line shelling (Bruggesser-Mani; Fulton, Introduction to Toric
    Varieties, section 5.2).
    """
    return _ring(fan).shelling


def _compute_shelling(fan: Fan) -> Shelling:
    funcs = {cone: _cone_point_functional(fan, cone) for cone in fan.max_cones}
    if len(set(funcs.values())) != len(funcs):
        raise PreconditionFailed(
            "two maximal cones have the same point functional: no perturbation separates them"
        )
    base = tuple(map(sum, zip(*fan.rays)))  # the ray sum
    order = sorted(
        fan.max_cones, key=lambda c: (lattice.dot(funcs[c], base),) + funcs[c], reverse=True
    )
    chosen = _lex_vector(base, max((abs(x) for f in funcs.values() for x in f), default=0))
    values = [lattice.dot(funcs[c], chosen) for c in order]
    if any(a <= b for a, b in zip(values, values[1:])):
        raise RingInconsistent(f"perturbation {chosen} ties or misorders two cone pairings")

    # mu keeps ray i unless the cone across the facet opposite i comes later
    index = fan_mod._face_index(fan)
    position = {mu: k for k, mu in enumerate(order)}
    taus = tuple(
        tuple(i for i in mu if all(position[c] <= k for c in index[tuple(j for j in mu if j != i)]))
        for k, mu in enumerate(order)
    )
    return Shelling(chosen, tuple(order), taus)


def _linear_step(fan: Fan, mono: Monomial, rng=None) -> list[tuple[Monomial, int]]:
    """Rewrite a monomial on a cone with a repeated D_i by the linear relation
    D_i = -sum over j outside mu of <phi_i, v_j> D_j, mu a maximal cone over
    the support and phi_i its inverse's row for ray i: every result has one
    more support ray.  The first such i and mu are taken unless rng picks."""
    support = tuple(dict.fromkeys(mono))
    repeated = [i for i in support if mono.count(i) >= 2]
    above = fan_mod._face_index(fan)[support]
    if rng is None:
        i, mu = repeated[0], above[0]
    else:
        i, mu = rng.choice(repeated), rng.choice(above)
    phi = fan_mod.cone_inverse(fan, mu)[mu.index(i)]
    rest = list(mono)
    rest.remove(i)
    pairs = ((j, lattice.dot(phi, ray)) for j, ray in enumerate(fan.rays) if j not in mu)
    return [(tuple(sorted(rest + [j])), -c) for j, c in pairs if c]


class _CohomologyRing:
    def __init__(self, fan: Fan):
        if fano.classify(fan).tier < fano.Tier.FANO:
            raise NotFano("the stratum basis needs a Fano fan")
        self.fan = fan
        self.shelling = _compute_shelling(fan)
        self.basis_tau = self.shelling.tau
        self.by_degree: dict[int, list[int]] = {}
        for i, tau in enumerate(self.basis_tau):
            self.by_degree.setdefault(len(tau), []).append(i)
        tops = self.by_degree.get(fan.dim, [])
        zeros = self.by_degree.get(0, [])
        if len(tops) != 1 or len(zeros) != 1:
            raise RingInconsistent("shelling census lost uniqueness at the ends")
        self.top_index = tops[0]
        self.unit_index = zeros[0]
        # degree -> (faces minus echelon rank, face -> basis index -> coeff)
        self._tables: dict[int, tuple[int, dict[Cone, dict[int, int]]]] = {}
        self._forms: dict[Monomial, dict[int, int]] = {}

    def coords(self, cls: CohomologyClass) -> dict[int, Rational]:
        """The coordinates of cls, once every index names a basis class."""
        for i in cls.coords:
            if not 0 <= i < len(self.basis_tau):
                raise IndexOutOfRange(f"basis index {i} out of range")
        return cls.coords

    def census(self) -> dict[int, int]:
        return {d: len(ids) for d, ids in sorted(self.by_degree.items())}

    def table(self, degree: int) -> tuple[int, dict[Cone, dict[int, int]]]:
        tab = self._tables.get(degree)
        if tab is not None:
            return tab
        fan, index = self.fan, fan_mod._face_index(self.fan)
        faces = [f for f in index if len(f) == degree]
        ids = self.by_degree.get(degree, [])
        pinned = {self.basis_tau[i]: i for i in ids}
        if len(pinned) != len(ids):
            raise RingInconsistent(f"degree {degree}: duplicate tau monomial")
        columns = [f for f in faces if f not in pinned] + sorted(pinned)
        col_of = {f: j for j, f in enumerate(columns)}

        # r(sigma, u) for each (k-1)-face sigma: its extensions sigma + i by column
        link: dict[Cone, list[tuple[int, int]]] = {}
        for tau in faces:
            for i in tau:
                link.setdefault(tuple(j for j in tau if j != i), []).append((i, col_of[tau]))
        ech = lattice.Echelon()
        for sigma, ext in link.items():
            mu = index[sigma][0]
            for r, u in zip(mu, fan_mod.cone_inverse(fan, mu)):
                if r not in sigma:
                    ech.insert({j: lattice.dot(u, fan.rays[i]) for i, j in ext})

        if any(p >= len(columns) - len(pinned) for p in ech.rows):
            raise RingInconsistent(f"degree {degree}: a pinned monomial pivoted")
        if len(columns) - ech.rank != len(pinned):
            raise RingInconsistent(
                f"degree {degree}: quotient dimension {len(columns) - ech.rank}"
                f" does not match the shelling census {len(pinned)}"
            )
        values = ech.solve({col_of[tau]: {i: 1} for tau, i in pinned.items()})
        tab = (len(columns) - ech.rank, {columns[j]: v for j, v in values.items()})
        self._tables[degree] = tab
        return tab

    def form(self, mono: Monomial) -> dict[int, int]:
        """Coordinates of a sorted monomial of degree at most n, memoized; each
        linear step lowers degree minus support size, so at most n steps."""
        out = self._forms.get(mono)
        if out is None:
            support = tuple(dict.fromkeys(mono))
            if support not in fan_mod._face_index(self.fan):
                out = {}
            elif len(support) == len(mono):
                out = self.table(len(mono))[1][mono]
            else:
                acc: dict[int, int] = {}
                for sub, c in _linear_step(self.fan, mono):
                    for k, v in self.form(sub).items():
                        acc[k] = acc.get(k, 0) + c * v
                out = {k: v for k, v in acc.items() if v}
            self._forms[mono] = out
        return out

    def quotient_dimension(self, degree: int) -> int:
        return self.table(degree)[0] if 0 <= degree <= self.fan.dim else 0

    def normal_form(self, poly: Mapping[Monomial, Rational]) -> CohomologyClass:
        coords: dict[int, Rational] = {}
        for mono, coeff in poly.items():
            key = tuple(sorted(fan_mod._ray_indices(self.fan, mono, "divisor index")))
            coeff = _strict_rational(coeff, "coefficient")
            if coeff == 0 or len(key) > self.fan.dim:
                continue
            for i, c in self.form(key).items():
                coords[i] = coords.get(i, 0) + coeff * c
        return CohomologyClass(coords)


_ring = fan_mod.per_fan(_CohomologyRing)


def normal_form(fan: Fan, poly: Mapping[Monomial, Rational]) -> CohomologyClass:
    """Reduce a formal polynomial in the divisor symbols to basis coords.

    Keys are monomials as sorted tuples of divisor indices with multiplicity
    (the empty tuple is the constant term); values are ints or Fractions.
    """
    return _ring(fan).normal_form(poly)


def basis_tau(fan: Fan) -> tuple[Cone, ...]:
    return _ring(fan).basis_tau


def basis_class(fan: Fan, index: int) -> CohomologyClass:
    cls = CohomologyClass({index: 1})
    _ring(fan).coords(cls)
    return cls


def unit_class(fan: Fan) -> CohomologyClass:
    return CohomologyClass({_ring(fan).unit_index: 1})


def point_class(fan: Fan) -> CohomologyClass:
    return CohomologyClass({_ring(fan).top_index: 1})


def betti_census(fan: Fan) -> dict[int, int]:
    """Number of basis classes per degree (the even Betti numbers)."""
    return _ring(fan).census()


def degree_dimension(fan: Fan, degree: int) -> int:
    """Dimension of the degree-d quotient computed by elimination alone.

    Counts the k-faces minus the rank of the echelon of the relations
    r(sigma, u) among them (Fulton-Sturmfels), which does not depend on the
    pinned basis, so it can be compared against the shelling census.
    """
    return _ring(fan).quotient_dimension(degree)


def class_degrees(fan: Fan, cls: CohomologyClass) -> set[int]:
    ring = _ring(fan)
    return {len(ring.basis_tau[i]) for i in ring.coords(cls)}


def cup(fan: Fan, a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Classical cup product in the pinned basis."""
    ring = _ring(fan)
    poly: dict[Monomial, Rational] = {}
    a_coords, b_coords = ring.coords(a), ring.coords(b)
    for i, ca in a_coords.items():
        for j, cb in b_coords.items():
            mono = tuple(sorted(ring.basis_tau[i] + ring.basis_tau[j]))
            poly[mono] = poly.get(mono, 0) + ca * cb
    return ring.normal_form(poly)


def stratum_class(fan: Fan, sigma: Sequence[int]) -> CohomologyClass:
    """The class of the closed stratum X(sigma) for a cone sigma."""
    key = fan_mod._cone_key(fan, sigma)
    return _ring(fan).normal_form({key: 1})


def integrate(fan: Fan, a: CohomologyClass) -> Rational:
    """Evaluation against the fundamental class: the point-class coefficient."""
    ring = _ring(fan)
    return ring.coords(a).get(ring.top_index, 0)
