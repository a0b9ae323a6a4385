"""Cohomology of the toric variety with a pinned stratum-class basis.

The basis comes from a line shelling of the maximal cones: a generic
lattice vector orders the cones, and each cone mu_i is cut down to tau_i by
intersecting with its later facet-neighbors, which the walk plan of the
fan's complex names, one per facet of mu_i.  The order is closed-form, with
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
sigma).  The shelling makes these relations triangular, so no elimination
is needed.  Each face f lies in one interval [tau_i, mu_i], i the first
cone of the order that contains f.  Taking the faces by decreasing i,
tau_i is its basis vector and any other f is x_(f-j) D_j for a ray j of f
outside tau_i, rewritten by the linear row of j in mu_i: every face
(f-j)+l on the right lies outside mu_i, so in a later interval, and its
int coordinates are known.  These relations, one per face off the basis
and unitriangular in interval order, bound the rank of the relations from
below; every r(sigma, u) is then checked to vanish on the result, which
bounds it from above.  So the quotient dimension is exactly the number of
basis faces, is checked against the shelling census, and every coordinate
is an int (the strata are a Z-basis).  A face that does not contain tau_i,
a face needed that is not later, and a relation that does not vanish each
raise RingInconsistent.  Other monomials are rewritten by
`_CohomologyRing.form`.

Inside a rewrite, here and in the quantum ring, a monomial is one int, its
packed form (`_CohomologyRing.pack`): the exponent of D_i sits in the field of
_FIELD_BITS bits at bit _FIELD_BITS * i.  Packing is additive, so trading
divisors is one integer addition.  A field's exponent is never above
MAX_REWRITE_DEGREE (see there), and the tests on a packed monomial need
that: adding 2^(_FIELD_BITS - 1) - t to a field sets its top bit exactly
when its exponent is at least t (t = 1 for the support, 2 for a repeated
divisor), with no carry into the next field.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import groupby
from typing import NamedTuple, Optional, Sequence

from . import fan as fan_mod
from . import fano, lattice
from .errors import IndexOutOfRange, NotFano, PreconditionFailed, RingInconsistent
from .fan import Cone, Fan

Monomial = tuple[int, ...]  # sorted divisor indices with multiplicity
Rational = int | Fraction  # a coefficient: int unless a caller supplied a Fraction

# Highest monomial degree the quantum rewrite's entry points accept, and so the
# highest exponent of a packed monomial: no rewrite step raises the degree,
# and a classical form's monomials have degree at most n, far below 128 for
# any fan whose face index (2^n faces per maximal cone) fits in memory.
# The rewrite recurses once per step.  On a power D_i^k of Bl1P^2, Bl2P^2 or
# Bl3P^2 its depth reaches 3k - 3 (27, 57, 117 and 165 frames at k = 10, 20,
# 40 and 56, from cold caches, under the deterministic strategy and random
# ones alike); on P^2 and P^1 x P^1 it is k or k + 1.  So at the cap it is
# 381 frames, under the default recursion limit of 1000, and a tier-1 test
# counts it.  The benchmark rewrites up to degree 4n = 20.  One call expands
# each distinct sub-monomial once, under a random strategy too, so its time
# follows the number of sub-monomials and the size of their q-parts, not the
# number of rewrite paths.  In process on a shared 2-vCPU box (Python 3.11.7,
# cold caches), D1^18 on Bl3P^2 takes 0.03 s deterministic and 0.04 s under a
# random strategy, D1^32 0.28 s and 0.39-0.53 s, D1^48 1.6 s and D1^64 5.5 s
# deterministic, nearly all of it in q-part arithmetic; so the cap bounds the
# depth, not the time, nor the memory (D1^80 peaks at 2.3 GB).
MAX_REWRITE_DEGREE = 128
# The width of an exponent field: the least with MAX_REWRITE_DEGREE + (2^(w-1) - 1)
# below 2^w, so a mask test adds at most 2^(w-1) - 1 to an exponent of at most
# MAX_REWRITE_DEGREE and the field cannot carry; 8 bits for 128.
_FIELD_BITS = (MAX_REWRITE_DEGREE - 1).bit_length() + 1


def _rays(mask: int) -> list[int]:
    """The rays whose field top bits a mask sets, increasing."""
    out = []
    while mask:
        low = mask & -mask
        out.append((low.bit_length() - 1) // _FIELD_BITS)
        mask -= low
    return out


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

    @classmethod
    def _trusted(cls, coords: dict[int, Rational]) -> "CohomologyClass":
        """The class of nonzero coordinates that are int or Fraction already,
        as an engine makes them: the dict is taken as it is, nothing is
        checked or copied again."""
        out = cls.__new__(cls)
        out.coords = coords
        return out

    def is_zero(self) -> bool:
        return not self.coords

    def __eq__(self, other) -> bool:
        return isinstance(other, CohomologyClass) and self.coords == other.coords

    def __hash__(self):
        return hash(tuple(sorted(self.coords.items())))

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        out = dict(self.coords)
        for i, c in fan_mod._strict_instance(other, CohomologyClass, "operand").coords.items():
            out[i] = out.get(i, 0) + c
        return CohomologyClass(out)

    def __sub__(self, other: "CohomologyClass") -> "CohomologyClass":
        return self + fan_mod._strict_instance(other, CohomologyClass, "operand").scaled(-1)

    def scaled(self, c) -> "CohomologyClass":
        c = _strict_rational(c, "scale factor")
        return CohomologyClass({i: c * v for i, v in self.coords.items()})

    def __repr__(self):
        if not self.coords:
            return "CohomologyClass(0)"
        body = " + ".join(f"{c}*b{i}" for i, c in sorted(self.coords.items()))
        return f"CohomologyClass({body})"


class Shelling(NamedTuple):
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


def _compute_shelling(fan: Fan) -> tuple[Shelling, dict[Cone, int]]:
    """The shelling, with each maximal cone's position in its order."""
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

    # mu keeps ray i unless the cone across from it in the walk plan comes later
    across = fan_mod._complex(fan).across
    position = {mu: k for k, mu in enumerate(order)}
    taus = tuple(
        tuple(i for i, step in zip(mu, across[mu]) if position[step[0]] < k)
        for k, mu in enumerate(order)
    )
    return Shelling(chosen, tuple(order), taus), position


class _CohomologyRing:
    def __init__(self, fan: Fan):
        if fano.classify(fan).tier < fano.Tier.FANO:
            raise NotFano("the stratum basis needs a Fano fan")
        self.fan = fan
        self.shelling, self.position = _compute_shelling(fan)
        self.basis_tau = self.shelling.tau
        if len(self.basis_tau) != len(self.shelling.order):
            raise RingInconsistent(
                f"shelling census: {len(self.basis_tau)} taus for {len(self.shelling.order)} maximal cones"
            )
        self.by_degree: dict[int, list[int]] = {}
        for i, tau in enumerate(self.basis_tau):
            self.by_degree.setdefault(len(tau), []).append(i)
        tops = self.by_degree.get(fan.dim, [])
        zeros = self.by_degree.get(0, [])
        if len(tops) != 1 or len(zeros) != 1:
            raise RingInconsistent("shelling census lost uniqueness at the ends")
        self.top_index = tops[0]
        self.unit_index = zeros[0]
        # the faces of each degree, which the face index lists by size: one
        # pass per ring, read by table
        self.faces = {d: list(fs) for d, fs in groupby(fan_mod._face_index(fan), len)}
        # degree -> (quotient dimension, face -> basis index -> coeff), each
        # read off the shelling and certified by every relation among the faces
        self._tables: dict[int, tuple[int, dict[Cone, dict[int, int]]]] = {}
        # packed monomial -> its coordinates, filled by form
        self._forms: dict[int, dict[int, int]] = {}
        # (mu, i) -> linear_row(mu, i), filled on first use
        self._linear_rows: dict[tuple[Cone, int], tuple[tuple[int, int], ...]] = {}
        # the packed D_i; the top bit of every field; and what, added to a
        # packed monomial, sets a field's top bit where its exponent is >= 1,
        # resp. >= 2 (module docstring)
        self.units = [1 << (_FIELD_BITS * i) for i in range(fan.n_rays)]
        ones = sum(self.units)
        self.high = ones << (_FIELD_BITS - 1)
        self.at_least_one = self.high - ones
        self.at_least_two = self.at_least_one - ones
        # support mask (the top bits of a packed monomial's nonzero fields) ->
        # (its rays, the maximal cones over them, empty if they span no cone),
        # filled on first use
        self._supports: dict[int, tuple[Cone, list[Cone]]] = {}

    def coords(self, cls: CohomologyClass, what: str = "class") -> dict[int, Rational]:
        """The coordinates of cls, once it is a CohomologyClass (else
        ValueError naming it as what) and every index names a basis class."""
        for i in fan_mod._strict_instance(cls, CohomologyClass, what).coords:
            if not 0 <= i < len(self.basis_tau):
                raise IndexOutOfRange(f"basis index {i} out of range")
        return cls.coords

    def census(self) -> dict[int, int]:
        return {d: len(ids) for d, ids in sorted(self.by_degree.items())}

    def table(self, degree: int) -> tuple[int, dict[Cone, dict[int, int]]]:
        tab = self._tables.get(degree)
        if tab is not None:
            return tab
        index, taus, order = fan_mod._face_index(self.fan), self.basis_tau, self.shelling.order
        ids = self.by_degree.get(degree, [])
        if len({taus[i] for i in ids}) != len(ids):
            raise RingInconsistent(f"degree {degree}: duplicate tau monomial")
        # each face's interval: the position of the first shelling cone over it
        position = self.position
        interval = {f: min(map(position.__getitem__, index[f])) for f in self.faces.get(degree, ())}
        # the faces sigma + l over each (degree - 1)-face sigma, by l; a
        # missing l means sigma + l is no face, and x of it is 0
        up: dict[Cone, dict[int, Cone]] = {}
        for f in interval:
            for a, r in enumerate(f):
                up.setdefault(f[:a] + f[a + 1 :], {})[r] = f

        # decreasing interval: tau_i is its basis vector, any other face f is
        # x_(f-j) D_j by the linear row of a ray j of f outside tau_i in mu_i,
        # whose faces (f-j)+l lie outside mu_i and so in later intervals
        values: dict[Cone, dict[int, int]] = {}
        for f in sorted(interval, key=interval.__getitem__, reverse=True):
            i = interval[f]
            tau = taus[i]
            if f == tau:
                values[f] = {i: 1}
                continue
            if not set(tau) < set(f):
                raise RingInconsistent(f"degree {degree}: the face {f} does not contain tau_{i} {tau}")
            j = next(r for r in f if r not in tau)
            over = up[tuple(r for r in f if r != j)]
            acc: dict[int, int] = {}
            for l, c in self.linear_row(order[i], j):
                face = over.get(l)
                if face is None:
                    continue
                if interval[face] <= i:
                    raise RingInconsistent(
                        f"degree {degree}: the face {face} that {f} needs is not in a later interval"
                    )
                for k, v in values[face].items():
                    acc[k] = acc.get(k, 0) + c * v
            values[f] = {k: v for k, v in acc.items() if v}

        # every r(sigma, u) vanishes: x_(sigma+r) = sum of c_l x_(sigma+l)
        # over the linear row of r in the first maximal cone over sigma
        for sigma, over in up.items():
            mu = index[sigma][0]
            for r in mu:
                if r in sigma:
                    continue
                acc = dict(values[over[r]])
                for l, c in self.linear_row(mu, r):
                    face = over.get(l)
                    if face is not None:
                        for k, v in values[face].items():
                            acc[k] = acc.get(k, 0) - c * v
                if any(acc.values()):
                    raise RingInconsistent(
                        f"degree {degree}: the relation of ray {r} over the face {sigma} does not vanish"
                    )
        dim = sum(1 for f, i in interval.items() if f == taus[i])
        if dim != len(ids):
            raise RingInconsistent(
                f"degree {degree}: quotient dimension {dim} does not match the shelling census {len(ids)}"
            )
        tab = self._tables[degree] = (dim, values)
        return tab

    def linear_row(self, mu: Cone, i: int) -> tuple[tuple[int, int], ...]:
        """The linear relation D_i = sum of c_j D_j over the rays j outside the
        maximal cone mu, as (j, c_j) with c_j = -<phi_i, v_j> nonzero, phi_i
        being the row of mu's inverse for ray i; memoized per (mu, i)."""
        row = self._linear_rows.get((mu, i))
        if row is None:
            phi = fan_mod.cone_inverse(self.fan, mu)[mu.index(i)]
            pairs = ((j, -lattice.dot(phi, ray)) for j, ray in enumerate(self.fan.rays) if j not in mu)
            row = self._linear_rows[mu, i] = tuple((j, c) for j, c in pairs if c)
        return row

    def pack(self, mono: Sequence[int]) -> int:
        """The packed form of a monomial given by its divisor indices, in any
        order, of degree at most MAX_REWRITE_DEGREE."""
        units = self.units
        return sum(units[i] for i in mono)

    def support(self, key: int) -> tuple[Cone, list[Cone]]:
        """The support of a packed monomial, as a sorted cone key, with the
        maximal cones over it (empty if it spans no cone)."""
        mask = (key + self.at_least_one) & self.high
        entry = self._supports.get(mask)
        if entry is None:
            rays = tuple(_rays(mask))
            entry = self._supports[mask] = (rays, fan_mod._face_index(self.fan).get(rays, []))
        return entry

    def linear_step(self, key: int, i: int, mu: Cone) -> list[tuple[int, int]]:
        """The packed monomial with one D_i traded by the linear_row of i in
        a maximal cone mu over its support: each result, one addition, has a
        D_j off mu in place of the D_i, so one more support ray if D_i was
        repeated.  The one linear step of form and the quantum rewrite."""
        units = self.units
        key -= units[i]
        return [(key + units[j], c) for j, c in self.linear_row(mu, i)]

    def form(self, key: int) -> dict[int, int]:
        """Coordinates of a packed monomial of degree at most n, memoized; each
        linear step (the lowest repeated ray, in the first maximal cone over
        the support) lowers degree minus support size, so at most n steps."""
        out = self._forms.get(key)
        if out is None:
            rays, above = self.support(key)
            repeated = (key + self.at_least_two) & self.high
            if not above:
                out = {}
            elif not repeated:
                out = self.table(len(rays))[1][rays]
            else:
                acc: dict[int, int] = {}
                for sub, c in self.linear_step(key, _rays(repeated)[0], above[0]):
                    for k, v in self.form(sub).items():
                        acc[k] = acc.get(k, 0) + c * v
                out = {k: v for k, v in acc.items() if v}
            self._forms[key] = out
        return out

    def quotient_dimension(self, degree: int) -> int:
        return self.table(degree)[0] if 0 <= degree <= self.fan.dim else 0

    def normal_form(self, poly: Mapping[Monomial, Rational]) -> CohomologyClass:
        coords: dict[int, Rational] = {}
        for mono, coeff in poly.items():
            indices = fan_mod._ray_indices(self.fan, mono, "divisor index")
            coeff = _strict_rational(coeff, "coefficient")
            if coeff == 0 or len(indices) > self.fan.dim:
                continue
            for i, c in self.form(self.pack(indices)).items():
                coords[i] = coords.get(i, 0) + coeff * c
        return CohomologyClass(coords)


_ring = fan_mod.per_fan(_CohomologyRing)


def normal_form(fan: Fan, poly: Mapping[Monomial, Rational]) -> CohomologyClass:
    """Reduce a formal polynomial in the divisor symbols to basis coords.

    Keys are monomials as sorted tuples of divisor indices with multiplicity
    (the empty tuple is the constant term); values are ints or Fractions.
    A poly that is not a mapping is refused with ValueError.
    """
    return _ring(fan).normal_form(fan_mod._strict_instance(poly, Mapping, "poly"))


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
    """Dimension of the degree-d quotient of the faces by the relations
    r(sigma, u) among them (Fulton-Sturmfels), certified with no
    elimination: one triangular relation per face outside the shelling
    basis bounds the rank from below, and the vanishing of every r(sigma,
    u) on the table bounds it from above.  It is compared against the
    shelling census, and a mismatch raises RingInconsistent.
    """
    return _ring(fan).quotient_dimension(degree)


def class_degrees(fan: Fan, cls: CohomologyClass) -> set[int]:
    ring = _ring(fan)
    return {len(ring.basis_tau[i]) for i in ring.coords(cls)}


def cup(fan: Fan, a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Classical cup product in the pinned basis."""
    ring = _ring(fan)
    poly: dict[Monomial, Rational] = {}
    a_coords, b_coords = ring.coords(a, "operand a"), ring.coords(b, "operand b")
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
    return ring.coords(a, "operand a").get(ring.top_index, 0)
