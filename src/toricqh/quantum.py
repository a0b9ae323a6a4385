"""Quantum cohomology: presentation, structure constants, and invariants.

The quantum ring is presented by the divisor symbols modulo the linear
relations and one deformed monomial relation per primitive set.  Products
are computed by rewriting monomials to normal form: a monomial whose
support contains a primitive set trades it for the relation's right side
at the cost of a q-shift, a repeated divisor is eliminated through the
dual-basis linear relation of a containing cone, and a square-free
monomial supported on a cone is evaluated in closed form through the
exceptional-set expansion.  Everything stays exact and integral: the
engine's one form is a dict curve-class pairings -> basis index -> int, and
class objects are built only where a public function returns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Optional, Sequence, Union

from . import cohomology, fan as fan_mod, fano, lattice
from .cohomology import CohomologyClass, Monomial, Rational
from .errors import IndexOutOfRange, NotFano, NotInClass, PreconditionFailed
from .fan import Cone, CurveClass, Fan, PrimitiveData, Vector


class QuantumClass:
    """An element of the quantum ring: map curve class -> cohomology class."""

    __slots__ = ("parts",)

    def __init__(self, parts: Optional[Mapping[CurveClass, CohomologyClass]] = None):
        clean: dict[CurveClass, CohomologyClass] = {}
        if parts:
            for beta, cls in parts.items():
                if not cls.is_zero():
                    clean[beta] = cls
        self.parts = clean

    def is_zero(self) -> bool:
        return not self.parts

    def coefficient(self, beta: CurveClass) -> CohomologyClass:
        return self.parts.get(beta, CohomologyClass())

    def curves(self) -> list[CurveClass]:
        return sorted(self.parts, key=lambda b: (b.degree, b.pairings))

    def __eq__(self, other) -> bool:
        return isinstance(other, QuantumClass) and self.parts == other.parts

    def __hash__(self):
        return hash(frozenset((b, c) for b, c in self.parts.items()))

    def __add__(self, other: "QuantumClass") -> "QuantumClass":
        out = dict(self.parts)
        for beta, cls in other.parts.items():
            cur = out.get(beta)
            out[beta] = cls if cur is None else cur + cls
        return QuantumClass(out)

    def __sub__(self, other: "QuantumClass") -> "QuantumClass":
        return self + other.scaled(-1)

    def scaled(self, c) -> "QuantumClass":
        c = cohomology._strict_rational(c, "scale factor")
        return QuantumClass({b: cls.scaled(c) for b, cls in self.parts.items()})

    def shifted(self, beta: CurveClass) -> "QuantumClass":
        return QuantumClass({b + beta: cls for b, cls in self.parts.items()})

    def __repr__(self):
        if not self.parts:
            return "QuantumClass(0)"
        bits = [f"q^{b.pairings}*({cls!r})" for b, cls in sorted(
            self.parts.items(), key=lambda kv: (kv[0].degree, kv[0].pairings))]
        return "QuantumClass(" + " + ".join(bits) + ")"


@dataclass(frozen=True)
class QuantumTerm:
    """One term of a q-polynomial in the divisor symbols."""

    curve: CurveClass
    monomial: Monomial
    coefficient: Rational


@dataclass(frozen=True)
class Presentation:
    """Generators and relations of the quantum ring.

    linear holds one row per lattice coordinate, the row being the pairing
    of each ray with that coordinate functional; deformed holds a primitive
    relation per primitive set, read as
    prod(D_i, i in set) = q^cls * prod(D_j^a_j over the rhs cone).
    """

    n_generators: int
    linear: tuple[Vector, ...]
    deformed: tuple[PrimitiveData, ...]


def zero_curve(fan: Fan) -> CurveClass:
    return CurveClass((0,) * fan.n_rays)


def classical(fan: Fan, cls: CohomologyClass) -> QuantumClass:
    """Embed a cohomology class as the q^0 part of a quantum class."""
    return QuantumClass({zero_curve(fan): cls})


_Parts = dict[Vector, dict[int, int]]  # curve class pairings -> basis index -> coeff

# Highest monomial degree the public rewrite entry points accept.  The
# rewrite recurses once per step; its depth, measured over the corpus, P^3
# and the products of the benchmark, is at most 2.75 times the degree (1x on
# P^n, 2.4x on Bl3P^2 for a pure power), so 128 keeps it near 350 frames,
# well under the default recursion limit of 1000.  The benchmark rewrites up
# to degree 4n = 20.
MAX_REWRITE_DEGREE = 128


def _check_monomial(fan: Fan, monomial: Sequence[int]) -> Monomial:
    """The sorted monomial, once its degree is at most MAX_REWRITE_DEGREE
    and every index is an int naming a ray (nothing is coerced)."""
    if len(monomial) > MAX_REWRITE_DEGREE:
        raise PreconditionFailed(
            f"monomial of degree {len(monomial)} is above the rewrite cap {MAX_REWRITE_DEGREE}"
        )
    mono = tuple(sorted(fan_mod._strict_int(i, "divisor index") for i in monomial))
    if any(i < 0 or i >= fan.n_rays for i in mono):
        raise IndexOutOfRange(f"divisor index out of range in {mono}")
    return mono


def _add_into(acc: _Parts, parts: Mapping, scale: Rational, shift: Optional[Vector] = None) -> None:
    """acc += scale * q^shift * parts, in place."""
    for beta, coords in parts.items():
        part = acc.setdefault(beta if shift is None else lattice.vadd(beta, shift), {})
        for i, c in coords.items():
            part[i] = part.get(i, 0) + scale * c


def _pruned(acc: _Parts) -> _Parts:
    """acc without zero coefficients and empty parts, as every cache holds it."""
    parts = {beta: {i: c for i, c in coords.items() if c} for beta, coords in acc.items()}
    return {beta: coords for beta, coords in parts.items() if coords}


def _to_class(parts: Mapping) -> QuantumClass:
    return QuantumClass({CurveClass(beta): CohomologyClass(c) for beta, c in parts.items()})


class _QuantumRing:
    def __init__(self, fan: Fan):
        if fano.classify(fan).tier < fano.Tier.FANO:
            raise NotFano("quantum reduction needs a Fano fan")
        self.fan = fan
        self.pdata = fan_mod.primitive_data(fan)
        self.closed: dict[Cone, _Parts] = {}
        self.giambelli_cache: dict[Cone, tuple[QuantumTerm, ...]] = {}
        self.reduce_memo: dict[Monomial, _Parts] = {}
        self.pair_cache: dict[tuple[int, int], _Parts] = {}
        self.effective_seen: set[Vector] = set()
        self.curves_seen: set[Vector] = set()

    def check_effective(self, beta: Vector) -> None:
        if beta not in self.effective_seen:
            fan_mod.decompose_effective(self.fan, CurveClass(beta))
            self.effective_seen.add(beta)

    def check_curve(self, beta: CurveClass) -> Vector:
        if beta.pairings not in self.curves_seen:  # fan.curve_class: NotEffective
            fan_mod.curve_class(self.fan, beta.pairings)
            self.curves_seen.add(beta.pairings)
        return beta.pairings

    def family_class(self, family) -> Vector:
        # the sum of the family's classes, the zero class for the empty family
        zero = (0,) * self.fan.n_rays
        return tuple(map(sum, zip(zero, *(exc.cls.pairings for exc in family))))

    def families(self, sigma: Cone, predicate: str):
        """Subsets of the special sets of sigma with distinct exceptional
        divisors and the named compatibility predicate."""
        specials = fano.special_exceptional_sets(self.fan, sigma)
        out = []
        for size in range(len(specials) + 1):
            for family in combinations(specials, size):
                preds = fano.family_predicates(family)
                if preds["distinct_exc"] and preds[predicate]:
                    out.append(family)
        return out

    def giambelli(self, sigma: Cone) -> tuple[QuantumTerm, ...]:
        cached = self.giambelli_cache.get(sigma)
        if cached is not None:
            return cached
        if fano.classify(self.fan).tier < fano.Tier.FULL_CLASS:
            raise NotInClass("the Giambelli expansion needs the full class")
        terms = []
        for family in self.families(sigma, "no_cycles"):
            removed = {i for exc in family for i in exc.set}
            mono = tuple(i for i in sigma if i not in removed)
            terms.append(QuantumTerm(CurveClass(self.family_class(family)), mono, 1))
        result = tuple(terms)
        self.giambelli_cache[sigma] = result
        return result

    def closed_form(self, sigma: Cone) -> _Parts:
        cached = self.closed.get(sigma)
        if cached is not None:
            return cached
        ring = cohomology._ring(self.fan)
        total: _Parts = {}
        for family in self.families(sigma, "no_overlaps"):
            beta = self.family_class(family)
            self.check_effective(beta)
            # the stratum of the face of sigma off beta's pairing-one rays, as its face form
            tau = tuple(i for i in sigma if beta[i] != 1)
            _add_into(total, {beta: ring.form(tau)}, (-1) ** len(family))
        total = _pruned(total)
        self.closed[sigma] = total
        return total

    def reduce(self, mono: Monomial, rng: Optional[random.Random]) -> _Parts:
        if rng is None:
            cached = self.reduce_memo.get(mono)
            if cached is not None:
                return cached
        support = set(mono)
        contained = [pd for pd in self.pdata if support.issuperset(pd.set)]
        if contained:
            pd = contained[0] if rng is None else rng.choice(contained)
            rest = list(mono)
            for i in pd.set:
                rest.remove(i)
            for j, a in zip(pd.rhs_cone, pd.rhs_coeffs):
                rest.extend([j] * a)
            shift = pd.cls.pairings
            self.check_effective(shift)
            sub = self.reduce(tuple(sorted(rest)), rng)
            result = {lattice.vadd(beta, shift): coords for beta, coords in sub.items()}
        elif len(support) == len(mono):
            result = self.closed_form(mono)
        else:
            acc: _Parts = {}
            for sub, c in cohomology._linear_step(self.fan, mono, rng):
                _add_into(acc, self.reduce(sub, rng), c)
            result = _pruned(acc)
        if rng is None:
            self.reduce_memo[mono] = result
        return result

    def pair_product(self, i: int, j: int) -> _Parts:
        key = (i, j) if i <= j else (j, i)
        cached = self.pair_cache.get(key)
        if cached is not None:
            return cached
        taus = cohomology.basis_tau(self.fan)
        acc: _Parts = {}
        for s in self.giambelli(taus[key[0]]):
            for t in self.giambelli(taus[key[1]]):
                red = self.reduce(tuple(sorted(s.monomial + t.monomial)), None)
                shift = lattice.vadd(s.curve.pairings, t.curve.pairings)
                _add_into(acc, red, s.coefficient * t.coefficient, shift)
        out = _pruned(acc)
        self.pair_cache[key] = out
        return out


def _qring(fan: Fan) -> _QuantumRing:
    d = fan_mod._derived(fan)
    if d.quantum_ring is None:
        d.quantum_ring = _QuantumRing(fan)
    return d.quantum_ring


def presentation(fan: Fan) -> Presentation:
    """The quantum ring presentation; needs a Fano fan."""
    if fano.classify(fan).tier < fano.Tier.FANO:
        raise NotFano("the deformed presentation needs a Fano fan")
    rows = tuple(tuple(ray[t] for ray in fan.rays) for t in range(fan.dim))
    return Presentation(fan.n_rays, rows, fan_mod.primitive_data(fan))


def giambelli(fan: Fan, sigma: Sequence[int]) -> tuple[QuantumTerm, ...]:
    """The q-polynomial lift of the stratum class of sigma.

    Each admissible family of special exceptional sets (distinct exceptional
    divisors, no directed cycles) contributes coefficient one, the sum of the
    family curve classes as q-exponent, and the product of the divisors of
    sigma not absorbed by the family.  Requires the full class.
    """
    return _qring(fan).giambelli(fan_mod._cone_key(fan, sigma))


def divisor_product_closed_form(fan: Fan, sigma: Sequence[int]) -> QuantumClass:
    """Quantum product of the distinct divisors spanning the cone sigma.

    Families with distinct exceptional divisors and no overlaps contribute
    (-1)^t q^(sum of classes) times the stratum whose cone keeps the rays of
    sigma the exponent does not meet with pairing one.
    """
    return _to_class(_qring(fan).closed_form(fan_mod._cone_key(fan, sigma)))


def reduce_monomial(
    fan: Fan, monomial: Sequence[int], rng: Optional[random.Random] = None
) -> QuantumClass:
    """Normal form of a product of divisor symbols in the quantum ring.

    The optional rng randomizes every free choice in the rewrite (which
    primitive set to trade, which repeated divisor to eliminate, in which
    containing cone); the result must not depend on it, which the test suite
    uses as a confluence audit.  Memoization only applies to the
    deterministic strategy.  A monomial of degree above MAX_REWRITE_DEGREE
    is refused with PreconditionFailed, an index that is not an int with
    ValueError and one that names no ray with IndexOutOfRange.
    """
    mono = _check_monomial(fan, monomial)
    return _to_class(_qring(fan).reduce(mono, rng))


def evaluate_terms(fan: Fan, terms: Sequence[QuantumTerm]) -> QuantumClass:
    """Evaluate a q-polynomial in the divisor symbols to a quantum class.

    Term monomials are checked as in reduce_monomial and term curves by
    fan.curve_class (NotEffective: a wrong length or a nonzero ray sum).
    """
    ring = _qring(fan)
    acc: _Parts = {}
    for term in terms:
        red = ring.reduce(_check_monomial(fan, term.monomial), None)
        _add_into(acc, red, term.coefficient, ring.check_curve(term.curve))
    return _to_class(acc)


Multiplicand = Union[CohomologyClass, QuantumClass]


def quantum_product(fan: Fan, a: Multiplicand, b: Multiplicand) -> QuantumClass:
    """Quantum product, bilinear over q-shifts; needs the full class.

    Basis classes are lifted through their Giambelli polynomials, the lifts
    are multiplied formally, and every monomial is rewritten to normal form.
    Part curve classes are checked as in evaluate_terms, and every basis
    index of a part must name a basis class (IndexOutOfRange).
    """
    ring, basis = _qring(fan), cohomology._ring(fan)
    qa = classical(fan, a) if isinstance(a, CohomologyClass) else a
    qb = classical(fan, b) if isinstance(b, CohomologyClass) else b
    for beta, cls in (*qa.parts.items(), *qb.parts.items()):
        ring.check_curve(beta)
        basis.coords(cls)
    acc: _Parts = {}
    for beta_a, cls_a in qa.parts.items():
        for beta_b, cls_b in qb.parts.items():
            shift = lattice.vadd(beta_a.pairings, beta_b.pairings)
            for i, ca in cls_a.coords.items():
                for j, cb in cls_b.coords.items():
                    _add_into(acc, ring.pair_product(i, j), ca * cb, shift)
    return _to_class(acc)


def gw3(
    fan: Fan,
    a: CohomologyClass,
    b: CohomologyClass,
    c: CohomologyClass,
    beta: CurveClass,
) -> Rational:
    """Three-point genus-zero invariant of the class beta.

    Extracted from the small quantum product: the q^beta coefficient of
    a * b, paired classically against c.  beta must be zero or effective.
    """
    fan_mod.decompose_effective(fan, beta)  # runs fan.curve_class first
    piece = quantum_product(fan, a, b).coefficient(beta)
    return cohomology.integrate(fan, cohomology.cup(fan, piece, c))


def quantum_degrees(fan: Fan, qc: QuantumClass) -> set[int]:
    """Complex degrees present in a quantum class; q^beta carries beta's
    anticanonical degree and a basis class its codimension."""
    ring = cohomology._ring(fan)
    out = set()
    for beta, cls in qc.parts.items():
        for i in ring.coords(cls):
            out.add(beta.degree + len(ring.basis_tau[i]))
    return out
