"""Quantum cohomology: presentation, structure constants, and invariants.

The quantum ring is presented by the divisor symbols modulo the linear
relations and one deformed monomial relation per primitive set.  Products
are computed by rewriting monomials to normal form: a monomial whose
support contains a primitive set trades it for the relation's right side
at the cost of a q-shift, a repeated divisor is eliminated through the
dual-basis linear relation of a containing cone, and a square-free
monomial supported on a cone is evaluated in closed form through the
exceptional-set expansion.  Everything stays exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Optional, Sequence, Union

from . import cohomology, fan as fan_mod, fano, lattice
from .cohomology import CohomologyClass, Monomial
from .errors import IndexOutOfRange, NotACone, NotFano, NotInClass, PreconditionFailed
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
        return self + other.scaled(Fraction(-1))

    def scaled(self, c) -> "QuantumClass":
        c = Fraction(c)
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
    coefficient: Fraction


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


_Parts = dict[CurveClass, dict[int, Fraction]]  # a quantum class being summed

# Highest monomial degree the public rewrite entry points accept.  The
# rewrite recurses once per step; its depth, measured over the corpus, P^3
# and the products of the benchmark, is at most 2.75 times the degree (1x on
# P^n, 2.4x on Bl3P^2 for a pure power), so 128 keeps it near 350 frames,
# well under the default recursion limit of 1000.  The benchmark rewrites up
# to degree 4n = 20.
MAX_REWRITE_DEGREE = 128


def _check_rewrite_degree(mono: Monomial) -> None:
    if len(mono) > MAX_REWRITE_DEGREE:
        raise PreconditionFailed(
            f"monomial of degree {len(mono)} is above the rewrite cap {MAX_REWRITE_DEGREE}"
        )


def _add_into(
    acc: _Parts, qc: QuantumClass, scale: Fraction, shift: Optional[CurveClass] = None
) -> None:
    """acc += scale * q^shift * qc, in place."""
    for beta, cls in qc.parts.items():
        part = acc.setdefault(beta if shift is None else beta + shift, {})
        for i, c in cls.coords.items():
            part[i] = part.get(i, 0) + scale * c


def _from_parts(acc: _Parts) -> QuantumClass:
    return QuantumClass({beta: CohomologyClass(coords) for beta, coords in acc.items()})


class _QuantumRing:
    def __init__(self, fan: Fan):
        fan_mod.require_accepted(fan)
        if fano.classify(fan).tier < fano.Tier.FANO:
            raise NotFano("quantum reduction needs a Fano fan")
        self.fan = fan
        self.pdata = fan_mod.primitive_data(fan)
        self.by_set = {pd.set: pd for pd in self.pdata}
        self.psets = [pd.set for pd in self.pdata]
        self.specials: dict[Cone, tuple] = {}
        self.closed: dict[Cone, QuantumClass] = {}
        self.giambelli_cache: dict[Cone, tuple[QuantumTerm, ...]] = {}
        self.reduce_memo: dict[Monomial, QuantumClass] = {}
        self.pair_cache: dict[tuple[int, int], QuantumClass] = {}
        self.effective_seen: set[CurveClass] = set()

    def check_effective(self, beta: CurveClass) -> None:
        if beta in self.effective_seen:
            return
        fan_mod.decompose_effective(self.fan, beta)
        self.effective_seen.add(beta)

    def special_sets(self, sigma: Cone) -> tuple:
        cached = self.specials.get(sigma)
        if cached is None:
            cached = fano.special_exceptional_sets(self.fan, sigma)
            self.specials[sigma] = cached
        return cached

    def families(self, sigma: Cone, predicate: str):
        """Subsets of the special sets of sigma with distinct exceptional
        divisors and the named compatibility predicate."""
        specials = self.special_sets(sigma)
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
            beta = zero_curve(self.fan)
            removed: set[int] = set()
            for exc in family:
                beta = beta + exc.cls
                removed.update(exc.set)
            mono = tuple(i for i in sigma if i not in removed)
            terms.append(QuantumTerm(beta, mono, Fraction(1)))
        result = tuple(terms)
        self.giambelli_cache[sigma] = result
        return result

    def closed_form(self, sigma: Cone) -> QuantumClass:
        cached = self.closed.get(sigma)
        if cached is not None:
            return cached
        total = QuantumClass()
        for family in self.families(sigma, "no_overlaps"):
            beta = zero_curve(self.fan)
            for exc in family:
                beta = beta + exc.cls
            self.check_effective(beta)
            tau = tuple(i for i in sigma if beta.pairings[i] != 1)
            stratum = cohomology.stratum_class(self.fan, tau)
            sign = Fraction(-1) ** len(family)
            total = total + QuantumClass({beta: stratum.scaled(sign)})
        self.closed[sigma] = total
        return total

    def reduce(self, mono: Monomial, rng: Optional[random.Random]) -> QuantumClass:
        if rng is None:
            cached = self.reduce_memo.get(mono)
            if cached is not None:
                return cached
        support = sorted(set(mono))
        support_set = set(support)

        contained = [p for p in self.psets if set(p) <= support_set]
        if contained:
            pd = self.by_set[contained[0] if rng is None else rng.choice(contained)]
            rest = list(mono)
            for i in pd.set:
                rest.remove(i)
            for j, a in zip(pd.rhs_cone, pd.rhs_coeffs):
                rest.extend([j] * a)
            self.check_effective(pd.cls)
            result = self.reduce(tuple(sorted(rest)), rng).shifted(pd.cls)
        elif len(support) == len(mono):
            result = self.closed_form(tuple(support))
        else:
            repeated = [i for i in support if mono.count(i) >= 2]
            i = repeated[0] if rng is None else rng.choice(repeated)
            containing = [mu for mu in self.fan.max_cones if support_set <= set(mu)]
            mu = containing[0] if rng is None else rng.choice(containing)
            phi = lattice_functional(self.fan, mu, i)
            base = list(mono)
            base.remove(i)
            outside = set(range(self.fan.n_rays)) - set(mu)
            acc: _Parts = {}
            for j in sorted(outside):
                c = sum(p * r for p, r in zip(phi, self.fan.rays[j]))
                if c:
                    _add_into(acc, self.reduce(tuple(sorted(base + [j])), rng), Fraction(-c))
            result = _from_parts(acc)
        if rng is None:
            self.reduce_memo[mono] = result
        return result

    def pair_product(self, i: int, j: int) -> QuantumClass:
        key = (i, j) if i <= j else (j, i)
        cached = self.pair_cache.get(key)
        if cached is not None:
            return cached
        taus = cohomology.basis_tau(self.fan)
        acc: _Parts = {}
        for s in self.giambelli(taus[key[0]]):
            for t in self.giambelli(taus[key[1]]):
                red = self.reduce(tuple(sorted(s.monomial + t.monomial)), None)
                _add_into(acc, red, s.coefficient * t.coefficient, s.curve + t.curve)
        out = _from_parts(acc)
        self.pair_cache[key] = out
        return out


_QRINGS: dict[Fan, _QuantumRing] = {}


def _qring(fan: Fan) -> _QuantumRing:
    ring = _QRINGS.get(fan)
    if ring is None:
        ring = _QuantumRing(fan)
        _QRINGS[fan] = ring
    return ring


def lattice_functional(fan: Fan, mu: Cone, i: int) -> Vector:
    """The dual functional of ray i inside the maximal cone mu."""
    gens = fan_mod.cone_generators(fan, mu)
    return lattice.dual_basis_functional(gens, mu.index(i))


def presentation(fan: Fan) -> Presentation:
    """The quantum ring presentation; needs a Fano fan."""
    fan_mod.require_accepted(fan)
    if fano.classify(fan).tier < fano.Tier.FANO:
        raise NotFano("the deformed presentation needs a Fano fan")
    rows = tuple(tuple(ray[t] for ray in fan.rays) for t in range(fan.dim))
    return Presentation(fan.n_rays, rows, fan_mod.primitive_data(fan))


def _check_cone(fan: Fan, sigma: Sequence[int]) -> Cone:
    key = tuple(sorted(sigma))
    if not fan_mod.is_cone(fan, key):
        raise NotACone(f"{tuple(i + 1 for i in key)} does not span a cone")
    return key


def giambelli(fan: Fan, sigma: Sequence[int]) -> tuple[QuantumTerm, ...]:
    """The q-polynomial lift of the stratum class of sigma.

    Each admissible family of special exceptional sets (distinct exceptional
    divisors, no directed cycles) contributes coefficient one, the sum of the
    family curve classes as q-exponent, and the product of the divisors of
    sigma not absorbed by the family.  Requires the full class.
    """
    return _qring(fan).giambelli(_check_cone(fan, sigma))


def divisor_product_closed_form(fan: Fan, sigma: Sequence[int]) -> QuantumClass:
    """Quantum product of the distinct divisors spanning the cone sigma.

    Families with distinct exceptional divisors and no overlaps contribute
    (-1)^t q^(sum of classes) times the stratum whose cone keeps the rays of
    sigma the exponent does not meet with pairing one.
    """
    return _qring(fan).closed_form(_check_cone(fan, sigma))


def reduce_monomial(
    fan: Fan, monomial: Sequence[int], rng: Optional[random.Random] = None
) -> QuantumClass:
    """Normal form of a product of divisor symbols in the quantum ring.

    The optional rng randomizes every free choice in the rewrite (which
    primitive set to trade, which repeated divisor to eliminate, in which
    containing cone); the result must not depend on it, which the test suite
    uses as a confluence audit.  Memoization only applies to the
    deterministic strategy.  A monomial of degree above MAX_REWRITE_DEGREE
    is refused with PreconditionFailed.
    """
    mono = tuple(sorted(int(i) for i in monomial))
    _check_rewrite_degree(mono)
    if any(i < 0 or i >= fan.n_rays for i in mono):
        raise IndexOutOfRange(f"divisor index out of range in {mono}")
    return _qring(fan).reduce(mono, rng)


def evaluate_terms(fan: Fan, terms: Sequence[QuantumTerm]) -> QuantumClass:
    """Evaluate a q-polynomial in the divisor symbols to a quantum class.

    A term whose monomial has degree above MAX_REWRITE_DEGREE is refused
    with PreconditionFailed.
    """
    ring = _qring(fan)
    acc: _Parts = {}
    for term in terms:
        _check_rewrite_degree(term.monomial)
        red = ring.reduce(tuple(sorted(term.monomial)), None)
        _add_into(acc, red, term.coefficient, term.curve)
    return _from_parts(acc)


Multiplicand = Union[CohomologyClass, QuantumClass]


def quantum_product(fan: Fan, a: Multiplicand, b: Multiplicand) -> QuantumClass:
    """Quantum product, bilinear over q-shifts; needs the full class.

    Basis classes are lifted through their Giambelli polynomials, the lifts
    are multiplied formally, and every monomial is rewritten to normal form.
    """
    ring = _qring(fan)
    qa = classical(fan, a) if isinstance(a, CohomologyClass) else a
    qb = classical(fan, b) if isinstance(b, CohomologyClass) else b
    acc: _Parts = {}
    for beta_a, cls_a in qa.parts.items():
        for beta_b, cls_b in qb.parts.items():
            shift = beta_a + beta_b
            for i, ca in cls_a.coords.items():
                for j, cb in cls_b.coords.items():
                    _add_into(acc, ring.pair_product(i, j), ca * cb, shift)
    return _from_parts(acc)


def gw3(
    fan: Fan,
    a: CohomologyClass,
    b: CohomologyClass,
    c: CohomologyClass,
    beta: CurveClass,
) -> Fraction:
    """Three-point genus-zero invariant of the class beta.

    Extracted from the small quantum product: the q^beta coefficient of
    a * b, paired classically against c.  beta must be zero or effective.
    """
    beta = fan_mod.curve_class(fan, beta.pairings)
    fan_mod.decompose_effective(fan, beta)
    product = quantum_product(fan, a, b)
    piece = product.coefficient(beta)
    return cohomology.integrate(fan, cohomology.cup(fan, piece, c))


def quantum_degrees(fan: Fan, qc: QuantumClass) -> set[int]:
    """Complex degrees present in a quantum class; q^beta carries beta's
    anticanonical degree and a basis class its codimension."""
    taus = cohomology.basis_tau(fan)
    out = set()
    for beta, cls in qc.parts.items():
        for i in cls.coords:
            out.add(beta.degree + len(taus[i]))
    return out
