"""Quantum cohomology: presentation, structure constants, and invariants.

The quantum ring is presented by the divisor symbols modulo the linear
relations and one deformed monomial relation per primitive set.  Products
are computed by rewriting monomials to normal form: a monomial whose
support contains a primitive set trades it for the relation's right side
at the cost of a q-shift, a repeated divisor is eliminated through the
dual-basis linear relation of a containing cone, and a square-free
monomial supported on a cone is evaluated in closed form through the
exceptional-set expansion.  Everything stays exact and integral: the
engine's one form is a dict packed curve class -> basis index -> int, and
class objects are built only where a public function returns.  A curve class
with pairings p is packed into one int, sum p_i * 2^(40 i) with balanced
digits, so a q-shift is one integer addition; a class is packed once where
it enters (_QuantumRing.check_curve, which refuses a pairing of size 2^37 or
more) and decoded once per ring (_QuantumRing.to_class).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Optional, Sequence, Union

from . import cohomology, fan as fan_mod, fano
from .cohomology import CohomologyClass, Monomial, Rational
from .errors import NotFano, NotInClass, PreconditionFailed
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


_Parts = dict[int, dict[int, int]]  # packed curve class -> basis index -> coeff

# A curve class is keyed inside the engine by _pack(pairings), one int with
# balanced base-2^40 digits.  Packing is additive, and a key decodes exactly
# while every digit of a sum lies in [-2^39, 2^39).  A key sums at most two
# boundary classes (a part of each operand of quantum_product; check_curve
# refuses |p_i| >= 2^37, so two stay below 2^38) and one engine class.  An
# engine class sums primitive classes, at most one per unit of the rewritten
# monomial's degree (a q-shift of a Fano relation lowers the degree), and up
# to three families of at most n exceptional classes (a closed form and two
# Giambelli terms), each of distinct exceptional divisors of a cone.  Every
# primitive or exceptional class pairs within [-n, 1] with each divisor (the
# rhs coefficients of a Fano primitive relation sum to less than |P| <= n + 1).
# A rewritten monomial has degree at most MAX_REWRITE_DEGREE (evaluate_terms)
# or 2n (a pair product), so an engine digit is at most
# (max(MAX_REWRITE_DEGREE, 2n) + 3n) * n, below 2^38 for any dimension n
# below 2^17.
_DIGIT_BITS = 40
_HALF_DIGIT = 1 << (_DIGIT_BITS - 1)
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1
_PAIRING_CAP = 1 << 37

# Highest monomial degree the public rewrite entry points accept.  The
# rewrite recurses once per step; its depth, measured over the corpus, P^3
# and the products of the benchmark, is at most 2.75 times the degree (1x on
# P^n, 2.4x on Bl3P^2 for a pure power), so 128 keeps it near 350 frames,
# well under the default recursion limit of 1000.  The benchmark rewrites up
# to degree 4n = 20.
MAX_REWRITE_DEGREE = 128


def _check_monomial(fan: Fan, monomial: Sequence[int]) -> Monomial:
    """The sorted monomial, once its degree is at most MAX_REWRITE_DEGREE
    and its indices pass fan._ray_indices (nothing is coerced)."""
    if len(monomial) > MAX_REWRITE_DEGREE:
        raise PreconditionFailed(
            f"monomial of degree {len(monomial)} is above the rewrite cap {MAX_REWRITE_DEGREE}"
        )
    return tuple(sorted(fan_mod._ray_indices(fan, monomial, "divisor index")))


def _pack(pairings: Vector) -> int:
    key = 0
    for p in reversed(pairings):
        key = (key << _DIGIT_BITS) + p
    return key


def _unpack(key: int, n: int) -> Vector:
    digits = []
    for _ in range(n):
        digit = ((key + _HALF_DIGIT) & _DIGIT_MASK) - _HALF_DIGIT
        digits.append(digit)
        key = (key - digit) >> _DIGIT_BITS
    return tuple(digits)


def _add_into(acc: _Parts, parts: Mapping, scale: Rational, shift: int = 0) -> None:
    """acc += scale * q^shift * parts, in place; shift is a packed class."""
    for beta, coords in parts.items():
        part = acc.setdefault(beta + shift, {})
        for i, c in coords.items():
            part[i] = part.get(i, 0) + scale * c


def _pruned(acc: _Parts) -> _Parts:
    """acc without zero coefficients and empty parts, as every cache holds it."""
    parts = {beta: {i: c for i, c in coords.items() if c} for beta, coords in acc.items()}
    return {beta: coords for beta, coords in parts.items() if coords}


class _QuantumRing:
    def __init__(self, fan: Fan):
        if fano.classify(fan).tier < fano.Tier.FANO:
            raise NotFano("quantum reduction needs a Fano fan")
        self.fan = fan
        # each primitive set with its class, packed: the rewrite's q-shift
        self.pdata = [(pd, _pack(pd.cls.pairings)) for pd in fan_mod.primitive_data(fan)]
        self.closed: dict[Cone, _Parts] = {}
        self.giambelli_cache: dict[Cone, tuple[QuantumTerm, ...]] = {}
        self.reduce_memo: dict[Monomial, _Parts] = {}
        self.pair_cache: dict[tuple[int, int], _Parts] = {}
        self.effective_seen: set[Vector] = set()
        self.curve_keys: dict[Vector, int] = {}
        self.key_curves: dict[int, CurveClass] = {}

    def check_effective(self, beta: Vector) -> None:
        if beta not in self.effective_seen:
            fan_mod.decompose_effective(self.fan, CurveClass(beta))
            self.effective_seen.add(beta)

    def check_curve(self, beta: CurveClass) -> int:
        """The packed key of a class entering the engine, checked once per
        class: ValueError unless a CurveClass, fan.curve_class's NotEffective,
        and PreconditionFailed for a pairing outside the packing range."""
        if not isinstance(beta, CurveClass):
            raise ValueError(f"quantum class key {beta!r} is not a CurveClass")
        key = self.curve_keys.get(beta.pairings)
        if key is None:
            fan_mod.curve_class(self.fan, beta.pairings)
            if any(not -_PAIRING_CAP < p < _PAIRING_CAP for p in beta.pairings):
                raise PreconditionFailed(
                    f"curve class {beta.pairings} has a pairing of size 2^37 or more,"
                    " outside the range of the packed q-keys"
                )
            key = self.curve_keys[beta.pairings] = _pack(beta.pairings)
        return key

    def to_class(self, parts: _Parts) -> QuantumClass:
        out = {}
        for key, coords in parts.items():
            beta = self.key_curves.get(key)
            if beta is None:
                beta = self.key_curves[key] = CurveClass(_unpack(key, self.fan.n_rays))
            out[beta] = CohomologyClass(coords)
        return QuantumClass(out)

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
            _add_into(total, {_pack(beta): ring.form(tau)}, (-1) ** len(family))
        total = _pruned(total)
        self.closed[sigma] = total
        return total

    def reduce(self, mono: Monomial, rng: Optional[random.Random]) -> _Parts:
        if rng is None:
            cached = self.reduce_memo.get(mono)
            if cached is not None:
                return cached
        support = set(mono)
        contained = [(pd, key) for pd, key in self.pdata if support.issuperset(pd.set)]
        if contained:
            pd, shift = contained[0] if rng is None else rng.choice(contained)
            rest = list(mono)
            for i in pd.set:
                rest.remove(i)
            for j, a in zip(pd.rhs_cone, pd.rhs_coeffs):
                rest.extend([j] * a)
            # a primitive class is effective by itself (Batyrev: the rhs cone
            # misses the set), so this q-shift needs no effectivity check
            sub = self.reduce(tuple(sorted(rest)), rng)
            result = {beta + shift: coords for beta, coords in sub.items()}
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
                shift = self.check_curve(s.curve) + self.check_curve(t.curve)
                _add_into(acc, red, s.coefficient * t.coefficient, shift)
        out = _pruned(acc)
        self.pair_cache[key] = out
        return out


_qring = fan_mod.per_fan(_QuantumRing)


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
    ring = _qring(fan)
    return ring.to_class(ring.closed_form(fan_mod._cone_key(fan, sigma)))


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
    ring = _qring(fan)
    return ring.to_class(ring.reduce(mono, rng))


def evaluate_terms(fan: Fan, terms: Sequence[QuantumTerm]) -> QuantumClass:
    """Evaluate a q-polynomial in the divisor symbols to a quantum class.

    Term monomials are checked as in reduce_monomial, term curves by
    fan.curve_class (ValueError unless a CurveClass, NotEffective for a wrong
    length or a nonzero ray sum, PreconditionFailed for a pairing of size
    2^37 or more, outside the packed q-keys) and term coefficients as in
    normal_form (ValueError unless int or Fraction).
    """
    ring = _qring(fan)
    acc: _Parts = {}
    for term in terms:
        coeff = cohomology._strict_rational(term.coefficient, "coefficient")
        red = ring.reduce(_check_monomial(fan, term.monomial), None)
        _add_into(acc, red, coeff, ring.check_curve(term.curve))
    return ring.to_class(acc)


Multiplicand = Union[CohomologyClass, QuantumClass]


def quantum_product(fan: Fan, a: Multiplicand, b: Multiplicand) -> QuantumClass:
    """Quantum product, bilinear over q-shifts; needs the full class.

    Basis classes are lifted through their Giambelli polynomials, the lifts
    are multiplied formally, and every monomial is rewritten to normal form.
    Part curve classes are checked as in evaluate_terms (a key that is not a
    CurveClass: ValueError), and every basis index of a part must name a
    basis class (IndexOutOfRange).
    """
    ring, basis = _qring(fan), cohomology._ring(fan)
    qa = classical(fan, a) if isinstance(a, CohomologyClass) else a
    qb = classical(fan, b) if isinstance(b, CohomologyClass) else b
    left = [(ring.check_curve(beta), basis.coords(cls)) for beta, cls in qa.parts.items()]
    right = [(ring.check_curve(beta), basis.coords(cls)) for beta, cls in qb.parts.items()]
    entries = [(shift_b, j, cb) for shift_b, coords_b in right for j, cb in coords_b.items()]
    # the row of a left basis index i as (parts, scale, shift): the right
    # operand folded once per call, sum of c_b q^beta_b pair_product(i, j), or
    # for a single right entry c q^beta b_j, pair_product(i, j) itself
    rows: dict[int, tuple[_Parts, Rational, int]] = {}
    for _, coords_a in left:
        for i in coords_a:
            if i in rows:
                continue
            if len(entries) == 1:
                (shift_b, j, cb), = entries
                rows[i] = (ring.pair_product(i, j), cb, shift_b)
            else:
                row: _Parts = {}
                for shift_b, j, cb in entries:
                    _add_into(row, ring.pair_product(i, j), cb, shift_b)
                rows[i] = (row, 1, 0)
    acc: _Parts = {}
    for shift_a, coords_a in left:
        for i, ca in coords_a.items():
            row, scale, shift = rows[i]
            _add_into(acc, row, ca * scale, shift_a + shift)
    return ring.to_class(acc)


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
