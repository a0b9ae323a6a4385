"""Quantum cohomology: presentation, structure constants, and invariants.

The quantum ring is presented by the divisor symbols modulo the linear
relations and one deformed monomial relation per primitive set.  Monomials
are rewritten to normal form: a monomial whose support contains a primitive
set trades it for the relation's right side at the cost of a q-shift, a
repeated divisor is eliminated through the dual-basis linear relation of a
containing cone, and a square-free monomial supported on a cone is
evaluated in closed form through the exceptional-set expansion.  Inside the
rewrite a monomial is one int, packed by the cohomology ring
(_CohomologyRing.pack): the exponent of D_i in the field of 8 bits at bit
8 i.  The entry points pack once; a primitive-set step adds the set's
delta (the packed rhs less the packed set), and the linear step, which the
classical forms share (_CohomologyRing.linear_step), adds one packed D_j - D_i
per entry of a linear row.  The tests are mask arithmetic: adding 127 to
every field sets a field's top bit where its exponent is >= 1 (the support,
which contains a primitive set where it holds the top bits of the set's
fields), and adding 126 where it is >= 2 (a repeated divisor).  No field
carries: the rewrite never raises the degree, so every exponent is at most
MAX_REWRITE_DEGREE = 128, and 128 + 127 < 2^8.  One call expands each
distinct monomial once under every strategy: the deterministic one shares
the ring's rewrite memo, keyed by the packed monomial, across calls, a
random one gets a fresh memo per call and draws only where a step has more
than one option, and a cone monomial's closed form goes into the shared memo
whatever the strategy (it leaves no free choice).  The linear rows of the
cohomology ring (_CohomologyRing.linear_row) and its lookup from a support
mask to the maximal cones over the support are filled on first use.  The
ring is built only on FullClass fans, where the paper's formulas hold: below
Fano it raises NotFano, below FullClass NotInClass, a NotInTier (there a
ray may head two primitive relations and the rewrite is not confluent).
Every field of the ring is a memo of a function of the fan and its key, so
no result depends on what ran before it.  One kernel, _QuantumRing.mul, multiplies engine
values: it pushes the q-polynomial of each basis index i of its left operand
through row i of its right operand, the sum of c_j q^beta_j (b_i * b_j) over
its entries; an index with a single q-part adds its pair products straight
into the sum, with no row.  quantum_product is mul on its two packed
operands.  b_i * b_j comes from the closed forms alone: the closed form of
the cone tau_k is x_k = b_k plus q-terms of lower degree, the rewrite of
tau_i + tau_j is x_i * x_j, and b_i * b_j is x_i * x_j less its lower terms,
(x_i - b_i) * x_j + b_i * (x_j - b_j), two products through mul (a
unitriangular inversion).  The Giambelli lift is the paper's inverse
formula; it is built by `giambelli` alone and is on no product path.
Everything stays exact and integral.  The engine's one form is a flat dict
key -> int or Fraction.  A public function returns it wrapped, unread, in a
QuantumClass, whose parts are decoded where the caller reads them; an
unread class re-enters quantum_product and quantum_degrees as it is, so a
power chain neither checks nor decodes its own steps.  A key carries exactly
one basis index and one curve class: (packed class << bits) + index, with
bits = _key_bits(basis size), so the q^0 keys are the basis indices
themselves, [0, 2^bits), and a form of the cohomology ring is already an
engine value.  A curve class with pairings p is packed into one int, sum
p_i * 2^(40 i) with balanced digits; a q-shift is packed << bits, whose
index is 0, so shifting a key is one integer addition that keeps its index.
A class is packed once where it enters (_QuantumRing.check_curve, which
refuses a pairing of size 2^37 or more, or _QuantumRing.pack, which checks
each class of an unread value once per ring).  Outside mul and pack, one
reader splits keys: _QuantumRing.split groups a value by packed class for
decode, quantum_degrees and gw3, and _QuantumRing.curve decodes a class,
kept in key_curves if its pairings fit a key.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional, Sequence, Union

from . import cohomology, fan as fan_mod, fano
from .cohomology import MAX_REWRITE_DEGREE, CohomologyClass, Monomial, Rational
from .errors import NotFano, NotInClass, PreconditionFailed, RingInconsistent
from .fan import Cone, CurveClass, Fan, PrimitiveData, Vector

if TYPE_CHECKING:  # rng is only annotated: random stays out of the import
    import random


class QuantumClass:
    """An element of the quantum ring: map curve class -> cohomology class.

    An immutable value, engine-backed until read.  A class the engine
    returns holds the engine's flat form and its ring, and nothing else;
    `parts` decodes it on first read, keeps the decoded parts and drops the
    flat form, so a class the caller has seen (and could have mutated) is
    never taken on trust again.  A class built here holds its parts alone:
    each key must be a CurveClass and each value a CohomologyClass
    (ValueError naming it), and zero values are dropped.
    """

    __slots__ = ("_parts", "_flat", "_ring")

    def __init__(self, parts: Optional[Mapping[CurveClass, CohomologyClass]] = None):
        clean: dict[CurveClass, CohomologyClass] = {}
        if parts:
            for beta, cls in parts.items():
                fan_mod._strict_instance(beta, CurveClass, "quantum class key")
                fan_mod._strict_instance(cls, CohomologyClass, "quantum class part")
                if not cls.is_zero():
                    clean[beta] = cls
        self._parts, self._flat, self._ring = clean, None, None

    @property
    def parts(self) -> dict[CurveClass, CohomologyClass]:
        if self._flat is not None:
            self._parts = self._ring.decode(self._flat)
            self._flat = self._ring = None
        return self._parts

    def is_zero(self) -> bool:
        return not self.parts

    def coefficient(self, beta: CurveClass) -> CohomologyClass:
        fan_mod._strict_instance(beta, CurveClass, "beta")
        return self.parts.get(beta, CohomologyClass())

    def curves(self) -> list[CurveClass]:
        return sorted(self.parts, key=lambda b: (b.degree, b.pairings))

    def __eq__(self, other) -> bool:
        return isinstance(other, QuantumClass) and self.parts == other.parts

    def __hash__(self):
        return hash(frozenset((b, c) for b, c in self.parts.items()))

    def __add__(self, other: "QuantumClass") -> "QuantumClass":
        out = dict(self.parts)
        for beta, cls in fan_mod._strict_instance(other, QuantumClass, "operand").parts.items():
            cur = out.get(beta)
            out[beta] = cls if cur is None else cur + cls
        return QuantumClass(out)

    def __sub__(self, other: "QuantumClass") -> "QuantumClass":
        return self + fan_mod._strict_instance(other, QuantumClass, "operand").scaled(-1)

    def scaled(self, c) -> "QuantumClass":
        c = cohomology._strict_rational(c, "scale factor")
        return QuantumClass({b: cls.scaled(c) for b, cls in self.parts.items()})

    def shifted(self, beta: CurveClass) -> "QuantumClass":
        fan_mod._strict_instance(beta, CurveClass, "shift")
        return QuantumClass({b + beta: cls for b, cls in self.parts.items()})

    def __reduce__(self):
        # a copy or a pickle carries the parts, never the engine's ring
        return QuantumClass, (self.parts,)

    def __repr__(self):
        if not self.parts:
            return "QuantumClass(0)"
        bits = [f"q^{b.pairings}*({cls!r})" for b, cls in sorted(
            self.parts.items(), key=lambda kv: (kv[0].degree, kv[0].pairings))]
        return "QuantumClass(" + " + ".join(bits) + ")"


class QuantumTerm(NamedTuple):
    """One term of a q-polynomial in the divisor symbols."""

    curve: CurveClass
    monomial: Monomial
    coefficient: Rational


class Presentation(NamedTuple):
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
    return CurveClass((0,) * fan_mod._strict_instance(fan, Fan, "fan").n_rays)


def classical(fan: Fan, cls: CohomologyClass) -> QuantumClass:
    """Embed a cohomology class as the q^0 part of a quantum class."""
    return QuantumClass({zero_curve(fan): cls})


_Parts = dict[int, Rational]  # (packed curve class << bits) + basis index -> coeff

# A key is (c << bits) + i for one basis index i in [0, 2^bits) and one packed
# class c; a q-shift is (c << bits) with index 0, so adding one to a key moves
# its class and keeps its index, and key & mask, key >> bits split it again.
# The class c is _pack(pairings), one int with balanced base-2^40 digits.
# Packing is additive, and a class decodes exactly while every digit of a
# sum lies in [-2^39, 2^39).  A key sums at most two boundary classes (a part
# of each operand of quantum_product, through mul: the right's in its row,
# the left's where the row is pushed; check_curve refuses |p_i| >= 2^37, so
# two stay below 2^38) and one engine class.  An engine class sums primitive
# classes (the rewrite's q-shifts) and the exceptional classes of closed-form
# families.  A pair product's class is one too: a class of a rewrite, or the
# closed-form classes s + t (of a part mul pushes and of a part it takes a row
# of) plus a class of a lower pair product.  Each summand has degree >= 1 (a
# primitive class as the fan is Fano, an exceptional class as |S| - 1 >= 1),
# and the class lies in a part of degree at most that of what was rewritten:
# MAX_REWRITE_DEGREE for evaluate_terms, |tau_i| + |tau_j| <= 2n for a pair
# product, which therefore recurses at most 2n levels deep.  So a class sums
# at most max(MAX_REWRITE_DEGREE, 2n) classes, each pairing within [-n, 1]
# with each divisor (the rhs coefficients of a Fano primitive relation sum to
# less than |P| <= n + 1), and an engine digit is at most
# max(MAX_REWRITE_DEGREE, 2n) * n, below 2^38 for any dimension n below 2^18.
_DIGIT_BITS = 40
_HALF_DIGIT = 1 << (_DIGIT_BITS - 1)
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1
_PAIRING_CAP = 1 << 37

def _check_monomial(fan: Fan, monomial: Sequence[int]) -> tuple[int, ...]:
    """The monomial's divisor indices, once it is a tuple or list (ValueError
    naming it: a mapping, a string, bytes or an iterator is not read as one),
    its degree is at most MAX_REWRITE_DEGREE and its indices pass
    fan._ray_indices (nothing is coerced)."""
    if not isinstance(monomial, (tuple, list)):
        raise ValueError(f"monomial {monomial!r} is not a tuple or list of divisor indices")
    if len(monomial) > MAX_REWRITE_DEGREE:
        raise PreconditionFailed(
            f"monomial of degree {len(monomial)} is above the rewrite cap {MAX_REWRITE_DEGREE}"
        )
    return fan_mod._ray_indices(fan, monomial, "divisor index")


def _key_bits(size: int) -> int:
    """The low bits of a flat key that hold a basis index below size."""
    return max(size - 1, 1).bit_length()


def _pack(pairings: Vector) -> int:
    key = 0
    for p in reversed(pairings):
        key = (key << _DIGIT_BITS) + p
    return key


def _unpack(key: int, n: int, bias: int) -> Vector:
    """The n pairings of a packed class; bias is _pack((_HALF_DIGIT,) * n),
    which makes every digit of key + bias nonnegative."""
    key += bias
    return tuple(
        ((key >> shift) & _DIGIT_MASK) - _HALF_DIGIT for shift in range(0, n * _DIGIT_BITS, _DIGIT_BITS)
    )


def _add_into(acc: _Parts, parts: _Parts, scale: Rational, shift: int = 0) -> None:
    """acc += scale * q^shift * parts, in place; shift is a packed class << bits."""
    for k, c in parts.items():
        k += shift
        acc[k] = acc.get(k, 0) + scale * c


def _prune(acc: _Parts) -> _Parts:
    """acc without zero coefficients, as every cache holds it."""
    return {k: c for k, c in acc.items() if c}


class _QuantumRing:
    def __init__(self, fan: Fan):
        tier = fano.classify(fan).tier
        if tier < fano.Tier.FANO:
            raise NotFano("quantum reduction needs a Fano fan")
        if tier < fano.Tier.FULL_CLASS:
            raise NotInClass("the quantum ring needs a FullClass fan")
        self.fan = fan
        self.cring = cring = cohomology._ring(fan)
        # the basis has one class per maximal cone (a shelling cuts one tau
        # from each), so its indices fit the low bits of a key
        self.bits = _key_bits(len(fan.max_cones))
        self.mask = (1 << self.bits) - 1
        self.bias = _pack((_HALF_DIGIT,) * fan.n_rays)
        # the rewrite's step per primitive set: the set's support mask (a
        # packed monomial contains the set where its own support mask holds
        # it), the packed rhs less the packed set, and the q-shift
        self.pdata = [
            (
                (cring.pack(pd.set) + cring.at_least_one) & cring.high,
                sum(a * cring.units[j] for j, a in zip(pd.rhs_cone, pd.rhs_coeffs)) - cring.pack(pd.set),
                _pack(pd.cls.pairings) << self.bits,
            )
            for pd in fan_mod.primitive_data(fan)
        ]
        # packed monomial -> its normal form, closed forms included
        self.reduce_memo: dict[int, _Parts] = {}
        self.pair_cache: dict[tuple[int, int], _Parts] = {}
        # pairings -> packed class, for the classes check_curve passed and
        # those decoded that fit a key; packed class -> class, for the latter
        self.curve_keys: dict[Vector, int] = {}
        self.key_curves: dict[int, CurveClass] = {}

    def check_curve(self, beta: CurveClass) -> int:
        """The packed pairings of a class entering the engine, checked once
        per class (a key adds them shifted by bits): ValueError unless a
        CurveClass, fan.curve_class's NotEffective, and PreconditionFailed
        for a pairing outside the packing range."""
        fan_mod._strict_instance(beta, CurveClass, "quantum class key")
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

    def curve(self, key: int) -> CurveClass:
        """The class of packed pairings (a key >> bits).  It sums checked
        classes: if its pairings fit a key, it is kept in key_curves, decoded
        once per ring, and check_curve and pack pass it unchecked."""
        beta = self.key_curves.get(key)
        if beta is None:
            pairings = _unpack(key, self.fan.n_rays, self.bias)
            beta = CurveClass(pairings)
            if -_PAIRING_CAP < min(pairings, default=0) and max(pairings, default=0) < _PAIRING_CAP:
                self.curve_keys[pairings], self.key_curves[key] = key, beta
        return beta

    def to_class(self, flat: _Parts) -> QuantumClass:
        """The class of an engine value, unread: the flat dict is kept as it
        is, zeros included, until QuantumClass.parts decodes it."""
        out = QuantumClass.__new__(QuantumClass)
        out._parts, out._flat, out._ring = None, flat, self
        return out

    def split(self, flat: _Parts) -> dict[int, dict[int, Rational]]:
        """An engine value by packed class: class -> basis index -> its
        coefficient, zeros dropped.  Outside mul and pack, the one reader of
        the key layout."""
        bits, mask = self.bits, self.mask
        parts: dict[int, dict[int, Rational]] = {}
        for k, c in flat.items():
            if c:
                coords = parts.get(k >> bits)
                if coords is None:
                    parts[k >> bits] = {k & mask: c}
                else:
                    coords[k & mask] = c
        return parts

    def decode(self, flat: _Parts) -> dict[CurveClass, CohomologyClass]:
        """The parts of an engine value, built unchecked: engine
        coefficients are int or Fraction already.  Each class is decoded once."""
        decoded, trusted = self.key_curves, CohomologyClass._trusted
        return {
            decoded.get(key) or self.curve(key): trusted(coords)
            for key, coords in self.split(flat).items()
        }

    def pack(self, qc: Multiplicand) -> _Parts:
        """The engine value of an operand.  A CohomologyClass is a q^0 value:
        its coordinates, checked by the cohomology ring's coords, are its keys
        as they are.  An unread class of this ring enters as it is, with its
        zeros pruned; a class of it not yet in key_curves is decoded, and
        check_curve refuses it if it has left the packing range (a sum of
        checked classes may).  Any other class enters part by part through
        check_curve and coords."""
        if isinstance(qc, CohomologyClass):
            return self.cring.coords(qc)
        if qc._ring is self:
            flat = qc._flat if all(qc._flat.values()) else _prune(qc._flat)
            bits, decoded = self.bits, self.key_curves
            for key in {k >> bits for k in flat}.difference(decoded):
                beta = self.curve(key)
                if key not in decoded:
                    self.check_curve(beta)  # raises PreconditionFailed
            return flat
        flat, bits, basis = {}, self.bits, self.cring
        for beta, cls in qc.parts.items():
            shift = self.check_curve(beta) << bits
            for i, c in basis.coords(cls).items():
                flat[shift + i] = c
        return flat

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

    def closed_form(self, sigma: Cone) -> _Parts:
        # reduce's memo: a cone monomial leaves no free choice, so its entry serves every strategy
        ring = self.cring
        key = ring.pack(sigma)
        cached = self.reduce_memo.get(key)
        if cached is not None:
            return cached
        total: _Parts = {}
        for family in self.families(sigma, "no_overlaps"):
            # a sum of exceptional classes, so effective: no check (reduce says why)
            beta = self.family_class(family)
            # the stratum of the face of sigma off beta's pairing-one rays, as
            # its face form, a q^0 engine value
            tau = tuple(i for i in sigma if beta[i] != 1)
            _add_into(total, ring.form(ring.pack(tau)), (-1) ** len(family), _pack(beta) << self.bits)
        total = self.reduce_memo[key] = _prune(total)
        return total

    def reduce(
        self,
        key: int,
        rng: Optional[random.Random] = None,
        memo: Optional[dict[int, _Parts]] = None,
    ) -> _Parts:
        """The normal form of a packed monomial (_CohomologyRing.pack),
        memoized in memo: by default reduce_memo for the deterministic
        strategy and a fresh dict for a random one (reduce_monomial says
        why).  A random strategy draws where a step has more than one
        option."""
        if memo is None:
            memo = self.reduce_memo if rng is None else {}
        cached = memo.get(key)
        if cached is not None:
            return cached
        ring = self.cring
        support = (key + ring.at_least_one) & ring.high
        if rng is None:
            step = next((p for p in self.pdata if support & p[0] == p[0]), None)
        else:
            contained = [p for p in self.pdata if support & p[0] == p[0]]
            step = contained[0] if len(contained) == 1 else rng.choice(contained) if contained else None
        if step is not None:
            # a primitive class is effective by itself (Batyrev: the rhs cone
            # misses the set), so this q-shift needs no effectivity check.  Nor
            # does a closed form's family class, a sum of exceptional classes:
            # fano.exceptional_sets builds each exceptional set S' from a
            # primitive exceptional set, whose class is a primitive class, by
            # steps S' = S - {h} + P' over relations sum P' = rho_h, and
            # class(S') = class(S) + class(P'), so every exceptional class is a
            # sum of primitive classes.  decompose_effective could fail on it
            # only by its node budget, which would refuse a well-defined product.
            _, delta, shift = step
            result = {k + shift: c for k, c in self.reduce(key + delta, rng, memo).items()}
        elif not (repeated := (key + ring.at_least_two) & ring.high):
            # square-free, and no primitive set in its support: a cone
            result = self.closed_form(ring.support(key)[0])
        else:
            # a repeated D_i on a cone, traded in a maximal cone mu over it:
            # the lowest i and the first mu, unless rng draws i, then mu
            rays = cohomology._rays(repeated)
            i = rays[0] if rng is None or len(rays) == 1 else rng.choice(rays)
            above = ring.support(key)[1]
            mu = above[0] if rng is None or len(above) == 1 else rng.choice(above)
            acc: _Parts = {}
            for sub, c in ring.linear_step(key, i, mu):
                _add_into(acc, self.reduce(sub, rng, memo), c)
            result = _prune(acc)
        memo[key] = result
        return result

    def pair_product(self, i: int, j: int) -> _Parts:
        """b_i * b_j from the closed forms alone; called by mul alone.

        With x_k = closed_form(tau_k) = b_k + sum over s != 0 of q^s c_s,
        reduce(tau_i + tau_j) is x_i * x_j, so
        b_i * b_j = reduce(tau_i + tau_j) - (x_i - b_i) * x_j - b_i * (x_j - b_j).
        Every product taken off has a lower degree, as the fan is Fano, so
        the recursion through mul is at most 2n levels deep.  RingInconsistent
        unless the q^0 part of each closed form, its keys in [0, 2^bits), is
        its basis class."""
        key = (i, j) if i <= j else (j, i)
        cached = self.pair_cache.get(key)
        if cached is not None:
            return cached
        ring, top = self.cring, 1 << self.bits
        taus = ring.basis_tau
        x, y = self.closed_form(taus[i]), self.closed_form(taus[j])
        for k, form in ((i, x), (j, y)):
            q0 = {m: c for m, c in form.items() if 0 <= m < top}
            if q0 != {k: 1}:
                raise RingInconsistent(f"the closed form of basis cone {k} has q^0 part {q0}")
        acc = dict(self.reduce(ring.pack(taus[i]) + ring.pack(taus[j])))
        # the q-terms of x_i negated, and -b_i against those of x_j; their
        # classes are closed-form family classes, effective (see reduce)
        self.mul({m: -c for m, c in x.items() if not 0 <= m < top}, y, acc)
        self.mul({i: -1}, {m: c for m, c in y.items() if not 0 <= m < top}, acc)
        out = self.pair_cache[key] = _prune(acc)
        return out

    def mul(self, a: _Parts, b: _Parts, acc: _Parts) -> _Parts:
        """acc += a * b for engine values, in place; returns acc.  The one
        product kernel: the left operand is grouped by basis index i, and
        each index's q-polynomial is pushed once through row i of the right
        operand; an index with one q-part sends its pair products straight
        into acc."""
        mask = self.mask
        # the left operand by basis index: i -> [(q-shift, coeff)]
        left: dict[int, list[tuple[int, Rational]]] = {}
        for k, c in a.items():
            i = k & mask
            poly = left.get(i)
            if poly is None:
                left[i] = [(k - i, c)]
            else:
                poly.append((k - i, c))
        right = [(k & mask, k - (k & mask), c) for k, c in b.items()]
        for i, poly in left.items():
            if len(poly) == 1:
                [(shift, ca)] = poly
                for j, t, c in right:
                    _add_into(acc, self.pair_product(i, j), ca * c, shift + t)
                continue
            # row i: sum of c_j q^beta_j (b_i * b_j); it keeps its zeros, since a
            # Fraction zero still makes what it meets a Fraction
            row: _Parts = {}
            for j, t, c in right:
                _add_into(row, self.pair_product(i, j), c, t)
            # _add_into(acc, row, ca, shift) per left part, unrolled: the call per
            # (index, part) costs about 6% of chain_s on quantum_powers (BENCH_21.json)
            for k, c in row.items():
                for shift, ca in poly:
                    m = k + shift
                    acc[m] = acc.get(m, 0) + ca * c
        return acc


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
    ring, sigma = _qring(fan), fan_mod._cone_key(fan, sigma)
    families = ring.families(sigma, "no_cycles")
    monomials = [tuple(i for i in sigma if all(i not in exc.set for exc in f)) for f in families]
    return tuple(QuantumTerm(CurveClass(ring.family_class(f)), m, 1) for f, m in zip(families, monomials))


def divisor_product_closed_form(fan: Fan, sigma: Sequence[int]) -> QuantumClass:
    """Quantum product of the distinct divisors spanning the cone sigma.

    Families with distinct exceptional divisors and no overlaps contribute
    (-1)^t q^(sum of classes) times the stratum whose cone keeps the rays of
    sigma the exponent does not meet with pairing one.  Needs the full class.
    """
    ring = _qring(fan)
    return ring.to_class(ring.reduce(ring.cring.pack(fan_mod._cone_key(fan, sigma))))


def reduce_monomial(
    fan: Fan, monomial: Sequence[int], rng: Optional[random.Random] = None
) -> QuantumClass:
    """Normal form of a product of divisor symbols in the quantum ring.

    The optional rng randomizes every free choice in the rewrite (which
    primitive set to trade, then which repeated divisor to eliminate, then
    in which containing cone); the result must not depend on it, which the
    test suite uses as a confluence audit.  rng must be None or an object
    with a callable choice, such as random.Random (ValueError otherwise).

    Every strategy is memoized.  The deterministic one shares the ring's
    memo across calls.  A random one gets a fresh memo for this call, so
    each distinct sub-monomial is expanded once, with its choices drawn at
    its first visit: within the call the strategy is a function of the
    monomial.  The audit loses no power by this.  If some strategies,
    however they choose, disagree on a monomial, take a least monomial
    below it in the rewrite order (well founded, since the rewrite ends) on
    which some disagree.  Every strategy agrees below that one, so its
    result there is fixed by its choice there alone, and two strategies
    that depend only on the monomial and make those two choices disagree
    too.  So some strategies disagree exactly when two such strategies do.

    The monomial is a tuple or list of divisor indices, in any order; any
    other value (a mapping, a string, bytes, an iterator, None) is refused
    with ValueError naming it.  A monomial of degree above
    MAX_REWRITE_DEGREE is refused with PreconditionFailed, an index that is
    not an int with ValueError and one that names no ray with
    IndexOutOfRange.  Below FullClass the rewrite is
    not confluent, and NotInClass is raised.
    """
    if rng is not None and not callable(getattr(rng, "choice", None)):
        raise ValueError(f"rng {rng!r} is neither None nor an object with a choice method")
    mono = _check_monomial(fan, monomial)
    ring = _qring(fan)
    return ring.to_class(ring.reduce(ring.cring.pack(mono), rng))


def evaluate_terms(fan: Fan, terms: Sequence[QuantumTerm]) -> QuantumClass:
    """Evaluate a q-polynomial in the divisor symbols to a quantum class.

    A term that is not a QuantumTerm (a plain tuple included) is refused
    with ValueError.  Term monomials are checked as in reduce_monomial,
    term curves by fan.curve_class (ValueError unless a CurveClass,
    NotEffective for a wrong length or a nonzero ray sum,
    PreconditionFailed for a pairing of size 2^37 or more, outside the
    packed q-keys) and term coefficients as in normal_form (ValueError
    unless int or Fraction).  Needs the full class, as reduce_monomial
    does.
    """
    ring = _qring(fan)
    acc: _Parts = {}
    for term in terms:
        fan_mod._strict_instance(term, QuantumTerm, "term")
        coeff = cohomology._strict_rational(term.coefficient, "coefficient")
        red = ring.reduce(ring.cring.pack(_check_monomial(fan, term.monomial)))
        _add_into(acc, red, coeff, ring.check_curve(term.curve) << ring.bits)
    return ring.to_class(acc)


Multiplicand = Union[CohomologyClass, QuantumClass]


def quantum_product(fan: Fan, a: Multiplicand, b: Multiplicand) -> QuantumClass:
    """Quantum product, bilinear over q-shifts; needs the full class.

    The operands enter through _QuantumRing.pack and multiply through
    _QuantumRing.mul: the left operand is grouped by basis index i, and each
    index's q-polynomial is pushed once through row i of the right operand.
    A CohomologyClass enters as its coordinates, and an unread class this
    fan's ring returned as it is.  Any other part's curve class is checked
    as in evaluate_terms (a key that is not a CurveClass: ValueError), and
    every basis index of a part or a CohomologyClass must name a basis
    class (IndexOutOfRange).  An operand that is neither a
    CohomologyClass nor a QuantumClass is refused with ValueError naming it.
    The product is returned unread.
    """
    ring = _qring(fan)
    for name, x in (("operand a", a), ("operand b", b)):
        if not isinstance(x, CohomologyClass):
            fan_mod._strict_instance(x, QuantumClass, name)
    return ring.to_class(ring.mul(ring.pack(a), ring.pack(b), {}))


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
    An operand that is not a CohomologyClass (a QuantumClass too) or a beta
    that is not a CurveClass is refused with ValueError naming it.
    """
    for name, cls in zip("abc", (a, b, c)):
        fan_mod._strict_instance(cls, CohomologyClass, f"operand {name}")
    fan_mod.decompose_effective(fan, beta)  # runs fan.curve_class first
    # beta's q-part off the unread product; every engine class packs one to one
    packed = _pack(beta.pairings) if all(abs(p) < _HALF_DIGIT for p in beta.pairings) else None
    piece = _qring(fan).split(quantum_product(fan, a, b)._flat).get(packed, {})
    return cohomology.integrate(fan, cohomology.cup(fan, CohomologyClass._trusted(piece), c))


def quantum_degrees(fan: Fan, qc: QuantumClass) -> set[int]:
    """Complex degrees present in a quantum class; q^beta carries beta's
    anticanonical degree and a basis class its codimension.  A qc that is
    not a QuantumClass is refused with ValueError naming it."""
    ring = cohomology._ring(fan)
    fan_mod._strict_instance(qc, QuantumClass, "qc")
    qring = qc._ring
    if qring is not None and qring.fan == fan:
        # an unread engine value of this fan, read by class as it is
        parts = ((qring.curve(key).degree, coords) for key, coords in qring.split(qc._flat).items())
    else:
        parts = ((beta.degree, ring.coords(cls)) for beta, cls in qc.parts.items())
    return {d + len(ring.basis_tau[i]) for d, coords in parts for i in coords}
