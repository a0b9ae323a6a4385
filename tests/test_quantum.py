import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from toricqh import catalog
from toricqh import cohomology as coho
from toricqh import fan as fan_mod
from toricqh import fano
from toricqh import lattice
from toricqh import quantum
from toricqh.cli import parse_expression
from toricqh.cohomology import CohomologyClass
from toricqh.errors import (
    IndexOutOfRange,
    NotACone,
    NotEffective,
    NotFano,
    NotInClass,
    NotInTier,
    PreconditionFailed,
)
from toricqh.fan import CurveClass
from toricqh.quantum import QuantumClass, QuantumTerm


def qc(*parts):
    return QuantumClass({CurveClass(beta): cls for beta, cls in parts})


def basis(fan):
    return [coho.basis_class(fan, i) for i in range(len(coho.basis_tau(fan)))]


def test_presentation_p2(p2):
    pres = quantum.presentation(p2)
    assert pres.n_generators == 3
    assert pres.linear == ((1, 0, -1), (0, 1, -1))
    (rel,) = pres.deformed
    assert rel.set == (0, 1, 2)
    assert rel.rhs_cone == ()
    assert rel.cls.pairings == (1, 1, 1)


def test_presentation_twisted_bundle(bundle3):
    pres = quantum.presentation(bundle3)
    assert pres.n_generators == 5
    assert pres.linear == (
        (1, 0, -1, 0, 0),
        (0, 1, -1, 0, 0),
        (0, 0, 2, 1, -1),
    )
    assert {pd.set: pd.rhs_coeffs for pd in pres.deformed} == {
        (0, 1, 2): (2,),
        (3, 4): (),
    }


def test_presentation_gate(f2):
    with pytest.raises(NotFano):
        quantum.presentation(f2)


def test_reduce_oracles_p2(p2):
    b = basis(p2)
    line = (1, 1, 1)
    assert quantum.reduce_monomial(p2, (0, 1)) == qc(((0, 0, 0), b[2]))
    assert quantum.reduce_monomial(p2, (0, 0, 0)) == qc((line, b[0]))
    assert quantum.reduce_monomial(p2, (0, 0, 0, 0)) == qc((line, b[1]))
    assert quantum.reduce_monomial(p2, ()) == qc(((0, 0, 0), b[0]))


def test_reduce_oracles_bl1p2(bl1p2):
    b = basis(bl1p2)
    fiber = (1, 1, 0, -1)
    e_neg = CohomologyClass({1: Fraction(-1), 2: Fraction(1)})
    assert quantum.reduce_monomial(bl1p2, (0, 0)) == qc((fiber, e_neg))
    assert quantum.reduce_monomial(bl1p2, (0, 3)) == qc(
        ((0, 0, 0, 0), b[3]), (fiber, e_neg.scaled(-1))
    )
    assert quantum.reduce_monomial(bl1p2, (3, 3)) == qc(
        ((0, 0, 0, 0), b[3].scaled(-1)),
        (fiber, e_neg),
        ((0, 0, 1, 1), b[0]),
    )


def test_reduce_validates(p2):
    one = Fraction(1)
    for index in (-1, 3, 9):
        with pytest.raises(IndexOutOfRange):
            quantum.reduce_monomial(p2, (0, index))
        with pytest.raises(IndexOutOfRange):
            quantum.evaluate_terms(p2, [QuantumTerm(quantum.zero_curve(p2), (0, index), one)])


@pytest.mark.parametrize("coefficient", [True, "2", None, 1.0])
def test_evaluate_terms_refuses_non_rational_coefficients(p2, coefficient):
    # True used to be read as 1; "2" and None raised a raw TypeError
    term = QuantumTerm(quantum.zero_curve(p2), (0, 1), coefficient)
    with pytest.raises(ValueError, match="coefficient"):
        quantum.evaluate_terms(p2, [term])
    with pytest.raises(ValueError, match="coefficient"):
        coho.normal_form(p2, {(0, 1): coefficient})


@pytest.mark.parametrize("entry", [0.7, 1.0, True, False, "1", None])
def test_rewrite_refuses_non_int_index(p2, entry):
    # refused, not coerced: (0.7, True) used to rewrite as (0, 1)
    one = Fraction(1)
    with pytest.raises(ValueError, match="divisor index"):
        quantum.reduce_monomial(p2, (0, entry))
    with pytest.raises(ValueError, match="divisor index"):
        quantum.evaluate_terms(p2, [QuantumTerm(quantum.zero_curve(p2), (0, entry), one)])
    # a cone given as (0.0, True) would have been cached under the key (0, 1)
    with pytest.raises(ValueError, match="cone index"):
        quantum.giambelli(p2, (0, entry))
    with pytest.raises(ValueError, match="cone index"):
        quantum.divisor_product_closed_form(p2, (0, entry))
    # the same goes for normal forms and strata: (0.7, True) used to give b2
    with pytest.raises(ValueError, match="divisor index"):
        coho.normal_form(p2, {(0, entry): 1})
    with pytest.raises(ValueError, match="cone index"):
        coho.stratum_class(p2, (0, entry))
    # checked before sorting, which (0, None) and (0, "1") would break
    with pytest.raises(ValueError, match="cone index"):
        fan_mod.star(p2, (0, entry))
    with pytest.raises(ValueError, match="cone index"):
        fano.special_exceptional_sets(p2, (0, entry))


def test_rewrite_degree_cap(p2, deadline):
    # the recursive rewrite would need about 3000 frames for this monomial
    with deadline(1.0):
        with pytest.raises(PreconditionFailed, match="rewrite cap"):
            quantum.reduce_monomial(p2, (0,) * 3000)
        with pytest.raises(PreconditionFailed, match="rewrite cap"):
            quantum.evaluate_terms(p2, [QuantumTerm(quantum.zero_curve(p2), (0,) * 3000, Fraction(1))])
    top = (0,) * quantum.MAX_REWRITE_DEGREE
    assert quantum.reduce_monomial(p2, top) == quantum.reduce_monomial(p2, top, random.Random(1))


def test_giambelli_oracles(p2, bl1p2, bl3p2):
    for cone in p2.max_cones:
        assert quantum.giambelli(p2, cone) == (
            QuantumTerm(quantum.zero_curve(p2), cone, Fraction(1)),
        )
    terms = {
        (t.curve.pairings, t.monomial, t.coefficient)
        for t in quantum.giambelli(bl1p2, (0, 3))
    }
    assert terms == {
        ((0, 0, 0, 0), (0, 3), Fraction(1)),
        ((1, 1, 0, -1), (3,), Fraction(1)),
    }
    terms = {
        (t.curve.pairings, t.monomial, t.coefficient)
        for t in quantum.giambelli(bl3p2, (0, 3))
    }
    assert terms == {
        ((0, 0, 0, 0, 0, 0), (0, 3), Fraction(1)),
        ((1, 1, 0, -1, 0, 0), (3,), Fraction(1)),
        ((-1, 0, 0, 1, 0, 1), (0,), Fraction(1)),
    }
    with pytest.raises(NotACone):
        quantum.giambelli(bl1p2, (0, 1))


def test_giambelli_duality(corpus):
    for fan in corpus.values():
        for sigma in fan_mod.faces(fan):
            lifted = quantum.evaluate_terms(fan, quantum.giambelli(fan, sigma))
            expected = quantum.classical(fan, coho.stratum_class(fan, sigma))
            assert lifted == expected


def test_closed_form_matches_reduce(corpus):
    for fan in corpus.values():
        for sigma in fan_mod.faces(fan):
            if not sigma:
                continue
            closed = quantum.divisor_product_closed_form(fan, sigma)
            assert closed == quantum.reduce_monomial(fan, sigma)


def test_quantum_product_oracles(p2, p1xp1, bl1p2):
    b = basis(p2)
    assert quantum.quantum_product(p2, b[2], b[2]) == qc(((1, 1, 1), b[1]))
    assert quantum.quantum_product(p2, b[1], b[2]) == qc(((1, 1, 1), b[0]))
    pt = coho.point_class(p1xp1)
    assert quantum.quantum_product(p1xp1, pt, pt) == qc(
        ((1, 1, 1, 1), coho.unit_class(p1xp1))
    )
    e = coho.stratum_class(bl1p2, (3,))
    ee = quantum.quantum_product(bl1p2, e, e)
    fiber = fan_mod.curve_class(bl1p2, (1, 1, 0, -1))
    assert coho.integrate(
        bl1p2, coho.cup(bl1p2, ee.coefficient(fiber), e)
    ) == Fraction(-1)


def test_unit_is_neutral(corpus):
    for fan in corpus.values():
        one = coho.unit_class(fan)
        for cls in basis(fan):
            assert quantum.quantum_product(fan, one, cls) == quantum.classical(fan, cls)


def test_commutativity_and_associativity(corpus):
    for fan in corpus.values():
        classes = basis(fan)
        prods = {}
        for i, a in enumerate(classes):
            for j, b in enumerate(classes):
                prods[i, j] = quantum.quantum_product(fan, a, b)
        for i in range(len(classes)):
            for j in range(len(classes)):
                assert prods[i, j] == prods[j, i]
        for i, j, k in product(range(len(classes)), repeat=3):
            left = quantum.quantum_product(fan, prods[i, j], classes[k])
            right = quantum.quantum_product(fan, classes[i], prods[j, k])
            assert left == right


def test_grading(corpus):
    for fan in corpus.values():
        taus = coho.basis_tau(fan)
        classes = basis(fan)
        for i, a in enumerate(classes):
            for j, b in enumerate(classes):
                out = quantum.quantum_product(fan, a, b)
                assert quantum.quantum_degrees(fan, out) == {len(taus[i]) + len(taus[j])}


def test_classical_limit(corpus):
    for fan in corpus.values():
        zero = quantum.zero_curve(fan)
        for a in basis(fan):
            for b in basis(fan):
                out = quantum.quantum_product(fan, a, b)
                assert out.coefficient(zero) == coho.cup(fan, a, b)


def test_emitted_exponents_effective(corpus):
    for fan in corpus.values():
        for a in basis(fan):
            for b in basis(fan):
                out = quantum.quantum_product(fan, a, b)
                for beta in out.curves():
                    fan_mod.decompose_effective(fan, beta)
                    assert beta.degree >= 0


def test_primitive_classes_decompose_as_themselves(corpus, p3, bundle3, f2):
    # the rewrite's q-shifts are primitive classes and go unchecked: the rhs
    # cone of a primitive relation misses its set (Batyrev), so the greedy
    # branch of decompose_effective subtracts the class once
    p1, p2, bl3 = catalog.projective_space(1), catalog.projective_plane(), catalog.blowup_p2_three()
    fans = [*corpus.values(), p3, bundle3, f2, catalog.hirzebruch(3), catalog.product(bl3, p1),
            catalog.product(bl3, bl3), catalog.product(p2, p2), *catalog.census(2, 8)]
    pdata = [(fan, pd) for fan in fans for pd in fan_mod.primitive_data(fan)]
    assert len(pdata) == 75
    for fan, pd in pdata:
        assert fan_mod.decompose_effective(fan, pd.cls) == ((pd, 1),)


def test_gw_oracles(p2, p1xp1, bl1p2):
    b = basis(p2)
    line = fan_mod.curve_class(p2, (1, 1, 1))
    zero = quantum.zero_curve(p2)
    assert quantum.gw3(p2, b[2], b[2], b[1], line) == 1
    assert quantum.gw3(p2, b[2], b[1], b[1], line) == 0
    assert quantum.gw3(p2, b[1], b[1], b[1], zero) == 0
    assert quantum.gw3(p2, b[1], b[1], b[2], zero) == 0
    pt = coho.point_class(p1xp1)
    assert quantum.gw3(p1xp1, pt, pt, pt, fan_mod.curve_class(p1xp1, (1, 1, 1, 1))) == 1
    assert quantum.gw3(p1xp1, pt, pt, pt, fan_mod.curve_class(p1xp1, (2, 2, 0, 0))) == 0
    e = coho.stratum_class(bl1p2, (3,))
    fiber = fan_mod.curve_class(bl1p2, (1, 1, 0, -1))
    assert quantum.gw3(bl1p2, e, e, e, fiber) == -1


def test_gw_rejects_bad_classes(p2, p1xp1):
    pt = coho.point_class(p1xp1)
    with pytest.raises(NotEffective):
        quantum.gw3(p1xp1, pt, pt, pt, CurveClass((-1, -1, 1, 1)))
    h = coho.basis_class(p2, 1)
    with pytest.raises(NotEffective):
        quantum.gw3(p2, h, h, h, CurveClass((1, 0, 0)))


def test_confluence_audit(corpus):
    for fan in corpus.values():
        stress = [
            tuple(range(fan.n_rays)),
            tuple(range(fan.n_rays)) + (0, 0),
            (0, 0, 1, 1),
            (fan.n_rays - 1,) * 3,
        ]
        for mono in stress:
            expected = quantum.reduce_monomial(fan, mono)
            for seed in range(5):
                rng = random.Random(seed)
                assert quantum.reduce_monomial(fan, mono, rng) == expected


def test_confluence_audit_threefolds(threefolds):
    # a random strategy picks among several containing cones here, so many
    # more (cone, divisor) linear steps run than on the surfaces
    for name, fan in threefolds.items():
        n, m = fan.dim, fan.n_rays
        draw = random.Random(name)
        stress = [
            tuple(range(m)),
            (0, 0, 1, 1),
            (0,) * (3 * n),
            (m - 1,) * (3 * n),
        ] + [tuple(sorted(draw.randrange(m) for _ in range(d))) for d in range(n + 1, 3 * n + 1)]
        for mono in stress:
            expected = quantum.reduce_monomial(fan, mono)
            for seed in range(5):
                rng = random.Random(seed)
                assert quantum.reduce_monomial(fan, mono, rng) == expected, (name, mono, seed)


def test_lattice_functional_kronecker(corpus, threefolds):
    # the rewrite's dual functional of ray i in mu is row mu.index(i) of the cone inverse
    for fan in list(corpus.values()) + list(threefolds.values()):
        for mu in fan.max_cones:
            # the direct elimination on the cone's generators is the oracle
            inverse = lattice.integer_inverse(lattice.mat_from_columns(fan_mod.cone_generators(fan, mu)))
            for k, i in enumerate(mu):
                phi = fan_mod.cone_inverse(fan, mu)[mu.index(i)]
                assert phi == tuple(inverse[k])
                for j in mu:
                    assert lattice.dot(phi, fan.rays[j]) == (1 if i == j else 0)


def test_evaluate_terms(p2):
    zero = quantum.zero_curve(p2)
    line = fan_mod.curve_class(p2, (1, 1, 1))
    terms = [
        QuantumTerm(zero, (0,), Fraction(2)),
        QuantumTerm(line, (), Fraction(-1)),
    ]
    out = quantum.evaluate_terms(p2, terms)
    expected = qc(((0, 0, 0), coho.basis_class(p2, 1).scaled(2)),
                  ((1, 1, 1), coho.unit_class(p2).scaled(-1)))
    assert out == expected


def test_tier_gates(f2, bundle3):
    with pytest.raises(NotFano):
        quantum.reduce_monomial(f2, (0,))
    with pytest.raises(NotInTier):
        quantum.reduce_monomial(bundle3, (0, 0))
    with pytest.raises(NotInClass):
        quantum.giambelli(bundle3, bundle3.max_cones[0])
    a = coho.basis_class(bundle3, 1)
    with pytest.raises(NotInClass):
        quantum.quantum_product(bundle3, a, a)


def test_quantum_class_algebra(p2):
    unit = coho.unit_class(p2)
    line = fan_mod.curve_class(p2, (1, 1, 1))
    x = quantum.classical(p2, unit)
    shifted = x.shifted(line)
    assert shifted.coefficient(line) == unit
    assert shifted.coefficient(quantum.zero_curve(p2)).is_zero()
    assert (shifted - shifted).is_zero()
    assert shifted.scaled(3).coefficient(line) == unit.scaled(3)
    total = x + shifted
    assert total.curves() == [quantum.zero_curve(p2), line]


def _integral_contract_fans():
    from test_cohomology import PRODUCT_FACTORS

    fans = dict(catalog.corpus())
    fans["p3"] = catalog.projective_space(3)
    fans["bundle3"] = catalog.twisted_bundle_threefold()
    for name, factors in PRODUCT_FACTORS.items():
        fans[name] = catalog.product(*(make() for make in factors))
    return fans


@pytest.mark.parametrize("name", sorted(_integral_contract_fans()))
def test_engine_coefficients_are_int(name):
    # the strata are a Z-basis: face tables, classical forms of every
    # monomial up to degree n and pair products stay in int
    fan = _integral_contract_fans()[name]
    ring = coho._ring(fan)
    for d in range(fan.dim + 1):
        for form in ring.table(d)[1].values():
            assert all(type(c) is int for c in form.values())
        for mono in combinations_with_replacement(range(fan.n_rays), d):
            assert all(type(c) is int for c in ring.form(mono).values())
    if fano.classify(fan).tier < fano.Tier.FULL_CLASS:
        return
    basis = [coho.basis_class(fan, i) for i in range(len(coho.basis_tau(fan)))]
    for i, a in enumerate(basis):
        for b in basis[i:]:
            for cls in quantum.quantum_product(fan, a, b).parts.values():
                assert all(type(c) is int for c in cls.coords.values())


def test_rational_scalars_stay_fractions(p2):
    half = parse_expression(p2, "1/2*D1", "quantum")
    product = quantum.quantum_product(p2, half, parse_expression(p2, "D2", "quantum"))
    coeffs = [c for cls in product.parts.values() for c in cls.coords.values()]
    assert coeffs and all(type(c) is Fraction for c in coeffs)
    assert coeffs == [Fraction(1, 2)]
    whole = quantum.quantum_product(p2, *(parse_expression(p2, "2/2*D1", "quantum"),) * 2)
    assert all(type(c) is int for cls in whole.parts.values() for c in cls.coords.values())


@pytest.mark.parametrize("bad", [(1, 1), (5, 0, 0), (1, 1, 1, 0)], ids=["short", "off-lattice", "long"])
def test_curve_classes_are_checked_at_the_boundary(p2, bad):
    # a class of the wrong length, or off the curve lattice ((5, 0, 0) has
    # ray sum (5, 0)), is refused, never kept as a q-exponent
    unit = coho.unit_class(p2)
    with pytest.raises(NotEffective):
        quantum.evaluate_terms(p2, [QuantumTerm(CurveClass(bad), (0,), 1)])
    part = qc((bad, unit))
    with pytest.raises(NotEffective):
        quantum.quantum_product(p2, part, unit)
    with pytest.raises(NotEffective):
        quantum.quantum_product(p2, unit, part)
    # a key that is not a CurveClass is refused by name, not read as one
    for key in (bad, (0, 0, 0)):
        not_a_class = re.escape(f"{key!r} is not a CurveClass")
        with pytest.raises(ValueError, match=not_a_class):
            quantum.quantum_product(p2, QuantumClass({key: unit}), unit)
        with pytest.raises(ValueError, match=not_a_class):
            quantum.quantum_product(p2, unit, QuantumClass({key: unit}))
        with pytest.raises(ValueError, match=not_a_class):
            quantum.evaluate_terms(p2, [QuantumTerm(key, (0,), 1)])
    line = fan_mod.curve_class(p2, (1, 1, 1))
    assert quantum.evaluate_terms(p2, [QuantumTerm(line, (0,), 1)]).curves() == [line]
    assert quantum.quantum_product(p2, qc(((1, 1, 1), unit)), unit).curves() == [line]


def test_curve_classes_outside_the_packing_range_are_refused(p2):
    # a q-key is exact while each pairing of a class entering the engine
    # stays below 2^37 in absolute value; a larger one is refused
    unit, h, h2 = coho.unit_class(p2), *basis(p2)[1:]
    huge = CurveClass((2**45,) * 3)
    with pytest.raises(PreconditionFailed, match="2\\^37"):
        quantum.quantum_product(p2, QuantumClass({huge: unit}), unit)
    with pytest.raises(PreconditionFailed, match="2\\^37"):
        quantum.evaluate_terms(p2, [QuantumTerm(huge, (0,), 1)])
    edge = CurveClass((2**37 - 1,) * 3)
    assert quantum.quantum_product(p2, QuantumClass({edge: unit}), unit) == QuantumClass({edge: unit})
    # two classes at the edge and one engine class: H * H^2 = q on P^2
    line = CurveClass((1, 1, 1))
    both = quantum.quantum_product(p2, QuantumClass({edge: h}), QuantumClass({edge: h2}))
    assert both == QuantumClass({edge + edge + line: unit})
    negative = CurveClass((-(2**37 - 1),) * 3)
    assert quantum.quantum_product(p2, QuantumClass({negative: h}), h2) == QuantumClass(
        {negative + line: unit}
    )


def test_packed_keys_round_trip_at_the_digit_bounds():
    half = 2**39
    for pairings in [(0,), (half - 1, -half, 0, 1, -1), (-half, -half, half - 1), (7, 0, 0, -3)]:
        assert quantum._unpack(quantum._pack(pairings), len(pairings)) == pairings


def _reference_product(fan, a, b):
    """a * b term by term from public calls: the sum of c_a c_b
    q^(beta_a + beta_b) quantum_product(b_i, b_j), the shifts added by
    CurveClass.__add__."""
    classes, acc = basis(fan), {}
    for beta_a, cls_a in a.parts.items():
        for beta_b, cls_b in b.parts.items():
            for i, ca in cls_a.coords.items():
                for j, cb in cls_b.coords.items():
                    pair = quantum.quantum_product(fan, classes[i], classes[j])
                    for beta, cls in pair.parts.items():
                        part = acc.setdefault(beta + beta_a + beta_b, {})
                        for k, c in cls.coords.items():
                            part[k] = part.get(k, 0) + ca * cb * c
    return QuantumClass({beta: CohomologyClass(coords) for beta, coords in acc.items()})


def _random_quantum_class(fan, rng):
    """One to three parts on sums of primitive classes, each with one to
    four basis entries whose coefficients are nonzero ints or Fractions."""
    classes = [pd.cls for pd in fan_mod.primitive_data(fan)]
    b = len(coho.basis_tau(fan))
    parts = {}
    for _ in range(rng.randint(1, 3)):
        beta = quantum.zero_curve(fan)
        for _ in range(rng.randint(0, 2)):
            beta = beta + rng.choice(classes)
        coords = {}
        for _ in range(rng.randint(1, 4)):
            c = rng.choice([1, -1, 2, 3, -5, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 4)])
            coords[rng.randrange(b)] = c
        parts[beta] = CohomologyClass(coords)
    return QuantumClass(parts)


def _typed(qclass):
    return {(beta, i): type(c) for beta, cls in qclass.parts.items() for i, c in cls.coords.items()}


def test_folded_product_matches_the_term_by_term_reference(corpus, threefolds):
    fans = {**corpus, **threefolds}
    for name, fan in sorted(fans.items()):
        if fano.classify(fan).tier < fano.Tier.FULL_CLASS:
            continue
        rng = random.Random(name)
        for _ in range(8):
            a, b = _random_quantum_class(fan, rng), _random_quantum_class(fan, rng)
            got, want = quantum.quantum_product(fan, a, b), _reference_product(fan, a, b)
            assert got == want, (name, a, b)
            assert _typed(got) == _typed(want), (name, a, b)
            assert quantum.quantum_product(fan, b, a) == got, (name, a, b)


@pytest.mark.parametrize("index", [-1, 3, 99])
def test_basis_indices_are_checked_where_a_class_enters(p2, index):
    # P^2 has the basis b0, b1, b2: -1 must not wrap around to b2
    bad, unit = CohomologyClass({index: 1}), coho.unit_class(p2)
    line = fan_mod.curve_class(p2, (1, 1, 1))
    calls = [  # the traceback's lambda line names the call that did not raise
        lambda: coho.basis_class(p2, index),
        lambda: coho.cup(p2, bad, unit),
        lambda: coho.cup(p2, unit, bad),
        lambda: coho.integrate(p2, bad),
        lambda: coho.class_degrees(p2, bad),
        lambda: quantum.quantum_product(p2, bad, unit),
        lambda: quantum.quantum_product(p2, unit, qc(((1, 1, 1), bad))),
        lambda: quantum.quantum_degrees(p2, qc(((1, 1, 1), bad))),
        lambda: quantum.gw3(p2, unit, unit, bad, line),
    ]
    for call in calls:
        with pytest.raises(IndexOutOfRange, match=f"basis index {index} out of range"):
            call()
