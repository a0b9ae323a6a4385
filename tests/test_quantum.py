import random
from fractions import Fraction
from itertools import product

import pytest

from toricqh import cohomology as coho
from toricqh import fan as fan_mod
from toricqh import quantum
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
    with pytest.raises(IndexOutOfRange):
        quantum.reduce_monomial(p2, (0, 9))


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
