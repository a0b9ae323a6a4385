import copy
import pickle
import random
import re
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from toricqh import catalog, clear_caches
from toricqh import cohomology as coho
from toricqh import curves
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
    RingInconsistent,
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


@pytest.mark.parametrize("monomial", [
    {0: 2}, b"\x00\x01", "", iter([0, 0]), None, 0, range(2), frozenset({0}),
], ids=["mapping", "bytes", "empty string", "iterator", "None", "int", "range", "frozenset"])
def test_a_monomial_is_a_tuple_or_list(p2, monomial):
    # a mapping was read as its keys ({0: 2} gave D1, not D1^2), bytes as
    # ints (D1 * D2) and "" as the unit; an iterator and None escaped as a
    # bare TypeError
    with pytest.raises(ValueError, match="monomial"):
        quantum.reduce_monomial(p2, monomial)
    with pytest.raises(ValueError, match="monomial"):
        quantum.evaluate_terms(p2, [QuantumTerm(quantum.zero_curve(p2), monomial, 1)])
    # a tuple or a list of the same indices is read as it is
    assert quantum.reduce_monomial(p2, [0, 0]) == quantum.reduce_monomial(p2, (0, 0))


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


def test_giambelli_duality(corpus, threefolds):
    # the paper's Giambelli formula against the rewrite, which uses no
    # Giambelli lift
    for fan in [*corpus.values(), *threefolds.values()]:
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


def test_pair_tables_agree_when_every_pair_is_first_asked_transposed(corpus, threefolds):
    # pair_cache keys by the sorted pair, so b_j * b_i reads the entry of
    # b_i * b_j and the transposes above compare an entry with itself; two
    # cold builds, one asking each pair first as (i, j) in ascending order and
    # one as (j, i) in descending order, compute the pair products apart
    for name, fan in sorted({**corpus, **threefolds}.items()):
        b = len(coho.basis_tau(fan))
        ascending = [(i, j) for i in range(b) for j in range(i, b)]
        tables = []
        for pairs in (ascending, [(j, i) for i, j in reversed(ascending)]):
            clear_caches()
            classes = basis(fan)
            tables.append({
                (min(i, j), max(i, j)): quantum.quantum_product(fan, classes[i], classes[j])
                for i, j in pairs
            })
        assert tables[0] == tables[1], name


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


def test_family_classes_decompose_into_primitive_classes(corpus, threefolds, fano_threefolds):
    # the closed forms' q-shifts are family classes and go unchecked: each is
    # a sum of exceptional classes, and each exceptional class a sum of
    # primitive classes, so every one decomposes, and the parts sum back to it
    fans = {**corpus, **threefolds, **fano_threefolds}
    fans = {name: fan for name, fan in fans.items() if fano.classify(fan).tier is fano.Tier.FULL_CLASS}
    families = classes = 0
    for name, fan in fans.items():
        ring = quantum._qring(fan)
        found = [
            ring.family_class(family)
            for sigma in fan_mod.faces(fan)
            for family in ring.families(sigma, "no_overlaps")
        ]
        for beta in set(found):
            parts = fan_mod.decompose_effective(fan, CurveClass(beta))
            total = sum((pd.cls.scaled(c) for pd, c in parts), quantum.zero_curve(fan))
            assert total.pairings == beta, (name, beta)
        families += len(found)
        classes += len(set(found))
    assert (len(fans), families, classes) == (18, 598, 59)


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


def test_the_point_fan_multiplies_from_cold_caches():
    # the 0-dimensional fan has one class and one curve class, with no
    # pairings; its first decoded read used to raise ValueError from min() of
    # the empty pairings, after which a second read passed
    point = fan_mod.Fan(0, (), ((),))
    for _ in range(2):
        clear_caches()
        unit = quantum.classical(point, coho.unit_class(point))
        product = quantum.quantum_product(point, unit, unit)
        assert product.parts == {quantum.zero_curve(point): coho.unit_class(point)}
        assert product == unit


def test_gw_refuses_operands_of_the_wrong_type_by_name(p2):
    # a QuantumClass operand is not multiplied or paired as a class, and a
    # tuple beta is not read through .pairings: each is refused by name
    h, pt = coho.basis_class(p2, 1), coho.point_class(p2)
    line = fan_mod.curve_class(p2, (1, 1, 1))
    q_h = quantum.classical(p2, h).shifted(line)
    calls = {  # the traceback's lambda line names the call that did not raise
        "operand a": lambda: quantum.gw3(p2, q_h, pt, h, line),
        "operand b": lambda: quantum.gw3(p2, pt, q_h, h, line),
        "operand c": lambda: quantum.gw3(p2, h, pt, q_h, line),
        "beta": lambda: quantum.gw3(p2, h, pt, h, (1, 1, 1)),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=f"^{name} .* is not a (CohomologyClass|CurveClass)$"):
            call()
    assert quantum.gw3(p2, pt, pt, h, line) == 1


# (call, the name its ValueError gives the operand, the type it asks for)
WRONG_TYPED_CALLS = {
    "quantum_product left": (
        lambda p2, h: quantum.quantum_product(p2, (1, 2), h), "operand a", QuantumClass
    ),
    "quantum_product right": (
        lambda p2, h: quantum.quantum_product(p2, h, 3), "operand b", QuantumClass
    ),
    "cup": (
        lambda p2, h: coho.cup(p2, quantum.classical(p2, h), h), "operand a", CohomologyClass
    ),
    "integrate": (
        lambda p2, h: coho.integrate(p2, quantum.classical(p2, h)), "operand a", CohomologyClass
    ),
    "class_degrees": (
        lambda p2, h: coho.class_degrees(p2, quantum.classical(p2, h)), "class", CohomologyClass
    ),
    "quantum_degrees": (lambda p2, h: quantum.quantum_degrees(p2, h), "qc", QuantumClass),
    "QuantumClass part": (
        lambda p2, h: QuantumClass({quantum.zero_curve(p2): 5}), "quantum class part", CohomologyClass
    ),
    # the value classes' own operands; a tuple key, coefficient or shift used
    # to be kept or read as a miss, and a bool scale factor was coerced
    "QuantumClass key": (
        lambda p2, h: QuantumClass({(1, 1, 1): h}), "quantum class key", CurveClass
    ),
    "QuantumClass.coefficient": (
        lambda p2, h: quantum.classical(p2, h).coefficient((1, 1, 1)), "beta", CurveClass
    ),
    "QuantumClass.shifted": (
        lambda p2, h: quantum.classical(p2, h).shifted((1, 1, 1)), "shift", CurveClass
    ),
    "QuantumClass +": (lambda p2, h: quantum.classical(p2, h) + 3, "operand", QuantumClass),
    "QuantumClass -": (lambda p2, h: quantum.classical(p2, h) - h, "operand", QuantumClass),
    "CohomologyClass +": (lambda p2, h: h + 3, "operand", CohomologyClass),
    "CohomologyClass -": (lambda p2, h: h - (1,), "operand", CohomologyClass),
    "CurveClass +": (lambda p2, h: CurveClass((1, 1, 1)) + (1, 1, 1), "operand", CurveClass),
    "CurveClass -": (lambda p2, h: CurveClass((1, 1, 1)) - 1, "operand", CurveClass),
    "CurveClass.scaled": (lambda p2, h: CurveClass((1, 1, 1)).scaled(True), "scale factor", int),
    # each of these used to end in AttributeError
    "evaluate_terms term": (
        lambda p2, h: quantum.evaluate_terms(p2, [(quantum.zero_curve(p2), (0,), 1)]),
        "term",
        QuantumTerm,
    ),
    "family_predicates member": (
        lambda p2, h: fano.family_predicates([((0, 1), 2)]), "family member", fano.ExceptionalData
    ),
    "tree_total entry": (
        lambda p2, h: curves.tree_total(((CurveClass((1, 1, 1)), 1),)), "tree", curves.ToricTree
    ),
    "normal_form list": (lambda p2, h: coho.normal_form(p2, [((0,), 1)]), "poly", Mapping),
    "normal_form None": (lambda p2, h: coho.normal_form(p2, None), "poly", Mapping),
}


@pytest.mark.parametrize("call, name, kind", WRONG_TYPED_CALLS.values(), ids=WRONG_TYPED_CALLS)
def test_operands_of_the_wrong_type_are_refused_by_name(p2, call, name, kind):
    # each used to end in AttributeError on the operand's missing .parts,
    # .coords or .is_zero, or to pass unnoticed; an int operand is refused
    # as fan._strict_int words it
    noun = "an integer" if kind is int else f"a {kind.__name__}"
    with pytest.raises(ValueError, match=f"^{name} .* is not {noun}$"):
        call(p2, coho.basis_class(p2, 1))


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


class _NotAStrategy:
    choice = 0


@pytest.mark.parametrize("rng", [5, 1.5, "seed", object(), _NotAStrategy()])
def test_rewrite_refuses_a_strategy_without_choice(p2, rng):
    # 5 used to pass where the rewrite drew nothing, (0, 1), and to fail
    # with a bare AttributeError where it drew, (0, 0, 1)
    for mono in ((0, 1), (0, 0, 1)):
        with pytest.raises(ValueError, match="choice"):
            quantum.reduce_monomial(p2, mono, rng)


def test_audit_still_catches_the_shared_head_defect(shared_head, monkeypatch):
    # X's ring, built past its FullClass gate: a random strategy draws once
    # per distinct monomial per call and still finds the defect.  The pins
    # are those of the deterministic strategy that trades the repeated
    # divisor of least exponent: it takes the branch seed 0 takes on
    # (0, 0, 0, 2, 5, 5), so seeds 1 to 3 are the ones that disagree there
    x = shared_head["x"]
    classify = fano.classify

    def as_full_class(fan):
        out = classify(fan)
        return out._replace(tier=fano.Tier.FULL_CLASS) if fan == x else out

    monkeypatch.setattr(fano, "classify", as_full_class)
    clear_caches()
    try:
        found = []
        for degree in range(1, 7):
            for mono in combinations_with_replacement(range(x.n_rays), degree):
                expected = quantum.reduce_monomial(x, mono)
                for seed in range(4):
                    if quantum.reduce_monomial(x, mono, random.Random(seed)) != expected:
                        found.append((mono, seed))
        assert {seed for mono, seed in found if mono == (0, 0, 0, 2, 5, 5)} == {1, 2, 3}, found
        assert len(found) == 26, found
    finally:
        clear_caches()  # X's ring must not outlive the patch


def test_a_random_rewrite_expands_each_monomial_once(bl3p2, monkeypatch):
    # counted, not timed: drawn afresh at every visit, D1^16 took minutes.
    # reduce is the recursive core, called once per step on a packed monomial
    reduce, pack = quantum._QuantumRing.reduce, coho._ring(bl3p2).pack
    expanded, memos = [], []

    def counted(ring, key, rng=None, memo=None):
        if memo is None or key not in memo:
            expanded.append(key)
        if memo is not None:
            memos.append(memo)
        return reduce(ring, key, rng, memo)

    monkeypatch.setattr(quantum._QuantumRing, "reduce", counted)
    for k in range(2, 19, 4):
        for seed in range(3):
            expanded.clear()
            memos.clear()
            quantum.reduce_monomial(bl3p2, (0,) * k, random.Random(seed))
            assert expanded[0] == pack((0,) * k)
            assert len(expanded) == len(set(expanded)), (k, seed)
            # every recursive call went through the counter, one fresh memo
            # per call, and each of its entries was expanded once
            assert len({id(memo) for memo in memos}) == 1, (k, seed)
            assert sorted(expanded) == sorted(memos[0]), (k, seed)


def test_a_random_rewrite_of_a_high_power_agrees(bl3p2, deadline):
    with deadline(30.0):
        expected = quantum.reduce_monomial(bl3p2, (0,) * 18)
        for seed in range(3):
            assert quantum.reduce_monomial(bl3p2, (0,) * 18, random.Random(seed)) == expected, seed


def _primitive_steps(fan, key):
    """The steps of the primitive sets a packed monomial's support contains,
    in primitive_data order, read off the fan: (target, q-shift) each."""
    ring, cring = quantum._qring(fan), coho._ring(fan)
    support = {i for i, e in enumerate(_fields(key, fan.n_rays)) if e}
    out = []
    for pd in fan_mod.primitive_data(fan):
        if set(pd.set) <= support:
            rhs = [j for j, a in zip(pd.rhs_cone, pd.rhs_coeffs) for _ in range(a)]
            out.append((key - cring.pack(pd.set) + cring.pack(rhs), quantum._pack(pd.cls.pairings) << ring.bits))
    return out


def test_a_primitive_step_shares_its_targets_parts(corpus, threefolds):
    # an entry whose monomial contains a primitive set holds the very parts
    # of its target, under the sum of the step's and the target's shifts;
    # every other entry (a linear step or a closed form) holds parts of its
    # own, so no entry is a re-keyed copy.  The deterministic memo takes the
    # first step; a random memo, passed in, one of those it contains
    for name, fan in sorted({**corpus, **threefolds}.items()):
        if fano.classify(fan).tier < fano.Tier.FULL_CLASS:
            continue
        clear_caches()
        ring, pack = quantum._qring(fan), coho._ring(fan).pack
        drawn = {}
        for i in range(fan.n_rays):
            ring.reduce(pack((i,) * 3 * fan.dim))
            ring.reduce(pack((i,) * 3 * fan.dim), random.Random(i), drawn)
        for memo, deterministic in ((ring.reduce_memo, True), (drawn, False)):
            own = 0
            for key, (shift, parts) in memo.items():
                steps = _primitive_steps(fan, key)
                if not steps:
                    own += 1
                    continue
                if deterministic:
                    steps = steps[:1]
                assert any(
                    target in memo and memo[target][1] is parts and memo[target][0] + step == shift
                    for target, step in steps
                ), (name, key)
            assert len({id(parts) for _, parts in memo.values()}) == own < len(memo), name


def test_the_deterministic_rewrite_of_each_divisor_power_expands_alike(bl3p2):
    # the repeated divisor of least exponent is traded first, whatever the
    # ray labels: trading the lowest index took 1,288-1,298 entries on D1^24
    # .. D3^24 and 337-338 on D4^24 .. D6^24
    counts = []
    for i in range(bl3p2.n_rays):
        clear_caches()
        quantum.reduce_monomial(bl3p2, (i,) * 24)
        counts.append(len(quantum._qring(bl3p2).reduce_memo))
    clear_caches()
    assert counts == [340, 335, 329, 337, 338, 338]


def _rewrite_depth(fan, mono, rng=None):
    """How deep the recursive core, _QuantumRing.reduce, recurses on a
    monomial from empty caches: counted by a wrapper patched in for the one
    call, the caches emptied again after it."""
    reduce = quantum._QuantumRing.reduce
    depth = [0, 0]

    def counted(ring, key, rng=None, memo=None):
        depth[0] += 1
        depth[1] = max(depth)
        try:
            return reduce(ring, key, rng, memo)
        finally:
            depth[0] -= 1

    clear_caches()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quantum._QuantumRing, "reduce", counted)
        try:
            quantum.reduce_monomial(fan, mono, rng)
        finally:
            clear_caches()
    return depth[1]


def test_the_rewrite_recurses_at_most_three_frames_per_degree(corpus):
    # counted, not timed: on D_i^40, deterministic and under Random(0), the
    # core recurses at most 3k deep (3k - 3 on Bl1P^2 and Bl2P^2; Bl3P^2 at
    # k = 40 is in tests/large_fans.py), and Bl1P^2 at the cap reaches
    # 3 * 128 - 3 = 381 frames, below the default recursion limit of 1000
    runs = [(name, fan, 40) for name, fan in corpus.items() if name != "bl3p2"]
    runs.append(("bl1p2", corpus["bl1p2"], quantum.MAX_REWRITE_DEGREE))
    deepest = {}
    for name, fan, k in runs:
        for i in range(fan.n_rays):
            for rng in (None, random.Random(0)):
                depth = _rewrite_depth(fan, (i,) * k, rng)
                assert depth <= 3 * k, (name, i, k, rng, depth)
                deepest[name, k] = max(deepest.get((name, k), 0), depth)
    assert deepest["bl1p2", 40] == deepest["bl2p2", 40] == 3 * 40 - 3
    assert deepest["bl1p2", quantum.MAX_REWRITE_DEGREE] == 381


def _tuple_reduce(fan, mono, rng=None, memo=None):
    """The reference rewrite on sorted tuples of divisor indices: the flat
    normal form of a sorted monomial, in the engine's key layout; without
    rng it makes the packed rewrite's choices.  It reads the primitive data, the
    linear rows, the special-set families and the face tables, and none of
    the packed code.  A random strategy draws at every choice, a fresh memo
    per call.  A primitive-set step copies its target's form shifted, as the
    packed rewrite's entries (shift, parts) avoid doing."""
    ring, cring = quantum._qring(fan), coho._ring(fan)
    memo = {} if memo is None else memo
    cached = memo.get(mono)
    if cached is not None:
        return cached
    support = tuple(dict.fromkeys(mono))
    contained = [pd for pd in fan_mod.primitive_data(fan) if set(pd.set) <= set(support)]
    if contained:
        pd = contained[0] if rng is None else rng.choice(contained)
        rest = list(mono)
        for i in pd.set:
            rest.remove(i)
        rest.extend(j for j, a in zip(pd.rhs_cone, pd.rhs_coeffs) for _ in range(a))
        shift = quantum._pack(pd.cls.pairings) << ring.bits
        result = {k + shift: c for k, c in _tuple_reduce(fan, tuple(sorted(rest)), rng, memo).items()}
    elif len(support) == len(mono):
        # the closed form: a signed sum over the families, each a q-shifted face form
        acc = {}
        for family in ring.families(mono, "no_overlaps"):
            beta = ring.family_class(family)
            tau = tuple(i for i in mono if beta[i] != 1)
            shift = quantum._pack(beta) << ring.bits
            for k, c in cring.table(len(tau))[1][tau].items():
                acc[k + shift] = acc.get(k + shift, 0) + (-1) ** len(family) * c
        result = {k: c for k, c in acc.items() if c}
    else:
        # a repeated D_i traded by its linear row in a maximal cone over the support
        above = fan_mod._face_index(fan)[support]
        repeated = tuple(dict.fromkeys(a for a, b in zip(mono, mono[1:]) if a == b))
        # deterministic: the repeated divisor of least exponent, the lowest on a tie
        least = min(repeated, key=lambda r: (mono.count(r), r))
        i, mu = (least, above[0]) if rng is None else (rng.choice(repeated), rng.choice(above))
        rest = list(mono)
        rest.remove(i)
        acc = {}
        for j, c in cring.linear_row(mu, i):
            for k, v in _tuple_reduce(fan, tuple(sorted(rest + [j])), rng, memo).items():
                acc[k] = acc.get(k, 0) + c * v
        result = {k: c for k, c in acc.items() if c}
    memo[mono] = result
    return result


def _check_against_the_tuple_rewrite(fan, monomials, seeds=(0, 1, 2)):
    """The packed rewrite equals the tuple reference on each sorted
    monomial, deterministic and under each seeded random strategy (both
    sides drawn from the same seed), coefficient types included; the packed
    side is compared as the form its entry (shift, parts) stands for."""
    ring, pack = quantum._qring(fan), coho._ring(fan).pack
    for mono in monomials:
        want = _tuple_reduce(fan, mono)
        got = quantum._shifted(ring.reduce(pack(mono)))
        assert got == want and _typed(ring.to_class(got)) == _typed(ring.to_class(want)), mono
        for seed in seeds:
            assert quantum._shifted(ring.reduce(pack(mono), random.Random(seed))) == want, (mono, seed)
            assert _tuple_reduce(fan, mono, random.Random(seed)) == want, (mono, seed)


def _pair_monomials(fan):
    """Every tau_i + tau_j of the basis, i <= j, sorted."""
    taus = coho.basis_tau(fan)
    return [tuple(sorted(a + b)) for k, a in enumerate(taus) for b in taus[k:]]


def test_the_packed_rewrite_equals_the_tuple_rewrite(corpus, threefolds, fano_threefolds, gl_image):
    # each FullClass fan and two GL images of it; seeded monomials of degree
    # n+1 .. 3n and every tau_i + tau_j, the pair products' rewrites
    rng = random.Random(36)
    base = {**corpus, **threefolds, **fano_threefolds}
    checked = 0
    for name, fan in base.items():
        if fano.classify(fan).tier < fano.Tier.FULL_CLASS:
            continue
        for f in [fan, gl_image(fan, rng), gl_image(fan, rng)]:
            n, m = f.dim, f.n_rays
            seeded = [tuple(sorted(rng.randrange(m) for _ in range(d))) for d in range(n + 1, 3 * n + 1)]
            _check_against_the_tuple_rewrite(f, seeded + _pair_monomials(f))
            checked += 1
    # 18 FullClass fans: the corpus's, the threefolds and their blow-ups
    assert checked == 3 * 18, checked


def _fields(key, m):
    """The m exponent fields of a packed monomial."""
    w = coho._FIELD_BITS
    return [key >> (w * i) & ((1 << w) - 1) for i in range(m)]


@pytest.mark.parametrize("exponent", [0, 1, 2, 127, 128])
@pytest.mark.parametrize("field", ["lowest", "highest"])
def test_packed_fields_hold_their_bounds(bl3p2, exponent, field):
    # one field at a bound, its neighbours nonzero (the smallest and the
    # largest exponent, where a carry would show): packing, the support, the
    # repeated divisors and both kinds of step read each field alone
    ring, m = coho._ring(bl3p2), bl3p2.n_rays
    at = 0 if field == "lowest" else m - 1
    for neighbour in (1, 128):
        exps = [neighbour] * m
        exps[at] = exponent
        key = ring.pack([i for i, e in enumerate(exps) for _ in range(e)])
        assert key == sum(e << (coho._FIELD_BITS * i) for i, e in enumerate(exps))
        assert _fields(key, m) == exps
        rays, above = ring.support(key)
        assert rays == tuple(i for i, e in enumerate(exps) if e)
        assert above == fan_mod._face_index(bl3p2).get(rays, [])
        assert coho._rays((key + ring.at_least_two) & ring.high) == [i for i, e in enumerate(exps) if e >= 2]
        # a linear step on the field, and a primitive step through it
        if exponent:
            mu = fan_mod._face_index(bl3p2)[(at,)][0]
            for (sub, c), (j, cj) in zip(ring.linear_step(key, at, mu), ring.linear_row(mu, at)):
                want = list(exps)
                want[at] -= 1
                want[j] += 1
                assert c == cj and _fields(sub, m) == want
        for (mask, delta, _), pd in zip(quantum._qring(bl3p2).pdata, fan_mod.primitive_data(bl3p2)):
            if at in pd.set and exponent and all(exps[i] for i in pd.set):
                assert (key + ring.at_least_one) & ring.high & mask == mask
                want = list(exps)
                for i in pd.set:
                    want[i] -= 1
                for j, a in zip(pd.rhs_cone, pd.rhs_coeffs):
                    want[j] += a
                assert _fields(key + delta, m) == want


def test_the_field_width_covers_the_rewrite_cap():
    # an exponent of at most the cap, plus what a mask test adds, stays in
    # its field; 8 bits for 128
    w = coho._FIELD_BITS
    assert quantum.MAX_REWRITE_DEGREE + (1 << (w - 1)) - 1 < 1 << w
    assert quantum.MAX_REWRITE_DEGREE >= 1 << (w - 2)
    assert (quantum.MAX_REWRITE_DEGREE, w) == (128, 8)


def test_the_cap_monomial_of_the_last_ray(p2, p1xp1):
    # the highest field at the cap, against the tuple reference
    for fan in (p2, p1xp1):
        cap = (fan.n_rays - 1,) * quantum.MAX_REWRITE_DEGREE
        _check_against_the_tuple_rewrite(fan, [cap])
        assert quantum.reduce_monomial(fan, cap) == quantum._qring(fan).to_class(_tuple_reduce(fan, cap))


def _oracle_linear_row(fan, mu, i):
    """(j, -<phi_i, v_j>) for the rays j outside mu, zeros dropped, phi_i
    from the direct elimination on mu's generators."""
    inverse = lattice.integer_inverse(lattice.mat_from_columns(fan_mod.cone_generators(fan, mu)))
    pairs = [(j, -lattice.dot(inverse[mu.index(i)], ray)) for j, ray in enumerate(fan.rays) if j not in mu]
    return tuple((j, c) for j, c in pairs if c)


def test_lattice_functional_kronecker(corpus, threefolds):
    # the rewrite's dual functional of ray i in mu is row mu.index(i) of the
    # cone inverse, and its memoized linear row holds -<phi_i, v_j> for
    # every ray j outside mu
    for fan in list(corpus.values()) + list(threefolds.values()):
        ring = coho._ring(fan)
        for mu in fan.max_cones:
            # the direct elimination on the cone's generators is the oracle
            inverse = lattice.integer_inverse(lattice.mat_from_columns(fan_mod.cone_generators(fan, mu)))
            for k, i in enumerate(mu):
                phi = fan_mod.cone_inverse(fan, mu)[mu.index(i)]
                assert phi == tuple(inverse[k])
                for j in mu:
                    assert lattice.dot(phi, fan.rays[j]) == (1 if i == j else 0)
                assert ring.linear_row(mu, i) == _oracle_linear_row(fan, mu, i), (mu, i)
        assert len(ring._linear_rows) == len(fan.max_cones) * fan.dim


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
    # the ring refuses the fan where it is built, whatever the operands
    a, zero = coho.basis_class(bundle3, 1), CohomologyClass()
    for x, y in ((a, a), (zero, a), (a, zero), (zero, zero)):
        with pytest.raises(NotInClass):
            quantum.quantum_product(bundle3, x, y)
    with pytest.raises(NotInClass):
        quantum.gw3(bundle3, zero, a, a, quantum.zero_curve(bundle3))
    assert issubclass(NotInClass, NotInTier)


def test_rewrite_is_refused_below_full_class(shared_head):
    # one ray heads two primitive relations, where the rewrite is not
    # confluent: every entry point of the quantum ring refuses the fan,
    # whatever its operands, and the presentation stands
    for name, fan in shared_head.items():
        assert fano.classify(fan).tier is fano.Tier.SUBVARIETIES_FANO, name
        heads = [pd.rhs_cone for pd in fan_mod.primitive_data(fan) if len(pd.set) == 2]
        assert heads.count((4,)) == 2, name
        assert quantum.presentation(fan).n_generators == fan.n_rays
        zero = quantum.zero_curve(fan)
        a, nil = coho.basis_class(fan, 1), CohomologyClass()
        calls = [  # the traceback's lambda line names the call that did not raise
            lambda: quantum.reduce_monomial(fan, (0, 0, 0, 2, 5, 5)),
            lambda: quantum.reduce_monomial(fan, (0, 0, 0, 2, 5, 5), random.Random(0)),
            lambda: quantum.divisor_product_closed_form(fan, fan.max_cones[0]),
            lambda: quantum.evaluate_terms(fan, [QuantumTerm(zero, (0,), 1)]),
            lambda: quantum.evaluate_terms(fan, []),
            lambda: quantum.quantum_product(fan, a, a),
            lambda: quantum.quantum_product(fan, nil, a),
            lambda: quantum.quantum_product(fan, a, nil),
            lambda: quantum.gw3(fan, nil, a, a, zero),
            lambda: quantum.giambelli(fan, fan.max_cones[0]),
        ]
        for call in calls:
            with pytest.raises(NotInClass):
                call()


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
    assert total - x == shifted
    assert repr(total) == (
        "QuantumClass(q^(0, 0, 0)*(CohomologyClass(1*b0)) + q^(1, 1, 1)*(CohomologyClass(1*b0)))"
    )
    assert repr(QuantumClass()) == "QuantumClass(0)"
    # equal classes built in another order hash alike
    twin = shifted + x
    assert hash(twin) == hash(total) and len({total, twin}) == 1


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
            assert all(type(c) is int for c in ring.form(ring.pack(mono)).values())
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
    # the ring now holds the line's key, and the tuple (pairings,) hashes as
    # the line does: it is still no CurveClass
    key = (line.pairings,)
    assert hash(key) == hash(line)
    with pytest.raises(ValueError, match=re.escape(f"{key!r} is not a CurveClass")):
        quantum.quantum_product(p2, QuantumClass({key: unit}), unit)
    with pytest.raises(ValueError, match=re.escape(f"{key!r} is not a CurveClass")):
        quantum.quantum_product(p2, unit, QuantumClass({key: unit}))


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


def test_decoded_classes_reenter_the_engine_unchecked(bl3p2, p2, monkeypatch):
    # a class the engine returned is a sum of checked classes: the next step
    # of a power chain does not run fan.curve_class on it again
    clear_caches()
    h = coho.stratum_class(bl3p2, (0,))
    for i in range(1, bl3p2.n_rays):
        h = h + coho.stratum_class(bl3p2, (i,))
    power = quantum.quantum_product(bl3p2, h, h)
    power = quantum.quantum_product(bl3p2, power, h)
    decoded = {beta.pairings for beta in power.parts if not beta.is_zero()}
    assert decoded
    calls = []
    check = fan_mod.curve_class
    monkeypatch.setattr(fan_mod, "curve_class", lambda fan, p: calls.append(tuple(p)) or check(fan, p))
    after = quantum.quantum_product(bl3p2, power, h)
    assert not decoded & set(calls)
    # a class the caller builds equal to a decoded one is the same key
    rebuilt = QuantumClass({CurveClass(beta.pairings): cls for beta, cls in power.parts.items()})
    assert all(a is not b for a, b in zip(rebuilt.parts, power.parts))
    assert quantum.quantum_product(bl3p2, rebuilt, h) == after
    assert quantum.quantum_product(bl3p2, h, rebuilt) == after
    assert not decoded & set(calls)
    # a decoded pairing of 2^37 or more is still refused when it re-enters
    h, h2 = basis(p2)[1:]
    edge = CurveClass((2**37 - 1,) * 3)
    both = quantum.quantum_product(p2, QuantumClass({edge: h}), QuantumClass({edge: h2}))
    with pytest.raises(PreconditionFailed, match="2\\^37"):
        quantum.quantum_product(p2, both, h)


def _counted_checks(monkeypatch):
    """Counters of the two checks a part of an operand passes on entry."""
    calls = {"check_curve": 0, "coords": 0}
    check_curve, coords = quantum._QuantumRing.check_curve, coho._CohomologyRing.coords

    def counted_check_curve(ring, beta):
        calls["check_curve"] += 1
        return check_curve(ring, beta)

    def counted_coords(ring, cls, what="class"):
        calls["coords"] += 1
        return coords(ring, cls, what)

    monkeypatch.setattr(quantum._QuantumRing, "check_curve", counted_check_curve)
    monkeypatch.setattr(coho._CohomologyRing, "coords", counted_coords)
    return calls


def _read(qclass):
    """qclass once its parts are read, as a caller reads them."""
    qclass.parts  # the read decodes the flat form and drops it
    return qclass


def test_an_unread_product_reenters_the_engine_unchecked(bl3p2, monkeypatch):
    # a power chain checks only its right operand: each product goes on to
    # the next step as the engine's flat form, and is decoded only when read;
    # the cohomology class h enters as its coordinates, with no curve class
    h, _ = _divisor_power(bl3p2, 1)
    power, read = quantum.quantum_product(bl3p2, h, h), _read(quantum.quantum_product(bl3p2, h, h))
    calls = _counted_checks(monkeypatch)
    for _ in range(4):
        power = quantum.quantum_product(bl3p2, power, h)
    assert calls == {"check_curve": 0, "coords": 4}  # h, once per step
    assert quantum.quantum_degrees(bl3p2, power) == {6}
    assert calls == {"check_curve": 0, "coords": 4}
    # a class read at every step re-enters part by part, and ends equal
    for _ in range(4):
        read = _read(quantum.quantum_product(bl3p2, read, h))
    assert _typed(power) == _typed(read) and power == read
    # once read, the same class re-enters through the checks, one per part
    calls.update(check_curve=0, coords=0)
    nxt = quantum.quantum_product(bl3p2, power, h)
    n = len(power.parts)
    assert n > 1 and calls == {"check_curve": n, "coords": n + 1}
    assert nxt == quantum.quantum_product(bl3p2, read, h)


def test_a_flat_form_is_trusted_on_its_own_ring_alone(bl3p2, gl_image, monkeypatch):
    # the keys of a flat form name basis indices of the ring that made it:
    # on a GL image of the fan (whose shelling pins another basis here) or
    # on the fan's ring rebuilt after clear_caches(), an unread class
    # re-enters through the checks like any other
    clear_caches()
    h, _ = _divisor_power(bl3p2, 1)
    image = gl_image(bl3p2, random.Random(0))
    assert coho.basis_tau(image) != coho.basis_tau(bl3p2)
    h_image, _ = _divisor_power(image, 1)
    square = _read(quantum.quantum_product(bl3p2, h, h))
    unread = [quantum.quantum_product(bl3p2, h, h) for _ in range(3)]
    want_image = _read(quantum.quantum_product(image, square, h_image))
    assert quantum.quantum_degrees(image, square) == quantum.quantum_degrees(image, unread[0])
    calls = _counted_checks(monkeypatch)
    n = len(square.parts)
    assert quantum.quantum_product(image, unread[1], h_image) == want_image
    assert calls == {"check_curve": n, "coords": n + 1}
    monkeypatch.undo()
    clear_caches()
    want = _read(quantum.quantum_product(bl3p2, square, h))
    calls = _counted_checks(monkeypatch)
    got = quantum.quantum_product(bl3p2, unread[2], h)
    assert calls == {"check_curve": n, "coords": n + 1}
    assert _typed(got) == _typed(want) and got == want
    monkeypatch.undo()
    clear_caches()


def test_an_unread_class_equals_and_hashes_as_its_decoded_twin(bl3p2):
    h, _ = _divisor_power(bl3p2, 1)
    first, second = (quantum.quantum_product(bl3p2, h, h) for _ in range(2))
    twin = _read(quantum.quantum_product(bl3p2, h, h))
    assert hash(first) == hash(twin) and first == twin and twin == second
    assert len({quantum.quantum_product(bl3p2, h, h), twin}) == 1
    # a copy or a pickle of an unread class is its decoded twin, with no ring
    for copied in (
        pickle.loads(pickle.dumps(quantum.quantum_product(bl3p2, h, h))),
        copy.deepcopy(quantum.quantum_product(bl3p2, h, h)),
    ):
        assert copied._ring is None and copied == twin
    zero = quantum.quantum_product(bl3p2, h, coho.CohomologyClass())
    assert zero == QuantumClass() and hash(zero) == hash(QuantumClass()) and zero.is_zero()


def test_zero_entries_of_an_unread_class_do_not_reenter(p1xp1):
    # on P^1 x P^1, with h1, h2 the two rulings, (h1 - h2)(h1 + h2) leaves a
    # Fraction zero on the point class (h1 h2 - h2 h1, the first a Fraction);
    # times h1 + h2 it must not turn the int q2 h1 entry into a Fraction
    h1, h2 = coho.stratum_class(p1xp1, (0,)), coho.stratum_class(p1xp1, (2,))
    (i1,), (i2,) = h1.coords, h2.coords
    left = CohomologyClass({i1: Fraction(1), i2: -1})
    unread = quantum.quantum_product(p1xp1, left, h1 + h2)
    assert any(c == 0 and type(c) is Fraction for c in unread._flat.values())
    read = _read(quantum.quantum_product(p1xp1, left, h1 + h2))
    got = quantum.quantum_product(p1xp1, unread, h1 + h2)
    want = quantum.quantum_product(p1xp1, read, h1 + h2)
    assert _typed(got) == _typed(want) and got == want
    assert int in _typed(got).values() and Fraction in _typed(got).values()


def test_sums_of_unread_classes_equal_the_sums_of_their_decoded_twins(p1xp1, bl3p2):
    # a sum or difference of unread classes of one ring, or of an unread
    # class and a read, caller-built or other-ring one (the fan's ring
    # rebuilt after clear_caches()), equals, hashes and pickles as the sum of
    # the decoded twins, coefficient types included.  On P^1 x P^1 one
    # operand carries a Fraction zero, which must not turn an int entry of
    # the other into a Fraction.
    h1, h2 = coho.stratum_class(p1xp1, (0,)), coho.stratum_class(p1xp1, (2,))
    (i1,), (i2,) = h1.coords, h2.coords
    left = CohomologyClass({i1: Fraction(1), i2: -1})
    h, _ = _divisor_power(bl3p2, 1)
    hh = lambda: quantum.quantum_product(bl3p2, h, h)
    cases = [
        (lambda: quantum.quantum_product(p1xp1, left, h1 + h2),
         lambda: quantum.quantum_product(p1xp1, h1 + h2, h1 + h2)),
        (hh, lambda: quantum.quantum_product(bl3p2, hh(), h)),
        (hh, lambda: _read(hh())),
        (hh, lambda: QuantumClass(_read(hh()).parts)),
    ]
    for make_x, make_y in cases:
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: b - a):
            got = op(make_x(), make_y())
            want = op(_read(make_x()), _read(make_y()))
            pickled = pickle.loads(pickle.dumps(op(make_x(), make_y())))
            assert hash(got) == hash(want) and got == want and pickled == want
            assert _typed(got) == _typed(want) == _typed(pickled)
    old = hh()
    clear_caches()
    new = hh()
    assert old._ring is not new._ring
    assert old + new == _read(hh()).scaled(2) and (old - new).is_zero()
    x = hh()
    assert x - x == QuantumClass() and hash(x - x) == hash(QuantumClass())
    clear_caches()


def test_gw3_reads_beta_off_the_flat_product(corpus):
    # gw3 takes beta's q-part from the unread product's keys: it equals the
    # pairing of quantum_product(...).coefficient(beta), type included, for
    # every basis triple, with beta zero or each primitive class
    checked = 0
    for name, fan in sorted(corpus.items()):
        b = basis(fan)
        betas = [quantum.zero_curve(fan)] + [pd.cls for pd in fan_mod.primitive_data(fan)]
        for beta in betas:
            for x, y, z in product(b, repeat=3):
                piece = quantum.quantum_product(fan, x, y).coefficient(beta)
                want = coho.integrate(fan, coho.cup(fan, piece, z))
                got = quantum.gw3(fan, x, y, z, beta)
                assert got == want and type(got) is type(want), (name, beta)
                checked += 1
    assert checked == 3348
    # a class past the packing range is no engine class: its invariant is 0
    line = fan_mod.curve_class(corpus["p2"], (2**45,) * 3)
    pt = coho.point_class(corpus["p2"])
    assert quantum.gw3(corpus["p2"], pt, pt, pt, line) == 0


def test_a_power_chain_equals_the_rewrite(corpus, threefolds):
    # D_i^k as k - 1 products by D_i, each step unread, equals the rewrite of
    # the monomial (i,) * k up to k = 3n, coefficient types included
    for name, fan in sorted({**corpus, **threefolds}.items()):
        if fano.classify(fan).tier < fano.Tier.FULL_CLASS:
            continue
        for i in range(fan.n_rays):
            d = coho.stratum_class(fan, (i,))
            powers = [quantum.classical(fan, d)]
            for _ in range(3 * fan.dim - 1):
                powers.append(quantum.quantum_product(fan, powers[-1], d))
            for k, power in enumerate(powers, 1):
                want = quantum.reduce_monomial(fan, (i,) * k)
                assert _typed(power) == _typed(want), (name, i, k)
                assert power == want, (name, i, k)


def test_packed_keys_round_trip_at_the_digit_bounds(bl3p2):
    # a flat key is (packed class << bits) + basis index; both parts decode
    # exactly at the extreme digits and the extreme indices, for basis sizes
    # 1, 2, 6 and 216 ((Bl3P^2)^3), through _unpack as decode does
    half = 2**39
    vectors = [(0,), (half - 1, -half, 0, 1, -1), (-half, -half, half - 1), (7, 0, 0, -3)]
    for size, bits in ((1, 1), (2, 1), (6, 3), (216, 8)):
        assert quantum._key_bits(size) == bits
        for pairings in vectors:
            n = len(pairings)
            bias = quantum._pack((quantum._HALF_DIGIT,) * n)
            assert quantum._unpack(quantum._pack(pairings), n, bias) == pairings
            for index in (0, 2**bits - 1):
                key = (quantum._pack(pairings) << bits) + index
                assert (quantum._unpack(key >> bits, n, bias), key & (2**bits - 1)) == (pairings, index)
    # and through to_class and a read of its parts, on the six rays of
    # Bl3P^2 (basis size 6)
    clear_caches()
    ring = quantum._qring(bl3p2)
    assert ring.bits == 3
    for pairings in [(half - 1, -half, 0, 1, -1, half - 1), (-half,) * 6, (0,) * 6]:
        for index in (0, 7):
            got = ring.to_class({(quantum._pack(pairings) << 3) + index: 1})
            assert got.parts == {CurveClass(pairings): CohomologyClass({index: 1})}
    clear_caches()


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


def _divisor_power(fan, k):
    """h = sum (r + 1) D_r with int coefficients, and the quantum power h^k."""
    h = CohomologyClass()
    for r in range(fan.n_rays):
        h = h + coho.stratum_class(fan, (r,)).scaled(r + 1)
    power = quantum.classical(fan, h)
    for _ in range(k - 1):
        power = quantum.quantum_product(fan, power, h)
    return h, power


def test_folded_product_matches_the_term_by_term_reference(corpus, threefolds):
    fans = {**corpus, **threefolds}
    for name, fan in sorted(fans.items()):
        if fano.classify(fan).tier < fano.Tier.FULL_CLASS:
            continue
        rng = random.Random(name)
        pairs = [(_random_quantum_class(fan, rng), _random_quantum_class(fan, rng)) for _ in range(8)]
        # chain-shaped: a power of many parts times an int divisor class, then
        # the same product with equal Fraction coefficients, computed one
        # right after the other: the second must not take the first's types
        h, x = _divisor_power(fan, fan.dim + 2)
        h_frac = CohomologyClass({i: Fraction(c) for i, c in h.coords.items()})
        pairs += [(x, quantum.classical(fan, h)), (x, quantum.classical(fan, h_frac))]
        products = [quantum.quantum_product(fan, a, b) for a, b in pairs]
        for (a, b), got in zip(pairs, products):
            want = _reference_product(fan, a, b)
            assert got == want, (name, a, b)
            assert _typed(got) == _typed(want), (name, a, b)
            assert quantum.quantum_product(fan, b, a) == got, (name, a, b)


def _giambelli_pair_product(fan, i, j):
    """b_i * b_j by the Giambelli route, from public calls: the rewrite of
    each product of a Giambelli term of tau_i with one of tau_j, its class
    the sum of theirs."""
    taus = coho.basis_tau(fan)
    return quantum.evaluate_terms(fan, [
        QuantumTerm(s.curve + t.curve, s.monomial + t.monomial, s.coefficient * t.coefficient)
        for s in quantum.giambelli(fan, taus[i])
        for t in quantum.giambelli(fan, taus[j])
    ])


def test_pair_products_match_the_giambelli_reference(corpus, threefolds):
    # the engine inverts the closed forms and uses no Giambelli lift: every
    # basis pair must equal the rewritten product of the two lifts
    p1 = catalog.projective_space(1)
    fans = {**corpus, **threefolds, "p1^4": catalog.product(p1, p1, p1, p1)}
    for name, fan in sorted(fans.items()):
        classes = basis(fan)
        for i, j in combinations_with_replacement(range(len(classes)), 2):
            got = quantum.quantum_product(fan, classes[i], classes[j])
            want = _giambelli_pair_product(fan, i, j)
            assert got == want, (name, i, j)
            assert _typed(got) == _typed(want), (name, i, j)


def test_quantum_kunneth(corpus, p3):
    # (a x a') * (b x b') = sum of q^(beta, beta') (a * b)_beta x (a' * b')_beta'
    # on every ordered basis pair: catalog.product numbers the rays factor by
    # factor, so a class of the product pairs as the factors' pairings
    # concatenated, and b_k x b'_l is the stratum of the union of tau_k and tau'_l
    p1 = catalog.projective_space(1)
    pairs = 0
    bl1, p2, bl3 = corpus["bl1p2"], corpus["p2"], corpus["bl3p2"]
    for x, y in ((bl3, p1), (p2, p2), (bl1, bl3), (p3, p1)):
        fan = catalog.product(x, y)
        tx, ty = coho.basis_tau(x), coho.basis_tau(y)
        lift = {
            (k, l): coho.stratum_class(fan, tx[k] + tuple(x.n_rays + r for r in ty[l]))
            for k in range(len(tx))
            for l in range(len(ty))
        }

        def tensor(a, b):
            terms = [lift[k, l].scaled(c * d) for k, c in a.coords.items() for l, d in b.coords.items()]
            return sum(terms, CohomologyClass())

        for (i, j), (k, l) in product(lift, repeat=2):
            left = quantum.quantum_product(x, coho.basis_class(x, i), coho.basis_class(x, k))
            right = quantum.quantum_product(y, coho.basis_class(y, j), coho.basis_class(y, l))
            want = QuantumClass({
                CurveClass(beta.pairings + gamma.pairings): tensor(a, b)
                for beta, a in left.parts.items()
                for gamma, b in right.parts.items()
            })
            assert quantum.quantum_product(fan, lift[i, j], lift[k, l]) == want, (fan, i, j, k, l)
            pairs += 1
    assert pairs == 865


@pytest.mark.parametrize("corrupt", [
    lambda form, k: form.update({k: 2 * form[k]}),
    lambda form, k: form.update({k + 1: 1}),
    lambda form, k: form.pop(k),
], ids=["doubled", "extra index", "missing"])
def test_a_closed_form_off_its_basis_class_is_refused(bl1p2, monkeypatch, corrupt):
    # the inversion is sound only if the q^0 part of the closed form of tau_k,
    # its keys below 2^bits, is b_k; any other makes every product wrong, so
    # it raises (no assert, which python -O would strip)
    taus, closed_form = coho.basis_tau(bl1p2), quantum._QuantumRing.closed_form
    k = next(k for k, tau in enumerate(taus) if len(tau) == 1)

    def tampered(ring, sigma):
        form = dict(closed_form(ring, sigma))
        if sigma == taus[k]:
            assert form[k] == 1 and k + 1 not in form and k + 1 < 2**ring.bits
            corrupt(form, k)
        return form

    clear_caches()
    monkeypatch.setattr(quantum._QuantumRing, "closed_form", tampered)
    try:
        with pytest.raises(RingInconsistent, match=f"closed form of basis cone {k}"):
            quantum.quantum_product(bl1p2, coho.basis_class(bl1p2, k), coho.unit_class(bl1p2))
    finally:
        monkeypatch.undo()
        clear_caches()
    assert quantum.quantum_product(bl1p2, coho.unit_class(bl1p2), coho.basis_class(bl1p2, k)) == (
        quantum.classical(bl1p2, coho.basis_class(bl1p2, k))
    )


def test_a_product_cut_short_leaves_no_partial_memo(bl3p2, monkeypatch):
    # a product or a random rewrite that raises part way, at any step of the
    # rewrite or while a linear-rows entry is filled, must leave nothing in
    # the ring's memos that the next call would reuse
    h, x = _divisor_power(bl3p2, 3)
    left = quantum.classical(bl3p2, h)
    want = _reference_product(bl3p2, left, x)
    mono = (0,) * 6 + (3, 3)
    want_mono = quantum.reduce_monomial(bl3p2, mono)
    steps, cut, filling = [], 0, [False]
    reduce, linear_row, dot = quantum._QuantumRing.reduce, coho._CohomologyRing.linear_row, lattice.dot

    class Cut(Exception):
        pass

    def step():
        steps.append(None)
        if len(steps) == cut:
            raise Cut

    def cut_reduce(ring, mono, rng=None, memo=None):
        step()
        return reduce(ring, mono, rng, memo)

    def cut_fill(ring, mu, i):
        filling[0] = True
        try:
            return linear_row(ring, mu, i)
        finally:
            filling[0] = False

    def cut_dot(u, v):
        if filling[0]:
            step()
        return dot(u, v)

    def product():
        return quantum.quantum_product(bl3p2, left, x)

    def random_rewrite():
        return quantum.reduce_monomial(bl3p2, mono, random.Random(0))

    for where, call, expected in [
        ("rewrite step", product, want),
        ("rewrite step", random_rewrite, want_mono),
        ("linear row", product, want),
    ]:
        if where == "rewrite step":
            monkeypatch.setattr(quantum._QuantumRing, "reduce", cut_reduce)
        else:
            monkeypatch.setattr(coho._CohomologyRing, "linear_row", cut_fill)
            monkeypatch.setattr(lattice, "dot", cut_dot)
        cut = 0
        clear_caches()
        steps.clear()
        call()
        assert steps, where
        for cut in range(1, len(steps) + 1):
            clear_caches()
            steps.clear()
            with pytest.raises(Cut):
                call()
            got = call()
            assert got == expected, (where, cut)
            assert _typed(got) == _typed(expected), (where, cut)
            assert quantum.reduce_monomial(bl3p2, mono) == want_mono, (where, cut)
            # every filled row is whole
            ring = coho._ring(bl3p2)
            for (mu, i), row in ring._linear_rows.items():
                assert row == _oracle_linear_row(bl3p2, mu, i), (where, cut)
        monkeypatch.undo()


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
    # beside indices in range, the bad one is still the one named
    mixed = CohomologyClass({0: 1, index: 2, 2: 3})
    for call in (
        lambda: quantum.quantum_product(p2, mixed, unit),
        lambda: quantum.quantum_product(p2, unit, qc(((1, 1, 1), mixed))),
    ):
        with pytest.raises(IndexOutOfRange, match=f"basis index {index} out of range"):
            call()
