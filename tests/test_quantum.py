import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from toricqh import catalog, clear_caches
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
}


@pytest.mark.parametrize("call, name, kind", WRONG_TYPED_CALLS.values(), ids=WRONG_TYPED_CALLS)
def test_operands_of_the_wrong_type_are_refused_by_name(p2, call, name, kind):
    # each used to end in AttributeError on the operand's missing .parts,
    # .coords or .is_zero
    with pytest.raises(ValueError, match=f"^{name} .* is not a {kind.__name__}$"):
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
    # per distinct monomial per call, and still disagrees with the
    # deterministic one exactly where drawing afresh at every visit did
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
        assert ((0, 0, 0, 2, 5, 5), 0) in found
        assert len(found) == 10, found
    finally:
        clear_caches()  # X's ring must not outlive the patch


def test_a_random_rewrite_expands_each_monomial_once(bl3p2, monkeypatch):
    # counted, not timed: drawn afresh at every visit, D1^16 took minutes
    reduce = quantum._QuantumRing.reduce
    expanded = []

    def counted(ring, mono, rng=None, memo=None):
        if memo is None or mono not in memo:
            expanded.append(mono)
        return reduce(ring, mono, rng, memo)

    monkeypatch.setattr(quantum._QuantumRing, "reduce", counted)
    for k in range(2, 19, 4):
        for seed in range(3):
            expanded.clear()
            quantum.reduce_monomial(bl3p2, (0,) * k, random.Random(seed))
            assert expanded[0] == (0,) * k
            assert len(expanded) == len(set(expanded)), (k, seed)


def test_a_random_rewrite_of_a_high_power_agrees(bl3p2, deadline):
    with deadline(30.0):
        expected = quantum.reduce_monomial(bl3p2, (0,) * 18)
        for seed in range(3):
            assert quantum.reduce_monomial(bl3p2, (0,) * 18, random.Random(seed)) == expected, seed


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


def test_packed_keys_round_trip_at_the_digit_bounds(bl3p2):
    # a flat key is (packed class << bits) + basis index; both parts decode
    # exactly at the extreme digits and the extreme indices, for basis sizes
    # 1, 2, 6 and 216 ((Bl3P^2)^3), through _unpack as to_class does
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
    # and through to_class itself, on the six rays of Bl3P^2 (basis size 6)
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
